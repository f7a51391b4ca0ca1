"""W600 — wire-protocol exhaustiveness.

The paper's entities exchange typed XML messages
(``protocol/messages.py``): each message class carries a ``TYPE``
string, serializes through ``body()`` (which returns the serialised
XML fragment, as text) and parses through ``from_body()`` (which takes
the parsed ``<msg>`` element), registers in ``MESSAGE_TYPES`` so
``decode`` can route it, and is handled by some entity
(``RegistryCore``, the monitor, the commander, the live drivers).  Any
link in that chain can drift independently — a class missing from
``MESSAGE_TYPES`` encodes fine and raises only when the *peer* tries to
decode it.

========  ========  =====================================================
code      severity  finding
========  ========  =====================================================
W601      error     message class not registered in ``MESSAGE_TYPES``
W602      error     message class missing ``body()`` or ``from_body()``
W603      error     duplicate ``TYPE`` wire string (later registration
                    silently shadows the earlier class)
W604      error     message class never isinstance-handled outside the
                    protocol module — arrives and is dropped on the
                    floor
========  ========  =====================================================

The messages module is discovered by shape: at least two top-level
classes with a string ``TYPE`` class attribute plus a
``MESSAGE_TYPES`` registry assignment.  Silent when absent from the
linted file set.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from ..diagnostics import Diagnostic, Severity
from .model import (
    PyModule,
    imports_from,
    isinstance_targets,
    module_basename,
    str_const,
)


@dataclass
class MessageClass:
    name: str
    lineno: int
    wire_type: str
    type_lineno: int
    methods: Set[str]


@dataclass
class WireContract:
    module: PyModule
    classes: List[MessageClass]
    #: Class names referenced in the MESSAGE_TYPES registry value.
    registered: Set[str]
    registry_lineno: int


def _message_class(node: ast.ClassDef) -> Optional[MessageClass]:
    wire_type: Optional[str] = None
    type_lineno = node.lineno
    methods: Set[str] = set()
    for stmt in node.body:
        if (isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == "TYPE"):
            wire_type = str_const(stmt.value)
            type_lineno = stmt.lineno
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods.add(stmt.name)
    if wire_type is None:
        return None
    return MessageClass(
        name=node.name, lineno=node.lineno, wire_type=wire_type,
        type_lineno=type_lineno, methods=methods,
    )


def find_wire_contract(module: PyModule) -> Optional[WireContract]:
    classes = [
        mc for mc in (
            _message_class(n) for n in module.tree.body
            if isinstance(n, ast.ClassDef)
        )
        if mc is not None
    ]
    if len(classes) < 2:
        return None
    registered: Optional[Set[str]] = None
    registry_lineno = 0
    for node in module.tree.body:
        if (isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "MESSAGE_TYPES"):
            registered = {
                n.id for n in ast.walk(node.value)
                if isinstance(n, ast.Name)
            }
            registry_lineno = node.lineno
    if registered is None:
        return None
    return WireContract(
        module=module, classes=classes, registered=registered,
        registry_lineno=registry_lineno,
    )


def handler_local_names(
    importer: PyModule, contract: WireContract
) -> Dict[str, str]:
    """Local name → class name for contract classes ``importer`` sees."""
    class_names = {mc.name for mc in contract.classes}
    return {
        local: orig
        for local, orig in imports_from(
            importer, module_basename(contract.module)
        ).items()
        if orig in class_names
    }


def lint_wire_protocol(modules: Sequence[PyModule]) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    contracts = [
        c for c in (find_wire_contract(m) for m in modules)
        if c is not None
    ]
    for contract in contracts:
        module = contract.module

        by_type: Dict[str, MessageClass] = {}
        for mc in contract.classes:
            if mc.name not in contract.registered:
                diags.append(Diagnostic(
                    code="W601", severity=Severity.ERROR,
                    message=(
                        f"message class '{mc.name}' "
                        f"(TYPE={mc.wire_type!r}) is not registered "
                        "in MESSAGE_TYPES; decode() cannot route it"
                    ),
                    file=module.path, line=mc.lineno, obj=mc.name,
                ))
            for missing in sorted({"body", "from_body"} - mc.methods):
                diags.append(Diagnostic(
                    code="W602", severity=Severity.ERROR,
                    message=(
                        f"message class '{mc.name}' has no "
                        f"{missing}(); it cannot cross the wire"
                    ),
                    file=module.path, line=mc.lineno, obj=mc.name,
                ))
            earlier = by_type.get(mc.wire_type)
            if earlier is not None:
                diags.append(Diagnostic(
                    code="W603", severity=Severity.ERROR,
                    message=(
                        f"duplicate wire type {mc.wire_type!r}: "
                        f"'{mc.name}' collides with "
                        f"'{earlier.name}'; registration silently "
                        "shadows one of them"
                    ),
                    file=module.path, line=mc.type_lineno, obj=mc.name,
                ))
            else:
                by_type[mc.wire_type] = mc

        # W604: cross-module handler scan.  A message is handled when
        # any *other* linted module isinstance-checks it.  With no
        # importer in the file set at all (single-file lint run) the
        # handler information is simply absent — stay silent rather
        # than flag everything.
        handled: Set[str] = set()
        importers = 0
        for other in modules:
            if other is module:
                continue
            local_names = handler_local_names(other, contract)
            if local_names:
                importers += 1
                handled |= isinstance_targets(other.tree, local_names)
        if not importers:
            continue
        for mc in contract.classes:
            if mc.name in handled:
                continue
            diags.append(Diagnostic(
                code="W604", severity=Severity.ERROR,
                message=(
                    f"message class '{mc.name}' is never "
                    "isinstance-handled by any entity; it would "
                    "arrive and be dropped on the floor"
                ),
                file=module.path, line=mc.lineno, obj=mc.name,
            ))
    return diags
