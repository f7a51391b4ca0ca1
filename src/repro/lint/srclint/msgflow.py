"""M800 — message-flow analyzer: the protocol's send→handler graph.

That each message class can *cross* the wire is held by the wire tests
(``tests/protocol/test_wire_golden.py``: every class registered, every
class encoded and decoded); this family checks it *arrives somewhere
useful*.  From the wire contract (``protocol/messages.py`` by shape:
at least two top-level classes with a string ``TYPE`` plus a
``MESSAGE_TYPES`` registry), every constructor call outside the
contract module is an emit site and every isinstance dispatch is a
handler; the project model's import edges then split the handlers into
the simulation's view and the live runtime's view — the static twin of
the PR 4 decision-parity tests.

========  ========  =====================================================
code      severity  finding
========  ========  =====================================================
M801      error     message emitted somewhere but handled nowhere —
                    every send is dropped on arrival
M802      error     request message (``req_id`` correlation) with no
                    reply path: no function receives it and constructs
                    a reply-capable message
M803      warning   handler for a message nothing ever sends (dead
                    dispatch arm, or the sender was lost)
M804      error     sim and live handle different message sets; a
                    behaviour exists in one runtime but not the other
========  ========  =====================================================

Request/reply pairing (M802): a *request* is a message class carrying
a ``req_id`` field that is either built as the ``request=`` keyword of
a ``Query`` effect or whose wire TYPE ends in ``-request``; a *reply*
is any other ``req_id``-bearing class.  ``StatusQuery`` carries no
``req_id`` — its answer is the next ``StatusUpdate``, not a correlated
reply — so it is deliberately outside M802's scope.

Sides (M804): the live set is every module with a ``live`` path
segment plus everything it transitively imports; the sim set is every
module in sim scope (:func:`~.determinism.in_sim_scope`).  Shared
cores (``registry/core.py``) count for both — exactly the PR 4
one-decision-path design.  Silent unless the linted set contains both
sides; M801/M803 are silent when no module imports the contract at all
(single-file runs carry no flow information).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import PurePath
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..diagnostics import Diagnostic, Severity
from .determinism import in_sim_scope
from .model import (
    ProjectModel,
    PyModule,
    build_project,
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


@dataclass
class WireContract:
    module: PyModule
    classes: List[MessageClass]


def _message_class(node: ast.ClassDef) -> Optional[MessageClass]:
    for stmt in node.body:
        if (isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == "TYPE"):
            wire_type = str_const(stmt.value)
            if wire_type is not None:
                return MessageClass(node.name, node.lineno, wire_type)
    return None


def find_wire_contract(module: PyModule) -> Optional[WireContract]:
    classes = [
        mc for mc in (
            _message_class(n) for n in module.tree.body
            if isinstance(n, ast.ClassDef)
        )
        if mc is not None
    ]
    has_registry = any(
        isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id == "MESSAGE_TYPES"
        for node in module.tree.body
    )
    if len(classes) < 2 or not has_registry:
        return None
    return WireContract(module=module, classes=classes)


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


def _is_live(path: str) -> bool:
    return "live" in PurePath(path).parts


def _class_fields(contract: WireContract) -> Dict[str, Set[str]]:
    """Message class name → its annotated dataclass field names."""
    fields: Dict[str, Set[str]] = {}
    names = {mc.name for mc in contract.classes}
    for node in contract.module.tree.body:
        if isinstance(node, ast.ClassDef) and node.name in names:
            fields[node.name] = {
                stmt.target.id for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
            }
    return fields


def _emit_sites(
    module: PyModule,
    local_names: Dict[str, str],
    basename: str,
    class_names: Set[str],
) -> List[Tuple[str, int]]:
    """(class name, line) for every message construction in ``module``.

    Covers both ``CandidateReply(...)`` after a from-import and
    ``messages.CandidateReply(...)`` through a module alias.
    """
    sites: List[Tuple[str, int]] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in local_names:
            sites.append((local_names[func.id], node.lineno))
        elif (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.attr in class_names):
            origin = module.aliases.get(func.value.id, "")
            if origin.split(".")[-1] == basename:
                sites.append((func.attr, node.lineno))
    return sites


def _request_classes(
    contract: WireContract,
    fields: Dict[str, Set[str]],
    modules: Sequence[PyModule],
) -> Set[str]:
    """Classes that open a correlated request/reply exchange."""
    correlated = {name for name, f in fields.items() if "req_id" in f}
    requests = {
        mc.name for mc in contract.classes
        if mc.name in correlated and mc.wire_type.endswith("-request")
    }
    # Also: anything built as the request= keyword of an effect call
    # (`Query(request=CandidateRequest(...))`).
    for module in modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            for kw in node.keywords:
                if kw.arg != "request" or not isinstance(kw.value, ast.Call):
                    continue
                inner = kw.value.func
                if (isinstance(inner, ast.Name)
                        and inner.id in correlated):
                    requests.add(inner.id)
    return requests


def _has_reply_path(
    request: str,
    replies: Set[str],
    modules: Sequence[PyModule],
    contract: WireContract,
) -> bool:
    """Some function receives the request class and builds a reply."""
    for module in modules:
        if module is contract.module:
            continue
        local_names = handler_local_names(module, contract)
        request_locals = {
            local for local, orig in local_names.items() if orig == request
        }
        reply_locals = {
            local for local, orig in local_names.items() if orig in replies
        }
        if not request_locals or not reply_locals:
            continue
        for fn in ast.walk(module.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names = {
                n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
            }
            if not (names & request_locals):
                continue
            for call in ast.walk(fn):
                if (isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Name)
                        and call.func.id in reply_locals):
                    return True
    return False


def lint_message_flow(
    modules: Sequence[PyModule],
    project: Optional[ProjectModel] = None,
) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    contracts = [
        c for c in (find_wire_contract(m) for m in modules)
        if c is not None
    ]
    if not contracts:
        return diags
    if project is None:
        project = build_project(modules)

    for contract in contracts:
        basename = module_basename(contract.module)
        class_names = {mc.name for mc in contract.classes}
        linenos = {mc.name: mc.lineno for mc in contract.classes}
        fields = _class_fields(contract)

        emits_by_module: Dict[str, List[Tuple[str, int]]] = {}
        handled_by_module: Dict[str, Set[str]] = {}
        importers = 0
        for module in modules:
            if module is contract.module:
                continue
            local_names = handler_local_names(module, contract)
            sites = _emit_sites(module, local_names, basename, class_names)
            if local_names or sites:
                importers += 1
            if sites:
                emits_by_module[module.path] = sites
            handled = isinstance_targets(module.tree, local_names)
            if handled:
                handled_by_module[module.path] = handled
        if not importers:
            continue

        all_handled: Set[str] = set()
        for handled in handled_by_module.values():
            all_handled |= handled
        all_emitted: Dict[str, Tuple[str, int]] = {}
        for path in sorted(emits_by_module):
            for name, line in emits_by_module[path]:
                all_emitted.setdefault(name, (path, line))

        # M801 — emitted, never handled.
        for name in sorted(all_emitted):
            if name in all_handled:
                continue
            path, line = all_emitted[name]
            diags.append(Diagnostic(
                code="M801", severity=Severity.ERROR,
                message=(
                    f"message '{name}' is emitted here but no entity "
                    "isinstance-handles it; every send is dropped on "
                    "arrival"
                ),
                file=path, line=line, obj=name,
            ))

        # M802 — request with no reply path.
        requests = _request_classes(contract, fields, modules)
        replies = {
            name for name, f in fields.items()
            if "req_id" in f and name not in requests
        }
        for request in sorted(requests):
            if _has_reply_path(request, replies, modules, contract):
                continue
            diags.append(Diagnostic(
                code="M802", severity=Severity.ERROR,
                message=(
                    f"request message '{request}' has no reply path: "
                    "no function receives it and constructs a "
                    "req_id-bearing reply; every Query against it "
                    "times out"
                ),
                file=contract.module.path,
                line=linenos.get(request), obj=request,
            ))

        # M803 — handled, never emitted.
        for name in sorted(all_handled):
            if name in all_emitted:
                continue
            handlers = sorted(
                p for p, handled in handled_by_module.items()
                if name in handled
            )
            diags.append(Diagnostic(
                code="M803", severity=Severity.WARNING,
                message=(
                    f"message '{name}' is isinstance-handled (in "
                    f"{handlers[0]}) but nothing in the linted set "
                    "ever constructs it; dead dispatch arm or lost "
                    "sender"
                ),
                file=contract.module.path,
                line=linenos.get(name), obj=name,
            ))

        # M804 — sim/live handler divergence.
        live_roots = [m for m in modules if _is_live(m.path)]
        sim_paths = {m.path for m in modules if in_sim_scope(m.path)}
        if not live_roots or not sim_paths:
            continue
        live_closure = project.import_closure(live_roots)
        live_handled: Set[str] = set()
        sim_handled: Set[str] = set()
        for path, handled in handled_by_module.items():
            if path in live_closure:
                live_handled |= handled
            if path in sim_paths:
                sim_handled |= handled
        for name in sorted(live_handled ^ sim_handled):
            present, absent = (
                ("sim", "live") if name in sim_handled
                else ("live", "sim")
            )
            diags.append(Diagnostic(
                code="M804", severity=Severity.ERROR,
                message=(
                    f"message '{name}' is handled by the {present} "
                    f"runtime but not the {absent} runtime; the "
                    "decision paths have diverged (PR 4 parity)"
                ),
                file=contract.module.path,
                line=linenos.get(name), obj=name,
            ))
    return diags
