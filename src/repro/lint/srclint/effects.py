"""E400 — effect exhaustiveness over the core/driver split.

PR 4's contract: pure cores *describe* what they want done as effect
dataclasses (``Send``/``Spend``/``Query``/``Deliver``/``Task`` from
``entity/outbox.py``) and every driver *performs* all of them.
The union and the drivers drift independently — adding a sixth effect
compiles fine and is silently dropped by a driver that never learned it.

========  ========  =====================================================
code      severity  finding
========  ========  =====================================================
E401      error     effect dataclass missing from the ``Effect`` union,
                    or the union names an undefined class
E402      error     a driver (a module isinstance-dispatching on
                    effects) does not cover every effect type
E403      error     a ``Query`` effect yielded as a bare statement —
                    the reply the driver delivers is discarded
E404      error     a *core* module (imports the outbox, no runtime
                    machinery) yields a call that is not an effect
                    constructor
========  ========  =====================================================

The outbox is discovered by shape: a module assigning ``Effect =
Union[...]`` over locally-defined dataclasses.  When no such module is
in the linted file set the pass stays silent (linting ``examples/``
alone should not fail for lack of a contract).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from ..diagnostics import Diagnostic, Severity
from .model import (
    PyModule,
    imports_from,
    is_dataclass_def,
    isinstance_targets,
    module_basename,
)

#: Imports that mark a module as a *driver* (it owns real machinery —
#: threads, sockets, the sim kernel — and may yield whatever its
#: scheduler understands, e.g. bare floats for delays).
_DRIVER_IMPORT_ROOTS = frozenset({
    "threading", "socket", "queue", "selectors", "asyncio",
    "subprocess", "multiprocessing", "time",
})
_DRIVER_IMPORT_BASENAMES = frozenset({"transport", "kernel"})


@dataclass
class EffectContract:
    """The discovered outbox: its module and effect class names."""

    module: PyModule
    effects: Set[str]
    effect_linenos: Dict[str, int]
    union_lineno: int
    union_names: Set[str]
    dataclass_names: Set[str]


def _union_member_names(value: ast.AST) -> Optional[Set[str]]:
    """Names inside ``Union[A, B]`` / ``A | B``; None if not a union."""
    if isinstance(value, ast.Subscript):
        base = value.value
        if not (isinstance(base, ast.Name) and base.id == "Union"):
            return None
        names = {
            n.id for n in ast.walk(value.slice)
            if isinstance(n, ast.Name)
        }
        return names or None
    if isinstance(value, ast.BinOp) and isinstance(value.op, ast.BitOr):
        names = {
            n.id for n in ast.walk(value) if isinstance(n, ast.Name)
        }
        return names or None
    return None


def find_effect_contract(module: PyModule) -> Optional[EffectContract]:
    union_names: Optional[Set[str]] = None
    union_lineno = 0
    for node in module.tree.body:
        if (isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "Effect"):
            union_names = _union_member_names(node.value)
            union_lineno = node.lineno
    if not union_names:
        return None
    classes = {
        n.name: n for n in module.tree.body
        if isinstance(n, ast.ClassDef)
    }
    dataclasses = {
        name for name, node in classes.items() if is_dataclass_def(node)
    }
    effects = union_names & set(classes)
    if len(effects) < 2:
        return None  # not a real effect vocabulary
    return EffectContract(
        module=module,
        effects=effects,
        effect_linenos={name: classes[name].lineno for name in effects},
        union_lineno=union_lineno,
        union_names=union_names,
        dataclass_names=dataclasses,
    )


def _check_contract(contract: EffectContract) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    module = contract.module
    class_linenos = {
        node.name: node.lineno for node in module.tree.body
        if isinstance(node, ast.ClassDef)
    }
    for name in sorted(contract.dataclass_names - contract.union_names):
        diags.append(Diagnostic(
            code="E401", severity=Severity.ERROR,
            message=(
                f"effect dataclass '{name}' is not part of the "
                "Effect union; no pump will ever perform it"
            ),
            file=module.path, line=class_linenos.get(name), obj=name,
        ))
    for name in sorted(contract.union_names):
        if name not in class_linenos:
            diags.append(Diagnostic(
                code="E401", severity=Severity.ERROR,
                message=(
                    f"Effect union names '{name}' but no such class "
                    "is defined in the outbox module"
                ),
                file=module.path, line=contract.union_lineno, obj=name,
            ))
    return diags


def _is_driver(module: PyModule) -> bool:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                if name.name.split(".")[0] in _DRIVER_IMPORT_ROOTS:
                    return True
        elif isinstance(node, ast.ImportFrom):
            mod = (node.module or "").lstrip(".")
            if not mod:
                continue
            parts = mod.split(".")
            if parts[0] in _DRIVER_IMPORT_ROOTS:
                return True
            if parts[-1] in _DRIVER_IMPORT_BASENAMES:
                return True
            if "sim" in parts:
                return True
    return False


def _check_user(
    module: PyModule,
    contract: EffectContract,
    local_effects: Dict[str, str],
) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    is_driver = _is_driver(module)
    query_locals = {
        local for local, orig in local_effects.items() if orig == "Query"
    }

    # E402: a module that isinstance-dispatches on at least one effect
    # is a driver and must perform them all — so neither runtime's
    # driver can drop an effect the other still pumps.
    handled = isinstance_targets(module.tree, local_effects)
    missing = sorted(contract.effects - handled)
    if handled and missing:
        diags.append(Diagnostic(
            code="E402", severity=Severity.ERROR,
            message=(
                f"driver handles {sorted(handled)} but not "
                f"{missing}; every Effect type must be performed"
            ),
            file=module.path, line=1, obj=module_basename(module),
        ))

    for node in ast.walk(module.tree):
        # E403: `yield Query(...)` as a bare statement — the reply the
        # driver will deliver has nowhere to go.
        if (isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Yield)
                and isinstance(node.value.value, ast.Call)
                and isinstance(node.value.value.func, ast.Name)
                and node.value.value.func.id in query_locals):
            diags.append(Diagnostic(
                code="E403", severity=Severity.ERROR,
                message=(
                    "Query effect yielded as a statement; the reply "
                    "is discarded — write 'reply = yield Query(...)'"
                ),
                file=module.path, line=node.lineno,
            ))
        # E404: cores may only yield effect constructions.  Drivers
        # are exempt (their schedulers accept bare delays etc.).
        if (not is_driver
                and isinstance(node, ast.Yield)
                and isinstance(node.value, ast.Call)):
            func = node.value.func
            callee: Optional[str] = None
            if isinstance(func, ast.Name):
                if func.id in local_effects:
                    continue
                callee = func.id
            elif isinstance(func, ast.Attribute):
                callee = func.attr
            if callee is not None:
                diags.append(Diagnostic(
                    code="E404", severity=Severity.ERROR,
                    message=(
                        f"core module yields non-effect call "
                        f"'{callee}(...)'; cores may only emit "
                        "catalogued effects"
                    ),
                    file=module.path, line=node.lineno,
                ))
    return diags


def lint_effects(modules: Sequence[PyModule]) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    contracts = [
        c for c in (find_effect_contract(m) for m in modules)
        if c is not None
    ]
    for contract in contracts:
        diags.extend(_check_contract(contract))
        basename = module_basename(contract.module)
        for module in modules:
            if module is contract.module:
                continue
            imported = imports_from(module, basename)
            local_effects = {
                local: orig for local, orig in imported.items()
                if orig in contract.effects
            }
            if not local_effects:
                continue
            diags.extend(_check_user(module, contract, local_effects))
    return diags
