"""V900 — parity: the one contract the decision plane states twice.

The effect dispatch is necessarily written down more than once: the
sim and live drivers each pump the one core's effects.  The sim/live
parity tests only catch a forgotten side when the right test *runs*;
this family proves the pairing statically, the way E400 proves effect
exhaustiveness.

========  ========  =====================================================
code      severity  finding
========  ========  =====================================================
V905      error     a core effect pumped by one runtime's driver
                    dispatch but not the other's
========  ========  =====================================================

The contract is discovered by shape, never by repo path: the E400
outbox contract, with the live side = modules under a ``live`` path
segment plus their import closure and the sim side = sim-scope
modules, exactly M804's split.

The check stays silent when the contract (or one of its two sides) is
absent from the linted set, so linting ``examples/`` or a single file
never fails for lack of a counterpart.
"""

from __future__ import annotations

from pathlib import PurePath
from typing import Dict, List, Optional, Sequence, Set

from ..diagnostics import Diagnostic, Severity
from .determinism import in_sim_scope
from .effects import find_effect_contract
from .model import (
    ProjectModel,
    PyModule,
    imports_from,
    isinstance_targets,
    module_basename,
)


def _is_live(path: str) -> bool:
    return "live" in PurePath(path).parts


# ------------------------------------------------------------------ V905
def _check_effect_sides(
    modules: Sequence[PyModule], project: ProjectModel
) -> List[Diagnostic]:
    """V905: both runtimes must pump the same effect vocabulary.

    E402 already forces each *driver module* to cover the union; this is
    the cross-runtime half — an effect whose only live-side handling
    was deleted still leaves the sim green, exactly the drift the
    sim/live parity tests chase dynamically (M804's split, applied to
    effects instead of wire messages)."""
    diags: List[Diagnostic] = []
    contracts = [
        c for c in (find_effect_contract(m) for m in modules)
        if c is not None
    ]
    for contract in contracts:
        basename = module_basename(contract.module)
        handled_by: Dict[str, Set[str]] = {}
        for module in modules:
            if module is contract.module:
                continue
            imported = imports_from(module, basename)
            local = {
                loc: orig for loc, orig in imported.items()
                if orig in contract.effects
            }
            if not local:
                continue
            handled = isinstance_targets(module.tree, local)
            if handled:
                handled_by[module.path] = handled
        if not handled_by:
            continue
        live_roots = [m for m in modules if _is_live(m.path)]
        live_paths = (
            project.import_closure(live_roots) if live_roots else set()
        )
        live: Set[str] = set()
        sim: Set[str] = set()
        for path, handled in handled_by.items():
            if path in live_paths:
                live |= handled
            if in_sim_scope(path):
                sim |= handled
        if not live or not sim:
            continue  # one-runtime file sets carry no parity signal
        for name in sorted(live ^ sim):
            leading, lagging = (
                ("sim", "live") if name in sim else ("live", "sim")
            )
            diags.append(Diagnostic(
                code="V905", severity=Severity.ERROR,
                message=(
                    f"effect '{name}' is pumped by the {leading} "
                    f"runtime but not by the {lagging} driver's "
                    "dispatch"
                ),
                file=contract.module.path,
                line=contract.effect_linenos.get(name), obj=name,
            ))
    return diags


def lint_parity(
    modules: Sequence[PyModule], project: Optional[ProjectModel] = None
) -> List[Diagnostic]:
    """Run the V900 parity check over the parsed module set."""
    if project is None:
        from .model import build_project

        project = build_project(modules)
    return _check_effect_sides(modules, project)
