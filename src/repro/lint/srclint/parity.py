"""V900 — parity: contracts the decision plane states in two places.

Two facts about the decision plane are necessarily written down more
than once — the metric/script vocabulary (the policy language, the
host-state matrix and each script engine name the same metrics) and
the effect dispatch (the sim and live drivers each pump the one
core's effects).  The sim/live parity tests only catch a forgotten
side when the right test *runs*; this family proves the pairing
statically, the way E400 proves effect exhaustiveness.

========  ========  =====================================================
code      severity  finding
========  ========  =====================================================
V902      error     decision-plane vocabulary mismatch: the metric
                    column order is not ``sorted(KNOWN_METRICS)``, or
                    the monitor-script maps across modules disagree
V905      error     a core effect pumped by one runtime's driver
                    dispatch but not the other's
========  ========  =====================================================

Contracts are discovered by shape, never by repo path:

* **metric vocabulary** (V902) — a ``METRIC_COLUMNS`` tuple of string
  literals anywhere in the set versus a ``KNOWN_METRICS`` set literal,
  plus every dict literal whose keys are ``*.sh`` script names;
* **effect sides** (V905) — the E400 outbox contract, with the live
  side = modules under a ``live`` path segment plus their import
  closure and the sim side = sim-scope modules, exactly M804's split.

Each sub-check stays silent when its contract (or one of its two
sides) is absent from the linted set, so linting ``examples/`` or a
single file never fails for lack of a counterpart.
"""

from __future__ import annotations

import ast
from pathlib import PurePath
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..diagnostics import Diagnostic, Severity
from .determinism import in_sim_scope
from .effects import find_effect_contract
from .model import (
    ProjectModel,
    PyModule,
    imports_from,
    isinstance_targets,
    module_basename,
    str_const,
)

#: The metric vocabulary pair (V902a).
_COLUMNS_NAME = "METRIC_COLUMNS"
_METRICS_NAME = "KNOWN_METRICS"


def _is_live(path: str) -> bool:
    return "live" in PurePath(path).parts


def _top_level_assign(
    module: PyModule, name: str
) -> Optional[ast.Assign]:
    for node in module.tree.body:
        if (isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == name):
            return node
    return None


def _str_elements(node: ast.AST) -> Optional[List[str]]:
    """The string elements of a tuple/list/set literal (possibly
    wrapped in ``frozenset(...)``/``tuple(...)``); None otherwise."""
    if (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("frozenset", "set", "tuple")
            and len(node.args) == 1):
        node = node.args[0]
    if not isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return None
    values = [str_const(e) for e in node.elts]
    if not values or any(v is None for v in values):
        return None
    return values  # type: ignore[return-value]


# ------------------------------------------------------------------ V902
def _check_metric_vocabulary(
    modules: Sequence[PyModule],
) -> List[Diagnostic]:
    """V902a: ``METRIC_COLUMNS`` must be ``sorted(KNOWN_METRICS)`` —
    the host-state matrix's column order versus the policy
    vocabulary."""
    columns: List[Tuple[PyModule, int, List[str]]] = []
    metrics: List[List[str]] = []
    for module in modules:
        node = _top_level_assign(module, _COLUMNS_NAME)
        if node is not None:
            values = _str_elements(node.value)
            if values is not None:
                columns.append((module, node.lineno, values))
        node = _top_level_assign(module, _METRICS_NAME)
        if node is not None:
            values = _str_elements(node.value)
            if values is not None:
                metrics.append(values)
    diags: List[Diagnostic] = []
    if not columns or not metrics:
        return diags
    # Distinct vocabularies only: two modules restating the same set
    # (e.g. two fixture trees) should not double-fire the mismatch.
    distinct = {frozenset(known): known for known in metrics}
    for module, lineno, cols in columns:
        for known in distinct.values():
            expected = sorted(set(known))
            if list(cols) == expected:
                continue
            missing = sorted(set(known) - set(cols))
            extra = sorted(set(cols) - set(known))
            detail = []
            if missing:
                detail.append(f"missing {missing}")
            if extra:
                detail.append(f"extra {extra}")
            if not detail:
                detail.append("order differs from sorted()")
            diags.append(Diagnostic(
                code="V902", severity=Severity.ERROR,
                message=(
                    f"{_COLUMNS_NAME} is not sorted({_METRICS_NAME}): "
                    + ", ".join(detail)
                ),
                file=module.path, line=lineno, obj=_COLUMNS_NAME,
            ))
    return diags


def _script_vocabulary(
    module: PyModule,
) -> Optional[Tuple[int, Set[str]]]:
    """Union of ``*.sh`` keys over the module's script-map dict
    literals (≥3 all-string keys each ending in ``.sh``)."""
    lineno: Optional[int] = None
    scripts: Set[str] = set()
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Dict) or len(node.keys) < 3:
            continue
        keys = [str_const(k) if k is not None else None
                for k in node.keys]
        if any(k is None or not k.endswith(".sh") for k in keys):
            continue
        scripts |= set(keys)  # type: ignore[arg-type]
        if lineno is None:
            lineno = node.lineno
    if lineno is None:
        return None
    return lineno, scripts


def _check_script_vocabulary(
    modules: Sequence[PyModule],
) -> List[Diagnostic]:
    """V902b: every module mapping monitor scripts must know the same
    script set — a script wired into the rule engine but absent from
    the column engine is a silently-dead metric."""
    vocab: List[Tuple[PyModule, int, Set[str]]] = []
    for module in modules:
        found = _script_vocabulary(module)
        if found is not None:
            vocab.append((module, found[0], found[1]))
    diags: List[Diagnostic] = []
    if len(vocab) < 2:
        return diags
    union: Set[str] = set()
    for _, _, scripts in vocab:
        union |= scripts
    for module, lineno, scripts in vocab:
        for script in sorted(union - scripts):
            diags.append(Diagnostic(
                code="V902", severity=Severity.ERROR,
                message=(
                    f"monitor script '{script}' is mapped elsewhere "
                    "but missing from this module's script map"
                ),
                file=module.path, line=lineno, obj=script,
            ))
    return diags


# ------------------------------------------------------------------ V905
def _check_effect_sides(
    modules: Sequence[PyModule], project: ProjectModel
) -> List[Diagnostic]:
    """V905: both runtimes must pump the same effect vocabulary.

    E402 already forces each *pump class* to cover the union; this is
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
    """Run every V900 parity check over the parsed module set."""
    if project is None:
        from .model import build_project

        project = build_project(modules)
    diags: List[Diagnostic] = []
    diags.extend(_check_metric_vocabulary(modules))
    diags.extend(_check_script_vocabulary(modules))
    diags.extend(_check_effect_sides(modules, project))
    return diags
