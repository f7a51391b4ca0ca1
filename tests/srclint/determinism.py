"""D300 — the determinism sanitizer.

The golden-trace gate (``tests/sim/test_golden_trace.py``) promises
that a simulation replays bit-for-bit.  That promise only holds while
no sim-reachable module reads the wall clock, draws from OS entropy,
or iterates an unordered set — so this pass walks exactly those
modules and flags every such read at its call site:

========  ========  =====================================================
code      severity  finding
========  ========  =====================================================
D301      error     wall-clock read (``time.time``, ``datetime.now`` …)
D302      error     OS entropy (``os.urandom``, ``uuid.uuid4`` …)
D303      error     global RNG state (``random.random``,
                    ``numpy.random.seed`` …)
D304      warning   ad-hoc generator construction
                    (``numpy.random.default_rng`` …) outside the
                    blessed ``sim/rng.py`` plumbing
D305      warning   iteration over an unordered ``set`` expression
D306      warning   ``time.sleep`` (real delay inside virtual time)
========  ========  =====================================================

Scope: a file is sim-reachable when any of its directory segments
names a simulation layer (``sim``, ``rules``, ``registry`` …) and none
names an explicitly-live layer (``live``, ``perf``).  The module that
*defines* the seeded-stream plumbing (``RngRegistry`` /
``seeded_generator``) is exempt from D303/D304 — something has to be
allowed to build generators.
"""

from __future__ import annotations

import ast
from pathlib import PurePath
from typing import List, Optional, Sequence

from repro.findings import Diagnostic, Severity
from .model import PyModule, dotted_name

#: Directory segments that mark a file as reachable from the
#: deterministic simulation.
SIM_SEGMENTS = frozenset({
    "sim", "rules", "registry", "monitor", "commander", "hpcm",
    "mpi", "cluster", "core", "entity", "schema", "protocol",
    "workloads", "metrics", "analysis",
})

#: Segments that pull a file back *out* of sim scope: the live runtime
#: legitimately reads real clocks, and perf measures real time.
LIVE_SEGMENTS = frozenset({"live", "perf"})

_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

_OS_ENTROPY = frozenset({
    "os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4",
    "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
    "secrets.randbelow", "secrets.randbits", "secrets.choice",
})

#: Legacy numpy global-state draw/seed functions (``numpy.random.X``).
_NUMPY_GLOBAL = frozenset({
    "seed", "rand", "randn", "randint", "random", "random_sample",
    "ranf", "sample", "choice", "shuffle", "permutation", "uniform",
    "normal", "standard_normal", "bytes", "get_state", "set_state",
})

_RNG_FACTORIES = frozenset({
    "numpy.random.default_rng", "numpy.random.Generator",
    "numpy.random.RandomState", "numpy.random.SeedSequence",
    "random.Random",
})

#: Builtins whose result exposes set iteration order.
_ORDER_SENSITIVE_BUILTINS = frozenset({
    "list", "tuple", "iter", "enumerate",
})


def in_sim_scope(path: str) -> bool:
    """Sim-layer directory segment present, no live segment."""
    segments = set(PurePath(path).parts[:-1])
    return bool(segments & SIM_SEGMENTS) and not (segments & LIVE_SEGMENTS)


def _defines_rng_plumbing(module: PyModule) -> bool:
    for node in module.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "RngRegistry":
            return True
        if (isinstance(node, ast.FunctionDef)
                and node.name == "seeded_generator"):
            return True
    return False


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "set")


def _diag(code: str, severity: Severity, message: str,
          module: PyModule, node: ast.AST) -> Diagnostic:
    return Diagnostic(code=code, severity=severity, message=message,
                      file=module.path,
                      line=getattr(node, "lineno", None))


def _check_call(module: PyModule, node: ast.Call,
                rng_exempt: bool) -> Optional[Diagnostic]:
    path = dotted_name(module, node.func)
    if path is None:
        return None
    if path in _WALL_CLOCK:
        return _diag(
            "D301", Severity.ERROR,
            f"wall-clock read '{path}' in sim-reachable code; take "
            "time from the Clock protocol (clock.now)",
            module, node,
        )
    if path in _OS_ENTROPY:
        return _diag(
            "D302", Severity.ERROR,
            f"OS entropy source '{path}' in sim-reachable code; draw "
            "from a seeded stream instead",
            module, node,
        )
    if not rng_exempt:
        if (path.startswith("random.")
                and path not in _RNG_FACTORIES):
            return _diag(
                "D303", Severity.ERROR,
                f"global random state '{path}'; draw from a seeded "
                "numpy Generator stream",
                module, node,
            )
        if (path.startswith("numpy.random.")
                and path.rsplit(".", 1)[-1] in _NUMPY_GLOBAL):
            return _diag(
                "D303", Severity.ERROR,
                f"numpy global random state '{path}'; draw from a "
                "seeded Generator stream",
                module, node,
            )
        if path in _RNG_FACTORIES:
            return _diag(
                "D304", Severity.WARNING,
                f"ad-hoc generator construction '{path}'; route "
                "through the seeded streams in sim/rng.py "
                "(RngRegistry.stream / seeded_generator)",
                module, node,
            )
    if path == "time.sleep":
        return _diag(
            "D306", Severity.WARNING,
            "real delay 'time.sleep' in sim-reachable code; yield a "
            "virtual-time timeout instead",
            module, node,
        )
    return None


def lint_determinism(modules: Sequence[PyModule]) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    for module in modules:
        if not in_sim_scope(module.path):
            continue
        rng_exempt = _defines_rng_plumbing(module)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                found = _check_call(module, node, rng_exempt)
                if found is not None:
                    diags.append(found)
                # list({...}), enumerate(set(x)) expose hash order
                # exactly like a for loop over the set would.
                if (isinstance(node.func, ast.Name)
                        and node.func.id in _ORDER_SENSITIVE_BUILTINS
                        and node.args
                        and _is_set_expr(node.args[0])):
                    diags.append(_diag(
                        "D305", Severity.WARNING,
                        f"'{node.func.id}()' over an unordered set "
                        "exposes hash order; wrap in sorted()",
                        module, node,
                    ))
            elif isinstance(node, ast.For):
                if _is_set_expr(node.iter):
                    diags.append(_diag(
                        "D305", Severity.WARNING,
                        "iteration over an unordered set; wrap in "
                        "sorted() to pin the order",
                        module, node,
                    ))
            elif isinstance(node, ast.comprehension):
                if _is_set_expr(node.iter):
                    diags.append(_diag(
                        "D305", Severity.WARNING,
                        "comprehension over an unordered set; wrap in "
                        "sorted() to pin the order",
                        module, node.iter,
                    ))
    return diags
