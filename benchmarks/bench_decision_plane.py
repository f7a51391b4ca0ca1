"""Rule-evaluator microbenchmark: a column per script versus a host
at a time.

Both widths are production code serving different inputs
(docs/decision_plane.md) and share one judgement: ``RuleEvaluator``
classifies one host from its script engine; its subclass
``VectorRuleEvaluator`` classifies every row of a host-state matrix at
once.

* **rule evals/sec** — the paper's five-rule set classifying every row
  of a 4096-host matrix at once (``VectorRuleEvaluator`` over
  ``matrix_column_engine``) versus the compiled-closure
  ``RuleEvaluator`` looping host by host.  One vectorized
  ``evaluate_host_states`` call counts as 4096 per-host evaluations.
  The committed gate requires **≥10×**.
* **width 1** — the column engine handed one-row columns, in absolute
  evals/s beside the other two: what replacing the one-host width by
  the column width would cost a monitor that owns one machine (the
  reason both widths exist).

``python benchmarks/bench_decision_plane.py`` regenerates the
committed ``benchmarks/BENCH_rules.json`` baseline.
"""

from __future__ import annotations

import json
import os
import sys
import time

from repro.core.policy import policy_1
from repro.entity.clock import ManualClock
from repro.registry.core import RegistryCore
from repro.registry.hostmatrix import matrix_column_engine
from repro.rules import RuleEvaluator, VectorRuleEvaluator, paper_ruleset
from repro.rules.states import SystemState
from repro.sim.rng import seeded_generator

from conftest import report

HOSTS = 4096
VECTOR_SWEEPS = 50
WIDTH1_EVALS = 4_096  # the column engine, one row per call
SCALAR_HOST_EVALS = 4_096  # one scalar pass over the same host count
REPEATS = 3

#: The four measurement columns the paper ruleset reads.
RULE_METRICS = ("cpu_idle_pct", "socket_count", "loadavg1", "proc_count")
_SCRIPT_TO_METRIC = {
    "processorStatus.sh": "cpu_idle_pct",
    "ntStatIpv4.sh": "socket_count",
    "loadAvg.sh": "loadavg1",
    "procCount.sh": "proc_count",
}
_RANGES = {
    "cpu_idle_pct": (0.0, 100.0),
    "socket_count": (0.0, 1200.0),
    "loadavg1": (0.0, 4.0),
    "proc_count": (0.0, 300.0),
}


def _populate(core: RegistryCore, n: int) -> list:
    """Register n hosts with randomized (seeded) measurements; returns
    the per-host metric dicts for the scalar loop."""
    rng = seeded_generator(2026)
    rows = []
    for i in range(n):
        host = f"ws{i:04d}"
        metrics = {
            name: float(rng.uniform(lo, hi))
            for name, (lo, hi) in _RANGES.items()
        }
        metrics["mem_avail_bytes"] = float(rng.uniform(1e8, 8e9))
        metrics["disk_avail_bytes"] = float(rng.uniform(1e9, 1e12))
        core.table.register(host, {"cpu_speed": 2000.0})
        core.table.update(host, SystemState(int(rng.integers(0, 3))),
                          metrics)
        rows.append(metrics)
    return rows


def _make_core() -> "tuple[RegistryCore, list]":
    core = RegistryCore(
        ManualClock(), "registry", policy=policy_1(),
        rng=seeded_generator(7),
    )
    rows = _populate(core, HOSTS)
    return core, rows


# ---------------------------------------------------------------- rules
def _run_rules_vector(core: RegistryCore) -> int:
    evaluator = VectorRuleEvaluator(
        paper_ruleset(), matrix_column_engine(core.table.matrix)
    )
    for _ in range(VECTOR_SWEEPS):
        evaluator.evaluate_host_states()
    return VECTOR_SWEEPS * core.table.matrix.n


def _run_rules_width1(core: RegistryCore) -> int:
    """The column engine over one-row columns, one host per call."""
    matrix = core.table.matrix
    row = {name: matrix.metric_column(name)[:1] for name in RULE_METRICS}
    evaluator = VectorRuleEvaluator(
        paper_ruleset(),
        lambda script, param="": row[_SCRIPT_TO_METRIC[script]],
    )
    for _ in range(WIDTH1_EVALS):
        evaluator.evaluate_host_states()
    return WIDTH1_EVALS


def _run_rules_scalar(rows: list) -> int:
    """The PR 3 compiled-closure evaluator, one host at a time."""
    current = {"metrics": rows[0]}

    def engine(script, param=""):
        return current["metrics"][_SCRIPT_TO_METRIC[script]]

    evaluator = RuleEvaluator(paper_ruleset(), engine)
    n = 0
    while n < SCALAR_HOST_EVALS:
        for metrics in rows:
            current["metrics"] = metrics
            evaluator.evaluate_host_state()
            n += 1
            if n >= SCALAR_HOST_EVALS:
                break
    return n


# ------------------------------------------------------------ measuring
def _rate(fn, *args) -> float:
    """Best-of-REPEATS operations/second (min wall time wins)."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        ops = fn(*args)
        best = min(best, time.perf_counter() - start)
    return ops / best


def measure() -> dict:
    core, rows = _make_core()
    rules_vec = _rate(_run_rules_vector, core)
    rules_scalar = _rate(_run_rules_scalar, rows)
    rules_width1 = _rate(_run_rules_width1, core)
    return {
        "rules": {
            "vector_evals_per_sec": round(rules_vec),
            "scalar_evals_per_sec": round(rules_scalar),
            "width1_evals_per_sec": round(rules_width1),
            "speedup": round(rules_vec / rules_scalar, 2),
        },
    }


def test_decision_plane(benchmark, once):
    r = once(measure)
    report(benchmark, "Rule-evaluator microbenchmark (4096 hosts)", [
        ("rule evals/s (vector)", "≥10× scalar",
         r["rules"]["vector_evals_per_sec"]),
        ("rule evals/s (scalar)", "-",
         r["rules"]["scalar_evals_per_sec"]),
        ("rule evals/s (vector, width 1)", "-",
         r["rules"]["width1_evals_per_sec"]),
        ("rules speedup ×", ">=10", r["rules"]["speedup"]),
    ])
    assert r["rules"]["speedup"] >= 10.0


if __name__ == "__main__":
    baseline = {
        "description": "Rule-evaluator baseline; regenerate with "
                       "`python benchmarks/bench_decision_plane.py`.",
        "python": sys.version.split()[0],
        "workload": {
            "hosts": HOSTS,
            "vector_sweeps": VECTOR_SWEEPS,
            "scalar_host_evals": SCALAR_HOST_EVALS,
            "width1_evals": WIDTH1_EVALS,
            "repeats_best_of": REPEATS,
        },
        "results": measure(),
    }
    path = os.path.join(os.path.dirname(__file__), "BENCH_rules.json")
    with open(path, "w") as fh:
        json.dump(baseline, fh, indent=2)
        fh.write("\n")
    print(json.dumps(baseline["results"], indent=2))
