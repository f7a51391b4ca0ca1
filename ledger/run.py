#!/usr/bin/env python3
"""The ledger: absolute end-to-end and per-layer numbers.

    python3 ledger/run.py                      every workload, both passes
    python3 ledger/run.py --workload table2    one workload, end to end
    python3 ledger/run.py --workload storm --trace 1     its per-layer pass
    python3 ledger/run.py --selfcheck          two full sets, compared
    python3 ledger/run.py --quick              one iteration each (smoke)

Every run of a workload happens in a fresh interpreter
(``ledger/worker.py``); this file only spawns, aggregates, checks the
emitted metric names against ``BENCHMARK.json`` and prints.  With
``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding every
end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``).  See ``ledger/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(LEDGER_DIR)
sys.path.insert(0, LEDGER_DIR)

import speed  # noqa: E402
WORKER = os.path.join(LEDGER_DIR, "worker.py")
RESULTS_DIR = os.path.join(LEDGER_DIR, "results")

#: Fresh interpreters whose set-up time is measured per run (the median
#: is reported); the measuring worker itself is one of them.
SETUP_SAMPLES = 7
#: A worker that has not finished by then is killed and the run fails.
WORKER_TIMEOUT_S = 170.0


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def spawn(workload: str, seed: int, seconds: float, mode: str,
          warmup: bool) -> dict:
    """Run one worker to completion; returns its JSON result, with
    ``setup_s`` scaled to reference speed by the gauges on either side
    of the set-up: ours before the spawn, the worker's own after it."""
    before = speed.slowdown()
    env = dict(os.environ)
    # Same hash seed in every worker: set and dict iteration order, and
    # with it allocation patterns, repeat from run to run.
    env["PYTHONHASHSEED"] = "0"
    argv = [
        sys.executable, WORKER, "--workload", workload,
        "--seed", str(seed), "--seconds", repr(float(seconds)),
        "--mode", mode, "--spawned-at", repr(time.time()),
    ]
    if not warmup:
        argv.append("--no-warmup")
    proc = subprocess.run(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
        timeout=WORKER_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"ledger: worker for {workload} ({mode}) exited "
            f"{proc.returncode}; no result")
    result = json.loads(proc.stdout.decode("utf-8").splitlines()[-1])
    result["setup_s"] /= (before + result.pop("setup_gauge")) / 2.0
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool,
            quick: bool, contract: dict) -> dict:
    """One run of one workload, as the result object the contract
    prescribes (plus ``samples`` for the human-readable report)."""
    if trace:
        result = spawn(workload, seed, seconds, "trace", not quick)
        declared = contract["per_layer"]
    else:
        setups = [
            spawn(workload, seed, 0.0, "setup", False)["setup_s"]
            for _ in range(0 if quick else SETUP_SAMPLES - 1)
        ]
        result = spawn(workload, seed, seconds, "e2e", not quick)
        setups.append(result["setup_s"])
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["samples"]["setup_s"] = len(setups)
        declared = contract["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    emitted = result["metrics"]
    names_ok = set(emitted) == set(units)
    if not names_ok:
        print(f"ledger: metric names differ from BENCHMARK.json: "
              f"{sorted(set(emitted) ^ set(units))}", file=sys.stderr)
    return {
        "correct": names_ok and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": emitted[name], "unit": units.get(name, "")}
            for name in sorted(emitted)
        },
        "samples": result["samples"],
    }


def report(workload: str, result: dict) -> None:
    print(f"== {workload}: attempted {result['attempted']}, "
          f"failed {result['failed']}, samples {result['samples']}")
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")


def full_set(seed: int, seconds: float, quick: bool, contract: dict,
             names: List[str]) -> Dict[str, dict]:
    """Both passes of each named workload; metrics merged per workload."""
    out: Dict[str, dict] = {}
    for workload in names:
        e2e = measure(workload, seed, seconds, False, quick, contract)
        layers = measure(workload, seed, seconds, True, quick, contract)
        merged = {
            "correct": e2e["correct"] and layers["correct"],
            "attempted": e2e["attempted"] + layers["attempted"],
            "failed": e2e["failed"] + layers["failed"],
            "metrics": {**e2e["metrics"], **layers["metrics"]},
            "samples": {**e2e["samples"], **layers["samples"]},
        }
        report(workload, merged)
        out[workload] = merged
    return out


def is_exact(metric: dict, workload: str) -> bool:
    """Counts, bytes and simulated times repeat exactly for a fixed
    seed.  Not so the ``live.*`` family (thread scheduling decides the
    thread peak and the latencies) and wire bytes on the live workloads
    (messages carry wall-clock timestamps and decision latencies)."""
    if metric["name"].startswith("live."):
        return False
    if workload.startswith("live_") and metric["unit"] == "B":
        return False
    return metric["unit"] in ("count", "B", "sim-s", "sim-%")


def selfcheck(first: Dict[str, dict], second: Dict[str, dict],
              contract: dict) -> bool:
    """Two sets of the same tree agree within each metric's bound;
    simulated outputs and exact counts agree exactly."""
    ok = True
    for workload in first:
        a, b = first[workload]["metrics"], second[workload]["metrics"]
        for m in contract["end_to_end"]:
            x, y = a[m["name"]]["value"], b[m["name"]]["value"]
            spread = abs(x - y) / min(x, y)
            good = spread <= m["bound"]
            ok &= good
            print(f"{workload:12s} {m['name']:16s} {x:12.6g} {y:12.6g} "
                  f"spread {100 * spread:5.1f}% bound "
                  f"{100 * m['bound']:.0f}% {'ok' if good else 'FAIL'}")
        for m in contract["per_layer"]:
            x, y = a[m["name"]]["value"], b[m["name"]]["value"]
            if is_exact(m, workload) and x != y:
                ok = False
                print(f"{workload:12s} {m['name']} differs: "
                      f"{x!r} vs {y!r} FAIL")
    return ok


def main(argv: Optional[List[str]] = None) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the per-layer pass (needs --workload)")
    parser.add_argument("--quick", action="store_true",
                        help="one iteration per pass, no warm-up; "
                             "numbers are for smoke tests only")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run two full sets and compare them")
    args = parser.parse_args(argv)
    seconds = 0.0 if args.quick else args.seconds
    # The workers inherit the pin; our own gauges run where they do.
    speed.pin_to_one_cpu()

    if args.selfcheck:
        first = full_set(args.seed, seconds, args.quick, contract, names)
        second = full_set(args.seed, seconds, args.quick, contract, names)
        agree = selfcheck(first, second, contract)
        correct = all(r["correct"] for r in (*first.values(),
                                             *second.values()))
        print("selfcheck:", "ok" if agree and correct else "FAILED")
        return 0 if agree and correct else 1

    if args.workload is None:
        results = full_set(args.seed, seconds, args.quick, contract, names)
        if not args.quick:
            os.makedirs(RESULTS_DIR, exist_ok=True)
            with open(os.path.join(RESULTS_DIR, "latest.json"), "w",
                      encoding="utf-8") as fh:
                json.dump({"seed": args.seed, "seconds": seconds,
                           "workloads": results}, fh, indent=1,
                          sort_keys=True)
        return 0 if all(r["correct"] for r in results.values()) else 1

    result = measure(args.workload, args.seed, seconds, bool(args.trace),
                     args.quick, contract)
    report(args.workload, result)
    del result["samples"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
