"""Command-line interface: experiments, tracing, configuration linting.

::

    python -m repro list
    python -m repro run fig5 [--seed N] [--out DIR]
    python -m repro run fig7 --trace out.jsonl
    python -m repro run all --out results/
    python -m repro trace fig7 [--out trace.json] [--format chrome]
    python -m repro sweep fig5 fig7 --replicas 3 --jobs 4 \
        --cache-dir .sweep-cache --out sweep.json
    python -m repro lint examples/ [--format json] [--strict]
    python -m repro live [--nodes N] [--timeout S] [--hierarchy]

``repro run`` regenerates a §5 experiment, prints a paper-vs-measured
table (and ASCII plots for the figures), and — with ``--out`` —
exports the raw series as CSV; ``--trace PATH`` additionally records
the structured migration-lifecycle trace (see ``docs/tracing.md``).
``repro trace`` runs an experiment purely for its trace and prints the
per-phase span breakdown.  ``repro sweep`` fans independent replicas
across a process pool with deterministic per-replica seeds and a
content-hash result cache (see ``docs/performance.md``).  ``repro
lint`` statically checks rule files, policy files and application
schemas (see ``docs/linting.md``).  ``repro live`` runs the whole
pipeline over real localhost sockets — registry, nodes, an overload,
one genuine migration — and prints the decision log (see
``docs/live.md``).

The pre-subcommand spelling ``repro fig5`` still works through a
back-compat shim.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .metrics import ascii_plot, format_table


def _fig5(args) -> int:
    from .analysis import run_overhead_experiment
    from .analysis.export import export_overhead

    r = run_overhead_experiment(duration=args.duration, seed=args.seed)
    print(format_table(
        ["quantity", "paper", "measured"],
        [
            ("1-min load, without", 0.256, round(r.load1_without, 3)),
            ("1-min load, with", 0.266, round(r.load1_with, 3)),
            ("load overhead %", 3.9, round(100 * r.load1_overhead, 2)),
            ("CPU util overhead %", 3.46, round(100 * r.cpu_overhead, 2)),
        ],
        title="Figure 5 — rescheduler overhead (load average)",
    ))
    print(ascii_plot(
        [r.without_rs.load1, r.with_rs.load1],
        title="1-minute load average",
        labels=["without", "with"],
    ))
    if args.out:
        paths = export_overhead(r, args.out)
        print(f"\nCSV written: {', '.join(sorted(paths.values()))}")
    return 0


def _fig6(args) -> int:
    from .analysis import run_overhead_experiment
    from .analysis.export import export_overhead

    r = run_overhead_experiment(duration=args.duration, seed=args.seed)
    print(format_table(
        ["quantity", "paper", "measured"],
        [
            ("send KB/s, without", 5.82, round(r.send_kbs_without, 2)),
            ("send KB/s, with", 5.82, round(r.send_kbs_with, 2)),
            ("recv KB/s, without", 5.99, round(r.recv_kbs_without, 2)),
            ("recv KB/s, with", 5.99, round(r.recv_kbs_with, 2)),
            ("comm overhead %", 0.0, round(100 * r.comm_overhead, 2)),
        ],
        title="Figure 6 — rescheduler overhead (communication)",
    ))
    if args.out:
        export_overhead(r, args.out)
        print(f"\nCSV written under {args.out}")
    return 0


def _fig7(args) -> int:
    from .analysis import run_efficiency_experiment
    from .analysis.export import export_efficiency

    r = run_efficiency_experiment(seed=args.seed)
    phases = r.phase_summary()
    print(format_table(
        ["phase", "paper", "measured"],
        [
            ("warm-up s", 72.0, round(phases["warmup_s"], 1)),
            ("decision s", 0.002, round(phases["decision_s"], 4)),
            ("init (spawn) s", 0.3, round(phases["init_s"], 3)),
            ("to poll-point s", 1.4, round(phases["to_pollpoint_s"], 2)),
            ("resume s", 1.0, round(phases["resume_s"], 2)),
            ("total s", 7.5, round(phases["total_s"], 2)),
        ],
        title="Figure 7 — migration phases",
    ))
    print(ascii_plot(
        [r.cpu_source, r.cpu_dest],
        title="CPU utilization around the migration",
        labels=["source", "destination"],
    ))
    if args.out:
        paths = export_efficiency(r, args.out)
        print(f"\nCSV written: {', '.join(sorted(paths.values()))}")
    return 0


def _fig8(args) -> int:
    from .analysis import run_efficiency_experiment
    from .analysis.export import export_efficiency

    r = run_efficiency_experiment(seed=args.seed)
    print(ascii_plot(
        [r.send_source, r.recv_dest],
        title="Figure 8 — network KB/s (state-transfer burst)",
        labels=["source send", "destination recv"],
    ))
    rec = r.record
    print(f"\nresume happened {rec.drain_seconds:.2f}s before the "
          f"transfer completed ({rec.memory_bytes / 2**20:.1f} MB moved)")
    if args.out:
        export_efficiency(r, args.out)
        print(f"CSV written under {args.out}")
    return 0


def _table1(args) -> int:
    from .analysis import run_table1

    rows = run_table1(seed=args.seed)

    def cell(flag):
        return "yes" if flag else "no"

    print(format_table(
        ["state", "loaded", "migrate in", "migrate out"],
        [
            (name, cell(row.loaded), cell(row.migrate_in),
             cell(row.migrate_out))
            for name, row in rows.items() if not name.startswith("_")
        ],
        title="Table 1 — system state behaviour (observed)",
    ))
    return 0


def _table2(args) -> int:
    from .analysis import run_table2
    from .analysis.export import export_table2

    results = run_table2(seed=args.seed)
    print(format_table(
        ["policy", "total s", "to", "source s", "dest s", "migration s"],
        [results[i].row() for i in (1, 2, 3)],
        title="Table 2 — policy comparison "
              "(paper: 983.6 / 433.27→ws2 / 329.71→ws4)",
    ))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = export_table2(results,
                             os.path.join(args.out, "table2.csv"))
        print(f"\nCSV written: {path}")
    return 0


def _all(args) -> int:
    rc = 0
    for name in ("fig5", "fig6", "fig7", "fig8", "table1", "table2"):
        print(f"\n=== {name} ===")
        rc |= COMMANDS[name](args)
    return rc


def _list(args) -> int:
    print("available experiments:")
    for name in sorted(COMMANDS):
        if name != "all":
            print(f"  {name}")
    print("  all    — run everything")
    return 0


#: Experiment name → handler (the ``repro run`` subcommand).
COMMANDS = {
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
    "table1": _table1,
    "table2": _table2,
    "all": _all,
}


def _export_trace(tracer, path: str, fmt: Optional[str] = None) -> None:
    """Write a collected trace; format from ``fmt`` or the extension
    (``.json`` → Chrome/Perfetto, anything else → JSONL)."""
    from .trace.exporters import export_chrome, export_jsonl

    if fmt is None:
        fmt = "chrome" if path.endswith(".json") else "jsonl"
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    if fmt == "chrome":
        n = export_chrome(tracer.records, path)
    else:
        n = export_jsonl(tracer.records, path)
    print(f"trace written: {path} ({n} records, {fmt} format)")


def _run(args) -> int:
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    trace_path = getattr(args, "trace", None)
    if not trace_path:
        return COMMANDS[args.experiment](args)
    from .trace import Tracer, use

    tracer = Tracer()
    with use(tracer):
        rc = COMMANDS[args.experiment](args)
    _export_trace(tracer, trace_path)
    return rc


def _trace(args) -> int:
    from .metrics.tracestats import format_phase_table
    from .trace import Tracer, use

    # The experiment handlers read seed/duration/out; out here names
    # the trace file, so the handler sees no CSV directory.
    handler_args = argparse.Namespace(
        experiment=args.experiment, seed=args.seed,
        duration=args.duration, out=None,
    )
    tracer = Tracer()
    with use(tracer):
        rc = COMMANDS[args.experiment](handler_args)
    _export_trace(tracer, args.out, fmt=args.format)
    print()
    print(format_phase_table(tracer.records))
    return rc


def _parse_overrides(items) -> dict:
    """``--set key=value`` pairs; values parse as JSON when they can
    (``--set duration=600``) and stay strings otherwise."""
    import json

    config = {}
    for item in items or []:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise SystemExit(f"repro sweep: --set expects key=value, "
                             f"got {item!r}")
        try:
            config[key] = json.loads(raw)
        except json.JSONDecodeError:
            config[key] = raw
    return config


def _sweep(args) -> int:
    import json

    from .perf import CELLS, ResultCache, plan_sweep, run_sweep

    if args.list_axes:
        from .perf.experiments import CELL_AXES

        print(format_table(
            ["experiment", "axes (--set keys)"],
            [(name, ", ".join(sorted(CELL_AXES[name])))
             for name in sorted(CELL_AXES)],
            title="sweep axes",
        ))
        return 0
    experiments = args.experiments
    if not experiments:
        raise SystemExit(
            "repro sweep: name at least one experiment "
            "(or use --list-axes)"
        )
    unknown = [e for e in experiments if e != "all" and e not in CELLS]
    if unknown:
        raise SystemExit(
            f"repro sweep: unknown experiment(s) "
            f"{', '.join(sorted(unknown))}; "
            f"choose from {', '.join(sorted(CELLS))}, all"
        )
    if "all" in experiments:
        experiments = sorted(CELLS)
    cells = plan_sweep(experiments, replicas=args.replicas,
                       base_seed=args.seed,
                       config=_parse_overrides(args.set))
    cache = ResultCache(args.cache_dir) if args.cache_dir else None

    if args.dry_run:
        rows = [
            (cell.experiment, cell.replica, cell.seed,
             "cached" if cache is not None and cache.contains(cell.key)
             else "would run")
            for cell in cells
        ]
        print(format_table(["experiment", "replica", "seed", "status"],
                           rows, title=f"sweep plan — {len(cells)} cells"))
        return 0

    outcome = run_sweep(cells, jobs=args.jobs, cache=cache, log=print)
    rows = [
        (cell.experiment, cell.replica, cell.seed,
         "cache" if hit else "ran")
        for cell, hit in zip(outcome.cells, outcome.cached)
    ]
    print(format_table(
        ["experiment", "replica", "seed", "source"], rows,
        title=f"sweep — {outcome.executed} ran, "
              f"{outcome.cache_hits} from cache",
    ))
    payload = outcome.as_payload()
    if args.out:
        parent = os.path.dirname(args.out)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"summary JSON written: {args.out}")
    if args.csv:
        from .analysis.export import export_sweep

        parent = os.path.dirname(args.csv)
        if parent:
            os.makedirs(parent, exist_ok=True)
        print(f"summary CSV written: {export_sweep(payload, args.csv)}")
    return 0


def _live(args) -> int:
    """The live-mode demo: a real registry, N real nodes on localhost
    sockets, one overload, one autonomic migration."""
    import time

    from .core import MetricPredicate, MigrationPolicy
    from .live import (
        LiveNode,
        LiveRegistry,
        sqrt_sum_expected,
        sqrt_sum_state,
    )
    from .rules.states import FREE

    policy = MigrationPolicy(
        name="live-demo",
        dest_conditions=(MetricPredicate("loadavg1", "<", 1.0),),
    )
    lease = max(5.0, 10.0 * args.interval)
    top = None
    if args.hierarchy:
        top = LiveRegistry(policy=policy, lease=lease,
                           command_cooldown=0.5, name="top")
    registry = LiveRegistry(
        policy=policy, lease=lease, command_cooldown=0.5,
        parent_address=top.address if top else None,
    )
    nodes = [
        LiveNode(f"node{i}", registry_address=registry.address,
                 interval=args.interval,
                 capacity_threshold=args.threshold)
        for i in range(args.nodes)
    ]
    extra = []
    if top is not None:
        # One host under the top-level registry: the escalation target
        # when every local node is busy.
        extra = [LiveNode("remote0", registry_address=top.address,
                          interval=args.interval,
                          capacity_threshold=args.threshold)]
    try:
        print(f"registry listening on {registry.address}"
              + (f" (parent {top.address})" if top else ""))
        for node in nodes + extra:
            print(f"  {node.name} on {node.address}")
        deadline = time.monotonic() + args.timeout

        def settle(ready) -> None:
            while time.monotonic() < deadline and not ready():
                time.sleep(0.05)

        def folded(reg, node, loaded=False) -> bool:
            record = reg.table.get(node.address)
            return (record is not None and record.updates_received > 0
                    and not (loaded and record.state == FREE))

        # Overload only once every registry has folded its nodes' first
        # heartbeat: a decision taken earlier finds no destination.
        members = [(registry, n) for n in nodes] + [(top, n) for n in extra]
        settle(lambda: all(folded(reg, n) for reg, n in members))
        source = nodes[0]
        if top is not None:
            # Saturate the local peers, and let the registry see it,
            # so the decision must escalate.
            for node in nodes[1:]:
                node.inject_load(3.0)
            settle(lambda: all(folded(registry, n, loaded=True)
                               for n in nodes[1:]))
        task = source.submit(
            "sqrt_sum", sqrt_sum_state(n=args.n, chunk=args.n // 40),
            est_seconds=120.0,
        )
        source.inject_load(3.0)
        print(f"task {task.task_id} started on {source.name}; "
              f"source load injected — waiting for the migration ...")
        finished = None
        while time.monotonic() < deadline and finished is None:
            time.sleep(0.1)
            for node in nodes + extra:
                if node.completed:
                    finished = node
                    break
        print()
        print(format_table(
            ["source", "dest", "pid", "escalated"],
            [(d.source, d.dest or "-", d.pid, "yes" if d.escalated
              else "no") for d in registry.decisions]
            + ([(d.source, d.dest or "-", d.pid, "yes" if d.escalated
                 else "no") for d in top.decisions] if top else []),
            title="decision log",
        ))
        if finished is None:
            print("\nno migration completed within "
                  f"{args.timeout:.0f}s — try a larger --timeout")
            return 1
        done = finished.completed[0]
        ok = abs(done.result["acc"] - sqrt_sum_expected(args.n)) < 1e-6
        migrated = finished is not source
        print(f"\ntask finished on {finished.name} after "
              f"{done.hops} hop(s); result "
              f"{'correct' if ok else 'WRONG'}")
        return 0 if (ok and migrated) else 1
    finally:
        for node in nodes + extra:
            node.stop()
        registry.stop()
        if top is not None:
            top.stop()


def _lint(args) -> int:
    from .lint import (
        LintUsageError, exit_code, lint_paths, render_json,
        render_sarif, render_text,
    )

    def _codes(raw):
        if raw is None:
            return None
        return [c for c in (p.strip() for p in raw.split(",")) if c]

    try:
        diags = lint_paths(args.paths, select=_codes(args.select),
                           ignore=_codes(args.ignore))
    except LintUsageError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    render = {
        "json": render_json,
        "sarif": render_sarif,
    }.get(args.format, render_text)
    print(render(diags))
    return exit_code(diags, strict=args.strict)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction toolkit for 'A Runtime System for "
                    "Autonomic Rescheduling of MPI Programs' "
                    "(ICPP 2004): experiments and config linting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="regenerate one of the paper's experiments"
    )
    run.add_argument("experiment", choices=sorted(COMMANDS),
                     help="which experiment to run")
    run.add_argument("--seed", type=int, default=0,
                     help="random seed (default 0)")
    run.add_argument("--duration", type=float, default=3600.0,
                     help="overhead-experiment horizon in simulated "
                          "seconds (default 3600)")
    run.add_argument("--out", default=None,
                     help="directory for CSV export (created if missing)")
    run.add_argument("--trace", default=None, metavar="PATH",
                     help="also record a structured trace to PATH "
                          "(.json → Chrome/Perfetto, else JSONL)")
    run.set_defaults(func=_run)

    trace = sub.add_parser(
        "trace",
        help="run an experiment with tracing on and export the trace",
    )
    trace.add_argument("experiment", choices=sorted(COMMANDS),
                       help="which experiment to trace")
    trace.add_argument("--seed", type=int, default=0,
                       help="random seed (default 0)")
    trace.add_argument("--duration", type=float, default=3600.0,
                       help="overhead-experiment horizon in simulated "
                            "seconds (default 3600)")
    trace.add_argument("--out", default="trace.jsonl", metavar="PATH",
                       help="trace output path (default trace.jsonl)")
    trace.add_argument("--format", choices=("jsonl", "chrome"),
                       default=None,
                       help="trace format (default: from extension)")
    trace.set_defaults(func=_trace)

    sweep = sub.add_parser(
        "sweep",
        help="fan experiment replicas across a process pool, with "
             "deterministic seeding and result caching",
    )
    from .perf.experiments import CELLS as _sweep_cells

    sweep.add_argument("experiments", nargs="*", metavar="EXPERIMENT",
                       help="experiments to sweep: "
                            f"{', '.join(sorted(_sweep_cells))}, "
                            "or 'all' for every one")
    sweep.add_argument("--list-axes", action="store_true",
                       help="print each cell's valid --set axes and exit")
    sweep.add_argument("--replicas", type=int, default=1,
                       help="replicas per experiment (default 1)")
    sweep.add_argument("--seed", type=int, default=0,
                       help="base seed; per-cell seeds are derived by "
                            "content hash (default 0)")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default 1 = serial)")
    sweep.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="JSON result cache; warm re-runs skip "
                            "completed cells")
    sweep.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="config override passed to every cell "
                            "(repeatable; values parsed as JSON)")
    sweep.add_argument("--out", default=None, metavar="PATH",
                       help="write the full summary JSON here")
    sweep.add_argument("--csv", default=None, metavar="PATH",
                       help="also flatten scalar metrics to CSV")
    sweep.add_argument("--dry-run", action="store_true",
                       help="print the plan (and cache status) "
                            "without running anything")
    sweep.set_defaults(func=_sweep)

    lint = sub.add_parser(
        "lint",
        help="statically check rule files, policies, app schemas "
             "and the Python source contracts",
    )
    lint.add_argument("paths", nargs="+",
                      help="files or directories to lint")
    lint.add_argument("--format", choices=("text", "json", "sarif"),
                      default="text", help="report format (default text)")
    lint.add_argument("--strict", action="store_true",
                      help="treat warnings as errors")
    lint.add_argument("--select", default=None, metavar="CODES",
                      help="report only codes matching these "
                           "comma-separated prefixes (e.g. D3,T505)")
    lint.add_argument("--ignore", default=None, metavar="CODES",
                      help="drop codes matching these comma-separated "
                           "prefixes")
    lint.set_defaults(func=_lint)

    live = sub.add_parser(
        "live",
        help="run the rescheduler over real localhost sockets and "
             "watch one autonomic migration",
    )
    live.add_argument("--nodes", type=int, default=2,
                      help="number of localhost nodes (default 2)")
    live.add_argument("--interval", type=float, default=0.2,
                      help="monitoring interval in seconds (default 0.2)")
    live.add_argument("--threshold", type=float, default=1.5,
                      help="overload threshold on the demo load "
                           "(default 1.5)")
    live.add_argument("--n", type=int, default=20_000_000,
                      help="task size: sum of square roots up to N "
                           "(default 2e7)")
    live.add_argument("--timeout", type=float, default=60.0,
                      help="give up after this many seconds (default 60)")
    live.add_argument("--hierarchy", action="store_true",
                      help="add a parent registry plus a remote node and "
                           "force the decision to escalate")
    live.set_defaults(func=_live)

    lister = sub.add_parser("list", help="list available experiments")
    lister.set_defaults(func=_list)
    return parser


def _shim(argv: list) -> list:
    """Back-compat: ``repro fig5 --seed 1`` → ``repro run fig5 --seed 1``."""
    if argv and argv[0] in COMMANDS:
        return ["run"] + argv
    return argv


def main(argv: Optional[list] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_shim(argv))
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
