"""Command-line interface: experiments, sweeps, linting, live mode.

::

    python -m repro list
    python -m repro run fig5 [--seed N] [--out DIR]
    python -m repro run fig7 --trace out.json
    python -m repro run all --out results/
    python -m repro sweep fig5 fig7 --replicas 3 --jobs 4 --out sweep.json
    python -m repro lint examples/ [--format json] [--strict]
    python -m repro live [--nodes N] [--timeout S] [--hierarchy]

``repro run`` regenerates a §5 figure or table: it runs the
experiment's cell (:func:`repro.perf.experiments.run_cell`; Figures 5
and 6 share the ``overhead`` cell, Figures 7 and 8 the ``efficiency``
cell) and prints a paper-vs-measured table, and ASCII plots for the
figures, from the cell's summary alone.  ``--out DIR`` writes each
summary to ``DIR/<cell>.json``; ``--trace PATH`` also records the
structured migration-lifecycle trace and prints its per-phase span
breakdown (see ``docs/tracing.md``).  ``repro sweep`` fans independent
replicas across a process pool with deterministic per-replica seeds,
simulating every cell on every run (see ``docs/performance.md``).
``repro lint`` statically checks rule files, policy files and
application schemas (see ``docs/linting.md``).  ``repro live`` runs the
whole pipeline over real localhost sockets — registry, nodes, an
overload, one genuine migration — and prints the decision log (see
``docs/live.md``).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

#: What the paper reports, by experiment, as ``(row, quote)`` pairs worded
#: as EXPERIMENTS.md's paper column (tests/docs holds them to it).
PAPER = {
    "fig5": (
        ("1-min load, without rescheduler", "0.256"),
        ("1-min load, with rescheduler", "0.266"),
        ("1-min load overhead", "3.9 %"),
        ("5-min load overhead", "0.4 %"),
        ("CPU-utilization overhead", "3.46 %"),
    ),
    "fig6": (
        ("send KB/s (without → with)", "5.82 → 5.82"),
        ("recv KB/s (without → with)", "5.99 → 5.99"),
        ("communication overhead", '"almost no overhead"'),
    ),
    "fig7": (
        ("warm-up (injection → decision)", "72 s"),
        ("decision", "0.002 s"),
        ("initialized process up (LAM DPM spawn)", "0.3 s"),
        ("reach nearest poll-point", "1.4 s"),
        ("resume execution on destination", "< 1 s"),
        ("migration complete", "7.5 s"),
    ),
    "table2": (
        ("1 (no migration)", "983.60"),
        ("2 (comm-blind)", "433.27 → ws2"),
        ("3 (comm-aware)", "329.71 → ws4"),
    ),
}


def _versus(name: str, measured, title: str, first: str = "quantity"):
    """``PAPER[name]`` beside ``measured`` (one value per row)."""
    from .metrics import format_table

    rows = [(*quoted, value) for quoted, value in zip(PAPER[name], measured)]
    return format_table([first, "paper", "measured"], rows, title=title)


def _plot(s: dict, names: tuple, title: str, labels: list) -> str:
    """The summary's ``series`` named ``names``, as one ASCII plot."""
    from .metrics import TimeSeries, ascii_plot

    return ascii_plot(
        [TimeSeries.from_points(s["series"][name]) for name in names],
        title=title, labels=labels,
    )


def _fig5(s: dict) -> None:
    print(_versus("fig5", [
        f"{s['load1_without']:.3f}", f"{s['load1_with']:.3f}",
        f"{100 * s['load1_overhead']:.2f} %",
        f"{100 * s['load5_overhead']:.2f} %",
        f"{100 * s['cpu_overhead']:.2f} %",
    ], "Figure 5 — rescheduler overhead (load average)"))
    print(_plot(s, ("load1_without", "load1_with"),
                "1-minute load average", ["without", "with"]))


def _fig6(s: dict) -> None:
    print(_versus("fig6", [
        f"{s['send_kbs_without']:.2f} → {s['send_kbs_with']:.2f}",
        f"{s['recv_kbs_without']:.2f} → {s['recv_kbs_with']:.2f}",
        f"{100 * s['comm_overhead']:.2f} %",
    ], "Figure 6 — rescheduler overhead (communication)"))


def _fig7(s: dict) -> None:
    print(_versus("fig7", [
        f"{s['warmup_s']:.1f} s", f"{s['decision_s']:.3f} s",
        f"{s['init_s']:.2f} s", f"{s['to_pollpoint_s']:.2f} s",
        f"{s['resume_s']:.2f} s", f"{s['total_s']:.2f} s",
    ], "Figure 7 — migration phases", first="phase"))
    print(_plot(s, ("cpu_source", "cpu_dest"),
                "CPU utilization around the migration",
                ["source", "destination"]))


def _fig8(s: dict) -> None:
    print(_plot(s, ("send_source", "recv_dest"),
                "Figure 8 — network KB/s (state-transfer burst)",
                ["source send", "destination recv"]))
    print(f"\nresume happened {s['drain_s']:.2f}s before the "
          f"transfer completed ({s['memory_mb']:.1f} MB moved)")


def _table1(s: dict) -> None:
    from .metrics import format_table

    def cell(flag):
        return "yes" if flag else "no"

    print(format_table(
        ["state", "loaded", "migrate in", "migrate out"],
        [
            (name, *(cell(s["states"][name][key])
                     for key in ("loaded", "migrate_in", "migrate_out")))
            for name in ("overloaded", "busy", "free")
        ],
        title="Table 1 — system state behaviour (observed)",
    ))


def _table2(s: dict) -> None:
    from .metrics import format_table

    def row(i):
        p = s[f"policy{i}"]
        migration = p["migration_s"]
        return (f"policy-{i}", round(p["total_s"], 2),
                p["migrated_to"] or "-", round(p["source_s"], 2),
                round(p["dest_s"], 2),
                "-" if migration is None else round(migration, 2))

    print(format_table(
        ["policy", "total s", "to", "source s", "dest s", "migration s"],
        [row(i) for i in (1, 2, 3)],
        title="Table 2 — policy comparison (paper: "
              + " / ".join(quote for _, quote in PAPER["table2"]) + ")",
    ))


#: Figure or table → its printer, which reads only the cell summary.
#: A figure's cell is ``repro.perf.experiments.FIGURES[name]``; a
#: table is a cell of its own.
PRINTERS = {
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
    "table1": _table1,
    "table2": _table2,
}


def _list(args) -> int:
    print("available experiments:")
    for name in sorted(PRINTERS):
        print(f"  {name}")
    print("  all    — run everything")
    return 0


def _export_trace(tracer, path: str) -> None:
    """Write a collected trace; ``.json`` → Chrome/Perfetto, anything
    else → JSONL."""
    from .trace.exporters import export_chrome, export_jsonl

    chrome = path.endswith(".json")
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    n = (export_chrome if chrome else export_jsonl)(tracer.records, path)
    print(f"trace written: {path} ({n} records, "
          f"{'chrome' if chrome else 'jsonl'} format)")


def _summaries(names: list, args) -> dict:
    """Each named experiment's cell, run once: cell → summary."""
    from .perf.experiments import FIGURES, run_cell

    summaries: dict = {}
    for name in names:
        cell = FIGURES.get(name, name)
        if cell not in summaries:
            config = {"duration": args.duration} if cell == "overhead" else {}
            summaries[cell] = run_cell(cell, config, args.seed)
    return summaries


def _run(args) -> int:
    import json

    from .perf.experiments import FIGURES

    names = list(PRINTERS) if args.experiment == "all" else [args.experiment]
    if args.trace:
        from .trace import Tracer, use

        tracer = Tracer()
        with use(tracer):
            summaries = _summaries(names, args)
    else:
        summaries = _summaries(names, args)
    for name in names:
        if len(names) > 1:
            print(f"\n=== {name} ===")
        PRINTERS[name](summaries[FIGURES.get(name, name)])
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for cell, summary in summaries.items():
            path = os.path.join(args.out, f"{cell}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(summary, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"summary JSON written: {path}")
    if args.trace:
        from .metrics.tracestats import format_phase_table

        _export_trace(tracer, args.trace)
        print()
        print(format_phase_table(tracer.records))
    return 0


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

    from .metrics import format_table
    from .perf import plan_sweep, run_sweep
    from .perf.experiments import CELLS, FIGURES

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
    unknown = [e for e in experiments
               if e != "all" and FIGURES.get(e, e) not in CELLS]
    if unknown:
        raise SystemExit(
            f"repro sweep: unknown experiment(s) "
            f"{', '.join(sorted(unknown))}; "
            f"choose from {', '.join(sorted(CELLS))}, "
            f"{', '.join(sorted(FIGURES))}, all"
        )
    if "all" in experiments:
        experiments = sorted(CELLS)
    cells = plan_sweep(experiments, replicas=args.replicas,
                       base_seed=args.seed,
                       config=_parse_overrides(args.set))
    rows = [(cell.experiment, cell.replica, cell.seed) for cell in cells]
    header = ["experiment", "replica", "seed"]
    if args.dry_run:
        print(format_table(header, rows,
                           title=f"sweep plan — {len(cells)} cells"))
        return 0

    summaries = run_sweep(cells, jobs=args.jobs, log=print)
    print(format_table(header, rows, title=f"sweep — {len(cells)} ran"))
    if args.out:
        payload = {"cells": [
            {"experiment": cell.experiment, "replica": cell.replica,
             "seed": cell.seed, "config": cell.config, "summary": summary}
            for cell, summary in zip(cells, summaries)
        ]}
        parent = os.path.dirname(args.out)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"summary JSON written: {args.out}")
    return 0


def _live(args) -> int:
    """The live-mode demo: a real registry, N real nodes on localhost
    sockets, one overload, one autonomic migration."""
    import threading
    import time

    from .core import MetricPredicate, MigrationPolicy
    from .live import (
        LiveNode,
        LiveRegistry,
        sqrt_sum_expected,
        sqrt_sum_state,
    )
    from .metrics import format_table
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
        # The task waits at its first poll-point until the command has
        # reached it: on a loaded box it could otherwise finish before
        # the decision lands.
        release = threading.Event()
        task = source.submit(
            "sqrt_sum", sqrt_sum_state(n=args.n, chunk=args.n // 40),
            est_seconds=120.0, hold=release,
        )
        source.inject_load(3.0)
        print(f"task {task.task_id} started on {source.name}; "
              f"source load injected — waiting for the migration ...")
        settle(lambda: task.migrate_to is not None)
        release.set()
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
        LintUsageError, exit_code, lint_paths, render_json, render_text,
    )

    try:
        diags = lint_paths(args.paths)
    except LintUsageError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    render = render_json if args.format == "json" else render_text
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
    run.add_argument("experiment", choices=sorted(PRINTERS) + ["all"],
                     help="which experiment to run")
    run.add_argument("--seed", type=int, default=0,
                     help="random seed (default 0)")
    run.add_argument("--duration", type=float, default=3600.0,
                     help="overhead-experiment horizon in simulated "
                          "seconds (default 3600)")
    run.add_argument("--out", default=None, metavar="DIR",
                     help="write each cell's summary to DIR/<cell>.json "
                          "(created if missing)")
    run.add_argument("--trace", default=None, metavar="PATH",
                     help="also record a structured trace to PATH "
                          "(.json → Chrome/Perfetto, else JSONL) and "
                          "print its per-phase breakdown")
    run.set_defaults(func=_run)

    sweep = sub.add_parser(
        "sweep",
        help="fan experiment replicas across a process pool, with "
             "deterministic seeding",
    )
    sweep.add_argument("experiments", nargs="*", metavar="EXPERIMENT",
                       help="experiments to sweep (--list-axes names "
                            "them), or 'all' for every one")
    sweep.add_argument("--list-axes", action="store_true",
                       help="print each cell's valid --set axes and exit")
    sweep.add_argument("--replicas", type=int, default=1,
                       help="replicas per experiment (default 1)")
    sweep.add_argument("--seed", type=int, default=0,
                       help="base seed; per-cell seeds are derived by "
                            "content hash (default 0)")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default 1 = serial)")
    sweep.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="config override passed to every cell "
                            "(repeatable; values parsed as JSON)")
    sweep.add_argument("--out", default=None, metavar="PATH",
                       help="write the full summary JSON here")
    sweep.add_argument("--dry-run", action="store_true",
                       help="print the plan without running anything")
    sweep.set_defaults(func=_sweep)

    lint = sub.add_parser(
        "lint",
        help="statically check rule files, policies and app schemas",
    )
    lint.add_argument("paths", nargs="+",
                      help="files or directories to lint")
    lint.add_argument("--format", choices=("text", "json"),
                      default="text", help="report format (default text)")
    lint.add_argument("--strict", action="store_true",
                      help="treat warnings as errors")
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


def main(argv: Optional[list] = None) -> int:
    """Run one subcommand.  A configuration the runtime refuses is one
    ``repro: CODE: message`` line per error and exit status 2; so is
    an experiment argument outside the range its cell can run, in one
    ``repro: message`` line."""
    from .findings import CellArgumentError, ConfigError

    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for d in exc.errors:
            print(f"repro: {d.code}: {d.message}", file=sys.stderr)
        return 2
    except CellArgumentError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
