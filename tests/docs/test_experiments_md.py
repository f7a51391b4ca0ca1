"""EXPERIMENTS.md quotes EXPERIMENTS.json: every row of its tables is
rendered here from the pinned summaries at the precision it prints, so
an edited, stale or unpinned number fails."""

from pathlib import Path

import repro
from repro.metrics import TimeSeries

from ..pinned import by_axis, summary

REPO = Path(repro.__file__).resolve().parents[2]

#: Every table body row of EXPERIMENTS.md, numbers as format fields.
ROWS = (
    # Figure 5
    "| 1-min load, without rescheduler | 0.256 | {fig5[load1_without]:.3f} |",
    "| 1-min load, with rescheduler | 0.266 | {fig5[load1_with]:.3f} |",
    "| 1-min load overhead | **3.9 %** | "
    "**{fig5_pct[load1_overhead]:.2f} %** |",
    "| 5-min load overhead | 0.4 % | {fig5_pct[load5_overhead]:.2f} % |",
    "| CPU-utilization overhead | 3.46 % | {fig5_pct[cpu_overhead]:.2f} % |",
    # Figure 6
    "| send KB/s (without → with) | 5.82 → 5.82 | "
    "{fig6[send_kbs_without]:.2f} → {fig6[send_kbs_with]:.2f} |",
    "| recv KB/s (without → with) | 5.99 → 5.99 | "
    "{fig6[recv_kbs_without]:.2f} → {fig6[recv_kbs_with]:.2f} |",
    "| communication overhead | \"almost no overhead\" | "
    "{fig6_pct[comm_overhead]:.2f} % |",
    # Figure 7
    "| warm-up (injection → decision) | 72 s | {fig7[warmup_s]:.1f} s |",
    "| decision | 0.002 s | {fig7[decision_s]:.3f} s |",
    "| initialized process up (LAM DPM spawn) | 0.3 s | "
    "{fig7[init_s]:.2f} s |",
    "| reach nearest poll-point | 1.4 s | {fig7[to_pollpoint_s]:.2f} s |",
    "| resume execution on destination | < 1 s | {fig7[resume_s]:.2f} s |",
    "| migration complete | 7.5 s | {fig7[total_s]:.2f} s |",
    # Figure 8
    "| state-transfer burst | visible spike | {burst_kbs:,.0f} KB/s at the "
    "destination NIC |",
    "| execution resumes before transfer ends | yes | yes — "
    "{overlap_s:.2f} s of drain after resume |",
    # Table 1
    "| free | {free[loaded]} | {free[migrate_in]} | {free[migrate_out]} | "
    "✓ app landed on the free {table1[migrated_to]} |",
    "| busy | {busy[loaded]} | {busy[migrate_in]} | {busy[migrate_out]} | "
    "✓ busy ws2 skipped as destination |",
    "| overloaded | {overloaded[loaded]} | {overloaded[migrate_in]} | "
    "{overloaded[migrate_out]} | ✓ overloaded ws1 shed the app |",
    # Table 2
    "| 1 (no migration) | 983.60 | {p1[total_s]:.2f} | — / — | — |",
    "| 2 (comm-blind) | 433.27 | {p2[total_s]:.2f} | ws2 / "
    "**{p2[migrated_to]}** | 8.31 / {p2[migration_s]:.2f} |",
    "| 3 (comm-aware) | 329.71 | {p3[total_s]:.2f} | ws4 / "
    "**{p3[migrated_to]}** | 6.71 / {p3[migration_s]:.2f} |",
    # Ablations
    "| pre-initialization (§5.2) | `order` · `preinit=false` / `true` | "
    "init phase {cold[init_s]:.2f} s → {warm[init_s]:.2f} s; migration "
    "total {cold[total_s]:.2f} s → {warm[total_s]:.2f} s |",
    "| warm-up window (§5.2) | `overload` · `trees=200`, `sustain=1` / `3` / "
    "`7`, with and without `spike=25` | sustain=1 false-migrates on a 25 s "
    "spike; sustain=7 never does but reacts in {sustain7[reaction_s]:.0f} s "
    "vs {sustain1[reaction_s]:.0f} s |",
    "| monitoring frequency (§3.1) | `overhead` · `duration=2400 settle=600 "
    "interval=2` / `10` / `30` for the load; `overload` · `interval=2` / "
    "`10` / `30` for the reaction | 2 s interval: {load_pct[2]:.0f} % load "
    "overhead, {reaction[2]:.0f} s reaction; 30 s: {load_pct[30]:.1f} % "
    "overhead, {reaction[30]:.0f} s reaction; the paper's 10 s: "
    "{load_pct[10]:.1f} % / {reaction[10]:.0f} s |",
    "| destination strategy (§3.2) | `overload` · `hosts=4 trees=200 "
    "inject_at=40 background='{{\"ws2\": 0.8, \"ws3\": 0.2}}' "
    "strategy=first_fit` / `best_fit` / `random_fit` | first fit settles for "
    "a 0.8-loaded host (finish {first_fit[total_s]:.0f} s); best fit finds "
    "the idle one ({best_fit[total_s]:.0f} s) |",
    "| central vs hierarchical registry (§3.2) | `overload` · `hosts=12 "
    "inject_at=40 domains=1` / `2` | max per-registry inbound traffic "
    "÷{registry_split:.2f} with two domains; escalated cross-domain "
    "migration works (ws1 → {hier[dest]}) |",
    "| poll-point density (§3) | `order` · `hosts=3 orders=12` and "
    "`levels=14` / `12` / `10` in `params` | mean wait to poll-point "
    "{coarse[to_pollpoint_s]:.2f} s (coarse) → {fine[to_pollpoint_s]:.2f} s "
    "(fine); paper's app measured 1.4 s |",
    "| soft-state lease (§3.2) | `lease` · `interval=2 lease=7` / `10 35` / "
    "`30 100` | 2 s push / 7 s lease: crash detected in {tight[detect_s]:.0f} "
    "s at {tight[push_bps]:.0f} B/s; 30 s push / 100 s lease: "
    "{loose[detect_s]:.0f} s at {loose[push_bps]:.0f} B/s |",
    "| push vs pull registration (§3.2) | `overload` · `mode=push` / `pull` | "
    "pull turns the registry into a traffic source "
    "({pull[registry_out_bps]:.0f} B/s tx vs {push[registry_out_bps]:.1f} "
    "for push) for similar reaction times — both models implemented, the "
    "paper's push/soft-state choice validated |",
)


#: Numbers EXPERIMENTS.md quotes in prose, as the sentences it prints.
PROSE = (
    "the rescheduler migrates the app to ws2 (~{fig7[memory_mb]:.0f} MB of "
    "real pickled tree state).",
    "Our decision time ({decision_ms:.0f} ms vs 2 ms) reflects",
    "(the app runs ~half speed on ws2: dest {p2[dest_s]:.0f} s vs "
    "{p3[dest_s]:.0f} s on ws4).",
)


def _pct(fig):
    return {k: 100 * v for k, v in fig.items() if isinstance(v, float)}


def _yes_no(row):
    return {k: "yes" if v else "no" for k, v in row.items()}


def quoted():
    """The format fields of :data:`ROWS`, from the pinned summaries."""
    fig5 = summary("overhead", duration=3600.0)
    fig6 = summary("overhead", seed=1, duration=3600.0)
    fig7 = fig8 = summary("efficiency")
    table1 = summary("table1")
    table2 = summary("table2")
    central, hier = (summary("overload", hosts=12, inject_at=40.0, domains=d)
                     for d in (1, 2))
    sustain = {c["sustain"]: s for c, s in by_axis("sustain")
               if "spike" not in c}
    coarse, _, fine = (s for c, s in by_axis("orders"))
    return {
        "fig5": fig5, "fig5_pct": _pct(fig5),
        "fig6": fig6, "fig6_pct": _pct(fig6),
        "fig7": fig7,
        "decision_ms": 1000 * fig7["decision_s"],
        "burst_kbs": TimeSeries.from_points(fig8["series"]["recv_dest"]).max(
            t_min=fig8["ordered_at"], t_max=fig8["completed_at"] + 15),
        "overlap_s": fig8["completed_at"] - fig8["resumed_at"],
        "table1": table1,
        **{name: _yes_no(row) for name, row in table1["states"].items()},
        **{f"p{i}": table2[f"policy{i}"] for i in (1, 2, 3)},
        "cold": summary("order", preinit=False),
        "warm": summary("order", preinit=True),
        "sustain1": sustain[1], "sustain7": sustain[7],
        "load_pct": {int(i): 100 * summary(
            "overhead", duration=2400.0, settle=600.0,
            interval=i)["load1_overhead"] for i in (2.0, 10.0, 30.0)},
        "reaction": {int(i): summary("overload", interval=i)["reaction_s"]
                     for i in (2.0, 10.0, 30.0)},
        **{c["strategy"]: s for c, s in by_axis("strategy")},
        "registry_split": central["registry_in_bps"] / hier["registry_in_bps"],
        "hier": hier,
        "coarse": coarse, "fine": fine,
        "tight": summary("lease", interval=2.0, lease=7.0),
        "loose": summary("lease", interval=30.0, lease=100.0),
        "push": summary("overload", mode="push"),
        "pull": summary("overload", mode="pull"),
    }


def _table_rows(markdown):
    """Every table's body rows: the ``|`` lines that are neither a
    ``|---|`` separator nor the header above one."""
    lines = markdown.splitlines()
    return [line for line, below in zip(lines, lines[1:] + [""])
            if line.startswith("|") and not line.startswith("|---")
            and not below.startswith("|---")]


def _quote_drift(path, values):
    """(table rows no pinned number renders, rendered rows missing)."""
    rendered = [row.format(**values) for row in ROWS]
    rows = _table_rows(path.read_text(encoding="utf-8"))
    return ([r for r in rows if r not in rendered],
            [r for r in rendered if r not in rows])


def test_experiments_md_tables_quote_the_pinned_summaries():
    stale, missing = _quote_drift(REPO / "EXPERIMENTS.md", quoted())
    assert stale == [], "rows EXPERIMENTS.json does not render"
    assert missing == [], "rendered rows EXPERIMENTS.md lacks"


def test_one_edited_number_is_caught(tmp_path):
    markdown = (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8")
    copy = tmp_path / "EXPERIMENTS.md"
    copy.write_text(markdown.replace("| 990.95 |", "| 990.96 |"),
                    encoding="utf-8")
    stale, missing = _quote_drift(copy, quoted())
    assert len(stale) == len(missing) == 1
    assert "990.96" in stale[0] and "990.95" in missing[0]


def _prose_drift(path, values):
    """Rendered prose sentences the file does not contain."""
    text = " ".join(path.read_text(encoding="utf-8").split())
    return [line for line in (p.format(**values) for p in PROSE)
            if line not in text]


def test_experiments_md_prose_quotes_the_pinned_summaries():
    assert _prose_drift(REPO / "EXPERIMENTS.md", quoted()) == []


def test_one_edited_prose_number_is_caught(tmp_path):
    markdown = (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8")
    copy = tmp_path / "EXPERIMENTS.md"
    copy.write_text(markdown.replace("dest 340 s", "dest 341 s"),
                    encoding="utf-8")
    (missing,) = _prose_drift(copy, quoted())
    assert "dest 340 s vs 173 s" in missing


def _paper_column(markdown):
    """Each table row's paper quote by its first cell; a Table 2 row's
    with the paper's destination (``433.27 → ws2``)."""
    quotes = {}
    for row in _table_rows(markdown):
        cells = [c.strip().replace("**", "") for c in row.split("|")[1:-1]]
        quote = cells[1]
        if len(cells) == 5 and " / " in cells[3]:
            dest = cells[3].split(" / ")[0]
            quote += "" if dest == "—" else f" → {dest}"
        quotes[cells[0]] = quote
    return quotes


def test_repro_run_quotes_the_paper_as_experiments_md_does():
    from repro.cli import PAPER

    column = _paper_column(
        (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8"))
    quoted_by_cli = {row: quote for rows in PAPER.values()
                     for row, quote in rows}
    assert {row: column.get(row) for row in quoted_by_cli} == quoted_by_cli
