"""Sweep runner: planning, serial/parallel equivalence, CLI."""

import json

import pytest

from repro.cli import main
from repro.perf import (
    derive_seed,
    plan_sweep,
    run_cell,
    run_sweep,
)

#: Small enough to simulate in well under a second per cell.
QUICK = {"duration": 80.0, "settle": 20.0}


# ------------------------------------------------------------- planning
def test_plan_expands_experiments_by_replicas():
    cells = plan_sweep(["fig5", "fig6"], replicas=3, base_seed=9,
                       config=QUICK)
    assert len(cells) == 6
    # Both figures plan their one cell, seeded by the name asked for.
    assert [c.experiment for c in cells] == ["overhead"] * 6
    assert cells[1].seed == derive_seed(9, "fig5", 1)
    assert cells[4].seed == derive_seed(9, "fig6", 1)
    assert cells[0].seed != cells[1].seed


def test_plan_drops_a_second_request_for_the_same_run():
    assert len(plan_sweep(["fig5", "fig5", "overhead"], config=QUICK)) == 2
    assert len(plan_sweep(["fig7", "fig8", "fig7"], replicas=2)) == 4


def test_plan_rejects_unknown_experiment():
    with pytest.raises(ValueError, match="unknown experiments"):
        plan_sweep(["fig5", "warp"])


def test_plan_rejects_bad_replicas():
    with pytest.raises(ValueError):
        plan_sweep(["fig5"], replicas=0)


def test_plan_rejects_config_keys_no_cell_reads():
    # The classic typo: "host" for "hosts" — must fail loudly instead
    # of silently changing nothing.
    with pytest.raises(ValueError, match="host"):
        plan_sweep(["fig5"], config={"host": 256})
    with pytest.raises(ValueError, match="valid axes"):
        plan_sweep(["fig7"], config={"hosts": 256})  # fig7 has no hosts axis


def test_plan_accepts_hosts_axis_for_overhead_cells():
    cells = plan_sweep(["fig5", "fig6"], config={"hosts": 256, **QUICK})
    assert all(c.config["hosts"] == 256 for c in cells)


def test_plan_axis_union_across_experiments():
    # A key read by ANY planned experiment is accepted for the batch.
    cells = plan_sweep(["fig5", "fig7"],
                       config={"hosts": 64, "duration": 80.0})
    assert len(cells) == 2


# ------------------------------------------------- serial ≡ parallel
#: ``repro sweep --list-axes`` and the planned runs as they were when
#: the axes were still listed twice (in ``CELL_AXES`` and in each cell's
#: kwargs comprehension); deriving the kwargs from ``CELL_AXES`` must
#: move neither.
LIST_AXES_ROWS = {
    "overhead": "cycle_cost, duration, hosts, interval, settle",
    "efficiency": "app_start, chunks, duration, hogs, levels, load_at, "
                  "node_cost, resume_fraction, serialize_rate, sustain, trees",
    "malleability": "grow_at, hogs, hosts, load_at, max_duration, "
                    "min_efficiency, params, shrink_at, sustain",
    "table2": "bulk_rate, hogs, load_at, max_duration, params, sustain, "
              "ws3_load",
    "table1": "",
    "overload": "background, domains, hosts, inject_at, interval, mode, "
                "params, spike, strategy, sustain",
    "order": "hosts, orders, params, preinit",
    "lease": "interval, lease",
}
PLANNED_RUNS = [
    ("overhead", {"hosts": 4, "sustain": 2}, 546381096244434316),
    ("efficiency", {"hosts": 4, "sustain": 2}, 9096819765559051879),
    ("table2", {"hosts": 4, "sustain": 2}, 5989314037624585697),
    ("malleability", {"hosts": 4, "sustain": 2}, 3929463603901928400),
]


def test_axes_listing_and_planned_runs_are_unchanged(capsys):
    assert main(["sweep", "--list-axes"]) == 0
    rows = {
        name.strip(): axes.strip()
        for name, _, axes in (
            line.partition("|") for line in capsys.readouterr().out.splitlines()
        )
    }
    for name, axes in LIST_AXES_ROWS.items():
        assert rows[name] == axes
    cells = plan_sweep([name for name, _, _ in PLANNED_RUNS],
                       config={"hosts": 4, "sustain": 2})
    assert [(c.experiment, c.config, c.seed) for c in cells] == PLANNED_RUNS


def test_cells_forward_exactly_their_axes(monkeypatch):
    """A cell's runner receives the config keys ``CELL_AXES`` lists for
    it — set ones only — and nothing else rides along."""
    import repro.analysis as analysis
    from repro.perf.experiments import CELL_AXES

    seen = {}

    def capture(name):
        def runner(seed, **kwargs):
            seen[name] = kwargs
            raise LookupError(name)  # the summary is not under test
        return runner

    monkeypatch.setattr(analysis, "run_overhead_experiment",
                        capture("overhead"))
    monkeypatch.setattr(analysis, "run_table2", capture("table2"))
    monkeypatch.setattr(analysis, "run_malleability_experiment",
                        capture("malleability"))
    monkeypatch.setattr(analysis, "run_efficiency_experiment",
                        capture("efficiency"))
    monkeypatch.setattr(analysis, "run_table1", capture("table1"))
    monkeypatch.setattr(analysis, "run_overload", capture("overload"))
    monkeypatch.setattr(analysis, "run_orders", capture("order"))
    monkeypatch.setattr(analysis, "run_lease", capture("lease"))
    config = {"hosts": 4, "sustain": 2, "interval": 5.0, "chunks": 3,
              "strategy": "best_fit", "lease": 7.0, "orders": 2,
              "preinit": True}
    for name in ("overhead", "table2", "malleability", "efficiency", "table1",
                 "overload", "order", "lease"):
        with pytest.raises(LookupError):
            run_cell(name, config, seed=1)
        assert seen[name] == {
            k: v for k, v in config.items() if k in CELL_AXES[name]}
    assert seen["overhead"] == {"hosts": 4, "interval": 5.0}
    assert seen["table2"] == {"sustain": 2}
    assert seen["efficiency"] == {"sustain": 2, "chunks": 3}
    assert seen["table1"] == {}
    assert seen["overload"] == {"hosts": 4, "sustain": 2, "interval": 5.0,
                                "strategy": "best_fit"}
    assert seen["order"] == {"hosts": 4, "orders": 2, "preinit": True}
    assert seen["lease"] == {"interval": 5.0, "lease": 7.0}


@pytest.mark.parametrize("experiment, config, axis", [
    ("efficiency", {"duration": 100.0}, "duration"),
    ("efficiency", {"app_start": 500.0}, "app_start"),
    ("order", {"hosts": 1}, "hosts"),
    ("overload", {"strategy": "nope"},
     "strategy 'nope'; choose from first_fit, best_fit, random_fit"),
], ids=["efficiency-duration", "efficiency-app_start", "order-hosts",
        "overload-strategy"])
def test_unusable_axis_value_fails_up_front(experiment, config, axis):
    """A value the runner cannot use is rejected before the simulation
    starts, by a ``ValueError`` that names the axis."""
    with pytest.raises(ValueError, match=axis):
        run_cell(experiment, config, seed=0)


def test_parallel_sweep_matches_serial():
    cells = plan_sweep(["fig5"], replicas=2, base_seed=3, config=QUICK)
    serial = run_sweep(cells, jobs=1)
    assert run_sweep(cells, jobs=2) == serial
    assert len(serial) == 2


def test_sweep_matches_direct_cell_run():
    cells = plan_sweep(["fig5"], replicas=1, base_seed=3, config=QUICK)
    direct = run_cell("fig5", QUICK, cells[0].seed)
    assert run_sweep(cells, jobs=1) == [direct]


# ---------------------------------------------------------------- CLI
def _sweep_args(*extra):
    return ["sweep", "fig5", "--replicas", "2",
            "--set", "duration=80", "--set", "settle=20", *extra]


def test_cli_dry_run_executes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(_sweep_args("--dry-run", "--out", "sweep.json")) == 0
    out = capsys.readouterr().out
    assert "sweep plan — 2 cells" in out and "ran " not in out
    assert list(tmp_path.iterdir()) == []


def test_cli_sweep_simulates_every_cell_on_every_run(tmp_path, capsys):
    outs = [tmp_path / "first.json", tmp_path / "second.json"]
    for out_json in outs:
        assert main(_sweep_args("--out", str(out_json))) == 0
        assert "sweep — 2 ran" in capsys.readouterr().out

    assert outs[0].read_bytes() == outs[1].read_bytes()
    payload = json.loads(outs[0].read_text())
    assert [sorted(cell) for cell in payload["cells"]] == [
        ["config", "experiment", "replica", "seed", "summary"]] * 2
    assert payload["cells"][0]["summary"]["load1_overhead"] > 0


def test_cli_sweep_all_expands(tmp_path, capsys):
    assert main(["sweep", "all", "--dry-run"]) == 0
    out = capsys.readouterr().out
    for name in ("overhead", "efficiency", "table1", "table2"):
        assert name in out


def test_cli_bad_set_value_rejected():
    with pytest.raises(SystemExit):
        main(_sweep_args("--set", "broken"))
