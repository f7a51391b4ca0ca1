"""Sweep runner: planning, serial/parallel equivalence, caching, CLI."""

import json

import pytest

from repro.cli import main
from repro.perf import (
    ResultCache,
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
    assert [c.experiment for c in cells] == ["fig5"] * 3 + ["fig6"] * 3
    assert cells[1].seed == derive_seed(9, "fig5", 1)
    assert cells[0].seed != cells[1].seed


def test_plan_rejects_unknown_experiment():
    with pytest.raises(ValueError, match="unknown experiments"):
        plan_sweep(["fig5", "warp"])


def test_plan_rejects_bad_replicas():
    with pytest.raises(ValueError):
        plan_sweep(["fig5"], replicas=0)


def test_plan_rejects_config_keys_no_cell_reads():
    # The classic typo: "host" for "hosts" — must fail loudly instead
    # of silently polluting every cache key.
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
#: ``repro sweep --list-axes`` and the cache keys as they were when the
#: axes were still listed twice (in ``CELL_AXES`` and in each cell's
#: kwargs comprehension); deriving the kwargs from ``CELL_AXES`` must
#: move neither.
LIST_AXES_ROWS = {
    "fig5": "cycle_cost, duration, hosts, interval, settle",
    "fig6": "cycle_cost, duration, hosts, interval, settle",
    "fig7": "app_start, chunks, duration, hogs, levels, load_at, node_cost, "
            "resume_fraction, serialize_rate, sustain, trees",
    "fig8": "app_start, chunks, duration, hogs, levels, load_at, node_cost, "
            "resume_fraction, serialize_rate, sustain, trees",
    "malleability": "grow_at, hogs, hosts, load_at, max_duration, "
                    "min_efficiency, params, shrink_at, sustain",
    "table2": "bulk_rate, hogs, load_at, max_duration, params, sustain, "
              "ws3_load",
}
CACHE_KEYS = {
    "fig5": "8850915327fcadaf596f824e43b5a77fe852e8835904e1a494e0e2bca7a6b81d",
    "fig7": "cf9081644167b970fbd594396a16e959e6d295fe5a35d93296dd1e835c846d3d",
    "table2":
        "c5a8417b74ff73f43ca2a1710d69b1673d808a038008af9b76ab3b12e76ea7ae",
    "malleability":
        "f2ccf8dbcf991a0f08dc1de4f3648db2623e7be93dd35be06119eb3157d4179d",
}


def test_axes_listing_and_cache_keys_are_unchanged(capsys):
    assert main(["sweep", "--list-axes"]) == 0
    rows = {
        name.strip(): axes.strip()
        for name, _, axes in (
            line.partition("|") for line in capsys.readouterr().out.splitlines()
        )
    }
    for name, axes in LIST_AXES_ROWS.items():
        assert rows[name] == axes
    cells = plan_sweep(list(CACHE_KEYS), config={"hosts": 4, "sustain": 2})
    assert {c.experiment: c.key for c in cells} == CACHE_KEYS


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

    monkeypatch.setattr(analysis, "run_table2", capture("table2"))
    monkeypatch.setattr(analysis, "run_malleability_experiment",
                        capture("malleability"))
    monkeypatch.setattr(analysis, "run_efficiency_experiment",
                        capture("fig7"))
    config = {"hosts": 4, "sustain": 2, "interval": 5.0, "chunks": 3}
    for name in ("table2", "malleability", "fig7"):
        with pytest.raises(LookupError):
            run_cell(name, config, seed=1)
        assert seen[name] == {
            k: v for k, v in config.items() if k in CELL_AXES[name]}
    assert seen["table2"] == {"sustain": 2}
    assert seen["fig7"] == {"sustain": 2, "chunks": 3}


def test_parallel_sweep_matches_serial():
    cells = plan_sweep(["fig5"], replicas=2, base_seed=3, config=QUICK)
    serial = run_sweep(cells, jobs=1)
    parallel = run_sweep(cells, jobs=2)
    assert serial.summaries == parallel.summaries
    assert serial.executed == parallel.executed == 2


def test_sweep_matches_direct_cell_run():
    cells = plan_sweep(["fig5"], replicas=1, base_seed=3, config=QUICK)
    outcome = run_sweep(cells, jobs=1)
    direct = run_cell("fig5", QUICK, cells[0].seed)
    assert outcome.summaries == [direct]


# ------------------------------------------------------------ caching
def test_warm_cache_skips_completed_cells(tmp_path):
    cache = ResultCache(str(tmp_path))
    cells = plan_sweep(["fig5"], replicas=2, base_seed=1, config=QUICK)
    cold = run_sweep(cells, cache=cache)
    assert cold.executed == 2 and cold.cache_hits == 0
    warm = run_sweep(cells, cache=cache)
    assert warm.executed == 0 and warm.cache_hits == 2
    assert warm.summaries == cold.summaries


def test_config_change_invalidates_cache(tmp_path):
    cache = ResultCache(str(tmp_path))
    run_sweep(plan_sweep(["fig5"], base_seed=1, config=QUICK),
              cache=cache)
    other = dict(QUICK, duration=100.0)
    outcome = run_sweep(plan_sweep(["fig5"], base_seed=1, config=other),
                        cache=cache)
    assert outcome.executed == 1  # different key → no hit


# ---------------------------------------------------------------- CLI
def _sweep_args(tmp_path, *extra):
    return ["sweep", "fig5", "--replicas", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--set", "duration=80", "--set", "settle=20", *extra]


def test_cli_dry_run_executes_nothing(tmp_path, capsys):
    assert main(_sweep_args(tmp_path, "--dry-run")) == 0
    out = capsys.readouterr().out
    assert "sweep plan" in out and "would run" in out
    assert not (tmp_path / "cache").exists()


def test_cli_sweep_writes_outputs_and_reuses_cache(tmp_path, capsys):
    out_json = tmp_path / "sweep.json"
    out_csv = tmp_path / "sweep.csv"
    assert main(_sweep_args(tmp_path, "--out", str(out_json),
                            "--csv", str(out_csv))) == 0
    first = capsys.readouterr().out
    assert "2 ran, 0 from cache" in first

    payload = json.loads(out_json.read_text())
    assert len(payload["cells"]) == 2
    assert payload["cells"][0]["summary"]["load1_overhead"] > 0
    header = out_csv.read_text().splitlines()[0]
    assert header == "experiment,replica,seed,metric,value"

    assert main(_sweep_args(tmp_path)) == 0
    second = capsys.readouterr().out
    assert "0 ran, 2 from cache" in second
    # And the dry run now reports the cells as cached.
    assert main(_sweep_args(tmp_path, "--dry-run")) == 0
    assert "cached" in capsys.readouterr().out


def test_cli_sweep_all_expands(tmp_path, capsys):
    assert main(["sweep", "all", "--dry-run"]) == 0
    out = capsys.readouterr().out
    for name in ("fig5", "fig6", "fig7", "fig8", "table2"):
        assert name in out


def test_cli_bad_set_value_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(_sweep_args(tmp_path, "--set", "broken"))
