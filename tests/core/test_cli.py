"""The command-line interface."""

import json

import pytest

import repro.perf.experiments as experiments
from repro.cli import build_parser, main
from repro.perf.experiments import run_cell

from ..pinned import summary


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig5", "fig7", "table2", "all"):
        assert name in out


def test_table1_command(capsys):
    assert main(["run", "table1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "overloaded" in out


def test_table2_command_with_export(tmp_path, capsys):
    assert main(["run", "table2", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "policy-1" in out and "ws4" in out
    written = json.loads((tmp_path / "table2.json").read_text())
    assert written == json.loads(json.dumps(run_cell("table2", {}, 0)))


def test_fig7_command_with_export(tmp_path, capsys):
    assert main(["run", "fig7", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "warm-up" in out
    written = json.loads((tmp_path / "efficiency.json").read_text())
    assert written == json.loads(json.dumps(run_cell("efficiency", {}, 0)))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["efficiency.json"]


def test_fig5_command_short_duration(capsys):
    assert main(["run", "fig5", "--duration", "1500"]) == 0
    out = capsys.readouterr().out
    assert "Figure 5" in out
    assert "1-min load overhead" in out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["warp"])


def test_seed_flag_changes_nothing_structural(capsys):
    assert main(["run", "table1", "--seed", "3"]) == 0
    assert "Table 1" in capsys.readouterr().out


# ------------------------------------------------- subcommand interface
def test_run_subcommand(capsys):
    assert main(["run", "table1"]) == 0
    assert "Table 1" in capsys.readouterr().out


def test_run_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["run", "warp"])


def test_no_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_out_directory_is_created(tmp_path, capsys):
    target = tmp_path / "deeply" / "nested"
    assert main(["run", "table2", "--out", str(target)]) == 0
    assert (target / "table2.json").exists()


# ---------------------------------------------------- the one driver
def _percent(value):
    return f"{100 * value:.2f} %"


#: What each printer shows of its cell's summary, at the precision it
#: prints it.
SHOWN = {
    "fig5": lambda s: [
        f"{s['load1_without']:.3f}", f"{s['load1_with']:.3f}",
        _percent(s["load1_overhead"]), _percent(s["load5_overhead"]),
        _percent(s["cpu_overhead"])],
    "fig6": lambda s: [
        f"{s['send_kbs_without']:.2f} → {s['send_kbs_with']:.2f}",
        f"{s['recv_kbs_without']:.2f} → {s['recv_kbs_with']:.2f}",
        _percent(s["comm_overhead"])],
    "fig7": lambda s: [
        f"{s['warmup_s']:.1f} s", f"{s['decision_s']:.3f} s",
        f"{s['init_s']:.2f} s", f"{s['to_pollpoint_s']:.2f} s",
        f"{s['resume_s']:.2f} s", f"{s['total_s']:.2f} s"],
    "fig8": lambda s: [
        f"{s['drain_s']:.2f}s before the transfer completed "
        f"({s['memory_mb']:.1f} MB moved)"],
    "table1": lambda s: [
        " | ".join([state] + ["yes" if row[key] else "no"
                              for key in ("loaded", "migrate_in",
                                          "migrate_out")])
        for state, row in s["states"].items()],
    "table2": lambda s: [
        " | ".join([f"policy-{i}", f"{p['total_s']:.2f}",
                    p["migrated_to"] or "-", f"{p['source_s']:.2f}",
                    f"{p['dest_s']:.2f}" if p["dest_s"] else "0",
                    "-" if p["migration_s"] is None
                    else f"{p['migration_s']:.2f}"])
        for i, p in ((i, s[f"policy{i}"]) for i in (1, 2, 3))],
}

#: The runs EXPERIMENTS.md quotes: ``(figure, seed, cell, config)``.
QUOTED = (
    ("fig5", 0, "overhead", {"duration": 3600.0}),
    ("fig6", 1, "overhead", {"duration": 3600.0}),
    ("fig7", 0, "efficiency", {}),
    ("fig8", 0, "efficiency", {}),
    ("table1", 0, "table1", {}),
    ("table2", 0, "table2", {}),
)


def _squeezed(text):
    """``text`` with each table's column padding dropped."""
    return "\n".join(" | ".join(cell.strip() for cell in line.split("|"))
                     for line in text.splitlines())


@pytest.mark.parametrize("figure, seed, cell, config", QUOTED,
                         ids=[q[0] for q in QUOTED])
def test_run_prints_the_pinned_summary(figure, seed, cell, config, capsys):
    assert main(["run", figure, "--seed", str(seed)]) == 0
    out = _squeezed(capsys.readouterr().out)
    for shown in SHOWN[figure](summary(cell, seed, **config)):
        assert shown in out, (figure, shown)


def test_run_all_runs_each_cell_once(tmp_path, monkeypatch, capsys):
    """``repro run all`` prints six figures and tables from four cell
    runs — served here from the pinned summaries — and ``--out``
    writes each summary as it came back."""
    calls = []

    def pinned(cell, config, seed):
        calls.append(cell)
        return summary(cell, seed, **config)

    monkeypatch.setattr(experiments, "run_cell", pinned)
    assert main(["run", "all", "--out", str(tmp_path)]) == 0
    assert sorted(calls) == ["efficiency", "overhead", "table1", "table2"]
    out = _squeezed(capsys.readouterr().out)
    for figure, seed, cell, config in QUOTED:
        assert f"=== {figure} ===" in out
        if seed == 0:
            pinned_summary = summary(cell, seed, **config)
            for shown in SHOWN[figure](pinned_summary):
                assert shown in out, (figure, shown)
            written = json.loads((tmp_path / f"{cell}.json").read_text())
            assert written == pinned_summary


def test_lint_subcommand_wired(tmp_path, capsys):
    rules = tmp_path / "ok.rules"
    rules.write_text(
        "rl_number: 1\nrl_name: load\nrl_type: simple\n"
        "rl_script: loadAvg.sh\nrl_operator: >\nrl_busy: 1\nrl_overLd: 2\n"
    )
    assert main(["lint", str(rules)]) == 0
    assert "0 error(s)" in capsys.readouterr().out


# ------------------------------------------------------------- sweep
def test_sweep_list_axes(capsys):
    assert main(["sweep", "--list-axes"]) == 0
    out = capsys.readouterr().out
    assert "sweep axes" in out
    # Every cell is listed, including the malleability one with its
    # reshape-ladder knobs.
    for name in ("overhead", "efficiency", "table2", "malleability"):
        assert name in out
    for axis in ("grow_at", "shrink_at", "min_efficiency"):
        assert axis in out


def test_sweep_without_experiments_rejected():
    with pytest.raises(SystemExit, match="name at least one"):
        main(["sweep"])


def test_sweep_unknown_experiment_rejected():
    with pytest.raises(SystemExit, match="unknown experiment"):
        main(["sweep", "warp"])


def test_sweep_dry_run_plans_malleability_cells(capsys):
    assert main(["sweep", "malleability", "--dry-run",
                 "--replicas", "2"]) == 0
    out = capsys.readouterr().out
    assert "2 cells" in out
    assert out.count("malleability") == 2


@pytest.mark.parametrize("argv, message", [
    (["run", "fig5", "--duration", "300"],
     "duration must exceed the settle window"),
    (["sweep", "fig5", "--set", "duration=100"],
     "duration must exceed the settle window"),
    (["sweep", "overhead", "--set", "hosts=1"],
     "the overhead experiment needs >= 2 hosts"),
    (["sweep", "fig7", "--set", "app_start=900"],
     "app_start must lie between 0 and load_at"),
    (["sweep", "efficiency", "--set", "duration=100"],
     "duration must exceed load_at"),
    (["sweep", "order", "--set", "hosts=1"],
     "the order experiment needs hosts >= 2"),
])
def test_a_cell_argument_out_of_range_is_one_line_and_exit_2(
        argv, message, capsys, monkeypatch):
    """Refused like a P109 config, in ``run`` and ``sweep`` alike:
    before anything is simulated, with no traceback."""
    from repro.sim import Environment

    def no_time(*args, **kwargs):
        raise AssertionError("simulated time passed")

    monkeypatch.setattr(Environment, "run", no_time)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"repro: {message}\n"
