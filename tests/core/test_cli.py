"""The command-line interface."""

import csv
import os

import pytest

from repro.cli import build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig5", "fig7", "table2", "all"):
        assert name in out


def test_table1_command(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "overloaded" in out


def test_table2_command_with_export(tmp_path, capsys):
    assert main(["table2", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "policy-1" in out and "ws4" in out
    with open(tmp_path / "table2.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "policy"
    assert len(rows) == 4


def test_fig7_command_with_export(tmp_path, capsys):
    assert main(["fig7", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "warm-up" in out
    assert os.path.exists(tmp_path / "migration_phases.csv")


def test_fig5_command_short_duration(capsys):
    assert main(["fig5", "--duration", "1500"]) == 0
    out = capsys.readouterr().out
    assert "Figure 5" in out
    assert "1-min load overhead" in out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["warp"])


def test_seed_flag_changes_nothing_structural(capsys):
    assert main(["table1", "--seed", "3"]) == 0
    assert "Table 1" in capsys.readouterr().out


# ------------------------------------------------- subcommand interface
def test_run_subcommand(capsys):
    assert main(["run", "table1"]) == 0
    assert "Table 1" in capsys.readouterr().out


def test_backcompat_shim_maps_bare_experiment(capsys):
    # `repro table1 --seed 1` keeps working as `repro run table1 --seed 1`.
    assert main(["table1", "--seed", "1"]) == 0
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
    assert (target / "table2.csv").exists()


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
    for name in ("fig5", "table2", "malleability"):
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
    assert out.count("would run") == 2
