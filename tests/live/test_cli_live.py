"""The ``repro live`` subcommand: bounded end-to-end demo."""

import re

from repro.cli import main

#: A decision-log row whose dest column is ``-``: the registry decided
#: before it knew of any destination.
_NO_DEST = re.compile(r"\| -\s+\|")


def test_repro_live_runs_one_migration(capsys):
    rc = main(["live", "--n", "4000000", "--timeout", "45",
               "--interval", "0.1"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "decision log" in out
    assert "result correct" in out
    assert not _NO_DEST.search(out), out


def test_repro_live_hierarchy_escalates(capsys):
    rc = main(["live", "--n", "4000000", "--timeout", "45",
               "--interval", "0.1", "--hierarchy"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "yes" in out  # an escalated decision in the log
    assert "result correct" in out
    assert not _NO_DEST.search(out), out


def test_repro_live_hierarchy_waits_for_the_command(capsys):
    """A task a hundred times shorter than the demo's finishes long
    before an escalated decision can land; held at its first
    poll-point, it migrates anyway."""
    rc = main(["live", "--n", "40000", "--timeout", "45",
               "--interval", "0.1", "--hierarchy"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "task finished on remote0 after 1 hop(s)" in out, out
