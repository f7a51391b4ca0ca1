"""Every record any test here logs obeys the terminal-record invariant."""

import pytest

from repro.hpcm import ladder

from .records import assert_terminal


@pytest.fixture(autouse=True)
def every_logged_record_is_terminal(monkeypatch):
    attempts = []
    init = ladder.Attempt.__init__

    def recording_init(att, *args, **kwargs):
        init(att, *args, **kwargs)
        attempts.append(att)

    monkeypatch.setattr(ladder.Attempt, "__init__", recording_init)
    yield
    assert_terminal(att.rec for att in attempts if att.rec in att.log)
