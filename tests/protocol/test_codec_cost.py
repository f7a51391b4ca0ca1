"""What the hot message costs, as machine-independent counts.

A ``StatusUpdate`` is written as text and a canonical one is read in
one pass; ElementTree builds no tree for any message on the way out and
parses nothing on the way in for a canonical heartbeat.
"""

import xml.etree.ElementTree as ET

import pytest

from repro.protocol import StatusUpdate, decode, encode
from repro.rules import SystemState

from ..callcount import count_calls
from .wire_cases import CASES, HEARTBEAT, MALLEABLE, RIGID

#: The ledger's ``live_ingest`` heartbeat: ten metrics, no process.
BEAT = (StatusUpdate(host="h000", state=SystemState.FREE,
                     metrics=HEARTBEAT), "127.0.0.1:40000", 1.5e9)
#: ... and ``live_decide``'s report: the same with a process list.
REPORT = (StatusUpdate(host="h001", state=SystemState.OVERLOADED,
                       metrics=HEARTBEAT, processes=[RIGID, MALLEABLE]),
          "127.0.0.1:40001", 1.5e9)


def test_call_count_of_a_heartbeat_through_the_codec():
    """452 calls to encode and 33 to decode through ElementTree."""
    data = encode(*BEAT)
    assert count_calls(lambda: encode(*BEAT)) <= 60
    assert count_calls(lambda: decode(data)) <= 24


def _refuse(*args, **kwargs):
    raise AssertionError("ElementTree on the hot path")


def test_no_message_is_encoded_through_an_elementtree(monkeypatch):
    for name in ("Element", "SubElement", "tostring"):
        monkeypatch.setattr(ET, name, _refuse)
    plain = [case for case in CASES
             if not getattr(case[0], "requirements_xml", "")]
    assert len({type(case[0]) for case in plain}) == 10
    for case in plain:
        assert encode(*case).startswith(b"<msg ")


@pytest.mark.parametrize("case", [BEAT, REPORT], ids=["beat", "report"])
def test_a_canonical_heartbeat_is_decoded_without_a_parser(
        case, monkeypatch):
    data = encode(*case)
    monkeypatch.setattr(ET, "fromstring", _refuse)
    msg, sender, ts = decode(data)
    assert (sender, ts) == case[1:]
    assert (msg.host, msg.state, msg.metrics) == (
        case[0].host, case[0].state, HEARTBEAT)
    assert [p["pid"] for p in msg.processes] == [
        p["pid"] for p in case[0].processes]
