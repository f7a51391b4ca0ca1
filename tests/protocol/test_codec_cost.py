"""What the hot messages cost, as machine-independent counts.

A ``StatusUpdate`` is written as one string and a canonical one -- or a
canonical ``MigrateCommand`` -- is read in one pass; ElementTree builds
no tree for any message on the way out and parses nothing on the way in
for either.
"""

import xml.etree.ElementTree as ET

import pytest

from repro.protocol import MigrateCommand, StatusUpdate, decode, encode
from repro.protocol.messages import _decode_xml
from repro.rules import SystemState

from ..callcount import count_calls
from .wire_cases import CASES, HEARTBEAT, MALLEABLE, RIGID

pytestmark = pytest.mark.costguard

#: The ledger's ``live_ingest`` heartbeat: ten metrics, no process.
BEAT = (StatusUpdate(host="h000", state=SystemState.FREE,
                     metrics=HEARTBEAT), "127.0.0.1:40000", 1.5e9)
#: ... and ``live_decide``'s report: the same with a process list.
REPORT = (StatusUpdate(host="h001", state=SystemState.OVERLOADED,
                       metrics=HEARTBEAT, processes=[RIGID, MALLEABLE]),
          "127.0.0.1:40001", 1.5e9)
#: ... and the registry's answer to it.
COMMAND = (MigrateCommand(host="127.0.0.1:40001", pid=7,
                          dest="127.0.0.1:40100",
                          reason="127.0.0.1:40001 overloaded",
                          decision_seconds=0.000123456),
           "127.0.0.1:39999", 1.5e9)


def _counts(case):
    """Calls to encode ``case`` and to decode its bytes."""
    data = encode(*case)
    return count_calls(lambda: encode(*case)), count_calls(
        lambda: decode(data))


def test_call_count_of_a_heartbeat_through_the_codec():
    """452 calls to encode and 33 to decode through ElementTree; 52 and
    11 with a ``_tag`` per metric and a second pattern over them."""
    encoded, decoded = _counts(BEAT)
    assert encoded <= 28
    assert decoded <= 10


def test_call_count_of_a_report_through_the_codec():
    """121 and 41 with a ``_tag`` per metric and per process."""
    encoded, decoded = _counts(REPORT)
    assert encoded <= 66
    assert decoded <= 47


def test_call_count_of_a_command_decode():
    """21 through ElementTree."""
    assert _counts(COMMAND)[1] <= 8


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


@pytest.mark.parametrize("case", [BEAT, REPORT, COMMAND],
                         ids=["beat", "report", "command"])
def test_a_canonical_heartbeat_is_decoded_without_a_parser(
        case, monkeypatch):
    data = encode(*case)
    parsed = _decode_xml(data)
    monkeypatch.setattr(ET, "fromstring", _refuse)
    msg, sender, ts = decode(data)
    assert (sender, ts) == case[1:]
    assert (msg, sender, ts) == parsed
    assert msg.host == case[0].host
    if isinstance(msg, MigrateCommand):
        assert msg == case[0]
    else:
        assert (msg.state, msg.metrics) == (case[0].state, HEARTBEAT)
        assert [p["pid"] for p in msg.processes] == [
            p["pid"] for p in case[0].processes]
