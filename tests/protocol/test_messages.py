"""XML protocol: encode/decode round trips and error handling."""

import pytest

from repro.protocol import (
    Ack,
    CandidateReply,
    CandidateRequest,
    MigrateCommand,
    ProtocolError,
    Register,
    StatusUpdate,
    Unregister,
    decode,
    encode,
)
from repro.rules import SystemState


def roundtrip(msg):
    data = encode(msg, sender="monitor@ws1", timestamp=123.5)
    assert isinstance(data, bytes)
    back, sender, ts = decode(data)
    assert sender == "monitor@ws1"
    assert ts == 123.5
    return back


def test_register_roundtrip():
    msg = Register(host="ws1", static_info={
        "hostname": "ws1", "ip": "10.0.0.1", "os": "SunOS 5.8",
        "cpu_mhz": "500",
    })
    back = roundtrip(msg)
    assert back.host == "ws1"
    assert back.static_info["os"] == "SunOS 5.8"


def test_status_update_roundtrip():
    msg = StatusUpdate(
        host="ws2",
        state=SystemState.OVERLOADED,
        metrics={"loadavg1": 2.53, "proc_count": 151.0,
                 "comm_mbs": 0.002},
        processes=[{
            "pid": 142, "name": "test_tree", "start_time": 280.0,
            "est_completion": 1260.0, "data_locality": 0.1,
        }],
    )
    back = roundtrip(msg)
    assert back.state is SystemState.OVERLOADED
    assert back.metrics["loadavg1"] == 2.53
    assert back.processes[0]["pid"] == 142
    assert back.processes[0]["est_completion"] == 1260.0


def test_status_update_empty_processes():
    back = roundtrip(StatusUpdate(host="a", state=SystemState.FREE))
    assert back.processes == []
    assert back.metrics == {}


def test_unregister_roundtrip():
    assert roundtrip(Unregister(host="ws9")).host == "ws9"


def test_candidate_request_roundtrip():
    msg = CandidateRequest(
        host="registry@c1", app_name="test_tree", req_id="r:7",
        hops=2, exclude=("ws1", "ws2"),
    )
    back = roundtrip(msg)
    assert back.req_id == "r:7"
    assert back.hops == 2
    assert back.exclude == ("ws1", "ws2")


def test_candidate_request_with_requirements():
    req_xml = "<requirements><memory>1024</memory></requirements>"
    msg = CandidateRequest(host="x", requirements_xml=req_xml)
    back = roundtrip(msg)
    assert "1024" in back.requirements_xml


def test_candidate_reply_roundtrip():
    back = roundtrip(CandidateReply(host="reg", dest="ws4", req_id="q1"))
    assert back.dest == "ws4" and back.req_id == "q1"
    back = roundtrip(CandidateReply(host="reg", dest=None, req_id="q2"))
    assert back.dest is None


def test_migrate_command_roundtrip():
    msg = MigrateCommand(host="ws1", pid=101, dest="ws4",
                         reason="ws1 overloaded", decision_seconds=0.002)
    back = roundtrip(msg)
    assert (back.pid, back.dest) == (101, "ws4")
    assert back.decision_seconds == 0.002


def test_ack_roundtrip():
    back = roundtrip(Ack(host="ws1", ok=False, detail="no such pid"))
    assert not back.ok and back.detail == "no such pid"


def test_decode_garbage_raises():
    with pytest.raises(ProtocolError):
        decode(b"not xml at all <<<")


def test_decode_wrong_root_raises():
    with pytest.raises(ProtocolError):
        decode(b"<other/>")


def test_decode_unknown_type_raises():
    with pytest.raises(ProtocolError):
        decode(b'<msg type="warp-drive" host="x" ts="0"/>')


def test_encoded_is_plain_ascii_xml():
    data = encode(StatusUpdate(host="a", state=SystemState.BUSY),
                  sender="s", timestamp=0.0)
    text = data.decode("utf-8")
    assert text.startswith("<msg")
    text.encode("ascii")  # must not raise — paper: plain ASCII format


# ------------------------------------------------ one error contract
_STATUS_FRAME = (
    '<msg type="status" sender="s" host="h" ts="{ts}">'
    '<status state="{state}"><metrics>{metrics}</metrics>'
    "<processes>{procs}</processes></status></msg>"
)


def _status_frame(ts="0.0", state="free", metrics="", procs=""):
    return _STATUS_FRAME.format(
        ts=ts, state=state, metrics=metrics, procs=procs).encode("ascii")


@pytest.mark.parametrize("data, cause", [
    (_status_frame(state="bogus"), KeyError),
    (_status_frame(procs='<p name="x" start="0" eta="1" />'), TypeError),
    (b'<msg type="migrate" sender="s" host="h" ts="0.0">'
     b'<migrate dest="d" /></msg>', TypeError),
    (_status_frame(metrics='<m name="x" />'), TypeError),
    (_status_frame(ts="zero"), ValueError),
    # ... and through the one-pass reader, which reads ts itself:
    (encode(StatusUpdate(host="h", state=SystemState.FREE), "s", 0.0)
     .replace(b'ts="0.0"', b'ts="zero"'), ValueError),
    (_status_frame()[:-9], SyntaxError),
    (_status_frame().replace(b'host="h"', b'host="\xff\xfe"'), SyntaxError),
], ids=["state", "p-without-pid", "migrate-without-pid", "m-without-text",
        "ts", "ts-canonical", "truncated", "invalid-utf8"])
def test_decode_raises_protocol_error_for_every_invalid_message(data, cause):
    """Well-formed XML carrying a value no field accepts is refused the
    same way bad XML is: the documented ``ProtocolError``, chained to
    what went wrong, never a bare ``KeyError`` / ``TypeError``."""
    with pytest.raises(ProtocolError) as caught:
        decode(data)
    assert isinstance(caught.value.__cause__, cause)
