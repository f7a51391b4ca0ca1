"""Differential tests: the direct writer against the ElementTree
encoder it replaced, and the one-pass heartbeat and command readers
against the ElementTree decoder they sit in front of.

Neither pair may be tellable apart: ``encode`` equals
``reference.encode`` byte for byte on every message, and ``decode``
gives, for *any* bytes, what it gives with the one-pass readers switched
off -- the same value or the same refusal.
"""

import math
import re
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from repro.protocol import (
    Ack,
    CandidateReply,
    CandidateRequest,
    ExpandCommand,
    MigrateCommand,
    ProtocolError,
    Register,
    ShrinkCommand,
    StatusQuery,
    StatusUpdate,
    Unregister,
    messages,
)
from repro.rules import SystemState

from . import reference
from .wire_cases import CASES, HEARTBEAT, MALLEABLE, RIGID

# ------------------------------------------------------------ strategies
_plain = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_.:@ ", max_size=10)
#: Everything an escape table, expat's normalisation or the reader's
#: alphabet treats specially, between ordinary characters.
_hostile = st.text(
    alphabet=st.one_of(
        st.sampled_from("&<>\"'\t\r\n ;#=/\x00\x07\x7f\x85\xa0\ud800\ufffe"),
        st.characters(),
    ),
    max_size=8,
)
_text = _plain | _hostile
_floats = st.floats(allow_nan=True, allow_infinity=True) | st.integers(
    min_value=-10 ** 6, max_value=10 ** 6)
_counts = st.integers(min_value=0, max_value=2 ** 40)

_processes = st.fixed_dictionaries(
    {
        "pid": st.integers(min_value=-5, max_value=10 ** 6),
        "name": _text,
        "start_time": _floats,
        "est_completion": _floats,
    },
    optional={
        "data_locality": _floats,
        "min_memory_bytes": _counts,
        "min_disk_bytes": _counts,
        "min_cpu_speed": _floats,
        "features": _text | st.lists(_text, max_size=3).map(tuple),
        "world_size": st.integers(min_value=0, max_value=9),
        "min_world": st.integers(min_value=0, max_value=9),
        "max_world": st.integers(min_value=0, max_value=9),
        "efficiency_curve": _text | st.lists(
            st.floats(min_value=0.0, max_value=1.0), max_size=4).map(tuple),
    },
)
_status_updates = st.builds(
    StatusUpdate,
    host=_text,
    state=st.sampled_from(list(SystemState)),
    metrics=st.dictionaries(_text, _floats, max_size=5),
    processes=st.lists(_processes, max_size=3),
)
_migrate_commands = st.builds(
    MigrateCommand, host=_text, pid=st.integers(), dest=_text,
    reason=_text, decision_seconds=_floats)
#: Namespace-free: ElementTree hoists ``xmlns`` declarations to the root
#: it serialises, which is ``<msg>`` for the reference and the fragment
#: for the writer (CHANGES.md, PR 18).
_requirements = st.sampled_from([
    "", "<r/>", "<r a='1' b=\"2\">t</r>", "<r>\n <m>1</m><n/>tail</r>",
    "<r>&amp;&lt;&#10;é</r>", "<!-- c --><r><![CDATA[<&>]]></r>",
    "<r", "not xml",
]) | _hostile.map(lambda text: f"<r>{text}</r>")
_names = st.lists(_text, max_size=3).map(tuple)

_messages = st.one_of(
    _status_updates,
    st.builds(
        Register, host=_text,
        static_info=st.dictionaries(
            _text, _text | _floats | st.none(), max_size=4)),
    st.builds(Unregister, host=_text),
    st.builds(
        CandidateRequest, host=_text, app_name=_text,
        requirements_xml=_requirements, req_id=_text,
        hops=st.integers(min_value=-1, max_value=99), exclude=_names),
    st.builds(CandidateReply, host=_text, dest=st.none() | _text,
              req_id=_text),
    _migrate_commands,
    st.builds(ExpandCommand, host=_text, pid=st.integers(), dests=_names,
              reason=_text, decision_seconds=_floats),
    st.builds(ShrinkCommand, host=_text, pid=st.integers(), dest=_text,
              reason=_text, decision_seconds=_floats),
    st.builds(StatusQuery, host=_text),
    st.builds(Ack, host=_text, ok=st.booleans(), detail=_text),
)


def outcome(fn, *args, refusals=(ProtocolError,)):
    """What a caller can observe of ``fn(*args)``: ``repr`` of the value
    (so a nan metric equals itself) or the class of the refusal."""
    try:
        return repr(fn(*args))
    except refusals as exc:
        return type(exc)


#: ``encode`` refuses a requirements fragment that is not XML
#: (``ParseError``, or ``UnicodeEncodeError`` for a lone surrogate) and
#: a value that is not a string.
_ENCODE_REFUSALS = (SyntaxError, ValueError, TypeError)


# ------------------------------------------------------------- (a) encode
@given(_messages, _text, _floats)
@settings(max_examples=400, deadline=None)
@example(Ack(host="\ud800"), "s", 0.0)  # lone surrogate: &#55296;
@example(CandidateRequest(host="h", requirements_xml="<r"), "s", 0.0)
def test_writer_is_the_elementtree_encoder_byte_for_byte(msg, sender, ts):
    expected = outcome(reference.encode, msg, sender, ts,
                       refusals=_ENCODE_REFUSALS)
    assert outcome(messages.encode, msg, sender, ts,
                   refusals=_ENCODE_REFUSALS) == expected
    assert not isinstance(expected, type) or msg.TYPE == "candidate-request"


def test_the_metric_name_cache_is_bounded_and_changes_no_byte():
    """Metric names can arrive from the network: the writer's cache of
    ``<m name="…">`` heads stays bounded, and a name written before or
    after the cache empties itself is written the same."""
    for start in range(0, 3000, 500):
        msg = StatusUpdate(host="h", state=SystemState.FREE, metrics={
            f"m{i % 1100}&<": float(i) for i in range(start, start + 500)})
        assert messages.encode(msg, "s", 1.0) == reference.encode(
            msg, "s", 1.0)
        assert len(messages._M_HEADS) <= messages._M_HEADS_MAX


def test_writer_refuses_a_non_string_value_like_elementtree():
    msg = MigrateCommand(host="ws1", pid=1, dest=None)
    for encode in (messages.encode, reference.encode):
        assert outcome(encode, msg, "s", 0.0,
                       refusals=_ENCODE_REFUSALS) is TypeError


# ------------------------------------------------------------- (b) decode
_NEVER = re.compile("(?!)")


def generic_decode(data):
    """``decode`` with the one-pass readers switched off."""
    with mock.patch.object(messages, "_STATUS", _NEVER), \
            mock.patch.object(messages, "_MIGRATE", _NEVER):
        return messages.decode(data)


def assert_readers_agree(data):
    assert outcome(messages.decode, data) == outcome(generic_decode, data)


_ATTRIBUTE = re.compile(rb' [A-Za-z]+="[^"]*"')
_METRIC = re.compile(rb'<m name="[^"]*">[^<]*</m>')


def _swap_attributes(data, i, _):
    attrs = list(_ATTRIBUTE.finditer(data))
    pairs = [(a, b) for a, b in zip(attrs, attrs[1:])
             if a.end() == b.start()]
    if not pairs:
        return data
    a, b = pairs[i % len(pairs)]
    return data[:a.start()] + b.group() + a.group() + data[b.end():]


def _duplicate_attribute(data, i, _):
    attrs = list(_ATTRIBUTE.finditer(data))
    if not attrs:
        return data
    a = attrs[i % len(attrs)]
    return data[:a.end()] + a.group() + data[a.end():]


def _duplicate_metric(data, i, _):
    found = list(_METRIC.finditer(data))
    if not found:
        return data
    m = found[i % len(found)]
    again = re.sub(rb">[^<]*<", b">1.5<", m.group(), count=1)
    return data[:m.end()] + again + data[m.end():]


def _insert(*inserts):
    def mutate(data, i, j):
        # After a quote or a '>': the start or end of a value or text.
        places = [k + 1 for k, byte in enumerate(data) if byte in b'">']
        at = places[i % len(places)]
        return data[:at] + inserts[j % len(inserts)] + data[at:]
    return mutate


def _between_tags(data, i, j):
    gaps = [m.start() + 1 for m in re.finditer(b"><", data)]
    at = gaps[i % len(gaps)]
    return data[:at] + (b" ", b"\n", b"\t ", b"<!-- -->")[j % 4] + data[at:]


def _append(data, _, j):
    return data + (b" ", b"\n", b"x", b"<!-- -->", b"<msg />", b"\x00")[j % 6]


def _truncate(data, i, _):
    return data[:i % len(data)]


_FLIPS = b'\x00\t\n"<&\xff >\'='


def _flip(data, i, j):
    at = i % len(data)
    return data[:at] + _FLIPS[j % 11:j % 11 + 1] + data[at + 1:]


MUTATIONS = [
    lambda data, i, j: data,
    _swap_attributes,
    _duplicate_attribute,
    _duplicate_metric,
    _insert(b"&amp;", b"&#10;", b"&#x41;", b"&lt;", b"&bogus;", b" ", b"\t"),
    _between_tags,
    _append,
    _truncate,
    _flip,
]
_indexes = st.integers(min_value=0, max_value=10 ** 6)


@given(_status_updates | _migrate_commands | _messages, _text, _floats,
       st.sampled_from(MUTATIONS), _indexes, _indexes)
@settings(max_examples=600, deadline=None)
def test_one_pass_reader_and_elementtree_agree_on_any_bytes(
        msg, sender, ts, mutate, i, j):
    try:
        data = messages.encode(msg, sender, ts)
    except (SyntaxError, ValueError):  # a fragment that is not XML
        return
    assert_readers_agree(mutate(data, i, j))


_CANONICAL = [
    messages.encode(msg, sender, ts) for msg, sender, ts in CASES
    if msg.TYPE in ("status", "migrate")
] + [
    messages.encode(
        StatusUpdate(host="ws1", state=SystemState.OVERLOADED,
                     metrics=HEARTBEAT, processes=[RIGID, MALLEABLE]),
        "monitor@ws1", 12.5),
    messages.encode(
        MigrateCommand(host="127.0.0.1:40001", pid=7, dest="127.0.0.1:40100",
                       reason="127.0.0.1:40001 overloaded",
                       decision_seconds=0.000123456),
        "127.0.0.1:39999", 1760000000.123456),
]


def _read_in_one_pass(pattern):
    return sum(pattern.fullmatch(data.decode("latin-1")) is not None
               for data in _CANONICAL)


def test_every_single_byte_damage_to_a_heartbeat_reads_the_same():
    """Exhaustive where hypothesis samples: each canonical report and
    command truncated at every offset, and with every byte replaced by
    each character the two readers could disagree about."""
    assert _read_in_one_pass(messages._STATUS) >= 7
    assert _read_in_one_pass(messages._MIGRATE) >= 2
    for data in _CANONICAL:
        assert_readers_agree(data)
        for at in range(len(data)):
            assert_readers_agree(data[:at])
            for byte in b'\x00\t\n\r "<>&\'=/\x7f\xff':
                assert_readers_agree(
                    data[:at] + bytes([byte]) + data[at + 1:])


def test_every_structural_mutation_of_a_heartbeat_reads_the_same():
    for data in _CANONICAL:
        for mutate in MUTATIONS:
            for i in range(40):
                for j in range(11):
                    assert_readers_agree(mutate(data, i, j))


def test_values_the_reader_must_not_normalise_differently():
    """Spellings ``float`` / ``int`` accept that a narrower grammar
    might not, and one expat changes: each reads the same both ways."""
    frame = ('<msg type="status" sender="s" host="h" ts="{ts}">'
             '<status state="{state}"><metrics><m name="x">{v}</m></metrics>'
             '<processes><p pid="{pid}" name="n" start="0" eta="1"'
             ' locality="0" minMem="0" minDisk="0" minCpu="0" features=""'
             '{extra} /></processes></status></msg>')
    fields = {"ts": "0.0", "state": "free", "v": "1.0", "pid": "1",
              "extra": ""}
    for field, values in {
        "ts": ["", " 1 ", "1_0", "nan", "-inf", "1e400", "0x10", "١"],
        "v": [" 2.5 ", "1_000.5", "NaN", "infinity", "1,5", " "],
        "pid": ["", " 7 ", "+7", "1_0", "7.0", "0x7"],
        "state": ["FREE", "Free", "unavailable", "free ", ""],
        "extra": [' world=""', ' world="2"', ' wmax="3" wmin="2"',
                  ' eff=""', ' eff="1.0,0.5"', ' world="1" world="2"',
                  ' bogus="1"'],
    }.items():
        for value in values:
            data = frame.format(**dict(fields, **{field: value}))
            assert_readers_agree(data.encode("utf-8"))
    decoded, _, ts = messages.decode(
        frame.format(**dict(fields, ts=" 1_0 ", v="nan")).encode())
    assert ts == 10.0 and math.isnan(decoded.metrics["x"])


def test_command_values_the_reader_must_not_normalise_differently():
    frame = ('<msg type="migrate" sender="s" host="h" ts="{ts}">'
             '<migrate pid="{pid}" dest="{dest}" reason="{reason}"'
             ' decision="{decision}" /></msg>')
    fields = {"ts": "0.0", "pid": "1", "dest": "d", "reason": "",
              "decision": "0.5"}
    for field, values in {
        "ts": ["", " 1 ", "1_0", "nan", "-inf", "1e400", "0x10"],
        "pid": ["", " 7 ", "+7", "-7", "1_0", "7.0", "0x7", "99" * 20],
        "dest": ["", " ", "a b", "ws1=", "x'y", "\\"],
        "reason": ["", "  ", "a/b", "ws1 overloaded"],
        "decision": ["", " 2.5 ", "1_000.5", "NaN", "infinity", "1,5"],
    }.items():
        for value in values:
            data = frame.format(**dict(fields, **{field: value}))
            assert_readers_agree(data.encode("utf-8"))
    for spelling in ('<migrate dest="d" pid="1" reason="" decision="0" />',
                     '<migrate pid="1" dest="d" reason="" />',
                     '<migrate pid="1" dest="d" reason="" decision="0">'
                     '</migrate>'):
        assert_readers_agree(
            f'<msg type="migrate" sender="s" host="h" ts="1">{spelling}'
            "</msg>".encode())
