"""Property-based tests: state capture, schemas, protocol round trips."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.hpcm import capture, chunk, restore
from repro.protocol import StatusUpdate, decode, encode
from repro.rules import SystemState
from repro.schema import ApplicationSchema, Characteristics

# Picklable nested values resembling real application state.
_scalars = st.one_of(
    st.integers(min_value=-2**31, max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),
    st.booleans(),
    st.none(),
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=10), children, max_size=5),
        st.tuples(children, children),
    ),
    max_leaves=20,
)


@given(_values)
@settings(max_examples=80, deadline=None)
def test_capture_restore_identity(state):
    assert restore(capture(state)) == state


@given(hnp.arrays(dtype=np.float64, shape=st.integers(0, 2000)))
@settings(max_examples=40, deadline=None)
def test_capture_restore_arrays(arr):
    back = restore(capture({"grid": arr}))
    assert np.array_equal(back["grid"], arr, equal_nan=True)


@given(st.binary(max_size=5000), st.integers(min_value=1, max_value=64))
@settings(max_examples=80, deadline=None)
def test_chunk_join_roundtrip(blob, n):
    pieces = chunk(blob, n)
    assert len(pieces) <= max(n, 1) or blob == b""
    assert b"".join(pieces) == blob


@given(
    st.text(
        alphabet=st.characters(min_codepoint=32, max_codepoint=126),
        min_size=1, max_size=30,
    ),
    st.sampled_from(list(Characteristics)),
    st.integers(min_value=0, max_value=2**40),
    st.floats(min_value=0, max_value=1e6, allow_nan=False),
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=0, max_value=1),
)
@settings(max_examples=60, deadline=None)
def test_schema_xml_roundtrip(name, char, comm, exec_time, speed,
                              locality):
    schema = ApplicationSchema(
        name=name,
        characteristics=char,
        est_comm_bytes=comm,
        est_exec_time=exec_time,
        reference_speed=speed,
        data_locality=locality,
    )
    assert ApplicationSchema.from_xml(schema.to_xml()) == schema


_metric_names = st.sampled_from(
    ["loadavg1", "loadavg5", "proc_count", "comm_mbs", "cpu_util"]
)


@given(
    st.sampled_from(["ws1", "node-7", "host.domain"]),
    st.sampled_from([SystemState.FREE, SystemState.BUSY,
                     SystemState.OVERLOADED]),
    st.dictionaries(_metric_names,
                    st.floats(min_value=0, max_value=1e6,
                              allow_nan=False),
                    max_size=5),
    st.lists(
        st.tuples(st.integers(1, 65535),
                  st.floats(min_value=0, max_value=1e6),
                  st.floats(min_value=0, max_value=1e7)),
        max_size=4,
    ),
)
@settings(max_examples=60, deadline=None)
def test_status_update_wire_roundtrip(host, state, metrics, procs):
    msg = StatusUpdate(
        host=host,
        state=state,
        metrics=metrics,
        processes=[
            {"pid": pid, "name": f"p{pid}", "start_time": start,
             "est_completion": eta, "data_locality": 0.0}
            for pid, start, eta in procs
        ],
    )
    back, sender, ts = decode(encode(msg, sender="m@x", timestamp=1.0))
    assert back.host == host
    assert back.state is state
    assert back.metrics == pytest.approx(metrics)
    assert [p["pid"] for p in back.processes] == [
        p for p, _, _ in procs
    ]


@given(st.floats(min_value=0, max_value=1e4),
       st.floats(min_value=0.01, max_value=64.0),
       st.integers(min_value=0, max_value=20))
@settings(max_examples=60, deadline=None)
def test_schema_feedback_monotone(actual, speed, runs):
    """Feedback keeps estimates finite, non-negative, and between the
    old estimate and the new observation."""
    schema = ApplicationSchema(name="x", est_exec_time=100.0,
                               run_count=runs)
    updated = schema.updated_from_run(actual, cpu_speed=speed)
    normalized = actual * speed
    lo, hi = sorted((schema.est_exec_time, normalized))
    if runs == 0:
        assert updated.est_exec_time == pytest.approx(normalized)
    else:
        assert lo - 1e-9 <= updated.est_exec_time <= hi + 1e-9
    assert updated.run_count == runs + 1
