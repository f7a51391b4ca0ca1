"""The counted progressive filling against the set-building one it
replaced: the same floats, compared with ``==``."""

import math

from hypothesis import example, given, settings, strategies as st

from repro.cluster import Network
from repro.sim import Environment

from .reference import reference_maxmin

_capacity = st.one_of(
    st.floats(min_value=1.0, max_value=1e8),
    st.sampled_from([100.0, 12.5e6]),
)
_cap = st.one_of(
    st.just(math.inf),
    st.floats(min_value=1e-3, max_value=2e8),
    st.sampled_from([50.0, 100.0, 7.25e6]),
)
_hosts = st.lists(_capacity, min_size=2, max_size=5)
#: (src index, dst index, rate cap of a stream, finite transfer instead?,
#: close the stream afterwards?)
_flows = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4), _cap,
              st.booleans(), st.booleans()),
    max_size=8,
)


def _expected(net, ports):
    return reference_maxmin(
        [(f.src, f.dst, f.rate_cap) for f in net.active_flows()],
        ports, net.default_bandwidth,
    )


@given(_hosts, _flows)
@example([100.0, 100.0], [(0, 1, math.inf, True, False)])
@example([100.0, 40.0, 100.0],
         [(0, 1, math.inf, False, True), (0, 2, 30.0, True, False),
          (2, 1, math.inf, True, False)])
@settings(max_examples=300, deadline=None)
def test_counted_filling_equals_reference(capacities, specs):
    env = Environment()
    net = Network(env, default_bandwidth=capacities[0], latency=0.0)
    ports = {}
    for i, capacity in enumerate(capacities):
        net.add_host(f"h{i}", bandwidth=capacity)
        ports[f"h{i}"] = (capacity, capacity)
    assert _expected(net, ports) == []
    streams = []
    for s, d, cap, finite, close in specs:
        src, dst = f"h{s % len(capacities)}", f"h{d % len(capacities)}"
        if src == dst:
            continue
        if finite:
            # The latency is 0 and FIFO order pops the latency tick
            # before the stop event: the run opens the flow (sizes are
            # far too large to finish at t=0).
            net.transfer(src, dst, 1e12)
            env.run(until=env.timeout(0))
        else:
            flow = net.open_stream(src, dst, rate_cap=cap)
            if close:
                streams.append(flow)
        assert [f.rate for f in net.active_flows()] == _expected(net, ports)
    # Departures run the same routine over what is left, on NIC
    # scratch state the previous filling has to have put back.
    for flow in streams:
        net.close_stream(flow)
        assert [f.rate for f in net.active_flows()] == _expected(net, ports)
    assert env.now == 0.0
