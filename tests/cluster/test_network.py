"""Network model: transfers, fair sharing, streams, CPU coupling."""


import numpy as np
import pytest

from repro.sim import Environment
from repro.cluster import Cluster, Cpu, HostDownError, Network
from repro.mpi import MpiRuntime

from ..mpi.world import launch


def make_net(env, hosts=("a", "b", "c"), bandwidth=100.0, latency=0.0,
             cpu_per_byte=0.0):
    net = Network(env, default_bandwidth=bandwidth, latency=latency,
                  cpu_per_byte=cpu_per_byte)
    cpus = {}
    for h in hosts:
        cpus[h] = Cpu(env, speed=1.0, name=h)
        net.add_host(h, cpu=cpus[h])
    return net, cpus


def test_single_transfer_time():
    env = Environment()
    net, _ = make_net(env, bandwidth=100.0)
    done = net.transfer("a", "b", 1000.0)
    env.run(until=done)
    assert env.now == pytest.approx(10.0)


def test_latency_added():
    env = Environment()
    net, _ = make_net(env, bandwidth=100.0, latency=2.0)
    done = net.transfer("a", "b", 100.0)
    env.run(until=done)
    assert env.now == pytest.approx(3.0)


def test_zero_byte_transfer_is_latency_only():
    env = Environment()
    net, _ = make_net(env, latency=0.5)
    done = net.transfer("a", "b", 0)
    env.run(until=done)
    assert env.now == pytest.approx(0.5)


def test_two_transfers_share_tx_nic():
    env = Environment()
    net, _ = make_net(env, bandwidth=100.0)
    d1 = net.transfer("a", "b", 1000.0)
    d2 = net.transfer("a", "c", 1000.0)
    env.run()
    # Both leave a's tx NIC: each gets 50 B/s → 20 s.
    assert d1.value == pytest.approx(1000.0)
    assert env.now == pytest.approx(20.0)


def test_two_transfers_share_rx_nic():
    env = Environment()
    net, _ = make_net(env, bandwidth=100.0)
    net.transfer("a", "c", 1000.0)
    net.transfer("b", "c", 1000.0)
    env.run()
    assert env.now == pytest.approx(20.0)


def test_disjoint_transfers_full_rate():
    env = Environment()
    net, _ = make_net(env, hosts=("a", "b", "c", "d"), bandwidth=100.0)
    net.transfer("a", "b", 1000.0)
    net.transfer("c", "d", 1000.0)
    env.run()
    assert env.now == pytest.approx(10.0)


def test_full_duplex_no_contention():
    env = Environment()
    net, _ = make_net(env, bandwidth=100.0)
    net.transfer("a", "b", 1000.0)
    net.transfer("b", "a", 1000.0)
    env.run()
    # Opposite directions: no shared NIC half.
    assert env.now == pytest.approx(10.0)


def test_departure_frees_bandwidth():
    env = Environment()
    net, _ = make_net(env, bandwidth=100.0)
    short = net.transfer("a", "b", 200.0)
    long = net.transfer("a", "c", 1000.0)
    env.run()
    # Shared until short ends at t=4 (200 at 50 B/s); long then has 800
    # left at 100 B/s → finishes at 4 + 8 = 12.
    assert env.now == pytest.approx(12.0)


def test_byte_counters():
    env = Environment()
    net, _ = make_net(env, bandwidth=100.0)
    net.transfer("a", "b", 500.0)
    env.run()
    assert net.bytes_sent("a") == pytest.approx(500.0)
    assert net.bytes_received("b") == pytest.approx(500.0)
    assert net.bytes_sent("b") == pytest.approx(0.0)


def test_stream_with_rate_cap():
    env = Environment()
    net, _ = make_net(env, bandwidth=100.0)
    flow = net.open_stream("a", "b", rate_cap=30.0)
    env.run(until=10)
    assert flow.rate == pytest.approx(30.0)
    assert net.bytes_sent("a") == pytest.approx(300.0)
    net.close_stream(flow)
    assert flow.closed


def test_capped_stream_leaves_bandwidth_for_transfer():
    env = Environment()
    net, _ = make_net(env, bandwidth=100.0)
    net.open_stream("a", "b", rate_cap=40.0)
    done = net.transfer("a", "c", 600.0)
    env.run(until=done)
    # Transfer gets the remaining 60 B/s on a's tx.
    assert env.now == pytest.approx(10.0)


def test_uncapped_stream_fair_shares_with_transfer():
    env = Environment()
    net, _ = make_net(env, bandwidth=100.0)
    stream = net.open_stream("a", "b")
    done = net.transfer("a", "c", 500.0)
    env.run(until=done)
    assert env.now == pytest.approx(10.0)  # each 50 B/s
    net.close_stream(stream)
    env.run()
    assert stream.bytes_moved > 0


def test_cpu_coupling_sets_comm_load():
    env = Environment()
    net, cpus = make_net(env, bandwidth=100.0, cpu_per_byte=0.005)
    net.open_stream("a", "b", rate_cap=50.0)
    env.run(until=1)
    # 50 B/s * 0.005 = 0.25 CPU fraction on both endpoints.
    assert cpus["a"].run_queue == pytest.approx(0.25)
    assert cpus["b"].run_queue == pytest.approx(0.25)
    assert cpus["c"].run_queue == 0.0


def test_cpu_coupling_cleared_when_flow_ends():
    env = Environment()
    net, cpus = make_net(env, bandwidth=100.0, cpu_per_byte=0.005)
    net.transfer("a", "b", 100.0)
    env.run()
    assert cpus["a"].run_queue == 0.0
    assert cpus["b"].run_queue == 0.0


def test_transfer_to_unknown_host_raises():
    env = Environment()
    net, _ = make_net(env)
    with pytest.raises(KeyError):
        net.transfer("a", "nope", 10.0)


def test_transfer_to_down_host_fails():
    env = Environment()
    net, _ = make_net(env)
    net.set_host_up("b", False)
    done = net.transfer("a", "b", 100.0)
    failed = {}

    def waiter(env):
        try:
            yield done
        except HostDownError as exc:
            failed["exc"] = exc

    env.process(waiter(env))
    env.run()
    assert "exc" in failed


def _await_failure(env, net, done):
    """Run to the end with one waiter on ``done``; the run must not
    re-raise (no failed event left undefused) and no flow may remain.
    Returns ``(exception, time)`` of the failure the waiter caught."""
    caught = []

    def waiter(env):
        try:
            yield done
        except HostDownError as exc:
            caught.append((exc, env.now))

    env.process(waiter(env))
    env.run()
    assert net.active_flows() == []
    assert len(caught) == 1, "transfer did not fail with HostDownError"
    return caught[0]


def test_zero_byte_transfer_to_down_host_fails():
    """A control signal sees the same up-check as a sized transfer."""
    env = Environment()
    net, _ = make_net(env, latency=0.5)
    net.set_host_up("b", False)
    exc, when = _await_failure(env, net, net.transfer("a", "b", 0))
    assert exc.args == ("b",)
    assert when == pytest.approx(0.5)


@pytest.mark.parametrize("nbytes", [0, 100.0])
def test_host_going_down_during_latency_fails_transfer(nbytes):
    env = Environment()
    net, _ = make_net(env, latency=2.0)
    done = net.transfer("a", "b", nbytes)

    def killer(env):
        yield env.timeout(1)
        net.set_host_up("a", False)

    env.process(killer(env))
    exc, when = _await_failure(env, net, done)
    assert exc.args == ("a",)
    assert when == pytest.approx(2.0)  # noticed when the latency ends


def test_host_going_down_mid_flow_fails_transfer():
    env = Environment()
    net, cpus = make_net(env, bandwidth=100.0, latency=1.0,
                         cpu_per_byte=0.005)
    done = net.transfer("a", "b", 10000.0)
    other = net.transfer("a", "c", 400.0)

    def killer(env):
        yield env.timeout(5)
        net.set_host_up("b", False)

    env.process(killer(env))
    exc, when = _await_failure(env, net, done)
    assert exc.args == ("b",)
    assert when == pytest.approx(5.0)
    # The bystander shared a's NIC for 4 s, then had it alone.
    assert other.value == 400.0
    assert cpus["a"].run_queue == cpus["b"].run_queue == 0.0


def test_host_down_kills_active_flows():
    env = Environment()
    net, _ = make_net(env, bandwidth=100.0)
    done = net.transfer("a", "b", 10000.0)
    failed = {}

    def waiter(env):
        try:
            yield done
        except HostDownError:
            failed["t"] = env.now

    def killer(env):
        yield env.timeout(5)
        net.set_host_up("b", False)

    env.process(waiter(env))
    env.process(killer(env))
    env.run()
    assert failed["t"] == pytest.approx(5.0)


def test_host_recovery_allows_new_transfers():
    env = Environment()
    net, _ = make_net(env, bandwidth=100.0)
    net.set_host_up("b", False)
    net.set_host_up("b", True)
    done = net.transfer("a", "b", 100.0)
    env.run(until=done)
    assert env.now == pytest.approx(1.0)


def test_flow_validation():
    env = Environment()
    net, _ = make_net(env)
    with pytest.raises(ValueError):
        net.open_stream("a", "a")
    with pytest.raises(ValueError):
        net.transfer("a", "a", 10.0)
    with pytest.raises(ValueError):
        net.open_stream("a", "b", rate_cap=0)


def test_many_flows_work_conservation():
    env = Environment()
    net, _ = make_net(env, hosts=("a", "b", "c", "d"), bandwidth=100.0)
    total = 0.0
    for dst in ("b", "c", "d"):
        for _ in range(3):
            net.transfer("a", dst, 300.0)
            total += 300.0
    env.run()
    # a's tx NIC is the bottleneck at 100 B/s for 2700 bytes → 27 s.
    assert env.now == pytest.approx(total / 100.0)
    assert net.bytes_sent("a") == pytest.approx(total)


# -- a transfer's event is its flow's own, and its caller's ---------------
def test_transfer_returns_the_flows_done_event():
    env = Environment()
    net, _ = make_net(env, bandwidth=100.0, latency=1.0)
    done = net.transfer("a", "b", 100.0)
    env.run(until=1.5)
    (flow,) = net.active_flows()
    assert flow.done is done
    env.run(until=done)
    assert done.value == 100.0
    assert env.now == pytest.approx(2.0)


@pytest.mark.parametrize("nbytes", [0, 100.0])
def test_unwaited_transfer_to_a_down_host_raises_out_of_run(nbytes):
    env = Environment()
    net, _ = make_net(env, latency=0.5)
    net.set_host_up("b", False)
    net.transfer("a", "b", nbytes)
    with pytest.raises(HostDownError) as info:
        env.run()
    assert info.value.args == ("b",)
    assert env.now == pytest.approx(0.5)


def test_unwaited_transfer_killed_mid_flow_raises_out_of_run():
    """Taking a host down must not defuse the event it handed a
    caller: nobody handled the failure, so the run reports it."""
    env = Environment()
    net, _ = make_net(env, bandwidth=100.0)
    net.transfer("a", "b", 10000.0)

    def killer(env):
        yield env.timeout(5)
        net.set_host_up("b", False)

    env.process(killer(env))
    with pytest.raises(HostDownError) as info:
        env.run()
    assert info.value.args == ("b",)
    assert env.now == pytest.approx(5.0)
    assert net.active_flows() == []


def test_a_stream_killed_by_a_host_going_down_raises_nothing():
    env = Environment()
    net, _ = make_net(env, bandwidth=100.0)
    flow = net.open_stream("a", "b")

    def killer(env):
        yield env.timeout(5)
        net.set_host_up("a", False)

    env.process(killer(env))
    env.run()
    assert not flow.done.ok
    assert flow.done.value.args == ("a",)
    assert flow.closed and net.active_flows() == []


def test_mpi_send_fails_when_its_destination_crashes_mid_transfer():
    """An 8 MB message needs 0.64 s on the 100 Mbps link; the receiver's
    host crashes at 0.1 s, and the failure reaches the sending rank."""
    cluster = Cluster(n_hosts=2, cpu_per_byte=0.0)
    mpi = MpiRuntime(cluster)
    caught = []

    def entry(ctx):
        if ctx.rank == 1:
            yield from ctx.comm.recv(source=0)
            return
        try:
            yield from ctx.comm.send(np.zeros(1_000_000), dest=1)
        except HostDownError as exc:
            caught.append((exc.args, ctx.env.now))

    _, ranks = launch(mpi, entry, cluster.host_list())

    def crash(env):
        yield env.timeout(0.1)
        cluster["ws2"].crash()

    cluster.env.process(crash(cluster.env))
    cluster.env.run(until=ranks[0])
    assert caught == [(("ws2",), pytest.approx(0.1))]
    assert cluster.network.active_flows() == []
