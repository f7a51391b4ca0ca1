"""The one-server CPU against the wrapper pair it replaced.

Random interleavings of submits, cancels, comm-load changes and clock
advances drive a :class:`Cpu` and a ``ReferenceCpu`` side by side, each
on its own kernel; every job's finish time, every accounting integral,
the run queue and the kernel's dispatches must be equal, not close.
"""

from hypothesis import example, given, settings, strategies as st

from repro.cluster import Cpu
from repro.cluster.cpu import MAX_COMM_LOAD
from repro.sim import Environment

from .reference import ReferenceCpu

_loads = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 0.97, 1.0, MAX_COMM_LOAD,
                     MAX_COMM_LOAD + 2.0]),
    st.floats(min_value=0.0, max_value=2 * MAX_COMM_LOAD,
              allow_nan=False),
)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("execute"),
                  st.one_of(st.just(0.0),
                            st.floats(min_value=1e-3, max_value=20.0)),
                  st.floats(min_value=0.1, max_value=5.0)),
        st.tuples(st.just("cancel"), st.integers(0, 15)),
        st.tuples(st.just("comm"), _loads),
        st.tuples(st.just("run"), st.floats(min_value=0.0, max_value=8.0)),
        st.tuples(st.just("read")),
    ),
    max_size=40,
)
_speeds = st.floats(min_value=0.1, max_value=4.0)


def _readings(cpu):
    return (cpu.busy_time(), cpu.compute_busy_time(), cpu.load_time(),
            cpu.work_done(), cpu.run_queue)


def _kind(event):
    """The dispatched event's type, the oracle's job named as ours."""
    name = type(event).__name__
    return "ShareJob" if name == "_ReferenceJob" else name


def _drive(make, speed, ops):
    env = Environment()
    dispatches = []
    env.trace_hook = lambda now, event: dispatches.append(
        (now, _kind(event)))
    cpu = make(env, speed=speed)
    jobs, seen = [], []
    for op in ops:
        if op[0] == "execute":
            jobs.append(cpu.execute(op[1], weight=op[2]))
        elif op[0] == "cancel":
            if jobs:
                jobs[op[1] % len(jobs)].cancel()
        elif op[0] == "comm":
            cpu.set_comm_load(op[1])
        elif op[0] == "run":
            env.run(until=env.now + op[1])
        else:
            seen.append(_readings(cpu))
        seen.append(cpu.run_queue)
    env.run()
    seen.append(_readings(cpu))
    return [j.finished_at for j in jobs], seen, dispatches


@given(_speeds, _ops)
# The comm busy-time probe: comm alone for 10 s, then one job.
@example(1.0, [("comm", 0.5), ("run", 10.0), ("read",),
               ("execute", 1.0, 1.0), ("read",)])
# Three jobs at speed 0.7: ``0.7 * 3 / 3`` is not 0.7.
@example(0.7, [("execute", 3.0, 1.0), ("execute", 2.0, 1.0),
               ("execute", 1.0, 1.0), ("comm", 0.0), ("run", 1.0),
               ("read",), ("comm", 0.3), ("cancel", 1), ("comm", 20.0)])
@settings(max_examples=150, deadline=None)
def test_one_server_matches_the_wrapper_pair(speed, ops):
    assert _drive(Cpu, speed, ops) == _drive(ReferenceCpu, speed, ops)
