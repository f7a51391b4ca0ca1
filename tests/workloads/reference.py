"""Reference implementations the workloads are held to.

``inside_count`` is the batch count ``MonteCarloPiApp.run_step`` used
until PR 20 — square a copy of the ``(n, 2)`` draw, reduce the length-2
axis, sum the boolean array, round-trip through ``int`` — kept formula
for formula so the in-place count that replaced it can be required to
return the same integer, not merely a close estimate of π.
"""


def inside_count(pts) -> int:
    """Points of the ``(n, 2)`` array ``pts`` inside the unit circle."""
    return int(((pts ** 2).sum(axis=1) <= 1.0).sum())


def reference_step(state) -> None:
    """One batch of the old ``run_step`` on ``state``, compute elided:
    the same draw from ``state.rng``, the reference count."""
    pts = state.rng.random((state.batch_size, 2))
    state.inside += inside_count(pts)
    state.total += state.batch_size
    state.batches_done += 1
