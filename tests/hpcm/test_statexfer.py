"""State capture / chunk / restore."""

import numpy as np
import pytest

from repro.hpcm import StateCaptureError, capture, chunk, restore
from repro.hpcm.statexfer import intact


def test_capture_restore_roundtrip():
    state = {"a": np.arange(100), "b": "text", "c": [1, 2, 3]}
    blob = capture(state)
    back = restore(blob)
    assert back["b"] == "text"
    assert np.array_equal(back["a"], state["a"])


def test_capture_size_scales_with_state():
    small = capture(np.zeros(10))
    big = capture(np.zeros(100_000))
    assert len(big) > len(small) * 100


def test_unpicklable_state_raises():
    with pytest.raises(StateCaptureError):
        capture(lambda x: x)  # lambdas don't pickle


def test_restore_garbage_raises():
    with pytest.raises(StateCaptureError):
        restore(b"not a pickle")


def test_chunk_join_roundtrip():
    blob = bytes(range(256)) * 100
    for n in (1, 2, 7, 8, 100):
        assert b"".join(chunk(blob, n)) == blob


def test_chunk_count_bounded():
    blob = b"x" * 1000
    pieces = chunk(blob, 8)
    assert len(pieces) <= 8
    assert all(pieces)


def test_chunk_empty_blob():
    assert chunk(b"", 8) == [b""]
    assert b"".join(chunk(b"", 8)) == b""


def test_chunk_invalid_count():
    with pytest.raises(ValueError):
        chunk(b"abc", 0)


def test_chunks_are_views_of_the_pickle():
    blob = capture(list(range(1000)))
    for piece in chunk(blob, 8):
        assert isinstance(piece, memoryview)
        assert piece.obj is blob


@pytest.mark.parametrize("n", [1, 3, 8])
@pytest.mark.parametrize("length", [1, 7, 24, 1000, 1001])
def test_chunks_cover_the_pickle_exactly(n, length):
    """Back to back, in order, with no gap or overlap — also for
    lengths ``n`` does not divide."""
    blob = (bytes(range(256)) * 4)[:length]
    offset = 0
    pieces = chunk(blob, n)
    assert len(pieces) <= n
    for piece in pieces:
        assert piece.tobytes() == blob[offset:offset + len(piece)]
        offset += len(piece)
    assert offset == len(blob)


def test_intact_accepts_the_stream_as_sent():
    blob = bytes(range(256)) * 10
    assert intact(chunk(blob, 7), blob)
    assert intact(chunk(b"", 8), b"")
    assert intact([bytes(p) for p in chunk(blob, 3)], blob)


def test_intact_rejects_a_broken_stream():
    blob = bytes(range(256)) * 10
    pieces = [bytes(p) for p in chunk(blob, 7)]
    reordered = [pieces[1], pieces[0]] + pieces[2:]
    truncated = pieces[:-1]
    extended = pieces + [b"x"]
    altered = list(pieces)
    altered[3] = bytes([altered[3][0] ^ 1]) + altered[3][1:]
    for broken in (reordered, truncated, extended, altered):
        assert not intact(broken, blob)
