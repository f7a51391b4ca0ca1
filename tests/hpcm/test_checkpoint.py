"""Checkpoint/restart: crash-survival via the poll-point contract."""

import json
import struct

import pytest

from repro.cluster import Cluster
from repro.hpcm import (
    CheckpointError,
    CheckpointingApp,
    launch,
    read_checkpoint,
    write_checkpoint,
)
from repro.mpi import MpiRuntime
from repro.workloads import TestTreeApp

PARAMS = {"levels": 8, "trees": 9, "node_cost": 1e-4, "seed": 6}


def test_write_read_roundtrip(tmp_path):
    path = str(tmp_path / "state.ckpt")
    state = {"arr": list(range(100)), "phase": "sort"}
    meta = write_checkpoint(path, "myapp", state, step_count=7,
                            sim_time=123.5)
    back_meta, back_state = read_checkpoint(path)
    assert back_state == state
    assert back_meta == meta
    assert back_meta.app_name == "myapp"
    assert back_meta.step_count == 7


def test_read_missing_file(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        read_checkpoint(str(tmp_path / "nope.ckpt"))


def test_read_garbage_file(tmp_path):
    path = tmp_path / "garbage.ckpt"
    path.write_bytes(b"definitely not a checkpoint")
    with pytest.raises(CheckpointError, match="not a checkpoint"):
        read_checkpoint(str(path))


def test_corrupted_state_detected(tmp_path):
    path = str(tmp_path / "state.ckpt")
    write_checkpoint(path, "x", {"k": 1}, step_count=1, sim_time=0.0)
    data = bytearray(open(path, "rb").read())
    data[-1] ^= 0xFF  # flip a state byte
    open(path, "wb").write(bytes(data))
    with pytest.raises(CheckpointError, match="digest mismatch"):
        read_checkpoint(path)


def _with_header(tmp_path, header):
    """A checkpoint file whose JSON header is ``header``."""
    raw = json.dumps(header).encode("utf-8")
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"HPCMCKPT" + struct.pack(">II", 1, len(raw)) + raw)
    return str(path)


def test_read_file_cut_after_the_magic(tmp_path):
    path = str(tmp_path / "state.ckpt")
    write_checkpoint(path, "x", {"k": 1}, step_count=1, sim_time=0.0)
    data = open(path, "rb").read()
    open(path, "wb").write(data[:len(b"HPCMCKPT") + 3])
    with pytest.raises(CheckpointError, match="truncated header"):
        read_checkpoint(path)


def test_read_header_that_is_not_an_object(tmp_path):
    path = _with_header(tmp_path, ["x", 1, 0.0, "", "00"])
    with pytest.raises(CheckpointError, match="corrupt checkpoint header"):
        read_checkpoint(path)


def test_read_header_with_missing_keys(tmp_path):
    path = _with_header(tmp_path, {"app_name": "x"})
    with pytest.raises(CheckpointError, match="corrupt checkpoint header"):
        read_checkpoint(path)


def test_checkpointing_app_runs_like_inner(tmp_path):
    path = str(tmp_path / "tree.ckpt")
    cluster = Cluster(n_hosts=1, seed=0)
    mpi = MpiRuntime(cluster)
    app = CheckpointingApp(TestTreeApp(), path, every=3)
    rt = launch(mpi, app, cluster["ws1"], params=PARAMS)
    result = cluster.env.run(until=rt.done)
    assert result == pytest.approx(TestTreeApp.expected_checksum(PARAMS))
    assert app.checkpoints_written >= 3


def test_crash_and_restart_from_checkpoint(tmp_path):
    """Kill the whole simulation mid-run; a fresh run resumes from the
    checkpoint and produces the identical final result."""
    path = str(tmp_path / "tree.ckpt")

    # First run: crash (stop simulating) partway through.
    cluster = Cluster(n_hosts=1, seed=0)
    mpi = MpiRuntime(cluster)
    app = CheckpointingApp(TestTreeApp(), path, every=1)
    rt = launch(mpi, app, cluster["ws1"], params=PARAMS)
    cluster.env.run(until=1.0)  # "power cut"
    assert rt.status == "running"

    # Second run, new simulator, resumed from disk.
    cluster2 = Cluster(n_hosts=1, seed=0)
    mpi2 = MpiRuntime(cluster2)
    app2 = CheckpointingApp(TestTreeApp(), path, every=1)
    rt2 = launch(mpi2, app2, cluster2["ws1"],
                 params=CheckpointingApp.resume_params(path, PARAMS))
    result = cluster2.env.run(until=rt2.done)
    assert result == pytest.approx(TestTreeApp.expected_checksum(PARAMS))
    # The resumed run did less work than a cold run would.
    meta, _ = read_checkpoint(path)
    assert rt2.step_count < 27  # 9 trees * 3 phases


def test_resume_rejects_foreign_checkpoint(tmp_path):
    path = str(tmp_path / "foreign.ckpt")
    write_checkpoint(path, "other_app", {"x": 1}, step_count=1,
                     sim_time=0.0)
    cluster = Cluster(n_hosts=1, seed=0)
    mpi = MpiRuntime(cluster)
    app = CheckpointingApp(TestTreeApp(), str(tmp_path / "new.ckpt"))
    rt = launch(mpi, app, cluster["ws1"],
                params=CheckpointingApp.resume_params(path, PARAMS))
    failed = {}

    def waiter(env):
        try:
            yield rt.done
        except CheckpointError:
            failed["yes"] = True

    cluster.env.process(waiter(cluster.env))
    cluster.env.run(until=10)
    assert failed.get("yes")


def test_checkpoint_survives_migration(tmp_path):
    """Checkpointing and migration compose: the app moves hosts AND
    keeps writing checkpoints, and the result is still exact."""
    from repro.hpcm import MigrationOrder

    path = str(tmp_path / "tree.ckpt")
    cluster = Cluster(n_hosts=2, seed=0)
    mpi = MpiRuntime(cluster)
    app = CheckpointingApp(TestTreeApp(), path, every=2)
    rt = launch(mpi, app, cluster["ws1"], params=PARAMS)

    def order(env):
        yield env.timeout(0.3)
        rt.request_migration(
            MigrationOrder(dest_host="ws2", issued_at=env.now)
        )

    cluster.env.process(order(cluster.env))
    result = cluster.env.run(until=rt.done)
    assert rt.migration_count == 1
    assert result == pytest.approx(TestTreeApp.expected_checksum(PARAMS))
    meta, state = read_checkpoint(path)
    assert state.phase == "done"


def test_invalid_period():
    with pytest.raises(ValueError):
        CheckpointingApp(TestTreeApp(), "/tmp/x.ckpt", every=0)
