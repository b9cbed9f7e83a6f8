"""Fleet-wide checkpoint/restore through the shard control plane.

``ShardedSession.checkpoint_fleet`` writes one checkpoint per worker
(each worker holds a full replica, so its file is a complete engine
checkpoint of which the local partition's state is the meaningful
part) plus ``mirror.ckpt`` for the parent; ``restore_fleet`` overlays
them onto a freshly started fleet of the same shape.  The thread
backend keeps everything in-process (the unit-test backend — same
socket protocol as fork).
"""

import pytest

from repro.core.config import SecureCyclonConfig
from repro.errors import ShardFailure
from repro.experiments.scenarios import build_secure_overlay
from repro.sim.shardcoord import ShardedSession

NODES = 24
SHARDS = 3
CYCLES = 8
HALF = CYCLES // 2


def _build():
    return build_secure_overlay(
        n=NODES,
        config=SecureCyclonConfig(view_length=6, swap_length=2),
        malicious=3,
        attack_start=2,
        seed=21,
    )


def _session(overlay):
    return ShardedSession(
        overlay,
        SHARDS,
        backend="thread",
        replica_factory=lambda index: _build(),
    )


def _merged_state(overlay):
    return {
        node_id: (
            tuple(
                (entry.descriptor, entry.non_swappable)
                for entry in node.view._entries
            ),
            node.blacklist.proofs_tuple(),
        )
        for node_id, node in overlay.engine.nodes.items()
    }


def test_fleet_checkpoint_restore_matches_unbroken(tmp_path):
    # Unbroken sharded reference.
    unbroken = _build()
    session = _session(unbroken).start()
    session.run_cycles(CYCLES)
    session.finish()

    # Checkpoint mid-run; the checkpointing fleet keeps running and
    # must still match (saving is pure reads on every shard).
    first = _build()
    session = _session(first).start()
    session.run_cycles(HALF)
    paths = session.checkpoint_fleet(tmp_path)
    session.run_cycles(CYCLES - HALF)
    session.finish()
    assert sorted(path.name for path in paths) == [
        "mirror.ckpt",
        "shard-0.ckpt",
        "shard-1.ckpt",
        "shard-2.ckpt",
    ]
    assert _merged_state(first) == _merged_state(unbroken)

    # A fresh fleet restored from the files finishes identically.
    resumed = _build()
    session = _session(resumed).start()
    session.restore_fleet(tmp_path)
    assert resumed.engine.clock.cycle == HALF
    session.run_cycles(CYCLES - HALF)
    session.finish()
    assert _merged_state(resumed) == _merged_state(unbroken)


@pytest.mark.filterwarnings(
    # Tearing the fleet down mid-protocol makes worker threads raise
    # control-link ShardFailures on their way out — expected here.
    "ignore::pytest.PytestUnhandledThreadExceptionWarning"
)
def test_restore_fleet_refuses_wrong_shard_count(tmp_path):
    overlay = _build()
    session = _session(overlay).start()
    session.run_cycles(2)
    session.checkpoint_fleet(tmp_path)
    session.finish()

    other = _build()
    session = ShardedSession(
        other,
        SHARDS + 1,
        backend="thread",
        replica_factory=lambda index: _build(),
    ).start()
    try:
        with pytest.raises(ShardFailure, match="shard count"):
            session.restore_fleet(tmp_path)
    finally:
        session.close()
    # Refused before the mirror was touched.
    assert other.engine.clock.cycle == 0


@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning"
)
def test_restore_fleet_refuses_more_shard_files_than_shards(tmp_path):
    """A checkpoint of more shards is refused, not silently truncated.

    The files are placeholders: the count check must fire before any
    of them is read, so restoring ``mirror.ckpt`` first would fail
    with a different error.
    """
    for name in [f"shard-{i}.ckpt" for i in range(SHARDS)] + ["mirror.ckpt"]:
        (tmp_path / name).write_bytes(b"not a checkpoint")
    other = _build()
    session = ShardedSession(
        other,
        SHARDS - 1,
        backend="thread",
        replica_factory=lambda index: _build(),
    ).start()
    try:
        with pytest.raises(
            ShardFailure,
            match=f"holds {SHARDS} shard checkpoints.*runs {SHARDS - 1} shards",
        ):
            session.restore_fleet(tmp_path)
    finally:
        session.close()
    assert other.engine.clock.cycle == 0


@pytest.mark.filterwarnings(
    # The previous test's fleet teardown can surface its worker-thread
    # ShardFailures while this test runs; same expected noise.
    "ignore::pytest.PytestUnhandledThreadExceptionWarning"
)
def test_fleet_checkpoint_requires_running_session(tmp_path):
    overlay = _build()
    session = _session(overlay)
    with pytest.raises(ShardFailure, match="not running"):
        session.checkpoint_fleet(tmp_path)
    with pytest.raises(ShardFailure, match="not running"):
        session.restore_fleet(tmp_path)
