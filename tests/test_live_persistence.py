"""Durability tests: manifest recovery, WAL-tail replay, and the snapshot policy."""

from __future__ import annotations

import json
import random

from repro.core.ranking import Ranking
from repro.live import LiveCollection, WalRecord, WriteAheadLog
from repro.live.collection import WAL_FILENAME
from repro.live.legacy_json import SNAPSHOT_FILENAME
from repro.live.manifest import MANIFEST_FILENAME, SEGMENTS_DIRNAME, Manifest, ManifestLog


def wal_length(directory) -> int:
    return WriteAheadLog(directory / WAL_FILENAME).record_count()


def load_manifest(directory) -> Manifest:
    return ManifestLog(directory / MANIFEST_FILENAME).load()


def answer_bytes(live: LiveCollection, query: Ranking) -> bytes:
    matches = [(m.rid, m.distance, m.ranking.items) for m in live.range_query(query, 0.6).matches]
    neighbours = [(n.rid, n.distance, n.ranking.items) for n in live.knn(query, 4).neighbours]
    return json.dumps([matches, neighbours]).encode()


def logical_state(live: LiveCollection) -> list[tuple[int, tuple[int, ...]]]:
    return [(key, live.get(key).items) for key in live.live_keys()]


def churn(live: LiveCollection, rng: random.Random, operations: int) -> None:
    for _ in range(operations):
        keys = live.live_keys()
        roll = rng.random()
        if roll < 0.6 or not keys:
            live.insert(rng.sample(range(50), 5))
        elif roll < 0.8:
            live.delete(rng.choice(keys))
        else:
            live.upsert(rng.choice(keys), rng.sample(range(50), 5))


def reopen(directory, **kwargs) -> LiveCollection:
    kwargs.setdefault("memtable_threshold", 4)
    kwargs.setdefault("max_segments", 2)
    return LiveCollection.open(directory, **kwargs)


def test_restart_replays_only_the_post_seal_tail(tmp_path):
    """Flush checkpoints bound replay to the records after the last seal."""
    rng = random.Random(5)
    live = reopen(tmp_path)
    churn(live, rng, 40)
    expected = logical_state(live)
    next_key = live._next_key
    covered = live._covered_seq
    live.close()

    reopened = reopen(tmp_path)
    # only the records after the last flush checkpoint are re-applied
    assert reopened.stats().replayed == 40 - covered
    assert reopened.stats().replayed <= 4  # bounded by the memtable threshold
    assert logical_state(reopened) == expected
    assert reopened._next_key == next_key
    reopened.close()


def test_sealed_segments_reload_from_disk_without_replay(tmp_path):
    live = reopen(tmp_path, max_segments=10)
    for i in range(8):
        live.insert([i, i + 10, i + 20, i + 30, i + 40])
    assert live.segment_count == 2  # two sealed, spilled runs
    expected = logical_state(live)
    live.close()

    reopened = reopen(tmp_path, max_segments=10)
    assert reopened.stats().replayed == 0  # everything came from the runs
    assert reopened.segment_count == 2
    assert reopened.memtable_size == 0
    assert logical_state(reopened) == expected
    reopened.close()


def test_tombstones_survive_through_the_manifest(tmp_path):
    live = reopen(tmp_path, max_segments=10)
    keys = [live.insert([i, i + 10, i + 20]) for i in range(7)]
    live.delete(keys[1])          # tombstones a sealed row
    live.upsert(keys[2], [40, 41, 42])  # fills the memtable -> flush -> manifest
    assert live.memtable_size == 0
    expected = logical_state(live)
    live.close()

    reopened = reopen(tmp_path, max_segments=10)
    assert reopened.stats().replayed == 0
    assert logical_state(reopened) == expected
    assert keys[1] not in reopened
    assert reopened.get(keys[2]) == Ranking([40, 41, 42])
    reopened.close()


def test_restart_answers_equal_pre_restart_answers(tmp_path):
    rng = random.Random(8)
    live = reopen(tmp_path)
    churn(live, rng, 50)
    query = Ranking(rng.sample(range(50), 5))
    before_range = [(m.distance, m.rid) for m in live.range_query(query, 0.4).matches]
    before_knn = [(n.distance, n.rid) for n in live.knn(query, 5).neighbours]
    live.close()

    reopened = reopen(tmp_path)
    after_range = [(m.distance, m.rid) for m in reopened.range_query(query, 0.4).matches]
    after_knn = [(n.distance, n.rid) for n in reopened.knn(query, 5).neighbours]
    assert after_range == before_range
    assert after_knn == before_knn
    reopened.close()


def test_restart_after_compaction_recovers_from_the_new_base(tmp_path):
    live = reopen(tmp_path, memtable_threshold=2, max_segments=10)
    keys = [live.insert([i, i + 100, i + 200]) for i in range(8)]
    live.delete(keys[2])
    live.flush()
    assert live.compact() is True
    expected = logical_state(live)
    live.close()

    reopened = reopen(tmp_path, memtable_threshold=2, max_segments=10)
    assert reopened.stats().replayed <= 1  # at most the delete's tail record
    assert reopened.base_size > 0
    assert reopened.segment_count == 0
    assert logical_state(reopened) == expected
    # superseded run files were deleted with the manifest rewrite
    assert not list((tmp_path / SEGMENTS_DIRNAME).iterdir())
    reopened.close()


def test_snapshot_truncates_covered_wal_records(tmp_path):
    live = reopen(tmp_path, memtable_threshold=100)
    for i in range(20):
        live.insert([i, i + 30, i + 60])
    live.snapshot()
    assert (tmp_path / WAL_FILENAME).read_bytes() == b""  # fully covered
    for i in range(3):
        live.insert([100 + i, 200 + i, 300 + i])
    assert wal_length(tmp_path) == 3  # tail only
    live.close()

    reopened = reopen(tmp_path, memtable_threshold=100)
    assert reopened.stats().replayed == 3
    assert len(reopened) == 23
    reopened.close()


def test_snapshot_limits_replay_to_wal_tail(tmp_path):
    rng = random.Random(13)
    live = reopen(tmp_path, memtable_threshold=100)
    churn(live, rng, 30)
    live.snapshot()
    churn(live, rng, 7)  # the tail
    expected = logical_state(live)
    live.close()

    reopened = reopen(tmp_path, memtable_threshold=100)
    assert reopened.stats().replayed == 7
    assert logical_state(reopened) == expected
    reopened.close()


def test_automatic_snapshot_policy_bounds_replay(tmp_path):
    """The acceptance bound: replay never exceeds the configured WAL budget."""
    bound = 16
    live = reopen(tmp_path, snapshot_every=bound)
    rng = random.Random(99)
    churn(live, rng, 200)
    expected = logical_state(live)
    assert live.stats().snapshots >= 200 // bound - 1  # policy actually fired
    assert wal_length(tmp_path) <= bound
    live.close()

    reopened = reopen(tmp_path, snapshot_every=bound)
    assert reopened.stats().replayed <= bound
    assert logical_state(reopened) == expected
    reopened.close()


def test_policy_disabled_keeps_snapshots_manual(tmp_path):
    live = reopen(tmp_path, snapshot_every=None, memtable_threshold=100)
    for i in range(30):
        live.insert([i, i + 40, i + 80])
    assert live.stats().snapshots == 0
    assert wal_length(tmp_path) == 30  # nothing truncated
    live.close()


def test_snapshot_preserves_key_gaps_and_counter(tmp_path):
    live = reopen(tmp_path)
    keys = [live.insert([i, i + 10, i + 20]) for i in range(5)]
    live.delete(keys[1])
    live.delete(keys[3])
    live.snapshot()
    live.close()

    reopened = reopen(tmp_path)
    assert reopened.live_keys() == [0, 2, 4]
    assert reopened.insert([50, 60, 70]) == 5  # counter survives the round trip
    reopened.close()


def test_torn_wal_tail_is_ignored_on_restart(tmp_path):
    live = reopen(tmp_path, memtable_threshold=100)
    live.insert([1, 2, 3])
    live.insert([4, 5, 6])
    live.close()
    with open(tmp_path / WAL_FILENAME, "ab") as handle:
        handle.write(WalRecord(seq=3, op="insert", key=2, items=(7, 8, 9)).to_record()[:-5])
    reopened = reopen(tmp_path, memtable_threshold=100)
    assert reopened.live_keys() == [0, 1]
    # the next mutation reuses the uncommitted sequence number
    reopened.insert([7, 8, 9])
    assert reopened._seq == 3
    reopened.close()
    # and that mutation survives another restart: the torn record was repaired,
    # not glued onto (which would silently drop the acknowledged insert)
    final = reopen(tmp_path, memtable_threshold=100)
    assert final.live_keys() == [0, 1, 2]
    assert final.get(2) == Ranking([7, 8, 9])
    final.close()


def test_open_on_empty_directory_starts_empty(tmp_path):
    live = reopen(tmp_path / "fresh")
    assert len(live) == 0
    assert live.insert([1, 2, 3]) == 0
    live.close()


def test_in_memory_collection_rejects_snapshot():
    live = LiveCollection()
    live.insert([1, 2, 3])
    try:
        live.snapshot()
    except ValueError as error:
        assert "directory" in str(error)
    else:  # pragma: no cover - defensive
        raise AssertionError("snapshot without a directory should fail")


def test_snapshot_exports_to_explicit_directory(tmp_path):
    """A backup is an RBF directory like any other, whatever it was taken from."""
    live = reopen(tmp_path / "state")
    churn(live, random.Random(21), 30)
    query = Ranking([1, 2, 3, 4, 5])
    expected = answer_bytes(live, query)
    path = live.snapshot(tmp_path / "backup")
    next_key = live._next_key
    live.close()
    assert path == tmp_path / "backup" / MANIFEST_FILENAME
    files = sorted(p.name for p in (tmp_path / "backup").rglob("*") if p.is_file())
    assert files == ["base-0.rbf", MANIFEST_FILENAME]
    restored = reopen(tmp_path / "backup")
    assert answer_bytes(restored, query) == expected
    assert restored.insert([41, 42, 43, 44, 45]) == next_key  # key counter travelled too
    restored.close()


def test_legacy_whole_state_snapshot_still_loads(tmp_path):
    """Directories written before the manifest format keep working."""
    payload = {
        "k": 3,
        "next_key": 6,
        "last_seq": 9,
        "entries": [[0, [1, 2, 3]], [2, [4, 5, 6]], [5, [7, 8, 9]]],
    }
    (tmp_path / SNAPSHOT_FILENAME).write_text(json.dumps(payload), encoding="utf-8")
    live = reopen(tmp_path)
    assert live.live_keys() == [0, 2, 5]
    assert live.get(2) == Ranking([4, 5, 6])
    assert live.insert([10, 11, 12]) == 6
    # opening upgraded the directory: one RBF checkpoint, the snapshot is gone
    assert (tmp_path / MANIFEST_FILENAME).exists()
    assert (tmp_path / "base-0.rbf").exists()
    assert not (tmp_path / SNAPSHOT_FILENAME).exists()
    live.close()

    reopened = reopen(tmp_path)
    assert reopened.live_keys() == [0, 2, 5, 6]
    reopened.close()


def test_orphaned_run_files_are_garbage_collected(tmp_path):
    """A crash between spilling a run and naming it leaves harmless orphans."""
    live = reopen(tmp_path, max_segments=10)
    for i in range(8):
        live.insert([i, i + 10, i + 20, i + 30, i + 40])
    expected = logical_state(live)
    live.close()
    orphan_segment = tmp_path / SEGMENTS_DIRNAME / "segment-99.rbf"
    orphan_segment.write_bytes((tmp_path / SEGMENTS_DIRNAME / "segment-0.rbf").read_bytes())
    orphan_base = tmp_path / "base-7.json"  # an upgraded directory's leftovers go too
    orphan_base.write_text('{"keys": [0], "items": [[1, 2, 3, 4, 5]]}', encoding="utf-8")
    (tmp_path / "manifest.rbf.tmp").write_bytes(b"RBF")

    reopened = reopen(tmp_path, max_segments=10)
    assert logical_state(reopened) == expected
    assert not orphan_segment.exists()
    assert not orphan_base.exists()
    assert not (tmp_path / "manifest.rbf.tmp").exists()
    reopened.close()


def test_compaction_after_restart_does_not_reuse_base_filename(tmp_path):
    """The epoch counter survives recovery, so numbered base runs never collide.

    Regression: with the counter reset to 0 on load, the first post-restart
    compaction wrote its run to the *current* base's filename and then
    deleted it as the superseded file, leaving a manifest pointing at
    nothing.
    """
    live = reopen(tmp_path, memtable_threshold=2, max_segments=10)
    for i in range(6):
        live.insert([i, i + 100, i + 200])
    assert live.compact() is True  # base-1.rbf
    live.close()

    middle = reopen(tmp_path, memtable_threshold=2, max_segments=10)
    for i in range(6, 10):
        middle.insert([i, i + 100, i + 200])
    assert middle.compact() is True  # must land in base-2.rbf, not base-1.rbf
    expected = logical_state(middle)
    assert load_manifest(tmp_path).base == "base-2.rbf"
    assert (tmp_path / "base-2.rbf").exists()
    middle.close()

    final = reopen(tmp_path, memtable_threshold=2, max_segments=10)
    assert logical_state(final) == expected
    final.close()


def test_base_tombstones_survive_restart_then_compaction(tmp_path):
    """Persisted base tombstones must keep filtering after the epoch resumes."""
    live = reopen(tmp_path, memtable_threshold=2, max_segments=10)
    keys = [live.insert([i, i + 100, i + 200]) for i in range(6)]
    live.compact()
    live.delete(keys[0])  # tombstones a base row
    live.flush()          # checkpoint records it
    live.close()

    reopened = reopen(tmp_path, memtable_threshold=2, max_segments=10)
    assert keys[0] not in reopened
    assert reopened.compact() is True  # reclaims the recovered tombstone
    assert reopened.tombstone_count == 0
    assert keys[0] not in reopened
    assert sorted(reopened.live_keys()) == keys[1:]
    reopened.close()


def test_snapshot_recognises_its_own_directory_spelled_differently(tmp_path):
    """An equivalent path must checkpoint (truncate), not export."""
    live = reopen(tmp_path / "state", memtable_threshold=100)
    for i in range(5):
        live.insert([i, i + 10, i + 20])
    alias = tmp_path / "alias"
    alias.symlink_to(tmp_path / "state")
    assert alias != live._directory  # lexically different...
    live.snapshot(alias)             # ...but the same directory
    assert (tmp_path / "state" / WAL_FILENAME).read_bytes() == b""
    assert live.stats().snapshots == 1
    live.close()


def test_manifest_names_only_live_files(tmp_path):
    live = reopen(tmp_path, max_segments=10)
    for i in range(8):
        live.insert([i, i + 10, i + 20, i + 30, i + 40])
    live.close()
    manifest = load_manifest(tmp_path)
    for filename in manifest.referenced_files():
        assert (tmp_path / filename).exists()
    assert manifest.covered_seq == 8
    assert manifest.next_key == 8
