"""LiveCollection unit tests: mutations, layering, flush, and compaction."""

from __future__ import annotations

import pytest

from repro.core.errors import (
    DuplicateItemError,
    InvalidThresholdError,
    RankingSizeMismatchError,
)
from repro.core.ranking import Ranking, RankingSet
from repro.live import LiveCollection


def fresh(**kwargs) -> LiveCollection:
    kwargs.setdefault("memtable_threshold", 4)
    kwargs.setdefault("max_segments", 2)
    return LiveCollection(**kwargs)


def test_insert_assigns_increasing_keys():
    live = fresh()
    assert [live.insert([1, 2, 3]), live.insert([4, 5, 6]), live.insert([7, 8, 9])] == [0, 1, 2]
    assert len(live) == 3
    assert live.live_keys() == [0, 1, 2]
    assert live.k == 3


def test_get_returns_current_version():
    live = fresh()
    key = live.insert([1, 2, 3])
    assert live.get(key) == Ranking([1, 2, 3])
    live.upsert(key, [3, 2, 1])
    assert live.get(key) == Ranking([3, 2, 1])
    assert live.get(999) is None


def test_delete_removes_from_memtable():
    live = fresh()
    key = live.insert([1, 2, 3])
    live.delete(key)
    assert len(live) == 0
    assert live.memtable_size == 0
    assert live.tombstone_count == 0  # never sealed, nothing to tombstone


def test_delete_of_sealed_ranking_tombstones_it():
    live = fresh()
    keys = [live.insert([i, i + 1, i + 2]) for i in range(0, 12, 3)]
    assert live.segment_count >= 1  # threshold 4 reached
    live.delete(keys[0])
    assert live.tombstone_count == 1
    assert keys[0] not in live


def test_delete_unknown_key_raises():
    live = fresh()
    live.insert([1, 2, 3])
    with pytest.raises(KeyError):
        live.delete(42)


def test_upsert_of_sealed_key_shadows_old_version():
    live = fresh(memtable_threshold=2)
    key = live.insert([1, 2, 3])
    live.insert([4, 5, 6])  # seals the memtable
    assert live.segment_count == 1
    live.upsert(key, [7, 8, 9])
    assert live.tombstone_count == 1
    assert live.get(key) == Ranking([7, 8, 9])
    result = live.range_query(Ranking([1, 2, 3]), theta=0.1)
    assert key not in result.rids  # old version filtered by its tombstone


def test_upsert_of_unknown_key_inserts_and_advances_key_counter():
    live = fresh()
    live.upsert(10, [1, 2, 3])
    assert live.live_keys() == [10]
    assert live.insert([4, 5, 6]) == 11


def test_mismatched_ranking_size_is_rejected():
    live = fresh()
    live.insert([1, 2, 3])
    with pytest.raises(RankingSizeMismatchError):
        live.insert([1, 2, 3, 4])
    with pytest.raises(RankingSizeMismatchError):
        live.upsert(0, [1, 2, 3, 4])
    with pytest.raises(DuplicateItemError):
        live.insert([1, 1, 2])
    assert live.stats().inserts == 1  # failed mutations not counted


def test_query_validation():
    live = fresh()
    live.insert([1, 2, 3])
    with pytest.raises(InvalidThresholdError):
        live.range_query(Ranking([1, 2, 3]), theta=1.5)
    with pytest.raises(RankingSizeMismatchError):
        live.range_query(Ranking([1, 2, 3, 4]), theta=0.2)
    with pytest.raises(RankingSizeMismatchError):
        live.knn(Ranking([1, 2, 3, 4]), 1)
    with pytest.raises(ValueError):
        live.knn(Ranking([1, 2, 3]), 0)


def test_flush_threshold_seals_memtable():
    live = fresh(memtable_threshold=3)
    for i in range(3):
        live.insert([i * 3 + 1, i * 3 + 2, i * 3 + 3])
    assert live.memtable_size == 0
    assert live.segment_count == 1
    assert live.stats().flushes == 1


def test_manual_flush_and_empty_flush():
    live = fresh(memtable_threshold=100)
    assert live.flush() is None
    live.insert([1, 2, 3])
    assert live.flush() is not None
    assert live.flush() is None
    assert live.segment_count == 1


def test_compaction_folds_segments_into_base():
    live = fresh(memtable_threshold=2, max_segments=10)
    keys = [live.insert([i, i + 100, i + 200]) for i in range(8)]
    live.delete(keys[2])
    live.flush()
    assert live.segment_count == 4
    assert live.compact() is True
    assert live.segment_count == 0
    assert live.base_size == 7
    assert live.tombstone_count == 0  # reclaimed by the merge
    assert live.live_keys() == [k for k in keys if k != keys[2]]


def test_compaction_with_nothing_to_do_is_a_no_op():
    live = fresh()
    assert live.compact() is False
    live.insert([1, 2, 3])
    assert live.compact() is False  # only the memtable holds data
    assert live.stats().compactions == 0


def test_auto_compaction_trigger():
    live = fresh(memtable_threshold=2, max_segments=2)
    for i in range(12):
        live.insert([i, i + 50, i + 100])
    assert live.stats().compactions >= 1
    assert live.segment_count <= 2


def test_background_compaction_completes():
    live = LiveCollection(memtable_threshold=2, max_segments=2, background_compaction=True)
    for i in range(20):
        live.insert([i, i + 50, i + 100])
    live._compactor.join()
    assert live.stats().compactions >= 1
    # every ranking still answerable after the swap
    result = live.range_query(Ranking([0, 50, 100]), theta=0.0)
    assert result.rids == {0}
    live.close()


def test_initial_collection_becomes_base():
    rankings = RankingSet.from_lists([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    live = LiveCollection(initial=rankings, num_shards=2)
    assert live.base_size == 3
    assert live.live_keys() == [0, 1, 2]
    assert live.insert([10, 11, 12]) == 3
    live.delete(1)
    assert live.to_ranking_set().rankings[1] == Ranking([7, 8, 9])


def test_version_bumps_on_every_change():
    live = fresh(memtable_threshold=100)
    versions = [live.version]
    live.insert([1, 2, 3])
    versions.append(live.version)
    live.upsert(0, [3, 2, 1])
    versions.append(live.version)
    live.flush()
    versions.append(live.version)
    live.delete(0)
    versions.append(live.version)
    assert versions == sorted(set(versions))  # strictly increasing


def test_invalid_configuration_rejected():
    with pytest.raises(ValueError):
        LiveCollection(memtable_threshold=0)
    with pytest.raises(ValueError):
        LiveCollection(max_segments=0)
    with pytest.raises(ValueError):
        LiveCollection(num_shards=0)


def test_stats_mutation_totals():
    live = fresh()
    live.insert([1, 2, 3])
    live.insert([4, 5, 6])
    live.upsert(0, [3, 2, 1])
    live.delete(1)
    stats = live.stats()
    assert (stats.inserts, stats.deletes, stats.upserts) == (2, 1, 1)
    assert stats.mutations == 4
    assert stats.as_dict()["mutations"]["inserts"] == 2
