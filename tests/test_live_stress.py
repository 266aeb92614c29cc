"""Stress tests: concurrent churn/compact/query, and crash recovery.

Two families:

* **Concurrency** — writer threads mutate while a background compaction
  runs and readers query continuously; at barrier checkpoints the logical
  state is frozen (writers paused, compaction possibly still in flight) and
  every answer must equal a brute-force scan of the logical collection.
* **Crash recovery** — a "crash" is simulated by rewriting the WAL to what
  the disk would hold at an fsync boundary (acknowledged-and-committed
  records survive, the un-fsynced suffix vanishes, the last line may be
  torn) and reopening; no committed write may be lost, and recovery must
  land exactly on a prefix of the accepted history.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.devtools.locktrace import (
    get_lock_registry,
    locktrace_enabled,
    reset_lock_registry,
)
from repro.core.distances import (
    footrule_topk_raw,
    max_footrule_distance,
    unnormalize_distance,
)
from repro.core.ranking import Ranking
from repro.live import LiveCollection, WalRecord, WriteAheadLog

@pytest.fixture(autouse=True)
def _no_lock_inversions():
    """Under ``REPRO_LOCKTRACE=1`` every test here doubles as a lockdep run:
    the traced-lock order graph must stay acyclic."""
    if locktrace_enabled():
        reset_lock_registry()
    yield
    if locktrace_enabled():
        inversions = get_lock_registry().inversions()
        assert inversions == [], "\n".join(entry.describe() for entry in inversions)


K = 5
DOMAIN = 40
THETA = 0.35
NEIGHBOURS = 5


def mutate_once(live: LiveCollection, rng: random.Random) -> None:
    """One random mutation; key races with other writers are tolerated."""
    keys = live.live_keys()
    roll = rng.random()
    try:
        if roll < 0.6 or not keys:
            live.insert(rng.sample(range(DOMAIN), K))
        elif roll < 0.8:
            live.delete(rng.choice(keys))
        else:
            live.upsert(rng.choice(keys), rng.sample(range(DOMAIN), K))
    except KeyError:
        pass  # another writer deleted the key between live_keys() and here


def logical_state(live: LiveCollection) -> dict[int, tuple[int, ...]]:
    return {key: live.get(key).items for key in live.live_keys()}


def brute_force_range(state: dict[int, tuple[int, ...]], query: Ranking, theta: float):
    theta_raw = unnormalize_distance(theta, query.size)
    maximum = max_footrule_distance(query.size)
    matches = []
    for key, items in state.items():
        raw = footrule_topk_raw(query, Ranking(list(items)))
        if raw <= theta_raw:
            matches.append((raw / maximum, key))
    return sorted(matches)


def brute_force_knn(state: dict[int, tuple[int, ...]], query: Ranking, n: int):
    maximum = max_footrule_distance(query.size)
    scored = sorted(
        (footrule_topk_raw(query, Ranking(list(items))) / maximum, key)
        for key, items in state.items()
    )
    return scored[:n]


def assert_answers_match_state(live: LiveCollection, rng: random.Random) -> None:
    state = logical_state(live)
    for _ in range(2):
        query = Ranking(rng.sample(range(DOMAIN), K))
        expected = brute_force_range(state, query, THETA)
        answer = live.range_query(query, THETA)
        assert [(m.distance, m.rid) for m in answer.matches] == expected
        expected_knn = brute_force_knn(state, query, NEIGHBOURS)
        answer_knn = live.knn(query, NEIGHBOURS)
        assert [(n.distance, n.rid) for n in answer_knn.neighbours] == expected_knn


# -- concurrency --------------------------------------------------------------------


def run_concurrent_churn(live: LiveCollection, writers: int, rounds: int, ops: int) -> None:
    """Writers churn in rounds; between rounds the main thread verifies.

    The pause barrier freezes the *logical* state only — a background
    compaction may still be swapping layers mid-verification, which is
    exactly the race the exactness invariant must survive.
    """
    checkpoint = threading.Barrier(writers + 1)
    resume = threading.Barrier(writers + 1)
    failures: list[BaseException] = []
    stop_readers = threading.Event()

    def writer(seed: int) -> None:
        rng = random.Random(seed)
        try:
            for _ in range(rounds):
                for _ in range(ops):
                    mutate_once(live, rng)
                checkpoint.wait(timeout=60)
                resume.wait(timeout=60)
        except BaseException as error:  # pragma: no cover - surfaced below
            failures.append(error)
            checkpoint.abort()
            resume.abort()

    def reader() -> None:
        rng = random.Random(1234)
        try:
            while not stop_readers.is_set():
                query = Ranking(rng.sample(range(DOMAIN), K))
                answer = live.range_query(query, THETA)
                distances = [m.distance for m in answer.matches]
                assert distances == sorted(distances)
                rids = [n.rid for n in live.knn(query, NEIGHBOURS).neighbours]
                assert len(rids) == len(set(rids))
        except BaseException as error:  # pragma: no cover - surfaced below
            failures.append(error)

    threads = [
        threading.Thread(target=writer, args=(31 + i,), daemon=True) for i in range(writers)
    ]
    reader_thread = threading.Thread(target=reader, daemon=True)
    for thread in threads:
        thread.start()
    reader_thread.start()
    verify_rng = random.Random(7)
    try:
        for _ in range(rounds):
            checkpoint.wait(timeout=60)
            assert_answers_match_state(live, verify_rng)
            resume.wait(timeout=60)
    finally:
        stop_readers.set()
        reader_thread.join(timeout=60)
        for thread in threads:
            thread.join(timeout=60)
    assert not failures, failures[0]


def test_concurrent_churn_compact_query_in_memory():
    live = LiveCollection(memtable_threshold=8, max_segments=2, background_compaction=True)
    with live:
        run_concurrent_churn(live, writers=2, rounds=4, ops=30)
        assert live.stats().compactions >= 1
        assert_answers_match_state(live, random.Random(2))


def test_concurrent_churn_on_durable_collection_survives_restart(tmp_path):
    live = LiveCollection.open(
        tmp_path,
        memtable_threshold=8,
        max_segments=2,
        background_compaction=True,
        commit_batch=8,
        snapshot_every=48,
    )
    with live:
        run_concurrent_churn(live, writers=2, rounds=3, ops=30)
        expected = logical_state(live)
        assert live.stats().snapshots >= 1  # the policy fired under churn
    reopened = LiveCollection.open(tmp_path, memtable_threshold=8, max_segments=2)
    with reopened:
        assert logical_state(reopened) == expected
        assert reopened.stats().replayed <= 48 + 8  # policy bound + memtable tail
        assert_answers_match_state(reopened, random.Random(3))


# -- crash recovery -----------------------------------------------------------------


def apply_tracked(live: LiveCollection, rng: random.Random, count: int):
    """Churn while recording the logical state after every accepted record."""
    shadows: dict[int, dict[int, tuple[int, ...]]] = {0: {}}
    state: dict[int, tuple[int, ...]] = {}
    for _ in range(count):
        keys = sorted(state)
        roll = rng.random()
        if roll < 0.6 or not keys:
            items = tuple(rng.sample(range(DOMAIN), K))
            key = live.insert(list(items))
            state[key] = items
        elif roll < 0.8:
            key = rng.choice(keys)
            live.delete(key)
            del state[key]
        else:
            key = rng.choice(keys)
            items = tuple(rng.sample(range(DOMAIN), K))
            live.upsert(key, list(items))
            state[key] = items
        shadows[live._seq] = dict(state)
    return shadows


def simulate_fsync_boundary_crash(wal_path, durable_seq: int, torn: bool) -> None:
    """Rewrite the WAL to what disk holds after losing the un-fsynced suffix."""
    survivors = [
        record for record in WriteAheadLog(wal_path).replay() if record.seq <= durable_seq
    ]
    content = b"".join(record.to_record() for record in survivors)
    if torn:
        torn_record = WalRecord(seq=99999, op="insert", key=9, items=tuple(range(K)))
        content += torn_record.to_record()[:-3]  # mid-append tear
    wal_path.write_bytes(content)


def recover_and_check(tmp_path, shadows, durable_seq: int, covered_seq: int) -> None:
    recovered = LiveCollection.open(tmp_path, memtable_threshold=6, max_segments=2)
    with recovered:
        # nothing committed may be lost...
        assert recovered._seq >= max(durable_seq, covered_seq)
        # ...and the result must be an exact prefix of the accepted history
        assert logical_state(recovered) == shadows[recovered._seq]


def test_group_commit_crash_preserves_every_committed_write(tmp_path):
    rng = random.Random(71)
    live = LiveCollection.open(
        tmp_path, memtable_threshold=6, max_segments=2, commit_batch=5, snapshot_every=None
    )
    shadows = apply_tracked(live, rng, 43)
    durable_seq = live._wal.durable_seq
    covered_seq = live._covered_seq
    assert durable_seq < live._seq  # a partial batch is genuinely pending
    live.close()  # the close barrier is irrelevant: the crash rewrite decides
    simulate_fsync_boundary_crash(tmp_path / "wal.rbf", durable_seq, torn=True)
    recover_and_check(tmp_path, shadows, durable_seq, covered_seq)


def test_per_record_fsync_crash_loses_at_most_the_torn_append(tmp_path):
    rng = random.Random(72)
    live = LiveCollection.open(
        tmp_path, memtable_threshold=6, max_segments=2, sync=True, snapshot_every=None
    )
    shadows = apply_tracked(live, rng, 25)
    durable_seq = live._wal.durable_seq
    assert durable_seq == live._seq  # every acknowledged record hit the platter
    covered_seq = live._covered_seq
    live.close()
    simulate_fsync_boundary_crash(tmp_path / "wal.rbf", durable_seq, torn=True)
    recover_and_check(tmp_path, shadows, durable_seq, covered_seq)


def test_no_sync_crash_still_recovers_a_consistent_prefix(tmp_path):
    """no-sync may lose acknowledged records, but never consistency."""
    rng = random.Random(73)
    live = LiveCollection.open(
        tmp_path, memtable_threshold=6, max_segments=2, snapshot_every=None
    )
    shadows = apply_tracked(live, rng, 30)
    covered_seq = live._covered_seq
    live.close()
    # disk kept an arbitrary flush-boundary prefix of the un-fsynced log
    simulate_fsync_boundary_crash(tmp_path / "wal.rbf", durable_seq=17, torn=True)
    recover_and_check(tmp_path, shadows, durable_seq=min(17, covered_seq), covered_seq=0)


def test_replay_tolerates_tombstones_consumed_by_compaction(tmp_path):
    """A checkpoint written mid-tail may already reflect a tail delete."""
    live = LiveCollection.open(
        tmp_path, memtable_threshold=100, max_segments=100, snapshot_every=None
    )
    keys = [live.insert([i, i + 10, i + 20, i + 30, i + 40]) for i in range(4)]
    live.flush()                      # covered_seq = 4
    live.delete(keys[0])              # seq 5: tombstone on the sealed segment
    live.insert([9, 19, 29, 39, 49])  # seq 6: memtable only
    assert live.compact() is True     # consumes the segment AND the tombstone
    assert live._covered_seq == 4     # memtable non-empty: boundary stays put
    expected = logical_state(live)
    live.close()

    reopened = LiveCollection.open(tmp_path, memtable_threshold=100, max_segments=100)
    with reopened:
        # seq 5 replays as a delete of an already-absent key: a no-op
        assert reopened.stats().replayed == 2
        assert logical_state(reopened) == expected


def test_crash_between_manifest_and_truncation_is_harmless(tmp_path):
    """Replay must skip the covered prefix a crashed snapshot left behind."""
    live = LiveCollection.open(tmp_path, memtable_threshold=4, snapshot_every=None)
    for i in range(10):
        live.insert([i, i + 10, i + 20, i + 30, i + 40])
    expected = logical_state(live)
    covered = live._covered_seq
    assert covered == 8  # two flush checkpoints, memtable holds 2
    live.close()
    # the WAL was never truncated: it still holds all ten records

    reopened = LiveCollection.open(tmp_path, memtable_threshold=4)
    with reopened:
        assert reopened.stats().replayed == 2  # covered prefix skipped, not re-applied
        assert logical_state(reopened) == expected
