"""RBF storage: WAL/run/manifest-log corruption matrix + the JSON-era upgrade.

The compat half pins the promise that nothing an earlier build wrote is
stranded: a JSON-era directory — built here from *literal file contents*,
since no writer for them exists any more — opens with the answers of a
from-scratch index, is upgraded to RBF on the way, and reports damage as
the same *typed* errors the RBF readers raise.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.codec import pack_record
from repro.codec.records import KIND_WAL
from repro.core.ranking import Ranking, RankingSet
from repro.live import LiveCollection, directory_has_state
from repro.live.collection import WAL_FILENAME
from repro.live.manifest import (
    MANIFEST_EDIT_LIMIT,
    MANIFEST_FILENAME,
    CorruptManifestError,
    Manifest,
    ManifestLog,
    read_run,
    write_run,
)
from repro.live.wal import CorruptWalError, WalRecord, WriteAheadLog


def wal_records(n: int) -> list[WalRecord]:
    rng = random.Random(n)
    records = []
    for seq in range(1, n + 1):
        roll = rng.random()
        if roll < 0.7:
            records.append(
                WalRecord(seq=seq, op="insert", key=seq, items=tuple(rng.sample(range(99), 5)))
            )
        elif roll < 0.85:
            records.append(WalRecord(seq=seq, op="delete", key=max(1, seq - 1)))
        else:
            records.append(
                WalRecord(seq=seq, op="upsert", key=max(1, seq - 1), items=(1, 2, 3, 4, 5))
            )
    return records


class TestBinaryWal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "wal.rbf"
        records = wal_records(20)
        with WriteAheadLog(path) as wal:
            for record in records:
                wal.append(record)
        assert list(WriteAheadLog(path).replay()) == records

    def test_torn_tail_is_dropped_and_replay_succeeds(self, tmp_path):
        path = tmp_path / "wal.rbf"
        records = wal_records(10)
        with WriteAheadLog(path) as wal:
            for record in records:
                wal.append(record)
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])  # tear mid-record, like a crash mid-append
        wal = WriteAheadLog(path)
        assert list(wal.replay()) == records[:-1]
        # ... and the tear was physically trimmed so appends extend cleanly
        extra = WalRecord(seq=11, op="insert", key=11, items=(9, 8, 7, 6, 5))
        wal.append(extra)
        wal.close()
        assert list(WriteAheadLog(path).replay()) == records[:-1] + [extra]

    def test_interior_bit_flip_is_a_typed_error(self, tmp_path):
        path = tmp_path / "wal.rbf"
        with WriteAheadLog(path) as wal:
            for record in wal_records(10):
                wal.append(record)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x10
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptWalError):
            list(WriteAheadLog(path).replay())

    def test_complete_corrupt_tail_record_is_not_tolerated(self, tmp_path):
        """A *complete* record with a bad CRC is bit rot, not a torn write."""
        path = tmp_path / "wal.rbf"
        with WriteAheadLog(path) as wal:
            for record in wal_records(5):
                wal.append(record)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # flips inside the last (complete) record
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptWalError):
            list(WriteAheadLog(path).replay())

    def test_foreign_record_kind_is_a_typed_error(self, tmp_path):
        path = tmp_path / "wal.rbf"
        path.write_bytes(pack_record(KIND_WAL + 40, b"not a wal record"))
        with pytest.raises(CorruptWalError, match="kind"):
            list(WriteAheadLog(path).replay())

    def test_truncate_through_rewrites_the_binary_log(self, tmp_path):
        path = tmp_path / "wal.rbf"
        records = wal_records(12)
        wal = WriteAheadLog(path)
        for record in records:
            wal.append(record)
        kept = wal.truncate_through(8)
        assert kept == len([r for r in records if r.seq > 8])
        assert list(wal.replay()) == [r for r in records if r.seq > 8]
        wal.close()


class TestBinaryRuns:
    def test_round_trip(self, tmp_path):
        keys = (3, 1, 4)
        rankings = RankingSet.from_lists([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        path = tmp_path / "segment-000001.rbf"
        write_run(path, keys, rankings)
        got_keys, got_rankings = read_run(path)
        assert got_keys == keys
        assert [r.items for r in got_rankings] == [r.items for r in rankings]

    def test_bit_flip_is_a_typed_error(self, tmp_path):
        path = tmp_path / "segment-000001.rbf"
        write_run(path, (1, 2), RankingSet.from_lists([[1, 2, 3], [4, 5, 6]]))
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptManifestError):
            read_run(path)

    def test_truncated_run_is_a_typed_error(self, tmp_path):
        path = tmp_path / "segment-000001.rbf"
        write_run(path, (1, 2), RankingSet.from_lists([[1, 2, 3], [4, 5, 6]]))
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(CorruptManifestError):
            read_run(path)


class TestManifestLog:
    def manifest(self, covered_seq: int, segments=()) -> Manifest:
        return Manifest(
            k=5, next_key=covered_seq + 1, covered_seq=covered_seq, segments=list(segments)
        )

    def test_snapshot_plus_edits_fold(self, tmp_path):
        path = tmp_path / MANIFEST_FILENAME
        log = ManifestLog(path)
        log.commit(self.manifest(1))
        log.commit(self.manifest(2, [(1, "segment-000001.rbf")]))
        log.commit(self.manifest(3, [(1, "segment-000001.rbf")]))
        folded = ManifestLog(path).load()
        assert folded.covered_seq == 3
        assert folded.segments == [(1, "segment-000001.rbf")]

    def test_unchanged_commit_appends_nothing(self, tmp_path):
        path = tmp_path / MANIFEST_FILENAME
        log = ManifestLog(path)
        log.commit(self.manifest(1))
        size = path.stat().st_size
        log.commit(self.manifest(1))
        assert path.stat().st_size == size

    def test_edit_limit_triggers_rewrite(self, tmp_path):
        path = tmp_path / MANIFEST_FILENAME
        log = ManifestLog(path, edit_limit=4)
        for seq in range(1, 12):
            log.commit(self.manifest(seq))
        assert log.edits < 4  # the log keeps collapsing back to a snapshot
        assert ManifestLog(path).load().covered_seq == 11

    def test_torn_tail_edit_is_dropped(self, tmp_path):
        path = tmp_path / MANIFEST_FILENAME
        log = ManifestLog(path)
        log.commit(self.manifest(1))
        log.commit(self.manifest(2))
        path.write_bytes(path.read_bytes()[:-1])
        assert ManifestLog(path).load().covered_seq == 1

    def test_interior_corruption_is_a_typed_error(self, tmp_path):
        path = tmp_path / MANIFEST_FILENAME
        log = ManifestLog(path)
        log.commit(self.manifest(1))
        log.commit(self.manifest(2))
        blob = bytearray(path.read_bytes())
        blob[10] ^= 0x40
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptManifestError):
            ManifestLog(path).load()

    def test_missing_file_loads_none(self, tmp_path):
        assert ManifestLog(tmp_path / MANIFEST_FILENAME).load() is None


def churn(live: LiveCollection, rng: random.Random, operations: int) -> None:
    for _ in range(operations):
        keys = live.live_keys()
        roll = rng.random()
        if roll < 0.6 or not keys:
            live.insert(rng.sample(range(60), 5))
        elif roll < 0.8:
            live.delete(rng.choice(keys))
        else:
            live.upsert(rng.choice(keys), rng.sample(range(60), 5))


def logical_state(live: LiveCollection) -> list[tuple[int, tuple[int, ...]]]:
    return [(key, live.get(key).items) for key in live.live_keys()]


def answers(live: LiveCollection, rng: random.Random) -> list:
    queries = [rng.sample(range(60), 5) for _ in range(6)]
    out = []
    for query in queries:
        out.append(sorted((m.rid, m.distance) for m in live.range_query(Ranking(query), 0.7)))
        out.append(live.knn(Ranking(query), 5).rids)
    return out


#: The logical history the literal JSON-era directory below encodes.
JSON_ERA_HISTORY = [
    ("insert", 0, [1, 2, 3, 4, 5]),
    ("insert", 1, [2, 3, 4, 5, 6]),
    ("insert", 2, [10, 20, 30, 40, 50]),
    ("insert", 3, [5, 4, 3, 2, 1]),
    ("insert", 4, [7, 8, 9, 10, 11]),
    ("insert", 5, [1, 3, 5, 7, 9]),
    ("insert", 6, [11, 12, 13, 14, 15]),
    ("delete", 4, None),  # seq 8: tombstones row 1 of segment-0, then the checkpoint
    ("insert", 7, [2, 1, 4, 3, 6]),  # seq 9..11: the wal.jsonl tail
    ("upsert", 0, [1, 2, 3, 5, 4]),
    ("delete", 5, None),
]

JSON_ERA_FILES = {
    "base-0.json": '{"keys":[0,1,2],"items":[[1,2,3,4,5],[2,3,4,5,6],[10,20,30,40,50]]}',
    "segments/segment-0.json": (
        '{"keys":[3,4,5,6],'
        '"items":[[5,4,3,2,1],[7,8,9,10,11],[1,3,5,7,9],[11,12,13,14,15]]}'
    ),
    "manifest.json": (
        '{"format":1,"k":5,"next_key":7,"covered_seq":8,"base":"base-0.json","base_epoch":0,'
        '"segments":[[0,"segments/segment-0.json"]],'
        '"tombstones":{"base":[],"segments":{"0":[1]}}}'
    ),
    "wal.jsonl": (
        '{"seq":9,"op":"insert","key":7,"items":[2,1,4,3,6]}\n'
        '{"seq":10,"op":"upsert","key":0,"items":[1,2,3,5,4]}\n'
        '{"seq":11,"op":"delete","key":5}\n'
        '{"seq":12,"op":"insert","key":8,"ite'  # crash mid-append
    ),
}

#: The same history as a pre-manifest whole-state snapshot plus its tail.
SNAPSHOT_ERA_FILES = {
    "snapshot.json": (
        '{"k":5,"next_key":7,"last_seq":8,"entries":[[0,[1,2,3,4,5]],[1,[2,3,4,5,6]],'
        '[2,[10,20,30,40,50]],[3,[5,4,3,2,1]],[5,[1,3,5,7,9]],[6,[11,12,13,14,15]]]}'
    ),
    "wal.jsonl": JSON_ERA_FILES["wal.jsonl"],
}

#: ... and as nothing but a log (a directory that never checkpointed).
WAL_ONLY_FILES = {
    "wal.jsonl": "".join(
        json.dumps({"seq": seq, "op": op, "key": key, **({"items": items} if items else {})})
        + "\n"
        for seq, (op, key, items) in enumerate(JSON_ERA_HISTORY, start=1)
    )
}


def write_files(directory, files: dict[str, str | bytes]) -> None:
    for name, content in files.items():
        path = directory / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))


def from_scratch() -> LiveCollection:
    """An in-memory collection that lived through :data:`JSON_ERA_HISTORY`."""
    live = LiveCollection()
    for op, key, items in JSON_ERA_HISTORY:
        if op == "insert":
            assert live.insert(items) == key
        elif op == "upsert":
            live.upsert(key, items)
        else:
            live.delete(key)
    return live


def json_era_names(directory) -> list[str]:
    return sorted(
        path.relative_to(directory).as_posix()
        for path in directory.rglob("*")
        if path.suffix in (".json", ".jsonl")
    )


class TestFormatEquivalence:
    def test_binary_restart_autodetects_format(self, tmp_path):
        assert not directory_has_state(tmp_path)
        live = LiveCollection.open(tmp_path, memtable_threshold=4)
        churn(live, random.Random(3), 50)
        expected = logical_state(live)
        live.close()
        assert (tmp_path / WAL_FILENAME).exists()
        assert (tmp_path / MANIFEST_FILENAME).exists()
        assert json_era_names(tmp_path) == []
        assert directory_has_state(tmp_path)
        reopened = LiveCollection.open(tmp_path, format="binary", memtable_threshold=4)
        assert logical_state(reopened) == expected
        reopened.close()

    def test_json_era_directory_opens_under_binary_default(self, tmp_path):
        """The compat promise: this build reads, and upgrades, old JSON dirs."""
        write_files(tmp_path, JSON_ERA_FILES)
        assert directory_has_state(tmp_path)
        reference = from_scratch()
        expected_answers = answers(reference, random.Random(2))

        upgraded = LiveCollection.open(tmp_path, memtable_threshold=4)
        assert upgraded.stats().replayed == 3  # the tail; the torn line never committed
        assert logical_state(upgraded) == logical_state(reference)
        assert answers(upgraded, random.Random(2)) == expected_answers
        # the JSON-era control files are gone, RBF ones took over — and the
        # new manifest still names the old runs: no data was rewritten
        assert not (tmp_path / "wal.jsonl").exists()
        assert not (tmp_path / "manifest.json").exists()
        manifest = ManifestLog(tmp_path / MANIFEST_FILENAME).load()
        assert {"base-0.json", "segments/segment-0.json"} <= manifest.referenced_files()
        assert upgraded.insert([9, 8, 7, 6, 5]) == 8  # the torn insert's key is reused
        upgraded.close()

        # a second open has nothing left to upgrade
        before = (tmp_path / MANIFEST_FILENAME).read_bytes()
        again = LiveCollection.open(tmp_path, memtable_threshold=4)
        assert again.stats().replayed == 1
        assert (tmp_path / MANIFEST_FILENAME).read_bytes() == before
        # compaction rewrites the runs: nothing JSON is left on disk
        assert again.compact() is True
        assert json_era_names(tmp_path) == []
        # checkpoints past the edit-log bound collapse back to a snapshot
        for i in range(MANIFEST_EDIT_LIMIT + 4):
            again.insert([20 + i, 21 + i, 22 + i, 23 + i, 24 + i])
            again.snapshot()
        final_state = logical_state(again)
        final_answers = answers(again, random.Random(2))
        again.close()
        log = ManifestLog(tmp_path / MANIFEST_FILENAME)
        assert log.load() is not None
        assert log.edits < MANIFEST_EDIT_LIMIT

        # and the compacted log reproduces the same answers
        reopened = LiveCollection.open(tmp_path, memtable_threshold=4)
        assert logical_state(reopened) == final_state
        assert answers(reopened, random.Random(2)) == final_answers
        reopened.close()

    @pytest.mark.parametrize(
        "files", [JSON_ERA_FILES, SNAPSHOT_ERA_FILES, WAL_ONLY_FILES],
        ids=["manifest+runs+wal", "snapshot+wal", "wal-only"],
    )
    def test_any_json_era_mix_upgrades_and_converges(self, tmp_path, files):
        write_files(tmp_path, files)
        reference = from_scratch()
        with LiveCollection.open(tmp_path, memtable_threshold=4) as upgraded:
            assert logical_state(upgraded) == logical_state(reference)
            assert answers(upgraded, random.Random(4)) == answers(reference, random.Random(4))
        assert not {"wal.jsonl", "manifest.json", "snapshot.json"} & set(json_era_names(tmp_path))
        # a crash before the unlinks: the JSON control files are back next to
        # manifest.rbf — reopening converges to the same state and drops them
        write_files(
            tmp_path, {name: text for name, text in files.items() if "/" not in name}
        )
        with LiveCollection.open(tmp_path, memtable_threshold=4) as reopened:
            assert reopened.stats().replayed == 0
            assert logical_state(reopened) == logical_state(reference)
            assert reopened.compact() is True
        assert json_era_names(tmp_path) == []
        with LiveCollection.open(tmp_path, memtable_threshold=4) as final:
            assert answers(final, random.Random(4)) == answers(reference, random.Random(4))

    @pytest.mark.parametrize(
        "name, damaged, error",
        [
            ("segments/segment-0.json", '{"keys":[3,4,5,6],"items":[[5,', CorruptManifestError),
            ("base-0.json", '{"items":[[1,2,3,4,5]]}', CorruptManifestError),
            ("manifest.json", '{"format":1,"k":5,"next_key":7}', CorruptManifestError),
            ("snapshot.json", '{"k":5,"next_key":7,"entries":[[0,[1,2,3,4,5]]]}', CorruptManifestError),
            (
                "wal.jsonl",
                '{"seq":9,"op":"insert","key":7}\n{"seq":10,"op":"delete","key":5}\n',
                CorruptWalError,
            ),
            ("wal.jsonl", b'\xff\xfe\n{"seq":9,"op":"delete","key":5}\n', CorruptWalError),
        ],
        ids=[
            "truncated-run", "run-missing-key", "manifest", "snapshot",
            "interior-wal-line", "non-utf8-wal-line",
        ],
    )
    def test_damaged_json_era_file_is_a_typed_error(self, tmp_path, name, damaged, error):
        files = SNAPSHOT_ERA_FILES if name == "snapshot.json" else JSON_ERA_FILES
        write_files(tmp_path, {**files, name: damaged})
        with pytest.raises(error) as excinfo:
            LiveCollection.open(tmp_path)
        assert excinfo.value.path == tmp_path / name

    def test_wal_torn_tail_recovery_matches_json_semantics(self, tmp_path):
        live = LiveCollection.open(tmp_path, memtable_threshold=100)
        for i in range(10):
            live.insert([i, i + 10, i + 20, i + 30, i + 40])
        live.close()
        wal_path = tmp_path / WAL_FILENAME
        wal_path.write_bytes(wal_path.read_bytes()[:-4])
        reopened = LiveCollection.open(tmp_path)
        # the torn last insert is lost, everything durable before it survives
        assert len(reopened.live_keys()) == 9
        reopened.close()

    def test_unknown_format_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            LiveCollection.open(tmp_path, format="msgpack")

    def test_json_format_is_refused_naming_the_upgrade(self, tmp_path):
        with pytest.raises(ValueError, match="JSON writer is gone.*upgraded when opened"):
            LiveCollection.open(tmp_path, format="json")
        assert not directory_has_state(tmp_path)


class TestPureFallback:
    def test_pure_python_columns_read_numpy_written_directory(self, tmp_path, monkeypatch):
        from repro.codec import columns

        live = LiveCollection.open(tmp_path, memtable_threshold=4)
        churn(live, random.Random(6), 40)
        expected = logical_state(live)
        live.close()

        monkeypatch.setattr(columns, "_numpy", None)
        reopened = LiveCollection.open(tmp_path, memtable_threshold=4)
        assert logical_state(reopened) == expected
        churn(reopened, random.Random(7), 20)
        state = logical_state(reopened)
        reopened.close()
        monkeypatch.undo()

        # numpy reads what the pure fallback wrote
        final = LiveCollection.open(tmp_path, memtable_threshold=4)
        assert logical_state(final) == state
        final.close()
