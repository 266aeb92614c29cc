"""Write-ahead log unit tests: append/replay, tails, corruption, group-commit."""

from __future__ import annotations

import time

import pytest

from repro.live import legacy_json
from repro.live.wal import CorruptWalError, WalRecord, WriteAheadLog


def make_records(count: int) -> list[WalRecord]:
    records = []
    for seq in range(1, count + 1):
        if seq % 3 == 0:
            records.append(WalRecord(seq=seq, op="delete", key=seq - 1))
        else:
            records.append(WalRecord(seq=seq, op="insert", key=seq - 1, items=(seq, seq + 1, seq + 2)))
    return records


def test_append_replay_round_trip(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.rbf")
    records = make_records(7)
    for record in records:
        wal.append(record)
    wal.close()
    assert list(wal.replay()) == records


def test_replay_skips_up_to_sequence(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.rbf")
    records = make_records(10)
    for record in records:
        wal.append(record)
    tail = list(wal.replay(after_seq=6))
    assert [record.seq for record in tail] == [7, 8, 9, 10]
    assert list(wal.replay(after_seq=10)) == []


def test_replay_of_missing_file_is_empty(tmp_path):
    wal = WriteAheadLog(tmp_path / "never-created.rbf")
    assert list(wal.replay()) == []
    assert wal.last_seq() == 0
    assert not wal.exists


def test_last_seq_reports_newest_record(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.rbf")
    for record in make_records(5):
        wal.append(record)
    assert wal.last_seq() == 5


def tear(path) -> None:
    """Append the first bytes of a record: a crash mid-append."""
    with open(path, "ab") as handle:
        handle.write(WalRecord(seq=99, op="insert", key=98, items=(1, 2, 3)).to_record()[:11])


def test_torn_final_line_is_tolerated(tmp_path):
    path = tmp_path / "wal.rbf"
    wal = WriteAheadLog(path)
    records = make_records(4)
    for record in records:
        wal.append(record)
    wal.close()
    tear(path)
    assert list(wal.replay()) == records


def test_append_after_torn_tail_repairs_the_log(tmp_path):
    """A post-crash append must not glue onto the torn record (data loss)."""
    path = tmp_path / "wal.rbf"
    wal = WriteAheadLog(path)
    records = make_records(2)
    for record in records:
        wal.append(record)
    wal.close()
    intact = path.read_bytes()
    tear(path)
    reopened = WriteAheadLog(path)
    fresh = WalRecord(seq=3, op="insert", key=2, items=(7, 8, 9))
    reopened.append(fresh)
    reopened.close()
    # the torn bytes are gone and the new record is a committed, decodable tail
    assert list(reopened.replay()) == records + [fresh]
    assert path.read_bytes() == intact + fresh.to_record()


def test_interior_corruption_raises(tmp_path):
    path = tmp_path / "wal.rbf"
    wal = WriteAheadLog(path)
    for record in make_records(4):
        wal.append(record)
    wal.close()
    raw = bytearray(path.read_bytes())
    raw[len(make_records(1)[0].to_record()) + 20] ^= 0xFF  # inside the second record
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptWalError) as excinfo:
        list(wal.replay())
    assert excinfo.value.line_number == 2


def test_truncate_through_drops_covered_records(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.rbf")
    for record in make_records(10):
        wal.append(record)
    kept = wal.truncate_through(7)
    assert kept == 3
    assert [record.seq for record in wal.replay()] == [8, 9, 10]
    # appending after a truncation keeps working
    wal.append(WalRecord(seq=11, op="delete", key=1))
    assert wal.last_seq() == 11
    wal.close()


def test_truncate_through_everything_leaves_empty_log(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.rbf")
    for record in make_records(4):
        wal.append(record)
    assert wal.truncate_through(4) == 0
    assert list(wal.replay()) == []
    assert wal.exists  # the file stays, just empty
    wal.close()


def test_unknown_operation_is_rejected():
    with pytest.raises(ValueError):
        legacy_json.record_from_json('{"seq": 1, "op": "truncate", "key": 0}')


def test_insert_requires_items():
    with pytest.raises(ValueError):
        legacy_json.record_from_json('{"seq": 1, "op": "insert", "key": 0}')


def test_reopened_log_appends_after_existing_records(tmp_path):
    path = tmp_path / "wal.rbf"
    with WriteAheadLog(path) as wal:
        for record in make_records(3):
            wal.append(record)
    with WriteAheadLog(path) as wal:
        wal.append(WalRecord(seq=4, op="insert", key=3, items=(9, 8, 7)))
        assert [record.seq for record in wal.replay()] == [1, 2, 3, 4]


def test_delete_record_drops_payload():
    record = legacy_json.record_from_json('{"seq": 2, "op": "delete", "key": 5, "items": [1, 2]}')
    assert record == WalRecord(seq=2, op="delete", key=5)


# -- durability modes ---------------------------------------------------------------


def test_durability_mode_is_inferred_from_configuration(tmp_path):
    assert WriteAheadLog(tmp_path / "a.rbf").durability == "no-sync"
    assert WriteAheadLog(tmp_path / "b.rbf", sync=True).durability == "fsync"
    assert WriteAheadLog(tmp_path / "c.rbf", commit_batch=8).durability == "group-commit"
    assert WriteAheadLog(tmp_path / "d.rbf", commit_interval=1.0).durability == "group-commit"


def test_invalid_commit_configuration_rejected(tmp_path):
    with pytest.raises(ValueError):
        WriteAheadLog(tmp_path / "wal.rbf", commit_batch=0)
    with pytest.raises(ValueError):
        WriteAheadLog(tmp_path / "wal.rbf", commit_interval=0.0)


def test_fsync_mode_commits_every_record(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.rbf", sync=True)
    for record in make_records(5):
        wal.append(record)
    assert wal.commits == 5
    assert wal.durable_seq == wal.appended_seq == 5
    assert wal.pending_records == 0
    wal.close()


def test_group_commit_batches_fsyncs(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.rbf", commit_batch=4)
    for record in make_records(10):
        wal.append(record)
    # two full batches committed, two records still pending
    assert wal.commits == 2
    assert wal.durable_seq == 8
    assert wal.appended_seq == 10
    assert wal.pending_records == 2
    wal.sync()
    assert wal.durable_seq == 10
    assert wal.pending_records == 0
    assert wal.commits == 3
    wal.sync()  # barrier with nothing pending is free
    assert wal.commits == 3
    wal.close()


def test_group_commit_interval_commits_an_aged_batch(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.rbf", commit_interval=0.02)
    records = make_records(3)
    wal.append(records[0])
    assert wal.durable_seq == 0  # batch just opened
    time.sleep(0.03)
    wal.append(records[1])  # append path notices the batch age
    assert wal.durable_seq == 2
    wal.append(records[2])
    assert wal.durable_seq == 2  # fresh batch, not old enough
    wal.close()


def test_group_commit_close_commits_the_tail(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.rbf", commit_batch=100)
    for record in make_records(3):
        wal.append(record)
    assert wal.durable_seq == 0
    wal.close()
    assert wal.durable_seq == 3  # clean shutdown is a barrier


def test_no_sync_mode_only_syncs_explicitly(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.rbf")
    for record in make_records(4):
        wal.append(record)
    assert wal.commits == 0
    assert wal.durable_seq == 0
    wal.sync()
    assert wal.durable_seq == 4
    assert wal.commits == 1
    wal.close()


def test_truncate_through_resets_batch_accounting(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.rbf", commit_batch=100)
    for record in make_records(6):
        wal.append(record)
    assert wal.pending_records == 6
    kept = wal.truncate_through(4)
    assert kept == 2
    # the fsynced rewrite made every kept record durable
    assert wal.pending_records == 0
    assert wal.durable_seq == wal.appended_seq == 6
    wal.append(WalRecord(seq=7, op="delete", key=0))
    assert [record.seq for record in wal.replay()] == [5, 6, 7]
    wal.close()


def test_record_count_scans_without_decoding(tmp_path):
    path = tmp_path / "wal.rbf"
    wal = WriteAheadLog(path)
    assert wal.record_count() == 0
    for record in make_records(5):
        wal.append(record)
    wal.close()
    assert wal.record_count() == 5
    tear(path)  # torn tail is not a record
    assert wal.record_count() == 5


def test_crash_after_commit_loses_nothing_before_the_barrier(tmp_path):
    """Truncating the file back to a commit point recovers every durable record.

    Simulates power loss: bytes written after the last ``fsync`` may vanish
    (here: all of them), and a torn suffix must not take committed records
    with it.
    """
    path = tmp_path / "wal.rbf"
    wal = WriteAheadLog(path, commit_batch=3)
    records = make_records(7)
    for record in records[:6]:
        wal.append(record)
    durable_size = path.stat().st_size  # seq 1..6 committed (two batches)
    wal.append(records[6])  # pending, not yet committed
    with open(path, "rb+") as handle:  # "crash": the un-fsynced suffix is lost
        handle.truncate(durable_size)
    survivor = WriteAheadLog(path)
    assert [record.seq for record in survivor.replay()] == [1, 2, 3, 4, 5, 6]
