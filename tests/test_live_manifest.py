"""Manifest unit tests: payload round trips, runs, corruption."""

from __future__ import annotations

import pytest

from repro.core.ranking import RankingSet
from repro.live import legacy_json
from repro.live.manifest import (
    MANIFEST_FILENAME,
    CorruptManifestError,
    Manifest,
    ManifestLog,
    base_filename,
    read_run,
    segment_filename,
    write_run,
)


def sample_manifest() -> Manifest:
    return Manifest(
        k=5,
        next_key=42,
        covered_seq=117,
        base=base_filename(3),
        segments=[(7, segment_filename(7)), (9, segment_filename(9))],
        base_tombstones=(1, 4),
        segment_tombstones={7: (0, 2)},
    )


def test_payload_round_trip(tmp_path):
    manifest = sample_manifest()
    ManifestLog(tmp_path / MANIFEST_FILENAME).rewrite(manifest)
    assert ManifestLog(tmp_path / MANIFEST_FILENAME).load() == manifest


def test_referenced_files_cover_base_and_segments():
    manifest = sample_manifest()
    assert manifest.referenced_files() == frozenset(
        {base_filename(3), segment_filename(7), segment_filename(9)}
    )
    assert Manifest().referenced_files() == frozenset()


def test_empty_manifest_round_trip(tmp_path):
    ManifestLog(tmp_path / MANIFEST_FILENAME).rewrite(Manifest())
    loaded = ManifestLog(tmp_path / MANIFEST_FILENAME).load()
    assert loaded.k is None
    assert loaded.base is None
    assert loaded.segments == []
    assert loaded.covered_seq == 0


def test_corrupt_manifest_raises(tmp_path):
    path = tmp_path / legacy_json.MANIFEST_FILENAME
    path.write_text("{ not json", encoding="utf-8")
    with pytest.raises(CorruptManifestError):
        legacy_json.load_manifest(path)
    path.write_text('["a", "list"]', encoding="utf-8")
    with pytest.raises(CorruptManifestError):
        legacy_json.load_manifest(path)
    path.write_text('{"format": 99, "k": 3}', encoding="utf-8")
    with pytest.raises(CorruptManifestError):
        legacy_json.load_manifest(path)


def test_run_round_trip_preserves_row_order(tmp_path):
    rankings = RankingSet.from_lists([[1, 2, 3], [9, 8, 7], [4, 5, 6]])
    keys = (10, 3, 7)  # deliberately not sorted: row order is authoritative
    path = tmp_path / "run.rbf"
    write_run(path, keys, rankings)
    loaded_keys, loaded_rankings = read_run(path)
    assert loaded_keys == keys
    assert [tuple(loaded_rankings[rid].items) for rid in range(3)] == [
        (1, 2, 3), (9, 8, 7), (4, 5, 6),
    ]


def test_run_with_mismatched_lengths_raises(tmp_path):
    path = tmp_path / "run.json"
    path.write_text('{"keys": [1, 2], "items": [[1, 2, 3]]}', encoding="utf-8")
    with pytest.raises(CorruptManifestError):
        read_run(path)
