"""Background compaction: fold segments and tombstones into a fresh base.

Compaction takes an immutable snapshot of the current base epoch, the sealed
segments, and the tombstone set; merges the surviving ``(key, ranking)``
pairs in ascending key order; and builds a fresh
:class:`~repro.service.sharding.ShardedIndex` over them — all outside the
collection lock, so mutations and queries proceed while the new epoch is
under construction.

The swap step reconciles whatever happened during the build: keys still
pointing into a consumed layer are repointed to the new base; keys deleted
or rewritten mid-build leave a stale copy in the new base, which is
tombstoned immediately (epoch tags keep old and new base tombstones apart).
Tombstones of consumed layers are discarded — compaction is what finally
reclaims them.

One compaction runs at a time; ``background=True`` moves triggered runs onto
a daemon thread while :meth:`Compactor.run` stays available for synchronous
callers (tests, the CLI, snapshots).

On a durable collection the swap is also a checkpoint: the new epoch's run
is spilled to disk *before* the swap publishes it, the manifest is rewritten
under the collection lock to name the new base and drop the consumed
segments, and the superseded run files are deleted afterwards — so a crash
at any point leaves either the old checkpoint or the new one, with orphaned
files garbage-collected on the next open.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Optional

import time

from repro.core.ranking import RankingSet
from repro.live.manifest import base_filename, write_run
from repro.obs import names as metric_names
from repro.obs.metrics import get_registry
from repro.service.sharding import ShardedIndex

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.live.collection import LiveCollection


class Compactor:
    """Merges a :class:`LiveCollection`'s immutable layers into a new base.

    Parameters
    ----------
    collection:
        The collection whose layers are compacted (the compactor reaches
        into its internals; both live in ``repro.live``).
    background:
        When true, :meth:`maybe_trigger` starts runs on a daemon thread
        instead of blocking the mutating caller.
    """

    def __init__(self, collection: "LiveCollection", background: bool = False) -> None:
        self._collection = collection
        self._background = background
        registry = get_registry()
        self._m_runs = registry.counter(
            metric_names.COMPACTIONS_TOTAL, "Compaction runs that actually merged layers."
        )
        self._m_seconds = registry.histogram(
            metric_names.COMPACTION_SECONDS, "Wall time of one compaction run."
        )
        self._running = False  # guarded-by: _collection._lock
        self._idle = threading.Event()  # cleared while a run (any mode) is in flight
        self._idle.set()
        self._thread: Optional[threading.Thread] = None

    # -- triggering ----------------------------------------------------------------

    def maybe_trigger(self) -> None:
        """Start a compaction when the segment count exceeds the threshold."""
        collection = self._collection
        with self._collection._lock:
            needed = len(collection._segments) > collection._max_segments
            if not needed or self._running:
                return
            if self._background:
                self._claim_locked()
                self._thread = threading.Thread(
                    target=self._run_claimed, name="repro-compactor", daemon=True
                )
                self._thread.start()
                return
        self.run()

    def join(self) -> None:
        """Wait for an in-flight compaction (inline or background) to finish."""
        self._idle.wait()
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join()

    def run(self, wait: bool = True) -> bool:
        """Run one compaction now; returns whether one actually ran.

        If a run is already in flight — inline on another thread or on the
        background thread — waits for it (``wait=True``) instead of
        starting a second one.
        """
        collection = self._collection
        with self._collection._lock:
            if self._running:
                in_flight = True
            else:
                self._claim_locked()
                in_flight = False
        if in_flight:
            if wait:
                self.join()
            return False
        return self._run_claimed()

    def _claim_locked(self) -> None:
        """Mark a run as in flight (caller holds the collection lock)."""
        self._running = True
        self._idle.clear()

    def _run_claimed(self) -> bool:
        """Execute a run whose ``_running`` flag the caller already claimed."""
        try:
            return self._compact()
        finally:
            with self._collection._lock:
                self._running = False
                self._idle.set()

    # -- the merge -----------------------------------------------------------------

    def _compact(self) -> bool:
        started = time.perf_counter()
        ran = self._compact_inner()
        if ran:
            self._m_runs.inc()
            self._m_seconds.observe(time.perf_counter() - started)
        return ran

    def _compact_inner(self) -> bool:
        collection = self._collection
        # 1. snapshot the immutable layers under the lock
        with collection._lock:
            base = collection._base
            base_keys = collection._base_keys
            base_epoch = collection._base_epoch
            segments = dict(collection._segments)
            tombstones = collection._tombstones.snapshot()
            base_dead = collection._tombstones.count_for(("base", base_epoch))
            if not segments and base_dead == 0:
                return False  # nothing to merge, nothing to reclaim
        # 2. merge + rebuild outside the lock (mutations/queries keep flowing)
        merged: list[tuple[int, object]] = []
        if base is not None:
            for rid, key in enumerate(base_keys):
                if ("base", base_epoch, rid) not in tombstones:
                    merged.append((key, base.rankings[rid]))
        for segment_id, segment in segments.items():
            for local_rid, key in enumerate(segment.keys):
                if ("seg", segment_id, local_rid) not in tombstones:
                    merged.append((key, segment.rankings[local_rid]))
        merged.sort(key=lambda entry: entry[0])
        new_keys = tuple(key for key, _ in merged)
        new_epoch = base_epoch + 1  # only compaction bumps it, one run at a time
        if merged:
            rankings = RankingSet.from_rankings(ranking for _, ranking in merged)
            new_base: Optional[ShardedIndex] = ShardedIndex.build(
                rankings, num_shards=collection._num_shards
            )
        else:
            rankings = None
            new_base = None
        # spill the new epoch's run before publishing it: if we crash here,
        # the manifest still names the old layers and the file is an orphan
        directory = collection._directory
        new_base_file: Optional[str] = None
        if directory is not None and new_base is not None:
            new_base_file = base_filename(new_epoch)
            write_run(directory / new_base_file, new_keys, rankings)
        # 3. swap the new epoch in, reconciling mutations that raced the build
        consumed = {("base", base_epoch)} | {("seg", segment_id) for segment_id in segments}
        with collection._lock:
            for rid, key in enumerate(new_keys):
                location = collection._current.get(key)
                if location is not None and location[:2] in consumed:
                    collection._current[key] = ("base", new_epoch, rid)
                else:
                    # deleted or rewritten while we were building: stale copy
                    collection._tombstones.add(("base", new_epoch, rid))
            for layer in consumed:
                collection._tombstones.discard_layer(layer)
            for segment_id in segments:
                del collection._segments[segment_id]
            old_base = collection._base
            old_base_file = collection._base_file
            doomed_files = [
                collection._segment_files.pop(segment_id)
                for segment_id in segments
                if segment_id in collection._segment_files
            ]
            collection._base = new_base
            collection._base_keys = new_keys
            collection._base_epoch = new_epoch
            collection._base_file = new_base_file
            collection._version += 1
            collection._stats.compactions += 1
            if directory is not None:
                # with an empty memtable the sealed layers are complete
                # through every accepted record; otherwise the covered
                # boundary stays at the last flush checkpoint
                covered = (
                    collection._seq
                    if len(collection._memtable) == 0
                    else collection._covered_seq
                )
                collection._write_manifest_locked(covered_seq=covered)
        if old_base is not None:
            old_base.close()
        if directory is not None:
            # the manifest no longer references the consumed runs
            if old_base_file is not None:
                (directory / old_base_file).unlink(missing_ok=True)
            for filename in doomed_files:
                (directory / filename).unlink(missing_ok=True)
        return True

    def __repr__(self) -> str:
        return f"Compactor(background={self._background}, running={self._running})"  # repro: noqa[guarded-by] racy repr read, diagnostic only
