"""Live-update store: LSM-style mutable collection over the search stack.

The rest of the library serves frozen :class:`~repro.core.ranking.RankingSet`
collections; this package makes the collection *mutable at service speed*
without giving up exact answers:

Layering (write path top to bottom)::

    wal.py         RBF write-ahead log: no-sync / per-record fsync /
                   group-commit durability modes
    memtable.py    recent writes, answered by exact brute-force scan
    segment.py     sealed immutable runs indexed by any registry algorithm,
                   spilled to disk on durable collections
    tombstones.py  superseded locations filtering segment/base answers
    manifest.py    which persisted runs + tombstones make up a checkpoint
                   and the WAL sequence they cover
    legacy_json.py read-only loaders for JSON-era directories (upgraded
                   to RBF when opened)
    compactor.py   background merge into a fresh ShardedIndex base epoch
    collection.py  LiveCollection facade: insert/delete/upsert/query/knn,
                   flush/compact, snapshot/restore, auto-snapshot policy
    engine.py      LiveQueryEngine: cached serving with per-epoch invalidation

The guarantee throughout: after any interleaving of mutations, flushes, and
compactions, query answers equal a from-scratch index over the logical
collection — and after a restart, the recovered state equals the logical
state at the last durable WAL record.
"""

from repro.live.collection import (
    DEFAULT_LIVE_ALGORITHM,
    LiveCollection,
    LiveStats,
    directory_has_state,
)
from repro.live.compactor import Compactor
from repro.live.engine import LiveQueryEngine
from repro.live.manifest import CorruptManifestError, Manifest
from repro.live.memtable import MemTable
from repro.live.segment import Segment
from repro.live.tombstones import TombstoneSet
from repro.live.wal import CorruptWalError, WalRecord, WriteAheadLog

__all__ = [
    "Compactor",
    "CorruptManifestError",
    "CorruptWalError",
    "DEFAULT_LIVE_ALGORITHM",
    "LiveCollection",
    "LiveQueryEngine",
    "LiveStats",
    "Manifest",
    "MemTable",
    "Segment",
    "TombstoneSet",
    "WalRecord",
    "WriteAheadLog",
    "directory_has_state",
]
