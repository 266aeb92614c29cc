"""Brute-force Footrule reference over the logical collection.

The harness keeps this dict beside every mutation it sends; the program's
answers must equal what a scan of the dict gives — byte for byte for a range
query (the canonical JSON of ``Response.result_bytes()``), and the identical
``(rid, distance)`` list for k-NN.  Nothing here imports ``repro``: the
distance, the qualification test, the tie order and the canonical encoding
are all restated, so a bug in any of them shows as a mismatch.
"""

from __future__ import annotations

import heapq
import json
from typing import Iterable, Sequence


def footrule_raw(query_ranks: dict[int, int], items: Sequence[int], k: int) -> int:
    """Raw top-k Footrule: an item missing from a list takes rank ``k``."""
    # every query item starts as "missing from the other list" (k - its rank,
    # summing to k(k+1)/2); a shared item takes that back and pays |difference|
    distance = k * (k + 1) // 2
    for rank, item in enumerate(items):
        query_rank = query_ranks.get(item)
        if query_rank is None:
            distance += k - rank
        else:
            distance += abs(query_rank - rank) - (k - query_rank)
    return distance


class Oracle:
    """The logical collection: ``key -> items``, answered by exhaustive scan."""

    def __init__(self, k: int, rows: Iterable[tuple[int, Sequence[int]]] = ()) -> None:
        self.k = k
        self.rows: dict[int, tuple[int, ...]] = {key: tuple(items) for key, items in rows}

    def put(self, key: int, items: Sequence[int]) -> None:
        self.rows[key] = tuple(items)

    def delete(self, key: int) -> None:
        del self.rows[key]

    def __len__(self) -> int:
        return len(self.rows)

    def _scan(self, query: Sequence[int]) -> list[tuple[int, int]]:
        """``(raw distance, key)`` of every ranking."""
        ranks = {item: rank for rank, item in enumerate(query)}
        return [(footrule_raw(ranks, items, self.k), key) for key, items in self.rows.items()]

    def range(self, query: Sequence[int], theta: float) -> list[tuple[int, float]]:
        """``(rid, distance)`` of every ranking within ``theta``, by (distance, rid)."""
        maximum = self.k * (self.k + 1)
        hits = sorted(pair for pair in self._scan(query) if pair[0] <= theta * maximum)
        return [(key, raw / maximum) for raw, key in hits]

    def knn(self, query: Sequence[int], n: int) -> list[tuple[int, float]]:
        """The ``n`` nearest ``(rid, distance)``, ties broken by rid."""
        maximum = self.k * (self.k + 1)
        return [(key, raw / maximum) for raw, key in heapq.nsmallest(n, self._scan(query))]

    def result_bytes(self, answer: list[tuple[int, float]]) -> bytes:
        """The canonical bytes a correct match-list response must have."""
        payload = {
            "ok": True,
            "matches": [
                {"rid": rid, "distance": distance, "items": list(self.rows[rid])}
                for rid, distance in answer
            ],
        }
        return json.dumps(
            payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False
        ).encode("utf-8")
