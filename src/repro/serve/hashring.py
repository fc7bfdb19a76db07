"""Consistent-hash ring: object → shard routing with minimal churn.

The service used to place objects with a bare ``CRC32 % shards``.
That partition is stable and hash-seed independent, but resizing it
reshuffles almost every key: going from ``n`` to ``n + 1`` shards moves
an expected ``n / (n + 1)`` of all objects — the worst possible
migration bill for an elastic fleet. A consistent-hash ring fixes
exactly that: each shard owns ``replicas`` pseudo-random points on a
2⁶⁴ circle, an object belongs to the shard owning the first point at
or after the object's own hash, and adding (removing) one shard only
moves the keys that fall into (out of) that shard's arcs — an expected
``K / n`` of ``K`` keys, the classic Karger bound.

Determinism rules (the same contract ``shard_index`` always had):

- points come from SHA-256, never ``hash()`` — placement is identical
  across processes and ``PYTHONHASHSEED`` values;
- ties (two shards hashing to one point) break on the smaller shard
  id, so a ring built by any insertion order routes identically.

``replicas`` trades lookup-table size against balance: with ``r``
points per shard, per-shard load concentrates around ``1/n`` with
relative spread ``O(1/√r)``; the default of 128 keeps a 4-shard ring
within a few percent of even.

A ring's membership is fixed when it is built, so the memo never goes
stale and one ring per fleet size can be shared: every service of a
size and :func:`~repro.serve.service.shard_index` route through the
same ring. Lookups are memoized because the service routes every
submitted op, and a hit in the memo skips the SHA-256. The memo is a
bounded LRU (:data:`ROUTE_MEMO_SIZE` keys) because clients choose the
object names.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
from typing import Iterable, Iterator

__all__ = ["HashRing", "ring_hash"]

#: default virtual-node count per shard (see module docstring)
DEFAULT_REPLICAS = 128

#: routing-memo bound, in keys (see module docstring)
ROUTE_MEMO_SIZE = 1 << 16


def ring_hash(data: str) -> int:
    """Position of ``data`` on the 2⁶⁴ circle (SHA-256, seed-free)."""
    digest = hashlib.sha256(data.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Consistent-hash ring over a fixed set of integer shard ids."""

    def __init__(
        self, shard_ids: Iterable[int] = (), replicas: int = DEFAULT_REPLICAS
    ) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = replicas
        shards = sorted(shard_ids)
        for a, b in zip(shards, shards[1:]):
            if a == b:
                raise ValueError(f"shard {a} already on the ring")
        self._shards = tuple(shards)
        #: sorted (point, shard_id) pairs — the lookup table; ties break
        #: on the pair's second element: smaller shard id wins
        self._points = sorted(
            (ring_hash(f"shard:{sid}#{r}"), sid) for sid in shards for r in range(replicas)
        )
        #: key → shard memo of :meth:`_locate`
        self._route = functools.lru_cache(maxsize=ROUTE_MEMO_SIZE)(self._locate)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def shard_for(self, key: str) -> int:
        """The shard owning ``key``: first ring point at/after its hash."""
        return self._route(str(key))

    def _locate(self, key: str) -> int:
        if not self._points:
            raise LookupError("empty hash ring")
        h = ring_hash(key)
        # strictly-after points of h itself still route to h's owner:
        # search on (h, -1) so an exact point hit resolves to that point
        i = bisect.bisect_left(self._points, (h, -1))
        if i == len(self._points):  # wrap past twelve o'clock
            i = 0
        return self._points[i][1]

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def shards(self) -> tuple[int, ...]:
        """The ring's shard ids, ascending."""
        return self._shards

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, shard_id: object) -> bool:
        return shard_id in self._shards

    def __iter__(self) -> Iterator[int]:
        return iter(self._shards)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"HashRing(shards={self.shards}, replicas={self.replicas})"
