"""Consistent-hash ring properties: determinism, balance, minimal churn.

The routing contract the service depends on:

- placement is a pure function of the key and the fleet — identical
  across processes, insertion orders, and ``PYTHONHASHSEED`` values;
- growing the fleet from ``n`` to ``n + 1`` shards moves ~``K/n`` of
  ``K`` keys (the Karger bound), and every moved key lands on the *new*
  shard — no key ever shuffles between surviving shards;
- removing a shard relocates only that shard's keys;
- the lookup memo is bounded (clients choose the keys) and never
  changes an answer;
- membership is fixed at construction, so every service of one fleet
  size and ``shard_index`` share one ring.
"""

import os
import subprocess
import sys

import pytest

from repro.graphs.generators import grid_network
from repro.serve import ServiceConfig, TrackingService, hashring, service, shard_index
from repro.serve.hashring import ROUTE_MEMO_SIZE, HashRing, ring_hash

KEYS = [f"obj-{i}" for i in range(2000)]


class TestDeterminism:
    def test_ring_hash_values_are_pinned(self):
        # any change to the point hash silently remaps every persisted
        # placement (snapshots, split assignments) — pin it
        assert ring_hash("obj-0") == 9919721417370829493
        assert ring_hash("shard:0#0") == 15135946660776987391

    def test_placement_survives_pythonhashseed(self):
        script = (
            "from repro.serve.hashring import HashRing; "
            "ring = HashRing(range(5)); "
            "print([ring.shard_for('obj-%d' % i) for i in range(200)])"
        )
        outputs = set()
        for seed in ("0", "1", "424242"):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1

    def test_insertion_order_does_not_matter(self):
        forward = HashRing(range(4))
        shuffled = HashRing([3, 1, 0, 2])
        assert forward.shards == shuffled.shards == (0, 1, 2, 3)
        for key in KEYS[:300]:
            assert forward.shard_for(key) == shuffled.shard_for(key)

    def test_shard_index_matches_the_ring(self):
        # the module-level helper and a service's own ring must agree
        for shards in (1, 2, 4, 7):
            ring = HashRing(range(shards))
            for key in KEYS[:100]:
                assert shard_index(key, shards) == ring.shard_for(key)


class TestBalance:
    def test_every_shard_gets_a_fair_arc(self):
        ring = HashRing(range(4))
        counts = {sid: 0 for sid in ring}
        for key in KEYS:
            counts[ring.shard_for(key)] += 1
        for sid, n in counts.items():
            # ideal share is 25%; the O(1/sqrt(replicas)) arc spread at
            # 128 replicas keeps every shard well inside [15%, 35%]
            assert 0.15 * len(KEYS) <= n <= 0.35 * len(KEYS), (sid, n)


class TestChurn:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_adding_a_shard_moves_about_k_over_n_keys(self, n):
        before = HashRing(range(n))
        after = HashRing(range(n + 1))
        moved = [k for k in KEYS if before.shard_for(k) != after.shard_for(k)]
        expected = len(KEYS) / (n + 1)
        # CRC32 % shards (the old router) moved ~n/(n+1) of all keys;
        # the ring stays within 2x of the Karger expectation
        assert len(moved) < 2 * expected
        # and every moved key lands on the new shard, never between
        # survivors
        assert all(after.shard_for(k) == n for k in moved)

    def test_removing_a_shard_moves_only_its_keys(self):
        full = HashRing(range(4))
        without_2 = HashRing([0, 1, 3])
        for key in KEYS:
            if full.shard_for(key) == 2:
                assert without_2.shard_for(key) != 2
            else:
                assert without_2.shard_for(key) == full.shard_for(key)


class TestMembership:
    def test_duplicate_ids_raise(self):
        with pytest.raises(ValueError, match="shard 2 already on the ring"):
            HashRing([2, 0, 2])

    def test_empty_ring_lookup_raises(self):
        with pytest.raises(LookupError):
            HashRing().shard_for("obj-0")

    def test_replicas_must_be_positive(self):
        with pytest.raises(ValueError, match="replicas"):
            HashRing(replicas=0)

    def test_introspection(self):
        ring = HashRing([2, 0])
        assert len(ring) == 2
        assert 0 in ring and 2 in ring and 1 not in ring
        assert list(ring) == [0, 2]
        assert ring.shards == (0, 2)


class TestRoutingMemo:
    @staticmethod
    def memo_size(ring: HashRing) -> int:
        return ring._route.cache_info().currsize

    def test_unseen_names_leave_the_memo_at_its_bound(self):
        ring = HashRing(range(4))
        for i in range(100_000):
            ring.shard_for(f"client-chosen-{i}")
        assert self.memo_size(ring) == ROUTE_MEMO_SIZE

    @pytest.mark.parametrize("bound", [ROUTE_MEMO_SIZE, 64])
    def test_memoized_lookups_agree_with_a_fresh_ring(self, monkeypatch, bound):
        # the small bound evicts on almost every lookup of the second pass
        monkeypatch.setattr(hashring, "ROUTE_MEMO_SIZE", bound)
        keys = [f"key-{i}" for i in range(10_000)]
        ring = HashRing(range(7))
        for key in keys:
            ring.shard_for(key)
        memoized = [ring.shard_for(key) for key in keys]
        assert self.memo_size(ring) == min(bound, len(keys))
        fresh = HashRing(range(7))
        assert memoized == [fresh.shard_for(key) for key in keys]

    def test_shard_index_matches_the_service_routing(self):
        svc = TrackingService(grid_network(3, 3), ServiceConfig(shards=4), seed=1)
        for _ in range(2):  # a cold pass, then a memoized one
            for key in KEYS[:500]:
                assert svc.shard_of(key).shard_id == shard_index(key, 4)

    def test_services_and_shard_index_share_one_ring_per_size(self):
        net = grid_network(3, 3)
        a = TrackingService(net, ServiceConfig(shards=5), seed=1)
        b = TrackingService(net, ServiceConfig(shards=5), seed=2)
        shard_index("obj-0", 5)
        assert a.ring is b.ring is service._DEFAULT_RINGS[5]
        assert TrackingService(net, ServiceConfig(shards=3), seed=1).ring is not a.ring
