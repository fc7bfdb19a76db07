#!/usr/bin/env python3
"""Service tour: the tracking service's sharding, coalescing and backpressure.

Starts a two-shard :class:`~repro.serve.TrackingService` on an 8x8
sensor grid, publishes two objects (printing the shard each one hashes
to), moves one, sends two identical queries back to back so the shard
answers them with one spine walk, then floods one shard's bounded
queue until admission control rejects with ``Overloaded`` — and
drains gracefully, every admitted operation answered.

Run:  python examples/service_tour.py
"""

from __future__ import annotations

import asyncio

from repro import grid_network
from repro.serve import (
    Overloaded,
    QueryRequest,
    ServiceClient,
    ServiceConfig,
    TrackingService,
    shard_index,
)


def main() -> None:
    net = grid_network(8, 8)
    config = ServiceConfig(shards=2, batch_size=4, queue_capacity=4)
    service = TrackingService(net, config, seed=0)

    async def tour() -> None:
        async with service:
            client = ServiceClient(service)
            for name, start in (("tiger", 0), ("heron", 63)):
                resp = await client.publish(name, net.node_at(start))
                print(f"published {name!r} at sensor {net.node_at(start)} "
                      f"-> shard {shard_index(name, config.shards)} "
                      f"(cost {resp.cost:.0f})")
            await client.move("tiger", net.node_at(9))
            # two duplicate in-flight queries: submitted back to back so
            # the shard drains them in one batch and answers once
            f1 = service.submit_nowait(QueryRequest("tiger", net.node_at(63)))
            f2 = service.submit_nowait(QueryRequest("tiger", net.node_at(63)))
            r1, r2 = await f1, await f2
            print(f"two concurrent queries for 'tiger': both answered "
                  f"proxy={r1.proxy}; second coalesced={r2.coalesced}")
            # overfill one shard's bounded queue to show backpressure
            rejected = 0
            for k in range(32):
                try:
                    service.submit_nowait(QueryRequest("tiger", net.node_at(k % 64)))
                except Overloaded as exc:
                    if rejected == 0:
                        print(f"backpressure: {exc.reason} rejection, "
                              f"retry after {exc.retry_after_s:.3f}s")
                    rejected += 1
            print(f"admitted {32 - rejected} of 32 burst queries, "
                  f"rejected {rejected} (queue capacity "
                  f"{config.queue_capacity}); draining gracefully...")

    asyncio.run(tour())
    m = service.metrics
    print(f"drained: {m.total_completed} ops completed, "
          f"{m.queries_coalesced} queries coalesced, "
          f"{m.total_rejected} rejected")


if __name__ == "__main__":
    main()
