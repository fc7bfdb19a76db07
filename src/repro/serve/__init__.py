"""repro.serve — an online tracking service over the MOT structure.

Everything below the package turns the offline tracker into a live
request-serving system, the ROADMAP's "serves heavy traffic" substrate:

- :mod:`repro.serve.protocol` — request/response records and the
  :class:`Overloaded` backpressure rejection;
- :mod:`repro.serve.clock` — wall vs deterministic virtual time;
- :mod:`repro.serve.shard` — :class:`TrackerShard`, the one shard
  front end: bounded-queue gauge, per-wakeup batching, one columnar
  engine call per drained batch with query coalescing;
- :mod:`repro.serve.hashring` — consistent-hash object → shard
  routing (SHA-256 ring, ~K/n key movement on resize);
- :mod:`repro.serve.transport` — length-prefixed pickle framing over
  socket pairs: the worker-process message boundary;
- :mod:`repro.serve.worker` — :class:`ShardWorker`, a shard's engine
  behind the frame protocol's handlers, reached by a direct call in
  process or, with ``workers > 0``, over a socket from a forked
  :func:`worker_main`;
- :mod:`repro.serve.snapshot` — shard snapshot/restore for
  crash-restart and migration;
- :mod:`repro.serve.service` — :class:`TrackingService`: admission
  control (token bucket + bounded queues), healthcheck and graceful
  drain;
- :mod:`repro.serve.client` — the async :class:`ServiceClient` API;
- :mod:`repro.serve.loadgen` — seeded open-loop arrival replay of
  :mod:`repro.sim.workload` traces at a target ops/s;
- :mod:`repro.serve.audit` — every shard's answers, epochs and ledger
  replayed against one sequential reference MOT
  (:func:`repro.core.batch.audit_replay`);
- :mod:`repro.serve.bench` — the ``python -m repro serve-bench``
  driver (JSON latency/throughput/audit report).

Minimal use::

    import asyncio
    from repro import grid_network
    from repro.serve import ServiceClient, TrackingService

    async def main():
        net = grid_network(8, 8)
        async with TrackingService(net, seed=1) as service:
            client = ServiceClient(service)
            await client.publish("tiger", proxy=net.node_at(0))
            await client.move("tiger", new_proxy=net.node_at(9))
            resp = await client.query("tiger", source=net.node_at(63))
            assert resp.proxy == net.node_at(9)

    asyncio.run(main())
"""

from repro.serve.audit import audit_service
from repro.serve.bench import ServeBenchConfig, run_serve_bench
from repro.serve.client import ServiceClient
from repro.serve.clock import VirtualClock, WallClock
from repro.serve.hashring import HashRing
from repro.serve.loadgen import Arrival, LoadgenResult, arrival_trace, replay, trace_digest
from repro.serve.metrics import ServiceMetrics
from repro.serve.protocol import (
    MoveRequest,
    OpResponse,
    Overloaded,
    PublishRequest,
    QueryRequest,
    kind_of,
)
from repro.serve.service import ServiceConfig, TokenBucket, TrackingService, shard_index
from repro.serve.shard import QueryRecord, TrackerShard, shard_sli
from repro.serve.snapshot import (
    ShardSnapshot,
    capture_snapshot,
    restore_snapshot,
    snapshot_from_bytes,
    snapshot_to_bytes,
)
from repro.serve.worker import ShardWorker, WorkerSpec

__all__ = [
    "audit_service",
    "ServeBenchConfig",
    "run_serve_bench",
    "ServiceClient",
    "VirtualClock",
    "WallClock",
    "Arrival",
    "LoadgenResult",
    "arrival_trace",
    "replay",
    "trace_digest",
    "ServiceMetrics",
    "MoveRequest",
    "OpResponse",
    "Overloaded",
    "PublishRequest",
    "QueryRequest",
    "kind_of",
    "ServiceConfig",
    "TokenBucket",
    "TrackingService",
    "shard_index",
    "QueryRecord",
    "TrackerShard",
    "shard_sli",
    "HashRing",
    "ShardSnapshot",
    "capture_snapshot",
    "restore_snapshot",
    "snapshot_to_bytes",
    "snapshot_from_bytes",
    "ShardWorker",
    "WorkerSpec",
]
