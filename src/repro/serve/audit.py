"""Consistency audit: the service's answers vs a sequential reference.

Hash-partitioning objects across shards and batching or coalescing
their operations must not change any answer. :func:`audit_service`
replays every shard's op log through one reference
:class:`~repro.core.mot.MOTTracker` with
:func:`~repro.core.batch.audit_replay`, the scalar-equivalence audit of
every surface.
"""

from __future__ import annotations

from repro.core.batch import AuditReport, audit_replay
from repro.serve.service import TrackingService

__all__ = ["audit_service"]


def audit_service(service: TrackingService) -> AuditReport:
    """Replay every shard's op log into one reference MOT and compare.

    Per-object operation order is exactly the shard's applied order
    (shard queues are FIFO); a shard that runs in a worker process is
    read after ``stop()``, from the state its final frame carried home.
    """
    return audit_replay(service.hierarchy, service.mot_config, service.shards)
