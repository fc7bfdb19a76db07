"""Wire types of the tracking service: requests, responses, rejections.

The service speaks exactly the three operations of the MOT structure
(publish / move / query), wrapped in small frozen records so they can
be queued, logged, and replayed into the consistency audit verbatim.
Each record is slotted (no per-instance ``__dict__``) and names its
operation in the class attribute ``kind``, so admission reads the kind
without an ``isinstance`` chain.
``Overloaded`` is the admission-control rejection: the only error a
healthy service returns, always carrying a ``retry_after`` hint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Hashable, Literal, NamedTuple, Union

Node = Hashable
OpKind = Literal["publish", "move", "query"]

__all__ = [
    "PublishRequest",
    "MoveRequest",
    "QueryRequest",
    "Request",
    "OpResponse",
    "Overloaded",
    "kind_of",
]


@dataclass(frozen=True, slots=True)
class PublishRequest:
    """Register ``obj`` at its first proxy sensor (one-time)."""

    kind: ClassVar[OpKind] = "publish"
    obj: str
    proxy: Node

    @property
    def node(self) -> Node:
        """The op's node column: the first proxy."""
        return self.proxy


@dataclass(frozen=True, slots=True)
class MoveRequest:
    """Report that ``obj`` moved to ``new_proxy`` (maintenance)."""

    kind: ClassVar[OpKind] = "move"
    obj: str
    new_proxy: Node

    @property
    def node(self) -> Node:
        """The op's node column: the new proxy."""
        return self.new_proxy


@dataclass(frozen=True, slots=True)
class QueryRequest:
    """Ask, from sensor ``source``, where ``obj`` currently is."""

    kind: ClassVar[OpKind] = "query"
    obj: str
    source: Node

    @property
    def node(self) -> Node:
        """The op's node column: the querying sensor."""
        return self.source


Request = Union[PublishRequest, MoveRequest, QueryRequest]

#: the request record classes, for the ``kind_of`` type check
_REQUEST_TYPES = (PublishRequest, MoveRequest, QueryRequest)


def kind_of(req: Request) -> OpKind:
    """The operation kind of a request record (``TypeError`` otherwise)."""
    if isinstance(req, _REQUEST_TYPES):
        return req.kind
    raise TypeError(f"not a service request: {req!r}")


class OpResponse(NamedTuple):
    """Completion record of one admitted operation.

    ``proxy`` is the object's proxy after the operation (for queries:
    the answer). ``epoch`` counts the moves applied to the object when
    the operation took effect (0 right after publish) — it is the
    version number the consistency audit replays against. ``coalesced``
    marks a query answered from a duplicate in-flight query's execution
    rather than its own spine walk (its ``cost`` is then the executed
    twin's cost). Timestamps are service-clock seconds (virtual or
    wall, see :mod:`repro.serve.clock`). A named tuple, not a frozen
    dataclass: a shard builds one per settled op, and the tuple costs a
    third as much to build.
    """

    kind: OpKind
    obj: str
    proxy: Node
    cost: float
    epoch: int
    coalesced: bool
    arrival_t: float
    completion_t: float

    @property
    def latency_s(self) -> float:
        """Queueing + service latency of this operation."""
        return self.completion_t - self.arrival_t


class Overloaded(Exception):
    """Admission control rejected the request; retry after a delay.

    ``reason`` is ``"rate"`` (the token-bucket rate limiter is out of
    tokens) or ``"queue"`` (the target shard's bounded queue is full).
    ``retry_after_s`` is the service's estimate of when capacity frees
    up, in service-clock seconds.
    """

    def __init__(self, reason: Literal["rate", "queue"], retry_after_s: float) -> None:
        super().__init__(f"service overloaded ({reason}); retry after {retry_after_s:.4f}s")
        self.reason = reason
        self.retry_after_s = retry_after_s
