"""A bounded earliest-deadline-first request queue.

EDF is the natural discipline for deadline serving: executing the request
whose absolute deadline is closest maximises the number of deadlines met
on a single server when the system is feasible, and degrades gracefully
under overload (the requests sacrificed are the ones that were already
closest to missing). Ties break FIFO via a monotone sequence number so the
order is fully deterministic.
"""

from __future__ import annotations

import heapq

from .request import Request

__all__ = ["EDFQueue"]


class EDFQueue:
    """Bounded priority queue ordered by absolute deadline, then arrival.

    ``tracer`` (any object with an ``emit`` method, e.g.
    :class:`repro.obs.Tracer`) receives one ``enqueue`` span per accepted
    request, stamped with the queue depth after insertion.
    """

    def __init__(self, capacity: int = 128, tracer=None):
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        self.capacity = capacity
        self.tracer = tracer
        # bound-method cache: push() runs once per admitted request
        self._emit = None if tracer is None else tracer.emit
        self._heap: list[tuple[float, int, Request]] = []
        self._seq = 0
        self._last_span_ms = 0.0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def full(self) -> bool:
        return len(self._heap) >= self.capacity

    def push(self, request: Request, now_ms: float | None = None) -> bool:
        """Enqueue; returns False (request dropped) when the queue is full.

        ``now_ms`` stamps the enqueue span with the engine's clock. The
        engine always passes it; when omitted (direct queue use) the span
        falls back to the request's arrival time. Either way the stamp is
        clamped monotone against the previous enqueue span, so delayed
        admission — e.g. a request re-enqueued by the resilience path —
        can never back-date the trace.
        """
        if self.full:
            return False
        heapq.heappush(self._heap,
                       (request.abs_deadline_ms, self._seq, request))
        self._seq += 1
        if self._emit is not None:
            ts = request.arrival_ms if now_ms is None else now_ms
            if ts < self._last_span_ms:
                ts = self._last_span_ms
            self._last_span_ms = ts
            self._emit("enqueue", "queue", ts,
                       0.0, request.rid, {"depth": len(self._heap)})
        return True

    def peek(self) -> Request:
        """The request with the earliest absolute deadline."""
        if not self._heap:
            raise IndexError("peek on empty EDFQueue")
        return self._heap[0][2]

    def pop(self) -> Request:
        """Remove and return the earliest-deadline request."""
        if not self._heap:
            raise IndexError("pop on empty EDFQueue")
        return heapq.heappop(self._heap)[2]

    def drain(self) -> list[Request]:
        """Remove every queued request in EDF order."""
        out = []
        while self._heap:
            out.append(self.pop())
        return out
