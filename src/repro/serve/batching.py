"""Micro-batching: coalesce concurrent point queries into array calls.

The query plane (PR 5) made *batches* cheap — ``query_many`` is one
gather, ``route_batch`` one numpy step per hop for every in-flight
packet — but a serving front-end receives point queries one ``await``
at a time.  :class:`MicroBatcher` closes that gap opportunistically:
it never waits for company, it only coalesces what arrives while the
backend is busy.

* **idle** — with no flush in flight, the first submit schedules a
  flush with ``loop.call_soon``; requests submitted in the same loop
  tick share it.  While a flush is in flight new requests queue, and
  when it finishes (results, error or cancellation alike) it launches
  one follow-up flush over everything queued.
* **size** — the queue reaching ``max_batch`` flushes at once, in
  flight or not.

A lone request therefore pays no timer, and under load the batch size
tracks the backend's service time instead of a tuning knob.

The flush function receives the pending payloads as one list, runs on
the executor (numpy work must not block the event loop), and must
return one result per payload, in order; results resolve the per-request
futures.  An exception fails every request in that batch — item ``i``'s
result never silently becomes item ``j``'s.

Single event loop: a batcher instance serves one running loop at a time
(futures and flush tasks belong to the submitting loop).  Sequential
``asyncio.run`` blocks are fine — each run drains its own submissions.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

FlushFn = Callable[[List[Any]], Sequence[Any]]


@dataclass
class BatcherStats:
    """Counters for one :class:`MicroBatcher` (JSON-safe via snapshot)."""

    submitted: int = 0
    completed: int = 0
    flushes: int = 0
    size_flushes: int = 0
    idle_flushes: int = 0
    drain_flushes: int = 0
    errors: int = 0
    cancelled: int = 0
    max_batch_seen: int = 0

    @property
    def mean_batch(self) -> Optional[float]:
        """Mean flushed batch size; ``None`` before the first flush."""
        if not self.flushes:
            return None
        return self.completed / self.flushes

    def snapshot(self) -> Dict[str, Any]:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "flushes": self.flushes,
            "size_flushes": self.size_flushes,
            "idle_flushes": self.idle_flushes,
            "drain_flushes": self.drain_flushes,
            "errors": self.errors,
            "cancelled": self.cancelled,
            "max_batch_seen": self.max_batch_seen,
            "mean_batch": self.mean_batch,
        }


@dataclass
class _Pending:
    """One coalesced request: its payload and the future to resolve."""

    payload: Any
    future: "asyncio.Future[Any]" = field(repr=False)


class MicroBatcher:
    """Coalesce awaited point requests into vectorized flush calls.

    ``flush`` maps a list of payloads to an equal-length sequence of
    results.  ``executor=None`` uses the loop's default thread pool.
    ``on_cancel`` receives the count of every batch of requests
    cancelled by :meth:`fail_pending` or after :meth:`close`.
    """

    def __init__(
        self,
        flush: FlushFn,
        max_batch: int = 32,
        executor: Optional[Any] = None,
        on_flush: Optional[Callable[[int], None]] = None,
        on_cancel: Optional[Callable[[int], None]] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._flush = flush
        self.max_batch = int(max_batch)
        self._executor = executor
        self._on_flush = on_flush
        self._on_cancel = on_cancel
        self._pending: List[_Pending] = []
        self._closed = False
        self._inflight: Set["asyncio.Task[None]"] = set()
        self.stats = BatcherStats()

    @property
    def pending(self) -> int:
        """Requests currently waiting for a flush."""
        return len(self._pending)

    async def submit(self, payload: Any) -> Any:
        """Enqueue one payload; resolves with its flush result."""
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Any]" = loop.create_future()
        self._pending.append(_Pending(payload, future))
        self.stats.submitted += 1
        if len(self._pending) >= self.max_batch:
            self._launch(loop, "size")
        elif not self._inflight:
            loop.call_soon(self._flush_idle, loop)
        return await future

    def _flush_idle(self, loop: asyncio.AbstractEventLoop) -> None:
        # One call per idle submit: the first launches the flush; a flush
        # in flight by now (this tick's, or a size flush) owns the rest.
        if self._pending and not self._inflight:
            self._launch(loop, "idle")

    def _launch(self, loop: asyncio.AbstractEventLoop, reason: str) -> None:
        """Detach the pending list and start one flush task over it."""
        if self._closed:
            # The executor may already be shut down: cancel, never flush.
            self.fail_pending()
            return
        batch, self._pending = self._pending, []
        self.stats.flushes += 1
        counter = f"{reason}_flushes"  # size / idle / drain
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        if len(batch) > self.stats.max_batch_seen:
            self.stats.max_batch_seen = len(batch)
        task = loop.create_task(self._run(batch))
        self._inflight.add(task)
        # Backstop for a task cancelled before it ever ran its finally.
        task.add_done_callback(self._inflight.discard)

    async def _run(self, batch: List[_Pending]) -> None:
        loop = asyncio.get_running_loop()
        payloads = [item.payload for item in batch]
        try:
            results = await loop.run_in_executor(
                self._executor, self._flush, payloads
            )
            if len(results) != len(payloads):
                raise RuntimeError(
                    f"flush returned {len(results)} results for "
                    f"{len(payloads)} payloads"
                )
        except Exception as exc:  # noqa: BLE001 - forwarded to every waiter
            self.stats.errors += 1
            for item in batch:
                if not item.future.done():
                    item.future.set_exception(exc)
        else:
            # Bookkeeping before resolving: once results land, the awaiting
            # coroutines may finish the event loop with this task mid-body.
            self.stats.completed += len(batch)
            if self._on_flush is not None:
                self._on_flush(len(batch))
            for item, result in zip(batch, results):
                if not item.future.done():
                    item.future.set_result(result)
        finally:
            # Leave the in-flight set before the woken callers run, so
            # their next submit sees an idle backend.
            self._inflight.discard(asyncio.current_task())
            if self._pending:
                self._launch(loop, "idle")

    async def drain(self) -> None:
        """Flush anything pending and wait for every in-flight batch.

        Loops until both the pending list and the in-flight set are
        empty, so a request that parks *while* the final batch is being
        awaited is flushed too — drain never returns with a caller
        silently left hanging.
        """
        loop = asyncio.get_running_loop()
        while self._pending or self._inflight:
            if self._pending:
                self._launch(loop, "drain")
            if self._inflight:
                await asyncio.gather(
                    *tuple(self._inflight), return_exceptions=True
                )

    def close(self) -> int:
        """Stop flushing for good and cancel every parked request.

        Requests that queue later (behind a flush still in flight, or
        submitted after the close) are cancelled where they would have
        flushed.  Returns the number cancelled now.
        """
        self._closed = True
        return self.fail_pending()

    def fail_pending(self, exc: Optional[BaseException] = None) -> int:
        """Fail every still-parked request instead of leaving it hung.

        The shutdown path for callers that cannot ``await drain()`` (no
        running loop — e.g. a service ``close()`` after its event loop
        exited): detaches the pending list and cancels each parked
        future (or fails it with ``exc``).  Returns the number of
        requests failed; they are counted in ``stats.cancelled``.
        """
        batch, self._pending = self._pending, []
        failed = 0
        for item in batch:
            if item.future.done():
                continue
            try:
                if exc is not None:
                    item.future.set_exception(exc)
                else:
                    item.future.cancel()
            except RuntimeError:
                # The owning loop is already closed; nobody is listening,
                # but the request is detached either way.
                pass
            failed += 1
        self.stats.cancelled += failed
        if failed and self._on_cancel is not None:
            self._on_cancel(failed)
        return failed


__all__ = ["BatcherStats", "MicroBatcher", "FlushFn"]
