"""Open-loop load generator that times each request from its due time.

Request ``i`` is due at ``start + i / rate``.  Whenever the generator
wakes up it launches every request that is already due, so a stalled
event loop delays requests without lowering the offered rate; each
request's latency runs from its *due* time to its completion, so the
wait a stall imposes on later requests is counted (no coordinated
omission).  How late the generator launched each request is reported
separately: a run whose generator ran late measured the generator.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, List, Optional, Sequence

#: Marker stored in place of the answer of a request that raised.
FAILED = object()


@dataclass
class PhaseResult:
    """Client-side record of one open-loop phase."""

    latency: List[Optional[float]]  # seconds from due to completion; None = failed
    late: List[float]  # seconds from due to launch
    answers: List[Any]
    errors: int = 0

    @property
    def requests(self) -> int:
        return len(self.latency)

    def quantile(self, q: float) -> float:
        """The ``q`` latency quantile in seconds; a failed request counts as
        missing every latency limit, so it enters as ``inf``."""
        return quantile(sorted(math.inf if lat is None else lat for lat in self.latency), q)


def quantile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of an already sorted sequence."""
    if not ordered:
        return math.nan
    pos = q * (len(ordered) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(ordered) - 1)
    if ordered[hi] == ordered[lo]:
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


async def open_loop(
    issue: Callable[[int], Awaitable[Any]],
    requests: int,
    rate: float,
    on_done: Optional[Callable[[int, float, float], None]] = None,
) -> PhaseResult:
    """Offer ``requests`` calls of ``issue(i)`` at ``rate`` per second.

    ``on_done(i, due, completed)`` is called for every request that
    succeeded (the traced run records a request span there).
    """
    if rate <= 0 or requests < 1:
        raise ValueError("need rate > 0 and requests >= 1")
    loop = asyncio.get_running_loop()
    clock = time.perf_counter
    latency: List[Optional[float]] = [None] * requests
    answers: List[Any] = [FAILED] * requests
    late: List[float] = []
    errors = 0

    async def one(index: int, due: float) -> None:
        nonlocal errors
        try:
            answer = await issue(index)
        except Exception:  # noqa: BLE001 - a failed request is counted, not raised
            errors += 1
            return
        done = clock()
        answers[index] = answer
        latency[index] = done - due
        if on_done is not None:
            on_done(index, due, done)

    start = clock() + 0.002
    tasks = []
    index = 0
    while index < requests:
        now = clock()
        while index < requests and start + index / rate <= now:
            due = start + index / rate
            late.append(now - due)
            tasks.append(loop.create_task(one(index, due)))
            index += 1
        if index < requests:
            await asyncio.sleep(max(0.0, start + index / rate - clock()))
    await asyncio.gather(*tasks)
    return PhaseResult(
        latency=latency,
        late=late,
        answers=answers,
        errors=errors,
    )


__all__ = ["FAILED", "PhaseResult", "open_loop", "quantile"]
