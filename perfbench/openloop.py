"""Open-loop event generator for the serving workload.

Events are due on a seeded Poisson schedule at a fixed offered rate and
are submitted through ``MatchingService.submit_event`` when due,
whether or not earlier events have converged: independent producers do
not wait for each other, so a stall in the service shows up as queueing
of the events behind it.  Each event is timed from when it was *due*,
not from when the generator got round to sending it, so generator
lateness and service stalls both count against latency.
(``repro.telemetry.loadgen.run_load`` is closed loop by comparison:
its paced mode sleeps a fixed interval after each submit and times
from the actual submit.)
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass
from typing import Any, List

__all__ = ["Stream", "run"]


@dataclass
class Stream:
    """One open-loop stream's outcome, in ``time.perf_counter`` units."""

    events: List[Any]
    due: List[float]
    latencies: List[float]
    #: A ``FlushReport``, or the exception the event's flush raised.
    reports: List[Any]
    #: Largest delay between an event's due time and its submission.
    max_late: float
    #: Events submitted but not yet converged at the last due time.
    backlog: int

    @property
    def flushes(self) -> int:
        return len({id(report) for report in self.reports})


async def run(service: Any, events: List[Any], rate: float,
              seed: int) -> Stream:
    """Submit ``events`` at ``rate`` events/s; wait for all to converge."""
    rng = random.Random(seed)
    start = time.perf_counter() + 0.01
    due: List[float] = []
    offset = 0.0
    for _ in events:
        offset += rng.expovariate(rate)
        due.append(start + offset)
    sent = [0.0] * len(events)
    done = [0.0] * len(events)

    async def send(index: int) -> Any:
        sent[index] = time.perf_counter()
        try:
            return await service.submit_event(events[index])
        finally:
            done[index] = time.perf_counter()

    tasks = []
    for index in range(len(events)):
        delay = due[index] - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(send(index)))
    backlog = sum(1 for stamp in done[:-1] if not stamp)
    # A failed flush raises in every one of its waiters; those events
    # come back as their exception and count as failed.
    reports = await asyncio.gather(*tasks, return_exceptions=True)
    return Stream(
        events=list(events),
        due=due,
        latencies=[end - when for end, when in zip(done, due)],
        reports=list(reports),
        max_late=max(
            (s - d for s, d in zip(sent, due)), default=0.0
        ),
        backlog=backlog,
    )
