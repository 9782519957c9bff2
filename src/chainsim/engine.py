"""Simulation core: time-ordered event queue, clock, and seeded randomness.

A single run is strictly sequential; every piece of mutable state is owned
by exactly one run, so multiple runs can execute in parallel processes.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Mapping, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .model import World


class EventKind(IntEnum):
    BLOCK_CREATE = 0
    BLOCK_RECEIVE = 1
    TX_CREATE = 2


@dataclass(slots=True)
class Event:
    """A scheduled state change at one node.

    ``payload`` carries the object the handler needs: the block being
    delivered, the transaction being created, or -- for a
    BLOCK_CREATE event -- the intended parent block at scheduling time
    (used to detect that the miner's tip has since moved).

    ``seq`` is assigned by the queue on insertion and breaks ties among
    simultaneous events in FIFO order.
    """

    kind: EventKind
    node_id: int
    time: float
    payload: object
    seq: int = -1


class SchedulingError(RuntimeError):
    """An event was scheduled in the past; that is a scheduler logic bug."""


class EventQueue:
    """Min-heap of events keyed by (time, insertion seq)."""

    __slots__ = ("_heap", "_next_seq", "clock")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._next_seq = 0
        self.clock = 0.0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, event: Event) -> None:
        if event.time < self.clock:
            raise SchedulingError(
                f"event at t={event.time!r} is before the clock t={self.clock!r}"
            )
        event.seq = self._next_seq
        self._next_seq += 1
        heapq.heappush(self._heap, (event.time, event.seq, event))

    def peek_time(self) -> float | None:
        """Time of the earliest pending event, or None when empty."""
        return self._heap[0][0] if self._heap else None

    def next_event(self) -> Event | None:
        """Pop the earliest event and advance the clock to its time."""
        if not self._heap:
            return None
        time, _, event = heapq.heappop(self._heap)
        self.clock = time
        return event


class RandomSource:
    """Seeded random generator owned by a single run.

    The same seed and configuration reproduce the event trace bit for bit.
    """

    __slots__ = ("seed", "rng")

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)

    def random(self) -> float:
        """Uniform draw in [0, 1)."""
        return self.rng.random()


def sample_exponential(source: RandomSource, mean: float) -> float:
    """Draw -mean*ln(u) with u uniform in (0, 1]; always strictly positive.

    The u=1 boundary (which would map to exactly 0) is rejected so that
    scheduled delays never collide with the current instant.
    """
    if mean <= 0:
        raise ValueError(f"exponential mean must be positive, got {mean!r}")
    while True:
        u = 1.0 - source.random()  # in (0, 1]
        x = -mean * math.log(u)
        if x > 0.0:
            return x


Handler = Callable[[Event], object]


def run_loop(
    queue: EventQueue,
    handlers: Mapping[EventKind, Handler],
    world: "World",
    *,
    sim_time: float | None = None,
    block_target: int | None = None,
) -> float:
    """Dispatch events in time order until a stop condition is met.

    Stops when the queue is exhausted, when the earliest pending event lies
    beyond ``sim_time`` (that event is never dispatched), or -- right after
    the dispatch that reached it -- when ``block_target`` blocks have been
    created.  Returns the elapsed simulated seconds used for rate metrics:
    the full horizon in time-limited mode, otherwise the final clock value.
    """
    table = [handlers[kind] for kind in EventKind]
    while True:
        t = queue.peek_time()
        if t is None:
            break
        if sim_time is not None and t > sim_time:
            break
        event = queue.next_event()
        table[event.kind](event)
        if block_target is not None and world.blocks_created >= block_target:
            break
    return sim_time if sim_time is not None else queue.clock
