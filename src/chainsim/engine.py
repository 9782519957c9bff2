"""Simulation core: time-ordered event queue, clock, and seeded randomness.

A heap entry is a plain tuple ``(time, seq, kind, target, payload)``.  The
queue numbers entries in insertion order, so entries due at the same time
pop first-in first-out and the comparison never reaches ``kind``.  The
dispatch loop calls the kind's handler as ``handler(target, time, payload)``:

- BLOCK_CREATE: target is the miner id, payload the tip it was armed on.
- BLOCK_RECEIVE: target is a tuple of recipient ids, payload the block.  A
  constant-delay broadcast is one entry for all its recipients, delivered
  in node order; it holds the place the first per-recipient entry would.
- TX_CREATE: target is the submitter id, payload the transaction.

A single run is strictly sequential; every piece of mutable state is owned
by exactly one run, so multiple runs can execute in parallel processes.
"""

from __future__ import annotations

import heapq
import math
from enum import IntEnum
from typing import Callable, Mapping, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .model import World


class EventKind(IntEnum):
    BLOCK_CREATE = 0
    BLOCK_RECEIVE = 1
    TX_CREATE = 2


class SchedulingError(RuntimeError):
    """An event was scheduled in the past; that is a scheduler logic bug."""


class EventQueue:
    """Min-heap of ``(time, seq, kind, target, payload)`` entries."""

    __slots__ = ("_heap", "_next_seq", "clock")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, EventKind, object, object]] = []
        self._next_seq = 0
        self.clock = 0.0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, time: float, kind: EventKind, target: object, payload: object) -> int:
        """Push one entry and return its sequence number."""
        if time < self.clock:
            raise SchedulingError(f"event at t={time!r} is before the clock t={self.clock!r}")
        seq = self._next_seq
        self._next_seq = seq + 1
        heapq.heappush(self._heap, (time, seq, kind, target, payload))
        return seq

    def next_event(self) -> tuple[float, int, EventKind, object, object] | None:
        """Pop the earliest entry and advance the clock to its time."""
        if not self._heap:
            return None
        entry = heapq.heappop(self._heap)
        self.clock = entry[0]
        return entry


class RandomSource:
    """Seeded random generator owned by a single run.

    The same seed and configuration reproduce the event trace bit for bit.
    ``random()`` is one uniform draw in [0, 1) and ``random(k)`` an array of
    ``k`` of them, the same values as ``k`` single draws.
    """

    __slots__ = ("rng", "random")

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(int(seed))
        self.random = self.rng.random


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


def sample_exponentials(source: RandomSource, mean: float, k: int) -> list[float]:
    """``k`` draws of ``sample_exponential(source, mean)`` from one batch of
    uniforms.  A rejected uniform is replaced by a further draw, so the
    values and the random stream match ``k`` single calls."""
    if mean <= 0:
        raise ValueError(f"exponential mean must be positive, got {mean!r}")
    log = math.log
    values: list[float] = []
    while len(values) < k:
        batch = [-mean * log(1.0 - u) for u in source.random(k - len(values)).tolist()]
        values.extend(x for x in batch if x > 0.0)
    return values


def run_loop(
    queue: EventQueue,
    handlers: Mapping[EventKind, Callable[[object, float, object], object]],
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
    heap = queue._heap
    next_event = queue.next_event
    horizon = math.inf if sim_time is None else sim_time
    target_blocks = math.inf if block_target is None else block_target
    while heap and heap[0][0] <= horizon:
        time, _, kind, target, payload = next_event()
        table[kind](target, time, payload)
        if world.blocks_created >= target_blocks:
            break
    return sim_time if sim_time is not None else queue.clock
