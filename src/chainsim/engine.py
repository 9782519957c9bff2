"""Simulation core: time-ordered event queue, clock, and dispatch loop.

An event is a plain tuple ``(time, seq, kind, target, payload)``.  The
queue numbers events in insertion order, so events due at the same time
run first-in first-out and the comparison never reaches ``kind``.  The
dispatch loop calls the kind's handler as ``handler(target, time, payload)``:

- BLOCK_CREATE: target is the miner id, payload the tip it was armed on.
- BLOCK_RECEIVE: target is a tuple of recipient ids, payload the block.  A
  constant-delay broadcast is one entry for all its recipients, delivered
  in node order; it holds the place the first per-recipient entry would.

Full-mode transactions are not queued.  The workload holds the next one,
and the dispatch loop has it file, before each event, every transaction
made at or before the event's time: a transaction made at an event's exact
instant is filed first.

Each miner's next creation sits in a slot of its own, outside the heap;
arming the slot again replaces it, so a creation a tip change superseded is
never queued or dispatched.  Slot and heap events share one sequence
counter and are merged by ``(time, seq)``, so the dispatch order is the one
a single heap holding every event but the superseded ones would give.

A single run is strictly sequential and owns all its mutable state, its
seeded random stream included: the same seed and configuration replay it
bit for bit, and runs can execute in parallel processes.  Nothing here
draws from it; every draw is made in ``streams``.
"""

from __future__ import annotations

import heapq
import math
from enum import IntEnum
from typing import Callable, Mapping, TYPE_CHECKING

if TYPE_CHECKING:
    from .model import World


class EventKind(IntEnum):
    BLOCK_CREATE = 0
    BLOCK_RECEIVE = 1


_CREATE = EventKind.BLOCK_CREATE


class SchedulingError(RuntimeError):
    """An event was scheduled in the past; that is a scheduler logic bug."""


class EventQueue:
    """Min-heap of ``(time, seq, kind, target, payload)`` events, beside one
    ``BLOCK_CREATE`` slot per miner, with the earliest armed slot cached."""

    __slots__ = ("_heap", "_armed", "_first", "_next_seq", "clock")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, EventKind, object, object]] = []
        self._armed: dict[int, tuple[float, int, EventKind, object, object]] = {}
        self._first: tuple[float, int, EventKind, object, object] | None = None
        self._next_seq = 0
        self.clock = 0.0

    def __len__(self) -> int:
        return len(self._heap) + len(self._armed)

    def schedule(self, time: float, kind: EventKind, target: object, payload: object) -> int:
        """Push one event onto the heap and return its sequence number."""
        if time < self.clock:
            raise SchedulingError(f"event at t={time!r} is before the clock t={self.clock!r}")
        seq = self._next_seq
        self._next_seq = seq + 1
        heapq.heappush(self._heap, (time, seq, kind, target, payload))
        return seq

    def arm(self, time: float, miner_id: int, tip: int) -> None:
        """Set ``miner_id``'s next ``BLOCK_CREATE``, on ``tip``, replacing the
        one armed before, if any."""
        if time < self.clock:
            raise SchedulingError(f"event at t={time!r} is before the clock t={self.clock!r}")
        seq = self._next_seq
        self._next_seq = seq + 1
        entry = (time, seq, _CREATE, miner_id, tip)
        armed, first = self._armed, self._first
        replaced = armed.get(miner_id)
        armed[miner_id] = entry
        if first is None or time < first[0]:  # at equal times the earlier seq stays first
            self._first = entry
        elif replaced is first:
            self._first = min(armed.values())

    def next_event(
        self, horizon: float = math.inf
    ) -> tuple[float, int, EventKind, object, object] | None:
        """Take the earliest event, slot or heap, and advance the clock to its
        time; None if there is none, or the earliest lies past ``horizon``."""
        heap, first = self._heap, self._first
        if heap:
            top = heap[0]
            if first is None or top < first:
                if top[0] > horizon:
                    return None
                heapq.heappop(heap)
                self.clock = top[0]
                return top
        if first is None or first[0] > horizon:
            return None
        armed = self._armed
        del armed[first[3]]
        self._first = min(armed.values()) if armed else None
        self.clock = first[0]
        return first


def run_loop(
    queue: EventQueue,
    handlers: Mapping[EventKind, Callable[[object, float, object], object]],
    world: "World",
    *,
    advance: Callable[[float], object] | None = None,
    sim_time: float | None = None,
    block_target: int | None = None,
) -> float:
    """Dispatch events in time order until a stop condition is met.

    Stops when the queue is exhausted, when the earliest pending event lies
    beyond ``sim_time`` (that event is never dispatched), or -- right after
    the dispatch that reached it -- when ``block_target`` blocks have been
    created, besides genesis.  Returns the elapsed simulated seconds used
    for rate metrics: the full horizon in time-limited mode, otherwise the
    final clock value.

    ``advance``, if given, is called as ``advance(time)`` before each event
    is dispatched, and as ``advance(sim_time)`` when the horizon ends the
    run: it files the transactions made at or before that time.
    """
    table = [handlers[kind] for kind in EventKind]
    next_event = queue.next_event
    horizon = math.inf if sim_time is None else sim_time
    target_blocks = math.inf if block_target is None else block_target
    while (entry := next_event(horizon)) is not None:
        time, _, kind, target, payload = entry
        if advance is not None:
            advance(time)
        table[kind](target, time, payload)
        if len(world.depth) > target_blocks:
            break
    else:
        if advance is not None and sim_time is not None:
            advance(sim_time)
    return sim_time if sim_time is not None else queue.clock
