"""Abstracted broadcast: deliver blocks to every other simulated node after
a configurable propagation delay.

No topology is modelled; the delay is the only network parameter.  A
constant delay reaches every recipient at once, so one queue entry carries
them all.  In exponential mode each recipient gets its own delay, drawn in
``streams``, and its own entry.  Blocks reach the ``recipients`` nodes the
``World`` builds, the ids up to the highest-id miner.
"""

from __future__ import annotations

from .config import SimConfig
from .engine import EventKind, EventQueue
from .streams import Streams


class Network:
    def __init__(self, queue: EventQueue, streams: Streams, config: SimConfig, recipients: int) -> None:
        self.queue = queue
        self.recipients = recipients  # blocks reach the node ids below this
        self.block_delay = config.b_delay
        self._delays = streams.block_delays  # None for a constant delay
        self._others: dict[int, tuple[int, ...]] = {}  # sender id -> the other recipients

    def broadcast_block(self, sender_id: int, block: int, at: float) -> list[int]:
        """Queue the block's delivery to every recipient but the sender;
        returns the sequence numbers of the entries pushed."""
        others = self._others.get(sender_id)
        if others is None:  # built on the sender's first block, so only senders keep one
            others = self._others[sender_id] = tuple(filter(sender_id.__ne__, range(self.recipients)))
        schedule, receive = self.queue.schedule, EventKind.BLOCK_RECEIVE
        if self._delays is None:  # one entry for every recipient
            return [schedule(at + self.block_delay, receive, others, block)] if others else []
        delays = zip(others, self._delays(len(others)))
        return [schedule(at + delay, receive, (node_id,), block) for node_id, delay in delays]
