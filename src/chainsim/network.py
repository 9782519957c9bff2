"""Abstracted broadcast: deliver blocks to every other simulated node after
a configurable propagation delay.

No topology is modelled; the delay is the only network parameter.  In
exponential mode each recipient draws its own independent delay.

Only nodes below ``recipients`` receive blocks; ``ConsensusEngine`` sets
the cut.  Exponential mode still draws a delay for every node but the
sender, in node order, so the random stream does not depend on the cut.
"""

from __future__ import annotations

from .config import SimConfig
from .engine import Event, EventKind, EventQueue, RandomSource, sample_exponential
from .model import Block


class Network:
    def __init__(self, queue: EventQueue, rng: RandomSource, config: SimConfig) -> None:
        self.queue = queue
        self.rng = rng
        self.n_nodes = config.n_n
        self.recipients = config.n_n  # block recipients are node ids below this
        self.block_delay = config.b_delay
        self.exponential = config.delay_mode == "exponential"

    def delay(self, mean: float) -> float:
        """One recipient's propagation delay; no draw when the mean is zero."""
        if not self.exponential or mean == 0.0:
            return mean
        return sample_exponential(self.rng, mean)

    def broadcast_block(self, sender_id: int, block: Block, at: float) -> list[Event]:
        """Schedule one BLOCK_RECEIVE per recipient other than the sender."""
        events = []
        for node_id in range(self.recipients):
            if node_id == sender_id:
                continue
            event = Event(
                EventKind.BLOCK_RECEIVE,
                node_id,
                at + self.delay(self.block_delay),
                block,
            )
            self.queue.schedule(event)
            events.append(event)
        if self.exponential and self.block_delay > 0.0:
            # The non-recipients' draws; the sender is always a recipient.
            for _ in range(self.recipients, self.n_nodes):
                sample_exponential(self.rng, self.block_delay)
        return events
