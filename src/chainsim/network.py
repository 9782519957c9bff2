"""Abstracted broadcast: deliver blocks to every other node after a
configurable propagation delay.

No topology is modelled; the delay is the only network parameter.  In
exponential mode each recipient draws its own independent delay.
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
        self.block_delay = config.b_delay
        self.exponential = config.delay_mode == "exponential"

    def delay(self, mean: float) -> float:
        """One recipient's propagation delay; no draw when the mean is zero."""
        if not self.exponential or mean == 0.0:
            return mean
        return sample_exponential(self.rng, mean)

    def broadcast_block(self, sender_id: int, block: Block, at: float) -> list[Event]:
        """Schedule one BLOCK_RECEIVE per node other than the sender."""
        events = []
        for node_id in range(self.n_nodes):
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
        return events
