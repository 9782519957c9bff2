"""Abstracted broadcast: deliver blocks to every other simulated node after
a configurable propagation delay.

No topology is modelled; the delay is the only network parameter.  A
constant delay reaches every recipient at once, so one queue entry carries
them all.  In exponential mode each recipient draws its own independent
delay and gets its own entry.

Only the nodes below the cut that ``ConsensusEngine`` passes to
``set_recipients`` receive blocks.  Exponential mode still draws a delay
for every node but the sender, in node order, so the random stream does
not depend on the cut.
"""

from __future__ import annotations

from .config import SimConfig
from .engine import EventKind, EventQueue, RandomSource, sample_exponentials
from .model import Block


class Network:
    def __init__(self, queue: EventQueue, rng: RandomSource, config: SimConfig) -> None:
        self.queue = queue
        self.rng = rng
        self.n_nodes = config.n_n
        self.block_delay = config.b_delay
        # Exponential delays with a zero mean are all zero and draw nothing.
        self.exponential = config.delay_mode == "exponential" and config.b_delay > 0.0
        self.set_recipients(config.n_n)

    def set_recipients(self, count: int) -> None:
        """Deliver blocks to the node ids below ``count`` only."""
        self.recipients, self._others = count, {}  # sender id -> the other recipients

    def broadcast_block(self, sender_id: int, block: Block, at: float) -> list[int]:
        """Queue the block's delivery to every recipient but the sender;
        returns the sequence numbers of the entries pushed."""
        others = self._others.get(sender_id)
        if others is None:  # built on the sender's first block, so only senders keep one
            others = self._others[sender_id] = tuple(filter(sender_id.__ne__, range(self.recipients)))
        if not self.exponential:
            due = [(at + self.block_delay, others)] if others else []
        else:
            # The draws past the recipients' are taken and discarded.
            delays = sample_exponentials(self.rng, self.block_delay, self.n_nodes - 1)
            due = [(at + delay, (node_id,)) for node_id, delay in zip(others, delays)]
        return [self.queue.schedule(time, EventKind.BLOCK_RECEIVE, to, block) for time, to in due]
