"""Abstracted broadcast: deliver blocks to every other simulated node after
a configurable propagation delay.

No topology is modelled; the delay is the only network parameter.  A
constant delay reaches every recipient at once, so one queue entry carries
them all.  In exponential mode each recipient draws its own independent
delay and gets its own entry.

Blocks reach the ``recipients`` nodes the ``World`` builds, the ids up to
the highest-id miner.  Exponential mode still takes a draw for each of the
``N_n`` nodes but the sender, in node order, so the random stream is the one
every node would draw.  The network holds one ``ExponentialSampler`` for
them: ``draws`` makes the recipients' delays, and ``skip`` passes over the
rest without computing them, in memory that does not grow with ``N_n``.
"""

from __future__ import annotations

import numpy as np

from .config import ExponentialSampler, SimConfig
from .engine import EventKind, EventQueue
from .model import Block


class Network:
    def __init__(
        self, queue: EventQueue, rng: np.random.Generator, config: SimConfig, recipients: int
    ) -> None:
        self.queue = queue
        self.rng = rng
        self.n_nodes = config.n_n
        self.recipients = recipients  # blocks reach the node ids below this
        self.block_delay = config.b_delay
        # The per-recipient delay draws; None for a constant delay, and for
        # exponential delays of zero mean, which are all zero and draw nothing.
        exponential = config.delay_mode == "exponential" and config.b_delay > 0.0
        self._delays = ExponentialSampler(config.b_delay) if exponential else None
        self._others: dict[int, tuple[int, ...]] = {}  # sender id -> the other recipients

    def broadcast_block(self, sender_id: int, block: Block, at: float) -> list[int]:
        """Queue the block's delivery to every recipient but the sender;
        returns the sequence numbers of the entries pushed."""
        others = self._others.get(sender_id)
        if others is None:  # built on the sender's first block, so only senders keep one
            others = self._others[sender_id] = tuple(filter(sender_id.__ne__, range(self.recipients)))
        schedule, receive = self.queue.schedule, EventKind.BLOCK_RECEIVE
        if self._delays is None:  # one entry for every recipient
            return [schedule(at + self.block_delay, receive, others, block)] if others else []
        delays = self._delays.draws(self.rng, len(others))
        self._delays.skip(self.rng, self.n_nodes - 1 - len(others))
        return [schedule(at + delay, receive, (node_id,), block) for node_id, delay in zip(others, delays)]
