"""Miner selection, block production, and longest-chain reception handling.

Proof of work is modelled as a per-miner exponential race: every miner
always has one armed creation, drawn with mean block_interval/weight.
Whenever a miner's tip moves (its own block, or an adopted incoming block)
it arms a fresh creation on the new tip, which replaces the one armed
before in the miner's slot of the event queue (see ``EventQueue.arm``), so
each creation that fires builds a block.  By memorylessness each miner's
creations form a Poisson process at rate weight/block_interval, which
reproduces both hash-share proportionality and fork formation under
propagation delay.  Re-drawing only when an armed creation fires, on a tip
that has moved, would instead hand the previous winner a head start and
demonstrably skews block shares away from hash shares.

A broadcast is received in one pass: ``deliver_block`` applies the
first-seen longest-chain rule at each recipient in node order, and re-arms
a miner whose tip moved before it turns to the next recipient, so the
draws and the queue's sequence numbers follow node order.

A node's chain is its tip and the tip's ancestors in the world's registry,
read by walking back from the tip; no node keeps a list of its own.  A
miner keeps an uncle candidate only while a block on its tip could still
reference it, so checking that it is off the chain is a short walk.

Round robin arms one miner at a time, ``B_interval`` after the last slot,
on that miner's tip as it stands then.  If the tip has moved by the time
the slot fires, the slot is skipped and the next miner is armed.

Who mines is decided once, when the ``World`` is built: the engine reads
each node's creation weight and the miner ids from it.  The world holds the
nodes up to the highest-id miner and no more, so blocks reach those alone
(see ``World``).
"""

from __future__ import annotations

import itertools

import numpy as np

from .config import ExponentialSampler, SimConfig
from .engine import EventQueue
from .model import Block, NodeState, World
from .network import Network
from .workload import TxWorkload


class ConsensusEngine:
    def __init__(
        self,
        world: World,
        queue: EventQueue,
        rng: np.random.Generator,
        config: SimConfig,
        network: Network,
        workload: TxWorkload,
    ) -> None:
        self.world = world
        self.queue = queue
        self.rng = rng
        self.network = network
        self.workload = workload
        self.block_interval = config.b_interval
        self.round_robin = config.selector == "roundrobin"
        self.uncles_enabled = config.uncles_enabled
        self.max_uncles = config.u_max  # per block
        self.uncle_window = config.g_uncle  # generations an uncle stays referenceable
        # Each miner's race: the seconds to its next block; None for a node that never mines.
        self.races = [ExponentialSampler(self.block_interval / w) if w > 0 else None for w in world.weights]
        self._rr_turns = itertools.cycle(world.miner_ids)  # round robin: miners in id order

    # -- scheduling -----------------------------------------------------

    def start(self) -> None:
        """Schedule every miner's first creation event."""
        if self.round_robin:
            self._schedule_round_robin(0.0)
            return
        for miner_id in self.world.miner_ids:
            self.schedule_next_creation(self.world.nodes[miner_id], 0.0)

    def schedule_next_creation(self, miner: NodeState, at: float) -> float:
        """Arm the miner's race on its current tip from ``at``; return its time."""
        race = self.races[miner.id]
        if race is None:
            raise ValueError(f"node {miner.id} has zero creation weight")
        time = at + race.draw(self.rng)
        self.queue.arm(time, miner.id, miner.tip)
        return time

    def _schedule_round_robin(self, at: float) -> None:
        miner_id = next(self._rr_turns)
        tip = self.world.nodes[miner_id].tip
        self.queue.arm(at + self.block_interval, miner_id, tip)

    # -- block creation -------------------------------------------------

    def on_block_create(self, miner_id: int, now: float, intended_parent: Block) -> Block | None:
        miner = self.world.nodes[miner_id]
        parent = miner.tip
        if intended_parent.id != parent.id:
            # Armed on a tip the miner has since left: a round-robin slot is
            # skipped.  A proof-of-work miner re-arms on every tip change, so
            # its slot never holds such a creation.
            if self.round_robin:
                self._schedule_round_robin(now)
            return None

        registry = self.world.registry
        block = Block(
            id=len(registry),
            depth=parent.depth + 1,
            previous_id=parent.id,
            timestamp=now,
            miner_id=miner_id,
            uncles=self._reference_uncles(miner, parent.depth + 1) if self.uncles_enabled else (),
        )
        self.workload.take_block(miner, now, block)
        registry.append(block)
        miner.tip = block
        # The miner's own block: its uncles left the candidates as they were chosen.
        if len(block.transactions):
            self.workload.adopt(miner_id, block)

        self.network.broadcast_block(miner_id, block, now)
        if self.round_robin:
            self._schedule_round_robin(now)
        else:
            self.schedule_next_creation(miner, now)
        return block

    def eligible_uncles(self, node: NodeState, next_depth: int) -> list[int]:
        """Candidate uncles for a block at ``next_depth``, oldest first.

        Eligible means: inside the depth window and not referenced by any
        block of the run, as recorded in ``World.included_uncles``.  No
        candidate is on the node's chain: it is dropped as it joins the chain
        (see ``_absorb``).  Entries fallen out of the window are pruned.
        """
        low = next_depth - self.uncle_window
        registry, included = self.world.registry, self.world.included_uncles
        found: list[tuple[int, int]] = []
        for uncle_id in list(node.uncle_chain):
            depth = registry[uncle_id].depth
            if depth < low:
                del node.uncle_chain[uncle_id]  # can never re-enter the window
            elif depth < next_depth and uncle_id not in included:
                found.append((depth, uncle_id))
        found.sort()
        return [uncle_id for _, uncle_id in found[: self.max_uncles]]

    def _reference_uncles(self, miner: NodeState, next_depth: int) -> tuple[int, ...]:
        chosen = self.eligible_uncles(miner, next_depth)
        for uncle_id in chosen:
            del miner.uncle_chain[uncle_id]
            self.world.included_uncles.add(uncle_id)
        return tuple(chosen)

    # -- block reception ------------------------------------------------

    def deliver_block(self, node_ids: tuple[int, ...], now: float, block: Block) -> None:
        """Hand ``block`` to each of ``node_ids`` in turn.  A block deeper
        than a node's tip becomes its tip, and a miner absorbs every block
        that joined its chain and re-arms on it; else a miner may keep it as
        an uncle candidate if it is not on its chain, and others drop it."""
        nodes, races, queue, rng = self.world.nodes, self.races, self.queue, self.rng
        registry, depth, parent_id, block_id = self.world.registry, block.depth, block.previous_id, block.id
        absorbs, rearm = self.uncles_enabled or self.workload.full_mode, not self.round_robin
        uncle = self.uncles_enabled and block_id not in self.world.included_uncles
        lowest_tip = depth + self.uncle_window  # a tip this deep prunes it unread, and tips only deepen
        for node_id in node_ids:
            node = nodes[node_id]
            tip = node.tip
            race = races[node_id]  # None for a node that never mines
            if depth > tip.depth:
                node.tip = block
                if race is not None:
                    if absorbs and parent_id == tip.id:
                        self._absorb(node, block)
                    elif absorbs:
                        for joined in branch(registry, block, tip):
                            self._absorb(node, joined)
                    if rearm:
                        queue.arm(now + race.draw(rng), node_id, block)
            elif uncle and race is not None and tip.depth < lowest_tip:
                while tip.depth > depth:
                    tip = registry[tip.previous_id]
                if tip.id != block_id:
                    node.uncle_chain[block_id] = None

    def _absorb(self, node: NodeState, block: Block) -> None:
        """Transaction and uncle bookkeeping for a block newly on the chain
        of ``node``, a miner; only nodes that create blocks read it."""
        if len(block.transactions):
            self.workload.adopt(node.id, block)
        if self.uncles_enabled:
            node.uncle_chain.pop(block.id, None)
            for uncle_id in block.uncles:
                node.uncle_chain.pop(uncle_id, None)


def branch(registry: list[Block], head: Block, base: Block) -> list[Block]:
    """The blocks on the chain ending at ``head`` and not on the one ending at
    ``base``, oldest first: walk back from ``head`` to the depth of ``base``,
    then from both at once until they meet."""
    joined = []
    while head.depth > base.depth:
        joined.append(head)
        head = registry[head.previous_id]
    while head.id != base.id:
        joined.append(head)
        head, base = registry[head.previous_id], registry[base.previous_id]
    return joined[::-1]


def main_chain(world: World) -> list[int]:
    """The deepest local chain at end of run, as block ids from genesis,
    walked back once from its tip; ties go to the lowest node id."""
    genesis, tip = world.registry[0], max(world.nodes, key=lambda node: node.tip.depth).tip
    return [block.id for block in (genesis, *branch(world.registry, tip, genesis))]
