"""Miner selection, block production, and longest-chain reception handling.

Proof of work is modelled as a per-miner exponential race: every miner
always has one live creation event drawn with mean block_interval/weight.
Whenever a miner's tip moves (its own block, or an adopted incoming block)
it schedules a fresh creation event on the new tip; the superseded event
still sits in the queue and is discarded when it fires, because the parent
it recorded is no longer the miner's tip.  By memorylessness each miner's
successful creations form a Poisson process at rate weight/block_interval,
which reproduces both hash-share proportionality and fork formation under
propagation delay.  Discarding *and* rescheduling at fire time instead
would hand the previous winner a head start and demonstrably skews block
shares away from hash shares.

Blocks reach only the nodes up to the highest-id miner.  A zero-weight node
above it changes no output: packing reads only miners' adopted transactions,
only creators reference uncles, rewards follow ``Block.miner_id``, and
``main_chain`` never picks it, as the creator of its tip has a lower id and a
chain at least as deep.  A zero-weight node below some miner can win that
depth tie, so it stays simulated.
"""

from __future__ import annotations

from enum import Enum

from .config import SimConfig
from .engine import EventKind, EventQueue, RandomSource, sample_exponential
from .model import Block, NodeState, World
from .network import Network
from .workload import TxWorkload


class ChainAction(Enum):
    APPENDED = "appended"
    REPLACED = "replaced"
    DISCARDED_SHORTER = "discarded_shorter"
    STORED_AS_UNCLE = "stored_as_uncle"


class ConsensusEngine:
    def __init__(
        self,
        world: World,
        queue: EventQueue,
        rng: RandomSource,
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
        if config.selector == "stake":
            raw = [n.stake for n in world.nodes]
        else:
            raw = [n.hash_power for n in world.nodes]
        total = sum(raw)
        self.weights = [w / total for w in raw]
        # Mean seconds between a miner's blocks; 0 marks a node that never mines.
        self.means = [self.block_interval / w if w > 0 else 0.0 for w in self.weights]
        self.miner_ids = [n.id for n in world.nodes if self.weights[n.id] > 0]
        network.set_recipients(self.miner_ids[-1] + 1)
        self._rr_cycle = 0

    # -- scheduling -----------------------------------------------------

    def start(self) -> None:
        """Schedule every miner's first creation event."""
        if self.round_robin:
            self._schedule_round_robin(0.0)
            return
        for miner_id in self.miner_ids:
            self.schedule_next_creation(self.world.nodes[miner_id], 0.0)

    def schedule_next_creation(self, miner: NodeState, at: float) -> float:
        """Arm the miner's race on its current tip from ``at``; return its time."""
        mean = self.means[miner.id]
        if mean <= 0:
            raise ValueError(f"node {miner.id} has zero creation weight")
        time = at + sample_exponential(self.rng, mean)
        self.queue.schedule(time, EventKind.BLOCK_CREATE, miner.id, miner.tip)
        return time

    def _schedule_round_robin(self, at: float) -> None:
        miner_id = self.miner_ids[self._rr_cycle % len(self.miner_ids)]
        self._rr_cycle += 1
        tip = self.world.nodes[miner_id].tip
        self.queue.schedule(at + self.block_interval, EventKind.BLOCK_CREATE, miner_id, tip)

    # -- block creation -------------------------------------------------

    def on_block_create(self, miner_id: int, now: float, intended_parent: Block) -> Block | None:
        miner = self.world.nodes[miner_id]
        if intended_parent.id != miner.tip.id:
            # The tip moved after this event was armed; the race already
            # restarted on the new tip when the miner adopted it.
            self.world.stale_creation_events += 1
            if self.round_robin:
                self._schedule_round_robin(now)
            return None

        parent = miner.tip
        body = self.workload.take_block(miner, now)
        block = Block(
            id=self.world.new_block_id(),
            depth=parent.depth + 1,
            previous_id=parent.id,
            timestamp=now,
            miner_id=miner.id,
            weight=body.weight_total,
            transactions=body.transactions,
            tx_count=body.tx_count,
            tx_fee_total=body.fee_total,
            uncles=self._reference_uncles(miner, parent.depth + 1),
        )
        self.world.registry.add(block)
        self.world.blocks_created += 1

        miner.chain_pos[block.id] = len(miner.chain)
        miner.chain.append(block.id)
        miner.tip = block
        self._absorb(miner, block)

        self.network.broadcast_block(miner.id, block, now)
        if self.round_robin:
            self._schedule_round_robin(now)
        else:
            self.schedule_next_creation(miner, now)
        return block

    def eligible_uncles(self, node: NodeState, next_depth: int) -> list[int]:
        """Candidate uncles for a block at ``next_depth``, oldest first.

        Eligible means: inside the depth window, not on the node's current
        chain, and not already referenced (by the node's chain or anywhere
        else in the run).  Entries fallen out of the window are pruned.
        """
        low = next_depth - self.uncle_window
        registry = self.world.registry
        found: list[tuple[int, int]] = []
        for uncle_id in list(node.uncle_chain):
            depth = registry[uncle_id].depth
            if depth < low:
                del node.uncle_chain[uncle_id]  # can never re-enter the window
                continue
            if depth >= next_depth:
                continue
            if uncle_id in node.chain_pos or uncle_id in node.included_uncles:
                continue
            if uncle_id in self.world.included_uncles:
                continue
            found.append((depth, uncle_id))
        found.sort()
        return [uncle_id for _, uncle_id in found[: self.max_uncles]]

    def _reference_uncles(self, miner: NodeState, next_depth: int) -> tuple[int, ...]:
        if not self.uncles_enabled:
            return ()
        chosen = self.eligible_uncles(miner, next_depth)
        for uncle_id in chosen:
            del miner.uncle_chain[uncle_id]
            miner.included_uncles.add(uncle_id)
            self.world.included_uncles.add(uncle_id)
        return tuple(chosen)

    # -- block reception ------------------------------------------------

    def deliver_block(self, node_ids: tuple[int, ...], now: float, block: Block) -> None:
        """Hand ``block`` to each of ``node_ids`` in turn."""
        receive = self.on_block_receive
        for node_id in node_ids:
            receive(node_id, now, block)

    def on_block_receive(self, node_id: int, now: float, block: Block) -> ChainAction:
        node = self.world.nodes[node_id]
        if block.id in node.chain_pos:
            # Already adopted earlier via a deeper descendant.
            return ChainAction.DISCARDED_SHORTER

        tip = node.tip
        if block.previous_id == tip.id:
            node.chain_pos[block.id] = len(node.chain)
            node.chain.append(block.id)
            node.tip = block
            self._absorb(node, block)
            action = ChainAction.APPENDED
        elif block.depth > tip.depth:
            self._replace_chain(node, block)
            action = ChainAction.REPLACED
        else:
            # Not deeper than the local tip: rejected outright, but with
            # uncles enabled it is remembered as a referenceable uncle.
            if (
                self.uncles_enabled
                and self.weights[node.id] > 0
                and block.id not in node.included_uncles
            ):
                node.uncle_chain[block.id] = None
                return ChainAction.STORED_AS_UNCLE
            return ChainAction.DISCARDED_SHORTER

        if self.weights[node_id] > 0 and not self.round_robin:
            self.schedule_next_creation(node, now)
        return action

    def _replace_chain(self, node: NodeState, block: Block) -> None:
        """Adopt the deeper branch ending at ``block``.

        Walk back from the new head until a block already on the local
        chain is hit (the registry supplies any blocks never delivered to
        this node), then splice past the fork point.
        """
        registry = self.world.registry
        suffix = [block]
        parent = registry[block.previous_id]
        while parent.id not in node.chain_pos:
            suffix.append(parent)
            parent = registry[parent.previous_id]
        fork_index = node.chain_pos[parent.id]
        for abandoned_id in node.chain[fork_index + 1 :]:
            del node.chain_pos[abandoned_id]
        del node.chain[fork_index + 1 :]
        for adopted in reversed(suffix):
            node.chain_pos[adopted.id] = len(node.chain)
            node.chain.append(adopted.id)
            self._absorb(node, adopted)
        node.tip = block

    def _absorb(self, node: NodeState, block: Block) -> None:
        """Transaction and uncle bookkeeping for a block newly on the node's
        chain; only nodes that create blocks read it, so only they keep it."""
        if self.weights[node.id] <= 0:
            return
        if block.transactions:
            node.chain_tx_ids.update(tx.id for tx in block.transactions)
        if self.uncles_enabled:
            node.uncle_chain.pop(block.id, None)
            for uncle_id in block.uncles:
                node.included_uncles.add(uncle_id)
                node.uncle_chain.pop(uncle_id, None)


def main_chain(world: World) -> list[int]:
    """The deepest local chain at end of run; ties go to the lowest node id."""
    best: NodeState | None = None
    for node in world.nodes:
        if best is None or node.tip.depth > best.tip.depth:
            best = node
    return list(best.chain)
