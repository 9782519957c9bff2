"""Transaction workload in two techniques.

Full: every node keeps its own pool, transactions are created as a Poisson
stream, propagated, and tracked individually (enables latency metrics).

Light: a single shared pool is reset and refilled with fresh transactions
at every block creation.  Nothing is propagated or tracked per transaction,
which keeps high-rate runs cheap; blocks record count/fee/size aggregates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .config import ConstantSampler, SimConfig, parse_sampler
from .engine import Event, EventKind, EventQueue, RandomSource, sample_exponential
from .model import Transaction, World
from .network import Network


@dataclass(slots=True)
class BlockBody:
    """What a miner packed into one block."""

    transactions: tuple[Transaction, ...]
    tx_count: int
    fee_total: float
    weight_total: float  # MB or gas, matching the capacity model


EMPTY_BODY = BlockBody((), 0, 0.0, 0.0)


def select_for_block(
    pool: Iterable[Transaction], capacity: float, *, gas: bool = False
) -> list[Transaction]:
    """Greedy fee-descending packing under the size (or gas) capacity.

    A transaction that does not fit is skipped and scanning continues, so a
    large high-fee transaction cannot block smaller ones behind it.  Fee
    ties break toward the lower transaction id.
    """
    ordered = sorted(pool, key=lambda t: (-t.fee, t.id))
    picked: list[Transaction] = []
    used = 0.0
    for tx in ordered:
        weight = tx.used_gas if gas else tx.size
        if used + weight <= capacity:
            picked.append(tx)
            used += weight
    return picked


class SharedPool:
    """Light-mode pool: reset to N fresh transactions at every block creation.

    N covers roughly two blocks of intake.  The per-block intake itself is
    capped both by the block capacity and by the expected number of
    arrivals per block interval, so a light run cannot process more
    transactions than the configured demand generates.
    """

    def __init__(
        self, world: World, rng: RandomSource, config: SimConfig, size_sampler, price_sampler
    ) -> None:
        self.world = world
        self.rng = rng
        self.size_sampler = size_sampler  # MB in size model, gas units in gas model
        self.price_sampler = price_sampler  # currency per MB, or per gas unit
        self.capacity = config.b_size
        self.capacity_estimate = max(1, int(config.b_size / size_sampler.mean()))
        if config.t_n > 0:
            arrivals = config.t_n * config.b_interval
            self.refill_size = int(min(math.ceil(2 * arrivals), 2 * self.capacity_estimate))
            self.block_budget = max(1, math.ceil(arrivals))
        else:
            self.refill_size = 0
            self.block_budget = 0
        # With constant size and price the pool contents are interchangeable,
        # so selection reduces to "first k ids" and no arrays are needed.
        self._uniform = isinstance(size_sampler, ConstantSampler) and isinstance(
            price_sampler, ConstantSampler
        )
        self._sizes: np.ndarray | None = None
        self._fees: np.ndarray | None = None
        self._first_id = 0
        self.refill(0.0)

    def __len__(self) -> int:
        return self.refill_size

    def refill(self, now: float) -> None:
        """Discard the pool and fill it with fresh transactions stamped ``now``."""
        n = self.refill_size
        self._first_id = self.world._next_tx_id
        self.world._next_tx_id += n
        if n == 0 or self._uniform:
            return
        self._sizes = self.size_sampler.draw_many(self.rng, n)
        prices = self.price_sampler.draw_many(self.rng, n)
        self._fees = self._sizes * prices

    def take_block(self, now: float) -> BlockBody:
        """Pack one block from the pool, then reset and refill it."""
        if self.refill_size == 0:
            return EMPTY_BODY
        body = self._pack()
        self.refill(now)
        return body

    def _pack(self) -> BlockBody:
        capacity = self.capacity
        if self._uniform:
            size = self.size_sampler.value
            k = min(self.block_budget, int(capacity / size), self.refill_size)
            fee = size * self.price_sampler.value
            return BlockBody((), k, k * fee, k * size)
        order = np.argsort(-self._fees, kind="stable")
        used = 0.0
        fees = 0.0
        count = 0
        for idx in order:
            if count >= self.block_budget:
                break
            w = float(self._sizes[idx])
            if used + w <= capacity:
                used += w
                fees += float(self._fees[idx])
                count += 1
        return BlockBody((), count, fees, used)


class TxWorkload:
    """Event-facing workload engine; also the miner's source of block bodies."""

    def __init__(
        self,
        world: World,
        queue: EventQueue,
        rng: RandomSource,
        config: SimConfig,
        network: Network,
    ) -> None:
        self.world = world
        self.queue = queue
        self.rng = rng
        self.network = network
        self.full_mode = config.has_trans and config.t_technique == "full"
        self.gas_model = config.capacity_model == "gas"
        self.tx_rate = config.t_n
        self.block_capacity = config.b_size
        self.size_sampler = parse_sampler(config.t_size)
        self.price_sampler = parse_sampler(config.t_fee)
        self.shared_pool: SharedPool | None = None
        if config.has_trans and not self.full_mode:
            self.shared_pool = SharedPool(
                world, rng, config, self.size_sampler, self.price_sampler
            )

    def start(self) -> None:
        """Schedule the first transaction arrival (full mode)."""
        if self.full_mode and self.tx_rate > 0:
            self._schedule_arrival(0.0)

    def _schedule_arrival(self, now: float) -> None:
        gap = sample_exponential(self.rng, 1.0 / self.tx_rate)
        at = now + gap
        tx = self._make_tx(at)
        self.queue.schedule(Event(EventKind.TX_CREATE, tx.submitter_id, at, tx))

    def _make_tx(self, timestamp: float) -> Transaction:
        rng = self.rng.rng
        n_nodes = len(self.world.nodes)
        submitter = int(rng.integers(n_nodes))
        recipient = int(rng.integers(n_nodes))
        size = self.size_sampler.draw(self.rng)
        price = self.price_sampler.draw(self.rng)
        return Transaction(
            id=self.world.new_tx_id(),
            timestamp=timestamp,
            submitter_id=submitter,
            recipient_id=recipient,
            value=1.0,
            size=0.0 if self.gas_model else size,
            fee=size * price,
            used_gas=size if self.gas_model else 0.0,
        )

    def on_tx_create(self, event: Event) -> None:
        tx: Transaction = event.payload
        node = self.world.nodes[event.node_id]
        if tx.id not in node.chain_tx_ids:
            node.tx_pool[tx.id] = tx
        self.network.broadcast_tx(event.node_id, tx, event.time)
        self._schedule_arrival(event.time)

    def on_tx_receive(self, event: Event) -> None:
        tx: Transaction = event.payload
        node = self.world.nodes[event.node_id]
        # A transaction already adopted into the chain must not re-enter the
        # pool, or it could be mined twice on the same branch.
        if tx.id not in node.chain_tx_ids:
            node.tx_pool[tx.id] = tx

    def take_block(self, miner, now: float) -> BlockBody:
        """Select the content of a new block mined at ``now``."""
        if self.shared_pool is not None:
            return self.shared_pool.take_block(now)
        if not self.full_mode:
            return EMPTY_BODY
        picked = select_for_block(miner.tx_pool.values(), self.block_capacity, gas=self.gas_model)
        if not picked:
            return EMPTY_BODY
        weight = sum((tx.used_gas if self.gas_model else tx.size) for tx in picked)
        fees = sum(tx.fee for tx in picked)
        return BlockBody(tuple(picked), len(picked), fees, weight)
