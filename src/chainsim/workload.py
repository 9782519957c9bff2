"""Transaction workload in two techniques.

Full: a Poisson stream of transactions, each tracked (enables latency
metrics) and stamped at creation with when every miner holds it: at once for
its submitter, one propagation delay later for the rest.  One run-wide
pending list serves all miners: a miner's pool at time t is every pending
transaction it holds by t whose id its chain has not adopted.

Light: a single shared pool is reset and refilled with fresh transactions
at every block creation.  Nothing is propagated or tracked per transaction,
which keeps high-rate runs cheap; blocks record count/fee/weight aggregates.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .config import ConstantSampler, SimConfig, parse_sampler
from .engine import EventKind, EventQueue, RandomSource, sample_exponential, sample_exponentials
from .model import NodeState, Transaction, World


@dataclass(slots=True)
class BlockBody:
    """What a miner packed into one block."""

    transactions: tuple[Transaction, ...]
    tx_count: int
    fee_total: float
    weight_total: float  # MB or gas, matching the capacity model


EMPTY_BODY = BlockBody((), 0, 0.0, 0.0)


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
        budget = self.block_budget
        used = 0.0
        fees = 0.0
        count = 0
        for w, fee in zip(self._sizes[order].tolist(), self._fees[order].tolist()):
            if count >= budget:
                break
            if used + w <= capacity:
                used += w
                fees += fee
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
    ) -> None:
        self.world = world
        self.queue = queue
        self.rng = rng
        self.full_mode = config.has_trans and config.t_technique == "full"
        self.tx_rate = config.t_n
        self.tx_delay = config.t_delay
        # Exponential delays with a zero mean are all zero and draw nothing.
        self.exponential = config.delay_mode == "exponential" and config.t_delay > 0.0
        self.block_capacity = config.b_size
        self.size_sampler = parse_sampler(config.t_size)
        self.price_sampler = parse_sampler(config.t_fee)
        self.shared_pool: SharedPool | None = None
        if config.has_trans and not self.full_mode:
            self.shared_pool = SharedPool(
                world, rng, config, self.size_sampler, self.price_sampler
            )
        # Full mode: (-fee, id, tx, arrival at each miner) in packing order.
        self.pending: list[tuple[float, int, Transaction, tuple[float, ...]]] = []
        self._smallest = math.inf  # least weight of any transaction created so far
        self._miner_ids: list[int] = []

    def start(self, miner_ids: list[int]) -> None:
        """Schedule the first transaction arrival (full mode); arrival times
        are kept for the block-creating ``miner_ids`` alone, in this order."""
        self._miner_ids = list(miner_ids)
        if self.full_mode and self.tx_rate > 0:
            self._schedule_arrival(0.0)

    def _schedule_arrival(self, now: float) -> None:
        gap = sample_exponential(self.rng, 1.0 / self.tx_rate)
        at = now + gap
        tx = self._make_tx(at)
        self.queue.schedule(at, EventKind.TX_CREATE, tx.submitter_id, tx)

    def _make_tx(self, timestamp: float) -> Transaction:
        rng = self.rng.rng
        n_nodes = len(self.world.nodes)
        submitter = int(rng.integers(n_nodes))
        rng.integers(n_nodes)  # recipient: unmodelled, drawn to keep the random stream
        weight = self.size_sampler.draw(self.rng)
        price = self.price_sampler.draw(self.rng)
        return Transaction(
            id=self.world.new_tx_id(),
            timestamp=timestamp,
            submitter_id=submitter,
            weight=weight,
            fee=weight * price,
        )

    def _arrivals(self, tx: Transaction) -> tuple[float, ...]:
        """When each miner holds ``tx``.  With exponential delays a delay is
        drawn for every node but the submitter, in node order, as a
        per-recipient broadcast would; a constant delay needs no draws, so
        only the miners' stamps are computed."""
        at = tx.timestamp
        submitter = tx.submitter_id
        if not self.exponential:
            relayed = at + self.tx_delay
            return tuple(at if m == submitter else relayed for m in self._miner_ids)
        # Node n's delay, for n past the submitter, is draw n - 1.
        delays = sample_exponentials(self.rng, self.tx_delay, len(self.world.nodes) - 1)
        return tuple(
            at if m == submitter else at + delays[m if m < submitter else m - 1]
            for m in self._miner_ids
        )

    def on_tx_create(self, submitter_id: int, now: float, tx: Transaction) -> None:
        bisect.insort(self.pending, (-tx.fee, tx.id, tx, self._arrivals(tx)))
        self._smallest = min(self._smallest, tx.weight)
        self._schedule_arrival(now)

    def take_block(self, miner: NodeState, now: float) -> BlockBody:
        """Select the content of a new block mined at ``now``.

        Full mode packs the miner's pool greedily in fee order (ties to the
        lower id), skipping what does not fit.  The scan stops once even the
        lightest transaction created so far cannot fit, as none further down
        can, and drops the entries it passes that every miner's chain holds.
        """
        if self.shared_pool is not None:
            return self.shared_pool.take_block(now)
        if not self.full_mode:
            return EMPTY_BODY
        slot = self._miner_ids.index(miner.id)
        on_chain = miner.chain_tx_ids
        chains = [self.world.nodes[miner_id].chain_tx_ids for miner_id in self._miner_ids]
        capacity = self.block_capacity
        smallest = self._smallest
        picked: list[Transaction] = []
        dropped: list[int] = []
        used = 0.0
        if smallest <= capacity:
            for index, (_, tx_id, tx, arrivals) in enumerate(self.pending):
                if tx_id in on_chain:
                    if all(tx_id in chain for chain in chains):
                        dropped.append(index)
                elif arrivals[slot] <= now and used + tx.weight <= capacity:
                    picked.append(tx)
                    used += tx.weight
                    if used + smallest > capacity:
                        break
        if dropped:
            gone = set(dropped)
            end = dropped[-1] + 1
            self.pending[:end] = [e for i, e in enumerate(self.pending[:end]) if i not in gone]
        if not picked:
            return EMPTY_BODY
        weight = sum(tx.weight for tx in picked)
        fees = sum(tx.fee for tx in picked)
        return BlockBody(tuple(picked), len(picked), fees, weight)
