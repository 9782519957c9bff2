"""Transaction workload in two techniques.

Full: a Poisson stream of transactions, each tracked (enables latency
metrics) and stamped at creation with when every miner holds it: at once for
its submitter, one propagation delay later for the rest.  One run-wide
pending list serves all miners: a miner's pool at time t is every pending
transaction it holds by t whose id its chain has not adopted.  The list is
kept in fee order as short sorted chunks, each with its least weight: a new
transaction is filed in one chunk, whatever the list's length, and packing
reads only the chunks in which something can still fit.

Light: a single shared pool is reset and refilled with fresh transactions
at every block creation.  Nothing is propagated or tracked per transaction,
which keeps high-rate runs cheap; blocks record count/fee/weight aggregates.
Nothing reads those before the run ends, so blocks are packed in batches:
once a batch is full, and at the end of the run.
"""

from __future__ import annotations

import bisect
import itertools
import math

import numpy as np

from .config import ConstantSampler, SimConfig, light_pool_size
from .engine import EventKind, EventQueue, exponential_and_pair, sample_exponentials
from .model import Block, NodeState, World


# Full mode keeps pending transactions in sorted chunks; a chunk splits in
# two once it holds more than twice this many entries.
PENDING_CHUNK = 64
# Light mode queues up to this many blocks and packs them in one pass ...
PACK_BATCH = 128
# ... as long as their pools, 16 bytes an entry, fit in this many bytes.
BATCH_BYTES = 8 << 20
# Light packing scans pools a step at a time from where the first one
# overflows; after this many steps, and each doubling of them, the scan
# checks whether it can stop.
SCAN_CHECK = 16


class SharedPool:
    """Light-mode pool: reset to N fresh transactions at every block creation.

    N covers roughly two blocks of intake.  The per-block intake itself is
    capped both by the block capacity and by the expected number of
    arrivals per block interval, so a light run cannot process more
    transactions than the configured demand generates.  A block is queued
    beside its pool until ``pack`` fills the queue's blocks at once: the
    j-th queued block's pool is row j of a ``(width, N)`` array of sizes and
    one of unit prices, each row contiguous.  The width is ``PACK_BATCH``,
    or fewer where that many pools would pass ``BATCH_BYTES``.
    """

    def __init__(
        self, rng: np.random.Generator, config: SimConfig, size_sampler, price_sampler
    ) -> None:
        self.rng = rng
        self.size_sampler = size_sampler  # MB or gas units
        self.price_sampler = price_sampler  # currency per MB, or per gas unit
        self.capacity = config.b_size
        self.refill_size = light_pool_size(config, size_sampler.mean())
        arrivals = config.t_n * config.b_interval
        self.block_budget = max(1, math.ceil(arrivals)) if config.t_n > 0 else 0
        # With constant size and price the pool contents are interchangeable,
        # so selection reduces to "take k" and no arrays are needed.
        self._uniform = isinstance(size_sampler, ConstantSampler) and isinstance(
            price_sampler, ConstantSampler
        )
        self.width = min(max(BATCH_BYTES // (16 * max(self.refill_size, 1)), 1), PACK_BATCH)
        self.blocks: list[Block] = []  # waiting for ``pack``
        if self.refill_size and not self._uniform:
            # Sizes and unit prices.  A constant sampler draws nothing, so
            # every row starts at the sampler's mean, which is a constant's value.
            self._rows = np.empty((2, self.width, self.refill_size))
            self._rows[0].fill(size_sampler.mean())
            self._rows[1].fill(price_sampler.mean())
        self.refill()

    def __len__(self) -> int:
        return self.refill_size

    def refill(self) -> None:
        """Discard the pool and fill it with fresh transactions."""
        if self.refill_size == 0 or self._uniform:
            return
        j = len(self.blocks)
        self.size_sampler.draw_into(self.rng, self._rows[0, j])
        self.price_sampler.draw_into(self.rng, self._rows[1, j])

    def take_block(self, block: Block) -> None:
        """Give ``block`` the pool, then reset and refill it: a constant
        pool fills ``block`` at once, any other queues it for ``pack``."""
        if self.refill_size == 0:
            return
        if self._uniform:
            size = self.size_sampler.value
            k = min(self.block_budget, int(self.capacity / size), self.refill_size)
            block.tx_count, block.weight = k, k * size
            block.tx_fee_total = k * (size * self.price_sampler.value)
            return
        self.blocks.append(block)
        if len(self.blocks) == self.width:
            self.pack()
        self.refill()

    def pack(self) -> None:
        """Fill every queued block from its pool and empty the queue.

        Each pool is scanned in fee order, ties to the lower index, taking
        what fits the capacity, up to ``block_budget`` entries.  Every sum
        runs in scan order, so each block gets exactly what a loop over its
        own pool would give it.  The pools are sorted row by row, then
        gathered position by position: column j holds pool j in fee order.
        The running weights find where the first pool overflows; before
        that every pool takes all, and from there the scan advances every
        pool one entry a step.
        """
        k = len(self.blocks)
        if k == 0:
            return
        n, budget = self.refill_size, self.block_budget
        sizes, prices = self._rows[:, :k]
        for kind in (None, "stable"):
            order = np.argsort(-(sizes * prices), axis=1, kind=kind)
            order += np.arange(0, k * n, n)[:, None]  # flat indices, row by row
            order = order.T.copy()
            w, f = sizes.take(order), prices.take(order)
            f *= w  # each fee, with the bits of size * price
            # An unstable sort may reorder a run of equal fees, which
            # changes the packing only if the run's sizes differ.
            if not np.any((f[1:] == f[:-1]) & (w[1:] != w[:-1])):
                break
        del order  # freed before the running sums, which read only w and f
        limit = min(budget, n)
        start, used = self._fitting_prefix(w, limit)
        taken = np.zeros(w.shape, dtype=bool)
        taken[:start] = True
        if start < limit:
            self._scan(w[start:], used, taken[start:], start)
        counts = taken.sum(axis=0)
        over = np.flatnonzero(counts > budget)
        if over.size:  # the scan ran past the budget: only the first ``budget`` count
            taken[:, over] &= taken[:, over].cumsum(axis=0) <= budget
            counts[over] = budget
            # Adding 0.0 for an entry not taken leaves a running sum as it was.
            used[over] = np.add.accumulate(w[:, over] * taken[:, over], axis=0)[-1]
        f *= taken
        fee_totals = np.add.accumulate(f, axis=0, out=f)[-1]
        for block, *filled in zip(self.blocks, counts.tolist(), fee_totals.tolist(), used.tolist()):
            block.tx_count, block.tx_fee_total, block.weight = filled
        self.blocks.clear()

    def _fitting_prefix(self, w: np.ndarray, limit: int) -> tuple[int, np.ndarray]:
        """The first position below ``limit`` at which some pool's running
        weight passes the capacity, or ``limit``, and each pool's weight
        before it."""
        run = np.add.accumulate(w[:limit], axis=0)
        over = (run > self.capacity).any(axis=1)
        first = int(over.argmax()) if over.any() else limit
        return first, run[first - 1] if first else np.zeros(w.shape[1])

    def _scan(self, steps: np.ndarray, used: np.ndarray, took: np.ndarray, start: int) -> None:
        """Run the greedy scan from position ``start`` on: row i of ``steps``
        holds each pool's weight at ``start + i``, and row i of ``took``
        receives what each took there.  Each pool has taken its first
        ``start`` entries, weighing ``used``, which the scan keeps up to
        date.  Whenever the steps made double, it stops if nothing left fits
        any pool, or if each has taken ``block_budget`` entries."""
        new = np.empty_like(used)
        capacity, budget = self.capacity, self.block_budget
        add, less_equal, copyto = np.add, np.less_equal, np.copyto
        check = SCAN_CHECK
        for i, (row, out) in enumerate(zip(steps, took), start=1):
            add(used, row, new)
            less_equal(new, capacity, out)
            copyto(used, new, where=out)
            if i == check and i < len(steps):
                check *= 2
                if not (used + steps[i:].min(axis=0) <= capacity).any():
                    break
                if budget < start + len(steps) and (start + took[:i].sum(axis=0) >= budget).all():
                    break


class TxWorkload:
    """Event-facing workload engine; also the miner's source of block bodies."""

    def __init__(
        self,
        world: World,
        queue: EventQueue,
        rng: np.random.Generator,
        config: SimConfig,
    ) -> None:
        self.world = world
        self.queue = queue
        self.rng = rng
        self.n_nodes = config.n_n  # submitters and exponential delays are drawn over all N_n
        self.full_mode = config.has_trans and config.t_technique == "full"
        self.tx_rate = config.t_n
        self.tx_delay = config.t_delay
        # Exponential delays with a zero mean are all zero and draw nothing.
        self.exponential = config.delay_mode == "exponential" and config.t_delay > 0.0
        self.block_capacity = config.b_size
        self.size_sampler, self.price_sampler = config.samplers
        self.shared_pool: SharedPool | None = None
        if config.has_trans and not self.full_mode:
            self.shared_pool = SharedPool(rng, config, self.size_sampler, self.price_sampler)
        # Full mode: sorted chunks of (-fee, id, tx, arrival at each miner)
        # entries, in packing order, with each chunk's last entry and least
        # weight alongside.  Comparisons stop at the unique id.
        self.pending: list[list[tuple[float, int, tuple, tuple[float, ...]]]] = []
        self._lasts: list[tuple[float, int, tuple, tuple[float, ...]]] = []
        self._minima: list[float] = []
        # Miner id -> index into a transaction's arrival times, in id order.
        self._slots = {miner_id: slot for slot, miner_id in enumerate(world.miner_ids)}
        self._tx_ids = itertools.count(1)  # full mode only

    def start(self) -> None:
        """Schedule the first transaction arrival (full mode).  The
        generator's state is read here, once, to choose how every
        transaction's submitter and recipient are drawn."""
        if self.full_mode and self.tx_rate > 0:
            self._draw = exponential_and_pair(self.rng, 1.0 / self.tx_rate, self.n_nodes)
            self._schedule_arrival(0.0)

    def _schedule_arrival(self, now: float) -> None:
        """Create the next transaction, the plain tuple ``(id, timestamp,
        weight, fee)``, and schedule its ``TX_CREATE`` at its submitter.

        ``exponential_and_pair`` draws the gap and the submitter, then an
        unmodelled recipient (drawn to keep the random stream); the size
        and the unit price follow, in that order.
        """
        gap, submitter = self._draw()
        at = now + gap
        weight = self.size_sampler.draw(self.rng)
        fee = weight * self.price_sampler.draw(self.rng)
        tx = (next(self._tx_ids), at, weight, fee)
        self.queue.schedule(at, EventKind.TX_CREATE, submitter, tx)

    def _arrivals(self, submitter: int, at: float) -> tuple[float, ...]:
        """When each miner holds a transaction ``submitter`` created ``at``,
        under exponential delays: a delay is drawn for every node but the
        submitter, in node order, as a per-recipient broadcast would."""
        # Node n's delay, for n past the submitter, is draw n - 1.
        delays = sample_exponentials(self.rng, self.tx_delay, self.n_nodes - 1)
        return tuple(
            at if m == submitter else at + delays[m if m < submitter else m - 1]
            for m in self._slots
        )

    def on_tx_create(self, submitter_id: int, now: float, tx: tuple) -> None:
        """Stamp ``tx``, the tuple ``(id, timestamp, weight, fee)`` that
        ``submitter_id`` created, with its arrival at every miner, file it
        in ``pending``, and schedule the next transaction.

        A constant delay needs no draws: the submitter holds ``tx`` at once,
        every other miner ``T_delay`` later.
        """
        tx_id, at, weight, fee = tx
        if self.exponential:
            arrivals = self._arrivals(submitter_id, at)
        else:
            stamps = [at + self.tx_delay] * len(self._slots)
            slot = self._slots.get(submitter_id)
            if slot is not None:
                stamps[slot] = at
            arrivals = tuple(stamps)
        entry = (-fee, tx_id, tx, arrivals)
        chunks, lasts, minima = self.pending, self._lasts, self._minima
        c = bisect.bisect_left(lasts, entry)
        if c < len(lasts):
            bisect.insort(chunks[c], entry)
        else:  # past every chunk's last entry: append to the last chunk
            if not chunks:
                chunks.append([])
                lasts.append(entry)
                minima.append(weight)
            c = len(chunks) - 1
            chunks[c].append(entry)
            lasts[c] = entry
        if weight < minima[c]:
            minima[c] = weight
        chunk = chunks[c]
        if len(chunk) > 2 * PENDING_CHUNK:
            tail = chunk[PENDING_CHUNK:]
            del chunk[PENDING_CHUNK:]
            chunks.insert(c + 1, tail)
            lasts.insert(c, chunk[-1])
            minima[c] = min(tx[2] for _, _, tx, _ in chunk)
            minima.insert(c + 1, min(tx[2] for _, _, tx, _ in tail))
        self._schedule_arrival(now)

    def take_block(self, miner: NodeState, now: float, block: Block) -> None:
        """Fill ``block``, mined by ``miner`` at ``now``, in place.

        Light mode hands it to the shared pool, which may fill it later.

        Full mode packs the miner's pool greedily in fee order (ties to the
        lower id), skipping what does not fit.  A chunk of ``pending`` whose
        least weight cannot fit is passed over whole, as nothing in it fits
        and the running weight cannot change across it.  Entries the scan
        visits that every miner's chain holds are dropped, and a chunk left
        empty is deleted.
        """
        if self.shared_pool is not None:
            self.shared_pool.take_block(block)
            return
        if not self.full_mode:
            return
        slot = self._slots[miner.id]
        on_chain = miner.chain_tx_ids
        chains = [self.world.nodes[miner_id].chain_tx_ids for miner_id in self._slots]
        capacity = self.block_capacity
        chunks, lasts, minima = self.pending, self._lasts, self._minima
        picked: list[tuple] = []
        used = 0.0
        fees = 0.0
        emptied: list[int] = []
        for c, least in enumerate(minima):
            if used + least > capacity:
                continue
            chunk = chunks[c]
            dropped: list[int] = []
            for index, (_, tx_id, tx, arrivals) in enumerate(chunk):
                if tx_id in on_chain:
                    if all(tx_id in chain for chain in chains):
                        dropped.append(index)
                elif arrivals[slot] <= now and used + tx[2] <= capacity:
                    picked.append(tx)
                    used += tx[2]
                    fees += tx[3]
                    if used + least > capacity:
                        break
            if len(dropped) == len(chunk):
                emptied.append(c)
            elif dropped:
                gone = set(dropped)
                chunk[:] = [e for i, e in enumerate(chunk) if i not in gone]
                lasts[c] = chunk[-1]
                minima[c] = min(tx[2] for _, _, tx, _ in chunk)
        for c in reversed(emptied):
            del chunks[c], lasts[c], minima[c]
        # Running sums: the values sum() gives on Python 3.10 and 3.11.
        block.transactions, block.tx_count = tuple(picked), len(picked)
        block.tx_fee_total, block.weight = fees, used
