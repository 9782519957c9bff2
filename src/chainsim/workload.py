"""Transaction workload in two techniques.

Full: a Poisson stream of transactions, each tracked (enables latency
metrics) and filed in columns indexed by id.  A miner holds one at creation
if it submitted it, else one propagation delay later, computed on reading.
One run-wide pending list serves all miners: a miner's pool at time t is
every pending transaction it holds by t whose id its chain has not adopted.
The list holds ids in fee order as short chunks of flat id and negated-fee
arrays, each with its least weight: a stretch is sorted once and filed in as
few chunks as it reaches, and packing reads only the chunks in which
something can still fit.  A block holds its packed ids as one array, so no
transaction is a Python object.  Transactions are not events: before each
event, those ``streams`` draws at or before its time are filed in one call,
and the next one waits.

Light: a single shared pool is reset and refilled with fresh transactions
at every block creation.  Nothing is propagated or tracked per transaction,
which keeps high-rate runs cheap; blocks record count and fee aggregates.
Nothing reads those before the run ends, so blocks are packed in batches:
once a batch is full, and at the end of the run.  A pool of constant size
and price gives every block the same aggregates, so it takes no block as it
is made and fills every row at the end of the run.

A run without transactions (``SimConfig.tx_technique`` None) has neither a
transaction stream nor a pool.
"""

from __future__ import annotations

import bisect
import math
from array import array
from typing import Callable

import numpy as np

from .config import MAX_FULL_MODE_TRANSACTIONS, RunCapError, SimConfig, light_pool_size
from .model import NodeState, World, view
from .streams import ConstantSampler, Streams


# Full mode keeps pending transactions in sorted chunks; a chunk is cut into
# chunks of this many once it holds more than twice as many.
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
    transactions than the configured demand generates.  A pool that
    ``draws`` queues a block beside its pool until ``pack`` fills the
    queue's blocks at once: the j-th queued block's pool is row j of a
    ``(width, N)`` array of sizes and one of unit prices, each row
    contiguous.  The width is ``PACK_BATCH``, or fewer where that many pools
    would pass ``BATCH_BYTES``.  A pool of constant size and price draws
    nothing: ``pack`` fills every block alike at the end of the run.
    """

    def __init__(self, world: World, streams: Streams, config: SimConfig) -> None:
        self.world, self.streams = world, streams
        samplers = size, price = streams.size_sampler, streams.price_sampler  # MB or gas units; per unit
        self.capacity = config.b_size
        self.refill_size = light_pool_size(config, size.mean())
        arrivals = config.t_n * config.b_interval
        self.block_budget = max(1, math.ceil(arrivals))
        # With constant size and price the pool contents are interchangeable,
        # so selection reduces to "take k" and no arrays are needed.
        self.draws = not all(isinstance(s, ConstantSampler) for s in samplers)  # a fresh pool for every block
        if not self.draws:  # every block gets the same (tx_count, tx_fee_total)
            k = min(self.block_budget, int(self.capacity / size.value), self.refill_size)
            self._filled = (k, k * (size.value * price.value))
        self.width = min(max(BATCH_BYTES // (16 * self.refill_size), 1), PACK_BATCH)
        self.blocks: list[int] = []  # ids waiting for ``pack``
        if self.draws:
            # Sizes and unit prices.  A constant sampler draws nothing, so
            # every row starts at the sampler's mean, which is a constant's value.
            self._rows = np.empty((2, self.width, self.refill_size))
            self._rows[:] = [[[s.mean()]] for s in samplers]
            streams.light_pool(self._rows, 0)  # the first block's pool

    def __len__(self) -> int:
        return self.refill_size

    def take_block(self, block: int) -> None:
        """Queue ``block`` beside its pool for ``pack``, then draw a fresh
        pool; a pool that ``draws`` nothing leaves ``block`` to ``pack``."""
        if not self.draws:
            return
        self.blocks.append(block)
        if len(self.blocks) == self.width:
            self.pack()
        self.streams.light_pool(self._rows, len(self.blocks))

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
        if not self.draws:  # constant: every block but genesis gets the same row
            for column, value in zip((self.world.tx_count, self.world.tx_fee_total), self._filled):
                view(column)[1:] = value
            return
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
        f *= taken
        fee_totals = np.add.accumulate(f, axis=0, out=f)[-1]
        view(self.world.tx_count)[self.blocks] = counts
        view(self.world.tx_fee_total)[self.blocks] = fee_totals
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
    """The transaction stream, and the miners' source of block bodies."""

    def __init__(self, world: World, streams: Streams, config: SimConfig) -> None:
        self.world, self.streams = world, streams
        self.full_mode = config.tx_technique == "full"
        self.tx_delay = config.t_delay
        self.block_capacity = config.b_size
        light = config.tx_technique == "light"
        self.shared_pool = SharedPool(world, streams, config) if light else None
        # Whether ``take_block`` fills or queues anything: else a block's row waits for the run's end.
        self.packs_each_block = self.full_mode or (light and self.shared_pool.draws)
        # Full mode: the pending ids in (-fee, id) order, as chunks of ids beside their negated fees
        # (``_keys``), each with a negated fee from its last to the next chunk's first (``_lasts``).
        self.pending: list[array] = []
        self._keys: list[array] = []
        self._lasts: list[float] = []
        # Miner id -> its slot, a column of ``_adopted`` and of ``_delays``.
        self._slots = {miner_id: slot for slot, miner_id in enumerate(world.miner_ids)}
        self._miners = np.array(world.miner_ids)
        # Columns indexed by id, grown by ``file``, and each chunk's least weight or less.
        self.times, self._weights, self._fees, self._minima = (np.zeros(0) for _ in range(4))
        self._submitters, self._adopted = np.zeros(0, np.int64), np.zeros((0, len(self._slots)), bool)
        self._delays = None if streams.tx_delays is None else np.zeros(self._adopted.shape)  # drawn delays

    def start(self) -> Callable[[float], None] | None:
        """Hold the first transaction (full mode) and return ``advance``, for
        ``run_loop`` to call before each event; None without a transaction stream."""
        if not self.full_mode:
            return None
        self.streams.start_transactions(self.world.miner_ids)
        return self.advance

    def advance(self, time: float) -> None:
        """File, in creation order, every transaction made at or before ``time``,
        and hold the first made after it."""
        while self.streams.held[1][1] <= time:
            self.file(*self.streams.transactions(time))

    def file(self, first: int, submitters, times, weights, fees, delays=None) -> None:
        """File the transactions with ids ``first``, ``first + 1``, ...: the i-th was made by
        ``submitters[i]`` at ``times[i]``, weighs ``weights[i]`` and pays ``fees[i]``, and
        reaches each miner at once if it is the submitter, else ``T_delay`` later or, given
        ``delays``, after that miner's delay in row i, in slot order.  Raises ``RunCapError``
        once the ids pass ``MAX_FULL_MODE_TRANSACTIONS``, after filing those up to it."""
        k = min(len(times), MAX_FULL_MODE_TRANSACTIONS + 1 - first)
        if k > 0:
            rows = slice(first, first + k)
            if rows.stop > len(self.times):  # grow every column, at least doubling it
                size = max(rows.stop, 2 * len(self.times))
                # The widest first: the peak holds every new column and the last one's old copy.
                for name in ("_delays", "times", "_weights", "_fees", "_submitters", "_adopted"):
                    if (old := getattr(self, name)) is not None:
                        setattr(self, name, np.zeros((size, *old.shape[1:]), dtype=old.dtype))
                        getattr(self, name)[: len(old)] = old
            self.times[rows], self._weights[rows], self._fees[rows] = times[:k], weights[:k], fees[:k]
            self._submitters[rows] = submitters[:k]
            if delays is not None:
                self._delays[rows] = np.asarray(delays)[:k]
            self._order(first, k)
        if k < len(times):
            raise RunCapError(
                f"a full-mode run made more than {MAX_FULL_MODE_TRANSACTIONS:,} transactions; "
                "lower T_n or the horizon"
            )

    def _order(self, first: int, k: int) -> None:
        """Put the ``k`` ids from ``first`` in the fee order, sorted once: those past every pending
        one are appended to the last chunk, the rest inserted one at a time.  Every pending id is
        lower, so each goes after every pending one of its fee: its negated fee finds its place."""
        order = np.argsort(-self._fees[first : first + k], kind="stable") + first
        keys, weights = -self._fees[order], self._weights[order]
        chunks, lasts = self.pending, self._lasts
        inner = int(keys.searchsorted(lasts[-1])) if lasts else 0
        for tx_id, key, weight in zip(*(column[:inner].tolist() for column in (order, keys, weights))):
            c = bisect.bisect_right(lasts, key)
            at = bisect.bisect_right(self._keys[c], key)
            chunks[c].insert(at, tx_id)
            self._keys[c].insert(at, key)
            if weight < self._minima[c]:
                self._minima[c] = weight
            if len(chunks[c]) > 2 * PENDING_CHUNK:
                self._split(c)
        if inner < k:
            if not chunks:
                chunks.append(array("q"))
                self._keys.append(array("d"))
                lasts.append(0.0)
                self._minima = np.array([math.inf])
            chunks[-1].frombytes(order[inner:].tobytes())
            self._keys[-1].frombytes(keys[inner:].tobytes())
            lasts[-1], self._minima[-1] = float(keys[-1]), min(self._minima[-1], weights[inner:].min())
            if len(chunks[-1]) > 2 * PENDING_CHUNK:
                self._split(len(chunks) - 1)

    def _split(self, c: int) -> None:
        """Cut chunk ``c`` into chunks of ``PENDING_CHUNK`` ids, the last taking the rest."""
        ids, keys = self.pending[c], self._keys[c]
        starts = range(0, len(ids) - PENDING_CHUNK, PENDING_CHUNK)
        ends = [*starts[1:], None]
        self.pending[c : c + 1] = [ids[s:e] for s, e in zip(starts, ends)]
        self._keys[c : c + 1] = [keys[s:e] for s, e in zip(starts, ends)]
        self._lasts[c : c + 1] = [keys[s - 1] for s in starts[1:]] + self._lasts[c : c + 1]
        least = np.minimum.reduceat(self._weights[np.frombuffer(ids, np.int64)], starts)
        self._minima = np.concatenate((self._minima[:c], least, self._minima[c + 1 :]))

    def arrivals(self, ids: np.ndarray, slot: int) -> np.ndarray:
        """When the miner in ``slot`` holds each transaction of ``ids``, as ``file`` says."""
        t, delay = self.times[ids], self.tx_delay if self._delays is None else self._delays[ids, slot]
        return np.where(self._submitters[ids] == self._miners[slot], t, t + delay)

    def adopt(self, miner_id: int, block: int) -> None:
        """Flag ``block``'s transactions adopted by ``miner_id``'s chain: it never packs them again."""
        self._adopted[self.world.transactions[block], self._slots[miner_id]] = True

    def take_block(self, miner: NodeState, now: float, block: int) -> None:
        """Fill ``block``'s row, mined by ``miner`` at ``now``; light mode hands it to the shared
        pool, which may fill it later.

        Full mode packs the miner's pool greedily in fee order (ties to the lower id), skipping
        what does not fit, and sums the fees in that order; ``World.transactions`` gets the ids.
        It passes over whole a chunk whose least weight cannot fit, and from each chunk it
        visits drops the ids every miner's chain has adopted, deleting a chunk left empty."""
        if not self.pending:  # always so in light mode
            if self.shared_pool is not None:
                self.shared_pool.take_block(block)
            return
        slot, capacity, chunks = self._slots[miner.id], self.block_capacity, self.pending
        taken, emptied, used = [np.empty(0, np.int64)], [], 0.0
        # The chunks ahead in which something can still fit, found again whenever ``used`` grows.
        lower = self._minima
        ahead, i = np.flatnonzero(lower <= capacity), 0
        while i < len(ahead):
            c, i = int(ahead[i]), i + 1
            ids = np.frombuffer(chunks[c], np.int64)  # a view: chunk ``c`` cannot be resized while it lives
            ready = ids[(self.arrivals(ids, slot) <= now) & ~self._adopted[ids, slot]]
            if len(ready) and (grown := self._fill(ready, used, lower[c], taken)) != used:
                used, ahead, i = grown, np.flatnonzero(grown + lower[c + 1 :] <= capacity) + (c + 1), 0
            gone = self._adopted[ids].all(axis=1)  # dropping these leaves the chunk's bounds true
            if gone.all():
                emptied.append(c)
            elif gone.any():
                kept = ~gone
                chunks[c] = array("q", ids[kept].tobytes())
                self._keys[c] = array("d", np.frombuffer(self._keys[c])[kept].tobytes())
        for c in reversed(emptied):
            del chunks[c], self._keys[c], self._lasts[c]
        self._minima = np.delete(self._minima, emptied)
        world = self.world
        world.transactions[block] = ids = np.concatenate(taken)
        world.tx_count[block] = len(ids)
        world.tx_fee_total[block] = float(np.add.accumulate(np.concatenate(([0.0], self._fees[ids])))[-1])

    def _fill(self, ready: np.ndarray, used: float, least: float, taken: list[np.ndarray]) -> float:
        """Append to ``taken`` each id of ``ready``, in order, that fits beside ``used``, and
        return the weight then used: the prefix that fits from one running sum started at
        ``used``, each later fit from an elementwise test, while ``least`` can still fit."""
        capacity, weights = self.block_capacity, self._weights[ready]
        run = np.add.accumulate(np.concatenate(([used], weights)))
        fit = int(run.searchsorted(capacity, "right")) - 1  # weights are not negative: ``run`` is sorted
        taken.append(ready[:fit])
        used, ready, weights = float(run[fit]), ready[fit + 1 :], weights[fit + 1 :]
        while used + least <= capacity and len(fits := np.flatnonzero(used + weights <= capacity)):
            j = int(fits[0])
            taken.append(ready[j : j + 1])
            used, ready, weights = used + float(weights[j]), ready[j + 1 :], weights[j + 1 :]
        return used
