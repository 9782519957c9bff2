"""Transaction workload in two techniques.

Full: a Poisson stream of transactions, each tracked (enables latency
metrics) and filed in columns indexed by id, with the time at which each
miner holds it: at creation for its submitter, one propagation delay later
for the rest.  One run-wide pending list serves all miners: a miner's pool
at time t is every pending transaction it holds by t whose id its chain has
not adopted.  The list holds ids in fee order as short chunks of flat id and
negated-fee arrays, each with its least weight: a stretch is sorted once and
filed in as few chunks as it reaches, and packing reads only the chunks in
which something can still fit.  A block holds its packed ids as one array,
so no transaction is a Python object.  Transactions are not events: before
each event, the ones created before it are filed, drawn in batches.

Light: a single shared pool is reset and refilled with fresh transactions
at every block creation.  Nothing is propagated or tracked per transaction,
which keeps high-rate runs cheap; blocks record count/fee/weight aggregates.
Nothing reads those before the run ends, so blocks are packed in batches:
once a batch is full, and at the end of the run.
"""

from __future__ import annotations

import bisect
import math
from array import array
from typing import Callable

import numpy as np

from .config import (
    MAX_FULL_MODE_TRANSACTIONS,
    ConstantSampler,
    ExponentialSampler,
    RunCapError,
    SimConfig,
    light_pool_size,
)
from .engine import EventQueue
from .model import Block, NodeState, World


# Full mode keeps pending transactions in sorted chunks; a chunk is cut into
# chunks of this many once it holds more than twice as many.
PENDING_CHUNK = 64
# Full mode reads up to this many bytes of raw words in one batch of rows.
TX_BATCH_BYTES = 1 << 20
_LOW, _HALF = np.uint64(0xFFFFFFFF), np.uint64(32)  # a raw word's 32-bit halves
# Light mode queues up to this many blocks and packs them in one pass ...
PACK_BATCH = 128
# ... as long as their pools, 16 bytes an entry, fit in this many bytes.
BATCH_BYTES = 8 << 20
# Light packing scans pools a step at a time from where the first one
# overflows; after this many steps, and each doubling of them, the scan
# checks whether it can stop.
SCAN_CHECK = 16


def _uniforms(words: np.ndarray) -> np.ndarray:
    """What ``Generator.random()`` makes of each raw word: its top 53 bits over 2**53."""
    return (words >> np.uint64(11)) * 2.0**-53


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
        if self._uniform:  # every block gets the same (tx_count, weight, tx_fee_total)
            size = size_sampler.value
            k = min(self.block_budget, int(self.capacity / size), self.refill_size)
            self._filled = (k, k * size, k * (size * price_sampler.value))
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
            block.tx_count, block.weight, block.tx_fee_total = self._filled
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
    """The transaction stream, and the miners' source of block bodies.

    Full mode holds the next transaction, drawn but not filed, and the
    ``(time, seq)`` its creation sorts at among the events, the seq taken
    from the queue's counter.  ``advance`` files each transaction created
    before an event and draws its successor, in the order one event per
    transaction would, into columns indexed by id (``times``, the creation
    times, gives the run's latency).  It reads rows of raw PCG64 words, one
    per transaction filed: its delays to the other ``N_n - 1`` nodes under
    exponential ``T_delay``, then its successor's gap, a word for the
    submitter and the unmodelled recipient, and the size and the unit price
    unless constant; ``integers(n)`` runs Lemire's method on a word's low,
    then its high half.  A row with a rejected half or a zero word is given
    back for numpy's own calls to draw, as is every row when numpy would not
    read the pair from one word (``N_n`` outside [2, 2**32), or a half
    buffered), or when an exponential mean is so small that a nonzero
    uniform gives 0 too.
    """

    def __init__(
        self, world: World, queue: EventQueue, rng: np.random.Generator, config: SimConfig
    ) -> None:
        self.world, self.queue, self.rng = world, queue, rng
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
        # Full mode: the pending ids in (-fee, id) order, as chunks of ids beside their negated fees
        # (``_keys``), each with a negated fee from its last to the next chunk's first (``_lasts``).
        self.pending: list[array] = []
        self._keys: list[array] = []
        self._lasts: list[float] = []
        # Miner id -> its slot, a column of ``_arrivals`` and ``_adopted``.
        self._slots = {miner_id: slot for slot, miner_id in enumerate(world.miner_ids)}
        # Columns indexed by id, grown by ``file``, and each chunk's least weight or less.
        self.times, self._weights, self._fees, self._minima = (np.zeros(0) for _ in range(4))
        self._arrivals, self._adopted = np.zeros((0, len(self._slots))), np.zeros((0, len(self._slots)), bool)
        self.created = 0  # full-mode transactions drawn; the last one's id

    def start(self) -> Callable[[float, float], None] | None:
        """Draw the first transaction (full mode) and return ``advance``, for
        ``run_loop`` to call before each event; None without a transaction
        stream.  The generator's state is read here, once, to choose how they are drawn."""
        if not self.full_mode or self.tx_rate <= 0:
            return None
        n, bits = self.n_nodes, self.rng.bit_generator
        self._gaps = ExponentialSampler(1.0 / self.tx_rate)
        self._delays = ExponentialSampler(self.tx_delay) if self.exponential else None
        samplers = (self._gaps, self._delays, self.size_sampler, self.price_sampler)
        # A row: the delays, the gap, the pair, then the size and price unless constant.
        self._pair = n if self.exponential else 1
        self._stride = self._pair + 1 + sum(not isinstance(s, ConstantSampler) for s in samplers[2:])
        self._max_rows = max(TX_BATCH_BYTES // (8 * self._stride), 1)
        raw = 2 <= n < 2**32 and not bits.state["has_uint32"]
        raw = raw and all(s.rejects_only_zero for s in samplers if isinstance(s, ExponentialSampler))
        self._bound = np.uint64(2**32 % n) if raw else None  # Lemire's rejection bound
        self._n, self._miners = np.uint64(n), np.array(self.world.miner_ids)
        self._draw_one((0, (0, 0.0, 0.0, 0.0)))  # the one after a stand-in made at time 0
        return self.advance

    def advance(self, time: float, seq: float) -> None:
        """File, in creation order, every transaction whose creation sorts
        before the event at ``(time, seq)``, and hold the first that does not."""
        while self._due < (time, seq):
            if self._bound is None or not self._file_rows(time, seq):
                self._file_one(time, seq)

    def _file_rows(self, time: float, seq: float) -> int:
        """File, in one batch, the held transaction and those after it that sort before the
        event at ``(time, seq)``, drawn from a batch of rows up to the first irregular one, and
        return how many.  The batch covers the expected count and a margin, within
        ``TX_BATCH_BYTES``; the rows not used are given back."""
        expected = self.tx_rate * (time - self._due[0])
        k = min(int(expected + 3.0 * math.sqrt(expected)) + 4, self._max_rows)
        bits, pair = self.rng.bit_generator, self._pair
        words = bits.random_raw(k * self._stride).reshape(k, -1)
        regular = self._regular(words, pair)
        drawn = self._drawn(words[:regular, pair - 1 :], self._held)
        # Transactions drawn here take seqs past every queued event's, so they
        # sort before one by time alone; ``math.inf`` marks the horizon, which
        # takes those at its own time too.
        side = "left" if seq < math.inf else "right"
        used = min(int(drawn[1][1:].searchsorted(time, side)) + 1, regular)
        if used:
            delays = None
            if self._delays is not None:
                # Node n's delay, for n past the submitter, is word n - 1.
                miners = self._miners
                picked = words[np.arange(used)[:, None], miners - (miners > drawn[0][:used, None])]
                delays = np.reshape(self._delays.from_uniforms(_uniforms(picked.ravel())), picked.shape)
            self.file(self.created, *(column[:used] for column in drawn), delays)
            self._hold(used, *(column[used] for column in drawn))
        bits.advance(-(k - used) * self._stride)
        return used

    def _regular(self, words: np.ndarray, pair: int) -> int:
        """How many rows of ``words``, with the pair in column ``pair``, come
        before the first irregular one.  Any word below 2**11 makes a row
        irregular: where an exponential reads it, it is a zero uniform."""
        n, bound = self._n, self._bound
        bad = (words < 2**11).any(axis=1)
        bad |= (words[:, pair] & _LOW) * n & _LOW < bound
        bad |= (words[:, pair] >> _HALF) * n & _LOW < bound
        return int(bad.argmax()) if bad.any() else len(words)

    def _drawn(self, tail: np.ndarray, held: tuple) -> tuple[np.ndarray, ...]:
        """The columns (submitters, times, weights, fees) of ``held``, then of the
        transactions that the regular rows ``tail``, from the gap on, draw after it."""
        submitter, (_, at, weight, fee) = held
        columns = iter(tail.T[2:])  # one for each sampler that is not constant
        weights, prices = (
            np.full(len(tail), s.value) if isinstance(s, ConstantSampler)
            else s.from_uniforms(_uniforms(next(columns)))
            for s in (self.size_sampler, self.price_sampler)
        )
        submitters = np.append(submitter, ((tail[:, 1] & _LOW) * self._n >> _HALF).astype(np.int64))
        times = np.add.accumulate([at, *self._gaps.from_uniforms(_uniforms(tail[:, 0]))])  # a running sum
        return submitters, times, np.append(weight, weights), np.append(fee, np.multiply(weights, prices))

    def _file_one(self, time: float, seq: float) -> None:
        """File the held transaction, its delays and successor drawn by numpy's own calls,
        and, while those draw every row, each successor due before ``(time, seq)``, as one batch."""
        rows, delays = [], []
        while not rows or (self._bound is None and self._due < (time, seq)):
            submitter, tx = self._held
            rows.append((submitter, *tx))
            if self._delays is not None:
                drawn = self._delays.draws(self.rng, self.n_nodes - 1)
                delays.append([drawn[m - (m > submitter)] if m != submitter else 0.0 for m in self._slots])
            self._draw_one(self._held)
        submitters, ids, times, weights, fees = zip(*rows)
        self.file(ids[0], submitters, times, weights, fees, delays or None)

    def _draw_one(self, held: tuple) -> None:
        """Hold the transaction after ``held``: read from a row's words from
        the gap on if they are regular, else drawn by numpy's own calls
        (gap, submitter, unmodelled recipient, size and unit price)."""
        rng, n, bits = self.rng, self.n_nodes, self.rng.bit_generator
        if self._bound is not None:
            tail = bits.random_raw(self._stride - self._pair + 1).reshape(1, -1)
            if self._regular(tail, 1):
                self._hold(1, *(column[1] for column in self._drawn(tail, held)))
                return
            bits.advance(-tail.size)
        at = held[1][1] + self._gaps.draw(rng)
        submitter = int(rng.integers(n))
        rng.integers(n)
        weight = self.size_sampler.draw(rng)
        self._hold(1, submitter, at, weight, weight * self.price_sampler.draw(rng))
        if self._bound is not None and bits.state["has_uint32"]:
            self._bound = None  # numpy reads the buffered half first from now on

    def _hold(self, drawn: int, submitter, at, weight, fee) -> None:
        """Hold the last of the ``drawn`` transactions just drawn, taking a seq for each."""
        self.created += drawn
        self._held = (int(submitter), (self.created, float(at), float(weight), float(fee)))
        self._due = (self._held[1][1], self.queue.take_seqs(drawn) + drawn - 1)

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
                for name in ("times", "_weights", "_fees", "_arrivals", "_adopted"):
                    old = getattr(self, name)
                    setattr(self, name, np.zeros((size, *old.shape[1:]), dtype=old.dtype))
                    getattr(self, name)[: len(old)] = old
            self.times[rows], self._weights[rows], self._fees[rows] = times[:k], weights[:k], fees[:k]
            at, arrivals = self.times[rows, None], self._arrivals[rows]
            np.add(at, self.tx_delay if delays is None else np.asarray(delays)[:k], out=arrivals)
            np.copyto(arrivals, at, where=np.equal.outer(submitters[:k], self._miners))
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

    def adopt(self, miner_id: int, block: Block) -> None:
        """Flag ``block``'s transactions adopted by ``miner_id``'s chain: it never packs them again."""
        self._adopted[block.transactions, self._slots[miner_id]] = True

    def take_block(self, miner: NodeState, now: float, block: Block) -> None:
        """Fill ``block``, mined by ``miner`` at ``now``, in place; light mode hands it to the
        shared pool, which may fill it later.

        Full mode packs the miner's pool greedily in fee order (ties to the lower id), skipping
        what does not fit, and sums weights and fees in that order; ``block`` holds the ids.  It
        passes over whole a chunk whose least weight cannot fit, and from each chunk it visits
        drops the ids every miner's chain has adopted, deleting a chunk left empty."""
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
            ready = ids[(self._arrivals[ids, slot] <= now) & ~self._adopted[ids, slot]]
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
        block.transactions = ids = np.concatenate(taken)
        block.tx_count, block.weight = len(ids), used
        block.tx_fee_total = float(np.add.accumulate(np.concatenate(([0.0], self._fees[ids])))[-1])

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
