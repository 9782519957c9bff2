"""The run's random stream: the one module that holds and reads its generator.

A run seeds one ``np.random.Generator`` (PCG64), and each layer draws from it
here, each quantity as the run reaches it: a miner's race gap whenever its
tip moves (``races``); a block's delays under exponential ``B_delay``, to
each recipient in node order, then those of the nodes not built, skipped
(``block_delays``); per full-mode transaction, its delays to the other
``N_n - 1`` nodes under exponential ``T_delay``, then its successor's gap,
submitter, unmodelled recipient, size and unit price (``transactions``); and
each light pool's sizes, then unit prices (``light_pool``).  The samplers
that ``config`` builds from ``const:``, ``exp:`` and ``hist:`` specs are here.

How the race reads is fixed when it is built.  In a run in which it is the
only quantity that draws (no exponential block delays, and no light pool
or full-mode transaction drawn per block), it reads its uniforms
``RACE_CHUNK`` at a time, by one ``random(n)`` call, which reads the words
that ``n`` scalar ``random()`` calls read, and pops them in order.  Else it
reads one ``random()`` at a time.  Either way every value is that of one
draw at a time.

A full-mode transaction is read from a row of raw PCG64 words, as numpy's
own calls read them: ``integers(n)`` runs Lemire's method on a word's low,
then its high half.  A row with a rejected half or a zero word is given back
for numpy's own calls to draw, as is every row when numpy would not read the
pair from one word (``N_n`` outside [2, 2**32), or a half buffered), or when
an exponential mean is so small that a nonzero uniform gives 0 too.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .config import SimConfig

# The race reads this many uniforms at a time in a run where nothing else
# draws: 4 KB of doubles, and some 16 KB as a list of Python floats.
RACE_CHUNK = 512
# Full mode reads up to this many bytes of raw words in one batch of rows.
TX_BATCH_BYTES = 1 << 20
# Most raw words ``ExponentialSampler.skip`` reads at once, 512 KB: skipping
# the draws of ``N_n`` nodes then takes bounded memory however large ``N_n`` is.
SKIP_CHUNK = 1 << 16
PROBABILITY_TOLERANCE = 1e-9
_LOW, _HALF = np.uint64(0xFFFFFFFF), np.uint64(32)  # a raw word's 32-bit halves


def _uniforms(words: np.ndarray) -> np.ndarray:
    """What ``Generator.random()`` makes of each raw word: its top 53 bits over 2**53."""
    return (words >> np.uint64(11)) * 2.0**-53


class ConstantSampler:
    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        self.value = float(value)

    def draw(self, rng: np.random.Generator) -> float:
        return self.value

    def draw_into(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Draw nothing and leave ``out`` as it is: a row kept for a constant holds its value."""

    def mean(self) -> float:
        return self.value


class ExponentialSampler:
    """Exponential draws of a positive mean, read from a generator's stream.

    ``draw`` takes a uniform ``u = 1 - rng.random()`` in (0, 1] and gives
    ``-mean * ln(u)``.  Draws are strictly positive, so a delay never lands
    on the current instant: a draw of 0, from ``u = 1`` or, at a mean below
    about 1e-308, from any ``u`` near it, is drawn again from the next
    uniform.  ``draws`` and ``skip`` read the stream as that many ``draw``
    calls would; ``draw_into`` alone uses numpy's ziggurat instead, for
    light pools.
    """

    __slots__ = ("_mean", "rejects_only_zero")

    def __init__(self, mean: float) -> None:
        if mean <= 0:
            raise ValueError(f"exponential sampler mean must be positive, got {mean!r}")
        self._mean = float(mean)
        # Whether a draw is redrawn only for a zero uniform, that is a raw
        # PCG64 word below 2**11: true unless the mean is so small that the
        # least nonzero uniform gives 0 too.
        self.rejects_only_zero = -self._mean * math.log(1.0 - 2.0**-53) > 0.0

    def draw(self, rng: np.random.Generator) -> float:
        mean, random, log = self._mean, rng.random, math.log
        while True:
            x = -mean * log(1.0 - random())
            if x > 0.0:
                return x

    def reader(self, ahead: list[float], more: Callable[[], float]) -> Callable[[], float]:
        """A call that draws as ``draw`` does, each uniform popped from the
        end of ``ahead`` while it holds any, else taken from ``more()``."""
        mean, log, pop = self._mean, math.log, ahead.pop

        def draw() -> float:
            while True:
                x = -mean * log(1.0 - (pop() if ahead else more()))
                if x > 0.0:
                    return x

        return draw

    def draws(self, rng: np.random.Generator, k: int) -> list[float]:
        """``k`` values of ``draw``, from batches of uniforms: a rejected
        uniform is replaced by a further one, so the values and the stream
        match ``k`` single calls."""
        values: list[float] = []
        while len(values) < k:
            values.extend(x for x in self.from_uniforms(rng.random(k - len(values))).tolist() if x > 0.0)
        return values

    def skip(self, rng: np.random.Generator, k: int) -> None:
        """Advance ``rng`` as ``draws(rng, k)`` would, in chunks of bounded
        size, without computing the values where ``rejects_only_zero``
        allows: ``k`` raw words, then one more for each word rejected.  Else
        each chunk is drawn, and ends at its last accepted uniform."""
        raw = rng.bit_generator.random_raw
        while k > 0:
            chunk = min(k, SKIP_CHUNK)
            if self.rejects_only_zero:
                k += int(np.count_nonzero(raw(chunk) < 2**11)) - chunk
            else:
                self.draws(rng, chunk)
                k -= chunk

    def draw_into(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Fill ``out`` with the values ``rng.exponential(mean, len(out))`` gives."""
        rng.standard_exponential(out=out)
        out *= self._mean

    def from_uniforms(self, u: np.ndarray) -> np.ndarray:
        """The values ``draw`` makes from the uniforms ``u``, a rejected one giving 0."""
        logs = np.fromiter(map(math.log, (1.0 - u).tolist()), float, len(u))  # np.log may be an ulp off
        return np.multiply(logs, -self._mean, out=logs)

    def mean(self) -> float:
        return self._mean


class HistogramSampler:
    """Empirical distribution given as (value, probability) pairs.  A draw
    maps a uniform through the cumulative sum, as ``Generator.choice`` does."""

    __slots__ = ("values", "probabilities", "_cdf")

    def __init__(self, values: Sequence[float], probabilities: Sequence[float]) -> None:
        if len(values) != len(probabilities) or not values:
            raise ValueError("histogram needs one probability per value")
        if not all(math.isfinite(x) for x in (*values, *probabilities)):
            raise ValueError("histogram values and probabilities must be finite")
        if any(p < 0 for p in probabilities):
            raise ValueError("histogram probabilities must be non-negative")
        total = math.fsum(probabilities)
        if abs(total - 1.0) > PROBABILITY_TOLERANCE:
            raise ValueError(f"histogram probabilities sum to {total!r}, expected 1")
        self.values = np.asarray(values, dtype=float)
        self.probabilities = np.asarray(probabilities, dtype=float)
        self._cdf = self.probabilities.cumsum()
        self._cdf /= self._cdf[-1]

    def draw(self, rng: np.random.Generator) -> float:
        return float(self.values[self._cdf.searchsorted(rng.random(), side="right")])

    def draw_into(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Fill ``out`` with ``len(out)`` draws, as ``draw`` makes them one by one."""
        rng.random(out=out)
        self.values.take(self._cdf.searchsorted(out, side="right"), out=out)

    def from_uniforms(self, u: np.ndarray) -> np.ndarray:
        """The values ``draw`` makes from the uniforms ``u``."""
        return self.values.take(self._cdf.searchsorted(u, side="right"))

    def mean(self) -> float:
        return float(np.dot(self.values, self.probabilities))


class Streams:
    """A run's draws, from the samplers of ``config`` and a generator seeded with ``seed``."""

    def __init__(self, config: SimConfig, seed: int) -> None:
        self.rng = np.random.default_rng(int(seed))
        self.n_nodes, self.block_interval, self.tx_rate = config.n_n, config.b_interval, config.t_n
        self.size_sampler, self.price_sampler = config.samplers
        # Block and transaction delays; None if constant, or of zero mean: all zero, drawn from nothing.
        self._block_delay, self.tx_delays = (
            ExponentialSampler(mean) if config.delay_mode == "exponential" and mean > 0.0 else None
            for mean in (config.b_delay, config.t_delay)
        )
        self.block_delays = None if self._block_delay is None else self._block_delays  # k recipients' delays
        self.created = 0  # full-mode transactions drawn; the last one's id

    def races(self, weights: list[float], alone: bool) -> list:
        """Each node's race: a call drawing the seconds to its next block; None if it never mines.

        A draw is ``ExponentialSampler.draw`` of mean ``B_interval / weight``.  If the race is
        ``alone``, the run's only quantity that draws, its uniforms are popped from one list
        that every race shares, refilled ``RACE_CHUNK`` at a time by one ``random(n)`` call,
        which reads the words of ``n`` scalar calls; else each is one ``random()`` call."""
        random, interval = self.rng.random, self.block_interval
        ahead: list[float] = []  # uniforms read and not yet used, the next one last

        def chunk() -> float:
            ahead[:] = random(RACE_CHUNK)[::-1].tolist()
            return ahead.pop()

        more = chunk if alone else random
        return [ExponentialSampler(interval / w).reader(ahead, more) if w > 0 else None for w in weights]

    def _block_delays(self, k: int) -> list[float]:
        delays = self._block_delay.draws(self.rng, k)
        self._block_delay.skip(self.rng, self.n_nodes - 1 - k)
        return delays

    def light_pool(self, pools: np.ndarray, j: int) -> None:
        """Fill pool ``j``'s sizes, then unit prices, in place; a constant leaves its row as it is."""
        self.size_sampler.draw_into(self.rng, pools[0, j])
        self.price_sampler.draw_into(self.rng, pools[1, j])

    def start_transactions(self, miner_ids: list[int]) -> None:
        """Hold the first full-mode transaction; delays are drawn for ``miner_ids``.  The
        generator's state is read here, once, to choose how transactions are drawn."""
        n, bits = self.n_nodes, self.rng.bit_generator
        self._gaps = ExponentialSampler(1.0 / self.tx_rate)
        samplers = (self._gaps, self.tx_delays, self.size_sampler, self.price_sampler)
        # A row: the delays, the gap, the pair, then the size and price unless constant.
        self._pair = n if self.tx_delays is not None else 1
        self._stride = self._pair + 1 + sum(not isinstance(s, ConstantSampler) for s in samplers[2:])
        self._max_rows = max(TX_BATCH_BYTES // (8 * self._stride), 1)
        raw = 2 <= n < 2**32 and not bits.state["has_uint32"]
        raw = raw and all(s.rejects_only_zero for s in samplers if isinstance(s, ExponentialSampler))
        self._bound = np.uint64(2**32 % n) if raw else None  # Lemire's rejection bound
        self._n, self._miners, self._miner_ids = np.uint64(n), np.array(miner_ids), miner_ids
        self._draw_one((0, (0, 0.0, 0.0, 0.0)))  # the one after a stand-in made at time 0

    def transactions(self, until: float) -> tuple:
        """The held transaction and each after it created at or before ``until``, as
        ``TxWorkload.file`` takes them: the first id, then the submitters, times, weights,
        fees, and delays to the miners or None.  Holds the first not returned."""
        if self._bound is not None and (rows := self._rows(until)):
            return rows
        return self._one_by_one(until)

    def _rows(self, until: float) -> tuple | None:
        """``transactions`` drawn from a batch of rows up to the first irregular one, or None
        if that is the first.  The batch covers the expected count and a margin, within
        ``TX_BATCH_BYTES``; the rows not used are given back."""
        expected = self.tx_rate * (until - self.held[1][1])
        k = min(int(expected + 3.0 * math.sqrt(expected)) + 4, self._max_rows)
        bits, pair = self.rng.bit_generator, self._pair
        words = bits.random_raw(k * self._stride).reshape(k, -1)
        regular = self._regular(words, pair)
        drawn = self._drawn(words[:regular, pair - 1 :], self.held)
        used = min(int(drawn[1][1:].searchsorted(until, "right")) + 1, regular)
        bits.advance(-(k - used) * self._stride)
        if not used:
            return None
        delays = None
        if self.tx_delays is not None:
            # Node n's delay, for n past the submitter, is word n - 1.
            miners = self._miners
            picked = words[np.arange(used)[:, None], miners - (miners > drawn[0][:used, None])]
            delays = np.reshape(self.tx_delays.from_uniforms(_uniforms(picked.ravel())), picked.shape)
        first = self.created
        self._hold(used, *(column[used] for column in drawn))
        return (first, *(column[:used] for column in drawn), delays)

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
        times = np.add.accumulate(np.concatenate(([at], self._gaps.from_uniforms(_uniforms(tail[:, 0])))))
        return submitters, times, np.append(weight, weights), np.append(fee, np.multiply(weights, prices))

    def _one_by_one(self, until: float) -> tuple:
        """``transactions`` for the held one, its delays and successor drawn by numpy's own calls,
        and, while those draw every row, for each successor due at or before ``until``."""
        rows, delays, miners = [], [], self._miner_ids
        while not rows or (self._bound is None and self.held[1][1] <= until):
            submitter, tx = self.held
            rows.append((submitter, *tx))
            if self.tx_delays is not None:
                drawn = self.tx_delays.draws(self.rng, self.n_nodes - 1)
                delays.append([drawn[m - (m > submitter)] if m != submitter else 0.0 for m in miners])
            self._draw_one(self.held)
        submitters, ids, times, weights, fees = zip(*rows)
        return ids[0], submitters, times, weights, fees, delays or None

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
        """Hold the last of the ``drawn`` transactions just drawn."""
        self.created += drawn
        self.held = (int(submitter), (self.created, float(at), float(weight), float(fee)))
