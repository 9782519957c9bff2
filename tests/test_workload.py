import gc
import math
from collections import namedtuple
from contextlib import nullcontext
from functools import reduce
from operator import add
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainsim import cli
from chainsim import workload as workload_module
from chainsim.config import (
    MAX_FULL_MODE_TRANSACTIONS,
    RunCapError,
    load_histogram,
    parse_sampler,
)
from chainsim.consensus import ConsensusEngine, main_chain
from chainsim.engine import EventKind
from chainsim.model import World
from chainsim.runner import Simulation, run_single
from chainsim.stats import summarize_run
from chainsim.streams import ConstantSampler, ExponentialSampler, HistogramSampler, Streams
from chainsim.workload import SharedPool, TxWorkload

from conftest import (
    adopted_ids,
    block_txs,
    file_one,
    make_config,
    pending_arrivals,
    pending_order,
    planned_alone,
    put_block,
    read_rows,
    record_filing,
    strip_wall_clock,
)
from packing_oracle import select_for_block


def tx(tid, fee, weight, ts=0.0):
    return (tid, ts, weight, fee)


def light_config(**overrides):
    params = dict(
        has_trans=True,
        t_technique="light",
        t_n=10.0,
        t_delay=0.0,
        t_size="const:0.001",
        t_fee="const:1.0",
        b_size=1.0,
        b_interval=600.0,
    )
    params.update(overrides)
    return make_config(**params)


def make_pool(seed, config, size=None, price=None):
    """A light pool of ``config`` whose stream draws sizes from ``size`` and unit
    prices from ``price`` if they are given, else from the samplers of ``config``."""
    streams = Streams(config, seed)
    if size is not None:
        streams.size_sampler, streams.price_sampler = size, price
    return SharedPool(World([1.0]), streams, config)


def reference_pack(pool, sizes, fees):
    """Loop-based packing of one light pool of ``sizes`` and ``fees``.

    Materializes one ``(id, timestamp, weight, fee)`` transaction per pool
    entry, with its index as its id, sorts by fee (ties to the lower id) and
    packs greedily under the capacity, stopping at the per-block budget.
    """
    txs = [tx(i, float(fee), float(size)) for i, (size, fee) in enumerate(zip(sizes, fees))]
    picked = []
    used = 0.0
    for t in sorted(txs, key=lambda t: (-t[3], t[0])):
        if len(picked) >= pool.block_budget:
            break
        if used + t[2] <= pool.capacity:
            picked.append(t)
            used += t[2]
    return picked


class Recording:
    """A sampler that keeps a copy of every row it fills, to rebuild each light pool."""

    def __init__(self, sampler):
        self.sampler = sampler
        self.batches = []

    def mean(self):
        return self.sampler.mean()

    def draw_into(self, rng, out):
        self.sampler.draw_into(rng, out)
        self.batches.append(out.copy())


Packed = namedtuple("Packed", "tx_count tx_fee_total")


def take_blocks(pool, count):
    """Hand ``count`` new blocks to ``pool``, then pack what is still queued,
    as the end of a run does; return each block's filled row."""
    world = pool.world
    blocks = [world.add_block(0, 0.0, 0) for _ in range(count)]
    for block in blocks:
        pool.take_block(block)
    pool.pack()
    return [Packed(world.tx_count[b], world.tx_fee_total[b]) for b in blocks]


def check_against_oracle(config, size, price, count, seed):
    """Pack ``count`` blocks from a light pool of ``size`` and ``price``
    draws and compare each, exactly, with ``reference_pack`` of the pool it
    was given: both add left to right (Python 3.12's sum() compensates)."""
    sizes, prices = Recording(size), Recording(price)
    pool = make_pool(seed, config, sizes, prices)
    blocks = take_blocks(pool, count)
    for block, drawn, unit in zip(blocks, sizes.batches, prices.batches):
        expected = reference_pack(pool, drawn, drawn * unit)
        assert block.tx_count == len(expected)
        assert block.tx_fee_total == reduce(add, (fee for _, _, _, fee in expected), 0.0)
    assert len(sizes.batches) == count + 1  # the pool a next block would take


class TestSamplers:
    def test_constant(self):
        s = ConstantSampler(2.5)
        assert s.draw(np.random.default_rng(1)) == 2.5
        assert s.mean() == 2.5

    def test_exponential_positive_and_mean(self):
        s = ExponentialSampler(4.0)
        rng = np.random.default_rng(3)
        draws = [s.draw(rng) for _ in range(20_000)]
        assert all(d > 0 for d in draws)
        assert abs(np.mean(draws) - 4.0) < 3 * 4.0 / math.sqrt(len(draws))

    def test_exponential_rejects_bad_mean(self):
        with pytest.raises(ValueError):
            ExponentialSampler(0.0)

    def test_histogram_mean_and_draws(self):
        s = HistogramSampler([1.0, 3.0], [0.25, 0.75])
        assert s.mean() == pytest.approx(2.5)
        rng = np.random.default_rng(8)
        draws = np.empty(5_000)
        s.draw_into(rng, draws)
        assert set(np.unique(draws)) == {1.0, 3.0}
        assert abs(np.mean(draws) - 2.5) < 0.05

    def test_histogram_probability_sum_enforced(self):
        with pytest.raises(ValueError):
            HistogramSampler([1.0, 2.0], [0.5, 0.6])

    def test_load_histogram_file(self, tmp_path):
        path = tmp_path / "sizes.txt"
        path.write_text("# size  probability\n0.0005 0.5\n0.001 0.5\n")
        s = load_histogram(path)
        assert s.mean() == pytest.approx(0.00075)

    @pytest.mark.parametrize(
        "values, probabilities",
        [([1.0, 3.0], [0.25, 0.75]), ([1.0, 2.0, 3.0], [0.2, 0.0, 0.8]), ([5.0], [1.0]),
         ([0.1, 0.2, 0.3, 0.4], [0.1, 0.2, 0.3, 0.4])],
    )
    def test_histogram_draws_match_generator_choice(self, values, probabilities):
        # The same values as Generator.choice, one at a time and in batches,
        # and the stream left at the same place.
        s = HistogramSampler(values, probabilities)
        for seed in range(20):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            drawn = [s.draw(ours) for _ in range(100)]
            batch = np.empty(50)
            s.draw_into(ours, batch)
            drawn += batch.tolist()
            expected = [float(theirs.choice(s.values, p=s.probabilities)) for _ in range(100)]
            expected += theirs.choice(s.values, size=50, p=s.probabilities).tolist()
            assert drawn == expected
            assert ours.random() == theirs.random()

    @settings(max_examples=100, deadline=None)
    @given(
        sampler=st.one_of(
            st.floats(1e-3, 1e3).map(ConstantSampler),
            st.floats(1e-3, 1e3).map(ExponentialSampler),
            st.lists(st.tuples(st.floats(1e-3, 1e3), st.floats(0.01, 1.0)), min_size=1, max_size=5).map(
                lambda pairs: HistogramSampler(
                    [v for v, _ in pairs], [p / sum(q for _, q in pairs) for _, p in pairs]
                )
            ),
        ),
        n=st.integers(0, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_draw_into_is_exact(self, sampler, n, seed):
        # Each fill gives, bit for bit, what the batch expression it replaced
        # gave on a twin generator, and leaves the generator where that did.
        # A constant's row holds its value already; it draws nothing.
        ours, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            if isinstance(sampler, ConstantSampler):
                out, expected = np.full(n, sampler.value), np.full(n, sampler.value)
            elif isinstance(sampler, ExponentialSampler):
                out, expected = np.full(n, np.nan), twin.exponential(sampler.mean(), n)
            else:
                u = twin.random(n)
                out, expected = np.full(n, np.nan), sampler.values[sampler._cdf.searchsorted(u, side="right")]
            sampler.draw_into(ours, out)
            assert out.tobytes() == expected.tobytes()
            assert ours.bit_generator.state == twin.bit_generator.state

    def test_load_histogram_bad_row(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.5\n")
        with pytest.raises(ValueError):
            load_histogram(path)


class TestSelectForBlock:
    def test_fee_order_under_capacity(self):
        pool = [tx(1, 1.0, 0.4), tx(2, 2.0, 0.4), tx(3, 3.0, 0.4)]
        picked = select_for_block(pool, 0.8)
        assert [fee for _, _, _, fee in picked] == [3.0, 2.0]

    def test_skip_too_big_continues_scanning(self):
        pool = [tx(1, 9.0, 0.9), tx(2, 8.0, 0.1)]
        picked = select_for_block(pool, 0.5)
        assert [fee for _, _, _, fee in picked] == [8.0]

    def test_empty_pool(self):
        assert select_for_block([], 1.0) == []

    def test_fee_ties_break_to_lower_id(self):
        pool = [tx(5, 1.0, 0.4), tx(2, 1.0, 0.4), tx(9, 1.0, 0.4)]
        picked = select_for_block(pool, 0.8)
        assert [t[0] for t in picked] == [2, 5]

    def test_gas_weighted_selection(self):
        a = tx(1, 5.0, 30_000.0)
        b = tx(2, 4.0, 80_000.0)
        picked = select_for_block([a, b], 110_000.0)
        assert [t[0] for t in picked] == [1, 2]
        picked = select_for_block([a, b], 90_000.0)
        assert [t[0] for t in picked] == [1]

    def test_budget_caps_count(self):
        # T_n * B_interval = 4 arrivals per block: the light pool packs 4
        # transactions although 1,000 would fit.
        config = light_config(t_n=4 / 600.0)
        pool = make_pool(5, config)
        assert pool.block_budget == 4
        (block,) = take_blocks(pool, 1)
        assert block.tx_count == 4


class TestSharedPool:
    def _pool(self, tx_rate, capacity=1.0, size=0.001, interval=600.0):
        config = light_config(
            t_n=tx_rate,
            b_size=capacity,
            t_size=f"const:{size}",
            b_interval=interval,
        )
        return make_pool(5, config)

    def test_refill_covers_two_blocks_when_saturated(self):
        # capacity 1000 tx/block, high demand: N is two full blocks.
        pool = self._pool(tx_rate=100.0, capacity=1.0, size=0.001)
        assert pool.refill_size == 2000

    def test_refill_is_arrival_limited(self):
        # T_n * B_interval = 50 < capacity: N = 100.
        pool = self._pool(tx_rate=50 / 600.0, capacity=1.0, size=0.001)
        assert pool.refill_size == 100
        assert pool.block_budget == 50

    def test_no_transactions_empty_pool(self):
        # A light run at T_n = 0 makes no transactions: it builds no pool,
        # hands no block to the workload, and its blocks hold nothing.
        sim = Simulation(light_config(t_n=0.0, t_size="exp:0.001", block_target=20), 0)
        assert sim.workload.shared_pool is None and not sim.workload.packs_each_block
        with mock.patch.object(TxWorkload, "take_block") as take_block:
            sim.run()
        assert not take_block.called
        assert len(sim.world.depth) > 20
        assert not any(sim.world.tx_count) and not any(sim.world.tx_fee_total)

    def test_fresh_pool_every_refill(self):
        # Packing does not drain the pool: every block finds it full again.
        pool = self._pool(tx_rate=100.0)
        first, second = take_blocks(pool, 2)
        assert first.tx_count == second.tx_count == 1000
        assert len(pool) == 2000

    @pytest.mark.parametrize("has_trans", [True, False])
    def test_constant_pool_or_bare_run_hands_no_block_to_the_workload(self, has_trans):
        # Every block gets the same row, filled at the end of the run: no
        # block passes through take_block as it is made.
        config = light_config(t_n=50 / 600.0, block_target=60, has_trans=has_trans)
        sim = Simulation(config, 0)
        with mock.patch.object(TxWorkload, "take_block") as take_block:
            sim.run()
        assert not take_block.called
        blocks = len(sim.world.depth) - 1
        assert blocks >= 60 and list(sim.world.tx_count) == [0] + [50 if has_trans else 0] * blocks
        assert list(sim.world.tx_fee_total)[1:] == [50 * (0.001 * 1.0) if has_trans else 0.0] * blocks

    def test_vectorized_packing_matches_object_oracle(self):
        # Dual route: the array-based light pool must agree with an
        # object-based packing of the same materialized pool.
        config = light_config(
            t_n=2.0, b_size=0.05, t_size="exp:0.002", t_fee="exp:3.0", b_interval=30.0
        )
        size = Recording(parse_sampler(config.t_size))
        price = Recording(parse_sampler(config.t_fee))
        pool = make_pool(17, config, size, price)
        (block,) = take_blocks(pool, 1)
        expected = reference_pack(pool, size.batches[0], size.batches[0] * price.batches[0])
        assert block.tx_count == len(expected)
        assert block.tx_fee_total == pytest.approx(sum(t[3] for t in expected), rel=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(
        size=st.one_of(
            st.floats(1e-4, 1e-2).map(ExponentialSampler),
            # Few histogram values, so sizes and, at a constant price, fees tie.
            st.lists(st.floats(1e-4, 1e-2), min_size=1, max_size=4).map(
                lambda values: HistogramSampler(values, [1 / len(values)] * len(values))
            ),
        ),
        price=st.one_of(
            st.floats(0.5, 5.0).map(ConstantSampler),
            st.floats(0.5, 5.0).map(ExponentialSampler),
            # Two unit prices, so that fees tie between entries of different sizes.
            st.lists(st.floats(0.5, 5.0), min_size=2, max_size=2).map(
                lambda values: HistogramSampler(values, [0.5, 0.5])
            ),
        ),
        arrivals=st.floats(0.5, 150.0),  # per block interval: the block budget
        fits=st.floats(0.5, 150.0),  # mean-size transactions per block capacity
        seed=st.integers(0, 2**32 - 1),
    )
    @example(  # budget-bound: 10 in the pool, budget 5, room for about 100
        size=ExponentialSampler(0.002), price=ConstantSampler(1.0), arrivals=5.0, fits=100.0, seed=1
    )
    @example(  # capacity-bound: 6 in the pool, budget 100, room for about 3
        size=ExponentialSampler(0.002), price=ConstantSampler(1.0), arrivals=100.0, fits=3.0, seed=1
    )
    @example(  # exact fill: the fourth 2**-10 transaction fills the block to the last bit
        size=HistogramSampler([2**-10], [1.0]), price=ConstantSampler(1.0), arrivals=100.0,
        fits=4.0, seed=1,
    )
    @example(  # equal fees of different sizes: 0.001 MB at 2.0 and 0.002 MB at 1.0
        size=HistogramSampler([0.001, 0.002], [0.5, 0.5]),
        price=HistogramSampler([2.0, 1.0], [0.5, 0.5]), arrivals=100.0, fits=20.0, seed=1,
    )
    def test_packing_matches_object_oracle_on_random_pools(self, size, price, arrivals, fits, seed):
        # One full batch of blocks, then three packed at the end of the run.
        config = light_config(t_n=arrivals / 60.0, b_interval=60.0, b_size=fits * size.mean())
        check_against_oracle(config, size, price, workload_module.PACK_BATCH + 3, seed)

    def test_equal_fees_of_different_sizes_are_sorted_stably(self):
        # 0.001 MB at 2.0 and 0.002 MB at 1.0 pay the same fee; their order
        # in a run of equal fees changes what fits, so the batch is sorted
        # again, stably.
        size = HistogramSampler([0.001, 0.002], [0.5, 0.5])
        price = HistogramSampler([2.0, 1.0], [0.5, 0.5])
        config = light_config(t_n=1.0, b_interval=60.0, b_size=0.03)
        with mock.patch.object(workload_module.np, "argsort", wraps=np.argsort) as argsort:
            check_against_oracle(config, size, price, workload_module.PACK_BATCH + 3, 2)
        assert [c.kwargs.get("kind") for c in argsort.call_args_list] == [None, "stable"] * 2

    @pytest.mark.xfail(
        strict=True,
        reason="known disagreement: a constant pool takes int(B_size / size) transactions, "
        "while the greedy scan's running sum of 0.001 passes 1.0 at the 1000th; aligning them "
        "moves light-mode outputs",
    )
    def test_constant_pool_packs_as_the_greedy_scan(self):
        pool = self._pool(tx_rate=100.0, capacity=1.0, size=0.001)
        (block,) = take_blocks(pool, 1)
        sizes = np.full(pool.refill_size, 0.001)
        assert block.tx_count == len(reference_pack(pool, sizes, sizes * 1.0))

    def test_batch_size_leaves_runs_unchanged(self, tmp_path):
        # A block target that no batch size divides: the last blocks are
        # packed at the end of the run.
        config = tmp_path / "eth.cfg"
        config.write_text("preset = ethereum\nblock_target = 1001\nRuns = 2\n")
        outputs = []
        for batch in (1, 3, workload_module.PACK_BATCH):
            out = tmp_path / f"batch-{batch}"
            with mock.patch.object(workload_module, "PACK_BATCH", batch):
                assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
            outputs.append(strip_wall_clock(read_rows(out / "runs.csv")))
        assert outputs[0] == outputs[1] == outputs[2]
        assert 1001 % 3 and 1001 % workload_module.PACK_BATCH

    def test_light_throughput_tracks_arrival_rate(self):
        # Arrival-limited light mode: throughput ~= T_n within 5%.
        config = make_config(
            has_trans=True,
            t_technique="light",
            t_n=50 / 600.0,
            b_size=1.0,
            t_size="const:0.000546",
            block_target=2_000,
            seed=42,
        )
        report = run_single(config, 0)
        assert report.throughput_tps == pytest.approx(50 / 600.0, rel=0.05)
        # the arrival-rate ceiling itself, with headroom for elapsed-time noise
        assert report.throughput_tps <= (50 / 600.0) * 1.05


class TestFullMode:
    def _sim(self, **overrides):
        config = make_config(
            has_trans=True,
            t_technique="full",
            t_n=overrides.pop("t_n", 10.0),
            t_delay=overrides.pop("t_delay", 5.0),
            b_size=overrides.pop("b_size", 1.0),
            t_size="const:0.000546",
            **overrides,
        )
        return Simulation(config, 0)

    def test_poisson_stream_count(self):
        # T_n = 10/s over 1,000 s: about 10,000 creations, 3 sigma = 300.
        sim = self._sim(sim_time=1_000.0, b_interval=1e9, t_delay=0.0)
        filed = record_filing(sim)
        sim.run()
        created = [tx[0] for _, tx, _ in filed]
        assert abs(len(created) - 10_000) <= 300
        assert len(set(created)) == len(created)

    def test_zero_rate_no_events(self):
        sim = self._sim(t_n=0.0, sim_time=10_000.0)
        fired = record_filing(sim)
        assert sim.workload.start() is None
        sim.run()
        assert fired == []

    def test_zero_rate_is_a_run_without_transactions(self):
        # Full mode at T_n = 0 makes nothing to draw or pack: the race reads
        # in chunks as in a bare run, no block passes through take_block, and
        # no delivery absorbs a block into a miner's transactions.
        sim = self._sim(t_n=0.0, b_delay=2.0, b_interval=10.0, block_target=60)
        assert planned_alone(sim.config)
        with mock.patch.object(TxWorkload, "take_block") as take_block, \
                mock.patch.object(ConsensusEngine, "_absorb") as absorb:
            report = sim.run()
        assert not take_block.called and not absorb.called
        assert report.blocks_created >= 60 and not sim.world.transactions

    def test_ids_past_the_cap_stop_the_run(self):
        sim = self._sim(block_target=5)
        sim.workload.start()
        file_one(sim.workload, 0, tx(MAX_FULL_MODE_TRANSACTIONS, 0.5, 0.001))
        with pytest.raises(RunCapError, match="more than 1,000,000 transactions"):
            file_one(sim.workload, 0, tx(MAX_FULL_MODE_TRANSACTIONS + 1, 0.5, 0.001))
        assert list(pending_arrivals(sim.workload)) == [MAX_FULL_MODE_TRANSACTIONS]

    @pytest.mark.parametrize("before, filed", [(True, False), (False, True)], ids=["just-before", "at"])
    def test_a_transaction_at_an_event_s_time_is_filed_first(self, before, filed):
        # The tie rule: a transaction made at an event's exact instant is
        # filed before the event; one made a moment after it waits.
        sim = self._sim(block_target=5)
        advance = sim.workload.start()
        record = record_filing(sim)
        held = sim.streams.held
        held_time = held[1][1]
        advance(np.nextafter(held_time, -np.inf) if before else held_time)
        assert record == ([(*held, None)] if filed else [])
        assert (sim.streams.held == held) is not filed

    def test_propagation_delay_gates_pool_entry(self):
        # Node 0 is the only miner.  Its own transaction is packable at once;
        # one submitted by node 1 at t=100 reaches it at t=105.
        config = light_config(n_n=3, miners=(1.0,), t_technique="full", t_n=1e-6, t_delay=5.0)
        sim = Simulation(config, 0)
        sim.workload.start()
        own = tx(1000, 0.5, 0.001, ts=100.0)
        relayed = tx(1001, 0.5, 0.001, ts=100.0)
        for submitter, t in ((0, own), (1, relayed)):
            file_one(sim.workload, submitter, t)
        miner = sim.world.nodes[0]
        early = sim.consensus.on_block_create(0, 104.0, miner.tip)
        assert block_txs(sim.workload, early) == (own,)
        late = sim.consensus.on_block_create(0, 105.0, miner.tip)
        assert block_txs(sim.workload, late) == (relayed,)

    def test_light_mode_has_no_tx_events(self):
        config = make_config(
            has_trans=True, t_technique="light", t_n=5.0,
            t_size="const:0.000546", block_target=50,
        )
        sim = Simulation(config, 0)
        fired = record_filing(sim)
        report = sim.run()
        assert fired == []
        assert not any(sim.workload.pending)
        assert report.throughput_tps > 0  # light blocks still carry transactions

    def test_no_transaction_included_twice_in_main_chain(self):
        config = make_config(
            has_trans=True, t_technique="full", t_n=2.0, t_delay=2.0,
            b_interval=30.0, b_delay=3.0, b_size=0.005, t_size="const:0.000546",
            block_target=150, seed=13,
        )
        sim = Simulation(config, 0)
        sim.run()
        from chainsim.consensus import main_chain

        seen = set()
        for bid in main_chain(sim.world)[1:]:
            packed = block_txs(sim.workload, bid)
            assert sum(weight for _, _, weight, _ in packed) <= 0.005 + 1e-12  # capacity respected
            for tx_id, _, _, _ in packed:
                assert tx_id not in seen
                seen.add(tx_id)
        assert seen  # the run actually included transactions

    def test_transactions_untracked_by_the_cyclic_gc(self):
        # A block holds its transactions as one array of ids, which the
        # collector does not track: no transaction is an object of its own.
        config = make_config(
            has_trans=True, t_technique="full", t_n=1.0, t_delay=1.0,
            b_interval=60.0, b_size=0.01, t_size="const:0.000546", block_target=50,
        )
        sim = Simulation(config, 0)
        sim.run()
        gc.collect()
        held = [ids for ids in sim.world.transactions.values() if len(ids)]
        assert held and all(ids.dtype == np.int64 for ids in held)
        assert not any(gc.is_tracked(ids) for ids in held)

    def test_full_pools_only_after_delay_invariant(self):
        # Spot-check a real run: a block holds only transactions its miner
        # had by then -- its own at once, others after the 4 s delay.
        config = make_config(
            has_trans=True, t_technique="full", t_n=1.0, t_delay=4.0,
            b_interval=120.0, b_size=0.01, t_size="const:0.000546",
            sim_time=2_000.0, seed=3,
        )
        sim = Simulation(config, 0)
        filed = record_filing(sim)
        sim.run()
        submitters = {tx[0]: submitter for submitter, tx, _ in filed}  # transaction id -> submitter
        relayed = 0
        for bid in range(1, len(sim.world.depth)):
            made = sim.world.timestamp[bid]
            for tx_id, stamp, _, _ in block_txs(sim.workload, bid):
                if submitters[tx_id] == sim.world.miner[bid]:
                    assert stamp <= made
                else:
                    assert stamp + 4.0 <= made
                    relayed += 1
        assert relayed


def pack_against_oracle(config, chunk):
    """Run ``config`` with pending chunks of ``chunk`` entries and check every
    created block against the greedy packing of its miner's pool, rebuilt
    from the filed transactions and their delays.

    A transaction reaches its submitter at creation.  Under a constant delay
    it reaches every other miner ``T_delay`` later; under exponential delays
    each miner's own delay later, as filed.  After every block, checks that
    the pending order is the pending ids sorted by ``(-fee, id)`` from the
    filed fees, and that each chunk's bound and least weight hold.  Also
    checks that no transaction is on the main chain twice.  Returns (blocks
    checked, chunk splits, chunks emptied, blocks after which two chunks
    met at one fee).
    """
    sim = Simulation(config, 0)
    workload = sim.workload
    pending = workload.pending
    slots = {miner_id: slot for slot, miner_id in enumerate(sim.world.miner_ids)}
    filed = record_filing(sim)
    create_block = sim.handlers[EventKind.BLOCK_CREATE]
    checked = emptied = tied = 0

    def check_pending_order():
        nonlocal tied
        weights, fees = ({tx[0]: tx[i] for _, tx, _ in filed} for i in (2, 3))
        order = pending_order(workload)
        assert order == sorted((-fees[tx_id], tx_id) for _, tx_id in order)
        chunks = (pending, workload._keys, workload._lasts, workload._minima)
        firsts = [keys[0] for keys in workload._keys[1:]] + [math.inf] * bool(pending)
        for ids, keys, bound, least, first in zip(*chunks, firsts, strict=True):
            assert keys[-1] <= bound <= first
            assert least <= min(weights[tx_id] for tx_id in ids)
        tied += any(keys[-1] == first for keys, first in zip(workload._keys, firsts))

    def arrival(submitter, tx, delays, miner_id):
        if miner_id == submitter:
            return tx[1]
        return tx[1] + (config.t_delay if delays is None else delays[slots[miner_id]])

    def on_block_create(miner_id, time, parent):
        nonlocal checked, emptied
        adopted = adopted_ids(sim.workload, miner_id)
        pool = [
            tx for submitter, tx, delays in filed
            if tx[0] not in adopted and arrival(submitter, tx, delays, miner_id) <= time
        ]
        chunks = len(pending)
        block = create_block(miner_id, time, parent)
        emptied += len(pending) < chunks
        if block is not None:
            assert block_txs(workload, block) == tuple(select_for_block(pool, config.b_size))
            check_pending_order()
            checked += 1
        return block

    sim.handlers[EventKind.BLOCK_CREATE] = on_block_create
    split = mock.patch.object(workload, "_split", wraps=workload._split)
    with mock.patch.object(workload_module, "PENDING_CHUNK", chunk), split as splits:
        report = sim.run()
    assert checked == report.blocks_created
    on_main = [t[0] for b in main_chain(sim.world)[1:] for t in block_txs(workload, b)]
    assert on_main and len(on_main) == len(set(on_main))
    return checked, splits.call_count, emptied, tied


@pytest.fixture(scope="module")
def hist_sizes(tmp_path_factory):
    """Transaction sizes in MB; the heaviest never fits a 0.004 MB block."""
    path = tmp_path_factory.mktemp("hist") / "sizes.txt"
    path.write_text("0.0002 0.3\n0.0005 0.4\n0.0011 0.2\n0.005 0.1\n")
    return path


class TestPackingOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        powers=st.lists(st.integers(1, 9), min_size=2, max_size=5),
        gap=st.integers(1, 4),  # the zero-weight node sits after this many miners
        extra_nodes=st.integers(0, 1),
        size=st.sampled_from(["const", "exp", "hist"]),
        fee=st.sampled_from(["const:0.3", "exp:0.3"]),
        delay=st.sampled_from([("constant", 0.0), ("constant", 3.0), ("exponential", 3.0)]),
        b_delay=st.sampled_from([0.0, 4.0]),
        chunk=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_random_configs_match_rebuilt_pool(
        self, hist_sizes, powers, gap, extra_nodes, size, fee, delay, b_delay, chunk, seed
    ):
        # About 20 transactions arrive per block interval and 8 mean-size
        # ones fit a block, so every block is packed from a saturated pool.
        total = sum(powers)
        weights = [p / total for p in powers]
        gap = min(gap, len(weights) - 1)
        miners = (*weights[:gap], 0.0, *weights[gap:])
        sizes = {"const": "const:0.0005", "exp": "exp:0.0005", "hist": f"hist:{hist_sizes}"}
        config = make_config(
            has_trans=True, t_technique="full", t_n=1.0, t_size=sizes[size], t_fee=fee,
            delay_mode=delay[0], t_delay=delay[1], b_size=0.004, b_interval=20.0,
            b_delay=b_delay, n_n=len(miners) + extra_nodes, miners=miners,
            block_target=40, seed=seed,
        )
        checked, _, _, _ = pack_against_oracle(config, chunk)
        assert checked == 40

    def test_small_chunks_split_and_empty(self):
        # Chunks of two entries: inserts split them and scans empty them.
        config = make_config(
            has_trans=True, t_technique="full", t_n=1.0, t_delay=3.0, t_size="exp:0.0005",
            t_fee="exp:0.3", b_size=0.004, b_interval=20.0, b_delay=4.0, n_n=4,
            miners=(0.5, 0.0, 0.5), block_target=60, seed=3,
        )
        checked, splits, emptied, _ = pack_against_oracle(config, 2)
        assert checked == 60 and splits and emptied

    @pytest.mark.parametrize("chunk", [2, 3])
    @pytest.mark.parametrize("fee", ["tied", "spread"])
    def test_small_chunks_keep_the_fee_order(self, tmp_path, fee, chunk):
        # A pending id goes after every pending id of its fee, placed by its
        # fee alone.  Three unit prices on one size tie most fees, across
        # chunk bounds too; exponential sizes and prices spread them.
        prices = tmp_path / "prices.txt"
        prices.write_text("200 0.5\n300 0.3\n500 0.2\n")
        size, price = {"tied": ("const:0.0005", f"hist:{prices}"), "spread": ("exp:0.0005", "exp:300")}[fee]
        config = make_config(
            has_trans=True, t_technique="full", t_n=1.0, t_delay=3.0, t_size=size, t_fee=price,
            b_size=0.004, b_interval=20.0, b_delay=4.0, n_n=4, miners=(0.5, 0.0, 0.5),
            block_target=60, seed=3,
        )
        checked, splits, emptied, tied = pack_against_oracle(config, chunk)
        assert checked == 60 and splits and emptied
        assert bool(tied) is (fee == "tied")

    def test_every_block_matches_rebuilt_pool(self):
        # Forks (B_delay is 20% of B_interval), variable sizes and fees, a
        # saturated capacity, and a non-mining node 2 between miners.  Each
        # miner's pool is rebuilt from first principles at every creation:
        # every created transaction the miner holds by then (at creation if
        # it submitted it, T_delay later otherwise) that its chain has not
        # adopted.  The block must be exactly its greedy fee-order packing.
        config = make_config(
            has_trans=True, t_technique="full", t_n=1.0, t_delay=3.0,
            t_size="exp:0.0005", t_fee="exp:0.3", b_size=0.008,
            b_interval=20.0, b_delay=4.0, n_n=7, miners=(0.35, 0.3, 0.0, 0.2, 0.15),
            block_target=150, seed=5,
        )
        sim = Simulation(config, 0)
        filed = record_filing(sim)  # (submitter, transaction, delays)
        checked = in_flight = over_capacity = 0
        create_block = sim.handlers[EventKind.BLOCK_CREATE]

        def on_block_create(miner_id, time, parent):
            nonlocal checked, in_flight, over_capacity
            miner = sim.world.nodes[miner_id]
            adopted = adopted_ids(sim.workload, miner_id)
            candidates = [(s, t) for s, t, _ in filed if t[0] not in adopted]
            pool = [t for s, t in candidates if (t[1] if s == miner.id else t[1] + 3.0) <= time]
            block = create_block(miner_id, time, parent)
            if block is not None:
                expected = select_for_block(pool, config.b_size)
                assert block_txs(sim.workload, block) == tuple(expected)
                checked += 1
                in_flight += len(pool) < len(candidates)
                over_capacity += len(expected) < len(pool)
            return block

        sim.handlers[EventKind.BLOCK_CREATE] = on_block_create
        report = sim.run()
        assert checked == report.blocks_created == 150
        assert report.stale_rate > 0  # forks happened
        assert in_flight and over_capacity


def pending_keys(workload):
    """The pending keys in packing order, each with its arrivals, but for
    those every miner's chain has adopted: packing drops them only from the
    chunks it visits."""
    done = set.intersection(*(adopted_ids(workload, m) for m in workload.world.miner_ids))
    arrivals = pending_arrivals(workload)
    return [(key, arrivals[key[1]]) for key in pending_order(workload) if key[1] not in done]


class TestBatchFiling:
    """Filing a stretch as one batch and filing it one ``file`` call per
    transaction give the same pending order, arrivals and blocks."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        fee=st.sampled_from(["const", "exp", "tied"]),
        delay=st.sampled_from(["constant", "exponential"]),
        stretches=st.lists(st.integers(1, 120), min_size=1, max_size=4),
        chunk=st.integers(1, 5),
        capped=st.booleans(),
    )
    def test_one_batch_files_as_one_call_each(self, seed, fee, delay, stretches, chunk, capped):
        # Nodes 0, 2 and 3 mine; node 1 and the unbuilt nodes 4 and 5 only submit.
        config = make_config(
            has_trans=True, t_technique="full", t_n=1e-6, t_delay=2.0, delay_mode=delay,
            n_n=6, miners=(0.5, 0.0, 0.3, 0.2), b_size=0.004, block_target=50,
        )
        batched, single = Simulation(config, 0), Simulation(config, 0)
        for sim in (batched, single):
            sim.workload.start()
        rng = np.random.default_rng(seed)
        first, now = batched.streams.created + 1, 0.0
        with mock.patch.object(workload_module, "PENDING_CHUNK", chunk):
            for n, k in enumerate(stretches, start=1):
                if capped and n == len(stretches):
                    first = MAX_FULL_MODE_TRANSACTIONS - k // 2  # the last id passes the cap
                submitters = rng.integers(0, 6, k)
                times = now + np.cumsum(rng.exponential(0.1, k))
                weights = rng.exponential(0.0005, k)  # no two equal
                fees = {
                    "const": np.full(k, 0.3),
                    "exp": weights * rng.exponential(600.0, k),
                    "tied": rng.choice([0.1, 0.2, 0.3], k),  # equal fees on unequal sizes
                }[fee]
                delays = None if delay == "constant" else rng.exponential(2.0, (k, 3))
                passed = first + k - 1 > MAX_FULL_MODE_TRANSACTIONS
                with pytest.raises(RunCapError) if passed else nullcontext():
                    batched.workload.file(first, submitters, times, weights, fees, delays)
                with pytest.raises(RunCapError) if passed else nullcontext():
                    for i in range(k):
                        row = None if delays is None else delays[i].tolist()
                        tx = (first + i, *(float(c[i]) for c in (times, weights, fees)))
                        file_one(single.workload, int(submitters[i]), tx, row)
                assert pending_keys(batched.workload) == pending_keys(single.workload)
                if passed:  # filed up to the cap, and no further
                    assert max(pending_arrivals(batched.workload)) == MAX_FULL_MODE_TRANSACTIONS
                first, now = first + k, float(times[-1])
                # A block by one miner, reaching a random set of the others.
                miner_id = int(rng.choice([0, 2, 3]))
                receivers = [m for m in (0, 2, 3) if m != miner_id and rng.random() < 0.5]
                now += float(rng.exponential(2.0))
                made = []
                for sim in (batched, single):
                    block = sim.consensus.on_block_create(miner_id, now, sim.world.nodes[miner_id].tip)
                    sim.consensus.deliver_block(tuple(receivers), now, block)
                    world = sim.world
                    made.append((block_txs(sim.workload, block), world.tx_count[block], world.tx_fee_total[block]))
                assert made[0] == made[1]
                assert pending_keys(batched.workload) == pending_keys(single.workload)


class TestTxLatency:
    def test_simple_difference(self):
        # One main-chain block at t=160 holding transaction 1, created at t=100.
        world = World([1.0])
        block = put_block(world, 1, 0, 160.0, 0, tx_count=1)
        world.transactions[block] = np.array([1])
        report = summarize_run(world, np.array([0, block]), {0: 2.0}, elapsed=200.0, run_index=0,
                               seed=0, wall_clock=0.0, tx_times=np.array([0.0, 100.0]))
        assert report.mean_tx_latency_s == 60.0

    def test_latency_never_negative(self):
        # No transaction reaches a block mined before it was created.  The
        # mean is what a loop over the main chain's transactions adds from 0.0.
        config = make_config(
            has_trans=True, t_technique="full", t_n=1.0, t_delay=2.0,
            b_interval=20.0, b_delay=3.0, b_size=0.01, t_size="const:0.000546",
            block_target=200, seed=8,
        )
        sim = Simulation(config, 0)
        report = sim.run()
        included, total = 0, 0.0
        for bid in main_chain(sim.world)[1:]:
            made = sim.world.timestamp[bid]
            for _, stamp, _, _ in block_txs(sim.workload, bid):
                assert stamp <= made
                included += 1
                total += made - stamp
        assert included
        assert report.mean_tx_latency_s == total / included

    def test_mean_latency_bounds_in_unsaturated_run(self):
        config = make_config(
            has_trans=True, t_technique="full", t_n=0.2, t_delay=1.0,
            b_interval=100.0, b_size=1.0, t_size="const:0.000546",
            sim_time=20_000.0, seed=21,
        )
        report = run_single(config, 0)
        assert report.mean_tx_latency_s is not None
        assert 0.0 <= report.mean_tx_latency_s <= 20_000.0
        # Unsaturated fee-tied FIFO: roughly interval/2 plus residual.
        assert report.mean_tx_latency_s < 5 * 100.0
