import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainsim.config import (
    ConstantSampler,
    ExponentialSampler,
    HistogramSampler,
    load_histogram,
    parse_sampler,
)
from chainsim.consensus import main_chain
from chainsim.engine import EventKind, RandomSource
from chainsim.model import Block, Transaction, World
from chainsim.runner import Simulation, run_single
from chainsim.incentives import RewardLedger
from chainsim.stats import summarize_run
from chainsim.workload import SharedPool

from conftest import make_config
from packing_oracle import select_for_block


def tx(tid, fee, weight, ts=0.0):
    return Transaction(tid, ts, 0, weight, fee)


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


def make_pool(world, rng, config):
    return SharedPool(
        world, rng, config, parse_sampler(config.t_size), parse_sampler(config.t_fee)
    )


def reference_pack(pool):
    """Object-based packing of the light pool's current contents.

    Materializes one Transaction per pool entry, sorts by fee (ties to the
    lower id) and packs greedily under the capacity, stopping at the
    per-block budget.
    """
    txs = [
        Transaction(pool._first_id + i, 0.0, 0, float(size), float(fee))
        for i, (size, fee) in enumerate(zip(pool._sizes, pool._fees))
    ]
    picked = []
    used = 0.0
    for t in sorted(txs, key=lambda t: (-t.fee, t.id)):
        if len(picked) >= pool.block_budget:
            break
        if used + t.weight <= pool.capacity:
            picked.append(t)
            used += t.weight
    return picked


class TestSamplers:
    def test_constant(self):
        s = ConstantSampler(2.5)
        assert s.draw(RandomSource(1)) == 2.5
        assert s.mean() == 2.5

    def test_exponential_positive_and_mean(self):
        s = ExponentialSampler(4.0)
        rng = RandomSource(3)
        draws = [s.draw(rng) for _ in range(20_000)]
        assert all(d > 0 for d in draws)
        assert abs(np.mean(draws) - 4.0) < 3 * 4.0 / math.sqrt(len(draws))

    def test_exponential_rejects_bad_mean(self):
        with pytest.raises(ValueError):
            ExponentialSampler(0.0)

    def test_histogram_mean_and_draws(self):
        s = HistogramSampler([1.0, 3.0], [0.25, 0.75])
        assert s.mean() == pytest.approx(2.5)
        rng = RandomSource(8)
        draws = s.draw_many(rng, 5_000)
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

    def test_load_histogram_bad_row(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.5\n")
        with pytest.raises(ValueError):
            load_histogram(path)


class TestSelectForBlock:
    def test_fee_order_under_capacity(self):
        pool = [tx(1, 1.0, 0.4), tx(2, 2.0, 0.4), tx(3, 3.0, 0.4)]
        picked = select_for_block(pool, 0.8)
        assert [t.fee for t in picked] == [3.0, 2.0]

    def test_skip_too_big_continues_scanning(self):
        pool = [tx(1, 9.0, 0.9), tx(2, 8.0, 0.1)]
        picked = select_for_block(pool, 0.5)
        assert [t.fee for t in picked] == [8.0]

    def test_empty_pool(self):
        assert select_for_block([], 1.0) == []

    def test_fee_ties_break_to_lower_id(self):
        pool = [tx(5, 1.0, 0.4), tx(2, 1.0, 0.4), tx(9, 1.0, 0.4)]
        picked = select_for_block(pool, 0.8)
        assert [t.id for t in picked] == [2, 5]

    def test_gas_weighted_selection(self):
        a = tx(1, 5.0, 30_000.0)
        b = tx(2, 4.0, 80_000.0)
        picked = select_for_block([a, b], 110_000.0)
        assert [t.id for t in picked] == [1, 2]
        picked = select_for_block([a, b], 90_000.0)
        assert [t.id for t in picked] == [1]

    def test_budget_caps_count(self):
        # T_n * B_interval = 4 arrivals per block: the light pool packs 4
        # transactions although 1,000 would fit.
        config = light_config(t_n=4 / 600.0)
        pool = make_pool(World(1, hash_powers=(1.0,)), RandomSource(5), config)
        assert pool.block_budget == 4
        assert pool.take_block(0.0).tx_count == 4


class TestSharedPool:
    def _pool(self, tx_rate, capacity=1.0, size=0.001, interval=600.0):
        world = World(1, hash_powers=(1.0,))
        config = light_config(
            t_n=tx_rate,
            b_size=capacity,
            t_size=f"const:{size}",
            b_interval=interval,
        )
        return make_pool(world, RandomSource(5), config), world

    def test_refill_covers_two_blocks_when_saturated(self):
        # capacity 1000 tx/block, high demand: N is two full blocks.
        pool, _ = self._pool(tx_rate=100.0, capacity=1.0, size=0.001)
        assert pool.capacity_estimate == 1000
        assert pool.refill_size == 2000

    def test_refill_is_arrival_limited(self):
        # T_n * B_interval = 50 < capacity: N = 100.
        pool, _ = self._pool(tx_rate=50 / 600.0, capacity=1.0, size=0.001)
        assert pool.refill_size == 100
        assert pool.block_budget == 50

    def test_no_transactions_empty_pool(self):
        pool, _ = self._pool(tx_rate=0.0)
        body = pool.take_block(0.0)
        assert body.tx_count == 0 and body.fee_total == 0.0

    def test_fresh_ids_every_refill(self):
        pool, world = self._pool(tx_rate=100.0)
        first = pool.take_block(1.0)
        id_base_after_first = world._next_tx_id
        second = pool.take_block(2.0)
        assert world._next_tx_id > id_base_after_first
        assert first.tx_count == second.tx_count == 1000

    def test_vectorized_packing_matches_object_oracle(self):
        # Dual route: the array-based light pool must agree with an
        # object-based packing of the same materialized pool.
        world = World(1, hash_powers=(1.0,))
        config = light_config(
            t_n=2.0, b_size=0.05, t_size="exp:0.002", t_fee="exp:3.0", b_interval=30.0
        )
        pool = make_pool(world, RandomSource(17), config)
        expected = reference_pack(pool)
        body = pool._pack()
        assert body.tx_count == len(expected)
        assert body.fee_total == pytest.approx(sum(t.fee for t in expected), rel=1e-12)
        assert body.weight_total == pytest.approx(sum(t.weight for t in expected), rel=1e-12)

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
            st.floats(0.5, 5.0).map(ConstantSampler), st.floats(0.5, 5.0).map(ExponentialSampler)
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
    def test_packing_matches_object_oracle_on_random_pools(self, size, price, arrivals, fits, seed):
        config = light_config(t_n=arrivals / 60.0, b_interval=60.0, b_size=fits * size.mean())
        pool = SharedPool(World(1, hash_powers=(1.0,)), RandomSource(seed), config, size, price)
        for _ in range(2):  # the first pool, then its refill
            expected = reference_pack(pool)
            body = pool.take_block(0.0)
            assert body.tx_count == len(expected)
            assert body.fee_total == sum(t.fee for t in expected)
            assert body.weight_total == sum(t.weight for t in expected)

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
        created = []
        original = sim.handlers[EventKind.TX_CREATE]

        def counting(submitter_id, time, tx):
            created.append(tx.id)
            return original(submitter_id, time, tx)

        sim.handlers[EventKind.TX_CREATE] = counting
        sim.run()
        assert abs(len(created) - 10_000) <= 300
        assert len(set(created)) == len(created)

    def test_zero_rate_no_events(self):
        sim = self._sim(t_n=0.0, sim_time=10_000.0)
        fired = []
        sim.handlers[EventKind.TX_CREATE] = lambda *entry: fired.append(entry)
        sim.run()
        assert fired == []

    def test_propagation_delay_gates_pool_entry(self):
        # Node 0 is the only miner.  Its own transaction is packable at once;
        # one submitted by node 1 at t=100 reaches it at t=105.
        config = light_config(n_n=3, miners=(1.0,), t_technique="full", t_n=1e-6, t_delay=5.0)
        sim = Simulation(config, 0)
        sim.workload.start(sim.consensus.miner_ids)
        own = Transaction(1000, 100.0, 0, 0.001, 0.5)
        relayed = Transaction(1001, 100.0, 1, 0.001, 0.5)
        for t in (own, relayed):
            sim.workload.on_tx_create(t.submitter_id, 100.0, t)
        miner = sim.world.nodes[0]
        early = sim.consensus.on_block_create(0, 104.0, miner.tip)
        assert early.transactions == (own,)
        late = sim.consensus.on_block_create(0, 105.0, miner.tip)
        assert late.transactions == (relayed,)

    def test_light_mode_has_no_tx_events(self):
        config = make_config(
            has_trans=True, t_technique="light", t_n=5.0,
            t_size="const:0.000546", block_target=50,
        )
        sim = Simulation(config, 0)
        fired = []
        sim.handlers[EventKind.TX_CREATE] = lambda *entry: fired.append(entry)
        report = sim.run()
        assert fired == []
        assert sim.workload.pending == []
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
            block = sim.world.registry[bid]
            assert block.weight <= 0.005 + 1e-12  # capacity respected
            for t in block.transactions:
                assert t.id not in seen
                seen.add(t.id)
        assert seen  # the run actually included transactions

    def test_full_pools_only_after_delay_invariant(self):
        # Spot-check a real run: a block holds only transactions its miner
        # had by then -- its own at once, others after the 4 s delay.
        config = make_config(
            has_trans=True, t_technique="full", t_n=1.0, t_delay=4.0,
            b_interval=120.0, b_size=0.01, t_size="const:0.000546",
            sim_time=2_000.0, seed=3,
        )
        sim = Simulation(config, 0)
        sim.run()
        relayed = 0
        for bid in range(1, len(sim.world.registry)):
            block = sim.world.registry[bid]
            for t in block.transactions:
                if t.submitter_id == block.miner_id:
                    assert t.timestamp <= block.timestamp
                else:
                    assert t.timestamp + 4.0 <= block.timestamp
                    relayed += 1
        assert relayed


class TestPackingOracle:
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
        created: list[Transaction] = []
        checked = in_flight = over_capacity = 0
        create_tx = sim.handlers[EventKind.TX_CREATE]
        create_block = sim.handlers[EventKind.BLOCK_CREATE]

        def on_tx_create(submitter_id, time, tx):
            created.append(tx)
            return create_tx(submitter_id, time, tx)

        def on_block_create(miner_id, time, parent):
            nonlocal checked, in_flight, over_capacity
            miner = sim.world.nodes[miner_id]
            adopted = set(miner.chain_tx_ids)
            candidates = [t for t in created if t.id not in adopted]
            pool = [
                t for t in candidates
                if (t.timestamp if t.submitter_id == miner.id else t.timestamp + 3.0) <= time
            ]
            block = create_block(miner_id, time, parent)
            if block is not None:
                expected = select_for_block(pool, config.b_size)
                assert block.transactions == tuple(expected)
                checked += 1
                in_flight += len(pool) < len(candidates)
                over_capacity += len(expected) < len(pool)
            return block

        sim.handlers[EventKind.TX_CREATE] = on_tx_create
        sim.handlers[EventKind.BLOCK_CREATE] = on_block_create
        report = sim.run()
        assert checked == report.blocks_created == 150
        assert report.stale_rate > 0  # forks happened
        assert in_flight and over_capacity


class TestTxLatency:
    def test_simple_difference(self):
        # One main-chain block at t=160 holding a transaction created at t=100.
        world = World(1, hash_powers=(1.0,))
        block = Block(id=world.new_block_id(), depth=1, previous_id=0, timestamp=160.0,
                      miner_id=0, transactions=(tx(1, 0.5, 0.001, ts=100.0),), tx_count=1)
        world.registry.add(block)
        world.blocks_created = 1
        report = summarize_run(world, [0, block.id], RewardLedger(), miner_ids=[0],
                               elapsed=200.0, run_index=0, seed=0, wall_clock=0.0,
                               full_mode=True)
        assert report.mean_tx_latency_s == 60.0

    def test_latency_never_negative(self):
        # No transaction reaches a block mined before it was created.
        config = make_config(
            has_trans=True, t_technique="full", t_n=1.0, t_delay=2.0,
            b_interval=20.0, b_delay=3.0, b_size=0.01, t_size="const:0.000546",
            block_target=200, seed=8,
        )
        sim = Simulation(config, 0)
        sim.run()
        included = 0
        for bid in main_chain(sim.world)[1:]:
            block = sim.world.registry[bid]
            for t in block.transactions:
                assert t.timestamp <= block.timestamp
                included += 1
        assert included

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
