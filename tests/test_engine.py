import math

import numpy as np
import pytest

from chainsim.engine import (
    EventKind,
    EventQueue,
    RandomSource,
    SchedulingError,
    sample_exponential,
    sample_exponentials,
)
from chainsim.runner import Simulation, run_single

from conftest import FixedUniform, make_config


def ev(q, t, node=0, kind=EventKind.BLOCK_CREATE, payload=None):
    """Schedule one entry on ``q``; return it as the queue stores it."""
    seq = q.schedule(t, kind, node, payload)
    return (t, seq, kind, node, payload)


class TestEventQueue:
    def test_single_element(self):
        q = EventQueue()
        entry = ev(q, 5.0, node=3, payload="p")
        assert len(q) == 1
        assert q.next_event() == entry == (5.0, 0, EventKind.BLOCK_CREATE, 3, "p")

    def test_fifo_among_simultaneous_events(self):
        q = EventQueue()
        first = ev(q, 5.0, node=1)
        second = ev(q, 5.0, node=2)
        third = ev(q, 3.0, node=3)
        assert q.next_event() == third
        assert q.next_event() == first
        assert q.next_event() == second

    def test_rejects_event_before_clock(self):
        q = EventQueue()
        ev(q, 4.0)
        q.next_event()
        assert q.clock == 4.0
        with pytest.raises(SchedulingError):
            ev(q, 2.0)
        assert len(q) == 0

    def test_pop_advances_clock_and_min_first(self):
        q = EventQueue()
        ev(q, 7.0)
        ev(q, 1.0)
        popped = q.next_event()
        assert popped[0] == 1.0
        assert q.clock == 1.0

    def test_empty_pop_returns_none_clock_unchanged(self):
        q = EventQueue()
        assert q.next_event() is None
        assert q.clock == 0.0

    def test_pop_order_matches_sorted_oracle(self):
        # Oracle: independently sort the inserted set by (time, seq).
        rng = np.random.default_rng(7)
        q = EventQueue()
        inserted = []
        for _ in range(5_000):
            t = float(rng.choice([rng.uniform(0, 100), rng.integers(0, 20)]))
            inserted.append(ev(q, t, node=int(rng.integers(10))))
        expected = sorted(inserted, key=lambda e: (e[0], e[1]))
        popped = []
        while (e := q.next_event()) is not None:
            popped.append(e)
        assert popped == expected


class TestSampleExponential:
    def test_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError):
            sample_exponential(RandomSource(1), 0.0)
        with pytest.raises(ValueError):
            sample_exponential(RandomSource(1), -3.0)

    def test_strictly_positive_even_at_u_one(self):
        # random() == 0.0 maps to u == 1.0, whose draw of exactly 0 is rejected.
        source = FixedUniform([0.0, 0.5])
        x = sample_exponential(source, 10.0)
        assert x > 0.0
        assert source.calls == 2

    def test_linear_in_mean_for_same_u(self):
        a = sample_exponential(FixedUniform([0.25]), 10.0)
        b = sample_exponential(FixedUniform([0.25]), 20.0)
        assert b == 2.0 * a

    def test_matches_formula(self):
        source = FixedUniform([0.25])
        assert sample_exponential(source, 10.0) == -10.0 * math.log(0.75)

    def test_sample_mean_within_lln_bound(self):
        source = RandomSource(99)
        n = 100_000
        total = sum(sample_exponential(source, 10.0) for _ in range(n))
        assert abs(total / n - 10.0) < 0.3

    def test_positivity_fuzz(self):
        source = RandomSource(5)
        assert all(sample_exponential(source, 0.001) > 0 for _ in range(10_000))


class TestSampleExponentials:
    def test_batch_equals_single_draws_and_stream(self):
        batch, single = RandomSource(31), RandomSource(31)
        values = sample_exponentials(batch, 2.5, 1_000)
        assert values == [sample_exponential(single, 2.5) for _ in range(1_000)]
        assert batch.random() == single.random()

    def test_rejected_uniform_is_replaced_in_order(self):
        # 0.0 maps to u == 1.0, a draw of exactly 0: each is rejected and
        # the next uniform takes its place, as with single draws.
        script = [0.25, 0.0, 0.5, 0.0, 0.0, 0.75, 0.125]
        batch, single = FixedUniform(script), FixedUniform(script)
        values = sample_exponentials(batch, 10.0, 4)
        assert values == [sample_exponential(single, 10.0) for _ in range(4)]
        assert values == [-10.0 * math.log(1.0 - u) for u in (0.25, 0.5, 0.75, 0.125)]
        assert batch.calls == single.calls == len(script)

    def test_zero_count_draws_nothing(self):
        source = FixedUniform([0.5])
        assert sample_exponentials(source, 1.0, 0) == []
        assert source.calls == 0

    def test_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError):
            sample_exponentials(RandomSource(1), 0.0, 3)


class TestRunLoop:
    def test_zero_horizon_produces_empty_report(self):
        report = run_single(make_config(sim_time=0.0, has_trans=False), 0)
        assert report.blocks_created == 0
        assert report.blocks_included == 0
        assert report.throughput_tps == 0.0
        assert report.stale_rate == 0.0

    def test_single_miner_poisson_block_count(self):
        # Expected Sim_time/B_interval = 1000 blocks; 3 sigma ~ 95.
        config = make_config(
            miners=(1.0,), n_n=1, b_interval=600.0, sim_time=600_000.0, seed=11
        )
        report = run_single(config, 0)
        assert abs(report.blocks_created - 1000) <= 95
        assert report.blocks_included == report.blocks_created

    def test_same_seed_identical_reports(self):
        config = make_config(b_delay=2.0, block_target=300)
        a = run_single(config, 0)
        b = run_single(config, 0)
        assert a.blocks_created == b.blocks_created
        assert a.stale_rate == b.stale_rate
        assert a.miner_shares == b.miner_shares
        assert a.reward_shares == b.reward_shares
        assert a.sim_time_s == b.sim_time_s

    def test_genesis_installed_on_every_node(self):
        sim = Simulation(make_config(block_target=5), 0)
        for node in sim.world.nodes:
            assert node.chain == [sim.world.genesis.id]
            assert node.tip.depth == 0
        sim.run()
        for node in sim.world.nodes:
            assert node.chain[0] == sim.world.genesis.id

    def test_dispatch_times_nondecreasing_and_clock_consistent(self):
        sim = Simulation(make_config(b_delay=1.5, block_target=200), 0)
        times = []

        def wrap(handler):
            def wrapped(target, time, payload):
                assert sim.queue.clock == time
                times.append(time)
                return handler(target, time, payload)

            return wrapped

        sim.handlers = {kind: wrap(h) for kind, h in sim.handlers.items()}
        sim.run()
        assert times == sorted(times)

    def test_never_dispatches_beyond_sim_time(self):
        sim = Simulation(make_config(sim_time=5_000.0), 0)
        seen = []

        def wrap(handler):
            def wrapped(target, time, payload):
                seen.append(time)
                return handler(target, time, payload)

            return wrapped

        sim.handlers = {kind: wrap(h) for kind, h in sim.handlers.items()}
        sim.run()
        assert all(t <= 5_000.0 for t in seen)

    def test_superposition_total_rate(self):
        # Aggregate creation rate is 1/B_interval regardless of the split.
        config = make_config(sim_time=600_000.0, b_interval=600.0, seed=3)
        report = run_single(config, 0)
        assert abs(report.blocks_created - 1000) <= 95
