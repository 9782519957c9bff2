import dataclasses
import gc
import math
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainsim.engine import (
    EventKind,
    EventQueue,
    SchedulingError,
    exponential_and_pair,
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
            sample_exponential(np.random.default_rng(1), 0.0)
        with pytest.raises(ValueError):
            sample_exponential(np.random.default_rng(1), -3.0)

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
        source = np.random.default_rng(99)
        n = 100_000
        total = sum(sample_exponential(source, 10.0) for _ in range(n))
        assert abs(total / n - 10.0) < 0.3

    def test_positivity_fuzz(self):
        source = np.random.default_rng(5)
        assert all(sample_exponential(source, 0.001) > 0 for _ in range(10_000))


class TestSampleExponentials:
    def test_batch_equals_single_draws_and_stream(self):
        batch, single = np.random.default_rng(31), np.random.default_rng(31)
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
            sample_exponentials(np.random.default_rng(1), 0.0, 3)


# Pair sizes for exponential_and_pair, each with what it covers.
PAIR_SIZES = {
    1: "integers(1) reads nothing, so the pair takes no word",
    2: "smallest n read from a raw word; 2**32 % 2 == 0, so no half rejects",
    3: "odd n, rejection bound 1",
    5: "the five default nodes, rejection bound 1",
    100: "rejection bound 96",
    2**31 + 1: "bound 2**31 - 1: about three words in four reject, so the word "
    "is given back, and a pair that leaves a half buffered keeps numpy drawing",
    2**32 - 1: "largest n read from a raw word, rejection bound 1",
    2**32: "numpy takes a whole 32-bit half with no rejection test",
    2**33 + 7: "numpy draws from whole 64-bit words",
}


class CountingGenerator(np.random.Generator):
    """A ``Generator`` that counts its ``integers`` calls."""

    calls = 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return super().integers(*args, **kwargs)


def assert_same_generator_state(a, b):
    a, b = a.bit_generator.state, b.bit_generator.state
    assert (a["state"], a["has_uint32"]) == (b["state"], b["has_uint32"])
    if a["has_uint32"]:
        assert a["uinteger"] == b["uinteger"]


class TestExponentialAndPair:
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        n=st.sampled_from(list(PAIR_SIZES)),
        k=st.integers(1, 300),
        mean=st.sampled_from([1.0, 0.7]),
    )
    @example(seed=5, n=2**31 + 1, k=300, mean=1.0)
    def test_values_and_state_match_numpy_draws(self, seed, n, k, mean):
        fast, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        draw = exponential_and_pair(fast, mean, n)
        for _ in range(k):
            gap, first = draw()
            assert gap == sample_exponential(twin, mean)
            assert first == int(twin.integers(n))
            twin.integers(n)
            assert_same_generator_state(fast, twin)

    def test_default_nodes_read_raw_words_only(self):
        rng = CountingGenerator(np.random.PCG64(11))
        draw = exponential_and_pair(rng, 1.0, 5)
        for _ in range(10_000):
            draw()
        assert rng.calls == 0

    def test_rejected_word_is_given_back_then_a_buffered_half_keeps_numpy(self):
        # Seed 30 at n = 2**31 + 1: three pairs from raw words, three
        # rejected words whose numpy pairs leave no half buffered, then one
        # that does, after which every pair is two integers calls.
        n = 2**31 + 1
        rng, twin = CountingGenerator(np.random.PCG64(30)), np.random.default_rng(30)
        draw = exponential_and_pair(rng, 1.0, n)
        steps = []
        for _ in range(300):
            before = rng.calls
            assert draw() == (sample_exponential(twin, 1.0), int(twin.integers(n)))
            twin.integers(n)
            assert_same_generator_state(rng, twin)
            steps.append((rng.calls - before, rng.bit_generator.state["has_uint32"]))
        assert steps[:7] == [(0, 0)] * 3 + [(2, 0)] * 3 + [(2, 1)]
        assert {calls for calls, _ in steps[7:]} == {2}

    def test_buffered_half_at_the_start_keeps_numpy(self):
        rng, twin = CountingGenerator(np.random.PCG64(3)), np.random.default_rng(3)
        assert rng.integers(5) == twin.integers(5)  # leaves the high half buffered
        draw = exponential_and_pair(rng, 1.0, 5)
        for _ in range(50):
            assert draw() == (sample_exponential(twin, 1.0), int(twin.integers(5)))
            twin.integers(5)
            assert_same_generator_state(rng, twin)
        assert rng.calls == 1 + 2 * 50

    def test_full_mode_run_calls_no_integers(self):
        config = make_config(has_trans=True, t_technique="full", t_n=0.05, block_target=50)
        expected = run_single(config)
        made = []

        def counting_rng(seed):
            made.append(CountingGenerator(np.random.PCG64(seed)))
            return made[-1]

        with mock.patch("chainsim.runner.np.random.default_rng", counting_rng):
            report = run_single(config)
        assert made[0].calls == 0
        assert dataclasses.replace(report, wall_clock_s=0.0) == dataclasses.replace(
            expected, wall_clock_s=0.0
        )


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
            assert node.chain == [sim.world.registry[0].id]
            assert node.tip.depth == 0
        sim.run()
        for node in sim.world.nodes:
            assert node.chain[0] == sim.world.registry[0].id

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


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        dict(has_trans=True, t_technique="full", t_n=0.05, b_delay=2.0),
        dict(delay_mode="exponential", b_delay=5.0),
        dict(uncles_enabled=True, b_interval=20.0, b_delay=4.0),
    ],
    ids=["bare", "full", "exponential-delay", "uncles"],
)
def test_finished_run_frees_itself_without_cyclic_gc(overrides):
    # Reference counting alone must free a finished run: a cycle through the
    # queued entries would keep every block alive until the cyclic GC ran.
    sim = Simulation(make_config(block_target=100, **overrides), 0)
    gc.disable()
    try:
        sim.run()
        refs = [weakref.ref(obj) for obj in (sim, sim.consensus, sim.network, sim.workload)]
        del sim
        assert [ref() for ref in refs] == [None] * 4
    finally:
        gc.enable()
