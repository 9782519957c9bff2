import dataclasses
import gc
import math
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainsim.config import SKIP_CHUNK, ExponentialSampler
from chainsim.engine import EventKind, EventQueue, SchedulingError, run_loop
from chainsim.runner import Simulation, run_single

from conftest import FixedUniform, chain_of, make_config, pending_arrivals, record_filing


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
            ExponentialSampler(0.0)
        with pytest.raises(ValueError):
            ExponentialSampler(-3.0)

    def test_strictly_positive_even_at_u_one(self):
        # random() == 0.0 maps to u == 1.0, whose draw of exactly 0 is rejected.
        source = FixedUniform([0.0, 0.5])
        x = ExponentialSampler(10.0).draw(source)
        assert x > 0.0
        assert source.calls == 2

    def test_linear_in_mean_for_same_u(self):
        a = ExponentialSampler(10.0).draw(FixedUniform([0.25]))
        b = ExponentialSampler(20.0).draw(FixedUniform([0.25]))
        assert b == 2.0 * a

    def test_matches_formula(self):
        source = FixedUniform([0.25])
        assert ExponentialSampler(10.0).draw(source) == -10.0 * math.log(0.75)

    def test_sample_mean_within_lln_bound(self):
        source, sampler = np.random.default_rng(99), ExponentialSampler(10.0)
        n = 100_000
        total = sum(sampler.draw(source) for _ in range(n))
        assert abs(total / n - 10.0) < 0.3

    def test_positivity_fuzz(self):
        source, sampler = np.random.default_rng(5), ExponentialSampler(0.001)
        assert all(sampler.draw(source) > 0 for _ in range(10_000))


class TestSampleExponentials:
    def test_batch_equals_single_draws_and_stream(self):
        batch, single = np.random.default_rng(31), np.random.default_rng(31)
        sampler = ExponentialSampler(2.5)
        values = sampler.draws(batch, 1_000)
        assert values == [sampler.draw(single) for _ in range(1_000)]
        assert batch.random() == single.random()

    def test_rejected_uniform_is_replaced_in_order(self):
        # 0.0 maps to u == 1.0, a draw of exactly 0: each is rejected and
        # the next uniform takes its place, as with single draws.
        script = [0.25, 0.0, 0.5, 0.0, 0.0, 0.75, 0.125]
        batch, single = FixedUniform(script), FixedUniform(script)
        sampler = ExponentialSampler(10.0)
        values = sampler.draws(batch, 4)
        assert values == [sampler.draw(single) for _ in range(4)]
        assert values == [-10.0 * math.log(1.0 - u) for u in (0.25, 0.5, 0.75, 0.125)]
        assert batch.calls == single.calls == len(script)

    def test_zero_count_draws_nothing(self):
        source = FixedUniform([0.5])
        assert ExponentialSampler(1.0).draws(source, 0) == []
        assert source.calls == 0

    def test_rejects_nonpositive_mean(self):
        # The mean is checked once, when the sampler is made.
        with pytest.raises(ValueError):
            ExponentialSampler(0.0).draws(np.random.default_rng(1), 3)


class TestSkipExponentials:
    def test_leaves_the_state_draws_leaves(self):
        skipped, drawn = np.random.default_rng(8), np.random.default_rng(8)
        sampler = ExponentialSampler(2.3)
        sampler.skip(skipped, 10_000)
        sampler.draws(drawn, 10_000)
        assert_same_generator_state(skipped, drawn)

    def test_zero_word_takes_one_more(self):
        skipped, drawn = np.random.default_rng(9), np.random.default_rng(9)
        for rng in (skipped, drawn):
            zero_word_in(rng, 3)
        sampler = ExponentialSampler(1.0)
        sampler.skip(skipped, 5)
        assert len(sampler.draws(drawn, 5)) == 5
        assert_same_generator_state(skipped, drawn)
        assert skipped.bit_generator.state != zero_word_in(np.random.default_rng(9), 3)

    def test_tiny_mean_draws_the_values(self):
        # At this mean a nonzero uniform can give 0 too, so raw words cannot tell.
        assert ExponentialSampler(1e-300).rejects_only_zero
        assert not ExponentialSampler(1e-310).rejects_only_zero
        with mock.patch.object(ExponentialSampler, "draws") as exact:
            ExponentialSampler(1e-310).skip(np.random.default_rng(1), 4)
        exact.assert_called_once()

    def test_zero_word_at_a_chunk_edge_takes_one_more(self):
        # The last word of the first chunk is rejected, so the second chunk
        # reads one word more than its share.
        skipped, drawn = np.random.default_rng(10), np.random.default_rng(10)
        for rng in (skipped, drawn):
            zero_word_in(rng, SKIP_CHUNK)
        sampler = ExponentialSampler(1.0)
        sampler.skip(skipped, 2 * SKIP_CHUNK + 3)
        sampler.draws(drawn, 2 * SKIP_CHUNK + 3)
        assert_same_generator_state(skipped, drawn)

    def test_memory_does_not_grow_with_the_count(self):
        # Read as one array, 5 x 10**7 raw words take 400 MB.
        rng, sampler = np.random.default_rng(12), ExponentialSampler(0.42)
        tracemalloc.start()
        try:
            sampler.skip(rng, 50_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    def test_tiny_mean_memory_does_not_grow_with_the_count(self):
        # Drawn as one list, 10**6 values peak at some 69 MB; in chunks, 4.5 MB.
        rng, sampler = np.random.default_rng(13), ExponentialSampler(1e-310)
        tracemalloc.start()
        try:
            sampler.skip(rng, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    def test_tiny_mean_skip_in_chunks_reads_the_stream_of_draws(self):
        skipped, drawn = np.random.default_rng(14), np.random.default_rng(14)
        sampler = ExponentialSampler(1e-310)
        sampler.skip(skipped, 2 * SKIP_CHUNK + 3)
        sampler.draws(drawn, 2 * SKIP_CHUNK + 3)
        assert_same_generator_state(skipped, drawn)

    @settings(max_examples=150, deadline=None)
    @given(
        mean=st.sampled_from([1e-310, 1e-300, 0.001, 2.5, 600.0]),
        splits=st.lists(st.integers(0, 40), max_size=6),
        seed=st.integers(0, 2**63 - 1),
        zero_at=st.none() | st.integers(1, 80),
    )
    def test_batches_and_skips_read_the_stream_of_single_draws(self, mean, splits, seed, zero_at):
        # However the draws are split into batches, they give the values and
        # leave the generator as that many single draws do, and so do skips.
        sampler = ExponentialSampler(mean)
        single, batched, skipped = (np.random.default_rng(seed) for _ in range(3))
        if zero_at is not None:  # a rejected uniform somewhere in the stream
            for rng in (single, batched, skipped):
                zero_word_in(rng, zero_at)
        expected = [sampler.draw(single) for _ in range(sum(splits))]
        assert [x for k in splits for x in sampler.draws(batched, k)] == expected
        for k in splits:
            sampler.skip(skipped, k)
        assert_same_generator_state(batched, single)
        assert_same_generator_state(skipped, single)


MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier


def zero_word_in(rng, j):
    """Set ``rng``'s state so that the ``j``-th raw word it reads next is 0:
    the LCG is stepped back ``j`` times from a state whose halves are equal,
    which PCG64's XSL-RR output maps to 0.  Returns the state set."""
    state = rng.bit_generator.state
    inc, word = state["state"]["inc"], 0x0123456789ABCDEF
    value, inverse = (word << 64) | word, pow(MULTIPLIER, -1, 2**128)
    for _ in range(j):
        value = (value - inc) * inverse % 2**128
    state["state"]["state"] = value
    rng.bit_generator.state = state
    return state


class TestNumpyRules:
    """The rules of numpy's generator that full-mode batches rely on."""

    def test_random_raw_reads_the_words_of_scalar_calls(self):
        batch, single = np.random.default_rng(4), np.random.default_rng(4)
        words = batch.bit_generator.random_raw(100).tolist()
        assert words == [single.bit_generator.random_raw() for _ in range(100)]
        assert [(w >> 11) * 2.0**-53 for w in words[:3]] == [
            r.random() for r in [np.random.default_rng(4)] for _ in range(3)
        ]

    def test_advance_back_gives_back_exactly_k_words_and_clears_a_buffered_half(self):
        rng, twin = np.random.default_rng(6), np.random.default_rng(6)
        rng.integers(5)
        assert rng.bit_generator.state["has_uint32"]
        words = rng.bit_generator.random_raw(7)
        rng.bit_generator.advance(-7)
        assert not rng.bit_generator.state["has_uint32"]
        assert rng.bit_generator.random_raw(7).tolist() == words.tolist()
        twin.bit_generator.random_raw(1 + 7)  # the word integers(5) read, and the seven
        assert twin.bit_generator.random_raw() == rng.bit_generator.random_raw()

    def test_zero_word_is_scripted(self):
        rng = np.random.default_rng(2)
        zero_word_in(rng, 3)
        assert rng.bit_generator.random_raw(4).tolist()[2] == 0


# Pair sizes for the submitter draw, each with what it covers.
PAIR_SIZES = {
    1: "integers(1) reads nothing, so the pair takes no word",
    2: "smallest n read from a raw word; 2**32 % 2 == 0, so no half rejects",
    3: "odd n, rejection bound 1",
    5: "the five default nodes, rejection bound 1",
    100: "rejection bound 96",
    2**31 + 1: "bound 2**31 - 1: about three words in four reject, so the row "
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


class OneAtATime:
    """The full-mode draws as one event per transaction made them, by
    numpy's own calls: at each transaction's creation, its delays to the
    other ``N_n - 1`` nodes under exponential ``T_delay``, then its
    successor's gap, submitter, unmodelled recipient, size and unit price."""

    def __init__(self, rng, config, miner_ids):
        self.rng, self.config, self.miner_ids = rng, config, miner_ids
        self.ids = 0

    def draw(self, now):
        rng, config = self.rng, self.config
        size, price = config.samplers
        at = now + ExponentialSampler(1.0 / config.t_n).draw(rng)
        submitter = int(rng.integers(config.n_n))
        rng.integers(config.n_n)
        weight = size.draw(rng)
        self.ids += 1
        return submitter, (self.ids, at, weight, weight * price.draw(rng))

    def arrivals(self, submitter, at):
        config = self.config
        if config.delay_mode == "exponential" and config.t_delay > 0:
            delays = ExponentialSampler(config.t_delay).draws(self.rng, config.n_n - 1)
            late = {m: at + delays[m - (m > submitter)] for m in self.miner_ids if m != submitter}
        else:
            late = {m: at + config.t_delay for m in self.miner_ids}
        return tuple(at if m == submitter else late[m] for m in self.miner_ids)


def stream_config(n, **overrides):
    miners = (1.0,) if n == 1 else (0.5, 0.5) if n == 2 else (0.4, 0.0, 0.6)
    params = dict(has_trans=True, t_technique="full", t_n=1.0, t_delay=2.0, n_n=n, miners=miners)
    params.update(overrides)
    return make_config(**params)


def start_both(sim, twin):
    """Start ``sim``'s stream and a one-at-a-time reference on ``twin``;
    return ``advance``, the reference and the transaction both hold."""
    advance = sim.workload.start()
    reference = OneAtATime(twin, sim.config, sim.world.miner_ids)
    held = reference.draw(0.0)
    assert sim.workload._held == held
    assert_same_generator_state(sim.workload.rng, twin)
    return advance, reference, held


def check_against_one_at_a_time(sim, advance, reference, held, steps):
    """Advance ``sim``'s stream by each of ``steps`` transactions in turn
    and check every one filed, and the generator, against ``reference``."""
    twin = reference.rng
    filed = record_filing(sim)
    expected = []
    for step in steps:
        for _ in range(step):
            submitter, tx = held
            expected.append((submitter, tx, reference.arrivals(submitter, tx[1])))
            held = reference.draw(tx[1])
        advance(held[1][1], -1)  # an event just after the last of them
        assert_same_generator_state(sim.workload.rng, twin)
        stamps = pending_arrivals(sim.workload)
        assert [(s, tx, stamps[tx[0]]) for s, tx, _ in filed] == expected
        assert sim.workload._held == held


@pytest.fixture(scope="module")
def hist_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("hist") / "values.txt"
    path.write_text("0.0002 0.3\n0.0005 0.4\n0.0011 0.2\n0.005 0.1\n")
    return path


class TestExponentialAndPair:
    """Full-mode transactions read from raw words: the exponential gap, the
    submitter pair and the rest are the draws one event at a time made."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        n=st.sampled_from(list(PAIR_SIZES)),
        steps=st.lists(st.integers(1, 60), min_size=1, max_size=6),
        rate=st.sampled_from([1.0, 1 / 0.7]),
        size=st.sampled_from(["const", "exp", "hist"]),
        price=st.sampled_from(["const", "exp", "hist"]),
        exponential=st.booleans(),
    )
    @example(seed=5, n=2**31 + 1, steps=[300], rate=1.0, size="const", price="const",
             exponential=False)
    def test_values_and_state_match_numpy_draws(
        self, hist_path, seed, n, steps, rate, size, price, exponential
    ):
        samplers = {"const": "const:0.0005", "exp": "exp:0.0005", "hist": f"hist:{hist_path}"}
        # Exponential delays draw for every node but the submitter: up to 100 nodes.
        delay = "exponential" if exponential and n <= 100 else "constant"
        config = stream_config(n, t_n=rate, t_size=samplers[size], t_fee=samplers[price],
                               delay_mode=delay, seed=seed % 2**63)
        twin = np.random.default_rng(seed % 2**63)
        sim = Simulation(config, 0)
        check_against_one_at_a_time(sim, *start_both(sim, twin), steps)

    @pytest.mark.parametrize("delay", ["constant", "exponential"])
    @pytest.mark.parametrize("j", [1, 2, 3, 4, 9])
    def test_zero_word_row_is_read_by_numpy(self, delay, j):
        # The j-th word after the first transaction is 0: a rejected delay,
        # gap, half or size, which makes its row irregular.
        config = stream_config(5, delay_mode=delay, t_size="exp:0.0005", seed=4)
        sim = Simulation(config, 0)
        rng = sim.workload.rng = CountingGenerator(np.random.PCG64(4))
        twin = np.random.default_rng(4)
        advance, reference, held = start_both(sim, twin)
        twin.bit_generator.state = zero_word_in(rng, j)
        with mock.patch.object(sim.workload, "_file_one", wraps=sim.workload._file_one) as spy:
            check_against_one_at_a_time(sim, advance, reference, held, [5, 20])
        assert spy.call_count == 1  # the one irregular row
        # numpy's calls draw the pair unless the zero is one of the row's four
        # delays, in a row of seven words: delays, gap, pair and size.
        assert rng.calls == (0 if delay == "exponential" and (j - 1) % 7 < 4 else 2)

    def test_default_nodes_read_raw_words_only(self):
        config = stream_config(5, n_n=5, miners=(0.4, 0.3, 0.15, 0.1, 0.05), seed=11)
        sim = Simulation(config, 0)
        rng = sim.workload.rng = CountingGenerator(np.random.PCG64(11))
        advance = sim.workload.start()
        advance(10_000.0, -1)
        assert rng.calls == 0 and sim.workload.created > 9_000

    def test_rejected_word_is_given_back_then_a_buffered_half_keeps_numpy(self):
        # Seed 30 at n = 2**31 + 1: three pairs from raw words, three
        # rejected words whose numpy pairs leave no half buffered, then one
        # that does, after which every pair is two integers calls.
        n = 2**31 + 1
        sim = Simulation(stream_config(n, seed=30), 0)
        rng = sim.workload.rng = CountingGenerator(np.random.PCG64(30))
        reference = OneAtATime(np.random.default_rng(30), sim.config, sim.world.miner_ids)
        steps = []
        advance = sim.workload.start()
        steps.append((rng.calls, rng.bit_generator.state["has_uint32"]))
        held = reference.draw(0.0)
        for _ in range(299):
            before = rng.calls
            reference.arrivals(held[0], held[1][1])
            held = reference.draw(held[1][1])
            advance(held[1][1], -1)
            assert sim.workload._held == held
            assert_same_generator_state(rng, reference.rng)
            steps.append((rng.calls - before, rng.bit_generator.state["has_uint32"]))
        assert steps[:7] == [(0, 0)] * 3 + [(2, 0)] * 3 + [(2, 1)]
        assert {calls for calls, _ in steps[7:]} == {2}

    def test_buffered_half_at_the_start_keeps_numpy(self):
        sim = Simulation(stream_config(5, seed=3), 0)
        rng = sim.workload.rng = CountingGenerator(np.random.PCG64(3))
        twin = np.random.default_rng(3)
        assert rng.integers(5) == twin.integers(5)  # leaves the high half buffered
        check_against_one_at_a_time(sim, *start_both(sim, twin), [1] * 10 + [40])
        assert rng.calls == 1 + 2 * 51

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
            assert chain_of(sim.world, node) == [sim.world.registry[0].id]
            assert node.tip.depth == 0
        sim.run()
        for node in sim.world.nodes:
            assert chain_of(sim.world, node)[0] == sim.world.registry[0].id

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

    @pytest.mark.parametrize("stop", [dict(sim_time=5_000.0), dict(block_target=10)])
    def test_advance_comes_before_each_event_then_the_horizon(self, stop):
        sim = Simulation(make_config(b_delay=1.5, **stop), 0)
        calls = []

        def wrap(handler):
            def wrapped(target, time, payload):
                calls.append(("event", time))
                return handler(target, time, payload)

            return wrapped

        sim.handlers = {kind: wrap(h) for kind, h in sim.handlers.items()}
        sim.consensus.start()
        run_loop(sim.queue, sim.handlers, sim.world,
                 advance=lambda time, seq: calls.append(("advance", time, seq)), **stop)
        events = [call for call in calls if call[0] == "event"]
        horizon = [("advance", 5_000.0, math.inf)] if "sim_time" in stop else []
        assert len(events) >= 10
        assert [c[:2] for c in calls[: 2 * len(events)]] == [
            c for event in events for c in (("advance", event[1]), event)
        ]
        assert calls[2 * len(events) :] == horizon

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
