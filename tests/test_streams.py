"""The random layer: only ``src/chainsim/streams.py`` reads the generator, its samplers,
and how the race reads it."""

import itertools
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainsim.runner import run_single
from chainsim.streams import RACE_CHUNK, ExponentialSampler, HistogramSampler, Streams

from conftest import FixedUniform, make_config, planned_alone

SOURCE = Path(__file__).resolve().parent.parent / "src" / "chainsim"
# The pattern of the CI step "Only streams.py reads the random generator".
READS_GENERATOR = re.compile(
    r"rng|random_raw|bit_generator|default_rng|Generator|np\.random|numpy\.random"
    r"|\.random\(|\.integers\(|standard_exponential"
)
# runner.py loads numpy.random once, before a worker pool forks; it reads no generator.
RUNNER_IMPORT = re.compile(r"import numpy\.random  # .*")


def test_only_streams_reads_the_random_generator():
    found = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted(SOURCE.glob("*.py"))
        if path.name != "streams.py"
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if READS_GENERATOR.search(line)
        and not (path.name == "runner.py" and RUNNER_IMPORT.fullmatch(line))
    ]
    assert not found, "only streams.py may read the random generator:\n" + "\n".join(found)


def test_histogram_uniform_on_a_cumulative_probability_takes_the_next_value():
    # As in Generator.choice, a uniform equal to a cumulative probability
    # falls past it: at 0.25 the first value's share has run out.
    sampler = HistogramSampler([1.0, 3.0, 5.0], [0.25, 0.5, 0.25])
    uniforms, expected = [0.0, 0.25, 0.5, 0.75], [1.0, 3.0, 3.0, 5.0]
    assert [sampler.draw(FixedUniform([u])) for u in uniforms] == expected
    assert sampler.from_uniforms(np.array(uniforms)).tolist() == expected
    out = np.empty(len(uniforms))
    sampler.draw_into(FixedUniform(uniforms), out)
    assert out.tolist() == expected


MINERS = (0.5, 0.2, 0.3)


def race_gaps(streams, weights, count, alone):
    """``count`` gaps from the races of ``streams``, read ahead if ``alone``, the miners
    taking turns, and a function drawing the same gaps from ``rng`` one at a time."""
    races = streams.races(list(weights), alone)
    samplers = [ExponentialSampler(streams.block_interval / w) for w in weights]
    turns = [i % len(weights) for i in range(count)]
    return [races[i]() for i in turns], lambda rng: [samplers[i].draw(rng) for i in turns]


def generator_state(rng):
    """What of ``rng``'s state a later draw reads: the PCG64 state, whether
    a 32-bit half is buffered, and that half if so (numpy leaves a used one behind)."""
    state = rng.bit_generator.state
    return state["state"], state["has_uint32"], state["uinteger"] if state["has_uint32"] else None


@pytest.mark.stream_pin
def test_race_gaps_across_chunk_edges_match_single_draws():
    streams, twin = Streams(make_config(miners=MINERS, n_n=3), 7), np.random.default_rng(7)
    gaps, single = race_gaps(streams, MINERS, 2 * RACE_CHUNK + 100, alone=True)
    assert gaps == single(twin)


@pytest.mark.stream_pin
def test_race_redraws_a_zero_uniform_in_a_chunk_s_last_slot():
    # u = 0 gives a gap of exactly 0, which is drawn again from the next
    # uniform, here the first of the next chunk, twice in a row once.
    script = np.random.default_rng(3).random(3 * RACE_CHUNK).tolist()
    script[RACE_CHUNK - 1] = script[2 * RACE_CHUNK - 1] = script[2 * RACE_CHUNK] = 0.0
    streams = Streams(make_config(miners=MINERS, n_n=3), 1)
    streams.rng, twin = FixedUniform(script), FixedUniform(script)
    gaps, single = race_gaps(streams, MINERS, 2 * RACE_CHUNK + 5, alone=True)
    assert gaps == single(twin)
    assert twin.calls == 2 * RACE_CHUNK + 8 and streams.rng.calls == 3 * RACE_CHUNK


@pytest.mark.stream_pin
def test_race_of_a_tiny_mean_redraws_a_nonzero_uniform():
    # At a mean of 1e-310 the least uniforms give 0 as well: 2**-53 and
    # 2**-60 are drawn again, also from a chunk's last slot.
    script = [0.5, 2.0**-53, 0.25, 2.0**-60, 0.75] * (RACE_CHUNK // 5)
    script += [0.125] * (RACE_CHUNK - 1 - len(script)) + [2.0**-53]
    streams = Streams(make_config(b_interval=1e-310, miners=(1.0,), n_n=1), 1)
    streams.rng, twin = FixedUniform(script), FixedUniform(script)
    gaps, single = race_gaps(streams, (1.0,), RACE_CHUNK, alone=True)
    assert gaps == single(twin)
    assert min(gaps) > 0.0 and twin.calls > RACE_CHUNK + RACE_CHUNK // 3


# A config for each other quantity that draws beside the race.
OTHER_DRAWS = {
    "light_pool": dict(has_trans=True, t_technique="light", t_n=0.5, t_size="exp:0.001", t_fee="exp:2.0"),
    "block_delays": dict(delay_mode="exponential", b_delay=5.0, n_n=6),
    "start_transactions": dict(has_trans=True, t_technique="full", t_n=0.5, t_size="exp:0.001"),
}


def draw_other(name, streams):
    """Draw quantity ``name`` from ``streams``: a light pool, a block's delays
    to three recipients, or the first full-mode transaction."""
    if name == "light_pool":
        pools = np.zeros((2, 1, 40))
        streams.light_pool(pools, 0)
        return pools.tolist()
    if name == "block_delays":
        return streams.block_delays(3)
    streams.start_transactions([0, 1, 2])
    return streams.held


def draw_other_one_at_a_time(name, config, rng):
    """``draw_other``'s values, drawn from ``rng`` by the samplers and numpy's own calls."""
    size, price = config.samplers
    if name == "light_pool":
        pools = np.zeros((2, 1, 40))
        size.draw_into(rng, pools[0, 0])
        price.draw_into(rng, pools[1, 0])
        return pools.tolist()
    if name == "block_delays":
        delay = ExponentialSampler(config.b_delay)
        return [delay.draw(rng) for _ in range(config.n_n - 1)][:3]
    at = ExponentialSampler(1.0 / config.t_n).draw(rng)
    submitter = int(rng.integers(config.n_n))
    rng.integers(config.n_n)
    weight = size.draw(rng)
    return submitter, (1, at, weight, weight * price.draw(rng))


@pytest.mark.stream_pin
@pytest.mark.parametrize("k", [0, 1, RACE_CHUNK - 1, RACE_CHUNK, RACE_CHUNK + 1, 2 * RACE_CHUNK + 9])
@pytest.mark.parametrize("name", list(OTHER_DRAWS))
def test_race_read_ahead_is_given_back_before_another_draw(name, k):
    # Nothing the race reads is held back from another quantity: beside it,
    # the engine plans the race to read singly.  After k race draws, the
    # other quantity's values, the race's later gaps and the generator's
    # state, a buffered half included, are those of draws made one at a time.
    config = make_config(**{"miners": MINERS, "n_n": 5, **OTHER_DRAWS[name]})
    streams, twin = Streams(config, 11), np.random.default_rng(11)
    gaps, single = race_gaps(streams, MINERS, k, planned_alone(config))
    assert gaps == single(twin)
    assert draw_other(name, streams) == draw_other_one_at_a_time(name, config, twin)
    assert generator_state(streams.rng) == generator_state(twin)
    later, single = race_gaps(streams, MINERS, RACE_CHUNK + 3, planned_alone(config))
    assert later == single(twin)
    assert generator_state(streams.rng) == generator_state(twin)


@pytest.mark.stream_pin
def test_race_read_ahead_is_given_back_before_a_buffered_half():
    # A race draw, then the first transaction, whose submitter draw by
    # integers() leaves a 32-bit half buffered: the race, planned to read
    # singly beside transactions, leaves that half to the next draw.
    config = make_config(**{"miners": MINERS, **OTHER_DRAWS["start_transactions"], "n_n": 2**31 + 1})
    alone = planned_alone(config)
    for seed in range(40):
        streams, twin = Streams(config, seed), np.random.default_rng(seed)
        gaps, single = race_gaps(streams, MINERS, 5, alone)
        assert gaps == single(twin)
        assert draw_other("start_transactions", streams) == draw_other_one_at_a_time(
            "start_transactions", config, twin
        )
        assert generator_state(streams.rng) == generator_state(twin)
        if twin.bit_generator.state["has_uint32"]:
            break
    else:
        pytest.fail("no seed left a half buffered")
    later, single = race_gaps(streams, MINERS, 3, alone)
    assert later == single(twin)


WORKLOADS = {
    "bare": dict(has_trans=False),
    "light-constant": dict(has_trans=True, t_technique="light", t_size="const:0.001", t_fee="const:0.2"),
    "light-drawn": dict(has_trans=True, t_technique="light", t_size="exp:0.001", t_fee="exp:0.5"),
    "full": dict(has_trans=True, t_technique="full", t_size="exp:0.001", t_fee="exp:0.5"),
}


@settings(max_examples=40, deadline=None)
@given(
    workload=st.sampled_from(list(WORKLOADS)),
    delay_mode=st.sampled_from(["constant", "exponential"]),
    b_delay=st.sampled_from([0.0, 2.0, 9.0]),
    t_delay=st.sampled_from([0.0, 1.5]),
    t_n=st.sampled_from([0.0, 0.2, 2.0]),
    selector=st.sampled_from(["pow", "stake", "roundrobin"]),
    n_n=st.integers(1, 6),
    block_target=st.integers(1, 40),
    seed=st.integers(0, 2**32),
)
@example(workload="light-drawn", delay_mode="constant", b_delay=2.0, t_delay=0.0, t_n=2.0,
         selector="pow", n_n=5, block_target=20, seed=1)
@example(workload="bare", delay_mode="exponential", b_delay=2.0, t_delay=0.0, t_n=0.0,
         selector="pow", n_n=5, block_target=20, seed=1)
@example(workload="full", delay_mode="constant", b_delay=2.0, t_delay=1.5, t_n=0.2,
         selector="pow", n_n=5, block_target=20, seed=1)
@example(workload="full", delay_mode="exponential", b_delay=0.0, t_delay=1.5, t_n=0.2,
         selector="pow", n_n=5, block_target=20, seed=1)
def test_planned_race_gives_the_row_of_a_race_read_singly(
    workload, delay_mode, b_delay, t_delay, t_n, selector, n_n, block_target, seed
):
    # Reading ahead is planned only where nothing else draws: a race planned
    # alone beside another draw would shift that draw's uniforms.
    config = make_config(
        **WORKLOADS[workload], delay_mode=delay_mode, b_delay=b_delay, t_delay=t_delay, t_n=t_n,
        selector=selector, n_n=n_n, miners=(0.4, 0.6) if n_n > 1 else (1.0,), b_interval=20.0,
        block_target=block_target, seed=seed,
    )
    races = Streams.races
    planned = run_single(config).columns("runs")
    with mock.patch.object(Streams, "races", lambda self, weights, alone: races(self, weights, False)):
        single = run_single(config).columns("runs")
    del planned["wall_clock_s"], single["wall_clock_s"]
    assert planned == single


def test_each_miner_s_mean_race_gap_is_b_interval_over_its_weight():
    # 400,000 gaps a miner: the mean's standard error is 0.16% of it, so a
    # mean 1% off is more than 6 standard errors out.
    n = 400_000
    streams = Streams(make_config(miners=MINERS, n_n=3), 42)
    for weight, race in zip(MINERS, streams.races(list(MINERS), True)):
        mean = streams.block_interval / weight
        gaps = np.fromiter(itertools.islice(iter(race, None), n), float, n)
        assert abs(gaps.mean() - mean) < 4 * mean / math.sqrt(n)
