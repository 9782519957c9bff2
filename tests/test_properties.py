"""Properties over random small configs that hold whatever the seed."""

import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsim.cli import write_aggregate_csv, write_run_csv
from chainsim.consensus import main_chain
from chainsim.incentives import distribute
from chainsim.runner import Simulation, run_many
from chainsim.stats import aggregate

from conftest import make_config, read_rows, strip_wall_clock


def fractions(counts):
    """``counts`` over their total: a valid miners or stakes list."""
    total = sum(counts)
    return tuple(c / total for c in counts)


@st.composite
def selections(draw):
    """``(selector, miners, stakes, cut)``: 1-5 creators' weights with zeros
    anywhere but last, and ``cut`` the last creator's id + 1."""
    selector = draw(st.sampled_from(["pow", "stake", "roundrobin"]))
    weights = draw(st.lists(st.integers(0, 3), max_size=4)) + [draw(st.integers(1, 3))]
    if selector != "stake":
        return selector, fractions(weights), None, len(weights)
    power = draw(
        st.lists(st.integers(0, 3), min_size=len(weights), max_size=len(weights)).filter(any)
    )
    return selector, fractions(power), fractions(weights), len(weights)


LIGHT_OR_BARE = st.one_of(
    st.just(dict(has_trans=False)),
    st.fixed_dictionaries(
        dict(
            has_trans=st.just(True),
            t_technique=st.just("light"),
            t_n=st.sampled_from([0.5, 5.0, 20.0]),
            t_size=st.sampled_from(["const:0.001", "exp:0.002"]),
            t_fee=st.sampled_from(["const:0.2", "exp:0.5"]),
            b_size=st.sampled_from([0.01, 0.05]),
        )
    ),
)


def report_rows(config):
    """``runs.csv`` and ``aggregate.csv`` of ``config``, without ``wall_clock_s``."""
    reports = run_many(config)
    with tempfile.TemporaryDirectory() as tmp:
        runs, aggs = Path(tmp) / "runs.csv", Path(tmp) / "aggregate.csv"
        write_run_csv(runs, reports)
        write_aggregate_csv(aggs, aggregate(reports))
        return strip_wall_clock(read_rows(runs)), strip_wall_clock(read_rows(aggs))


class TestNodesAboveTheLastCreator:
    @settings(max_examples=80, deadline=None)
    @given(
        selection=selections(),
        uncles=st.booleans(),
        b_delay=st.sampled_from([0.0, 2.0, 9.0]),
        b_interval=st.sampled_from([10.0, 60.0, 600.0]),
        workload=LIGHT_OR_BARE,
        block_target=st.integers(1, 60),
        runs=st.integers(1, 2),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_change_no_output(
        self, selection, uncles, b_delay, b_interval, workload, block_target, runs, seed
    ):
        # Constant delays and no full mode: N_n sets no draw, so the CSVs
        # cannot depend on it.  Exponential delays and full mode draw over N_n.
        # Nodes above the last creator are not built, even ten million of them.
        selector, miners, stakes, cut = selection
        base = dict(
            selector=selector, miners=miners, stakes=stakes, uncles_enabled=uncles,
            b_delay=b_delay, b_interval=b_interval, block_target=block_target, runs=runs,
            seed=seed, **workload,
        )
        at_cut = report_rows(make_config(n_n=cut, **base))
        for n_n in (cut + 1, cut + 40, 10**7):
            assert report_rows(make_config(n_n=n_n, **base)) == at_cut
            assert len(Simulation(make_config(n_n=n_n, **base), 0).world.nodes) == cut


# Runs a config in this interpreter and prints its peak resident set size in
# kB: its own VmHWM, not ru_maxrss, which Linux carries over from the process
# that forked it (here pytest) across exec.
PEAK_RSS_SCRIPT = """
import json, sys
from chainsim import cli
code = cli.main(["run", "--config", sys.argv[1], "--out", sys.argv[2]])
with open("/proc/self/status") as status:
    peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps([code, peak_kb]))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from /proc/self/status, on Linux only")
def test_ten_million_nodes_cost_no_memory(tmp_path):
    # The bitcoin preset with 9,999,995 nodes above its five miners: the
    # same CSVs as five nodes, in the memory of five nodes.
    text = "preset = bitcoin\nblock_target = 200\nRuns = 1\nN_n = {}\n"
    rows = {}
    for n_n in (5, 10**7):
        config, out = tmp_path / f"{n_n}.cfg", tmp_path / str(n_n)
        config.write_text(text.format(n_n))
        done = subprocess.run(
            [sys.executable, "-c", PEAK_RSS_SCRIPT, str(config), str(out)],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)},
            capture_output=True, text=True, timeout=120, check=True,
        )
        code, peak_kb = json.loads(done.stdout.splitlines()[-1])
        assert code == 0
        assert peak_kb < 100 * 1024
        rows[n_n] = [strip_wall_clock(read_rows(out / name)) for name in ("runs.csv", "aggregate.csv")]
    assert rows[10**7] == rows[5]


@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from /proc/self/status, on Linux only")
def test_tall_light_pool_stays_small(tmp_path):
    # Every block draws a light pool of 100,000 transactions.  Pools are
    # packed a few at a time, as many as fit the batch's byte budget, so the
    # run stays small whatever PACK_BATCH is.
    config, out = tmp_path / "tall.cfg", tmp_path / "out"
    config.write_text(
        "T_technique = light\nT_n = 500\nB_interval = 100\nB_size = 1\n"
        "T_size = exp:1e-6\nT_fee = exp:1.0\nblock_target = 300\nRuns = 1\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_SCRIPT, str(config), str(out)],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)},
        capture_output=True, text=True, timeout=120, check=True,
    )
    code, peak_kb = json.loads(done.stdout.splitlines()[-1])
    assert code == 0
    assert peak_kb < 100 * 1024


def test_memory_per_block_does_not_grow_with_the_miners():
    # Each block is held once, in the registry, and each node holds only its
    # tip: 64 equal miners cost what 5 do a block.  With a chain list per
    # node it was about 740 against 240 bytes a block.
    per_block = {}
    for n in (5, 64):
        sim = Simulation(make_config(n_n=n, miners=(1 / n,) * n, block_target=4_000), 0)
        tracemalloc.start()
        try:
            sim.run()
            per_block[n] = tracemalloc.get_traced_memory()[0] / (len(sim.world.registry) - 1)
        finally:
            tracemalloc.stop()
    assert abs(per_block[64] - per_block[5]) <= 0.25 * per_block[5], per_block


def expected_grand_total(blocks_included, chain, registry, config):
    """``blocks_included`` block rewards plus the main chain's fees, uncle
    rewards and inclusion rewards, with the uncle reward's linear decay
    written out."""
    reward, window = config.b_reward, config.g_uncle
    fees, uncle_rewards, inclusion_rewards = [], [], []
    for block_id in chain[1:]:
        block = registry[block_id]
        fees.append(block.tx_fee_total)
        for uncle_id in block.uncles:
            age = block.depth - registry[uncle_id].depth
            assert 1 <= age <= window
            uncle_rewards.append((window + 1 - age) * reward / (window + 1))
            inclusion_rewards.append(config.inclusion_reward_fraction * reward)
    return math.fsum(
        [blocks_included * reward, *fees, *uncle_rewards, *inclusion_rewards]
    )


class TestRewardsAreConserved:
    @settings(max_examples=40, deadline=None)
    @given(
        selection=selections(),
        uncles=st.booleans(),
        u_max=st.integers(0, 3),
        g_uncle=st.integers(1, 8),
        b_delay=st.sampled_from([0.0, 2.0, 9.0]),
        delay_mode=st.sampled_from(["constant", "exponential"]),
        b_reward=st.sampled_from([0.5, 2.0, 12.5]),
        workload=st.one_of(
            LIGHT_OR_BARE,
            st.fixed_dictionaries(
                dict(
                    has_trans=st.just(True),
                    t_technique=st.just("full"),
                    t_n=st.sampled_from([0.2, 2.0]),
                    t_size=st.sampled_from(["const:0.001", "exp:0.002"]),
                    t_fee=st.sampled_from(["const:0.2", "exp:0.5"]),
                    t_delay=st.sampled_from([0.0, 1.0]),
                    b_size=st.sampled_from([0.005, 0.05]),
                )
            ),
        ),
        extra_nodes=st.integers(0, 3),
        block_target=st.integers(1, 60),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_shares_sum_to_one_and_rewards_add_up(
        self, selection, uncles, u_max, g_uncle, b_delay, delay_mode, b_reward, workload,
        extra_nodes, block_target, seed,
    ):
        selector, miners, stakes, cut = selection
        config = make_config(
            selector=selector, miners=miners, stakes=stakes, n_n=cut + extra_nodes,
            uncles_enabled=uncles, u_max=u_max, g_uncle=g_uncle, b_interval=30.0,
            b_delay=b_delay, delay_mode=delay_mode, b_reward=b_reward,
            block_target=block_target, seed=seed, **workload,
        )
        sim = Simulation(config, 0)
        report = sim.run()
        if report.blocks_included:
            assert math.fsum(report.miner_shares.values()) == pytest.approx(1.0, abs=1e-12)
            assert math.fsum(report.reward_shares.values()) == pytest.approx(1.0, abs=1e-12)
        chain = main_chain(sim.world)
        ledger = distribute(chain, sim.world.registry, config)
        expected = expected_grand_total(report.blocks_included, chain, sim.world.registry, config)
        assert ledger.grand_total() == pytest.approx(expected, rel=1e-12, abs=1e-12)
