import dataclasses
import math
import os
import subprocess
import sys

import pytest

from chainsim.incentives import RewardLedger
from chainsim.model import Block, BlockRegistry, make_genesis
from chainsim.runner import run_many, run_single
from chainsim.stats import (
    InvariantViolation,
    MetricAggregate,
    RunReport,
    aggregate,
    check_main_chain,
    t_quantile,
)

from conftest import make_config


def make_report(**overrides):
    base = dict(
        run_index=0,
        seed=42,
        blocks_created=100,
        blocks_included=88,
        stale_rate=0.12,
        throughput_tps=3.0,
        mean_tx_latency_s=250.0,
        miner_shares={0: 0.6, 1: 0.4},
        reward_shares={0: 0.6, 1: 0.4},
        reward_ledger=RewardLedger(),
        sim_time_s=60_000.0,
        wall_clock_s=1.0,
    )
    base.update(overrides)
    return RunReport(**base)


class TestRunReport:
    def test_stale_rate_definition(self):
        report = run_single(make_config(b_delay=4.0, b_interval=20.0, block_target=500), 0)
        assert report.stale_rate == pytest.approx(
            (report.blocks_created - report.blocks_included) / report.blocks_created
        )
        assert 0.0 <= report.stale_rate <= 1.0

    def test_shares_sum_to_one(self):
        report = run_single(make_config(block_target=400, b_delay=1.0), 0)
        assert math.fsum(report.miner_shares.values()) == pytest.approx(1.0, abs=1e-9)
        assert math.fsum(report.reward_shares.values()) == pytest.approx(1.0, abs=1e-9)

    def test_single_miner_zero_delay(self):
        report = run_single(make_config(miners=(1.0,), n_n=1, block_target=250), 0)
        assert report.stale_rate == 0.0
        assert report.miner_shares == {0: 1.0}

    def test_blocks_per_day_scaling(self):
        report = make_report(blocks_included=100, sim_time_s=43_200.0)
        assert report.blocks_per_day == pytest.approx(200.0)
        assert make_report(sim_time_s=0.0).blocks_per_day == 0.0


class TestCheckMainChain:
    def _chain(self):
        registry = BlockRegistry()
        genesis = make_genesis()
        registry.add(genesis)
        b1 = Block(id=1, depth=1, previous_id=0, timestamp=5.0, miner_id=0)
        b2 = Block(id=2, depth=2, previous_id=1, timestamp=9.0, miner_id=1)
        for b in (b1, b2):
            registry.add(b)
        return registry, [0, 1, 2]

    def test_valid_chain_passes(self):
        registry, chain = self._chain()
        check_main_chain(registry, chain)

    def test_bad_linkage_raises(self):
        registry, chain = self._chain()
        registry.add(Block(id=3, depth=2, previous_id=0, timestamp=10.0, miner_id=0))
        with pytest.raises(InvariantViolation):
            check_main_chain(registry, [0, 1, 3])

    def test_non_monotone_timestamp_raises(self):
        registry, chain = self._chain()
        registry.add(Block(id=4, depth=3, previous_id=2, timestamp=9.0, miner_id=0))
        with pytest.raises(InvariantViolation):
            check_main_chain(registry, [0, 1, 2, 4])

    def test_wrong_root_raises(self):
        registry, chain = self._chain()
        with pytest.raises(InvariantViolation):
            check_main_chain(registry, [1, 2])


class TestAggregate:
    def test_identical_reports_zero_half_width(self):
        reports = [make_report(run_index=i) for i in range(10)]
        aggs = aggregate(reports)
        assert aggs["stale_rate"].mean == pytest.approx(0.12)
        assert aggs["stale_rate"].half_width_95 == 0.0
        assert aggs["stale_rate"].run_count == 10

    def test_hand_computed_t_interval(self):
        # values 1..10: mean 5.5, stddev 3.0277, t(0.975, 9) = 2.2622
        reports = [make_report(run_index=i, throughput_tps=float(i + 1)) for i in range(10)]
        agg = aggregate(reports)["throughput_tps"]
        assert agg.mean == pytest.approx(5.5)
        assert agg.half_width_95 == pytest.approx(2.2622 * 3.02765 / math.sqrt(10), abs=5e-4)
        assert agg.half_width_95 == pytest.approx(2.17, abs=0.01)

    def test_single_run_zero_half_width(self):
        agg = aggregate([make_report()])["throughput_tps"]
        assert agg.mean == 3.0
        assert agg.half_width_95 == 0.0
        assert agg.run_count == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_latency_skipped_when_absent(self):
        reports = [make_report(mean_tx_latency_s=None)]
        assert "mean_tx_latency_s" not in aggregate(reports)

    def test_per_miner_share_metrics_present(self):
        aggs = aggregate([make_report()])
        assert "share_0" in aggs and "reward_share_1" in aggs

    def test_deterministic_given_report_order(self):
        reports = [make_report(run_index=i, stale_rate=0.01 * i) for i in range(5)]
        a = aggregate(reports)["stale_rate"]
        b = aggregate(reports)["stale_rate"]
        assert (a.mean, a.half_width_95) == (b.mean, b.half_width_95)


class TestTQuantile:
    def test_closed_forms_for_one_and_two_df(self):
        for p in (0.9, 0.975, 0.995):
            assert t_quantile(p, 1) == pytest.approx(math.tan(math.pi * (p - 0.5)), rel=1e-13)
            a = 2 * p - 1
            assert t_quantile(p, 2) == pytest.approx(a * math.sqrt(2 / (1 - a * a)), rel=1e-13)

    def test_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for p in (0.9, 0.975, 0.995):
            for df in range(1, 201):
                expected = float(scipy_stats.t.ppf(p, df))
                assert t_quantile(p, df) == pytest.approx(expected, rel=1e-12), (p, df)

    def test_import_leaves_scipy_unloaded(self):
        code = "import sys, chainsim, chainsim.cli; print('scipy' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "False"


class TestPaperScaleThroughput:
    def test_throughput_at_600_interval_small_delay(self):
        # At a 600 s interval and 0.5 s delay, saturated 1 MB blocks of
        # 546-byte transactions process about 3 tx/s.
        config = make_config(
            b_interval=600.0, b_delay=0.5, b_size=1.0,
            has_trans=True, t_technique="light", t_n=4000.0,
            t_size="const:0.000546",
            block_target=10_000, runs=3, seed=42,
        )
        aggs = aggregate(run_many(config, parallel=3))
        assert aggs["throughput_tps"].mean == pytest.approx(3.03, rel=0.15)
        assert aggs["stale_rate"].mean < 0.01
        # capacity ceiling: 1831 transactions of 546 bytes fit in 1 MB
        assert aggs["throughput_tps"].mean <= (1831 / 600.0) * 1.01
