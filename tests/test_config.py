import dataclasses

import pytest

from chainsim.config import (
    MAX_FULL_MODE_TRANSACTIONS,
    ConfigError,
    ConstantSampler,
    ExponentialSampler,
    HistogramSampler,
    SimConfig,
    SweepSpec,
    parse_config,
    parse_config_text,
    parse_sampler,
)
from chainsim.runner import run_single


def write_config(tmp_path, text, name="sim.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseConfig:
    def test_bitcoin_preset_defaults(self, tmp_path):
        config = parse_config(write_config(tmp_path, "preset = bitcoin\n"))
        assert config.b_interval == 596.0
        assert config.b_delay == 0.42
        assert config.b_size == 0.83
        assert config.t_size == "const:0.000546"
        assert config.block_target == 10_000
        assert config.uncles_enabled is False

    def test_ethereum_preset_defaults(self, tmp_path):
        config = parse_config(write_config(tmp_path, "preset = ethereum\n"))
        assert config.b_interval == 12.42
        assert config.b_delay == 2.3
        assert config.b_size == 7_997_148.0
        assert config.capacity_model == "gas"
        assert config.uncles_enabled and config.u_max == 2 and config.g_uncle == 7

    def test_file_overrides_preset_any_order(self, tmp_path):
        text = "B_interval = 300\npreset = bitcoin\nseed = 7\n"
        config = parse_config(write_config(tmp_path, text))
        assert config.b_interval == 300.0
        assert config.b_delay == 0.42
        assert config.seed == 7

    def test_keys_case_insensitive_with_comments(self, tmp_path):
        text = "# comment line\nB_INTERVAL = 120  # inline comment\nhastrans = false\nSim_time = 1000\n"
        config = parse_config(write_config(tmp_path, text))
        assert config.b_interval == 120.0
        assert config.has_trans is False
        assert config.sim_time == 1000.0
        assert config.block_target is None

    def test_unknown_key_reports_line(self, tmp_path):
        path = write_config(tmp_path, "B_interval = 10\nbogus_key = 3\n")
        with pytest.raises(ConfigError, match="line 2.*bogus_key"):
            parse_config(path)

    def test_bad_value_reports_line(self, tmp_path):
        path = write_config(tmp_path, "B_interval = fast\nsim_time = 5\n")
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "seed = 1\nseed = 2\nsim_time = 5\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "absent.cfg")

    def test_malformed_line(self, tmp_path):
        path = write_config(tmp_path, "B_interval\n")
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(path)

    def test_fraction_sum_violation(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            parse_config_text("miners = 0.6, 0.5\nsim_time = 10\n")

    def test_nonpositive_interval(self):
        with pytest.raises(ConfigError, match="B_interval"):
            parse_config_text("B_interval = 0\nsim_time = 10\n")

    def test_horizon_required_and_exclusive(self):
        with pytest.raises(ConfigError, match="Sim_time or block_target"):
            parse_config_text("B_interval = 10\n")
        with pytest.raises(ConfigError, match="mutually exclusive"):
            parse_config_text("sim_time = 5\nblock_target = 10\n")

    def test_file_horizon_replaces_preset_block_target(self, tmp_path):
        config = parse_config(write_config(tmp_path, "preset = bitcoin\nSim_time = 3600\n"))
        assert config.sim_time == 3600.0
        assert config.block_target is None

    def test_inclusion_fraction_accepts_ratio_syntax(self):
        config = parse_config_text("inclusion_reward_fraction = 1/32\nsim_time = 5\n")
        assert config.inclusion_reward_fraction == pytest.approx(1 / 32)

    def test_n_n_must_cover_miners(self):
        with pytest.raises(ConfigError, match="N_n"):
            parse_config_text("n_n = 3\nsim_time = 5\n")  # default miners list has 5

    def test_stakes_length_checked(self):
        with pytest.raises(ConfigError, match="stakes"):
            parse_config_text("miners = 0.5,0.5\nstakes = 1\nn_n=2\nsim_time = 5\n")

    @pytest.mark.parametrize(
        "line",
        [
            "B_delay = nan",
            "B_reward = nan",
            "B_interval = inf",
            "B_interval = nan",
            "B_size = inf",
            "T_n = nan",
            "T_delay = inf",
            "Sim_time = inf",
            "inclusion_reward_fraction = nan",
            "miners = nan,0.5,0.5",
            "stakes = 0,0,0,0,0\nselector = stake",
            "stakes = 2,-1,0,0,0",
            "stakes = 1,nan,0,0,0",
            "T_size = const:nan",
            "T_fee = exp:inf",
        ],
    )
    def test_bad_numbers_rejected(self, line):
        horizon = "" if line.startswith("Sim_time") else "block_target = 10\n"
        with pytest.raises(ConfigError):
            parse_config_text(f"{line}\n{horizon}")

    @pytest.mark.parametrize(
        "horizon, key",
        [("B_interval = 600\nblock_target = 3", "block_target"), ("Sim_time = 1800", "Sim_time")],
    )
    def test_full_mode_work_above_cap_rejected(self, horizon, key):
        # About 1.8e8 expected transactions: such a run would not end.
        with pytest.raises(ConfigError, match=rf"T_n = 100000/s.*lower T_n or {key}$"):
            parse_config_text(f"T_technique = full\nT_n = 100000\n{horizon}\n")
        # Light mode and runs without transactions track nothing per transaction.
        parse_config_text(f"T_technique = light\nT_n = 100000\n{horizon}\n")
        parse_config_text(f"T_technique = full\nhasTrans = false\nT_n = 100000\n{horizon}\n")

    @pytest.mark.parametrize("fraction, ok", [(0.99, True), (1.01, False)])
    def test_full_mode_work_cap_boundary(self, fraction, ok):
        rate = fraction * MAX_FULL_MODE_TRANSACTIONS / 1800
        text = f"T_technique = full\nT_n = {rate!r}\nB_interval = 600\nblock_target = 3\n"
        if ok:
            assert parse_config_text(text).t_n == rate
        else:
            with pytest.raises(ConfigError, match="cap"):
                parse_config_text(text)

    def test_zero_size_accepted_without_transactions(self):
        config = parse_config_text("hastrans = false\nt_size = const:0\nblock_target = 10\n")
        assert run_single(config, 0).blocks_created == 10


class TestSamplerSpecs:
    def test_const(self):
        sampler = parse_sampler("const:2.5")
        assert isinstance(sampler, ConstantSampler) and sampler.value == 2.5

    def test_exp(self):
        sampler = parse_sampler("exp:80000")
        assert isinstance(sampler, ExponentialSampler) and sampler.mean() == 80000.0

    def test_hist_relative_to_config_dir(self, tmp_path):
        (tmp_path / "sizes.txt").write_text("0.0005 0.4\n0.001 0.6\n")
        config = parse_config(
            write_config(tmp_path, "t_size = hist:sizes.txt\nsim_time = 5\n")
        )
        assert config.t_size == f"hist:{tmp_path / 'sizes.txt'}"
        sampler = parse_sampler(config.t_size)
        assert isinstance(sampler, HistogramSampler)
        assert sampler.mean() == pytest.approx(0.0008)

    def test_hist_bad_probabilities(self, tmp_path):
        (tmp_path / "h.txt").write_text("1 0.5\n2 0.6\n")
        with pytest.raises(ConfigError, match="sum"):
            parse_sampler(f"hist:{tmp_path / 'h.txt'}")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown sampler"):
            parse_sampler("gauss:3")

    def test_missing_separator(self):
        with pytest.raises(ConfigError):
            parse_sampler("const")


class TestDisabledTransactions:
    def test_has_trans_false_blocks_empty(self):
        config = parse_config_text(
            "hasTrans = false\nB_delay = 0\nblock_target = 50\nruns = 1\n"
        )
        report = run_single(config, 0)
        assert report.throughput_tps == 0.0
        assert report.blocks_included == 50
        assert report.mean_tx_latency_s is None


class TestSweepSpec:
    def test_cells_cross_product(self):
        base = SimConfig(sim_time=10.0, block_target=None)
        spec = SweepSpec(base, (1.0, 12.0), (0.5, 2.0, 4.0))
        cells = list(spec.cells())
        assert len(cells) == 6
        assert {(c.b_interval, c.b_delay) for c in cells} == {
            (1.0, 0.5), (1.0, 2.0), (1.0, 4.0), (12.0, 0.5), (12.0, 2.0), (12.0, 4.0),
        }

    def test_empty_grid_rejected(self):
        base = SimConfig(sim_time=10.0)
        with pytest.raises(ConfigError):
            SweepSpec(base, (), (1.0,))

    def test_bad_values_rejected(self):
        base = SimConfig(sim_time=10.0)
        with pytest.raises(ConfigError):
            SweepSpec(base, (0.0,), (1.0,))
        with pytest.raises(ConfigError):
            SweepSpec(base, (1.0,), (-1.0,))
        with pytest.raises(ConfigError):
            SweepSpec(base, (float("nan"),), (1.0,))
        with pytest.raises(ConfigError):
            SweepSpec(base, (1.0,), (float("inf"),))
