import dataclasses
import re
from pathlib import Path

import pytest

from chainsim import cli
from chainsim.config import (
    _KEY_TABLE,
    CHOICES,
    MAX_BLOCKS_PER_RUN,
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
    validate,
)
from chainsim.runner import run_single

from conftest import make_config

README = Path(__file__).resolve().parent.parent / "README.md"


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

    @pytest.mark.parametrize(
        "field, bad", [("t_technique", "heavy"), ("selector", "round-robin"), ("delay_mode", "exp")]
    )
    def test_unknown_choice_rejected(self, tmp_path, capsys, field, bad):
        # Layers test for the exact lowercase names, so validate() refuses any
        # other spelling too: t_technique = "Full" would otherwise run light mode.
        for value in (bad, CHOICES[field][0].capitalize()):
            with pytest.raises(ConfigError, match=field):
                validate(make_config(**{field: value}))
        path = write_config(tmp_path, f"block_target = 50\n{field} = {bad}\n")
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"line 2: bad value for '{field}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_readme_lists_every_key(self):
        # The README configuration table holds exactly the keys the parser accepts.
        text = README.read_text().split("## Configuration reference", 1)[1].split("\n## ", 1)[0]
        listed = re.findall(r"^\| `([^`]+)` \|", text, flags=re.MULTILINE)
        assert sorted(key.lower() for key in listed) == sorted(_KEY_TABLE)

    def test_readme_spells_every_key_as_declared(self):
        # The README table and the SimConfig declarations spell each key alike,
        # case included: hasTrans, not hastrans.
        text = README.read_text().split("## Configuration reference", 1)[1].split("\n## ", 1)[0]
        listed = re.findall(r"^\| `([^`]+)` \|", text, flags=re.MULTILINE)
        declared = [f.metadata["key"] for f in dataclasses.fields(SimConfig) if "key" in f.metadata]
        assert listed == declared

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
            "T_fee = const:-5",
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

    @pytest.mark.parametrize(
        "horizon, key",
        [("block_target = 1000000000", "lower block_target"),
         ("B_interval = 1\nSim_time = 1e9", "lower Sim_time or raise B_interval")],
    )
    def test_block_count_above_cap_rejected(self, horizon, key):
        # About 1e9 expected blocks, with or without transactions.
        for trans in ("false", "true"):
            with pytest.raises(ConfigError, match=rf"about 1e\+09 blocks.*{key}$"):
                parse_config_text(f"hasTrans = {trans}\n{horizon}\n")

    @pytest.mark.parametrize("fraction, ok", [(0.99, True), (1.01, False)])
    def test_block_count_cap_boundary(self, fraction, ok):
        for horizon in (
            f"block_target = {round(fraction * MAX_BLOCKS_PER_RUN)}",
            f"B_interval = 2\nSim_time = {fraction * 2 * MAX_BLOCKS_PER_RUN!r}",
        ):
            text = f"hasTrans = false\n{horizon}\n"
            if ok:
                parse_config_text(text)
            else:
                with pytest.raises(ConfigError, match="cap"):
                    parse_config_text(text)

    def test_nonpositive_histogram_size_rejected(self, tmp_path):
        # The mean, 0.001, is positive, but half the draws would be negative.
        (tmp_path / "sizes.txt").write_text("-0.001 0.5\n0.003 0.5\n")
        with pytest.raises(ConfigError, match="T_size must yield positive sizes"):
            parse_config(write_config(tmp_path, "t_size = hist:sizes.txt\nsim_time = 5\n"))
        (tmp_path / "zero.txt").write_text("0 0.0\n0.003 1.0\n")
        with pytest.raises(ConfigError, match="T_size must yield positive sizes"):
            parse_config(write_config(tmp_path, "t_size = hist:zero.txt\nsim_time = 5\n"))
        # Without transactions the sizes are never drawn.
        parse_config(write_config(tmp_path, "hastrans = false\nt_size = hist:sizes.txt\nsim_time = 5\n"))

    def test_negative_price_rejected(self, tmp_path):
        # The mean price, 0.001, is positive, but half the draws are negative.
        (tmp_path / "prices.txt").write_text("-0.001 0.5\n0.003 0.5\n")
        with pytest.raises(ConfigError, match="T_fee must not yield negative prices"):
            parse_config(write_config(tmp_path, "t_fee = hist:prices.txt\nsim_time = 5\n"))
        # A zero price is a free transaction; without transactions none is drawn.
        parse_config_text("t_fee = const:0\nsim_time = 5\n")
        parse_config(write_config(tmp_path, "hastrans = false\nt_fee = hist:prices.txt\nsim_time = 5\n"))

    def test_zero_size_accepted_without_transactions(self):
        config = parse_config_text("hastrans = false\nt_size = const:0\nblock_target = 10\n")
        assert run_single(config, 0).blocks_created == 10


# Config text -> the exact message after "config error: ".  The messages were
# recorded before the key declarations were folded into SimConfig's fields,
# and a file with two faults pins which check speaks first.
ERROR_MESSAGES = [
    # each finiteness check, in validate's order
    ("B_interval = inf\nblock_target = 10", "B_interval must be a finite number, got inf"),
    ("B_size = inf\nblock_target = 10", "B_size must be a finite number, got inf"),
    ("B_delay = nan\nblock_target = 10", "B_delay must be a finite number, got nan"),
    ("B_reward = nan\nblock_target = 10", "B_reward must be a finite number, got nan"),
    ("T_n = nan\nblock_target = 10", "T_n must be a finite number, got nan"),
    ("T_delay = inf\nblock_target = 10", "T_delay must be a finite number, got inf"),
    (
        "inclusion_reward_fraction = nan\nblock_target = 10",
        "inclusion_reward_fraction must be a finite number, got nan",
    ),
    ("Sim_time = inf", "Sim_time must be a finite number, got inf"),
    (
        "miners = nan,0.5,0.5\nblock_target = 10",
        "miner hash fractions and stakes must be finite numbers",
    ),
    (
        "stakes = 1,nan,0,0,0\nblock_target = 10",
        "miner hash fractions and stakes must be finite numbers",
    ),
    # each choice field
    (
        "block_target = 10\nT_technique = heavy",
        "line 2: bad value for 'T_technique': expected one of full, light; got 'heavy'",
    ),
    (
        "block_target = 10\nselector = round-robin",
        "line 2: bad value for 'selector': expected one of pow, stake, roundrobin; got 'round-robin'",
    ),
    (
        "block_target = 10\ndelay_mode = exp",
        "line 2: bad value for 'delay_mode': expected one of constant, exponential; got 'exp'",
    ),
    # parser errors
    (
        "hasTrans = maybe\nblock_target = 10",
        "line 1: bad value for 'hasTrans': expected a boolean, got 'maybe'",
    ),
    (
        "N_n = 2.5\nblock_target = 10",
        "line 1: bad value for 'N_n': invalid literal for int() with base 10: '2.5'",
    ),
    (
        "B_interval = fast\nblock_target = 10",
        "line 1: bad value for 'B_interval': could not convert string to float: 'fast'",
    ),
    (
        "miners = ,\nblock_target = 10",
        "line 1: bad value for 'miners': expected a comma-separated list of numbers",
    ),
    (
        "inclusion_reward_fraction = 1/0\nblock_target = 10",
        "line 1: bad value for 'inclusion_reward_fraction': float division by zero",
    ),
    ("block_target = 10\nbogus_key = 3", "line 2: unknown key 'bogus_key'"),
    ("seed = 1\nblock_target = 10\nSEED = 2", "line 3: duplicate key 'SEED' (first on line 1)"),
    ("preset = bitcoin\npreset = ethereum", "line 2: duplicate key 'preset'"),
    ("preset = litecoin", "unknown preset 'litecoin' (choose bitcoin, ethereum, or custom)"),
    ("B_interval\nblock_target = 10", "line 1: expected 'key = value', got 'B_interval'"),
    (
        "T_size = gauss:3\nblock_target = 10",
        "unknown sampler kind 'gauss' (use const:, exp:, or hist:)",
    ),
    ("T_fee = const\nblock_target = 10", "sampler spec 'const' needs the form kind:argument"),
    (
        "T_fee = exp:0\nblock_target = 10",
        "bad exp: sampler argument '0': exponential sampler mean must be positive, got 0.0",
    ),
    (
        "T_size = const:nan\nblock_target = 10",
        "bad const: sampler argument 'nan': not a finite number",
    ),
    # range rules
    ("B_interval = 0\nblock_target = 10", "B_interval must be positive, got 0.0"),
    ("B_size = 0\nblock_target = 10", "B_size must be positive, got 0.0"),
    ("B_delay = -1\nblock_target = 10", "propagation delays must be non-negative"),
    ("T_delay = -1\nblock_target = 10", "propagation delays must be non-negative"),
    ("B_reward = -1\nblock_target = 10", "B_reward must be non-negative"),
    ("T_n = -1\nblock_target = 10", "T_n must be non-negative, got -1.0"),
    ("miners = 1.5,-0.5\nblock_target = 10", "miner hash fractions must be non-negative"),
    ("miners = 0.6,0.5\nblock_target = 10", "miner hash fractions must sum to 1, got 1.1"),
    ("N_n = 3\nblock_target = 10", "N_n=3 is smaller than the number of miners (5)"),
    (
        "miners = 0.5,0.5\nN_n = 2\nstakes = 1\nblock_target = 10",
        "stakes list must match the miners list in length",
    ),
    ("stakes = 2,-1,0,0,0\nblock_target = 10", "stakes must be non-negative with a positive sum"),
    (
        "stakes = 0,0,0,0,0\nselector = stake\nblock_target = 10",
        "stakes must be non-negative with a positive sum",
    ),
    ("U_max = -1\nblock_target = 10", "U_max must be non-negative"),
    (
        "uncles_enabled = true\nG_uncle = 0\nblock_target = 10",
        "G_uncle must be at least 1 when uncles are enabled",
    ),
    (
        "inclusion_reward_fraction = 1\nblock_target = 10",
        "inclusion_reward_fraction must be in [0, 1)",
    ),
    ("B_interval = 10", "set one of Sim_time or block_target"),
    ("Sim_time = 5\nblock_target = 10", "Sim_time and block_target are mutually exclusive"),
    ("Sim_time = -1", "Sim_time must be non-negative"),
    ("block_target = 0", "block_target must be at least 1"),
    ("Runs = 0\nblock_target = 10", "Runs must be at least 1"),
    ("seed = -1\nblock_target = 10", "seed must be non-negative, got -1"),
    # both caps
    (
        "block_target = 1000000000",
        "a run expects about 1e+09 blocks, more than the cap of 1,000,000; lower block_target",
    ),
    (
        "T_technique = full\nT_n = 100000\nSim_time = 1800",
        "full mode expects about 1.8e+08 transactions per run (T_n = 100000/s over a 1800 s horizon), more than the cap of 1,000,000; lower T_n or Sim_time",
    ),
    # both sampler-sign rules
    ("T_size = const:0\nblock_target = 10", "T_size must yield positive sizes"),
    ("T_fee = const:-5\nblock_target = 10", "T_fee must not yield negative prices"),
    # two faults: the first check to fail speaks
    ("B_interval = 0\nRuns = 0\nblock_target = 10", "B_interval must be positive, got 0.0"),
    ("B_interval = 0\nT_n = nan\nblock_target = 10", "T_n must be a finite number, got nan"),
    ("bogus_key = 1\nB_interval = fast\nblock_target = 10", "line 1: unknown key 'bogus_key'"),
]


@pytest.mark.parametrize("text, message", ERROR_MESSAGES)
def test_config_error_message_word_for_word(tmp_path, capsys, text, message):
    path = write_config(tmp_path, text + "\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (out / "runs.csv").exists()


class TestFrozenConfig:
    def test_fields_cannot_be_assigned(self):
        config = make_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.b_interval = 1.0

    def test_every_config_is_checked_when_made(self):
        with pytest.raises(ConfigError, match="B_interval must be positive"):
            dataclasses.replace(make_config(), b_interval=0)
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            make_config(seed=-1)

    def test_default_config_needs_a_horizon(self):
        with pytest.raises(ConfigError, match="set one of Sim_time or block_target"):
            SimConfig()


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
