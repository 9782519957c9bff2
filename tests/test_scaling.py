"""Exact unit-scaling relations: metamorphic checks that pin behaviour, not bytes.

Every draw is a unit draw times a parameter, and a product by a power of two
is exact in binary floating point, as are sums, differences and comparisons
of values all scaled by it.  So rescaling one family of units by k = 2**j
rescales the outputs exactly, field for field:

- time: ``B_interval``, ``B_delay``, ``T_delay`` and ``Sim_time`` times k,
  ``T_n`` over k.  Throughput and blocks per day divide by k, latency and
  simulated time multiply by k, and every other field is unchanged.
- size: ``B_size`` and ``T_size`` times k, the unit price over k.  Every
  field is unchanged.
- value: ``B_reward`` and ``T_fee`` times k.  Every field is unchanged.

A constant in seconds, MB or fee units, or a parameter read in the wrong
unit family, breaks a relation.  ``hist:`` samplers are left out, since
their files hold unscaled values, and so are means near the subnormal
range, where a product by k rounds.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from chainsim import cli
from chainsim.config import parse_config_text
from chainsim.runner import Simulation, run_many

from conftest import make_config, read_rows, selections, strip_wall_clock

RELATIONS = ("time", "size", "value")


def scaled_spec(spec: str, k: float) -> str:
    """A ``const:`` or ``exp:`` sampler spec with its argument times ``k``."""
    kind, _, arg = spec.partition(":")
    return f"{kind}:{float(arg) * k!r}"


def scale(config, relation: str, k: float):
    """``config`` with the units of ``relation`` multiplied by ``k``."""
    if relation == "time":
        return dataclasses.replace(
            config, b_interval=config.b_interval * k, b_delay=config.b_delay * k,
            t_delay=config.t_delay * k, t_n=config.t_n / k,
            sim_time=None if config.sim_time is None else config.sim_time * k,
        )
    if relation == "size":
        return dataclasses.replace(
            config, b_size=config.b_size * k, t_size=scaled_spec(config.t_size, k),
            t_fee=scaled_spec(config.t_fee, 1 / k),
        )
    return dataclasses.replace(config, b_reward=config.b_reward * k, t_fee=scaled_spec(config.t_fee, k))


def rescaled(report, relation: str, k: float):
    """The report that ``relation`` at ``k`` predicts from ``report``, without its wall clock."""
    if relation != "time":
        return dataclasses.replace(report, wall_clock_s=0.0)
    latency = report.mean_tx_latency_s
    return dataclasses.replace(
        report, wall_clock_s=0.0, throughput_tps=report.throughput_tps / k,
        mean_tx_latency_s=None if latency is None else latency * k, sim_time_s=report.sim_time_s * k,
    )


WORKLOADS = st.one_of(
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
    st.fixed_dictionaries(
        dict(
            has_trans=st.just(True),
            t_technique=st.just("full"),
            t_n=st.sampled_from([0.02, 0.2]),
            t_size=st.sampled_from(["const:0.001", "exp:0.002"]),
            t_fee=st.sampled_from(["const:0.2", "exp:0.5"]),
            t_delay=st.sampled_from([0.0, 1.0, 7.0]),
            b_size=st.sampled_from([0.005, 0.05]),
        )
    ),
)


class TestUnitScaling:
    @settings(max_examples=300, deadline=None)
    @given(
        selection=selections(),
        uncles=st.booleans(),
        b_interval=st.sampled_from([10.0, 30.0, 600.0]),
        b_delay=st.sampled_from([0.0, 2.0, 9.0]),
        delay_mode=st.sampled_from(["constant", "exponential"]),
        b_reward=st.sampled_from([0.5, 12.5]),
        workload=WORKLOADS,
        extra_nodes=st.integers(0, 3),
        blocks=st.integers(1, 40),
        by_time=st.booleans(),
        relation=st.sampled_from(RELATIONS),
        j=st.integers(-3, 3),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_scaled_units_scale_the_report(
        self, selection, uncles, b_interval, b_delay, delay_mode, b_reward, workload,
        extra_nodes, blocks, by_time, relation, j, seed,
    ):
        selector, miners, stakes, cut = selection
        stop = dict(sim_time=blocks * b_interval) if by_time else dict(block_target=blocks)
        config = make_config(
            selector=selector, miners=miners, stakes=stakes, n_n=cut + extra_nodes,
            uncles_enabled=uncles, b_interval=b_interval, b_delay=b_delay, delay_mode=delay_mode,
            b_reward=b_reward, seed=seed, **stop, **workload,
        )
        k = 2.0**j
        report = Simulation(config, 0).run()
        scaled = Simulation(scale(config, relation, k), 0).run()
        assert dataclasses.replace(scaled, wall_clock_s=0.0) == rescaled(report, relation, k)
        if relation == "time":
            assert scaled.blocks_per_day == report.blocks_per_day / k


CLI_CONFIG = """
B_interval = {b_interval!r}
B_delay = {b_delay!r}
B_size = {b_size!r}
B_reward = {b_reward!r}
hasTrans = true
T_technique = full
T_n = {t_n!r}
T_delay = {t_delay!r}
T_size = exp:{t_size!r}
T_fee = exp:{t_fee!r}
N_n = 7
miners = 0.4,0,0.35,0.25
delay_mode = exponential
uncles_enabled = true
block_target = 60
Runs = 2
seed = 7
"""


def test_cli_runs_csv_follows_all_three_scalings(tmp_path):
    # Times by 4, sizes by 1/8 and values by 2 at once: runs.csv is the
    # unscaled runs' rows with the time relation applied.
    base = dict(b_interval=30.0, b_delay=4.0, b_size=0.01, b_reward=2.0, t_n=1.0, t_delay=2.0,
                t_size=0.0005, t_fee=0.3)
    kt, ks, kv = 4.0, 0.125, 2.0
    scaled = dict(
        b_interval=30.0 * kt, b_delay=4.0 * kt, t_delay=2.0 * kt, t_n=1.0 / kt,
        b_size=0.01 * ks, t_size=0.0005 * ks, t_fee=0.3 / ks * kv, b_reward=2.0 * kv,
    )
    reports = run_many(parse_config_text(CLI_CONFIG.format(**base)))
    cli.write_run_csv(tmp_path / "expected.csv", [rescaled(r, "time", kt) for r in reports])
    config = tmp_path / "scaled.cfg"
    config.write_text(CLI_CONFIG.format(**scaled))
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    actual = strip_wall_clock(read_rows(tmp_path / "out" / "runs.csv"))
    assert actual == strip_wall_clock(read_rows(tmp_path / "expected.csv"))
    assert len({row[actual[0].index("blocks_included")] for row in actual[1:]}) == 2  # two distinct runs
