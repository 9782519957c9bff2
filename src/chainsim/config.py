"""Run configuration: flat ``key = value`` files, presets, and sampler specs.

Keys are the simulator's input-parameter names, matched case-insensitively.
``#`` starts a comment.  Sampler values use a mini-syntax:

    const:X     fixed value X
    exp:MEAN    exponential with the given mean
    hist:PATH   empirical histogram file (rows of "value probability")

The ``preset`` key loads a named parameter set (bitcoin or ethereum) that
any later key in the file overrides.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .engine import RandomSource, sample_exponential

FRACTION_TOLERANCE = 1e-9
PROBABILITY_TOLERANCE = 1e-9
# Most transactions one full-mode run may expect (T_n x horizon).  Each costs
# several microseconds and about 200 bytes while pending, so a run at the cap
# takes seconds and a few hundred MB; far above it, a run would not end.
MAX_FULL_MODE_TRANSACTIONS = 1_000_000

# Five-miner study profile used throughout the decentralization experiments.
DEFAULT_MINERS = (0.40, 0.30, 0.15, 0.10, 0.05)
# Stylized multi-pool production network for the bitcoin/ethereum presets:
# real networks spread hash power across many pools, and the stale rate
# scales with that dispersion.
PRESET_MINERS = (0.30, 0.25, 0.20, 0.15, 0.10)


class ConfigError(Exception):
    """Invalid configuration input; message carries the offending line."""


@dataclass
class SimConfig:
    preset: str = "custom"
    # blocks
    b_interval: float = 600.0  # mean seconds between blocks network-wide
    b_size: float = 1.0  # MB, or block gas limit under the gas capacity model
    b_delay: float = 0.5  # block propagation seconds
    b_reward: float = 2.0
    # transactions
    has_trans: bool = True
    t_technique: str = "light"  # "full" | "light"
    t_n: float = 10.0  # created per second
    t_delay: float = 1.0  # transaction propagation seconds (full mode)
    t_fee: str = "const:0.2"  # unit-price sampler (per MB, or per gas)
    t_size: str = "const:0.000546"  # MB, or gas units under the gas model
    # nodes
    n_n: int = 5
    miners: tuple[float, ...] = DEFAULT_MINERS  # hash-power fractions, node ids 0..k-1
    stakes: tuple[float, ...] | None = None  # defaults to the hash-power fractions
    # consensus
    selector: str = "pow"  # "pow" | "stake" | "roundrobin"
    delay_mode: str = "constant"  # "constant" | "exponential"
    capacity_model: str = "size"  # "size" | "gas"
    uncles_enabled: bool = False
    u_max: int = 2
    g_uncle: int = 7
    inclusion_reward_fraction: float = 1.0 / 32.0
    # simulation
    sim_time: float | None = None  # seconds; exclusive with block_target
    block_target: int | None = None  # stop after this many blocks created
    runs: int = 10
    seed: int = 42


# Preset parameter sets for the two reference networks.  The ethereum
# transaction-size default is a stand-in exponential fit in gas units; pass
# a hist: sampler to use measured data.
PRESETS: dict[str, dict] = {
    "bitcoin": dict(
        b_interval=596.0,
        b_size=0.83,
        b_delay=0.42,
        b_reward=12.5,
        has_trans=True,
        t_technique="light",
        t_n=10.0,
        t_delay=1.0,
        t_fee="const:0.2",
        t_size="const:0.000546",
        n_n=5,
        miners=PRESET_MINERS,
        capacity_model="size",
        uncles_enabled=False,
        block_target=10_000,
        runs=10,
    ),
    "ethereum": dict(
        b_interval=12.42,
        b_size=7_997_148.0,  # block gas limit
        b_delay=2.3,
        b_reward=3.0,
        has_trans=True,
        t_technique="light",
        t_n=20.0,
        t_delay=1.0,
        t_fee="const:1.5e-8",  # gas price
        t_size="exp:80000",  # used gas per transaction
        n_n=5,
        miners=PRESET_MINERS,
        capacity_model="gas",
        uncles_enabled=True,
        u_max=2,
        g_uncle=7,
        inclusion_reward_fraction=1.0 / 32.0,
        block_target=10_000,
        runs=10,
    ),
}


class ConstantSampler:
    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        self.value = float(value)

    def draw(self, rng: RandomSource) -> float:
        return self.value

    def draw_many(self, rng: RandomSource, n: int) -> np.ndarray:
        return np.full(n, self.value)

    def mean(self) -> float:
        return self.value


class ExponentialSampler:
    __slots__ = ("_mean",)

    def __init__(self, mean: float) -> None:
        if mean <= 0:
            raise ValueError(f"exponential sampler mean must be positive, got {mean!r}")
        self._mean = float(mean)

    def draw(self, rng: RandomSource) -> float:
        return sample_exponential(rng, self._mean)

    def draw_many(self, rng: RandomSource, n: int) -> np.ndarray:
        return rng.rng.exponential(self._mean, n)

    def mean(self) -> float:
        return self._mean


class HistogramSampler:
    """Empirical distribution given as (value, probability) pairs."""

    __slots__ = ("values", "probabilities")

    def __init__(self, values: Sequence[float], probabilities: Sequence[float]) -> None:
        if len(values) != len(probabilities) or not values:
            raise ValueError("histogram needs one probability per value")
        if not all(math.isfinite(x) for x in (*values, *probabilities)):
            raise ValueError("histogram values and probabilities must be finite")
        if any(p < 0 for p in probabilities):
            raise ValueError("histogram probabilities must be non-negative")
        total = math.fsum(probabilities)
        if abs(total - 1.0) > PROBABILITY_TOLERANCE:
            raise ValueError(f"histogram probabilities sum to {total!r}, expected 1")
        self.values = np.asarray(values, dtype=float)
        self.probabilities = np.asarray(probabilities, dtype=float)

    def draw(self, rng: RandomSource) -> float:
        return float(rng.rng.choice(self.values, p=self.probabilities))

    def draw_many(self, rng: RandomSource, n: int) -> np.ndarray:
        return rng.rng.choice(self.values, size=n, p=self.probabilities)

    def mean(self) -> float:
        return float(np.dot(self.values, self.probabilities))


def load_histogram(path) -> HistogramSampler:
    """Read a two-column text file of (value, probability) rows."""
    values: list[float] = []
    probs: list[float] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'value probability', got {raw!r}")
            values.append(float(parts[0]))
            probs.append(float(parts[1]))
    return HistogramSampler(values, probs)


def parse_sampler(spec: str):
    """Build a sampler object from a ``const:/exp:/hist:`` spec string.

    A relative ``hist:`` path resolves against the working directory;
    ``config_from_pairs`` anchors config-file paths before they get here.
    """
    kind, sep, arg = spec.partition(":")
    if not sep:
        raise ConfigError(f"sampler spec {spec!r} needs the form kind:argument")
    kind = kind.strip().lower()
    arg = arg.strip()
    if kind in ("const", "exp"):
        try:
            value = float(arg)
            if not math.isfinite(value):
                raise ValueError("not a finite number")
            return ConstantSampler(value) if kind == "const" else ExponentialSampler(value)
        except ValueError as exc:
            raise ConfigError(f"bad {kind}: sampler argument {arg!r}: {exc}") from exc
    if kind == "hist":
        try:
            return load_histogram(arg)
        except OSError as exc:
            raise ConfigError(f"cannot read histogram file {arg}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown sampler kind {kind!r} (use const:, exp:, or hist:)")


def _anchor_hist(spec: str, base_dir: Path | None) -> str:
    """Rewrite a ``hist:`` spec to an absolute path, relative paths taken from ``base_dir``."""
    kind, _, arg = spec.partition(":")
    if kind.strip().lower() != "hist":
        return spec
    return f"hist:{(Path(base_dir or '') / arg.strip()).absolute()}"


def _parse_bool(raw: str) -> bool:
    value = raw.strip().lower()
    if value in ("true", "yes", "on", "1"):
        return True
    if value in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_fraction(raw: str) -> float:
    if "/" in raw:
        num, _, den = raw.partition("/")
        return float(num) / float(den)
    return float(raw)


def _parse_float_list(raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma-separated list of numbers")
    return tuple(float(p) for p in parts)


def _parse_choice(*choices: str):
    def parse(raw: str) -> str:
        value = raw.strip().lower()
        if value not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}; got {raw!r}")
        return value

    return parse


# key (lowercased) -> (SimConfig field, value parser)
_KEY_TABLE: dict[str, tuple[str, object]] = {
    "preset": ("preset", str.strip),
    "b_interval": ("b_interval", float),
    "b_size": ("b_size", float),
    "b_delay": ("b_delay", float),
    "b_reward": ("b_reward", float),
    "hastrans": ("has_trans", _parse_bool),
    "t_technique": ("t_technique", _parse_choice("full", "light")),
    "t_n": ("t_n", float),
    "t_delay": ("t_delay", float),
    "t_fee": ("t_fee", str.strip),
    "t_size": ("t_size", str.strip),
    "n_n": ("n_n", int),
    "miners": ("miners", _parse_float_list),
    "stakes": ("stakes", _parse_float_list),
    "selector": ("selector", _parse_choice("pow", "stake", "roundrobin")),
    "delay_mode": ("delay_mode", _parse_choice("constant", "exponential")),
    "capacity_model": ("capacity_model", _parse_choice("size", "gas")),
    "uncles_enabled": ("uncles_enabled", _parse_bool),
    "u_max": ("u_max", int),
    "g_uncle": ("g_uncle", int),
    "inclusion_reward_fraction": ("inclusion_reward_fraction", _parse_fraction),
    "sim_time": ("sim_time", float),
    "block_target": ("block_target", int),
    "runs": ("runs", int),
    "seed": ("seed", int),
}


def apply_preset(config: SimConfig, name: str) -> SimConfig:
    key = name.strip().lower()
    if key in ("custom", ""):
        return dataclasses.replace(config, preset="custom")
    if key not in PRESETS:
        raise ConfigError(f"unknown preset {name!r} (choose bitcoin, ethereum, or custom)")
    return dataclasses.replace(config, preset=key, **PRESETS[key])


def validate(config: SimConfig) -> SimConfig:
    """Raise ConfigError on any inconsistent parameter combination."""

    def fail(message: str) -> None:
        raise ConfigError(message)

    numbers = {
        "B_interval": config.b_interval,
        "B_size": config.b_size,
        "B_delay": config.b_delay,
        "B_reward": config.b_reward,
        "T_n": config.t_n,
        "T_delay": config.t_delay,
        "inclusion_reward_fraction": config.inclusion_reward_fraction,
        "Sim_time": config.sim_time,
    }
    for name, value in numbers.items():
        if value is not None and not math.isfinite(value):
            fail(f"{name} must be a finite number, got {value}")
    if not all(math.isfinite(w) for w in config.miners + (config.stakes or ())):
        fail("miner hash fractions and stakes must be finite numbers")
    if config.b_interval <= 0:
        fail(f"B_interval must be positive, got {config.b_interval}")
    if config.b_size <= 0:
        fail(f"B_size must be positive, got {config.b_size}")
    if config.b_delay < 0 or config.t_delay < 0:
        fail("propagation delays must be non-negative")
    if config.b_reward < 0:
        fail("B_reward must be non-negative")
    if config.t_n < 0:
        fail(f"T_n must be non-negative, got {config.t_n}")
    if not config.miners:
        fail("at least one miner is required")
    if any(f < 0 for f in config.miners):
        fail("miner hash fractions must be non-negative")
    total = sum(config.miners)
    if abs(total - 1.0) > FRACTION_TOLERANCE:
        fail(f"miner hash fractions must sum to 1, got {total!r}")
    if config.n_n < len(config.miners):
        fail(f"N_n={config.n_n} is smaller than the number of miners ({len(config.miners)})")
    if config.stakes is not None:
        if len(config.stakes) != len(config.miners):
            fail("stakes list must match the miners list in length")
        if any(s < 0 for s in config.stakes) or sum(config.stakes) <= 0:
            fail("stakes must be non-negative with a positive sum")
    if config.u_max < 0:
        fail("U_max must be non-negative")
    if config.uncles_enabled and config.g_uncle < 1:
        fail("G_uncle must be at least 1 when uncles are enabled")
    if not 0 <= config.inclusion_reward_fraction < 1:
        fail("inclusion_reward_fraction must be in [0, 1)")
    if config.sim_time is None and config.block_target is None:
        fail("set one of Sim_time or block_target")
    if config.sim_time is not None and config.block_target is not None:
        fail("Sim_time and block_target are mutually exclusive")
    if config.sim_time is not None and config.sim_time < 0:
        fail("Sim_time must be non-negative")
    if config.block_target is not None and config.block_target < 1:
        fail("block_target must be at least 1")
    if config.runs < 1:
        fail("Runs must be at least 1")
    if config.has_trans and config.t_technique == "full":
        by_time = config.sim_time is not None
        horizon = config.sim_time if by_time else config.block_target * config.b_interval
        if config.t_n * horizon > MAX_FULL_MODE_TRANSACTIONS:
            fail(
                f"full mode expects about {config.t_n * horizon:.3g} transactions per run "
                f"(T_n = {config.t_n:g}/s over a {horizon:g} s horizon), more than the cap "
                f"of {MAX_FULL_MODE_TRANSACTIONS:,}; lower T_n or "
                + ("Sim_time" if by_time else "block_target")
            )
    # Samplers must parse now, not at run time.
    size_sampler = parse_sampler(config.t_size)
    parse_sampler(config.t_fee)
    if config.has_trans and size_sampler.mean() <= 0:
        fail("T_size must yield positive sizes")
    return config


def config_from_pairs(
    pairs: list[tuple[int, str, str]], base_dir: Path | None = None
) -> SimConfig:
    """Build and validate a SimConfig from (line, key, value) triples."""
    config = SimConfig()
    seen: dict[str, int] = {}
    preset_applied = False
    # The preset loads first so file keys override it regardless of order.
    for lineno, key, value in pairs:
        if key.strip().lower() == "preset":
            if preset_applied:
                raise ConfigError(f"line {lineno}: duplicate key 'preset'")
            config = apply_preset(config, value)
            preset_applied = True
            seen["preset"] = lineno
    for lineno, key, value in pairs:
        normalized = key.strip().lower()
        if normalized == "preset":
            continue
        entry = _KEY_TABLE.get(normalized)
        if entry is None:
            raise ConfigError(f"line {lineno}: unknown key {key.strip()!r}")
        if normalized in seen:
            raise ConfigError(
                f"line {lineno}: duplicate key {key.strip()!r} (first on line {seen[normalized]})"
            )
        seen[normalized] = lineno
        field, parser = entry
        try:
            parsed = parser(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key.strip()!r}: {exc}") from exc
        config = dataclasses.replace(config, **{field: parsed})
    # Choosing a sim_time in the file replaces a preset's block target (and
    # vice versa); explicitly setting both is still rejected by validate().
    if "sim_time" in seen and "block_target" not in seen and config.block_target is not None:
        config = dataclasses.replace(config, block_target=None)
    if "block_target" in seen and "sim_time" not in seen and config.sim_time is not None:
        config = dataclasses.replace(config, sim_time=None)
    # Resolve histogram paths once, so runs read the file validate() read.
    config = dataclasses.replace(
        config,
        t_size=_anchor_hist(config.t_size, base_dir),
        t_fee=_anchor_hist(config.t_fee, base_dir),
    )
    try:
        return validate(config)
    except ConfigError as exc:
        raise ConfigError(str(exc)) from None


def parse_config_text(text: str, base_dir: Path | None = None) -> SimConfig:
    pairs: list[tuple[int, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        pairs.append((lineno, key, value.strip()))
    return config_from_pairs(pairs, base_dir)


def parse_config(path) -> SimConfig:
    """Read and validate a configuration file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, base_dir=path.parent)


@dataclass(frozen=True)
class SweepSpec:
    """A (block interval x block delay) grid over a base configuration."""

    base: SimConfig
    intervals: tuple[float, ...]
    delays: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.intervals or not self.delays:
            raise ConfigError("sweep grid must contain at least one cell")
        for cell in self.cells():
            validate(cell)

    def cells(self):
        for interval in self.intervals:
            for delay in self.delays:
                yield dataclasses.replace(self.base, b_interval=interval, b_delay=delay)
