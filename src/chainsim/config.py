"""Run configuration: flat ``key = value`` files, presets, and sampler specs.

Keys are the simulator's input-parameter names, matched case-insensitively.
Each key is declared once, on its ``SimConfig`` field: its spelling, and its
allowed values or its own parser where it has them.  The file parser's
``_KEY_TABLE``, the ``CHOICES`` table and ``validate``'s finiteness checks
are derived from those declarations in field order; every other rule is code
in ``validate``.  A field's parser follows its annotation.

``#`` starts a comment.  Sampler values use a mini-syntax, which
``parse_sampler`` turns into the sampler classes of ``streams``:

    const:X     fixed value X
    exp:MEAN    exponential with the given mean
    hist:PATH   empirical histogram file (rows of "value probability")

The ``preset`` key loads a named parameter set (bitcoin or ethereum) that
any later key in the file overrides.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from pathlib import Path

from .streams import ConstantSampler, ExponentialSampler, HistogramSampler

FRACTION_TOLERANCE = 1e-9
# Most transactions one full-mode run may expect (T_n x horizon).  On a
# 2-vCPU host each costs 0.5-8 microseconds; at the cap, five equal miners
# and a constant T_delay took 1.9 s and 108 MB (VmHWM), 80 bytes a
# transaction at the traced peak; far above it, a run would not end.
# ``validate`` bounds the expected count; a run making more raises ``RunCapError``.
MAX_FULL_MODE_TRANSACTIONS = 1_000_000
# Most blocks one run may expect (block_target, or Sim_time / B_interval).
# Every block is kept until the run ends, a row of about 50 bytes; a bare run at
# the cap took 6.8-8.5 s and 115 MB of peak memory on the same host; far above it,
# a run would not end.
MAX_BLOCKS_PER_RUN = 1_000_000
# Most entries a light-mode pool may hold.  Each costs 16 bytes in a pool
# (a size and a unit price) and some 80 more while it is packed, and every
# block draws and sorts its own pool: on a 2-vCPU host a pool at the cap
# (T_n = 500, B_interval = 1000, T_size = exp:1e-6) took 0.14 s a block and
# 87 MB, or 0.19 s and 112 MB with B_size = 0.6, which the pool overflows.
# Far above it, a run would take gigabytes and hours.
MAX_LIGHT_POOL = 1_000_000
# Most random words a run may expect to read for exponential delays, N_n - 1
# per expected block under exponential B_delay and per expected full-mode
# transaction under exponential T_delay, nearly all for nodes that are not
# built; and most T_delay words, N_n - 1, one transaction may read as a row.
# On a 2-vCPU host a word took 3-7 ns, so a run at the first cap spends some
# 3-7 s on them, and a run of rows at the second peaked at 44 MB; far above
# either, a run would not end.
MAX_DELAY_WORDS = 1_000_000_000
MAX_DELAY_ROW = 1_000_000

# Five-miner study profile used throughout the decentralization experiments.
DEFAULT_MINERS = (0.40, 0.30, 0.15, 0.10, 0.05)
# Stylized multi-pool production network for the bitcoin/ethereum presets:
# real networks spread hash power across many pools, and the stale rate
# scales with that dispersion.
PRESET_MINERS = (0.30, 0.25, 0.20, 0.15, 0.10)


class RunCapError(RuntimeError):
    """A run passed one of the caps above while it ran."""


class ConfigError(Exception):
    """Invalid configuration input; message carries the offending line."""


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


def parse_float_list(raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma-separated list of numbers")
    return tuple(float(p) for p in parts)


def _parse_choice(choices: tuple[str, ...], raw: str) -> str:
    value = raw.strip().lower()
    if value not in choices:
        raise ValueError(f"expected one of {', '.join(choices)}; got {raw!r}")
    return value


def _key(spelling: str, default, **rules):
    """A ``SimConfig`` field read from the file key ``spelling``.  ``rules``
    may give its ``choices`` or a ``parse`` function of its own."""
    return dataclasses.field(default=default, metadata={"key": spelling, **rules})


@dataclass(frozen=True)
class SimConfig:
    """One run configuration.  It is checked by ``validate`` when it is made,
    so every ``SimConfig`` is valid; derive variants with ``dataclasses.replace``."""

    preset: str = _key("preset", "custom")
    # blocks
    b_interval: float = _key("B_interval", 600.0)  # mean seconds between blocks network-wide
    b_size: float = _key("B_size", 1.0)  # MB, or a block gas limit: the unit of t_size
    b_delay: float = _key("B_delay", 0.5)  # block propagation seconds
    b_reward: float = _key("B_reward", 2.0)
    # transactions
    has_trans: bool = _key("hasTrans", True)
    t_technique: str = _key("T_technique", "light", choices=("full", "light"))
    t_n: float = _key("T_n", 10.0)  # created per second
    t_delay: float = _key("T_delay", 1.0)  # transaction propagation seconds (full mode)
    t_fee: str = _key("T_fee", "const:0.2")  # unit-price sampler (per MB, or per gas)
    t_size: str = _key("T_size", "const:0.000546")  # MB, or gas units
    # nodes
    n_n: int = _key("N_n", 5)
    miners: tuple[float, ...] = _key("miners", DEFAULT_MINERS)  # hash power of nodes 0..k-1
    stakes: tuple[float, ...] | None = _key("stakes", None)  # defaults to the hash power
    # consensus
    selector: str = _key("selector", "pow", choices=("pow", "stake", "roundrobin"))
    delay_mode: str = _key("delay_mode", "constant", choices=("constant", "exponential"))
    uncles_enabled: bool = _key("uncles_enabled", False)
    u_max: int = _key("U_max", 2)
    g_uncle: int = _key("G_uncle", 7)
    inclusion_reward_fraction: float = _key(
        "inclusion_reward_fraction", 1.0 / 32.0, parse=_parse_fraction
    )
    # simulation
    sim_time: float | None = _key("Sim_time", None)  # seconds; exclusive with block_target
    block_target: int | None = _key("block_target", None)  # stop after this many blocks created
    runs: int = _key("Runs", 10)
    seed: int = _key("seed", 42)
    # The specs and parsed samplers behind ``samplers``.  ``dataclasses.replace``
    # hands them to the variant it makes, which parses anew only if a spec changed.
    _parsed: tuple | None = dataclasses.field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        validate(self)

    @property
    def samplers(self) -> tuple:
        """The ``(T_size, T_fee)`` samplers, parsed once: ``validate``, every run, in
        any worker, and each ``dataclasses.replace`` variant that keeps both specs share them."""
        specs = (self.t_size, self.t_fee)
        if self._parsed is None or self._parsed[0] != specs:
            object.__setattr__(self, "_parsed", (specs, tuple(map(parse_sampler, specs))))
        return self._parsed[1]

    @property
    def tx_technique(self) -> str | None:
        """How the run makes transactions, ``"full"`` or ``"light"``; None if it
        makes none: ``hasTrans = false``, or ``T_n = 0`` in either technique."""
        return self.t_technique if self.has_trans and self.t_n > 0 else None


# The value parser for each field annotation, with ``| None`` removed.
_PARSERS = {
    "str": str.strip,
    "bool": _parse_bool,
    "int": int,
    "float": float,
    "tuple[float, ...]": parse_float_list,
}


def _parser(field: dataclasses.Field):
    if "choices" in field.metadata:
        return functools.partial(_parse_choice, field.metadata["choices"])
    parse = field.metadata.get("parse") or _PARSERS.get(field.type.removesuffix(" | None"))
    if parse is None:
        raise TypeError(f"SimConfig.{field.name}: no parser for {field.type!r}")
    return parse


_KEYED = [f for f in dataclasses.fields(SimConfig) if "key" in f.metadata]
# key (lowercased) -> (SimConfig field, value parser)
_KEY_TABLE = {f.metadata["key"].lower(): (f.name, _parser(f)) for f in _KEYED}
# Allowed values of each enumerated field, for the file parser and ``validate``.
CHOICES = {f.name: f.metadata["choices"] for f in _KEYED if "choices" in f.metadata}
# (key, field) of each number field, which ``validate`` requires to be finite.
_FINITE = [(f.metadata["key"], f.name) for f in _KEYED if f.type.startswith("float")]


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
        uncles_enabled=True,
        u_max=2,
        g_uncle=7,
        inclusion_reward_fraction=1.0 / 32.0,
        block_target=10_000,
        runs=10,
    ),
}


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


def _least_draw(sampler) -> float:
    """The smallest value ``sampler`` can yield, for sign checks: an
    exponential, whose draws are all positive, gives its mean."""
    if isinstance(sampler, HistogramSampler):
        return float(sampler.values.min())
    return sampler.mean()


def parse_sampler(spec: str):
    """Build a sampler object from a ``const:/exp:/hist:`` spec string.

    A relative ``hist:`` path resolves against the working directory;
    ``parse_config_text`` anchors config-file paths before they get here.
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


def light_pool_size(config: SimConfig, mean_size: float) -> int:
    """Entries in a light-mode pool: twice the arrivals per block interval, and
    at most twice the transactions of ``mean_size`` a block holds."""
    arrivals = config.t_n * config.b_interval
    fits = max(1, int(config.b_size / mean_size))
    return int(min(math.ceil(2 * arrivals), 2 * fits))


def validate(config: SimConfig) -> SimConfig:
    """Raise ConfigError on any inconsistent parameter combination."""

    def fail(message: str) -> None:
        raise ConfigError(message)

    for key, name in _FINITE:
        value = getattr(config, name)
        if value is not None and not math.isfinite(value):
            fail(f"{key} must be a finite number, got {value}")
    for name, allowed in CHOICES.items():
        if getattr(config, name) not in allowed:
            fail(f"{name} must be one of {', '.join(allowed)}; got {getattr(config, name)!r}")
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
    if config.seed < 0:
        fail(f"seed must be non-negative, got {config.seed}")
    by_time = config.sim_time is not None
    blocks = config.sim_time / config.b_interval if by_time else config.block_target
    horizon = config.sim_time if by_time else config.block_target * config.b_interval
    if blocks > MAX_BLOCKS_PER_RUN:
        fail(
            f"a run expects about {blocks:.3g} blocks, more than the cap of "
            f"{MAX_BLOCKS_PER_RUN:,}; "
            + ("lower Sim_time or raise B_interval" if by_time else "lower block_target")
        )
    full = config.tx_technique == "full"
    if full and config.t_n * horizon > MAX_FULL_MODE_TRANSACTIONS:
        fail(
            f"full mode expects about {config.t_n * horizon:.3g} transactions per run "
            f"(T_n = {config.t_n:g}/s over a {horizon:g} s horizon), more than the cap "
            f"of {MAX_FULL_MODE_TRANSACTIONS:,}; lower T_n or "
            + ("Sim_time" if by_time else "block_target")
        )
    if config.delay_mode == "exponential":
        full_delays = full and config.t_delay > 0
        if full_delays and config.n_n - 1 > MAX_DELAY_ROW:
            fail(
                f"full mode with exponential T_delay draws N_n - 1 = {config.n_n - 1:,} delays "
                f"per transaction, more than the cap of {MAX_DELAY_ROW:,}; lower N_n"
            )
        draws = (blocks if config.b_delay > 0 else 0) + (config.t_n * horizon if full_delays else 0)
        if draws * (config.n_n - 1) > MAX_DELAY_WORDS:
            fail(
                f"exponential delays read about {draws * (config.n_n - 1):.3g} random words per run, "
                f"N_n - 1 = {config.n_n - 1:,} for each of about {draws:.3g} expected blocks and "
                f"transactions, more than the cap of {MAX_DELAY_WORDS:,}; lower N_n or "
                + ("Sim_time" if by_time else "block_target")
            )
    # Samplers must parse now, not at run time.
    size_sampler, price_sampler = config.samplers
    if config.has_trans and _least_draw(size_sampler) <= 0:
        fail("T_size must yield positive sizes")
    if config.has_trans and _least_draw(price_sampler) < 0:
        fail("T_fee must not yield negative prices")
    if config.tx_technique == "light":
        mean_size = size_sampler.mean()
        entries = light_pool_size(config, mean_size)
        if entries > MAX_LIGHT_POOL:
            fail(
                f"light mode draws a pool of {entries:,} transactions per block, the lesser of "
                f"2 x T_n x B_interval = 2 x {config.t_n:g}/s x {config.b_interval:g} s and "
                f"2 x B_size / T_size = 2 x {config.b_size:g} / {mean_size:g} (the mean size), "
                f"more than the cap of {MAX_LIGHT_POOL:,}; lower T_n, B_interval or B_size, "
                "or raise T_size"
            )
    return config


def parse_config_text(text: str, base_dir: Path | None = None) -> SimConfig:
    """Build a SimConfig from ``key = value`` lines; ``base_dir`` anchors ``hist:`` paths."""
    pairs: list[tuple[int, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        pairs.append((lineno, key.strip(), value.strip()))
    values: dict = {}
    seen: dict[str, int] = {}  # field -> the line that set it
    # The preset loads first so file keys override it regardless of order.
    for lineno, key, value in pairs:
        if key.lower() == "preset":
            if "preset" in seen:
                raise ConfigError(f"line {lineno}: duplicate key 'preset'")
            name = value.lower()
            if name not in (*PRESETS, "custom", ""):
                raise ConfigError(
                    f"unknown preset {value!r} (choose bitcoin, ethereum, or custom)"
                )
            values.update(PRESETS.get(name, {}), preset=name or "custom")
            seen["preset"] = lineno
    for lineno, key, value in pairs:
        entry = _KEY_TABLE.get(key.lower())
        if entry is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        field, parser = entry
        if field == "preset":
            continue
        if field in seen:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first on line {seen[field]})"
            )
        seen[field] = lineno
        try:
            values[field] = parser(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    # Choosing a sim_time in the file replaces a preset's block target (and
    # vice versa); setting both in the file is still refused.
    if "sim_time" in seen and "block_target" not in seen:
        values["block_target"] = None
    if "block_target" in seen and "sim_time" not in seen:
        values["sim_time"] = None
    # Resolve the file's histogram paths once, so runs read the file the check read.
    for field in ("t_size", "t_fee"):
        if field in seen:
            values[field] = _anchor_hist(values[field], base_dir)
    return SimConfig(**values)


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
        # Made, and so checked, before any run starts; the cells share the base's samplers.
        cells = tuple(
            dataclasses.replace(self.base, b_interval=interval, b_delay=delay)
            for interval in self.intervals
            for delay in self.delays
        )
        object.__setattr__(self, "_cells", cells)

    def cells(self) -> tuple[SimConfig, ...]:
        return self._cells
