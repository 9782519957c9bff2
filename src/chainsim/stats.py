"""Per-run metrics and cross-run aggregation with 95% confidence intervals."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields

from .incentives import RewardLedger
from .model import Block, World

SECONDS_PER_DAY = 86_400.0


class InvariantViolation(RuntimeError):
    """The finished run's main chain is structurally inconsistent."""


def check_main_chain(registry: list[Block], chain_ids: list[int]) -> None:
    """Validate depth, linkage, and timestamp monotonicity of the main chain."""
    if not chain_ids:
        raise InvariantViolation("main chain is empty")
    genesis = registry[chain_ids[0]]
    if genesis.depth != 0 or genesis.previous_id is not None:
        raise InvariantViolation("main chain does not start at genesis")
    if len(set(chain_ids)) != len(chain_ids):
        raise InvariantViolation("main chain repeats a block id")
    previous = genesis
    for block_id in chain_ids[1:]:
        block = registry[block_id]
        if block.previous_id != previous.id:
            raise InvariantViolation(
                f"block {block.id} does not link to its predecessor {previous.id}"
            )
        if block.depth != previous.depth + 1:
            raise InvariantViolation(f"block {block.id} has non-consecutive depth")
        if block.timestamp <= previous.timestamp:
            raise InvariantViolation(f"block {block.id} does not advance the clock")
        previous = block


def _metric(*tables: str, per_miner: str = "", last: bool = False, **kwargs):
    """A ``RunReport`` field written to ``tables`` ("runs", "aggregate", "sweep");
    a ``per_miner`` dict as one column per miner, named with that prefix.
    ``last`` columns end runs.csv and sweep.csv rows, after the deterministic ones."""
    return field(metadata={"tables": tables, "per_miner": per_miner, "last": last}, **kwargs)


@dataclass(slots=True)
class RunReport:
    """One run's results, its metrics in aggregate.csv order."""

    run_index: int = _metric("runs")
    seed: int = _metric("runs")
    blocks_created: int = _metric("runs", "aggregate")
    blocks_included: int = _metric("runs", "aggregate")  # main chain, excluding genesis
    stale_rate: float = _metric("runs", "aggregate", "sweep")
    throughput_tps: float = _metric("runs", "aggregate", "sweep")
    blocks_per_day: float = _metric("aggregate", init=False)
    wall_clock_s: float = _metric("runs", "aggregate", "sweep", last=True)
    # full workload mode only; ``aggregate`` leaves out a metric that a run lacks
    mean_tx_latency_s: float | None = _metric("runs", "aggregate")
    miner_shares: dict[int, float] = _metric("runs", "aggregate", "sweep", per_miner="share_")
    reward_shares: dict[int, float] = _metric("runs", "aggregate", per_miner="reward_share_")
    sim_time_s: float  # elapsed simulated seconds

    def __post_init__(self) -> None:
        elapsed = self.sim_time_s
        self.blocks_per_day = self.blocks_included * SECONDS_PER_DAY / elapsed if elapsed > 0 else 0.0

    def columns(self, table: str) -> dict[str, float | None]:
        """This run's columns of ``table``, name -> value, in column order."""
        row = {}
        for f in _COLUMNS[table]:
            value, prefix = getattr(self, f.name), f.metadata["per_miner"]
            if prefix:
                row.update((f"{prefix}{m}", v) for m, v in value.items())
            else:
                row[f.name] = value
        return row


_COLUMNS = {
    table: sorted(
        (f for f in fields(RunReport) if table in f.metadata.get("tables", ())),
        key=lambda f: table != "aggregate" and f.metadata["last"],
    )
    for table in ("runs", "aggregate", "sweep")
}


def summarize_run(
    world: World,
    chain_ids: list[int],
    ledger: RewardLedger,
    *,
    miner_ids: list[int],
    elapsed: float,
    run_index: int,
    seed: int,
    wall_clock: float,
) -> RunReport:
    """Fold a finished world into one RunReport (and validate the chain)."""
    check_main_chain(world.registry, chain_ids)
    registry = world.registry
    included = len(chain_ids) - 1
    created = len(registry) - 1  # genesis is not created
    stale_rate = (created - included) / created if created else 0.0

    tx_total = 0
    tracked = 0  # transactions held as tuples: full mode only
    latency_sum = 0.0
    block_counts = {miner_id: 0 for miner_id in miner_ids}
    for block_id in chain_ids[1:]:
        block = registry[block_id]
        tx_total += block.tx_count
        if block.miner_id in block_counts:
            block_counts[block.miner_id] += 1
        tracked += len(block.transactions)
        for _, stamp, _, _ in block.transactions:
            latency_sum += block.timestamp - stamp

    throughput = tx_total / elapsed if elapsed > 0 else 0.0
    mean_latency = latency_sum / tracked if tracked else None

    if included:
        miner_shares = {m: block_counts[m] / included for m in miner_ids}
    else:
        miner_shares = {m: 0.0 for m in miner_ids}
    total_reward = ledger.grand_total()
    if total_reward > 0:
        reward_shares = {
            m: (ledger[m].total / total_reward if m in ledger else 0.0) for m in miner_ids
        }
    else:
        reward_shares = {m: 0.0 for m in miner_ids}

    return RunReport(
        run_index=run_index,
        seed=seed,
        blocks_created=created,
        blocks_included=included,
        stale_rate=stale_rate,
        throughput_tps=throughput,
        mean_tx_latency_s=mean_latency,
        miner_shares=miner_shares,
        reward_shares=reward_shares,
        sim_time_s=elapsed,
        wall_clock_s=wall_clock,
    )


@dataclass(frozen=True)
class MetricAggregate:
    mean: float
    half_width_95: float  # Student-t 95% interval half width; 0 for a single run
    run_count: int


def _t_central(t: float, df: int) -> float:
    """P(|T| < t) for Student's t with integer ``df``, in closed form.

    With theta = atan(t / sqrt(df)), odd = df % 2 and the df // 2 terms
    a_0 = 1, a_j = a_(j-1) cos^2(theta) (2j - 1 + odd) / (2j + odd) summing
    to S: even df gives sin(theta) S, odd df gives
    2/pi (theta + sin(theta) cos(theta) S).
    """
    c2 = df / (df + t * t)
    sin = t / math.sqrt(df + t * t)
    odd = df % 2
    term, total = 1.0, 0.0
    for j in range(1, df // 2 + 1):
        total += term
        term *= c2 * (2 * j - 1 + odd) / (2 * j + odd)
    if not odd:
        return sin * total
    return 2.0 / math.pi * (math.atan(t / math.sqrt(df)) + sin * math.sqrt(c2) * total)


@functools.cache
def t_quantile(p: float, df: int) -> float:
    """Student-t quantile for ``p`` in (0.5, 1) by bisection on ``_t_central``."""
    target = 2.0 * p - 1.0
    lo, hi = 0.0, 1.0
    while _t_central(hi, df) < target:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if _t_central(mid, df) < target:
            lo = mid
        else:
            hi = mid


def _aggregate_values(values: list[float]) -> MetricAggregate:
    n = len(values)
    mean = math.fsum(values) / n
    if n == 1:
        return MetricAggregate(mean, 0.0, 1)
    variance = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    if variance <= 0:
        return MetricAggregate(mean, 0.0, n)
    half_width = t_quantile(0.975, n - 1) * math.sqrt(variance / n)
    return MetricAggregate(mean, half_width, n)


def aggregate(reports: list[RunReport]) -> dict[str, MetricAggregate]:
    """Cross-run mean and 95% half-width per metric, in a stable key order."""
    if not reports:
        raise ValueError("cannot aggregate zero run reports")
    rows = [report.columns("aggregate") for report in reports]
    return {
        name: _aggregate_values([float(row[name]) for row in rows])
        for name in rows[0]
        if all(row[name] is not None for row in rows)
    }
