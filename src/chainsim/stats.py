"""Per-run metrics and cross-run aggregation with 95% confidence intervals."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .incentives import RewardLedger
from .model import BlockRegistry, World

SECONDS_PER_DAY = 86_400.0


class InvariantViolation(RuntimeError):
    """The finished run's main chain is structurally inconsistent."""


def check_main_chain(registry: BlockRegistry, chain_ids: list[int]) -> None:
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


@dataclass(slots=True)
class RunReport:
    run_index: int
    seed: int
    blocks_created: int
    blocks_included: int  # main chain, excluding genesis
    stale_rate: float
    throughput_tps: float
    mean_tx_latency_s: float | None  # full workload mode only
    miner_shares: dict[int, float]
    reward_shares: dict[int, float]
    reward_ledger: RewardLedger
    sim_time_s: float  # elapsed simulated seconds
    wall_clock_s: float
    stale_creation_events: int = 0

    @property
    def blocks_per_day(self) -> float:
        if self.sim_time_s <= 0:
            return 0.0
        return self.blocks_included * SECONDS_PER_DAY / self.sim_time_s


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
    full_mode: bool,
) -> RunReport:
    """Fold a finished world into one RunReport (and validate the chain)."""
    check_main_chain(world.registry, chain_ids)
    registry = world.registry
    included = len(chain_ids) - 1
    created = world.blocks_created
    stale_rate = (created - included) / created if created else 0.0

    tx_total = 0
    latency_sum = 0.0
    block_counts = {miner_id: 0 for miner_id in miner_ids}
    for block_id in chain_ids[1:]:
        block = registry[block_id]
        tx_total += block.tx_count
        if block.miner_id in block_counts:
            block_counts[block.miner_id] += 1
        if full_mode:
            for tx in block.transactions:
                latency_sum += block.timestamp - tx.timestamp

    throughput = tx_total / elapsed if elapsed > 0 else 0.0
    mean_latency = latency_sum / tx_total if full_mode and tx_total else None

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
        reward_ledger=ledger,
        sim_time_s=elapsed,
        wall_clock_s=wall_clock,
        stale_creation_events=world.stale_creation_events,
    )


@dataclass(frozen=True)
class MetricAggregate:
    mean: float
    half_width_95: float  # Student-t 95% interval half width; 0 for a single run
    run_count: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width_95

    @property
    def high(self) -> float:
        return self.mean + self.half_width_95


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
    out: dict[str, MetricAggregate] = {}
    scalar_fields = [
        "blocks_created",
        "blocks_included",
        "stale_rate",
        "throughput_tps",
        "blocks_per_day",
        "wall_clock_s",
    ]
    for name in scalar_fields:
        out[name] = _aggregate_values([float(getattr(r, name)) for r in reports])
    latencies = [r.mean_tx_latency_s for r in reports]
    if all(v is not None for v in latencies):
        out["mean_tx_latency_s"] = _aggregate_values([float(v) for v in latencies])
    for miner_id in reports[0].miner_shares:
        out[f"share_{miner_id}"] = _aggregate_values(
            [r.miner_shares[miner_id] for r in reports]
        )
    for miner_id in reports[0].reward_shares:
        out[f"reward_share_{miner_id}"] = _aggregate_values(
            [r.reward_shares[miner_id] for r in reports]
        )
    return out
