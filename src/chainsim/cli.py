"""Command-line interface: run one configuration or sweep an
(interval x delay) grid, writing CSV reports and a text summary.

Exit codes: 0 success, 2 configuration error, 3 runtime failure.
Files already written are removed when a command fails partway; a closed
standard output loses the text that follows, not the files or the exit code.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys
import traceback
from pathlib import Path

from .config import ConfigError, SimConfig, SweepSpec, parse_config
from .runner import run_many, worker_pool
from .stats import MetricAggregate, RunReport, aggregate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

RUN_CSV_NAME = "runs.csv"
AGGREGATE_CSV_NAME = "aggregate.csv"
SWEEP_CSV_NAME = "sweep.csv"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def _miner_ids(report: RunReport) -> list[int]:
    return list(report.miner_shares)


def write_run_csv(path: Path, reports: list[RunReport]) -> None:
    miner_ids = _miner_ids(reports[0])
    header = (
        ["run_index", "seed", "blocks_created", "blocks_included", "stale_rate",
         "throughput_tps", "mean_tx_latency_s"]
        + [f"share_{m}" for m in miner_ids]
        + [f"reward_share_{m}" for m in miner_ids]
        + ["wall_clock_s"]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in reports:
            row = [
                r.run_index,
                r.seed,
                r.blocks_created,
                r.blocks_included,
                _fmt(r.stale_rate),
                _fmt(r.throughput_tps),
                _fmt(r.mean_tx_latency_s),
            ]
            row += [_fmt(r.miner_shares[m]) for m in miner_ids]
            row += [_fmt(r.reward_shares[m]) for m in miner_ids]
            row.append(_fmt(r.wall_clock_s))
            writer.writerow(row)


def write_aggregate_csv(path: Path, aggregates: dict[str, MetricAggregate]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "mean", "half_width_95", "runs"])
        for name, agg in aggregates.items():
            writer.writerow([name, _fmt(agg.mean), _fmt(agg.half_width_95), agg.run_count])


def write_sweep_csv(path: Path, rows: list[dict]) -> None:
    if not rows:
        return
    header = list(rows[0])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row[col]) for col in header])


def summary_lines(config: SimConfig, aggregates: dict[str, MetricAggregate]) -> list[str]:
    lines = [
        f"preset={config.preset} B_interval={_fmt(config.b_interval)}s "
        f"B_delay={_fmt(config.b_delay)}s runs={config.runs} seed={config.seed}"
    ]
    for name, agg in aggregates.items():
        lines.append(f"  {name:24s} {agg.mean:14.6g} +/- {agg.half_width_95:.6g}")
    return lines


def _say(line: str) -> None:
    """Print one line; once stdout's reader is gone, send it and the rest to the null device."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


class _OutputTracker:
    """Removes everything written so far if the command fails."""

    def __init__(self) -> None:
        self.paths: list[Path] = []

    def register(self, path: Path) -> Path:
        self.paths.append(path)
        return path

    def discard_all(self) -> None:
        for path in self.paths:
            try:
                path.unlink()
            except OSError:
                pass


def _write_outputs(out: str, write) -> int:
    """Create the directory ``out`` and run ``write(out_dir, tracker)`` in it,
    then print the lines ``write`` returns, once its files are complete.

    An unusable ``out`` is reported in one line; if ``write`` fails, the
    files it registered are removed and the traceback is printed."""
    out_dir = Path(out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot use --out {out}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    tracker = _OutputTracker()
    try:
        lines = write(out_dir, tracker)
    except Exception:
        tracker.discard_all()
        traceback.print_exc()
        return EXIT_RUNTIME
    for line in lines:
        _say(line)
    return EXIT_OK


def _load_config(args) -> SimConfig:
    config = parse_config(args.config)
    if getattr(args, "seed", None) is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def _cmd_run(args) -> int:
    try:
        config = _load_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    def write(out_dir: Path, tracker: _OutputTracker) -> list[str]:
        with worker_pool(min(args.parallel, config.runs)):
            reports = run_many(config, parallel=args.parallel)
        aggregates = aggregate(reports)
        write_run_csv(tracker.register(out_dir / RUN_CSV_NAME), reports)
        write_aggregate_csv(tracker.register(out_dir / AGGREGATE_CSV_NAME), aggregates)
        return summary_lines(config, aggregates)

    return _write_outputs(args.out, write)


def _parse_grid_list(raw: str, what: str) -> tuple[float, ...]:
    try:
        values = tuple(float(p) for p in raw.split(",") if p.strip())
    except ValueError as exc:
        raise ConfigError(f"bad {what} list {raw!r}: {exc}") from exc
    if not values:
        raise ConfigError(f"{what} list is empty")
    return values


def _cmd_sweep(args) -> int:
    try:
        base = _load_config(args)
        spec = SweepSpec(
            base,
            _parse_grid_list(args.intervals, "intervals"),
            _parse_grid_list(args.delays, "delays"),
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    def write(out_dir: Path, tracker: _OutputTracker) -> list[str]:
        rows: list[dict] = []
        cells = list(spec.cells())
        # One pool runs every cell's runs, queued at the first run_many call;
        # cells print in grid order, and the workers exit before sweep.csv is written.
        with worker_pool(min(args.parallel, base.runs), cells):
            for cell in cells:
                reports = run_many(cell, parallel=args.parallel)
                aggs = aggregate(reports)
                row = {
                    "b_interval": cell.b_interval,
                    "b_delay": cell.b_delay,
                    "stale_rate": aggs["stale_rate"].mean,
                    "throughput_tps": aggs["throughput_tps"].mean,
                }
                for miner_id in reports[0].miner_shares:
                    row[f"share_{miner_id}"] = aggs[f"share_{miner_id}"].mean
                row["wall_clock_s"] = aggs["wall_clock_s"].mean
                rows.append(row)
                _say(
                    f"cell B_interval={_fmt(cell.b_interval)} B_delay={_fmt(cell.b_delay)}: "
                    f"stale={row['stale_rate']:.4%} throughput={row['throughput_tps']:.6g} tx/s"
                )
        write_sweep_csv(tracker.register(out_dir / SWEEP_CSV_NAME), rows)
        return []

    return _write_outputs(args.out, write)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainsim",
        description="Discrete-event simulator for proof-of-work blockchain networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute the runs of one configuration")
    run_p.add_argument("--config", required=True, help="path to a key=value config file")
    run_p.add_argument("--seed", type=int, default=None, help="override the base seed")
    run_p.add_argument("--parallel", type=int, default=1, help="worker processes for runs")
    run_p.add_argument("--out", default="out", help="directory for CSV reports")
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="run a block-interval x block-delay grid")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--intervals", required=True, help="comma-separated B_interval values")
    sweep_p.add_argument("--delays", required=True, help="comma-separated B_delay values")
    sweep_p.add_argument("--seed", type=int, default=None)
    sweep_p.add_argument("--parallel", type=int, default=1)
    sweep_p.add_argument("--out", default="out")
    sweep_p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def entrypoint() -> None:
    sys.exit(main())
