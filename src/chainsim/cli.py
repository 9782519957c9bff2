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

from .config import ConfigError, RunCapError, SimConfig, SweepSpec, parse_config, parse_float_list
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


def _write_csv(path: Path, rows: list[dict]) -> None:
    """Write ``rows`` under a header of the first row's names."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(rows[0])
        writer.writerows([_fmt(value) for value in row.values()] for row in rows)


def write_run_csv(path: Path, reports: list[RunReport]) -> None:
    _write_csv(path, [report.columns("runs") for report in reports])


def write_aggregate_csv(path: Path, aggregates: dict[str, MetricAggregate]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "mean", "half_width_95", "runs"])
        for name, agg in aggregates.items():
            writer.writerow([name, _fmt(agg.mean), _fmt(agg.half_width_95), agg.run_count])


def write_sweep_csv(path: Path, rows: list[dict]) -> None:
    _write_csv(path, rows)


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
    files it registered are removed and the failure is printed: in one line
    for a run that passed a cap, otherwise as a traceback."""
    out_dir = Path(out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot use --out {out}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    tracker = _OutputTracker()
    try:
        lines = write(out_dir, tracker)
    except Exception as exc:
        tracker.discard_all()
        if isinstance(exc, RunCapError):
            print(f"run stopped: {exc}", file=sys.stderr)
        else:
            traceback.print_exc()
        return EXIT_RUNTIME
    for line in lines:
        _say(line)
    return EXIT_OK


def _load_config(args) -> SimConfig:
    config = parse_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def _cmd_run(args) -> int:
    config = _load_config(args)

    def write(out_dir: Path, tracker: _OutputTracker) -> list[str]:
        reports = run_many(config, parallel=args.parallel)
        aggregates = aggregate(reports)
        write_run_csv(tracker.register(out_dir / RUN_CSV_NAME), reports)
        write_aggregate_csv(tracker.register(out_dir / AGGREGATE_CSV_NAME), aggregates)
        return summary_lines(config, aggregates)

    return _write_outputs(args.out, write)


def _parse_grid_list(raw: str, what: str) -> tuple[float, ...]:
    try:
        return parse_float_list(raw)
    except ValueError as exc:
        raise ConfigError(f"bad {what} list {raw!r}: {exc}") from exc


def _cmd_sweep(args) -> int:
    base = _load_config(args)
    spec = SweepSpec(
        base,
        _parse_grid_list(args.intervals, "intervals"),
        _parse_grid_list(args.delays, "delays"),
    )

    def write(out_dir: Path, tracker: _OutputTracker) -> list[str]:
        rows: list[dict] = []
        cells = list(spec.cells())
        # One pool runs every cell's runs, queued at the first run_many call;
        # cells print in grid order, and the workers exit before sweep.csv is written.
        with worker_pool(min(args.parallel, base.runs), cells):
            for cell in cells:
                reports = run_many(cell, parallel=args.parallel)
                aggs = aggregate(reports)
                row = {"b_interval": cell.b_interval, "b_delay": cell.b_delay}
                row.update((name, aggs[name].mean) for name in reports[0].columns("sweep"))
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
    try:
        return args.func(args)
    except ConfigError as exc:  # from loading: _write_outputs catches what a run raises
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    sys.exit(main())
