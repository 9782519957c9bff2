"""Measured CLI invocations in a fresh interpreter.

Usage: python3 child.py SPEC_JSON

The spec names the config file, the ``chainsim`` command-line arguments,
where to write outputs, whether to trace, the file to write the result to,
the monotonic clock reading at which the parent started this process, and
the reading by which the last repetition should end.  ``time.monotonic`` is
CLOCK_MONOTONIC on Linux, so the two processes' readings are comparable.

Set-up is timed first, as a user pays it: importing chainsim (with the
share spent importing scipy split out), parsing the config and building
the first ``Simulation``.  Then ``chainsim.cli.main`` runs the command,
repeatedly until the deadline, each time into a fresh output directory.
Each repetition is timed from its first entry into ``run_many`` to the
return of its last CSV writer, through thin wrappers on the names the CLI
calls.
"""

from __future__ import annotations

import builtins
import heapq
import json
import resource
import sys
import time
import traceback
from pathlib import Path


class ScipyImportClock:
    """Seconds spent in import statements that name scipy.

    Only the outermost such statement is timed, so scipy importing its own
    submodules is not counted twice.  If chainsim stops importing scipy
    this reads zero and the rest of the import is timed as before.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self._inside = False
        self._import = builtins.__import__

    def __call__(self, name, globals=None, locals=None, fromlist=(), level=0):
        if self._inside or level or name.partition(".")[0] != "scipy":
            return self._import(name, globals, locals, fromlist, level)
        self._inside = True
        started = time.perf_counter()
        try:
            return self._import(name, globals, locals, fromlist, level)
        finally:
            self.seconds += time.perf_counter() - started
            self._inside = False


def timed_setup(spec: dict) -> dict:
    entered = time.monotonic()
    clock = ScipyImportClock()
    builtins.__import__ = clock
    try:
        import chainsim
        import chainsim.cli
        import chainsim.runner
    finally:
        builtins.__import__ = clock._import
    imported = time.monotonic()
    config = chainsim.parse_config(spec["config"])
    parsed = time.monotonic()
    chainsim.runner.Simulation(config, 0)
    built = time.monotonic()
    return {
        "setup_s": built - spec["spawned_at"],
        "interpreter_s": entered - spec["spawned_at"],
        "import_scipy_s": clock.seconds,
        "import_chainsim_s": imported - entered - clock.seconds,
        "parse_config_s": parsed - imported,
        "simulation_build_s": built - parsed,
    }


def reference_seconds() -> float:
    """Time a fixed pure-Python job (heap and dict traffic, like the simulator's).

    The host's speed drifts by tens of percent over tens of seconds.  It
    runs before the first repetition and after each one, and the parent
    scales its medians by the reference time of the same run.
    """
    started = time.perf_counter()
    heap: list = []
    pool: dict = {}
    for i in range(20_000):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        pool[i] = (i, i * 0.5)
    while heap:
        _, i = heapq.heappop(heap)
        del pool[i]
    return time.perf_counter() - started


class RunClock:
    """Wall time of one command's simulation work, and the work it did."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.first_entry: float | None = None
        self.last_write: float | None = None
        self.blocks = 0
        self.run_many_s = 0.0  # summed over calls (one per sweep cell)
        self.run_wall_clock_s = 0.0  # summed per-run wall_clock_s / workers

    def wrap_run_many(self, run_many):
        def timed(config, parallel=1):
            started = time.perf_counter()
            if self.first_entry is None:
                self.first_entry = started
            reports = run_many(config, parallel=parallel)
            self.run_many_s += time.perf_counter() - started
            workers = min(parallel, config.runs) if parallel > 1 and config.runs > 1 else 1
            self.run_wall_clock_s += sum(r.wall_clock_s for r in reports) / workers
            self.blocks += sum(r.blocks_created for r in reports)
            return reports

        return timed

    def wrap_writer(self, write):
        def timed(*args, **kwargs):
            result = write(*args, **kwargs)
            self.last_write = time.perf_counter()
            return result

        return timed

    def install(self, cli) -> None:
        cli.run_many = self.wrap_run_many(cli.run_many)
        for name in ("write_run_csv", "write_aggregate_csv", "write_sweep_csv"):
            setattr(cli, name, self.wrap_writer(getattr(cli, name)))


def run_once(cli, clock: RunClock, argv: list[str], stdout_path: str) -> dict:
    """One ``chainsim`` command; its wall time, blocks and pool overhead."""
    clock.reset()
    with open(stdout_path, "w") as sink:
        saved, sys.stdout = sys.stdout, sink
        try:
            rc = cli.main(argv)
        finally:
            sys.stdout = saved
    if rc != 0:
        raise RuntimeError(f"chainsim exited {rc}")
    if clock.first_entry is None or clock.last_write is None:
        raise RuntimeError("the command never entered run_many or wrote its CSVs")
    return {
        "wall_s": clock.last_write - clock.first_entry,
        "blocks": clock.blocks,
        "pool_overhead_s": clock.run_many_s - clock.run_wall_clock_s,
    }


def peak_rss_mb() -> float:
    """High-water resident set of this process or any finished child of it."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # ru_maxrss is in KiB


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    result: dict = {"reps": []}
    try:
        result["setup"] = timed_setup(spec)
        import chainsim.cli as cli

        tracer = None
        if spec["trace"]:
            import tracer as tracing

            tracer = tracing.Tracer(Path(spec["spool_dir"]))
            tracing.install(tracer)
        clock = RunClock()
        clock.install(cli)
        # Repeat the command until the next repetition would pass the
        # deadline; the first always runs.
        durations: list[float] = []
        references = result["reference_s"] = [reference_seconds()]
        while not durations or time.monotonic() + max(durations) <= spec["deadline"]:
            started = time.monotonic()
            out = Path(spec["out_root"]) / f"rep-{len(durations)}"
            if tracer is not None:
                tracer.clear()
            rep = run_once(cli, clock, spec["argv"] + ["--out", str(out)], spec["stdout"])
            rep["out"] = str(out)
            references.append(reference_seconds())
            if tracer is not None:
                rep["trace"] = tracer.report()
            result["reps"].append(rep)
            durations.append(time.monotonic() - started)
            if len(durations) == 1:
                # Later repetitions reuse a heap the first one grew, so only
                # set-up plus one command is what a user's process reaches.
                result["peak_rss_mb"] = peak_rss_mb()
    except Exception:
        result["error"] = traceback.format_exc()
    Path(spec["result"]).write_text(json.dumps(result))
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main())
