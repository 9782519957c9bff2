"""chainsim benchmark: host cost of the simulator, measured from outside.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed is written into the workload's config.  The run's time is split
between a few fresh child interpreters, started one after another
(``child.py``).  Each child times its own set-up, then calls
``chainsim.cli.main`` on the config again and again until its share of the
time is used, so every repetition takes the same path as ``chainsim run``
or ``chainsim sweep``.  Between repetitions it times a fixed reference job.

``--trace 0`` prints the end-to-end metrics: medians over the run's
repetitions (set-up: over its children), with times scaled by the run's
host speed (see ``REFERENCE_S``); the unscaled medians are printed above
the result.  ``--trace 1`` alternates untraced and traced children and
prints the per-layer metrics: self time by layer from the traced
repetitions, set-up parts and pool overhead from the untraced children,
and the tracing overhead as traced minus untraced wall time.

Simulated statistics are never scored: they are checked.  Every CSV
column except ``wall_clock_s`` is hashed and compared with the hash
recorded in ``expected.json`` for the workload and seed, or, for a seed
with no recorded hash, with the first repetition's.  A repetition whose
command fails or raises, or whose outputs hash differently, counts as a
failed operation.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
WORK = HERE / ".work"

# A seed that is never used while a change is being written, only to
# confirm a claimed gain afterwards (its hash is recorded like the others).
HELD_BACK_SEED = 9001

# Whole invocation, set-up included, stays under this many seconds.
DEADLINE_S = 170.0
STARTED = time.monotonic()

# Nominal seconds of child.reference_seconds().  Time metrics are scaled by
# (nominal / measured reference time) of the same run, so a host that runs
# uniformly slower for a while does not read as a slower simulator.
REFERENCE_S = 0.04

# Seconds of a run given to each fresh child.
CHILD_SLICE_S = 8.0

SWEEP_INTERVALS = "1,12,60,150,600"
SWEEP_DELAYS = "0.5,2,4,8,16"

# Each workload makes a different module do most of the work; the reasons
# are listed in BENCHMARK.json.  Configs get ``seed = N`` appended.
WORKLOADS: dict[str, dict] = {
    # Engine, block broadcast and block receive; 95 nodes never mine.
    "bitcoin-wide": {
        "config": "preset = bitcoin\nN_n = 100\nblock_target = 3000\nRuns = 1\n",
        "command": "run",
    },
    # Light-pool packing of exponential gas sizes; uncles referenced.
    "ethereum": {
        "config": "preset = ethereum\nblock_target = 10000\nRuns = 1\n",
        "command": "run",
    },
    # Criterion-9 cell in full mode at saturating demand, with round-robin
    # creation.  Under the PoW race the pool size at each block, and with it
    # the cost, varies by a third between seeds; fixed block times keep
    # the work the same for every seed and let the seed vary the draws.
    "full-saturated": {
        "config": (
            "B_interval = 600\nB_delay = 0.42\nB_size = 0.1\nhasTrans = true\n"
            "T_technique = full\nT_n = 1\nT_delay = 0.5\nT_size = const:0.000546\n"
            "miners = 0.4,0.3,0.15,0.1,0.05\nselector = roundrobin\nblock_target = 40\n"
            "Runs = 1\n"
        ),
        "command": "run",
    },
    # Small bare runs, so the per-cell process pool and aggregation dominate.
    "sweep-grid": {
        "config": "hasTrans = false\nblock_target = 200\nRuns = 2\n",
        "command": "sweep",
    },
}

END_TO_END_UNITS = {"wall_s": "s", "blocks_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric -> unit.  Times are self times: a span's duration minus
# the spans it contains.
PER_LAYER_UNITS = {
    "engine.schedule_s": "s",
    "engine.next_event_s": "s",
    "engine.dispatch_self_s": "s",
    "engine.events.block_create": "count",
    "engine.events.block_receive": "count",
    "engine.events.tx_create": "count",
    "engine.events.tx_receive": "count",
    "engine.peak_queue_len": "count",
    "network.broadcast_block_s": "s",
    "network.broadcast_block_calls": "count",
    "network.block_events_per_broadcast": "ratio",
    "network.broadcast_tx_s": "s",
    "network.broadcast_tx_calls": "count",
    "network.tx_events_per_broadcast": "ratio",
    "consensus.on_block_create_s": "s",
    "consensus.create_useful_ratio": "ratio",
    "consensus.on_block_receive_s": "s",
    "consensus.receive.appended": "count",
    "consensus.receive.replaced": "count",
    "consensus.receive.discarded": "count",
    "consensus.receive.uncle": "count",
    "consensus.eligible_uncles_s": "s",
    "workload.take_block_s": "s",
    "workload.take_block_calls": "count",
    "workload.pool_len_at_pack.mean": "count",
    "workload.pool_len_at_pack.max": "count",
    "workload.on_tx_create_s": "s",
    "workload.on_tx_receive_s": "s",
    "incentives.distribute_s": "s",
    "stats.summarize_run_s": "s",
    "stats.aggregate_s": "s",
    "runner.simulation_init_s": "s",
    "runner.pool_overhead_s": "s",
    "config.parse_config_s": "s",
    "cli.write_csv_s": "s",
    "engine.self_s": "s",
    "network.self_s": "s",
    "consensus.self_s": "s",
    "workload.self_s": "s",
    "incentives.self_s": "s",
    "stats.self_s": "s",
    "runner.self_s": "s",
    "config.self_s": "s",
    "cli.self_s": "s",
    "setup.interpreter_s": "s",
    "setup.import_scipy_s": "s",
    "setup.import_chainsim_s": "s",
    "setup.parse_config_s": "s",
    "setup.simulation_build_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "host.reference_s": "s",
}

MODULES = ("engine", "network", "consensus", "workload", "incentives", "stats",
           "runner", "config", "cli")

# Span name -> per-layer self-time metric.
SPAN_METRICS = {
    "engine.schedule": "engine.schedule_s",
    "engine.next_event": "engine.next_event_s",
    "engine.run_loop": "engine.dispatch_self_s",
    "network.broadcast_block": "network.broadcast_block_s",
    "network.broadcast_tx": "network.broadcast_tx_s",
    "consensus.on_block_create": "consensus.on_block_create_s",
    "consensus.on_block_receive": "consensus.on_block_receive_s",
    "consensus.eligible_uncles": "consensus.eligible_uncles_s",
    "workload.take_block": "workload.take_block_s",
    "workload.on_tx_create": "workload.on_tx_create_s",
    "workload.on_tx_receive": "workload.on_tx_receive_s",
    "incentives.distribute": "incentives.distribute_s",
    "stats.summarize_run": "stats.summarize_run_s",
    "stats.aggregate": "stats.aggregate_s",
    "runner.simulation_init": "runner.simulation_init_s",
    "config.parse_config": "config.parse_config_s",
    "cli.write_csv": "cli.write_csv_s",
}

# The number of dispatches of each event kind is the call count of its handler.
HANDLER_EVENTS = {
    "consensus.on_block_create": "engine.events.block_create",
    "consensus.on_block_receive": "engine.events.block_receive",
    "workload.on_tx_create": "engine.events.tx_create",
    "workload.on_tx_receive": "engine.events.tx_receive",
}

RECEIVE_ACTIONS = {
    "consensus.receive.appended": "consensus.receive.appended",
    "consensus.receive.replaced": "consensus.receive.replaced",
    "consensus.receive.discarded_shorter": "consensus.receive.discarded",
    "consensus.receive.stored_as_uncle": "consensus.receive.uncle",
}


# -- inputs ---------------------------------------------------------------


def write_inputs(workload: str, seed: int, work: Path) -> tuple[Path, list[str]]:
    """Write the workload's config for ``seed``; return it and the CLI argv."""
    spec = WORKLOADS[workload]
    config = work / "bench.cfg"
    config.write_text(spec["config"] + f"seed = {seed}\n")
    argv = [spec["command"], "--config", str(config)]
    if spec["command"] == "sweep":
        argv += ["--intervals", SWEEP_INTERVALS, "--delays", SWEEP_DELAYS, "--parallel", "2"]
    return config, argv


# -- output check -----------------------------------------------------------


def output_hash(out_dir: Path) -> str:
    """SHA-256 over every deterministic CSV cell (all but ``wall_clock_s``)."""
    digest = hashlib.sha256()
    names = sorted(p.name for p in out_dir.glob("*.csv"))
    if not names:
        raise FileNotFoundError(f"no CSV written in {out_dir}")
    for name in names:
        with open(out_dir / name, newline="") as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        if "wall_clock_s" in header:  # runs.csv, sweep.csv: a column
            keep = [i for i, col in enumerate(header) if col != "wall_clock_s"]
            rows = [[row[i] for i in keep] for row in rows]
        else:  # aggregate.csv: a row
            rows = [row for row in rows if row[0] != "wall_clock_s"]
        digest.update(name.encode() + b"\n")
        for row in rows:
            digest.update(",".join(row).encode() + b"\n")
    return digest.hexdigest()


def expected_hash(workload: str, seed: int) -> str | None:
    if not EXPECTED.exists():
        return None
    return json.loads(EXPECTED.read_text()).get(workload, {}).get(str(seed))


# -- children ---------------------------------------------------------------


def run_child(argv: list[str], config: Path, work: Path, index: int, trace: bool,
              deadline: float, timeout: float) -> dict:
    """Run one child, which repeats the command until ``deadline``.

    ``deadline`` is a ``time.monotonic`` reading; the first repetition
    always runs.  The child is killed after ``timeout`` seconds.

    Returns the child's result; each repetition carries the hash of its
    outputs, or an ``error``.  A child that fails before any repetition has
    a single failed repetition.
    """
    run_dir = work / f"child-{index}"
    spool = run_dir / "spool"
    spool.mkdir(parents=True)
    spec = {
        "config": str(config),
        "argv": argv,
        "out_root": str(run_dir / "out"),
        "trace": trace,
        "spool_dir": str(spool),
        "stdout": str(run_dir / "stdout.txt"),
        "result": str(run_dir / "result.json"),
        "deadline": deadline,
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    spec_path = run_dir / "spec.json"
    spec["spawned_at"] = time.monotonic()
    spec_path.write_text(json.dumps(spec))
    timed_out = False
    with subprocess.Popen([sys.executable, str(HERE / "child.py"), str(spec_path)],
                          env=env, stderr=subprocess.PIPE, text=True) as proc:
        try:
            _, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            _, stderr = proc.communicate()
            timed_out = True
    result_path = Path(spec["result"])
    if timed_out:
        result = {"error": f"timed out after {timeout:.0f} s", "reps": []}
    elif result_path.exists():
        result = json.loads(result_path.read_text())
    else:
        result = {"error": f"exited {proc.returncode} without a result: {stderr.strip()[-2000:]}",
                  "reps": []}
    result["traced"] = trace
    for rep in result["reps"]:
        try:
            rep["hash"] = output_hash(Path(rep["out"]))
        except (OSError, IndexError) as exc:
            rep["error"] = f"cannot hash outputs: {exc}"
    if "error" in result:
        # The repetition that was running when the child failed.
        result["reps"].append({"error": result["error"]})
    shutil.rmtree(run_dir, ignore_errors=True)
    return result


def run_children(argv: list[str], config: Path, work: Path, seconds: float,
                 trace: bool) -> list[dict]:
    """Start children one after another, each with an equal share of ``seconds``.

    Several fresh children give several set-up samples; repetitions inside
    each child give many short run samples, so a median can step over the
    slow spells of a shared host.
    """
    count = max(2 if trace else 1, round(seconds / CHILD_SLICE_S))
    started = time.monotonic()
    results = []
    for index in range(count):
        deadline = started + seconds * (index + 1) / count
        if deadline > STARTED + DEADLINE_S - 10.0:
            deadline = STARTED + DEADLINE_S - 10.0
        traced = trace and index % 2 == 1
        timeout = max(1.0, STARTED + DEADLINE_S - time.monotonic())
        result = run_child(argv, config, work, index, traced, deadline, timeout)
        results.append(result)
        print(describe_child(result), flush=True)
        if time.monotonic() - STARTED > DEADLINE_S - 20.0:
            break
    return results


def describe_child(result: dict) -> str:
    kind = "traced  " if result["traced"] else "untraced"
    walls = " ".join(f"{rep['wall_s']:.3f}" for rep in result["reps"] if "wall_s" in rep)
    line = f"  child {kind} wall_s per repetition: [{walls}]"
    if "setup" in result:
        line += f" setup_s={result['setup']['setup_s']:.4f}"
    if "peak_rss_mb" in result:
        line += f" peak_rss_mb={result['peak_rss_mb']:.1f}"
    if "error" in result:
        line += f" FAILED: {result['error'].strip().splitlines()[-1]}"
    return line


# -- metrics ----------------------------------------------------------------


def reps_of(children: list[dict]) -> list[dict]:
    return [rep for child in children for rep in child["reps"] if "error" not in rep]


def host_speed(children: list[dict]) -> float:
    """Nominal over measured reference time: above 1 when the host ran fast."""
    return REFERENCE_S / statistics.median(t for c in children for t in c["reference_s"])


def end_to_end(children: list[dict]) -> dict[str, float]:
    """Medians of the run, scaled to the nominal host speed."""
    reps = reps_of(children)
    speed = host_speed(children)
    wall = statistics.median(rep["wall_s"] for rep in reps)
    rate = statistics.median(rep["blocks"] / rep["wall_s"] for rep in reps)
    setup = statistics.median(child["setup"]["setup_s"] for child in children)
    print(f"host speed {speed:.4f} (reference job {REFERENCE_S / speed:.4f} s against "
          f"{REFERENCE_S} s nominal); unscaled medians: wall_s {wall:.4f} s, "
          f"blocks_per_s {rate:.2f} 1/s, setup_s {setup:.4f} s, over {len(reps)} "
          f"repetitions in {len(children)} children")
    return {
        "wall_s": wall * speed,
        "blocks_per_s": rate / speed,
        "setup_s": setup * speed,
        "peak_rss_mb": statistics.median(child["peak_rss_mb"] for child in children),
    }


def layer_values(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    spans = trace["spans"]
    counts = trace["counts"]
    maxima = trace["maxima"]

    def self_s(span: str) -> float:
        return spans.get(span, [0, 0.0, 0.0])[2]

    def calls(span: str) -> int:
        return spans.get(span, [0, 0.0, 0.0])[0]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values: dict[str, float] = {}
    for span, metric in SPAN_METRICS.items():
        values[metric] = self_s(span)
    for span, metric in HANDLER_EVENTS.items():
        values[metric] = calls(span)
    for key, metric in RECEIVE_ACTIONS.items():
        values[metric] = counts.get(key, 0)
    values["engine.peak_queue_len"] = maxima.get("engine.peak_queue_len", 0)
    values["network.broadcast_block_calls"] = calls("network.broadcast_block")
    values["network.block_events_per_broadcast"] = ratio(
        counts.get("network.block_events", 0), calls("network.broadcast_block"))
    values["network.broadcast_tx_calls"] = calls("network.broadcast_tx")
    values["network.tx_events_per_broadcast"] = ratio(
        counts.get("network.tx_events", 0), calls("network.broadcast_tx"))
    values["consensus.create_useful_ratio"] = ratio(
        counts.get("consensus.blocks_created", 0), calls("consensus.on_block_create"))
    values["workload.take_block_calls"] = calls("workload.take_block")
    values["workload.pool_len_at_pack.mean"] = ratio(
        counts.get("workload.pool_len_at_pack.sum", 0), calls("workload.take_block"))
    values["workload.pool_len_at_pack.max"] = maxima.get("workload.pool_len_at_pack.max", 0)
    for module in MODULES:
        values[f"{module}.self_s"] = sum(
            entry[2] for name, entry in spans.items() if name.split(".")[0] == module)
    return values


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Median per-layer values; also the count metrics that did not repeat.

    Self times come from the traced repetitions.  Set-up parts come from
    every child (tracing starts after set-up), pool overhead from the
    untraced repetitions.  None is scaled by host speed; the run's median
    reference time is reported beside them.
    """
    per_rep = [layer_values(rep["trace"]) for rep in reps_of(traced)]
    values = {}
    unsteady = []
    for name in per_rep[0]:
        seen = [v[name] for v in per_rep]
        if PER_LAYER_UNITS[name] == "count" and len(set(seen)) > 1:
            unsteady.append(name)
        values[name] = statistics.median(seen)
    for part in ("interpreter_s", "import_scipy_s", "import_chainsim_s", "parse_config_s",
                 "simulation_build_s"):
        values[f"setup.{part}"] = statistics.median(
            child["setup"][part] for child in untraced + traced)
    plain = reps_of(untraced)
    values["runner.pool_overhead_s"] = statistics.median(rep["pool_overhead_s"] for rep in plain)
    values["host.reference_s"] = REFERENCE_S / host_speed(untraced + traced)
    values["trace.wall_s"] = statistics.median(rep["wall_s"] for rep in reps_of(traced))
    values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(
        rep["wall_s"] for rep in plain)
    return values, unsteady


def print_trace_report(values: dict[str, float], traced: list[dict]) -> None:
    reps = reps_of(traced)
    trace = reps[0]["trace"]
    total = sum(values[f"{m}.self_s"] for m in MODULES)
    print(f"self time by module, median of {len(reps)} traced repetition(s); "
          f"{total:.4f} s in all, summed over the child and {trace['workers']} pool "
          "worker(s) (a parent's wait on its pool counts as runner self time):")
    for module in MODULES:
        share = values[f"{module}.self_s"] / total if total else 0.0
        print(f"  {module:12s} {values[f'{module}.self_s']:10.4f} s  {share:7.2%}")
    print("self time by span, first traced repetition:")
    spans = sorted(trace["spans"].items(), key=lambda kv: -kv[1][2])
    for name, (n, total_s, self_s) in spans:
        print(f"  {name:30s} calls={n:<9d} total={total_s:9.4f} s  self={self_s:9.4f} s")
    print("ratios, with the count each is based on:")
    print(f"  consensus.create_useful_ratio = {values['consensus.create_useful_ratio']:.4f}"
          f" of {values['engine.events.block_create']:.0f} BLOCK_CREATE dispatches")
    print(f"  network.block_events_per_broadcast = "
          f"{values['network.block_events_per_broadcast']:.4f}"
          f" over {values['network.broadcast_block_calls']:.0f} block broadcasts")
    print(f"  network.tx_events_per_broadcast = {values['network.tx_events_per_broadcast']:.4f}"
          f" over {values['network.broadcast_tx_calls']:.0f} tx broadcasts")
    print(f"  workload.pool_len_at_pack.mean = {values['workload.pool_len_at_pack.mean']:.2f}"
          f" over {values['workload.take_block_calls']:.0f} packs")
    print(f"tracing overhead: traced wall_s {values['trace.wall_s']:.4f} s - untraced "
          f"{values['trace.wall_s'] - values['trace.overhead_s']:.4f} s = "
          f"{values['trace.overhead_s']:.4f} s")
    if trace["missing_hooks"]:
        print(f"hooks not found (their metrics read 0): {', '.join(trace['missing_hooks'])}")


# -- main -------------------------------------------------------------------


def check_outputs(children: list[dict], workload: str, seed: int) -> tuple[int, int]:
    """Mark repetitions whose outputs are wrong; return (attempted, failed)."""
    reps = [rep for child in children for rep in child["reps"]]
    recorded = expected_hash(workload, seed)
    reference = recorded
    if recorded is None:
        print(f"no hash recorded for {workload} seed {seed}: checking only that every "
              "repetition gives the same outputs")
        reference = next((rep["hash"] for rep in reps if "error" not in rep), None)
    for rep in reps:
        if "error" not in rep and rep["hash"] != reference:
            rep["error"] = f"output hash {rep['hash'][:12]} != expected {reference[:12]}"
    failed = [rep for rep in reps if "error" in rep]
    for rep in failed:
        print(f"FAILED: {rep['error'].strip()}", file=sys.stderr)
    return len(reps), len(failed)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "chainsim" / "cli.py").is_file():
        print(f"error: chainsim sources not found under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        config, cli_argv = write_inputs(args.workload, args.seed, work)
        print(f"workload {args.workload} seed {args.seed}: chainsim {' '.join(cli_argv)}")
        results = run_children(cli_argv, config, work, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed = check_outputs(results, args.workload, args.seed)
    good = [child for child in results if reps_of([child])]
    untraced = [child for child in good if not child["traced"]]
    traced = [child for child in good if child["traced"]]
    metrics: dict[str, dict] = {}
    if untraced and (traced or not args.trace):
        if args.trace:
            values, unsteady = per_layer(untraced, traced)
            print_trace_report(values, traced)
            if unsteady:
                print(f"counts that differ between traced repetitions: {unsteady}",
                      file=sys.stderr)
                failed += 1
            units = PER_LAYER_UNITS
        else:
            values = end_to_end(untraced)
            units = END_TO_END_UNITS
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}")
    summary = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
