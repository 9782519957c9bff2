"""Span tracer that the benchmark installs around chainsim from outside.

Every wrapped call is a span.  A span's self time is its duration minus the
time covered by the spans it contains, so summing self times by module
splits the run without double counting.  Spans are folded into per-name
totals as they close, which keeps memory flat however long the run is.

Worker processes of a forked ``--parallel`` pool inherit the wrappers; each
worker writes its own totals to a spool file after every run, and the
parent merges them.  A worker started by another method carries no
wrappers and reports nothing.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path


class Tracer:
    def __init__(self, spool_dir: Path) -> None:
        self.spool_dir = spool_dir
        self.pid = os.getpid()
        self.missing: list[str] = []
        self.is_worker = False
        # Each open span holds the seconds its finished children took.
        self.stack: list[float] = []
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, int] = {}

    def clear(self) -> None:
        """Forget everything recorded so far, here and in spool files.

        Wrappers hold references to these containers, so they are emptied
        in place.
        """
        self.stack.clear()
        for entry in self.spans.values():
            entry[:] = [0, 0.0, 0.0]
        self.counts.clear()
        self.maxima.clear()
        if not self.is_worker:
            for path in self.spool_dir.glob("worker-*.json"):
                path.unlink()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def high_water(self, name: str, value: int) -> None:
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    def span(self, name: str, fn, before=None, after=None):
        """Return ``fn`` wrapped so that each call is recorded under ``name``."""
        entry = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            stack.append(0.0)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - started
                inner = stack.pop()
                entry[0] += 1
                entry[1] += took
                entry[2] += took - inner
                if stack:
                    stack[-1] += took
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- worker processes ------------------------------------------------

    def worker_entry(self, fn):
        """Wrap a pool entry point so a forked worker keeps its own totals."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != self.pid:
                # First call in a fresh fork: drop what the parent had
                # recorded before forking.
                self.pid = os.getpid()
                self.is_worker = True
                self.clear()
            result = fn(*args, **kwargs)
            if self.is_worker:
                self._spool()
            return result

        return wrapper

    def _spool(self) -> None:
        path = self.spool_dir / f"worker-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self._snapshot()))
        os.replace(tmp, path)

    def _snapshot(self) -> dict:
        return {
            "spans": {k: v for k, v in self.spans.items() if v[0]},
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }

    def report(self) -> dict:
        """This process's totals merged with every worker's spool file."""
        merged = self._snapshot()
        merged["spans"] = {k: list(v) for k, v in merged["spans"].items()}
        workers = sorted(self.spool_dir.glob("worker-*.json"))
        for path in workers:
            part = json.loads(path.read_text())
            for name, (calls, total, self_s) in part["spans"].items():
                entry = merged["spans"].setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += self_s
            for name, n in part["counts"].items():
                merged["counts"][name] = merged["counts"].get(name, 0) + n
            for name, value in part["maxima"].items():
                merged["maxima"][name] = max(merged["maxima"].get(name, 0), value)
        merged["workers"] = len(workers)
        merged["missing_hooks"] = list(self.missing)
        return merged


def _replace_everywhere(original, replacement) -> None:
    """Rebind a module-level function in every chainsim module that imported it."""
    for name, module in list(sys.modules.items()):
        if name != "chainsim" and not name.startswith("chainsim."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions and the event handlers.

    A ``Simulation`` built before this call keeps unwrapped handlers: its
    handler table bound the methods when it was assembled.
    """
    import importlib

    def hook(module_name, owner_path, span_name, before=None, after=None):
        module = importlib.import_module(f"chainsim.{module_name}")
        owner = module
        *parents, attr = owner_path.split(".")
        try:
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except AttributeError:
            tracer.missing.append(f"chainsim.{module_name}.{owner_path}")
            return
        wrapped = tracer.span(span_name, original, before, after)
        if parents:
            setattr(owner, attr, wrapped)
        else:
            _replace_everywhere(original, wrapped)

    def queue_depth(args, _result):
        tracer.high_water("engine.peak_queue_len", len(args[0]))

    def block_events(args, result):
        tracer.count("network.block_events", len(result))

    def tx_events(args, result):
        tracer.count("network.tx_events", len(result))

    def created(args, result):
        if result is not None:
            tracer.count("consensus.blocks_created")

    def received(args, result):
        tracer.count(f"consensus.receive.{result.name.lower()}")

    def pool_size(args):
        workload, miner = args[0], args[1]
        shared = getattr(workload, "shared_pool", None)
        size = len(shared) if shared is not None else len(getattr(miner, "tx_pool", ()))
        tracer.count("workload.pool_len_at_pack.sum", size)
        tracer.high_water("workload.pool_len_at_pack.max", size)

    hook("engine", "EventQueue.schedule", "engine.schedule", after=queue_depth)
    hook("engine", "EventQueue.next_event", "engine.next_event")
    hook("engine", "run_loop", "engine.run_loop")
    hook("network", "Network.broadcast_block", "network.broadcast_block", after=block_events)
    hook("network", "Network.broadcast_tx", "network.broadcast_tx", after=tx_events)
    hook("consensus", "ConsensusEngine.on_block_create", "consensus.on_block_create", after=created)
    hook("consensus", "ConsensusEngine.on_block_receive", "consensus.on_block_receive", after=received)
    hook("consensus", "ConsensusEngine.eligible_uncles", "consensus.eligible_uncles")
    hook("consensus", "main_chain", "consensus.main_chain")
    hook("workload", "TxWorkload.take_block", "workload.take_block", before=pool_size)
    hook("workload", "TxWorkload.on_tx_create", "workload.on_tx_create")
    hook("workload", "TxWorkload.on_tx_receive", "workload.on_tx_receive")
    hook("incentives", "distribute", "incentives.distribute")
    hook("stats", "summarize_run", "stats.summarize_run")
    hook("stats", "aggregate", "stats.aggregate")
    hook("runner", "Simulation.__init__", "runner.simulation_init")
    hook("runner", "Simulation.run", "runner.simulation_run")
    hook("runner", "run_single", "runner.run_single")
    hook("runner", "run_many", "runner.run_many")
    hook("config", "parse_config", "config.parse_config")
    hook("cli", "main", "cli.main")
    for writer in ("write_run_csv", "write_aggregate_csv", "write_sweep_csv"):
        hook("cli", writer, "cli.write_csv")

    runner = importlib.import_module("chainsim.runner")
    if hasattr(runner, "run_single"):
        _replace_everywhere(runner.run_single, tracer.worker_entry(runner.run_single))
