"""Assembles a world from a SimConfig and executes independent runs.

Run i is seeded with ``config.seed + i`` and owns all of its state, so runs
can execute in parallel worker processes; reports always come back ordered
by run index.
"""

from __future__ import annotations

import os
import time
from collections import deque
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from typing import TYPE_CHECKING

import numpy.random  # loaded here, before a worker pool forks, not on first use in each worker

from .config import SimConfig
from .consensus import ConsensusEngine, main_chain
from .engine import EventKind, EventQueue, run_loop
from .incentives import distribute
from .model import World, creation_weights
from .network import Network
from .stats import RunReport, summarize_run
from .streams import Streams
from .workload import TxWorkload

if TYPE_CHECKING:  # the process pool is imported only when one opens
    from concurrent.futures import Future, ProcessPoolExecutor


class Simulation:
    """One fully wired run: world, queue, network, workload, and consensus."""

    def __init__(self, config: SimConfig, run_index: int = 0) -> None:
        self.config = config
        self.run_index = run_index
        self.seed = config.seed + run_index
        self.streams = Streams(config, self.seed)

        self.world = World(creation_weights(config))
        self.queue = EventQueue()
        self.network = Network(self.queue, self.streams, config, len(self.world.nodes))
        self.workload = TxWorkload(self.world, self.streams, config)
        self.consensus = ConsensusEngine(
            self.world, self.queue, self.streams, config, self.network, self.workload
        )
        self.handlers = {
            EventKind.BLOCK_CREATE: self.consensus.on_block_create,
            EventKind.BLOCK_RECEIVE: self.consensus.deliver_block,
        }

    def run(self) -> RunReport:
        started = time.perf_counter()
        advance = self.workload.start()
        self.consensus.start()
        elapsed = run_loop(
            self.queue,
            self.handlers,
            self.world,
            advance=advance,
            sim_time=self.config.sim_time,
            block_target=self.config.block_target,
        )
        if self.workload.shared_pool is not None:
            self.workload.shared_pool.pack()  # the light blocks still queued
        chain = main_chain(self.world)
        return summarize_run(
            self.world,
            chain,
            distribute(chain, self.world, self.config),
            elapsed=elapsed,
            run_index=self.run_index,
            seed=self.seed,
            wall_clock=time.perf_counter() - started,
            tx_times=self.workload.times,
        )


def run_single(config: SimConfig, run_index: int = 0) -> RunReport:
    """Execute one simulation run and return its report."""
    return Simulation(config, run_index).run()


class _SharedPool:
    """An open ``worker_pool``'s executor and the configs it plans to run."""

    def __init__(self, executor: ProcessPoolExecutor, grid: Iterable[SimConfig]) -> None:
        self.executor = executor
        self.grid = list(grid)
        self.queued: deque[tuple[SimConfig, list[Future]]] | None = None

    def futures(self, config: SimConfig) -> list[Future]:
        """``config``'s runs in run order; the first call submits every planned run."""
        if self.queued is None:
            self.queued = deque((cell, self._submit(cell)) for cell in self.grid)
        if self.queued and self.queued[0][0] == config:
            return self.queued.popleft()[1]
        return self._submit(config)

    def _submit(self, config: SimConfig) -> list[Future]:
        return [self.executor.submit(run_single, config, i) for i in range(config.runs)]


_open_pool: ContextVar[_SharedPool | None] = ContextVar("worker_pool", default=None)


@contextmanager
def worker_pool(workers: int, grid: Iterable[SimConfig] = ()) -> Iterator[None]:
    """Share one pool of ``workers`` processes, at most one per CPU, among
    the ``run_many`` calls made inside the block; none opens when that
    leaves one worker or none.

    ``grid`` lists the configs the block will pass to ``run_many``, in that
    order.  Nothing forks on entry: the first ``run_many`` call submits
    every run of every config in ``grid``, each as one ``run_single`` task,
    and each call then collects its own config's runs.  A config that is
    not the next one in ``grid`` has its runs submitted anew.

    Inside an open pool nothing forks again, and ``grid`` is ignored.  The
    outermost block shuts its workers down on exit, cancelling queued runs
    if the block raised.
    """
    workers = min(workers, os.cpu_count() or 1)
    if _open_pool.get() is not None or workers <= 1:
        yield
        return
    from concurrent.futures import ProcessPoolExecutor
    shared = _SharedPool(ProcessPoolExecutor(max_workers=workers), grid)
    token = _open_pool.set(shared)
    try:
        yield
    finally:
        _open_pool.reset(token)
        shared.executor.shutdown(cancel_futures=True)


def run_many(config: SimConfig, parallel: int = 1) -> list[RunReport]:
    """Execute ``config.runs`` independent runs, ordered by run index.

    With ``parallel`` > 1 the runs go to the open ``worker_pool``, which
    may have queued them already, or to a pool of ``min(parallel,
    config.runs)`` workers opened for this call; on a host with one CPU they
    run here.  The first run to raise, in run order, raises here.
    """
    if parallel > 1 and config.runs > 1:
        with worker_pool(min(parallel, config.runs)):
            shared = _open_pool.get()
            if shared is not None:  # None on a host with one CPU
                return [future.result() for future in shared.futures(config)]
    return [run_single(config, i) for i in range(config.runs)]
