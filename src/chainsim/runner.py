"""Assembles a world from a SimConfig and executes independent runs.

Run i is seeded with ``config.seed + i`` and owns all of its state, so runs
can execute in parallel worker processes; reports always come back ordered
by run index.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Iterable, Iterator
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar

from .config import SimConfig, validate
from .consensus import ConsensusEngine, main_chain
from .engine import EventKind, EventQueue, RandomSource, run_loop
from .incentives import distribute
from .model import World
from .network import Network
from .stats import RunReport, summarize_run
from .workload import TxWorkload


class Simulation:
    """One fully wired run: world, queue, network, workload, and consensus."""

    def __init__(self, config: SimConfig, run_index: int = 0) -> None:
        self.config = validate(config)
        self.run_index = run_index
        self.seed = config.seed + run_index
        self.rng = RandomSource(self.seed)

        stakes = config.stakes if config.stakes is not None else config.miners
        self.world = World(config.n_n, hash_powers=config.miners, stakes=stakes)
        self.queue = EventQueue()
        self.network = Network(self.queue, self.rng, config)
        self.workload = TxWorkload(self.world, self.queue, self.rng, config)
        self.consensus = ConsensusEngine(
            self.world, self.queue, self.rng, config, self.network, self.workload
        )
        self.handlers = {
            EventKind.BLOCK_CREATE: self.consensus.on_block_create,
            EventKind.BLOCK_RECEIVE: self.consensus.deliver_block,
            EventKind.TX_CREATE: self.workload.on_tx_create,
        }

    def run(self) -> RunReport:
        started = time.perf_counter()
        self.workload.start(self.consensus.miner_ids)
        self.consensus.start()
        elapsed = run_loop(
            self.queue,
            self.handlers,
            self.world,
            sim_time=self.config.sim_time,
            block_target=self.config.block_target,
        )
        chain = main_chain(self.world)
        ledger = distribute(chain, self.world.registry, self.config, self.world.nodes)
        return summarize_run(
            self.world,
            chain,
            ledger,
            miner_ids=self.consensus.miner_ids,
            elapsed=elapsed,
            run_index=self.run_index,
            seed=self.seed,
            wall_clock=time.perf_counter() - started,
            full_mode=self.workload.full_mode,
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
def worker_pool(
    workers: int, grid: Iterable[SimConfig] = ()
) -> Iterator[ProcessPoolExecutor | None]:
    """Share one pool of ``workers`` processes among the ``run_many`` calls
    made inside the block; yields it, or None when ``workers`` <= 1.

    ``grid`` lists the configs the block will pass to ``run_many``, in that
    order.  Nothing forks on entry: the first ``run_many`` call submits
    every run of every config in ``grid``, each as one ``run_single`` task,
    and each call then collects its own config's runs.  A config that is
    not the next one in ``grid`` has its runs submitted anew.

    Inside an open pool this yields that pool, so nothing forks again, and
    ``grid`` is ignored.  The outermost block shuts its workers down on
    exit, cancelling queued runs if the block raised.
    """
    shared = _open_pool.get()
    if shared is not None or workers <= 1:
        yield shared.executor if shared is not None else None
        return
    shared = _SharedPool(ProcessPoolExecutor(max_workers=workers), grid)
    token = _open_pool.set(shared)
    try:
        yield shared.executor
    finally:
        _open_pool.reset(token)
        shared.executor.shutdown(cancel_futures=True)


def run_many(config: SimConfig, parallel: int = 1) -> list[RunReport]:
    """Execute ``config.runs`` independent runs, ordered by run index.

    With ``parallel`` > 1 the runs go to the open ``worker_pool``, which
    may have queued them already, or to a pool of ``min(parallel,
    config.runs)`` workers opened for this call.  The first run to raise,
    in run order, raises here.
    """
    if parallel <= 1 or config.runs == 1:
        return [run_single(config, i) for i in range(config.runs)]
    with worker_pool(min(parallel, config.runs)):
        return [future.result() for future in _open_pool.get().futures(config)]
