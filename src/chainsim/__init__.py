"""chainsim: a deterministic discrete-event simulator for proof-of-work
blockchain networks, covering block propagation, fork resolution, uncle
rewards, and transaction workloads."""

# runner first: numpy then loads from runner's own import.  Loaded from inside
# config's import of streams, it took 15-25 ms longer under the import hook
# with which perfbench times set-up (setup_s), though not without it.
from .runner import run_many, run_single
from .config import ConfigError, SimConfig, SweepSpec, parse_config, parse_config_text
from .stats import MetricAggregate, RunReport, aggregate

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "SimConfig",
    "SweepSpec",
    "parse_config",
    "parse_config_text",
    "run_single",
    "run_many",
    "RunReport",
    "MetricAggregate",
    "aggregate",
    "__version__",
]
