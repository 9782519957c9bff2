import math

import pytest

from chainsim import cli
from chainsim.config import ConfigError, parse_config_text
from chainsim.engine import Event, EventKind, EventQueue, RandomSource, sample_exponential
from chainsim.model import Transaction, make_genesis
from chainsim.network import Network
from chainsim.runner import Simulation
from chainsim.workload import TxWorkload

from conftest import make_config, read_rows, strip_wall_clock


def make_network(n_nodes, block_delay=2.0, mode="constant", seed=1):
    queue = EventQueue()
    config = make_config(
        n_n=n_nodes, miners=(1.0,), b_delay=block_delay, delay_mode=mode
    )
    return queue, Network(queue, RandomSource(seed), config)


def some_tx(tid=1, ts=0.0, submitter=0):
    return Transaction(tid, ts, submitter, 0.001, 0.0002)


class TestDelayModel:
    def test_rejects_negative_delays(self):
        with pytest.raises(ConfigError, match="non-negative"):
            parse_config_text("B_delay = -1\nsim_time = 10\n")
        with pytest.raises(ConfigError, match="non-negative"):
            parse_config_text("T_delay = -0.5\nsim_time = 10\n")


class TestBroadcastBlock:
    def test_constant_delay_fanout(self):
        queue, net = make_network(3)
        events = net.broadcast_block(0, make_genesis(), at=10.0)
        assert len(events) == 2
        assert sorted(e.node_id for e in events) == [1, 2]
        assert all(e.time == 12.0 for e in events)
        assert all(e.kind == EventKind.BLOCK_RECEIVE for e in events)
        assert len(queue) == 2

    def test_single_node_no_events(self):
        queue, net = make_network(1)
        assert net.broadcast_block(0, make_genesis(), at=0.0) == []
        assert len(queue) == 0

    def test_fanout_is_always_n_minus_one(self):
        _, net = make_network(7)
        assert len(net.broadcast_block(3, make_genesis(), at=1.0)) == 6

    def test_exponential_mean_empirical(self):
        # 10,000 deliveries, mean 2: 3 sigma bound on the sample mean is 0.06.
        queue, net = make_network(2, block_delay=2.0, mode="exponential")
        n = 10_000
        total = 0.0
        for _ in range(n):
            (event,) = net.broadcast_block(0, make_genesis(), at=0.0)
            total += event.time
        assert abs(total / n - 2.0) < 0.06

    def test_exponential_mode_draws_per_recipient(self):
        _, net = make_network(4, block_delay=3.0, mode="exponential")
        events = net.broadcast_block(0, make_genesis(), at=0.0)
        delays = {e.time for e in events}
        assert len(delays) == 3  # independent draws


class TestRecipients:
    """Blocks reach the nodes up to the highest-id miner and no further."""

    CONFIG = """
B_interval = 30
B_delay = 4
hasTrans = true
T_technique = light
T_n = 1
miners = 0,0.4,0,0.6
N_n = {n_n}
sim_time = 3000
Runs = 2
seed = 21
"""

    def test_nodes_above_every_miner_change_nothing(self, tmp_path):
        outputs = []
        for n_n in (5, 60):
            path = tmp_path / f"n{n_n}.cfg"
            path.write_text(self.CONFIG.format(n_n=n_n))
            out = tmp_path / f"out{n_n}"
            assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
            outputs.append(
                [strip_wall_clock(read_rows(out / name)) for name in ("runs.csv", "aggregate.csv")]
            )
        assert outputs[0] == outputs[1]

        # Nodes 0-3 are simulated, so every block that lands inside the
        # horizon is dispatched to the three of them other than its miner.
        for n_n in (5, 60):
            sim = Simulation(parse_config_text(self.CONFIG.format(n_n=n_n)), 0)
            receivers = []

            def counting(event, receive=sim.handlers[EventKind.BLOCK_RECEIVE]):
                receivers.append(event.node_id)
                return receive(event)

            sim.handlers[EventKind.BLOCK_RECEIVE] = counting
            sim.run()
            registry = sim.world.registry
            landed = sum(registry[i].timestamp + 4.0 <= 3000.0 for i in range(1, len(registry)))
            assert landed > 50
            assert len(receivers) == landed * 3
            assert set(receivers) == {0, 1, 2, 3}

    def test_exponential_draws_for_nodes_past_the_recipients(self):
        # Node 3 never mines and gets no event, but still takes its draw.
        config = make_config(n_n=4, miners=(0.5, 0.0, 0.5), b_delay=2.0, delay_mode="exponential")
        sim = Simulation(config, 0)
        replay = RandomSource(0)
        replay.rng.bit_generator.state = sim.rng.rng.bit_generator.state
        events = sim.network.broadcast_block(0, make_genesis(), at=1.0)
        assert [(e.node_id, e.time) for e in events] == [
            (1, 1.0 + sample_exponential(replay, 2.0)),
            (2, 1.0 + sample_exponential(replay, 2.0)),
        ]
        sample_exponential(replay, 2.0)
        assert sim.rng.random() == replay.random()


class TestBroadcastTx:
    """A full-mode transaction is stamped, at creation, with the time each
    block-creating node holds it."""

    @staticmethod
    def stamps(submitter=1, at=100.0, **overrides):
        """Create one transaction at ``at``; return {miner id: arrival}."""
        params = dict(
            n_n=5, miners=(0.25, 0.25, 0.25, 0.25), has_trans=True,
            t_technique="full", t_n=1e-6, t_delay=5.0,
        )
        params.update(overrides)
        sim = Simulation(make_config(**params), 0)
        sim.workload.start(sim.consensus.miner_ids)
        t = some_tx(1000, ts=at, submitter=submitter)
        sim.workload.on_tx_create(Event(EventKind.TX_CREATE, submitter, at, t))
        (entry,) = [e for e in sim.workload.pending if e[1] == 1000]
        return dict(zip(sim.consensus.miner_ids, entry[3]))

    def test_constant_delay_fanout(self):
        # The submitter holds it at once, every other miner 5 s later; the
        # non-mining node 4 gets no stamp.
        assert self.stamps(submitter=1) == {0: 105.0, 1: 100.0, 2: 105.0, 3: 105.0}

    def test_light_mode_never_broadcasts_tx(self, monkeypatch):
        calls = []
        monkeypatch.setattr(TxWorkload, "_arrivals", lambda *args: calls.append(args))
        config = make_config(has_trans=True, t_technique="light", t_n=5.0, block_target=50)
        Simulation(config, 0).run()
        assert calls == []

    def test_zero_delay_arrivals_at_creation_instant(self):
        assert set(self.stamps(t_delay=0.0).values()) == {100.0}

    def test_zero_mean_exponential_is_zero(self):
        stamps = self.stamps(at=7.0, t_delay=0.0, delay_mode="exponential")
        assert set(stamps.values()) == {7.0}

    def test_exponential_draws_every_recipient_in_node_order(self):
        # One draw per node other than the submitter, ascending, non-miners
        # included: the random stream of a per-recipient broadcast.
        params = dict(
            n_n=6, miners=(0.5, 0.0, 0.5), has_trans=True, t_technique="full",
            t_n=1e-6, t_delay=3.0, delay_mode="exponential",
        )
        sim = Simulation(make_config(**params), 0)
        sim.workload.start(sim.consensus.miner_ids)
        replay = RandomSource(0)
        replay.rng.bit_generator.state = sim.rng.rng.bit_generator.state
        t = some_tx(1000, ts=50.0, submitter=1)
        sim.workload.on_tx_create(Event(EventKind.TX_CREATE, 1, 50.0, t))
        expected = {n: 50.0 + sample_exponential(replay, 3.0) for n in (0, 2, 3, 4, 5)}
        (entry,) = [e for e in sim.workload.pending if e[1] == 1000]
        assert dict(zip(sim.consensus.miner_ids, entry[3])) == {0: expected[0], 2: expected[2]}
