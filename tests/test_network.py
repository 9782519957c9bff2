import numpy as np
import pytest

from chainsim import cli
from chainsim.config import ConfigError, parse_config_text
from chainsim.engine import EventKind, EventQueue, SchedulingError
from chainsim.network import Network
from chainsim.runner import Simulation
from chainsim.streams import ExponentialSampler, Streams
from chainsim.workload import TxWorkload

from conftest import file_one, make_config, pending_arrivals, read_rows, strip_wall_clock


def make_network(n_nodes, block_delay=2.0, mode="constant", seed=1, streams=None):
    """A queue and a network to ``n_nodes`` recipients, drawing from ``streams``
    or from streams of its own."""
    queue = EventQueue()
    config = make_config(
        n_n=n_nodes, miners=(1.0,), b_delay=block_delay, delay_mode=mode
    )
    return queue, Network(queue, streams or Streams(config, seed), config, n_nodes)


def drain(queue):
    """Every entry left in ``queue``, in dispatch order."""
    entries = []
    while (entry := queue.next_event()) is not None:
        entries.append(entry)
    return entries


def some_tx(tid=1, ts=0.0):
    return (tid, ts, 0.001, 0.0002)


class TestDelayModel:
    def test_rejects_negative_delays(self):
        with pytest.raises(ConfigError, match="non-negative"):
            parse_config_text("B_delay = -1\nsim_time = 10\n")
        with pytest.raises(ConfigError, match="non-negative"):
            parse_config_text("T_delay = -0.5\nsim_time = 10\n")


class TestBroadcastBlock:
    def test_constant_delay_fanout(self):
        # One entry carries every recipient but the sender, in node order.
        queue, net = make_network(3)
        block = 0  # genesis's id
        seqs = net.broadcast_block(0, block, at=10.0)
        assert len(queue) == 1
        assert drain(queue) == [(12.0, seqs[0], EventKind.BLOCK_RECEIVE, (1, 2), block)]

    def test_single_node_no_events(self):
        queue, net = make_network(1)
        assert net.broadcast_block(0, 0, at=0.0) == []
        assert len(queue) == 0

    def test_fanout_is_always_n_minus_one(self):
        queue, net = make_network(7)
        net.broadcast_block(3, 0, at=1.0)
        ((*_, targets, _),) = drain(queue)
        assert targets == (0, 1, 2, 4, 5, 6)

    def test_delivery_before_clock_rejected(self):
        for mode in ("constant", "exponential"):
            queue, net = make_network(3, mode=mode)
            queue.schedule(5.0, EventKind.BLOCK_CREATE, 0, None)
            queue.next_event()
            with pytest.raises(SchedulingError):
                net.broadcast_block(0, 0, at=1.0)

    def test_exponential_mean_empirical(self):
        # 10,000 deliveries, mean 2: 3 sigma bound on the sample mean is 0.06.
        queue, net = make_network(2, block_delay=2.0, mode="exponential")
        n = 10_000
        for _ in range(n):
            assert len(net.broadcast_block(0, 0, at=0.0)) == 1
        entries = drain(queue)
        assert len(entries) == n
        assert all(targets == (1,) for *_, targets, _ in entries)
        assert abs(sum(e[0] for e in entries) / n - 2.0) < 0.06

    def test_exponential_mode_draws_per_recipient(self):
        # One single-recipient entry per node, each with its own delay.
        queue, net = make_network(4, block_delay=3.0, mode="exponential")
        assert len(net.broadcast_block(0, 0, at=0.0)) == 3
        entries = drain(queue)
        assert sorted(e[3] for e in entries) == [(1,), (2,), (3,)]
        assert len({e[0] for e in entries}) == 3  # independent draws

    def test_zero_mean_exponential_is_one_constant_entry(self):
        streams = Streams(make_config(n_n=3, miners=(1.0,), b_delay=0.0, delay_mode="exponential"), 1)
        queue, net = make_network(3, block_delay=0.0, mode="exponential", streams=streams)
        state = streams.rng.bit_generator.state
        net.broadcast_block(1, 0, at=4.0)
        assert [(e[0], e[3]) for e in drain(queue)] == [(4.0, (0, 2))]
        assert streams.rng.bit_generator.state == state  # nothing drawn


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

            def counting(targets, time, block, receive=sim.handlers[EventKind.BLOCK_RECEIVE]):
                receivers.extend(targets)
                return receive(targets, time, block)

            sim.handlers[EventKind.BLOCK_RECEIVE] = counting
            sim.run()
            made = sim.world.timestamp
            landed = sum(made[i] + 4.0 <= 3000.0 for i in range(1, len(made)))
            assert landed > 50
            assert len(receivers) == landed * 3
            assert set(receivers) == {0, 1, 2, 3}

    def test_recipient_ids_are_kept_only_for_senders(self):
        # Three low-id miners among 20,000 nodes: only the miners ever
        # broadcast, so only they get a tuple, and it holds the other two.
        config = make_config(n_n=20_000, miners=(0.5, 0.3, 0.2), b_delay=5.0)
        sim = Simulation(config, 0)
        assert sim.network.recipients == 3
        assert sim.network._others == {}
        sim.run()
        assert len(sim.world.depth) > 1
        assert sim.network._others == {0: (1, 2), 1: (0, 2), 2: (0, 1)}

    def test_exponential_draws_for_nodes_past_the_recipients(self):
        # Node 3 never mines and gets no event, but still takes its draw.
        config = make_config(n_n=4, miners=(0.5, 0.0, 0.5), b_delay=2.0, delay_mode="exponential")
        sim = Simulation(config, 0)
        replay, delay = np.random.default_rng(0), ExponentialSampler(2.0)
        replay.bit_generator.state = sim.streams.rng.bit_generator.state
        sim.network.broadcast_block(0, 0, at=1.0)
        entries = sorted(drain(sim.queue), key=lambda e: e[3])
        assert [(e[3], e[0]) for e in entries] == [
            ((1,), 1.0 + delay.draw(replay)),
            ((2,), 1.0 + delay.draw(replay)),
        ]
        delay.draw(replay)
        assert sim.streams.rng.random() == replay.random()


class TestBroadcastTx:
    """A full-mode transaction is filed, at creation, with the delay after
    which each block-creating node holds it."""

    @staticmethod
    def stamps(submitter=1, at=100.0, **overrides):
        """Create one transaction at ``at``; return {miner id: arrival}."""
        params = dict(
            n_n=5, miners=(0.25, 0.25, 0.25, 0.25), has_trans=True,
            t_technique="full", t_n=1e-6, t_delay=5.0,
        )
        params.update(overrides)
        sim = Simulation(make_config(**params), 0)
        sim.workload.start()
        file_one(sim.workload, submitter, some_tx(1000, ts=at))
        return dict(zip(sim.world.miner_ids, pending_arrivals(sim.workload)[1000]))

    def test_constant_delay_fanout(self):
        # The submitter holds it at once, every other miner 5 s later; the
        # non-mining node 4 gets no stamp.
        assert self.stamps(submitter=1) == {0: 105.0, 1: 100.0, 2: 105.0, 3: 105.0}

    def test_light_mode_never_broadcasts_tx(self, monkeypatch):
        calls = []
        monkeypatch.setattr(TxWorkload, "file", lambda *args: calls.append(args))
        config = make_config(has_trans=True, t_technique="light", t_n=5.0, block_target=50)
        Simulation(config, 0).run()
        assert calls == []

    def test_zero_delay_arrivals_at_creation_instant(self):
        assert set(self.stamps(t_delay=0.0).values()) == {100.0}

    def test_zero_mean_exponential_is_zero(self):
        stamps = self.stamps(at=7.0, t_delay=0.0, delay_mode="exponential")
        assert set(stamps.values()) == {7.0}

    @pytest.mark.stream_pin
    def test_exponential_draws_every_recipient_in_node_order(self):
        # One draw per node other than the submitter, ascending, non-miners
        # included: the random stream of a per-recipient broadcast.
        params = dict(
            n_n=6, miners=(0.5, 0.0, 0.5), has_trans=True, t_technique="full",
            t_n=1e-6, t_delay=3.0, delay_mode="exponential",
        )
        sim = Simulation(make_config(**params), 0)
        advance = sim.workload.start()
        replay = np.random.default_rng(0)
        replay.bit_generator.state = sim.streams.rng.bit_generator.state
        submitter, tx = sim.streams.held
        at = tx[1]
        advance(at)  # files the first transaction, drawing its delays
        others = [n for n in range(6) if n != submitter]
        delay = ExponentialSampler(3.0)
        expected = {n: at + delay.draw(replay) for n in others}
        expected[submitter] = at
        arrivals = dict(zip(sim.world.miner_ids, pending_arrivals(sim.workload)[tx[0]]))
        assert arrivals == {0: expected[0], 2: expected[2]}
