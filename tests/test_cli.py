import dataclasses
import multiprocessing
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsim import cli, runner
from chainsim import config as config_module
from chainsim.config import parse_config
from chainsim.runner import run_many, worker_pool
from chainsim.stats import aggregate

from conftest import make_config, read_rows, strip_wall_clock

BASE_CONFIG = """
B_interval = 60
B_delay = 1.0
hasTrans = true
T_technique = light
T_n = 50
T_size = const:0.000546
B_size = 0.05
block_target = 120
runs = 3
seed = 42
"""


def write_config(tmp_path, text=BASE_CONFIG, name="sim.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestRunCommand:
    def test_run_writes_reports(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
        rows = read_rows(out / "runs.csv")
        assert rows[0] == [
            "run_index", "seed", "blocks_created", "blocks_included", "stale_rate",
            "throughput_tps", "mean_tx_latency_s",
            "share_0", "share_1", "share_2", "share_3", "share_4",
            "reward_share_0", "reward_share_1", "reward_share_2", "reward_share_3",
            "reward_share_4", "wall_clock_s",
        ]
        assert len(rows) == 4  # header + 3 runs
        assert rows[1][0] == "0" and rows[1][1] == "42"
        agg_rows = read_rows(out / "aggregate.csv")
        assert agg_rows[0] == ["metric", "mean", "half_width_95", "runs"]
        # Light mode has no latency row; the digests drop wall_clock_s, so its place is pinned here.
        assert [r[0] for r in agg_rows[1:]] == [
            "blocks_created", "blocks_included", "stale_rate", "throughput_tps",
            "blocks_per_day", "wall_clock_s",
            "share_0", "share_1", "share_2", "share_3", "share_4",
            "reward_share_0", "reward_share_1", "reward_share_2", "reward_share_3",
            "reward_share_4",
        ]
        assert "B_interval=60" in capsys.readouterr().out

    def test_run_matches_api(self, tmp_path):
        config_path = write_config(tmp_path)
        out = tmp_path / "out"
        cli.main(["run", "--config", str(config_path), "--out", str(out)])
        config = parse_config(config_path)
        reports = run_many(config)
        rows = read_rows(out / "runs.csv")
        for row, report in zip(rows[1:], reports):
            assert int(row[2]) == report.blocks_created
            assert float(row[4]) == pytest.approx(report.stale_rate)
            assert float(row[5]) == pytest.approx(report.throughput_tps)

    def test_seed_override(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        cli.main(["run", "--config", str(config), "--seed", "99", "--out", str(out)])
        rows = read_rows(out / "runs.csv")
        assert rows[1][1] == "99"

    def test_stake_selector_without_stakes_matches_pow(self, tmp_path):
        # Stakes default to the hash-power fractions, non-mining nodes included.
        outputs = []
        for selector in ("pow", "stake"):
            text = BASE_CONFIG.replace("B_delay = 1.0", "B_delay = 20")
            text += f"N_n = 7\nselector = {selector}\n"
            config = write_config(tmp_path, text, f"{selector}.cfg")
            out = tmp_path / selector
            assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
            outputs.append(strip_wall_clock(read_rows(out / "runs.csv")))
        assert outputs[0] == outputs[1]
        assert any(float(row[4]) > 0 for row in outputs[0][1:])  # forks happened

    def test_config_error_exit_2(self, tmp_path, capsys):
        config = write_config(tmp_path, "B_interval = -1\nsim_time = 10\n")
        assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad",
        [
            "B_delay = nan",
            "B_reward = nan",
            "B_interval = inf",
            "B_interval = nan",
            "stakes = 0,0,0,0,0\nselector = stake",
            "stakes = 2,-1,0,0,0",
            "T_fee = const:-5",
        ],
    )
    def test_bad_number_exit_2(self, tmp_path, capsys, bad):
        config = write_config(tmp_path, f"{bad}\nblock_target = 20\nruns = 1\n")
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (out / "runs.csv").exists()

    def test_hist_path_relative_to_config_from_other_cwd(self, tmp_path, monkeypatch):
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "h.txt").write_text("0.0005 0.5\n0.001 0.5\n")
        config = write_config(sub, "t_size = hist:h.txt\nblock_target = 20\nruns = 1\n", "h.cfg")
        monkeypatch.chdir(tmp_path)
        assert cli.main(["run", "--config", "sub/h.cfg", "--out", "out"]) == 0
        assert (tmp_path / "out" / "runs.csv").exists()

    def test_hist_file_read_once_per_command(self, tmp_path):
        # The config check and all three runs share one parse of the file, and
        # so do a --seed variant and every sweep cell made from the base.
        (tmp_path / "h.txt").write_text("0.0005 0.5\n0.001 0.5\n")
        config = write_config(tmp_path, BASE_CONFIG + "T_fee = hist:h.txt\n")
        grid = ["--intervals", "30,60", "--delays", "1,2"]
        commands = {
            "run": (["run"], "runs.csv", 4),
            "run-seed": (["run", "--seed", "3"], "runs.csv", 4),
            "sweep": (["sweep", *grid], "sweep.csv", 5),
            "sweep-seed": (["sweep", *grid, "--seed", "3"], "sweep.csv", 5),
        }
        for name, (argv, table, rows) in commands.items():
            out = tmp_path / name
            loads = mock.patch.object(
                config_module, "load_histogram", wraps=config_module.load_histogram
            )
            with loads as load:
                assert cli.main([*argv, "--config", str(config), "--out", str(out)]) == 0
            assert load.call_count == 1, name
            assert len(read_rows(out / table)) == rows

    def test_missing_config_exit_2(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_zero_horizon_reports_zeros_exit_0(self, tmp_path):
        config = write_config(
            tmp_path, "B_interval = 60\nsim_time = 0\nruns = 1\nhasTrans = false\n"
        )
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
        row = read_rows(out / "runs.csv")[1]
        assert row[2] == "0" and row[3] == "0"  # nothing created or included
        assert float(row[5]) == 0.0

    def test_byte_identical_csv_for_same_seed(self, tmp_path):
        config = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cli.main(["run", "--config", str(config), "--out", str(out_a)])
        cli.main(["run", "--config", str(config), "--out", str(out_b)])
        assert strip_wall_clock(read_rows(out_a / "runs.csv")) == strip_wall_clock(
            read_rows(out_b / "runs.csv")
        )
        assert strip_wall_clock(read_rows(out_a / "aggregate.csv")) == strip_wall_clock(
            read_rows(out_b / "aggregate.csv")
        )

    def test_parallel_equals_serial(self, tmp_path):
        config = write_config(tmp_path)
        out_s, out_p = tmp_path / "s", tmp_path / "p"
        cli.main(["run", "--config", str(config), "--out", str(out_s)])
        cli.main(["run", "--config", str(config), "--parallel", "3", "--out", str(out_p)])
        assert strip_wall_clock(read_rows(out_s / "runs.csv")) == strip_wall_clock(
            read_rows(out_p / "runs.csv")
        )

    def test_partial_outputs_removed_on_failure(self, tmp_path, monkeypatch):
        config = write_config(tmp_path)
        out = tmp_path / "out"

        def boom(path, aggregates):
            raise RuntimeError("disk full")

        monkeypatch.setattr(cli, "write_aggregate_csv", boom)
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 3
        assert not (out / "runs.csv").exists()
        assert not (out / "aggregate.csv").exists()


class TestSweepCommand:
    def test_grid_rows(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        code = cli.main([
            "sweep", "--config", str(config),
            "--intervals", "30,60", "--delays", "0.5,2",
            "--out", str(out),
        ])
        assert code == 0
        rows = read_rows(out / "sweep.csv")
        assert rows[0][:4] == ["b_interval", "b_delay", "stale_rate", "throughput_tps"]
        assert "share_0" in rows[0] and "wall_clock_s" in rows[0]
        assert len(rows) == 5
        assert [r[0] for r in rows[1:]] == ["30", "30", "60", "60"]

    def test_single_cell_matches_run_aggregates(self, tmp_path):
        config_path = write_config(tmp_path)
        out = tmp_path / "out"
        cli.main([
            "sweep", "--config", str(config_path),
            "--intervals", "60", "--delays", "1.0",
            "--out", str(out),
        ])
        rows = read_rows(out / "sweep.csv")
        config = parse_config(config_path)
        aggs = aggregate(run_many(config))
        cell = dict(zip(rows[0], rows[1]))
        assert float(cell["stale_rate"]) == pytest.approx(aggs["stale_rate"].mean)
        assert float(cell["throughput_tps"]) == pytest.approx(aggs["throughput_tps"].mean)
        assert float(cell["share_0"]) == pytest.approx(aggs["share_0"].mean)

    def test_bad_grid_exit_2(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code = cli.main([
            "sweep", "--config", str(config), "--intervals", "", "--delays", "1",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_negative_fee_exit_2(self, tmp_path, capsys):
        config = write_config(tmp_path, BASE_CONFIG + "T_fee = const:-5\n")
        out = tmp_path / "o"
        code = cli.main(["sweep", "--config", str(config), *SWEEP_GRID, "--out", str(out)])
        assert code == 2
        assert "T_fee must not yield negative prices" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("intervals, delays", [("nan", "1"), ("10", "inf"), ("0", "1")])
    def test_bad_grid_value_exit_2(self, tmp_path, capsys, intervals, delays):
        config = write_config(tmp_path)
        code = cli.main([
            "sweep", "--config", str(config), "--intervals", intervals, "--delays", delays,
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "config error:" in capsys.readouterr().err


SWEEP_GRID = ["--intervals", "30,60", "--delays", "0.5,2"]


@pytest.fixture
def pools_made(monkeypatch):
    """The ``max_workers`` of every process pool the runner constructs."""
    made = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            made.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", CountingPool)
    return made


@pytest.fixture
def submitted(monkeypatch, pools_made):
    """The (config, run index) of every run submitted to a counting pool."""
    runs = []

    class SubmitCountingPool(runner.ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            runs.append(args)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", SubmitCountingPool)
    return runs


def run_key(report):
    """Everything a report holds but its wall-clock time."""
    return dataclasses.replace(report, wall_clock_s=0.0)


class TestWorkerPool:
    def test_parallel_sweep_equals_serial(self, tmp_path):
        config = write_config(tmp_path)
        out_s, out_p = tmp_path / "s", tmp_path / "p"
        base = ["sweep", "--config", str(config)] + SWEEP_GRID
        assert cli.main(base + ["--out", str(out_s)]) == 0
        assert cli.main(base + ["--parallel", "2", "--out", str(out_p)]) == 0
        assert strip_wall_clock(read_rows(out_s / "sweep.csv")) == strip_wall_clock(
            read_rows(out_p / "sweep.csv")
        )

    @pytest.mark.parametrize("parallel, workers", [("2", 2), ("5", 3)])
    def test_sweep_forks_one_pool(self, tmp_path, pools_made, parallel, workers):
        # Four cells of three runs each share min(--parallel, Runs) workers.
        config = write_config(tmp_path)
        argv = ["sweep", "--config", str(config)] + SWEEP_GRID + ["--parallel", parallel]
        assert cli.main(argv + ["--out", str(tmp_path / "a")]) == 0
        assert pools_made == [workers]
        # The pool lives for one command: the next command forks its own.
        assert cli.main(argv + ["--out", str(tmp_path / "b")]) == 0
        assert pools_made == [workers, workers]
        assert multiprocessing.active_children() == []

    def test_library_calls_share_an_open_pool(self, pools_made):
        config = make_config(runs=2, block_target=50)
        run_many(config, parallel=2)
        run_many(config, parallel=2)
        assert pools_made == [2, 2]  # outside a pool: one pool per call, as before
        with worker_pool(2):
            first = run_many(config, parallel=2)
            second = run_many(config, parallel=4)
        assert pools_made == [2, 2, 2]
        assert [r.seed for r in first] == [r.seed for r in second] == [42, 43]
        assert multiprocessing.active_children() == []

    @settings(max_examples=40, deadline=None)
    @given(
        intervals=st.lists(st.floats(1.0, 600.0), min_size=1, max_size=3),
        delays=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=3),
        runs=st.integers(1, 3),
        block_target=st.integers(1, 30),
        workload=st.sampled_from(
            ["hasTrans = false", "T_technique = light\nT_n = 20\nT_size = exp:0.002\nB_size = 0.05"]
        ),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_random_grid_parallel_equals_serial(
        self, intervals, delays, runs, block_target, workload, seed
    ):
        # The same seed gives the same bytes, pipelined or not.
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            text = f"{workload}\nblock_target = {block_target}\nruns = {runs}\nseed = {seed}\n"
            argv = [
                "sweep", "--config", str(write_config(tmp, text)),
                "--intervals", ",".join(map(repr, intervals)),
                "--delays", ",".join(map(repr, delays)),
            ]
            assert cli.main(argv + ["--out", str(tmp / "s")]) == 0
            assert cli.main(argv + ["--parallel", "2", "--out", str(tmp / "p")]) == 0
            assert strip_wall_clock(read_rows(tmp / "s" / "sweep.csv")) == strip_wall_clock(
                read_rows(tmp / "p" / "sweep.csv")
            )
            assert multiprocessing.active_children() == []

    def test_sweep_submits_every_run_at_its_first_cell(self, tmp_path, monkeypatch, submitted):
        # Four cells of three runs: all twelve are queued, in grid order,
        # before the first cell's reports come back; nothing before that.
        config = write_config(tmp_path)
        real_run_many = cli.run_many
        seen = []

        def watched(cell, parallel=1):
            before = (len(submitted), multiprocessing.active_children())
            reports = real_run_many(cell, parallel=parallel)
            seen.append((before, len(submitted), (cell.b_interval, cell.b_delay)))
            return reports

        monkeypatch.setattr(cli, "run_many", watched)
        argv = ["sweep", "--config", str(config)] + SWEEP_GRID + ["--parallel", "2"]
        assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 0
        grid = [(30.0, 0.5), (30.0, 2.0), (60.0, 0.5), (60.0, 2.0)]
        assert seen[0][:2] == ((0, []), 12)
        assert [entry[1:] for entry in seen] == [(12, cell) for cell in grid]
        assert [(c.b_interval, c.b_delay, i) for c, i in submitted] == [
            cell + (i,) for cell in grid for i in range(3)
        ]
        assert multiprocessing.active_children() == []

    def test_unplanned_config_gets_its_own_runs(self, submitted):
        # A config that is not the next planned one is submitted anew, behind
        # the plan; the planned configs still take their queued runs.
        planned = [make_config(runs=2, block_target=50, b_interval=i) for i in (30.0, 60.0)]
        other = make_config(runs=2, block_target=50, b_interval=90.0)
        with worker_pool(2, planned):
            assert submitted == []
            reports = [run_many(config, parallel=2) for config in (planned[1], other, *planned)]
        # The plan, then the out-of-turn 60 s call, then the 90 s one.
        assert [c.b_interval for c, _ in submitted] == [30, 30, 60, 60, 60, 60, 90, 90]
        expected = [run_many(config) for config in (planned[1], other, *planned)]
        assert [[run_key(r) for r in cell] for cell in reports] == [
            [run_key(r) for r in cell] for cell in expected
        ]
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the failing run is patched in before the workers fork",
    )
    def test_failure_in_last_cell_exit_3(self, tmp_path, monkeypatch, capsys):
        # Every run is queued at the first cell, yet the cells before the
        # failing one still print in grid order.
        config = write_config(tmp_path)
        out = tmp_path / "out"
        parent = os.getpid()
        real_run = runner.Simulation.run

        def fail_in_worker(sim):
            if os.getpid() != parent and (sim.config.b_interval, sim.config.b_delay) == (60.0, 2.0):
                raise RuntimeError("run failed in a worker")
            return real_run(sim)

        monkeypatch.setattr(runner.Simulation, "run", fail_in_worker)
        argv = ["sweep", "--config", str(config)] + SWEEP_GRID
        assert cli.main(argv + ["--parallel", "2", "--out", str(out)]) == 3
        captured = capsys.readouterr()
        cells = [line.split(":")[0] for line in captured.out.splitlines()]
        assert cells == [
            "cell B_interval=30 B_delay=0.5",
            "cell B_interval=30 B_delay=2",
            "cell B_interval=60 B_delay=0.5",
        ]
        assert "run failed in a worker" in captured.err
        assert not (out / "sweep.csv").exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the failing run is patched in before the workers fork",
    )
    def test_worker_failure_exit_3(self, tmp_path, monkeypatch, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        parent = os.getpid()
        real_run = runner.Simulation.run

        def fail_in_worker(sim):
            if os.getpid() != parent and sim.config.b_interval == 60.0:
                raise RuntimeError("run failed in a worker")
            return real_run(sim)

        monkeypatch.setattr(runner.Simulation, "run", fail_in_worker)
        argv = ["sweep", "--config", str(config)] + SWEEP_GRID
        assert cli.main(argv + ["--parallel", "2", "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert "cell B_interval=30" in captured.out  # cells before the failure finished
        assert "run failed in a worker" in captured.err
        assert not (out / "sweep.csv").exists()
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("out", ["taken", "taken/sub"])
@pytest.mark.parametrize(
    "command", [["run"], ["sweep", "--intervals", "60", "--delays", "1"]], ids=["run", "sweep"]
)
def test_unusable_out_exit_3(tmp_path, capsys, command, out):
    # --out names an existing file, or a directory below one.
    config = write_config(tmp_path)
    (tmp_path / "taken").write_text("")
    code = cli.main(command + ["--config", str(config), "--out", str(tmp_path / out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("cannot use --out") and err.count("\n") == 1


def run_chainsim(argv, stdout, timeout=120):
    """Run ``chainsim argv`` in a fresh interpreter, killed after ``timeout`` seconds."""
    src = Path(cli.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "chainsim", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=timeout,
    )


# A refused config exits within a second; a cap that let one through would
# run for hours and take gigabytes.
CAP_TIMEOUT_S = 30


@pytest.mark.parametrize(
    "command", [["run"], ["sweep", "--intervals", "300,600", "--delays", "1"]], ids=["run", "sweep"]
)
def test_unbounded_full_mode_exit_2(tmp_path, command):
    # About 1.8e8 expected transactions per run: refused before any run starts.
    # In a subprocess with a timeout, so a broken cap cannot run unbounded here.
    text = "T_technique = full\nT_n = 100000\nB_interval = 600\nblock_target = 3\n"
    out = tmp_path / "o"
    done = run_chainsim(
        command + ["--config", str(write_config(tmp_path, text)), "--out", str(out)],
        stdout=subprocess.DEVNULL, timeout=CAP_TIMEOUT_S,
    )
    assert done.returncode == 2
    err = done.stderr.decode()
    assert err.startswith("config error: full mode expects") and err.count("\n") == 1
    assert "T_n" in err and "block_target" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command", [["run"], ["sweep", "--intervals", "1,2", "--delays", "0.5"]], ids=["run", "sweep"]
)
def test_unbounded_block_count_exit_2(tmp_path, command):
    # About 1e9 expected blocks per run: refused before any run starts.
    text = "hasTrans = false\nB_interval = 1\nSim_time = 1e9\nRuns = 1\n"
    out = tmp_path / "o"
    done = run_chainsim(
        command + ["--config", str(write_config(tmp_path, text)), "--out", str(out)],
        stdout=subprocess.DEVNULL, timeout=CAP_TIMEOUT_S,
    )
    assert done.returncode == 2
    err = done.stderr.decode()
    assert err.startswith("config error: a run expects about 1e+09 blocks")
    assert err.count("\n") == 1 and "Sim_time" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command", [["run"], ["sweep", "--intervals", "60", "--delays", "1"]], ids=["run", "sweep"]
)
@pytest.mark.parametrize("source", ["file", "flag"])
def test_negative_seed_exit_2(tmp_path, capsys, command, source):
    # Whether the file or --seed sets it, a negative seed is refused before any run.
    text = BASE_CONFIG.replace("seed = 42", "seed = -3") if source == "file" else BASE_CONFIG
    out = tmp_path / "o"
    argv = command + ["--config", str(write_config(tmp_path, text)), "--out", str(out)]
    if source == "flag":
        argv += ["--seed", "-1"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: seed must be non-negative") and err.count("\n") == 1
    assert not out.exists()


def run_with_stdout_closed(argv):
    """Run ``chainsim argv`` in a fresh interpreter whose stdout pipe has
    already lost its reader."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return run_chainsim(argv, stdout=write_end)
    finally:
        os.close(write_end)


@pytest.mark.parametrize(
    "command, names",
    [(["run"], ["runs.csv", "aggregate.csv"]), (["sweep"] + SWEEP_GRID, ["sweep.csv"])],
    ids=["run", "sweep"],
)
def test_closed_stdout_keeps_outputs_exit_0(tmp_path, command, names):
    # As in ``chainsim run ... | head -1``: the text is lost, the results are not.
    config = write_config(tmp_path)
    piped, direct = tmp_path / "piped", tmp_path / "direct"
    done = run_with_stdout_closed(command + ["--config", str(config), "--out", str(piped)])
    assert (done.returncode, done.stderr.decode()) == (0, "")
    assert cli.main(command + ["--config", str(config), "--out", str(direct)]) == 0
    for name in names:
        assert strip_wall_clock(read_rows(piped / name)) == strip_wall_clock(
            read_rows(direct / name)
        )
