"""Pinned output bytes.

Each ``run`` case runs a small configuration through the CLI and pins the
SHA-256 of its ``runs.csv`` and ``aggregate.csv`` and of its standard output,
each without ``wall_clock_s``, the one column, row or line that varies
between identical runs.  The ``sweep`` case pins ``sweep.csv`` and standard
output the same way.  A change to transaction arrival, packing, fork
handling, block delivery or the random stream moves the digests; so does a
reordered, renamed or reformatted column or row.  Recompute a digest only
for a change meant to alter results, and say so where the change is
described.
"""

import csv
import hashlib
import io

import pytest

from chainsim import cli

from conftest import read_rows, strip_wall_clock

CASES = {
    # Exponential delays drawn per recipient, fee-varied packing, forks, and
    # nodes 5 and 6 that never mine but submit transactions.
    "exponential-delay": (
        """
B_interval = 30
B_delay = 4
B_size = 0.01
hasTrans = true
T_technique = full
T_n = 1
T_delay = 2
T_size = exp:0.0005
T_fee = exp:0.3
N_n = 7
delay_mode = exponential
block_target = 120
Runs = 2
seed = 7
""",
        {
            "runs.csv": "da373165f62ec43725ddc198ba77caf39d0923f33d0658d98d8f68cee5cb713b",
            "aggregate.csv": "bee49c241e3b228e74ef39cc045b1906ad47d39152ae70dfa3870b930bc2967c",
            "stdout": "0fbca05760be0b6f6e4ebecb0d136f8aa8fb51d61316159be6af289df6182efa",
        },
    ),
    # Gas capacity, uncles and the ethereum preset's rewards.
    "gas-uncles": (
        """
preset = ethereum
T_technique = full
T_n = 8
block_target = 150
Runs = 2
seed = 3
""",
        {
            "runs.csv": "e7773044530ae29f8b20a325b73fe8219368e78970359d10ec53960702361ae3",
            "aggregate.csv": "51fc51f50112dd65edb6be2c58b6df8c7f8e92dbf4fb90337d02fca002c08670",
            "stdout": "319ccb4e121bb2eaf0919253766e24b9843ee17041555793beb302349a476394",
        },
    ),
    # One node: integers(1) reads nothing, so no submitter or recipient is
    # drawn and every transaction takes only its gap, size and price.
    "single-node": (
        """
B_interval = 30
B_delay = 4
B_size = 0.01
hasTrans = true
T_technique = full
T_n = 1
T_delay = 2
T_size = exp:0.0005
T_fee = exp:0.3
N_n = 1
miners = 1
block_target = 120
Runs = 2
seed = 23
""",
        {
            "runs.csv": "834257e49a0dcd97ccb218b05116ae298fc56c4167a26f81160b90dd8724070f",
            "aggregate.csv": "32b9ef7c18412540eaccd0dbd3852bf1ce4c245528fb949ba6d18f007816c4ce",
            "stdout": "4e4c61946aaec8b026b566c4e82b8db69b0f654fdce51e03ef2062e8027ea275",
        },
    ),
    # 100 nodes, the five default miners and exponential delays: submitters
    # past the miners, 99 delays per transaction, and a Lemire rejection
    # bound of 2**32 % 100 = 96 for each submitter and recipient draw.
    "hundred-nodes-exponential": (
        """
B_interval = 30
B_delay = 4
B_size = 0.01
hasTrans = true
T_technique = full
T_n = 0.2
T_delay = 2
T_size = exp:0.0005
T_fee = exp:0.3
N_n = 100
delay_mode = exponential
block_target = 120
Runs = 2
seed = 29
""",
        {
            "runs.csv": "92452becb1526e8b9e3539fd94d6a2390629c4d6d0d40b240bf3751415f15408",
            "aggregate.csv": "33e1c3844ddf9d4f29999d7d885a6b1dfbec0c6176bd4176dc2a1ce6da5f76cb",
            "stdout": "cc69a67d7c283d65ae136cc5945f0c70cd0ae2ef884e67f7583f783c2c8e0f8d",
        },
    ),
}


# Bare and light runs with non-mining nodes both below and above the miners.
NON_MINER_CASES = {
    # Constant delay with forks; nodes 0 and 2 sit between miners, 4 and 5
    # above them.
    "light-constant": (
        """
B_interval = 30
B_delay = 4
B_size = 0.01
hasTrans = true
T_technique = light
T_n = 1
T_size = exp:0.0005
T_fee = exp:0.3
N_n = 6
miners = 0,0.4,0,0.6
block_target = 200
Runs = 2
seed = 11
""",
        {
            "runs.csv": "b99c497d4b2e125f99aad50b230c2f3a6e3e55acdc4ffda706c97632c0416619",
            "aggregate.csv": "3a8e1d77549c7cada87b6d8dfe22be566dc879a73b1ff5ce942fa315573201e1",
            "stdout": "ef406d680a79ff8cb22eff39e13581473eb77b73e22b6e28b2510e12597d2a5e",
        },
    ),
    # Exponential delays, drawn for every node but the sender, and uncles.
    "bare-exponential-uncles": (
        """
B_interval = 30
B_delay = 6
hasTrans = false
N_n = 6
miners = 0,0.4,0,0.6
delay_mode = exponential
uncles_enabled = true
block_target = 200
Runs = 2
seed = 5
""",
        {
            "runs.csv": "5ed02ab1616be0c3d10320e833cbd439349b87de9a06ad3322340fb2eebeb7bf",
            "aggregate.csv": "f1e6be3d13fe828e6af91ba94e4fd1c6e988308972bc1aebc501eaf1aae6ef07",
            "stdout": "8669898c466be8a2de11a7396954bdc0210a5e77b588b3ae6cb4569f549901dc",
        },
    ),
    # Stakes, not hash power, decide who creates: node 3 mines with no hash
    # power and node 0 has hash power but never mines.
    "stake-selector": (
        """
B_interval = 30
B_delay = 4
N_n = 7
miners = 0.5,0.5,0,0
stakes = 0,1,0,3
selector = stake
delay_mode = exponential
uncles_enabled = true
block_target = 200
Runs = 2
seed = 9
""",
        {
            "runs.csv": "be97f945971e714e30472fc91830a0bdff7ba8cb0f371bcdb85213ce887ed3b0",
            "aggregate.csv": "852d719dd023c4c411f7ac919f6871e1d2e3120225c59ed39d95a25d8f07e589",
            "stdout": "f8c45165f9254ddd2fb10de08c3e620c110def0510f222db3c8d91c3dcd24c65",
        },
    ),
}


# Events due at the same instant: their dispatch order is pinned, as it
# decides whether a delivery or a creation happens first.
TIE_ORDER_CASES = {
    # Every delivery is due at its block's creation instant, under the PoW
    # race with uncles.
    "zero-delay-uncles": (
        """
B_interval = 30
B_delay = 0
N_n = 5
uncles_enabled = true
block_target = 200
Runs = 2
seed = 13
""",
        {
            "runs.csv": "814a32c444d5747c25ad70ff0dddd5b0e82cb62f6702f1787c24a05d08f2fd4c",
            "aggregate.csv": "fb89cdead17081a610846b4cad1c968b4fe78d14903e6e4ff181cf0cfb8c0a5a",
            "stdout": "6b2e0d29ed344e12d606ab680e679259f8ad2c16427049a707b94b5c08b4417a",
        },
    ),
    # Each block reaches the other miner at the instant of that miner's
    # next slot, with transactions relayed at once.
    "roundrobin-delay-equals-interval": (
        """
B_interval = 30
B_delay = 30
B_size = 0.01
hasTrans = true
T_technique = full
T_n = 1
T_delay = 0
T_size = exp:0.0005
T_fee = exp:0.3
N_n = 6
miners = 0.4,0,0.6
selector = roundrobin
block_target = 120
Runs = 2
seed = 17
""",
        {
            "runs.csv": "423d2cd64b510106eef0ea6ea95925ab051361f0e61ce502cbb779ad7594248b",
            "aggregate.csv": "c128bcf6db8cf03cafd211b4b95c368b1c45a95823c14439554e8a47e4915dc2",
            "stdout": "4c57684f32112b1677c9ee4169d7972cdc1400769c6268e8b1d98f3cb3ff027d",
        },
    ),
    "roundrobin-zero-delay": (
        """
B_interval = 30
B_delay = 0
N_n = 5
selector = roundrobin
block_target = 200
Runs = 2
seed = 19
""",
        {
            "runs.csv": "b73f3a1cc4e03543983ce6dc573bc0dc9b6c2dc314458aa7590e6f1269a96598",
            "aggregate.csv": "10a089088824469f87f3ffdbfa14e8fc5d5ee8adb72e1b124c2e88e70e3cd521",
            "stdout": "79bcb3e8d46adf877eba8c23814d05c01572b806d3714e49bda56a7795606317",
        },
    ),
}


# Light mode, where blocks carry counts, not transactions: aggregate.csv has
# no mean_tx_latency_s row.
LIGHT_CASES = {
    # Exponential gas sizes packed against the gas limit, with uncles.
    "ethereum-light": (
        """
preset = ethereum
block_target = 300
Runs = 2
seed = 4
""",
        {
            "runs.csv": "8f396fde21d08776f82649ddb9d8ba80d0b8b9717af1434f24b6627f9f51bd30",
            "aggregate.csv": "51723bdeced2fad833c9691cc868b32f93f5aa0bd49649a43e1eceb35637108c",
            "stdout": "41042b3b942174aa5235ae16c24418ad6bd9dd60c837097fe1fc1c7c967904f3",
        },
    ),
}


# A 2x2 full-mode sweep with runs spread over two workers.
SWEEP_CASE = (
    """
B_size = 0.01
hasTrans = true
T_technique = full
T_n = 1
T_delay = 2
T_size = exp:0.0005
T_fee = exp:0.3
N_n = 6
block_target = 60
Runs = 2
seed = 31
""",
    ["--intervals", "20,60", "--delays", "1,4", "--parallel", "2"],
    {
        "sweep.csv": "ea0cf067cd75a9515df550c33f88008614e3744ac8d26763c7389e302a6d3c5d",
        "stdout": "bdbe3a1801385d96f9d872112443994522b79614c6a35e7c8ae145b84499511f",
    },
)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def csv_digest(path):
    buffer = io.StringIO()
    csv.writer(buffer).writerows(strip_wall_clock(read_rows(path)))
    return digest(buffer.getvalue())


def stdout_digest(out):
    lines = out.splitlines(keepends=True)
    return digest("".join(line for line in lines if not line.lstrip().startswith("wall_clock_s")))


def run_digests(tmp_path, capsys, text):
    config = tmp_path / "sim.cfg"
    config.write_text(text)
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    return {
        "runs.csv": csv_digest(out / "runs.csv"),
        "aggregate.csv": csv_digest(out / "aggregate.csv"),
        "stdout": stdout_digest(capsys.readouterr().out),
    }


@pytest.mark.parametrize("name", list(CASES))
def test_full_mode_runs_csv_digest(tmp_path, capsys, name):
    text, digests = CASES[name]
    assert run_digests(tmp_path, capsys, text) == digests


@pytest.mark.parametrize("name", list(NON_MINER_CASES))
def test_non_miner_runs_csv_digest(tmp_path, capsys, name):
    text, digests = NON_MINER_CASES[name]
    assert run_digests(tmp_path, capsys, text) == digests


@pytest.mark.parametrize("name", list(TIE_ORDER_CASES))
def test_tie_order_runs_csv_digest(tmp_path, capsys, name):
    text, digests = TIE_ORDER_CASES[name]
    assert run_digests(tmp_path, capsys, text) == digests


@pytest.mark.parametrize("name", list(LIGHT_CASES))
def test_light_mode_digests(tmp_path, capsys, name):
    text, digests = LIGHT_CASES[name]
    assert run_digests(tmp_path, capsys, text) == digests


def test_parallel_sweep_digests(tmp_path, capsys):
    text, grid, digests = SWEEP_CASE
    config = tmp_path / "sim.cfg"
    config.write_text(text)
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli.main(["sweep", "--config", str(config), *grid, "--out", str(out)]) == 0
    assert {
        "sweep.csv": csv_digest(out / "sweep.csv"),
        "stdout": stdout_digest(capsys.readouterr().out),
    } == digests
