"""Pinned output bytes.

Each case runs a small configuration through the CLI and pins the SHA-256 of
its ``runs.csv`` with the ``wall_clock_s`` column removed.  A change to
transaction arrival, packing, fork handling, block delivery or the random
stream moves the digest.  Recompute a digest only for a change meant to
alter results, and say so where the change is described.
"""

import csv
import hashlib
import io

import pytest

from chainsim import cli

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
        "da373165f62ec43725ddc198ba77caf39d0923f33d0658d98d8f68cee5cb713b",
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
        "e7773044530ae29f8b20a325b73fe8219368e78970359d10ec53960702361ae3",
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
        "834257e49a0dcd97ccb218b05116ae298fc56c4167a26f81160b90dd8724070f",
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
        "92452becb1526e8b9e3539fd94d6a2390629c4d6d0d40b240bf3751415f15408",
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
        "b99c497d4b2e125f99aad50b230c2f3a6e3e55acdc4ffda706c97632c0416619",
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
        "5ed02ab1616be0c3d10320e833cbd439349b87de9a06ad3322340fb2eebeb7bf",
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
        "be97f945971e714e30472fc91830a0bdff7ba8cb0f371bcdb85213ce887ed3b0",
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
        "814a32c444d5747c25ad70ff0dddd5b0e82cb62f6702f1787c24a05d08f2fd4c",
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
        "423d2cd64b510106eef0ea6ea95925ab051361f0e61ce502cbb779ad7594248b",
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
        "b73f3a1cc4e03543983ce6dc573bc0dc9b6c2dc314458aa7590e6f1269a96598",
    ),
}


def runs_digest(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("wall_clock_s")
    buffer = io.StringIO()
    csv.writer(buffer).writerows(row[:drop] + row[drop + 1 :] for row in rows)
    return hashlib.sha256(buffer.getvalue().encode()).hexdigest()


def run_digest(tmp_path, text):
    config = tmp_path / "sim.cfg"
    config.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    return runs_digest(out / "runs.csv")


@pytest.mark.parametrize("name", list(CASES))
def test_full_mode_runs_csv_digest(tmp_path, name):
    text, digest = CASES[name]
    assert run_digest(tmp_path, text) == digest


@pytest.mark.parametrize("name", list(NON_MINER_CASES))
def test_non_miner_runs_csv_digest(tmp_path, name):
    text, digest = NON_MINER_CASES[name]
    assert run_digest(tmp_path, text) == digest


@pytest.mark.parametrize("name", list(TIE_ORDER_CASES))
def test_tie_order_runs_csv_digest(tmp_path, name):
    text, digest = TIE_ORDER_CASES[name]
    assert run_digest(tmp_path, text) == digest
