"""Pinned full-mode output bytes.

Each case runs a small full-mode configuration through the CLI and pins the
SHA-256 of its ``runs.csv`` with the ``wall_clock_s`` column removed.  A
change to transaction arrival, packing, fork handling or the random stream
moves the digest.  Recompute a digest only for a change meant to alter
results, and say so where the change is described.
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
}


def runs_digest(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("wall_clock_s")
    buffer = io.StringIO()
    csv.writer(buffer).writerows(row[:drop] + row[drop + 1 :] for row in rows)
    return hashlib.sha256(buffer.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name", list(CASES))
def test_full_mode_runs_csv_digest(tmp_path, name):
    text, digest = CASES[name]
    config = tmp_path / "sim.cfg"
    config.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert runs_digest(out / "runs.csv") == digest
