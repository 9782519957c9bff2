"""The random layer: only ``src/chainsim/streams.py`` reads the generator, and its samplers."""

import re
from pathlib import Path

import numpy as np

from chainsim.streams import HistogramSampler

from conftest import FixedUniform

SOURCE = Path(__file__).resolve().parent.parent / "src" / "chainsim"
# The pattern of the CI step "Only streams.py reads the random generator".
READS_GENERATOR = re.compile(
    r"rng|random_raw|bit_generator|default_rng|Generator|np\.random|numpy\.random"
    r"|\.random\(|\.integers\(|standard_exponential"
)
# runner.py loads numpy.random once, before a worker pool forks; it reads no generator.
RUNNER_IMPORT = re.compile(r"import numpy\.random  # .*")


def test_only_streams_reads_the_random_generator():
    found = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted(SOURCE.glob("*.py"))
        if path.name != "streams.py"
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if READS_GENERATOR.search(line)
        and not (path.name == "runner.py" and RUNNER_IMPORT.fullmatch(line))
    ]
    assert not found, "only streams.py may read the random generator:\n" + "\n".join(found)


def test_histogram_uniform_on_a_cumulative_probability_takes_the_next_value():
    # As in Generator.choice, a uniform equal to a cumulative probability
    # falls past it: at 0.25 the first value's share has run out.
    sampler = HistogramSampler([1.0, 3.0, 5.0], [0.25, 0.5, 0.25])
    uniforms, expected = [0.0, 0.25, 0.5, 0.75], [1.0, 3.0, 3.0, 5.0]
    assert [sampler.draw(FixedUniform([u])) for u in uniforms] == expected
    assert sampler.from_uniforms(np.array(uniforms)) == expected
    out = np.empty(len(uniforms))
    sampler.draw_into(FixedUniform(uniforms), out)
    assert out.tolist() == expected
