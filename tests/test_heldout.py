"""The paper's claim on held-out data: a handful of greedily chosen problems
discriminates agents on fresh playthroughs better than a random handful.

Each cell's playthroughs are split by parity into halves A and B.  Greedy
selection runs on A, and its picks are scored on B against random subsets
scored on B, so no gain is measured on the data that chose the problems.
"""

import functools
import statistics

import numpy as np
import pytest

from conftest import playthrough_rows, playthroughs
from infobench.infogain import greedy_select, info_gain_set, metric_keys_for
from infobench.perf import aggregate
from infobench.synth import SynthSpec, archetypes, generate

SEED = 5
RANDOM_SUBSETS = 30


@functools.cache
def halves(gap):
    spec = SynthSpec(27, archetypes("mixed", 108, gap, 1.0), samples_per_cell=40, seed=SEED)
    records = playthrough_rows(generate(spec))
    # each cell's 40 playthroughs are contiguous, so global parity is parity
    # within the cell
    return aggregate(playthroughs(records[0::2])), aggregate(playthroughs(records[1::2]))


def below_random(bits, median):
    return pytest.mark.xfail(
        strict=True,
        reason=f"greedy's picks score {bits} bits on B against a random median of "
        f"{median}; the suspect is the win-cell noise scale, sample stddev floored "
        "at 1e-9, which makes all-win or all-loss cells of half A look decisive",
    )


@pytest.mark.filterwarnings("ignore:.*sub-floor variance")
@pytest.mark.parametrize(
    "k, gap",
    [
        # the k=5 cases keep their ids from when k was fixed at 5
        pytest.param(5, 0.2, marks=below_random("1.168", "1.264"), id="0.2"),
        pytest.param(5, 0.5, id="0.5"),
        pytest.param(5, 1.0, id="1.0"),
        pytest.param(10, 0.2, marks=below_random("1.571", "1.866"), id="k10-0.2"),
        pytest.param(10, 0.5, marks=below_random("2.674", "2.710"), id="k10-0.5"),
        pytest.param(10, 1.0, id="k10-1.0"),
    ],
)
def test_greedy_picks_beat_the_random_median_on_held_out_data(k, gap):
    a, b = halves(gap)

    def bits_on_b(problems):
        return info_gain_set(b, [key for p in problems for key in metric_keys_for(p, "combined")])

    picks = greedy_select(a, k, "combined").selected
    assert len(picks) == k
    rng = np.random.default_rng(SEED)
    random_bits = [
        bits_on_b(rng.choice(b.problems, k, replace=False)) for _ in range(RANDOM_SUBSETS)
    ]
    assert bits_on_b(picks) >= statistics.median(random_bits)
