"""The paper's claim on held-out data: a handful of greedily chosen problems
discriminates agents on fresh playthroughs better than a random handful.

Each cell's playthroughs are split by parity into halves A and B.  Greedy
selection runs on A, and its picks are scored on B against random subsets
scored on B, so no gain is measured on the data that chose the problems.
"""

import statistics

import numpy as np
import pytest

from infobench.infogain import greedy_select, info_gain_set, metric_keys_for
from infobench.perf import aggregate
from infobench.synth import SynthSpec, archetypes, generate

SEED = 5
K = 5
RANDOM_SUBSETS = 30


def halves(gap):
    spec = SynthSpec(27, archetypes("mixed", 108, gap, 1.0), samples_per_cell=40, seed=SEED)
    records = generate(spec)
    # each cell's 40 playthroughs are contiguous, so global parity is parity
    # within the cell
    return aggregate(records[0::2]), aggregate(records[1::2])


@pytest.mark.filterwarnings("ignore:.*sub-floor variance")
@pytest.mark.parametrize(
    "gap",
    [
        pytest.param(
            0.2,
            marks=pytest.mark.xfail(
                strict=True,
                reason="the win-cell noise scale, sample stddev floored at 1e-9, makes "
                "all-win or all-loss cells of half A look decisive: greedy's picks "
                "score 1.168 bits on B against a random median of 1.264",
            ),
        ),
        0.5,
        1.0,
    ],
)
def test_greedy_picks_beat_the_random_median_on_held_out_data(gap):
    a, b = halves(gap)

    def bits_on_b(problems):
        return info_gain_set(b, [key for p in problems for key in metric_keys_for(p, "combined")])

    picks = greedy_select(a, K, "combined").selected
    assert len(picks) == K
    rng = np.random.default_rng(SEED)
    random_bits = [
        bits_on_b(rng.choice(b.problems, K, replace=False)) for _ in range(RANDOM_SUBSETS)
    ]
    assert bits_on_b(picks) >= statistics.median(random_bits)
