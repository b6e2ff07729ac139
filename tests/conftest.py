import numpy as np
import pytest

from infobench.perf import (
    Measure,
    MetricKey,
    PerformanceStat,
    PerformanceTable,
    SIGMA_FLOOR_DEFAULT,
)
from infobench.synth import Archetype, SynthSpec, exact_table, sampled_table


def score_table(games, counts=10, sigma_floor=SIGMA_FLOOR_DEFAULT):
    """Build a score-only table.

    games: mapping problem -> (means, stddevs), one value per agent.
    Agents are named a00, a01, ... in order.
    """
    n = len(next(iter(games.values()))[0])
    agents = [f"a{i:02d}" for i in range(n)]
    cells = {}
    for problem, (mus, sds) in games.items():
        for i, agent in enumerate(agents):
            cells[(agent, MetricKey(problem, Measure.SCORE))] = PerformanceStat(
                float(mus[i]), float(sds[i]), counts
            )
    return PerformanceTable.from_stats(cells, sigma_floor)


def full_table(problems, counts=10, sigma_floor=SIGMA_FLOOR_DEFAULT):
    """Build a table with both measures.

    problems: mapping problem -> dict with keys "win" and "score", each
    a (means, stddevs) pair per agent.
    """
    first = next(iter(problems.values()))
    n = len(first["score"][0])
    agents = [f"a{i:02d}" for i in range(n)]
    cells = {}
    for problem, spec in problems.items():
        for measure in (Measure.WIN_RATE, Measure.SCORE):
            mus, sds = spec[measure.value]
            for i, agent in enumerate(agents):
                cells[(agent, MetricKey(problem, measure))] = PerformanceStat(
                    float(mus[i]), float(sds[i]), counts
                )
    return PerformanceTable.from_stats(cells, sigma_floor)


def random_score_table(rng, n_agents, n_keys, mu_range=(-5.0, 5.0), sd_range=(0.5, 3.0)):
    """Random score-only instance kept inside the oracle's direct-evaluation range."""
    games = {
        f"p{j:02d}": (
            rng.uniform(*mu_range, n_agents),
            rng.uniform(*sd_range, n_agents),
        )
        for j in range(n_keys)
    }
    return score_table(games)


def score_keys(table):
    return [k for k in table.keys if k.measure == Measure.SCORE]


def fixture_suite() -> list[tuple[str, PerformanceTable]]:
    """The fixture tables exercised by the audit-style tests.

    Every fixture keeps at least one strongly separated measure per
    problem: weakly separated correlated measures are exactly the
    regime where the combined-gain audit is expected to flag
    sharpening, and these fixtures are the baseline that must not.
    """
    specs = [
        (
            "identical-exact",
            SynthSpec(5, (Archetype("identical"),) * 3, seed=101),
        ),
        (
            "linear-strong",
            SynthSpec(5, (Archetype("linear", gap=12.0),) * 4, seed=102),
        ),
        (
            "two-cluster",
            SynthSpec(6, (Archetype("two_cluster", gap=15.0),) * 3, seed=103),
        ),
        (
            "delayed",
            SynthSpec(5, (Archetype("delayed", gap=14.0),) * 3, seed=104),
        ),
        (
            "mixed-with-duplicate",
            SynthSpec(
                5,
                (
                    Archetype("linear", gap=12.0),
                    Archetype("duplicate", source=0),
                    Archetype("two_cluster", gap=15.0),
                    Archetype("delayed", gap=14.0),
                ),
                seed=105,
            ),
        ),
    ]
    tables = [(name, exact_table(spec)) for name, spec in specs]
    tables += [
        (
            "linear-sampled",
            sampled_table(SynthSpec(5, (Archetype("linear", gap=12.0),) * 3,
                                    samples_per_cell=2000, seed=106)),
        ),
        (
            "delayed-sampled",
            sampled_table(SynthSpec(5, (Archetype("delayed", gap=14.0),) * 2,
                                    samples_per_cell=2000, seed=107)),
        ),
    ]
    return tables


@pytest.fixture
def three_agent_table():
    """Three agents at unit noise, means 0/1/2, one game."""
    return score_table({"g": ((0.0, 1.0, 2.0), (1.0, 1.0, 1.0))})


# Frozen by an independent high-precision (50-digit) evaluation of the
# belief-channel definition, outside this package.
THREE_AGENT_ROWS = np.array(
    [
        [0.401763329241, 0.354554893627, 0.243681777133],
        [0.319167768454, 0.361664463092, 0.319167768454],
        [0.243681777133, 0.354554893627, 0.401763329241],
    ]
)
THREE_AGENT_MI_BITS = 0.020631421480649083
PEARSON_123_124 = 0.9819805060619657
