import math
import tracemalloc

import numpy as np
import pytest

from infobench.perf import (
    Measure,
    PerformanceTable,
    Playthroughs,
    SIGMA_FLOOR_DEFAULT,
    aggregate,
)
from infobench.synth import Archetype, SynthSpec, _archetype_params, generate


def traced_peak(fn, *args) -> int:
    """The ``tracemalloc`` peak, in bytes, of one call ``fn(*args)``."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def playthroughs(rows):
    """``Playthroughs`` holding ``(agent, problem, score, win)`` tuples in
    order; a win is read by its truth value."""
    records = Playthroughs()
    codes = {}
    for agent, problem, score, win in rows:
        records.agents.append(codes.setdefault(agent, len(codes)))
        records.problems.append(codes.setdefault(problem, len(codes)))
        records.scores.append(score)
        records.wins.append(1 if win else 0)
    records.names.extend(codes)
    return records


def playthrough_rows(records):
    """The ``(agent, problem, score, win)`` tuples of ``Playthroughs``, in
    order, as ``str``, ``str``, ``float`` and ``bool``."""
    name = records.names.__getitem__
    return list(zip(map(name, records.agents), map(name, records.problems), records.scores,
                    map(bool, records.wins)))


def score_table(games, counts=10, sigma_floor=SIGMA_FLOOR_DEFAULT):
    """Build a score-only table.

    games: mapping problem -> (means, stddevs), one value per agent.
    Agents are named a00, a01, ... in order.
    """
    return full_table(
        {problem: {"score": spec} for problem, spec in games.items()}, counts, sigma_floor
    )


def full_table(problems, counts=10, sigma_floor=SIGMA_FLOOR_DEFAULT):
    """Build a table from per-measure columns.

    problems: mapping problem -> dict mapping a measure ("win" and/or
    "score") to a (means, stddevs) pair, one value per agent.
    """
    rows = [
        (f"a{i:02d}", problem, measure, float(mu), float(sd), counts)
        for problem, spec in problems.items()
        for measure, (mus, sds) in spec.items()
        for i, (mu, sd) in enumerate(zip(mus, sds))
    ]
    return PerformanceTable.from_stats(rows, sigma_floor)


def cell(table, agent, key):
    """(mean, stddev, count) of one table cell."""
    i, j = table.agents.index(agent), table.key_index(key)
    return float(table.means[i, j]), float(table.stddevs[i, j]), int(table.counts[i, j])


def entry(corr, a, b):
    """The correlation of problems ``a`` and ``b`` in a ``CorrelationMatrix``."""
    return float(corr.values[corr.problems.index(a), corr.problems.index(b)])


def exact_table(spec, sigma_floor=SIGMA_FLOOR_DEFAULT):
    """The population-parameter table a spec converges to with infinite samples.

    Win-rate stddev is the Bernoulli population value sqrt(p(1-p)),
    floored.  Useful for tests that need exact structure with no
    sampling noise.
    """
    rows = []
    for problem, arch in zip(spec.problem_names, spec.archetypes):
        mu, sigma, p = _archetype_params(arch, spec.agents)
        for a_idx, agent in enumerate(spec.agent_names):
            rows.append(
                (agent, problem, "score", float(mu[a_idx]), float(sigma), spec.samples_per_cell)
            )
            win_sd = math.sqrt(p[a_idx] * (1.0 - p[a_idx]))
            rows.append((agent, problem, "win", float(p[a_idx]), win_sd, spec.samples_per_cell))
    return PerformanceTable.from_stats(rows, sigma_floor)


def sampled_table(spec):
    """Generate the playthroughs of a spec and aggregate them."""
    return aggregate(generate(spec))


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
    linear = Archetype("linear", gap=12.0)
    two_cluster = Archetype("two-cluster", gap=15.0)
    specs = [
        (
            "identical-exact",
            SynthSpec(5, (Archetype("identical"),) * 3, seed=101),
        ),
        (
            "linear-strong",
            SynthSpec(5, (linear,) * 4, seed=102),
        ),
        (
            "two-cluster",
            SynthSpec(6, (two_cluster,) * 3, seed=103),
        ),
        (
            "delayed",
            SynthSpec(5, (Archetype("delayed", gap=14.0),) * 3, seed=104),
        ),
        (
            "mixed-with-duplicate",
            SynthSpec(5, (linear, linear, two_cluster, Archetype("delayed", gap=14.0)), seed=105),
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
