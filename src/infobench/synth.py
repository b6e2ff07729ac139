"""Synthetic corpora with known structure.

The generator draws playthroughs from per-problem archetypes (score
noise is Gaussian, wins are Bernoulli) into ``perf.Playthroughs``
columns, the shape ``perf.parse_records`` returns, fully determined by
the seed; the random stream is numpy's seeded PCG64
(``default_rng``), so fixtures reproduce across platforms.  Tables are
built from these playthroughs by ``perf.aggregate``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from operator import add
from typing import IO

import numpy as np

from .errors import InputError
from .perf import PLAYTHROUGH_HEADER, Playthroughs

ARCHETYPE_KINDS = ("identical", "linear", "two-cluster", "delayed")

ARCHETYPE_CHOICES = (*ARCHETYPE_KINDS, "mixed")


@dataclass(frozen=True)
class Archetype:
    """Statistical character of one synthetic problem.

    identical    every agent shares the same score mean and win rate.
    linear       score means spread in equal steps of ``gap``; win rates
                 spread evenly across (0, 1).
    two-cluster  agents split into a weak and a strong half.
    delayed      score means anti-ordered against win rates, like
                 problems that only pay out score at the very end.

    Two problems with equal archetypes are exact duplicates: they share
    every distribution parameter.
    """

    kind: str
    gap: float = 10.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in ARCHETYPE_KINDS:
            raise InputError(f"unknown archetype {self.kind!r}")
        if not self.gap > 0:
            raise InputError(f"gap must be positive, got {self.gap}")
        if not self.sigma > 0:
            raise InputError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class SynthSpec:
    """Full description of a synthetic corpus; the seed pins everything."""

    agents: int
    archetypes: tuple[Archetype, ...]
    samples_per_cell: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not self.agents > 0:
            raise InputError("need at least one agent")
        if not self.archetypes:
            raise InputError("need at least one problem archetype")
        if not self.samples_per_cell > 0:
            raise InputError("need at least one sample per cell")
        # numpy's seed sequence takes no negative entropy
        if not self.seed >= 0:
            raise InputError(f"seed must be non-negative, got {self.seed}")

    @property
    def agent_names(self) -> tuple[str, ...]:
        return tuple(f"agent{i:02d}" for i in range(self.agents))

    @property
    def problem_names(self) -> tuple[str, ...]:
        return tuple(f"prob{i:02d}" for i in range(len(self.archetypes)))


def archetypes(
    name: str, problems: int, gap: float = Archetype.gap, sigma: float = Archetype.sigma
) -> tuple[Archetype, ...]:
    """Archetypes of ``problems`` problems for a name in ``ARCHETYPE_CHOICES``:
    all of one kind, or for ``mixed`` linear, two-cluster, delayed and
    linear in turn, so every fourth problem duplicates the one three
    before."""
    kinds = ("linear", "two-cluster", "delayed", "linear") if name == "mixed" else (name,)
    cycle = [Archetype(kind, gap=gap, sigma=sigma) for kind in kinds]
    return tuple(cycle[i % len(cycle)] for i in range(problems))


# a mean that overflows is not an error here: generate names its cell
@np.errstate(over="ignore", invalid="ignore")
def _archetype_params(arch: Archetype, n: int) -> tuple[np.ndarray, float, np.ndarray]:
    """(score means, score sigma, win probabilities) of one problem, per
    agent, for ``n`` agents."""
    if arch.kind == "identical":
        mu = np.full(n, 10.0)
        p = np.full(n, 0.5)
    elif arch.kind == "linear":
        mu = arch.gap * np.arange(n, dtype=float)
        p = np.linspace(0.1, 0.9, n) if n > 1 else np.array([0.5])
    elif arch.kind == "two-cluster":
        half = (n + 1) // 2
        mu = np.where(np.arange(n) < half, 0.0, arch.gap)
        p = np.where(np.arange(n) < half, 0.2, 0.8)
    else:  # delayed
        mu = arch.gap * np.arange(n - 1, -1, -1, dtype=float)
        p = np.linspace(0.1, 0.9, n) if n > 1 else np.array([0.5])
    return mu, arch.sigma, p


def generate(spec: SynthSpec) -> Playthroughs:
    """Draw every playthrough of a spec into columns; byte-identical per
    seed.

    Draw order is fixed: problems outermost, then agents, and for each
    cell the win outcomes before the scores.  The rows keep that order,
    so each cell's draws are one run of ``samples_per_cell`` rows and
    there are agents × problems × ``samples_per_cell`` rows in all;
    ``write_playthroughs`` writes the CSV from those runs.  A gap or
    sigma so large that a mean or a drawn score leaves the float range is
    an ``InputError``.
    """
    rng = np.random.default_rng(spec.seed)
    records = Playthroughs()
    records.names.extend(spec.agent_names + spec.problem_names)
    m = spec.samples_per_cell
    for p_idx, (problem, arch) in enumerate(zip(spec.problem_names, spec.archetypes)):
        mu, sigma, p = _archetype_params(arch, spec.agents)
        problem_codes = array("i", [spec.agents + p_idx]) * m
        for a_idx, agent in enumerate(spec.agent_names):
            wins = rng.random(m) < p[a_idx]
            scores = rng.normal(mu[a_idx], sigma, m)
            if not np.isfinite(scores).all():
                raise InputError(
                    f"({agent}, {problem}): a score mean or draw is not finite; "
                    "gap or sigma is too large for floating point"
                )
            records.agents.extend(array("i", [a_idx]) * m)
            records.problems.extend(problem_codes)
            records.scores.frombytes(scores.tobytes())
            records.wins.extend(wins.tobytes())
    return records


# the most rows whose text is held at once, so a cell of millions of
# playthroughs is not held as text whole
_ROWS_PER_WRITE = 4096


def write_playthroughs(spec: SynthSpec, records: Playthroughs, stream: IO[str]) -> None:
    """Write ``generate(spec)``'s records as the playthrough CSV that
    ``perf.write_csv`` would give, one string per cell or per 4,096 rows:
    synth names and float reprs never need CSV quoting."""
    m, names, endings = spec.samples_per_cell, records.names, (",0\n", ",1\n")
    stream.write(",".join(PLAYTHROUGH_HEADER) + "\n")
    for start in range(0, len(records), m):
        end = start + m
        prefix = f"{names[records.agents[start]]},{names[records.problems[start]]},"
        for lo in range(start, end, _ROWS_PER_WRITE):
            hi = min(lo + _ROWS_PER_WRITE, end)
            stream.write(prefix + prefix.join(map(add, map(repr, records.scores[lo:hi]),
                                                  map(endings.__getitem__, records.wins[lo:hi]))))
