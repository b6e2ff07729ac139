"""Synthetic corpora with known structure.

The generator produces playthrough records from per-problem archetypes
(score noise is Gaussian, wins are Bernoulli), fully determined by the
seed; the random stream is numpy's seeded PCG64 (``default_rng``), so
fixtures reproduce across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .perf import (
    Measure,
    MetricKey,
    PerformanceStat,
    PerformanceTable,
    PlaythroughRecord,
    SIGMA_FLOOR_DEFAULT,
    aggregate,
)

ARCHETYPE_KINDS = ("identical", "linear", "two_cluster", "delayed", "duplicate")


@dataclass(frozen=True)
class Archetype:
    """Statistical character of one synthetic problem.

    identical    every agent shares the same score mean and win rate.
    linear       score means spread in equal steps of ``gap``; win rates
                 spread evenly across (0, 1).
    two_cluster  agents split into a weak and a strong half.
    delayed      score means anti-ordered against win rates, like
                 problems that only pay out score at the very end.
    duplicate    same distribution parameters as an earlier problem
                 (``source`` is its index).
    """

    kind: str
    gap: float = 10.0
    sigma: float = 1.0
    source: int | None = None

    def __post_init__(self):
        if self.kind not in ARCHETYPE_KINDS:
            raise ValueError(f"unknown archetype {self.kind!r}")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if (self.kind == "duplicate") != (self.source is not None):
            raise ValueError("source must be given for duplicates and only for them")


@dataclass(frozen=True)
class SynthSpec:
    """Full description of a synthetic corpus; the seed pins everything."""

    agents: int
    archetypes: tuple[Archetype, ...]
    samples_per_cell: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.agents < 1:
            raise ValueError("need at least one agent")
        if not self.archetypes:
            raise ValueError("need at least one problem archetype")
        if self.samples_per_cell < 1:
            raise ValueError("need at least one sample per cell")
        for i, arch in enumerate(self.archetypes):
            if arch.kind == "duplicate" and not 0 <= arch.source < i:
                raise ValueError(
                    f"problem {i}: duplicate source {arch.source} must point to "
                    "an earlier problem"
                )

    @property
    def agent_names(self) -> tuple[str, ...]:
        return tuple(f"agent{i:02d}" for i in range(self.agents))

    @property
    def problem_names(self) -> tuple[str, ...]:
        return tuple(f"prob{i:02d}" for i in range(len(self.archetypes)))


def _archetype_params(spec: SynthSpec) -> list[tuple[np.ndarray, float, np.ndarray]]:
    """Per problem: (score means, score sigma, win probabilities), per agent."""
    n = spec.agents
    params: list[tuple[np.ndarray, float, np.ndarray]] = []
    for arch in spec.archetypes:
        if arch.kind == "duplicate":
            params.append(params[arch.source])
            continue
        if arch.kind == "identical":
            mu = np.full(n, 10.0)
            p = np.full(n, 0.5)
        elif arch.kind == "linear":
            mu = arch.gap * np.arange(n, dtype=float)
            p = np.linspace(0.1, 0.9, n) if n > 1 else np.array([0.5])
        elif arch.kind == "two_cluster":
            half = (n + 1) // 2
            mu = np.where(np.arange(n) < half, 0.0, arch.gap)
            p = np.where(np.arange(n) < half, 0.2, 0.8)
        elif arch.kind == "delayed":
            mu = arch.gap * np.arange(n - 1, -1, -1, dtype=float)
            p = np.linspace(0.1, 0.9, n) if n > 1 else np.array([0.5])
        else:  # pragma: no cover
            raise AssertionError(arch.kind)
        params.append((mu, arch.sigma, p))
    return params


def generate(spec: SynthSpec) -> list[PlaythroughRecord]:
    """Draw the full record list for a spec; byte-identical per seed.

    Draw order is fixed: problems outermost, then agents, and for each
    cell the win outcomes before the scores.
    """
    rng = np.random.default_rng(spec.seed)
    params = _archetype_params(spec)
    records: list[PlaythroughRecord] = []
    m = spec.samples_per_cell
    for problem, (mu, sigma, p) in zip(spec.problem_names, params):
        for a_idx, agent in enumerate(spec.agent_names):
            wins = rng.random(m) < p[a_idx]
            scores = rng.normal(mu[a_idx], sigma, m)
            records.extend(
                PlaythroughRecord(agent, problem, float(s), bool(w))
                for s, w in zip(scores, wins)
            )
    return records


def exact_table(
    spec: SynthSpec, sigma_floor: float = SIGMA_FLOOR_DEFAULT
) -> PerformanceTable:
    """The population-parameter table a spec converges to with infinite samples.

    Win-rate stddev is the Bernoulli population value sqrt(p(1-p)),
    floored.  Useful for tests that need exact structure with no
    sampling noise.
    """
    params = _archetype_params(spec)
    cells: dict[tuple[str, MetricKey], PerformanceStat] = {}
    for problem, (mu, sigma, p) in zip(spec.problem_names, params):
        for a_idx, agent in enumerate(spec.agent_names):
            cells[(agent, MetricKey(problem, Measure.SCORE))] = PerformanceStat(
                float(mu[a_idx]), float(sigma), spec.samples_per_cell
            )
            win_sd = math.sqrt(p[a_idx] * (1.0 - p[a_idx]))
            cells[(agent, MetricKey(problem, Measure.WIN_RATE))] = PerformanceStat(
                float(p[a_idx]), win_sd, spec.samples_per_cell
            )
    return PerformanceTable.from_stats(cells, sigma_floor)


def sampled_table(spec: SynthSpec) -> PerformanceTable:
    """Generate records for a spec and aggregate them."""
    return aggregate(generate(spec))

