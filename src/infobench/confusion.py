"""Pairwise algorithm-discrimination probabilities for a set of metric keys.

Given per-agent Gaussian summaries, entry (i, j) of the confusion
matrix is the probability of believing an observed mean performance
came from agent j when it actually came from agent i.  The candidate's
likelihood of the observed mean uses a normal density whose scale
combines the two agents' noise levels; over a key set the per-key
densities multiply.  Everything is evaluated in natural-log space and
normalized per row with a softmax, so large key sets cannot underflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .perf import MetricKey, PerformanceTable

ROW_SUM_TOL = 1e-9

NOISE_MODES = ("sum", "rss")


def _pair_scales(stddevs: np.ndarray, noise: str) -> np.ndarray:
    """Combined noise scale for every (observed, candidate) pair.

    ``sum`` adds the two standard deviations (the default); ``rss``
    takes the root of the summed variances instead.
    """
    if noise == "sum":
        return stddevs[:, None] + stddevs[None, :]
    if noise == "rss":
        return np.hypot(stddevs[:, None], stddevs[None, :])
    raise ValueError(f"unknown noise combination {noise!r}, expected one of {NOISE_MODES}")


def validate_metric_keys(
    table: PerformanceTable, keys: Sequence[MetricKey]
) -> tuple[MetricKey, ...]:
    keys = tuple(keys)
    if not keys:
        raise ValueError("metric key set must be non-empty")
    if len(set(keys)) != len(keys):
        raise ValueError("metric key set contains duplicates")
    for k in keys:
        table.key_index(k)
    return keys


def log_weight_matrix(
    table: PerformanceTable, keys: Sequence[MetricKey], noise: str = "sum"
) -> np.ndarray:
    """Unnormalized log belief weights, entry (i, j) for observed i, candidate j."""
    keys = validate_metric_keys(table, keys)
    n = len(table.agents)
    total = np.zeros((n, n))
    for key in keys:
        mu, sd = table.column(key)
        scale = _pair_scales(sd, noise)
        diff = mu[:, None] - mu[None, :]
        var2 = 2.0 * scale * scale
        total += -(diff * diff) / var2 - 0.5 * np.log(np.pi * var2)
    return total


def log_weight(
    observed: str,
    candidate: str,
    table: PerformanceTable,
    keys: Sequence[MetricKey],
    noise: str = "sum",
) -> float:
    """Log of the unnormalized belief weight for one (observed, candidate) pair."""
    i = table.agent_index(observed)
    j = table.agent_index(candidate)
    return float(log_weight_matrix(table, keys, noise)[i, j])


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """Row-stochastic belief matrix; row i is the posterior over candidates
    after observing agent i's mean performance."""

    agents: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self):
        p = self.probs
        n = len(self.agents)
        if p.shape != (n, n):
            raise ValueError(f"probs shape {p.shape} does not match {n} agents")
        if np.any(p < 0) or np.any(p > 1):
            raise ValueError("confusion entries must lie in [0, 1]")
        sums = p.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > ROW_SUM_TOL):
            worst = float(np.max(np.abs(sums - 1.0)))
            raise ValueError(f"rows must sum to 1 within {ROW_SUM_TOL}, worst off by {worst:g}")
        p.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.agents)

    def row(self, observed: str) -> np.ndarray:
        return self.probs[self.agents.index(observed)]


def softmax_rows(log_weights: np.ndarray) -> np.ndarray:
    # max subtraction keeps the largest exponent at 0, so arbitrarily
    # negative log weights underflow to 0 instead of poisoning the row
    shifted = log_weights - log_weights.max(axis=1, keepdims=True)
    weights = np.exp(shifted)
    return weights / weights.sum(axis=1, keepdims=True)


def confusion(
    table: PerformanceTable, keys: Sequence[MetricKey], noise: str = "sum"
) -> ConfusionMatrix:
    """Confusion matrix over the table's agents for the given key set."""
    if len(table.agents) < 2:
        raise DomainError("discrimination undefined for fewer than two algorithms")
    log_w = log_weight_matrix(table, keys, noise)
    return ConfusionMatrix(table.agents, softmax_rows(log_w))
