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

from .errors import DomainError, InputError
from .perf import MetricKey, PerformanceTable

ROW_SUM_TOL = 1e-9

NOISE_MODES = ("sum", "rss")

DEFAULT_NOISE = "sum"


def _pair_scales(stddevs: np.ndarray, noise: str) -> np.ndarray:
    """Combined noise scale for every (observed, candidate) pair.

    ``sum`` adds the two standard deviations; ``rss``
    takes the root of the summed variances instead.
    """
    if noise == "sum":
        return stddevs[:, None] + stddevs[None, :]
    if noise == "rss":
        return np.hypot(stddevs[:, None], stddevs[None, :])
    raise InputError(f"unknown noise combination {noise!r}, expected one of {NOISE_MODES}")


def validate_metric_keys(
    table: PerformanceTable, keys: Sequence[MetricKey]
) -> tuple[MetricKey, ...]:
    keys = tuple(keys)
    if not keys:
        raise InputError("metric key set must be non-empty")
    if len(set(keys)) != len(keys):
        raise InputError("metric key set contains duplicates")
    for k in keys:
        table.key_index(k)
    return keys


def log_weight_term(table: PerformanceTable, key: MetricKey, noise: str) -> np.ndarray:
    """One key's unnormalized log belief weights, entry (i, j) for observed
    i, candidate j.  Over a key set the terms add up.

    Squared noise scales or mean gaps above ~1e154 overflow, and squared
    scales below ~1e-162 underflow to 0; the inf/NaN weights that follow
    are rejected by ``confusion_from_log_weights``, never read as a
    probability.
    """
    mu, sd = table.column(key)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        scale = _pair_scales(sd, noise)
        diff = mu[:, None] - mu[None, :]
        var2 = 2.0 * scale * scale
        return -(diff * diff) / var2 - 0.5 * np.log(np.pi * var2)


def add_log_weights(total: np.ndarray, terms) -> np.ndarray:
    """``total`` plus each term, in order; a sum that overflows stays
    non-finite for the same check as an overflowing term."""
    with np.errstate(over="ignore", invalid="ignore"):
        for term in terms:
            total = total + term
    return total


def log_weight_matrix(
    table: PerformanceTable, keys: Sequence[MetricKey], noise: str = DEFAULT_NOISE
) -> np.ndarray:
    """Unnormalized log belief weights, entry (i, j) for observed i, candidate j."""
    keys = validate_metric_keys(table, keys)
    n = len(table.agents)
    return add_log_weights(np.zeros((n, n)), (log_weight_term(table, k, noise) for k in keys))


def log_weight_terms(
    table: PerformanceTable, keys: Sequence[MetricKey], noise: str
) -> dict[MetricKey, np.ndarray]:
    """Each key's log weights on its own, computed once per key.

    Added to zeros in key order they give ``log_weight_matrix(table, keys)``
    bit for bit, so a caller that scores many key sets sharing keys can
    sum these instead of recomputing every term.  Each is
    ``log_weight_matrix`` over the one key, so the term counts of
    perfbench's tracer include them.
    """
    _require_two_agents(table)
    keys = validate_metric_keys(table, keys)
    return {key: log_weight_matrix(table, (key,), noise) for key in keys}


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """Row-stochastic belief matrix; row i is the posterior over candidates
    after observing agent i's mean performance."""

    agents: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self):
        n = len(self.agents)
        if self.probs.shape != (n, n):
            raise ValueError(f"probs shape {self.probs.shape} does not match {n} agents")
        check_row_stochastic(self.probs)
        self.probs.setflags(write=False)


def check_row_stochastic(probs: np.ndarray) -> None:
    """Reject anything but a square matrix of entries in [0, 1] whose rows sum to 1.

    NaN fails every comparison, so it is rejected as an entry outside [0, 1].
    """
    if probs.ndim != 2 or probs.shape[0] != probs.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {probs.shape}")
    if not np.all((probs >= 0) & (probs <= 1)):
        raise ValueError("entries must be non-negative and lie in [0, 1]")
    off = np.abs(probs.sum(axis=1) - 1.0)
    if np.any(off > ROW_SUM_TOL):
        raise ValueError(
            f"rows must be stochastic (sum to 1 within {ROW_SUM_TOL}), "
            f"worst off by {float(np.max(off)):g}"
        )


def softmax_rows(log_weights: np.ndarray) -> np.ndarray:
    # max subtraction keeps the largest exponent at 0, so arbitrarily
    # negative log weights underflow to 0 instead of poisoning the row
    shifted = log_weights - log_weights.max(axis=1, keepdims=True)
    weights = np.exp(shifted)
    return weights / weights.sum(axis=1, keepdims=True)


def _require_two_agents(table: PerformanceTable) -> None:
    if len(table.agents) < 2:
        raise DomainError("discrimination undefined for fewer than two algorithms")


def confusion_from_log_weights(
    agents: tuple[str, ...], log_weights: np.ndarray
) -> ConfusionMatrix:
    """Normalize summed log weights into a confusion matrix, refusing
    inf/NaN weights rather than turning them into probabilities."""
    if not np.isfinite(log_weights).all():
        raise DomainError(
            "belief weights are not finite: means or noise scales are too large "
            "or too small to square in floating point"
        )
    return ConfusionMatrix(agents, softmax_rows(log_weights))


def confusion(
    table: PerformanceTable, keys: Sequence[MetricKey], noise: str = DEFAULT_NOISE
) -> ConfusionMatrix:
    """Confusion matrix over the table's agents for the given key set."""
    _require_two_agents(table)
    return confusion_from_log_weights(table.agents, log_weight_matrix(table, keys, noise))
