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

import math
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
    are rejected before any softmax, never read as a probability.
    """
    mu, sd = table.column(key)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        scale = _pair_scales(sd, noise)
        diff = mu[:, None] - mu[None, :]
        var2 = 2.0 * scale * scale
        return -(diff * diff) / var2 - 0.5 * np.log(np.pi * var2)


def log_weight_matrix(
    table: PerformanceTable, keys: Sequence[MetricKey], noise: str = DEFAULT_NOISE
) -> np.ndarray:
    """Unnormalized log belief weights, entry (i, j) for observed i, candidate j.

    The terms are added in key order; a sum that overflows stays
    non-finite for the same check as an overflowing term.
    """
    keys = validate_metric_keys(table, keys)
    n = len(table.agents)
    total = np.zeros((n, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for key in keys:
            total += log_weight_term(table, key, noise)
    return total


def log_weight_stack(
    table: PerformanceTable, bundles: Sequence[Sequence[MetricKey]], noise: str
) -> np.ndarray:
    """Each key's log weights on its own, in one array: entry ``[w, b]`` is
    the ``w``-th key of bundle ``b``.  Every bundle has the same width.

    Added in order to a running sum they give ``log_weight_matrix`` over
    the keys bit for bit, so a caller that scores many key sets sharing
    keys can sum these instead of recomputing every term.  Each is
    ``log_weight_matrix`` over the one key, so the term counts of
    perfbench's tracer include them.
    """
    width = len(bundles[0])
    if any(len(bundle) != width for bundle in bundles):
        raise ValueError("every bundle must have the same number of keys")
    n = len(table.agents)
    stack = np.empty((width, len(bundles), n, n))
    for b, bundle in enumerate(bundles):
        for w, key in enumerate(bundle):
            stack[w, b] = log_weight_matrix(table, (key,), noise)
    return stack


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
    """Normalize log weights along the last axis into probabilities, in
    place; returns the same array."""
    # max subtraction keeps the largest exponent at 0, so arbitrarily
    # negative log weights underflow to 0 instead of poisoning the row
    log_weights -= log_weights.max(axis=-1, keepdims=True)
    np.exp(log_weights, out=log_weights)
    log_weights /= log_weights.sum(axis=-1, keepdims=True)
    return log_weights


def row_entropies_bits(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits along the last axis.  Where p = 0 the term
    is p * log2(1) = 0, the 0 * log(0) = 0 convention."""
    terms = np.where(probs > 0, probs, 1.0)
    np.log2(terms, out=terms)
    terms *= probs
    return -terms.sum(axis=-1)


def _beliefs(log_weights: np.ndarray) -> np.ndarray:
    """Row-wise softmax of log belief weights, in place, refusing fewer
    than two agents and inf/NaN weights rather than turning them into
    probabilities."""
    if log_weights.shape[-1] < 2:
        raise DomainError("discrimination undefined for fewer than two algorithms")
    if not np.isfinite(log_weights).all():
        raise DomainError(
            "belief weights are not finite: means or noise scales are too large "
            "or too small to square in floating point"
        )
    return softmax_rows(log_weights)


def gain_bits(log_weights: np.ndarray) -> np.ndarray:
    """Information gain in bits of each ``n x n`` slice of log belief
    weights of shape ``(..., n, n)``: ``log2(n)`` minus the mean row
    entropy of the beliefs.

    Works in place: ``log_weights`` is left holding the probabilities.
    """
    entropies = row_entropies_bits(_beliefs(log_weights))
    return math.log2(log_weights.shape[-1]) - entropies.mean(axis=-1)


def confusion(
    table: PerformanceTable, keys: Sequence[MetricKey], noise: str = DEFAULT_NOISE
) -> ConfusionMatrix:
    """Confusion matrix over the table's agents for the given key set."""
    return ConfusionMatrix(table.agents, _beliefs(log_weight_matrix(table, keys, noise)))
