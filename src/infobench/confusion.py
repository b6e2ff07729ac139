"""Pairwise algorithm-discrimination probabilities for a set of metric keys.

Given per-agent Gaussian summaries, entry (i, j) of the confusion
matrix is the probability of believing an observed mean performance
came from agent j when it actually came from agent i.  The candidate's
likelihood of the observed mean uses a normal density whose scale
combines the two agents' noise levels; over a key set the per-key
densities multiply.  Everything is evaluated in natural-log space, so
large key sets cannot underflow.  ``confusion`` normalizes each row with
a softmax into probabilities; ``gain_bits`` scores the information of
the same beliefs straight from the log weights, with no probability or
per-entry logarithm formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, InputError
from .perf import MetricKey, PerformanceTable

ROW_SUM_TOL = 1e-9

NOISE_MODES = ("sum", "rss")

DEFAULT_NOISE = "sum"

LOG2_E = math.log2(math.e)

# stack_gains scores its bundles in chunks of at most this many log weights
# (256 KiB of float64), or of one bundle when its n x n is larger, so each
# chunk's passes stay in cache
CHUNK_ELEMENTS = 2**15


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
    are rejected before any scoring, never read as a belief.
    """
    mu, sd = table.column(key)
    # -(diff * diff) / var2 - 0.5 * log(pi * var2), with var2 = 2 * scale²,
    # in two n x n buffers; each step is the expression's own, in its order,
    # so the bits are the same.  Every step is symmetric in (i, j), so the
    # term equals its transpose bit for bit.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        scale = _pair_scales(sd, noise)
        var2 = scale * 2.0
        var2 *= scale
        quad = np.subtract.outer(mu, mu, out=scale)
        np.multiply(quad, quad, out=quad)
        np.negative(quad, out=quad)
        quad /= var2
        var2 *= np.pi
        np.log(var2, out=var2)
        var2 *= 0.5
        quad -= var2
    return quad


def log_weight_matrix(
    table: PerformanceTable, keys: Sequence[MetricKey], noise: str = DEFAULT_NOISE
) -> np.ndarray:
    """Unnormalized log belief weights, entry (i, j) for observed i, candidate j:
    each key's ``log_weight_term`` added in key order by ``add_terms``."""
    keys = validate_metric_keys(table, keys)
    return add_terms(0.0, (log_weight_term(table, key, noise) for key in keys))


def add_terms(base: float | np.ndarray, terms: Iterable[np.ndarray]) -> float | np.ndarray:
    """``base`` plus each of ``terms`` in turn, as a new value: every sum of
    log-weight terms is taken here, so sums of the same terms in the same
    order agree bit for bit.  An overflowing sum stays non-finite for
    ``_finite`` to reject, as an overflowing term does."""
    terms = iter(terms)
    with np.errstate(over="ignore", invalid="ignore"):
        total = base + next(terms, 0.0)
        for term in terms:
            total += term
    return total


def log_weight_stack(
    table: PerformanceTable, bundles: Sequence[Sequence[MetricKey]], noise: str
) -> np.ndarray:
    """Each key's log weights on its own, in one array: entry ``[w, b]`` is
    the ``w``-th key of bundle ``b``, held as the upper triangle of its
    ``n x n`` matrix, diagonal included, row by row.  Every bundle has the
    same width.

    Every term is symmetric bit for bit, so the triangle holds all of it:
    ``np.take(entry, square_index(n))`` gives back the matrix.  Added in
    order by ``add_terms`` the triangles give ``log_weight_matrix`` over the
    keys bit for bit, so ``stack_gains`` scores many key sets
    sharing keys by summing these instead of recomputing every term; a
    slice of the first axis scores a prefix of every bundle.  Each is
    ``log_weight_matrix`` over the one key, so the term counts of
    perfbench's tracer include them.
    """
    width = len(bundles[0])
    if any(len(bundle) != width for bundle in bundles):
        raise ValueError("every bundle must have the same number of keys")
    n = len(table.agents)
    rows, cols = np.triu_indices(n)
    upper = rows * n + cols
    stack = np.empty((width, len(bundles), len(upper)))
    for b, bundle in enumerate(bundles):
        for w, key in enumerate(bundle):
            # mode="clip" writes straight into out; "raise" buffers it
            np.take(log_weight_matrix(table, (key,), noise), upper, out=stack[w, b], mode="clip")
    return stack


def square_index(n: int) -> np.ndarray:
    """For each entry of an ``n x n`` matrix, its slot in the row-by-row
    upper triangle a ``log_weight_stack`` holds: (i, j) and (j, i) share
    one."""
    rows, cols = np.triu_indices(n)
    index = np.empty((n, n), dtype=np.intp)
    index[rows, cols] = index[cols, rows] = np.arange(len(rows))
    return index


def stack_gains(stack: np.ndarray, picked: Sequence[int], ids: np.ndarray) -> np.ndarray:
    """Gain in bits of the ``picked`` bundles of a ``log_weight_stack`` plus
    each bundle ``ids`` names, the terms added by ``add_terms`` bundle by
    bundle and in key order, as ``info_gain_set`` over those keys adds them.

    The candidates are scored in chunks of at most ``CHUNK_ELEMENTS`` log
    weights, or of one bundle when its n x n is larger.  Each chunk's sums
    are unpacked into one reused C-contiguous buffer, so ``gain_bits``
    reduces every row in the order a fresh array would.
    """
    n = math.isqrt(8 * stack.shape[-1] + 1) // 2  # the triangle holds n(n+1)/2
    index = square_index(n)
    base = add_terms(0.0, (terms[p] for p in picked for terms in stack))
    per_chunk = max(1, CHUNK_ELEMENTS // (n * n))
    square = np.empty((min(per_chunk, len(ids)), n, n))
    gains = np.empty(len(ids))
    for start in range(0, len(ids), per_chunk):
        chunk = ids[start:start + per_chunk]
        sums = add_terms(base, (terms[chunk] for terms in stack))
        # mode="clip" writes straight into out; "raise" buffers it
        np.take(sums, index, axis=-1, out=square[:len(chunk)], mode="clip")
        gains[start:start + len(chunk)] = gain_bits(square[:len(chunk)])
    return gains


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


def _finite(log_weights: np.ndarray) -> np.ndarray:
    """``log_weights`` as given, refusing fewer than two agents and inf/NaN
    weights rather than turning them into beliefs."""
    if log_weights.shape[-1] < 2:
        raise DomainError("discrimination undefined for fewer than two algorithms")
    if not np.isfinite(log_weights).all():
        raise DomainError(
            "belief weights are not finite: means or noise scales are too large "
            "or too small to square in floating point"
        )
    return log_weights


def gain_bits(log_weights: np.ndarray) -> np.ndarray:
    """Information gain in bits of each ``n x n`` slice of log belief
    weights of shape ``(..., n, n)``: the mean over rows of each row's
    ``log2(n) + sum(p * log2(p))``, with ``p`` the row's softmax, clipped
    to ``[0, log2(n)]``.

    Computed from the log weights, never from probabilities: with each
    row shifted by its maximum, ``w' = w - max(w)``, ``s = sum(exp(w'))``
    and ``t = sum(exp(w') * w')``, a row's bits are
    ``log2(n / s) + log2(e) * t / s``.  That is one ``exp`` per entry and
    one ``log2`` per row.  A uniform row has ``w' = 0`` and ``s = n``
    exactly, so it scores exactly 0; a row whose other weights underflow
    to 0 scores exactly ``log2(n / 1)``.  Rows near uniform can still
    round a few ulps below 0, and the mean of rows at ``log2(n)`` a few
    ulps above it; the clip reports those as 0 and ``log2(n)``.

    Every row and slice reduces in the same order whatever the leading
    shape, so a C-contiguous chunk of slices scores each as it would
    alone.  Works in place: ``log_weights`` is left holding the shifted
    weights ``w'``.
    """
    n = _finite(log_weights).shape[-1]
    log_weights -= log_weights.max(axis=-1, keepdims=True)
    weights = np.exp(log_weights)
    total = weights.sum(axis=-1)
    # exp(w') * w' is finite: where exp(w') underflows to 0 the product is
    # -0.0, and w' never overflows, since no row maximum is near the float range
    weights *= log_weights
    row_bits = weights.sum(axis=-1)
    row_bits /= total
    row_bits *= LOG2_E
    np.divide(n, total, out=total)
    np.log2(total, out=total)
    row_bits += total
    return np.clip(row_bits.mean(axis=-1), 0.0, np.log2(n))


def confusion(
    table: PerformanceTable, keys: Sequence[MetricKey], noise: str = DEFAULT_NOISE
) -> ConfusionMatrix:
    """Confusion matrix over the table's agents for the given key set."""
    log_weights = _finite(log_weight_matrix(table, keys, noise))
    return ConfusionMatrix(table.agents, softmax_rows(log_weights))
