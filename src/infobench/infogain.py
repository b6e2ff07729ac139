"""Information gain (bits) of problems and problem sets, and greedy selection.

A problem (or set of metric keys) acts as a noisy channel from "which
agent played" to "which agent we believe played".  Its value as a
benchmark is the mutual information of that channel under a uniform
prior: ``log2(n)`` minus the mean row entropy of the confusion matrix.
Greedy selection repeatedly adds the problem with the largest marginal
gain over the already-selected set.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .confusion import (
    DEFAULT_NOISE,
    ConfusionMatrix,
    check_row_stochastic,
    confusion,  # noqa: F401  (unused here; perfbench/tracing.py wraps infogain.confusion)
    gain_bits,
    log_weight_matrix,
    log_weight_stack,
    row_entropies_bits,
)
from .errors import InputError
from .perf import Measure, MetricKey, PerformanceTable

EPS_GAIN = 1e-9

SELECTION_MODES = ("win", "score", "combined")

DEFAULT_MODE = "combined"

# greedy scores its candidates in chunks of at most this many log weights
# (256 KiB of float64), or of one candidate when its n x n is larger, so
# each chunk's passes stay in cache
CHUNK_ELEMENTS = 2**15


def mutual_information(matrix: ConfusionMatrix | np.ndarray) -> float:
    """Bits of information one observation yields about the agent identity.

    Accepts a ConfusionMatrix or a raw row-stochastic array.  Equal to
    ``log2(n) - mean(row entropy)`` under the uniform agent prior.
    """
    if isinstance(matrix, ConfusionMatrix):
        probs = matrix.probs  # validated when the matrix was built
    else:
        probs = np.asarray(matrix, dtype=float)
        check_row_stochastic(probs)
    n = probs.shape[0]
    return math.log2(n) - float(np.mean(row_entropies_bits(probs)))


def info_gain_set(
    table: PerformanceTable, keys: Sequence[MetricKey], noise: str = DEFAULT_NOISE
) -> float:
    """Information gain in bits of observing all metric keys in the set."""
    return float(gain_bits(log_weight_matrix(table, keys, noise)))


def metric_keys_for(problem: str, mode: str) -> tuple[MetricKey, ...]:
    """The metric-key bundle one problem contributes under a selection mode."""
    if mode == "win":
        return (MetricKey(problem, Measure.WIN_RATE),)
    if mode == "score":
        return (MetricKey(problem, Measure.SCORE),)
    if mode == "combined":
        return (
            MetricKey(problem, Measure.WIN_RATE),
            MetricKey(problem, Measure.SCORE),
        )
    raise InputError(f"unknown mode {mode!r}, expected one of {SELECTION_MODES}")


def problem_gains(
    table: PerformanceTable, problem: str, noise: str = DEFAULT_NOISE
) -> dict[str, float]:
    """Gain in bits of one problem under each selection mode.

    The win and score terms are computed once; ``combined`` adds the same
    two terms in the order ``info_gain_set`` would, so all three gains
    equal its results bit for bit.
    """
    win, score = log_weight_stack(table, [metric_keys_for(problem, "combined")], noise)[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        combined = win + score  # before gain_bits overwrites win and score
    return {
        mode: float(gain_bits(log_weights))
        for mode, log_weights in zip(SELECTION_MODES, (win, score, combined))
    }


@dataclass(frozen=True)
class SelectionStep:
    problem: str
    marginal_bits: float
    cumulative_bits: float


@dataclass(frozen=True)
class NegativeMarginal:
    """A candidate whose inclusion would have reduced the set's gain."""

    step: int
    problem: str
    marginal_bits: float


@dataclass(frozen=True)
class SelectionReport:
    """Ordered greedy picks with marginal and cumulative gain in bits.

    ``cumulative_bits`` of step t is the gain of the full selected set
    after t picks, so marginals always telescope exactly.  When no
    remaining candidate clears the gain threshold the report stops
    short of k and says why.
    """

    mode: str
    steps: tuple[SelectionStep, ...]
    stop_reason: str | None = None
    negative_marginals: tuple[NegativeMarginal, ...] = ()

    @property
    def stopped_early(self) -> bool:
        return self.stop_reason is not None

    @property
    def selected(self) -> tuple[str, ...]:
        return tuple(s.problem for s in self.steps)

    @property
    def total_bits(self) -> float:
        return self.steps[-1].cumulative_bits if self.steps else 0.0


def _argmax_candidate(gains: dict[str, float], eps_gain: float) -> str:
    """Deterministic argmax: largest gain after rounding to the gain
    resolution, ties broken by lexicographically smallest identifier."""
    return min(gains, key=lambda c: (-round(gains[c] / eps_gain), c))


def _candidate_units(
    table: PerformanceTable, mode: str, per_key: bool
) -> dict[str, tuple[MetricKey, ...]]:
    units: dict[str, tuple[MetricKey, ...]] = {}
    for problem in table.problems:
        bundle = metric_keys_for(problem, mode)
        if per_key:
            for k in bundle:
                units[f"{k.problem}:{k.measure.value}"] = (k,)
        else:
            units[problem] = bundle
    return units


def _chunk_gains(selected: np.ndarray, stack: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Gain in bits of the selected set's log weights plus each candidate
    ``ids`` picks from ``log_weight_stack``, its terms added in key order."""
    log_weights = selected + stack[0, ids]
    for terms in stack[1:]:
        log_weights += terms[ids]
    return gain_bits(log_weights)


def greedy_select(
    table: PerformanceTable,
    k: int,
    mode: str = DEFAULT_MODE,
    *,
    noise: str = DEFAULT_NOISE,
    eps_gain: float = EPS_GAIN,
    per_key: bool = False,
) -> SelectionReport:
    """Greedily pick up to k problems maximizing joint information gain.

    Candidates whose marginal gain does not exceed ``eps_gain`` are
    never picked; if none remain the selection stops early.  With
    ``per_key`` each (problem, measure) cell is selected independently
    and identifiers read ``problem:measure``.  Candidates are scored in
    sorted order and ties break lexicographically, so reruns are identical.
    """
    if not k > 0:
        raise InputError(f"k must be a positive integer, got {k}")
    if not eps_gain > 0:
        raise InputError(f"eps_gain must be positive, got {eps_gain}")
    n = len(table.agents)
    # gains are ranked as multiples of eps_gain, and no gain exceeds log2(n)
    if not math.isfinite(math.log2(n) / eps_gain):
        raise InputError(f"eps_gain must be at least log2({n}) / max float, got {eps_gain:g}")
    units = _candidate_units(table, mode, per_key)
    if k > len(units):
        warnings.warn(
            f"k={k} exceeds the {len(units)} available candidates; selecting all",
            stacklevel=2,
        )
        k = len(units)

    remaining = sorted(units)
    # each key's term is computed once; a candidate's log weights are the
    # selected set's running sum plus its own terms, added in the order
    # info_gain_set(selected + candidate) would, so gains are bit-identical
    stack = log_weight_stack(table, [units[c] for c in remaining], noise)
    column = {c: i for i, c in enumerate(remaining)}
    per_chunk = max(1, CHUNK_ELEMENTS // (n * n))
    selected_log_weights = np.zeros((n, n))
    steps: list[SelectionStep] = []
    negatives: list[NegativeMarginal] = []
    cumulative = 0.0
    stop_reason = None

    # a sum that overflows stays non-finite, and gain_bits rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, k + 1):
            ids = np.array([column[c] for c in remaining])
            bits = np.concatenate([
                _chunk_gains(selected_log_weights, stack, ids[start:start + per_chunk])
                for start in range(0, len(ids), per_chunk)
            ])
            totals = dict(zip(remaining, bits.tolist()))
            gains = {c: totals[c] - cumulative for c in remaining}
            for c in sorted(gains):
                if gains[c] < -eps_gain:
                    negatives.append(NegativeMarginal(step, c, gains[c]))
            best = _argmax_candidate(gains, eps_gain)
            if gains[best] <= eps_gain:
                stop_reason = (
                    f"stopped at step {step}: no remaining candidate adds more than "
                    f"{eps_gain:g} bits (best was {best!r} at {gains[best]:.3g} bits)"
                )
                break
            for term in stack[:, column[best]]:
                selected_log_weights += term
            steps.append(SelectionStep(best, totals[best] - cumulative, totals[best]))
            cumulative = totals[best]
            remaining.remove(best)

    return SelectionReport(
        mode="per-key" if per_key else mode,
        steps=tuple(steps),
        stop_reason=stop_reason,
        negative_marginals=tuple(negatives),
    )


@dataclass(frozen=True)
class SubadditivityViolation:
    problem: str
    win_bits: float
    score_bits: float
    combined_bits: float

    @property
    def excess_bits(self) -> float:
        return self.combined_bits - (self.win_bits + self.score_bits)


def subadditivity_audit(
    table: PerformanceTable, noise: str = DEFAULT_NOISE, tol: float = EPS_GAIN
) -> list[SubadditivityViolation]:
    """Report problems whose combined gain exceeds the sum of the win-only
    and score-only gains.

    Combining two measurements of the same problem shares information,
    so the combined gain is expected not to exceed the sum; this is not
    guaranteed by the Gaussian belief model (weakly separated,
    correlated measures can sharpen each other), hence an audit rather
    than an assertion.
    """
    violations = []
    for problem in table.problems:
        gains = problem_gains(table, problem, noise)
        if gains["combined"] - (gains["win"] + gains["score"]) > tol:
            violations.append(
                SubadditivityViolation(problem, gains["win"], gains["score"], gains["combined"])
            )
    return violations
