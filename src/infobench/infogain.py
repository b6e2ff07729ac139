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
    ConfusionMatrix,
    add_log_weights,
    check_row_stochastic,
    confusion,
    confusion_from_log_weights,
    log_weight_terms,
)
from .errors import InputError
from .perf import Measure, MetricKey, PerformanceTable

EPS_GAIN = 1e-9

SELECTION_MODES = ("win", "score", "combined")


def row_entropies_bits(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy of each row in bits, with the 0*log(0) = 0 convention."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(probs > 0, probs * np.log2(np.where(probs > 0, probs, 1.0)), 0.0)
    return -terms.sum(axis=1)


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
    table: PerformanceTable, keys: Sequence[MetricKey], noise: str = "sum"
) -> float:
    """Information gain in bits of observing all metric keys in the set."""
    return mutual_information(confusion(table, keys, noise))


def _gain_of_log_weights(table: PerformanceTable, log_weights: np.ndarray) -> float:
    return mutual_information(confusion_from_log_weights(table.agents, log_weights))


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


def info_gain_combined(
    table: PerformanceTable, problem: str, noise: str = "sum"
) -> float:
    """Gain of one problem using its win rate and score as two measurements."""
    return info_gain_set(table, metric_keys_for(problem, "combined"), noise)


def problem_gains(table: PerformanceTable, problem: str, noise: str = "sum") -> dict[str, float]:
    """Gain in bits of one problem under each selection mode.

    The win and score terms are computed once; ``combined`` adds the same
    two terms in the order ``info_gain_set`` would, so all three gains
    equal its results bit for bit.
    """
    win, score = log_weight_terms(table, metric_keys_for(problem, "combined"), noise).values()
    return {
        "win": _gain_of_log_weights(table, win),
        "score": _gain_of_log_weights(table, score),
        "combined": _gain_of_log_weights(table, add_log_weights(win, [score])),
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


def greedy_select(
    table: PerformanceTable,
    k: int,
    mode: str = "combined",
    *,
    noise: str = "sum",
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
    terms = log_weight_terms(table, [key for c in remaining for key in units[c]], noise)
    unit_terms = {c: [terms[key] for key in units[c]] for c in remaining}
    n = len(table.agents)
    selected_log_weights = np.zeros((n, n))
    steps: list[SelectionStep] = []
    negatives: list[NegativeMarginal] = []
    cumulative = 0.0
    stop_reason = None

    for step in range(1, k + 1):
        totals = {
            c: _gain_of_log_weights(table, add_log_weights(selected_log_weights, unit_terms[c]))
            for c in remaining
        }
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
        selected_log_weights = add_log_weights(selected_log_weights, unit_terms[best])
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
    table: PerformanceTable, noise: str = "sum", tol: float = EPS_GAIN
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
