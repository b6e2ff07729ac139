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
    stack_gains,
)
from .errors import InputError
from .perf import Measure, MetricKey, PerformanceTable

EPS_GAIN = 1e-9

SELECTION_MODES = ("win", "score", "combined")

DEFAULT_MODE = "combined"


def mutual_information(matrix: ConfusionMatrix | np.ndarray) -> float:
    """Bits of information one observation yields about the agent identity.

    Accepts a ConfusionMatrix or a raw array, checked row-stochastic
    either way; its bits under a uniform agent prior are the ``gain_bits``
    of its entries' logs.  A zero entry's log is taken as the most
    negative float, whose ``exp`` underflows to exactly 0, so it adds
    exactly 0 bits: the 0 * log(0) = 0 convention.
    """
    if isinstance(matrix, ConfusionMatrix):
        matrix = matrix.probs
    probs = np.asarray(matrix, dtype=float)
    check_row_stochastic(probs)
    log_probs = np.full(probs.shape, -np.finfo(float).max)
    np.log(probs, out=log_probs, where=probs > 0)
    return float(gain_bits(log_probs))


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


def problem_gains(table: PerformanceTable, noise: str = DEFAULT_NOISE) -> dict[str, np.ndarray]:
    """Gain in bits of every problem, in ``table.problems`` order, under
    each selection mode.

    Each problem's win and score terms are computed once, into one
    ``log_weight_stack``; ``win`` scores its first layer, ``score`` its
    second and ``combined`` both, added in the order ``info_gain_set``
    would, so every gain equals its result bit for bit.
    """
    stack = log_weight_stack(
        table, [metric_keys_for(problem, "combined") for problem in table.problems], noise
    )
    every = np.arange(len(table.problems))
    return {
        mode: stack_gains(terms, (), every)
        for mode, terms in zip(SELECTION_MODES, (stack[:1], stack[1:], stack))
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


def _candidate_units(
    table: PerformanceTable, mode: str, per_key: bool
) -> list[tuple[str, tuple[MetricKey, ...]]]:
    """Each candidate's identifier and metric keys, sorted by identifier."""
    units = []
    for problem in table.problems:
        bundle = metric_keys_for(problem, mode)
        if per_key:
            units += [(f"{k.problem}:{k.measure.value}", (k,)) for k in bundle]
        else:
            units.append((problem, bundle))
    return sorted(units)


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
    if not (eps_gain > 0 and math.isfinite(eps_gain)):
        raise InputError(f"eps_gain must be positive and finite, got {eps_gain}")
    n = len(table.agents)
    # gains are ranked as multiples of eps_gain, and no gain exceeds log2(n)
    if not math.isfinite(math.log2(n) / eps_gain):
        raise InputError(f"eps_gain must be at least log2({n}) / max float, got {eps_gain:g}")
    names, bundles = zip(*_candidate_units(table, mode, per_key))
    if k > len(names):
        warnings.warn(
            f"k={k} exceeds the {len(names)} available candidates; selecting all",
            stacklevel=2,
        )
        k = len(names)

    # each key's term is computed once; stack_gains adds the picked bundles'
    # terms, then each candidate's, in the order
    # info_gain_set(selected + candidate) would, so gains are bit-identical
    stack = log_weight_stack(table, bundles, noise)
    remaining = np.arange(len(names))  # indices into names, so in sorted order
    picked: list[int] = []
    steps: list[SelectionStep] = []
    negatives: list[NegativeMarginal] = []
    cumulative = 0.0
    stop_reason = None

    for step in range(1, k + 1):
        totals = stack_gains(stack, picked, remaining)
        gains = totals - cumulative
        for i in np.flatnonzero(gains < -eps_gain):
            negatives.append(NegativeMarginal(step, names[remaining[i]], float(gains[i])))
        # gains are ranked in multiples of eps_gain; the first maximum is
        # the smallest identifier
        pick = int(np.argmax(np.rint(gains / eps_gain)))
        best = names[remaining[pick]]
        if gains[pick] <= eps_gain:
            stop_reason = (
                f"stopped at step {step}: no remaining candidate adds more than "
                f"{eps_gain:g} bits (best was {best!r} at {gains[pick]:.3g} bits)"
            )
            break
        picked.append(int(remaining[pick]))
        steps.append(SelectionStep(best, float(gains[pick]), float(totals[pick])))
        cumulative = float(totals[pick])
        remaining = np.delete(remaining, pick)

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
    table: PerformanceTable, noise: str = DEFAULT_NOISE
) -> list[SubadditivityViolation]:
    """Report problems whose combined gain exceeds the sum of the win-only
    and score-only gains.

    Combining two measurements of the same problem shares information,
    so the combined gain is expected not to exceed the sum; this is not
    guaranteed by the Gaussian belief model (weakly separated,
    correlated measures can sharpen each other), hence an audit rather
    than an assertion.
    """
    gains = problem_gains(table, noise)
    win, score, combined = (gains[mode].tolist() for mode in SELECTION_MODES)
    return [
        SubadditivityViolation(problem, w, s, c)
        for problem, w, s, c in zip(table.problems, win, score, combined)
        if c - (w + s) > EPS_GAIN
    ]
