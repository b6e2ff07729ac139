"""Reference oracle used to validate the main path.

``oracle_info_gain`` is a deliberately naive direct evaluation with
plain-float products and quotients, no log-space rearrangement, sharing
no numerical code with the confusion or info-gain modules: it imports
only the data types, and reads cells through ``conftest.cell``.  It refuses inputs outside its safe range instead
of silently losing precision.
"""

from __future__ import annotations

import math
from typing import Sequence

from conftest import cell
from infobench.perf import Measure, MetricKey, PerformanceTable

ORACLE_MAX_AGENTS = 8
ORACLE_MAX_KEYS = 4


class OracleRangeError(ValueError):
    """The oracle refuses inputs outside its direct-evaluation range."""


def _oracle_scale(sd_obs: float, sd_cand: float, noise: str) -> float:
    if noise == "sum":
        return sd_obs + sd_cand
    if noise == "rss":
        return math.sqrt(sd_obs * sd_obs + sd_cand * sd_cand)
    raise ValueError(f"unknown noise combination {noise!r}")


def oracle_confusion_rows(
    table: PerformanceTable, keys: Sequence[MetricKey], noise: str = "sum"
) -> list[list[float]]:
    """Direct per-row evaluation of the belief probabilities."""
    agents = table.agents
    if len(agents) > ORACLE_MAX_AGENTS:
        raise OracleRangeError(
            f"oracle handles at most {ORACLE_MAX_AGENTS} agents, got {len(agents)}"
        )
    if len(keys) > ORACLE_MAX_KEYS:
        raise OracleRangeError(
            f"oracle handles at most {ORACLE_MAX_KEYS} metric keys, got {len(keys)}"
        )
    stats = {
        (a, k): cell(table, a, k)[:2] for a in agents for k in keys
    }
    rows: list[list[float]] = []
    for obs in agents:
        weights: list[float] = []
        for cand in agents:
            w = 1.0
            for k in keys:
                (mu_obs, sd_obs), (mu_cand, sd_cand) = stats[(obs, k)], stats[(cand, k)]
                scale = _oracle_scale(sd_obs, sd_cand, noise)
                diff = mu_obs - mu_cand
                density = math.exp(-(diff * diff) / (2.0 * scale * scale))
                density /= math.sqrt(2.0 * math.pi * scale * scale)
                w *= density
            weights.append(w)
        total = math.fsum(weights)
        if total <= 0.0 or not math.isfinite(total):
            raise OracleRangeError(
                "direct evaluation left the representable range "
                f"(row weight sum {total!r}); narrow the inputs"
            )
        rows.append([w / total for w in weights])
    return rows


def oracle_bits(rows: Sequence[Sequence[float]]) -> float:
    """Mutual information in bits of a channel's probability rows under a
    uniform prior, by direct summation of ``p * log2(p)``, taking
    0 * log2(0) as 0."""
    n = len(rows)
    entropy_sum = 0.0
    for row in rows:
        entropy_sum += math.fsum(-p * math.log2(p) for p in row if p > 0.0)
    return math.log2(n) - entropy_sum / n


def oracle_softmax_rows(log_weights: Sequence[Sequence[float]]) -> list[list[float]]:
    """Each row of log weights as probabilities, shifted by the row's
    maximum so that no exponent overflows."""
    rows = []
    for row in log_weights:
        top = max(row)
        weights = [math.exp(w - top) for w in row]
        total = math.fsum(weights)
        rows.append([w / total for w in weights])
    return rows


def oracle_info_gain(
    table: PerformanceTable, keys: Sequence[MetricKey], noise: str = "sum"
) -> float:
    """Reference information gain in bits by direct summation."""
    return oracle_bits(oracle_confusion_rows(table, keys, noise))


def _oracle_keys_for(problem: str, mode: str) -> list[MetricKey]:
    keys = []
    if mode in ("win", "combined"):
        keys.append(MetricKey(problem, Measure.WIN_RATE))
    if mode in ("score", "combined"):
        keys.append(MetricKey(problem, Measure.SCORE))
    if not keys:
        raise ValueError(f"unknown mode {mode!r}")
    return keys


def oracle_greedy_select(
    table: PerformanceTable,
    k: int,
    mode: str = "combined",
    noise: str = "sum",
    eps_gain: float = 1e-9,
) -> list[str]:
    """Naive re-implementation of the greedy rule on top of the oracle."""
    problems = sorted(table.problems)
    selected: list[MetricKey] = []
    picked: list[str] = []
    cumulative = 0.0
    for _ in range(min(k, len(problems))):
        gains = {
            p: oracle_info_gain(table, selected + _oracle_keys_for(p, mode), noise)
            - cumulative
            for p in problems
            if p not in picked
        }
        best = min(gains, key=lambda p: (-round(gains[p] / eps_gain), p))
        if gains[best] <= eps_gain:
            break
        picked.append(best)
        selected.extend(_oracle_keys_for(best, mode))
        cumulative += gains[best]
    return picked


def oracle_best_subset(
    table: PerformanceTable, size: int, mode: str = "combined", noise: str = "sum"
) -> tuple[tuple[str, ...], float]:
    """Exhaustive search over problem subsets of the given size."""
    from itertools import combinations

    best: tuple[str, ...] = ()
    best_gain = -math.inf
    for combo in combinations(sorted(table.problems), size):
        keys: list[MetricKey] = []
        for p in combo:
            keys.extend(_oracle_keys_for(p, mode))
        gain = oracle_info_gain(table, keys, noise)
        if gain > best_gain:
            best, best_gain = combo, gain
    return best, best_gain
