"""Inter-problem correlation of agent performance, with hierarchical clustering.

Two problems correlate when agents that do well on one tend to do well
(or, for anti-correlation, badly) on the other.  Each problem is the
vector of per-agent mean performances for one measure; entries are
Pearson r.  Problems on which every agent performs identically carry
no correlation signal and are marked undefined (NaN) rather than
imputed.  Clustering is agglomerative with variance-minimizing (Ward)
linkage on the distance 1 - r, cut at a configurable threshold.

The package attribute ``infobench.cluster`` is the ``cluster`` function,
which shadows this module: ``import infobench.cluster as m`` binds the
function.  Reach the module through
``importlib.import_module("infobench.cluster")``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError
from .perf import Measure, MetricKey, PerformanceTable

DEFAULT_THRESHOLD = 0.8


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """Symmetric Pearson matrix over problems; NaN marks undefined entries."""

    problems: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def defined_mask(self) -> np.ndarray:
        """Per-problem flag: does the problem vary across agents at all?"""
        return ~np.isnan(np.diagonal(self.values))

    def entry(self, a: str, b: str) -> float:
        return float(self.values[self.problems.index(a), self.problems.index(b)])


def correlation_matrix(table: PerformanceTable, measure: Measure) -> CorrelationMatrix:
    """Pearson correlation between every problem pair for one measure."""
    measure = Measure(measure)
    if len(table.agents) < 3:
        raise DomainError(
            "correlation requires at least three agents; "
            f"table has {len(table.agents)}"
        )
    problems = table.problems
    rows = np.stack([table.column(MetricKey(p, measure))[0] for p in problems])
    centered = rows - rows.mean(axis=1, keepdims=True)
    sq_norms = (centered * centered).sum(axis=1)
    defined = sq_norms > 0.0

    n = len(problems)
    values = np.full((n, n), np.nan)
    if defined.any():
        idx = np.flatnonzero(defined)
        sub = centered[idx]
        # single square root of the norm product keeps the +/-1 cases exact
        r = (sub @ sub.T) / np.sqrt(np.outer(sq_norms[idx], sq_norms[idx]))
        r = (r + r.T) / 2.0
        np.fill_diagonal(r, 1.0)
        values[np.ix_(idx, idx)] = r
    return CorrelationMatrix(problems, values)


@dataclass(frozen=True)
class Dendrogram:
    """Agglomerative merge history in scipy convention.

    Each merge is (cluster_a, cluster_b, linkage_distance, size); ids
    below ``len(leaf_order)`` are leaves, higher ids refer to earlier
    merges.  ``leaf_order`` lists problems in display order.
    """

    merges: tuple[tuple[int, int, float, int], ...]
    leaf_order: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class ClusterResult:
    """Flat partition from cutting the dendrogram, plus what was left out."""

    dendrogram: Dendrogram
    clusters: tuple[tuple[str, ...], ...]
    excluded: tuple[str, ...]
    threshold: float

    @property
    def display_order(self) -> tuple[str, ...]:
        """Problems in cluster order, undefined ones appended at the end."""
        return tuple(self.dendrogram.leaf_order) + self.excluded

    def assignments(self) -> dict[str, int | None]:
        """Problem to 1-based cluster id; None for excluded problems."""
        out: dict[str, int | None] = {}
        for cid, members in enumerate(self.clusters, start=1):
            for p in members:
                out[p] = cid
        for p in self.excluded:
            out[p] = None
        return out


def cluster(
    corr: CorrelationMatrix, threshold: float = DEFAULT_THRESHOLD
) -> ClusterResult:
    """Cluster problems by correlation distance d = 1 - r, Ward linkage.

    Problems with undefined correlation are excluded from clustering
    and reported separately.  The flat partition cuts the dendrogram at
    ``threshold``; clusters are ordered by their leftmost leaf so they
    match a heatmap rendered in leaf order.
    """
    # imported here so commands that never cluster skip scipy's startup cost
    from scipy.cluster.hierarchy import fcluster, leaves_list, linkage
    from scipy.spatial.distance import squareform

    if not 0 < threshold < float("inf"):
        raise InputError(f"threshold must be positive and finite, got {threshold}")
    defined = corr.defined_mask
    excluded = tuple(p for p, ok in zip(corr.problems, defined) if not ok)
    kept = [p for p, ok in zip(corr.problems, defined) if ok]
    if not kept:
        raise DomainError("no problem has a defined correlation; nothing to cluster")
    if len(kept) == 1:
        dend = Dendrogram((), (kept[0],))
        return ClusterResult(dend, ((kept[0],),), excluded, threshold)

    idx = np.flatnonzero(defined)
    dist = 1.0 - corr.values[np.ix_(idx, idx)]
    np.fill_diagonal(dist, 0.0)
    dist = np.maximum(dist, 0.0)
    condensed = squareform(dist, checks=False)
    z = linkage(condensed, method="ward")
    heights = z[:, 2]
    if np.any(np.diff(heights) < -1e-12):
        raise DomainError("linkage produced non-monotone merge distances")

    labels = fcluster(z, t=threshold, criterion="distance")
    order = leaves_list(z)
    leaf_problems = tuple(kept[i] for i in order)

    by_label: dict[int, list[str]] = {}
    label_rank: dict[int, int] = {}
    for pos, i in enumerate(order):
        lab = int(labels[i])
        by_label.setdefault(lab, []).append(kept[i])
        label_rank.setdefault(lab, pos)
    ordered_labels = sorted(by_label, key=lambda lab: label_rank[lab])
    clusters = tuple(tuple(by_label[lab]) for lab in ordered_labels)

    merges = tuple(
        (int(a), int(b), float(d), int(size)) for a, b, d, size in z
    )
    return ClusterResult(Dendrogram(merges, leaf_problems), clusters, excluded, threshold)
