"""Inter-problem correlation of agent performance, with hierarchical clustering.

Two problems correlate when agents that do well on one tend to do well
(or, for anti-correlation, badly) on the other.  Each problem is the
vector of per-agent mean performances for one measure; entries are
Pearson r.  Problems on which every agent performs identically carry
no correlation signal and are marked undefined (NaN) rather than
imputed.  Clustering is agglomerative with variance-minimizing (Ward)
linkage on the distance 1 - r, cut at a configurable threshold.

The linkage is a numpy port of scipy's Ward ``nn_chain`` and ``label``
(``scipy/cluster/_hierarchy.pyx``; the nearest-neighbour-chain algorithm
of Müllner 2011, arXiv:1109.2378), so merges, heights and leaf order are
those of ``scipy.cluster.hierarchy.linkage(..., "ward")``,
``fcluster(..., criterion="distance")`` and ``leaves_list``, bit for
bit.  Ties follow scipy: a chain starts at the lowest live index; the
chain's previous element wins a tie for nearest neighbour, and
otherwise the lowest index among the equal minima does; each merge is
recorded as (lower slot, higher slot), the higher slot holds the merged
cluster, and merges are sorted by height with a stable sort.

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
    """Pearson correlation between every problem pair for one measure.

    Pearson r is scale-invariant, so each profile is first scaled by the
    power of two (exact) that brings its largest magnitude into [0.5, 1):
    squares and norm products can then neither overflow nor underflow.
    A profile is constant, so undefined, exactly when its largest and
    smallest mean are equal.

    The centered profiles' Gram product is summed agent by agent in a
    fixed order from elementwise products, not by a BLAS matrix product,
    whose sums depend on its thread count.  It is symmetric bit for bit,
    and its diagonal holds the squared norms summed in the same order, so
    the diagonal of r is exactly 1 and duplicate profiles give r = 1.
    """
    measure = Measure(measure)
    if len(table.agents) < 3:
        raise DomainError(
            "correlation requires at least three agents; "
            f"table has {len(table.agents)}"
        )
    problems = table.problems
    rows = np.stack([table.column(MetricKey(p, measure))[0] for p in problems])
    _, exponents = np.frexp(np.abs(rows).max(axis=1, keepdims=True))
    rows = np.ldexp(rows, -exponents)
    n = len(problems)
    values = np.full((n, n), np.nan)
    idx = np.flatnonzero(rows.max(axis=1) > rows.min(axis=1))
    sub = rows[idx]
    sub -= sub.mean(axis=1, keepdims=True)
    gram = np.zeros((len(idx), len(idx)))
    product = np.empty_like(gram)
    for agent in sub.T:
        gram += np.multiply.outer(agent, agent, out=product)
    sq_norms = np.diagonal(gram)
    # single square root of the norm product keeps the +/-1 cases exact
    values[np.ix_(idx, idx)] = gram / np.sqrt(np.outer(sq_norms, sq_norms))
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


def _ward_linkage(dist: np.ndarray) -> list[list[float]]:
    """Ward linkage of a full symmetric matrix of finite distances, as the
    rows ``[a, b, height, size]`` of scipy's linkage matrix."""
    n = len(dist)
    d = dist.astype(float)  # a copy, since the merges write into it
    np.fill_diagonal(d, np.inf)
    size = np.ones(n, dtype=np.int64)  # 0 marks a merged-away slot
    merges = []
    chain: list[int] = []
    for _ in range(n - 1):
        if not chain:
            chain.append(int(np.flatnonzero(size)[0]))
        # walk to a pair of reciprocal nearest neighbours
        while True:
            x = chain[-1]
            y = int(np.argmin(d[x]))
            if len(chain) > 1 and d[x, chain[-2]] <= d[x, y]:
                y = chain[-2]
                break
            chain.append(y)
        del chain[-2:]
        dxy = d[x, y]
        x, y = min(x, y), max(x, y)
        nx, ny = size[x], size[y]
        merges.append([x, y, dxy])
        size[x] = 0
        size[y] = nx + ny
        # Lance-Williams update, term for term in scipy's order
        i = np.flatnonzero(size)
        i = i[i != y]
        ni = size[i]
        dxi, dyi = d[i, x], d[i, y]
        t = 1.0 / (nx + ny + ni)
        d[i, y] = d[y, i] = np.sqrt(
            (ni + nx) * t * dxi * dxi + (ni + ny) * t * dyi * dyi - ni * t * dxy * dxy
        )
        d[x, :] = d[:, x] = np.inf
    # sort by height (stable), then name each merged cluster n, n + 1, ...
    merges = [merges[k] for k in np.argsort([m[2] for m in merges], kind="mergesort")]
    parent = list(range(2 * n - 1))
    count = [1] * n + [0] * (n - 1)

    def root(a: int) -> int:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    for k, m in enumerate(merges):
        a, b = sorted((root(m[0]), root(m[1])))
        parent[a] = parent[b] = n + k
        count[n + k] = count[a] + count[b]
        m[:] = a, b, float(m[2]), count[n + k]
    return merges


def cluster(
    corr: CorrelationMatrix, threshold: float = DEFAULT_THRESHOLD
) -> ClusterResult:
    """Cluster problems by correlation distance d = 1 - r, Ward linkage.

    Problems with undefined correlation are excluded from clustering
    and reported separately.  The flat partition cuts the dendrogram at
    ``threshold``: it joins the problems of every merge no higher than
    the threshold.  Clusters are ordered by their leftmost leaf so they
    match a heatmap rendered in leaf order.
    """
    if not 0 < threshold < float("inf"):
        raise InputError(f"threshold must be positive and finite, got {threshold}")
    defined = corr.defined_mask
    excluded = tuple(p for p, ok in zip(corr.problems, defined) if not ok)
    kept = [p for p, ok in zip(corr.problems, defined) if ok]
    if not kept:
        raise DomainError("no problem has a defined correlation; nothing to cluster")
    idx = np.flatnonzero(defined)
    dist = 1.0 - corr.values[np.ix_(idx, idx)]
    if not np.isfinite(dist).all():
        raise DomainError("correlation is not finite for some problem pair")
    n = len(kept)
    merges = _ward_linkage(np.maximum(dist, 0.0))

    # pre-order walk from the root, left child first; each entry carries the
    # highest merge at or below the threshold met on the way down, and merges
    # are sorted by height, so a leaf joining that merge's group (or its own,
    # under none) is fcluster's distance cut
    order, stack = [], [(2 * n - 2, None)]
    groups: dict[int, list[str]] = {}
    while stack:
        node, top = stack.pop()
        if node < n:
            order.append(node)
            groups.setdefault(node if top is None else top, []).append(kept[node])
        else:
            a, b, height = merges[node - n][:3]
            if top is None and height <= threshold:
                top = node
            stack += ((b, top), (a, top))
    clusters = tuple(map(tuple, groups.values()))
    dend = Dendrogram(tuple(map(tuple, merges)), tuple(kept[i] for i in order))
    return ClusterResult(dend, clusters, excluded)
