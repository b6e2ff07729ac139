"""``cluster`` against scipy, the implementation its Ward linkage is ported
from: merges, heights, leaf order and flat clusters must be identical."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infobench.cluster import CorrelationMatrix, cluster

hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
distance = pytest.importorskip("scipy.spatial.distance")


def scipy_result(corr, threshold):
    """(merges, leaf_order, clusters) the scipy route gives for ``corr``."""
    defined = corr.defined_mask
    kept = [p for p, ok in zip(corr.problems, defined) if ok]
    if len(kept) == 1:
        return (), tuple(kept), (tuple(kept),)
    idx = np.flatnonzero(defined)
    dist = 1.0 - corr.values[np.ix_(idx, idx)]
    np.fill_diagonal(dist, 0.0)
    z = hierarchy.linkage(
        distance.squareform(np.maximum(dist, 0.0), checks=False), method="ward"
    )
    labels = hierarchy.fcluster(z, t=threshold, criterion="distance")
    order = hierarchy.leaves_list(z)
    groups: dict[int, list[str]] = {}
    for i in order:
        groups.setdefault(int(labels[i]), []).append(kept[i])
    merges = tuple((int(a), int(b), float(h), int(c)) for a, b, h, c in z)
    return merges, tuple(kept[i] for i in order), tuple(map(tuple, groups.values()))


def grid_correlation(n, steps):
    """A correlation matrix whose distances 1 - r are multiples of 1/4,
    read from ``steps`` (upper triangle, row by row): ties everywhere, and
    a zero step makes two problems exact duplicates."""
    d = np.zeros((n, n))
    d[np.triu_indices(n, 1)] = np.asarray(steps) / 4.0
    return CorrelationMatrix(tuple(f"p{i:02d}" for i in range(n)), 1.0 - (d + d.T))


@st.composite
def correlations(draw):
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["grid", "points", "duplicates"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "grid":
        return grid_correlation(n, rng.integers(0, 9, size=n * (n - 1) // 2))
    if kind == "points":
        rows = rng.normal(size=(n, 5))
    else:
        # few distinct small-integer profiles: duplicate rows, r ties,
        # and constant rows that have no defined correlation
        profiles = rng.integers(0, 3, size=(max(1, n // 3), 4)).astype(float)
        rows = profiles[rng.integers(0, len(profiles), size=n)]
        rows[0] = (0.0, 1.0, 2.0, 3.0)  # at least one defined problem
    centered = rows - rows.mean(axis=1, keepdims=True)
    norms = np.sqrt((centered * centered).sum(axis=1))
    defined = norms > 0
    values = np.full((n, n), np.nan)
    unit = centered[defined] / norms[defined, None]
    r = unit @ unit.T
    r = (r + r.T) / 2.0
    np.fill_diagonal(r, 1.0)
    values[np.ix_(defined, defined)] = r
    return CorrelationMatrix(tuple(f"p{i:02d}" for i in range(n)), values)


@given(correlations(), st.sampled_from([0.25, 0.5, 0.8, 1.0, 2.5]))
# every distance tied: the chain's tie rules alone decide the tree
@example(grid_correlation(2, [4]), 0.8)
@example(grid_correlation(40, [4] * 780), 0.8)
# the threshold equals a merge height
@example(grid_correlation(3, [1, 2, 2]), 0.25)
# two merges sit at the threshold, and p00 joins the upper one's group
@example(grid_correlation(4, [1, 1, 4, 1, 4, 4]), 0.25)
@settings(max_examples=150, deadline=None)
def test_cluster_matches_scipy(corr, threshold):
    result = cluster(corr, threshold)
    merges, leaf_order, clusters = scipy_result(corr, threshold)
    assert result.dendrogram.merges == merges
    assert result.dendrogram.leaf_order == leaf_order
    assert result.clusters == clusters
