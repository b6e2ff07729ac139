"""The heatmap renderer draws every cell from one numpy pass; its SVG must
equal the per-cell reference renderer's byte for byte."""

import numpy as np
import pytest

from infobench.cluster import CorrelationMatrix, cluster
from infobench.heatmap import render_heatmap
from reference_heatmap import render_heatmap as reference_render_heatmap

TITLES = ["", "problem correlation (a<b & c>d)"]


def render_both(values, names, title):
    """Render ``values`` with both renderers, laid out by a clustering of a
    well-formed matrix over the same problems, so that ``values`` itself
    may hold anything."""
    n = len(names)
    clean = np.corrcoef(np.random.default_rng(n).normal(size=(n, 6)))
    clustering = cluster(CorrelationMatrix(tuple(names), clean), 0.8)
    corr = CorrelationMatrix(tuple(names), np.array(values, dtype=float))
    return (
        render_heatmap(corr, clustering, title),
        reference_render_heatmap(corr, clustering, title),
    )


@pytest.mark.parametrize("title", TITLES)
@pytest.mark.parametrize("seed", range(4))
def test_random_matrices_with_undefined_and_out_of_range_entries(seed, title):
    rng = np.random.default_rng(seed)
    n = 12 + seed
    values = rng.uniform(-1.5, 1.5, size=(n, n))
    values[rng.integers(n)] = np.nan
    values[:, rng.integers(n)] = np.nan
    flat = values.reshape(-1)
    picks = rng.choice(flat.size, 8, replace=False)
    flat[picks] = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, 1e-300, -1e-300]
    got, want = render_both(values, [f"p{i:02d}" for i in range(n)], title)
    assert got == want


@pytest.mark.parametrize("title", TITLES)
def test_every_half_step_and_its_neighbours(title):
    # r = k/510 puts 255·(1∓r) on a half-integer, where rounding half to
    # even and rounding half up disagree for every other k
    half_steps = np.arange(-510, 511) / 510
    values = np.concatenate(
        [
            half_steps,
            np.nextafter(half_steps, -np.inf),
            np.nextafter(half_steps, np.inf),
        ]
    )
    n = int(np.ceil(np.sqrt(values.size)))
    grid = np.zeros(n * n)
    grid[: values.size] = values
    got, want = render_both(grid.reshape(n, n), [f"p{i:02d}" for i in range(n)], title)
    assert got == want


@pytest.mark.parametrize("title", TITLES)
def test_names_that_need_escaping(title):
    names = ["a<b", "x & y", 'say "hi"', "it's", "é/ü", "]]>", "plain"]
    n = len(names)
    values = np.random.default_rng(7).uniform(-1, 1, size=(n, n))
    values[2] = np.nan
    got, want = render_both(values, names, title)
    assert got == want
