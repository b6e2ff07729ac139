"""The heatmap renderer draws every cell from one numpy pass; its SVG must
equal the per-cell reference renderer's byte for byte, whether joined into
one string or written to a file piece by piece."""

import inspect

import numpy as np
import pytest

from conftest import full_table
from infobench.cli import main
from infobench.cluster import CorrelationMatrix, cluster, correlation_matrix
from infobench.heatmap import heatmap_lines, render_heatmap
from infobench.perf import Measure, load_stats, write_stats_csv
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


def test_correlate_writes_each_heatmap_as_the_reference_renders_it(tmp_path):
    # two flat problems make an undefined block; one name needs escaping
    rng = np.random.default_rng(5)
    problems = {
        name: {
            "win": (rng.uniform(0.1, 0.9, 6), (0.4,) * 6),
            "score": (rng.normal(size=6), (1.0,) * 6),
        }
        for name in ("p0", "a<b & c>d", "p2", "p3", "p4", "p5")
    }
    for name in ("flat_a", "flat_b"):
        problems[name] = {"win": ((0.5,) * 6, (0.4,) * 6), "score": ((3.0,) * 6, (1.0,) * 6)}
    stats = tmp_path / "stats.csv"
    with open(stats, "w", newline="") as f:
        write_stats_csv(full_table(problems), f)
    out = tmp_path / "out"
    assert main(["correlate", "--stats", str(stats), "--out", str(out)]) == 0

    table = load_stats(stats)
    for measure in Measure:
        corr = correlation_matrix(table, measure)
        clustering = cluster(corr)
        assert clustering.excluded == ("flat_a", "flat_b")
        want = reference_render_heatmap(
            corr, clustering, f"problem correlation ({measure.value})"
        )
        assert (out / f"heatmap_{measure.value}.svg").read_bytes() == want.encode("utf-8")


def test_heatmap_lines_yields_its_first_piece_before_drawing_a_cell():
    names = ("p0", "p1", "p2")
    corr = CorrelationMatrix(names, np.corrcoef(np.random.default_rng(2).normal(size=(3, 6))))
    lines = heatmap_lines(corr, cluster(corr, 0.8), "a<b & c>d")
    assert inspect.isgenerator(lines)
    assert next(lines) == '<?xml version="1.0" encoding="UTF-8"?>\n'
    assert inspect.getgeneratorstate(lines) == inspect.GEN_SUSPENDED
