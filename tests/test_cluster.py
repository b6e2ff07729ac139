import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import infobench
from conftest import PEARSON_123_124, random_score_table, score_table
from infobench.cluster import CorrelationMatrix, cluster, correlation_matrix
from infobench.errors import DomainError, InputError
from infobench.perf import Measure
from reference_cluster import naive_ward_partition


def corr_of(vectors, measure=Measure.SCORE):
    """Correlation matrix for problems given as per-agent mean vectors."""
    games = {name: (mus, [1.0] * len(mus)) for name, mus in vectors.items()}
    return correlation_matrix(score_table(games), measure)


class TestCorrelationMatrix:
    def test_perfect_anticorrelation(self):
        corr = corr_of({"g": (1.0, 2.0, 3.0), "h": (3.0, 2.0, 1.0)})
        assert corr.entry("g", "h") == -1.0

    def test_perfect_correlation(self):
        corr = corr_of({"g": (1.0, 2.0, 3.0), "h": (1.0, 2.0, 3.0)})
        assert corr.entry("g", "h") == 1.0

    def test_hand_computed_triple(self):
        corr = corr_of({"g": (1.0, 2.0, 3.0), "h": (1.0, 2.0, 4.0)})
        assert corr.entry("g", "h") == pytest.approx(PEARSON_123_124, abs=1e-12)
        assert corr.entry("g", "h") == pytest.approx(0.9820, abs=1e-4)

    def test_symmetric_with_unit_diagonal(self):
        rng = np.random.default_rng(3)
        table = random_score_table(rng, 6, 5)
        corr = correlation_matrix(table, Measure.SCORE)
        assert np.array_equal(corr.values, corr.values.T)
        assert_allclose(np.diagonal(corr.values), 1.0, atol=0)
        assert np.nanmax(np.abs(corr.values)) <= 1 + 1e-12

    def test_zero_variance_problem_is_undefined(self):
        corr = corr_of({"flat": (2.0, 2.0, 2.0), "g": (1.0, 2.0, 3.0)})
        i = corr.problems.index("flat")
        assert np.isnan(corr.values[i]).all()
        assert np.isnan(corr.values[:, i]).all()
        assert list(corr.defined_mask) == [np.False_, np.True_]

    def test_constant_profiles_with_rounded_means_are_undefined(self):
        # the rounded mean of seven 0.1s or 0.7s is not the value itself, so
        # centering leaves residues that a norm test would read as variation
        x = np.arange(7.0)
        corr = corr_of({"c1": (0.1,) * 7, "c2": (0.7,) * 7, "lin": x, "sq": x * x})
        for name in ("c1", "c2"):
            assert np.isnan(corr.values[corr.problems.index(name)]).all()
        assert cluster(corr).clusters == (("lin", "sq"),)
        assert cluster(corr).excluded == ("c1", "c2")

    def test_bytes_do_not_depend_on_blas_threads(self):
        # a BLAS matrix product splits its sums by thread; the child imports
        # numpy first, so each count is set here; where OpenBLAS runs one
        # thread anyway both children agree regardless
        child = (
            "import hashlib, numpy as np\n"
            "from infobench.cluster import correlation_matrix\n"
            "from infobench.perf import Measure, PerformanceTable\n"
            "rng = np.random.default_rng(9)\n"
            "score = 50.0 + np.outer(rng.normal(size=50), rng.uniform(0.2, 1.0, 250))\n"
            "score += rng.normal(0.0, 0.5, score.shape)\n"
            "win = rng.uniform(0.0, 1.0, score.shape)\n"
            "rows = [(f'a{i:02d}', f'p{j:03d}', m, float(v[i, j]), 0.5, 10)\n"
            "        for i in range(50) for j in range(250) for m, v in (('win', win), ('score', score))]\n"
            "table = PerformanceTable.from_stats(rows, 1e-9)\n"
            "for measure in Measure:\n"
            "    print(hashlib.sha256(correlation_matrix(table, measure).values.tobytes()).hexdigest())\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(infobench.__file__).parents[1]))
        outputs = [
            subprocess.run([sys.executable, "-c", child], check=True, capture_output=True,
                           text=True, env=dict(env, OPENBLAS_NUM_THREADS=threads)).stdout
            for threads in ("1", "2")
        ]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("scale", [1e-300, 1e-82, 1e-80, 1e200, 1e300])
    def test_scaled_profiles_give_the_unscaled_r(self, scale):
        # squares of these profiles overflow or are subnormal; r is scale-invariant
        base = np.random.default_rng(7).normal(size=(6, 5))
        unscaled = corr_of({f"g{i}": row for i, row in enumerate(base)})
        scaled = corr_of({f"g{i}": row * scale for i, row in enumerate(base)})
        assert_allclose(scaled.values, unscaled.values, rtol=0, atol=1e-15)

    def test_requires_three_agents(self):
        table = score_table({"g": ((0.0, 1.0), (1.0, 1.0))})
        with pytest.raises(DomainError, match="three agents"):
            correlation_matrix(table, Measure.SCORE)

    def test_uses_the_requested_measure(self):
        from conftest import full_table

        table = full_table(
            {
                "g": {"win": ((0.1, 0.5, 0.9), (0.3,) * 3), "score": ((3.0, 2.0, 1.0), (1.0,) * 3)},
                "h": {"win": ((0.1, 0.5, 0.9), (0.3,) * 3), "score": ((1.0, 2.0, 3.0), (1.0,) * 3)},
            }
        )
        win = correlation_matrix(table, Measure.WIN_RATE)
        score = correlation_matrix(table, Measure.SCORE)
        assert win.entry("g", "h") == 1.0
        assert score.entry("g", "h") == -1.0


def two_block_vectors():
    """Two groups with r=+1 inside and r=-1 across."""
    up = (1.0, 2.0, 3.0, 4.0)
    down = (4.0, 3.0, 2.0, 1.0)
    return {
        "up_a": up,
        "up_b": tuple(2 * x + 1 for x in up),
        "down_a": down,
        "down_b": tuple(3 * x - 2 for x in down),
    }


class TestCluster:
    @pytest.mark.parametrize("threshold", [0.3, 0.8, 1.9])
    def test_two_block_structure(self, threshold):
        corr = corr_of(two_block_vectors())
        result = cluster(corr, threshold)
        as_sets = {frozenset(c) for c in result.clusters}
        assert as_sets == {
            frozenset({"up_a", "up_b"}),
            frozenset({"down_a", "down_b"}),
        }

    def test_single_problem_is_a_singleton(self):
        corr = corr_of({"only": (1.0, 2.0, 3.0)})
        result = cluster(corr)
        assert result.clusters == (("only",),)
        assert result.dendrogram.merges == ()
        assert result.excluded == ()

    def test_all_undefined_is_a_domain_error(self):
        corr = corr_of({"f1": (1.0, 1.0, 1.0), "f2": (2.0, 2.0, 2.0)})
        with pytest.raises(DomainError, match="nothing to cluster"):
            cluster(corr)

    def test_undefined_problems_are_excluded_and_reported(self):
        vectors = dict(two_block_vectors())
        vectors["flat"] = (5.0, 5.0, 5.0, 5.0)
        corr = corr_of(vectors)
        result = cluster(corr, 0.8)
        assert result.excluded == ("flat",)
        assert all("flat" not in c for c in result.clusters)
        assert result.assignments()["flat"] is None
        assert result.display_order[-1] == "flat"

    def test_partition_invariant_under_problem_order(self):
        rng = np.random.default_rng(11)
        vectors = {f"p{j}": tuple(rng.normal(size=6)) for j in range(8)}
        base = cluster(corr_of(vectors), 0.8)
        base_sets = {frozenset(c) for c in base.clusters}
        for seed in range(3):
            order = list(vectors)
            np.random.default_rng(seed).shuffle(order)
            permuted = cluster(corr_of({p: vectors[p] for p in order}), 0.8)
            assert {frozenset(c) for c in permuted.clusters} == base_sets

    def test_merge_heights_are_monotone(self):
        rng = np.random.default_rng(23)
        table = random_score_table(rng, 7, 12)
        corr = correlation_matrix(table, Measure.SCORE)
        result = cluster(corr, 0.8)
        heights = [m[2] for m in result.dendrogram.merges]
        assert all(b >= a - 1e-12 for a, b in zip(heights, heights[1:]))

    def test_clusters_are_contiguous_in_leaf_order(self):
        rng = np.random.default_rng(29)
        table = random_score_table(rng, 6, 10)
        corr = correlation_matrix(table, Measure.SCORE)
        result = cluster(corr, 0.8)
        order = list(result.dendrogram.leaf_order)
        flattened = [p for members in result.clusters for p in members]
        assert flattened == order

    def test_non_finite_correlation_is_a_domain_error(self):
        values = np.array([[1.0, np.inf, 0.5], [np.inf, 1.0, 0.5], [0.5, 0.5, 1.0]])
        with pytest.raises(DomainError, match="correlation is not finite"):
            cluster(CorrelationMatrix(("g", "h", "k"), values))

    def test_threshold_validation(self):
        corr = corr_of({"g": (1.0, 2.0, 3.0), "h": (3.0, 2.0, 1.0)})
        with pytest.raises(ValueError, match="threshold"):
            cluster(corr, 0.0)
        with pytest.raises(InputError, match="threshold"):
            cluster(corr, float("nan"))
        with pytest.raises(InputError, match="threshold"):
            cluster(corr, float("inf"))

    @pytest.mark.parametrize("seed", range(20))
    def test_agrees_with_naive_reference_on_random_fixtures(self, seed):
        rng = np.random.default_rng(1000 + seed)
        table = random_score_table(rng, 6, 10)
        corr = correlation_matrix(table, Measure.SCORE)
        result = cluster(corr, 0.8)
        main = {
            frozenset(corr.problems.index(p) for p in members)
            for members in result.clusters
        }
        dist = (1.0 - corr.values).tolist()
        for i in range(len(dist)):
            dist[i][i] = 0.0
        reference = naive_ward_partition(dist, 0.8)
        assert main == reference
