import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (
    THREE_AGENT_ROWS,
    random_score_table,
    score_keys,
    score_table,
)
from infobench.confusion import (
    ConfusionMatrix,
    confusion,
    log_weight_matrix,
)
from infobench.errors import CompletenessError, DomainError
from infobench.perf import Measure, MetricKey

G = MetricKey("g", Measure.SCORE)


class TestLogWeight:
    def test_same_agent_unit_noise(self):
        table = score_table({"g": ((0.0, 0.0), (1.0, 1.0))})
        expected = -0.5 * math.log(8 * math.pi)  # -1.6120857137646181
        i = table.agent_index("a00")
        assert log_weight_matrix(table, [G])[i, i] == pytest.approx(expected, abs=1e-12)

    def test_unit_mean_gap(self):
        table = score_table({"g": ((0.0, 1.0), (1.0, 1.0))})
        expected = -0.125 - 0.5 * math.log(8 * math.pi)  # -1.7370857137646181
        i, j = table.agent_index("a00"), table.agent_index("a01")
        assert log_weight_matrix(table, [G])[i, j] == pytest.approx(expected, abs=1e-12)

    def test_two_identical_games_double_the_value(self):
        one = score_table({"g": ((0.0, 1.0), (1.0, 1.0))})
        two = score_table(
            {
                "g": ((0.0, 1.0), (1.0, 1.0)),
                "h": ((0.0, 1.0), (1.0, 1.0)),
            }
        )
        i, j = one.agent_index("a00"), one.agent_index("a01")
        single = log_weight_matrix(one, [G])[i, j]
        both = log_weight_matrix(two, score_keys(two))[i, j]
        assert both == pytest.approx(2 * single, rel=1e-15)

    def test_matches_matrix_entry(self):
        mus, sds = (0.0, 1.0, 3.0), (1.0, 0.5, 2.0)
        table = score_table({"g": (mus, sds)})
        matrix = log_weight_matrix(table, [G])
        for i, obs in enumerate(table.agents):
            for j, cand in enumerate(table.agents):
                scale = sds[i] + sds[j]
                expected = -((mus[i] - mus[j]) ** 2) / (2 * scale**2) - 0.5 * math.log(
                    2 * math.pi * scale**2
                )
                entry = matrix[table.agent_index(obs), table.agent_index(cand)]
                assert entry == pytest.approx(expected, rel=1e-15)

    def test_rss_combination(self):
        table = score_table({"g": ((0.0, 1.0), (1.0, 2.0))})
        scale = math.hypot(1.0, 2.0)
        expected = -1.0 / (2 * scale**2) - 0.5 * math.log(2 * math.pi * scale**2)
        i, j = table.agent_index("a00"), table.agent_index("a01")
        assert log_weight_matrix(table, [G], noise="rss")[i, j] == pytest.approx(
            expected, abs=1e-12
        )

    def test_unknown_noise_mode(self):
        table = score_table({"g": ((0.0, 1.0), (1.0, 1.0))})
        with pytest.raises(ValueError, match="noise"):
            log_weight_matrix(table, [G], noise="geometric")


class TestConfusion:
    def test_identical_pair_is_half_everywhere(self):
        table = score_table({"g": ((3.0, 3.0), (1.5, 1.5))})
        c = confusion(table, [G])
        assert_allclose(c.probs, np.full((2, 2), 0.5), atol=1e-15)

    def test_separation_limit_is_identity(self):
        table = score_table({"g": ((0.0, 100.0), (1.0, 1.0))})
        c = confusion(table, [G])
        assert_allclose(c.probs, np.eye(2), atol=1e-12)

    def test_three_agent_fixture(self, three_agent_table):
        c = confusion(three_agent_table, [G])
        assert_allclose(c.probs, THREE_AGENT_ROWS, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            table = random_score_table(rng, int(rng.integers(2, 9)), int(rng.integers(1, 5)))
            c = confusion(table, score_keys(table))
            assert_allclose(c.probs.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(c.probs >= 0) and np.all(c.probs <= 1)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_row_stochastic_property(self, seed):
        rng = np.random.default_rng(seed)
        table = random_score_table(rng, int(rng.integers(2, 9)), int(rng.integers(1, 5)))
        c = confusion(table, score_keys(table))
        assert np.max(np.abs(c.probs.sum(axis=1) - 1.0)) < 1e-9

    @pytest.mark.parametrize("c_scale", [1e-3, 1.0, 1e3])
    def test_affine_invariance_per_game(self, c_scale):
        rng = np.random.default_rng(21)
        table = random_score_table(rng, 5, 3)
        keys = score_keys(table)
        base = confusion(table, keys).probs

        games = {}
        for k in keys:
            mu, sd = table.column(k)
            games[k.problem] = (c_scale * mu + 3.7, c_scale * sd)
        transformed = score_table(games)
        after = confusion(transformed, score_keys(transformed)).probs
        assert np.max(np.abs(after - base)) < 1e-12

    def test_agent_permutation_equivariance(self):
        table = score_table({"g": ((0.0, 1.0, 2.0), (1.0, 0.5, 2.0))})
        base = confusion(table, [G]).probs

        # reverse the agent order by renaming
        renamed = score_table({"g": ((2.0, 1.0, 0.0), (2.0, 0.5, 1.0))})
        flipped = confusion(renamed, [G]).probs
        assert_allclose(flipped, base[::-1, ::-1], atol=1e-15)

    def test_uninformative_game_neutrality(self, three_agent_table):
        base = confusion(three_agent_table, [G]).probs
        with_flat = score_table(
            {
                "g": ((0.0, 1.0, 2.0), (1.0, 1.0, 1.0)),
                "flat": ((7.0, 7.0, 7.0), (2.0, 2.0, 2.0)),
            }
        )
        after = confusion(with_flat, score_keys(with_flat)).probs
        assert np.max(np.abs(after - base)) < 1e-12

    def test_narrow_candidate_can_beat_the_diagonal(self):
        # equal means, one agent much less noisy: the narrow candidate
        # explains everyone's observation best; no clamping is applied
        table = score_table({"g": ((0.0, 0.0, 0.0), (5.0, 0.1, 5.0))})
        c = confusion(table, [G])
        assert c.probs[0, 1] > c.probs[0, 0]

    def test_single_agent_is_a_domain_error(self):
        table = score_table({"g": ((1.0,), (1.0,))})
        with pytest.raises(DomainError, match="fewer than two"):
            confusion(table, [G])

    def test_key_validation(self, three_agent_table):
        with pytest.raises(ValueError, match="non-empty"):
            confusion(three_agent_table, [])
        with pytest.raises(ValueError, match="duplicates"):
            confusion(three_agent_table, [G, G])
        with pytest.raises(CompletenessError):
            confusion(three_agent_table, [MetricKey("missing", Measure.SCORE)])

    def test_matrix_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ConfusionMatrix(("a", "b"), np.array([[0.9, 0.2], [0.5, 0.5]]))
        with pytest.raises(ValueError, match="shape"):
            ConfusionMatrix(("a", "b"), np.eye(3))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ConfusionMatrix(("a", "b"), np.array([[1.5, -0.5], [0.5, 0.5]]))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ConfusionMatrix(("a", "b"), np.array([[np.nan, np.nan], [0.5, 0.5]]))

    @pytest.mark.parametrize("sd", [1e200, 1e-170])
    def test_non_finite_weights_are_a_domain_error(self, sd):
        # 2*(sd+sd)^2 overflows to inf or underflows to 0, which would
        # otherwise turn into NaN rows reported as log2(n) bits
        table = score_table({"g": ((1.0, 1.0, 1.0), (sd, sd, sd))}, sigma_floor=sd)
        with pytest.raises(DomainError, match="not finite"):
            confusion(table, [G])

    def test_rss_differs_from_sum(self, three_agent_table):
        a = confusion(three_agent_table, [G]).probs
        b = confusion(three_agent_table, [G], noise="rss").probs
        assert np.max(np.abs(a - b)) > 1e-3
