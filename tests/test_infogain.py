import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    THREE_AGENT_MI_BITS,
    full_table,
    random_score_table,
    score_keys,
    score_table,
)
from infobench.confusion import confusion
from infobench.errors import CompletenessError, InfobenchError
from infobench.infogain import (
    greedy_select,
    info_gain_combined,
    info_gain_set,
    metric_keys_for,
    mutual_information,
    subadditivity_audit,
)
from infobench.perf import Measure, MetricKey

G = MetricKey("g", Measure.SCORE)

MAGNITUDES = st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-300, 299))
SIGNED_MAGNITUDES = st.builds(lambda sign, v: sign * v, st.sampled_from((-1.0, 1.0)), MAGNITUDES)


class TestMutualInformation:
    def test_identity_channel_is_exact(self):
        assert mutual_information(np.eye(4)) == 2.0

    def test_uniform_channel_is_exactly_zero(self):
        assert mutual_information(np.full((4, 4), 0.25)) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_uniform_any_size_is_zero(self, n):
        assert abs(mutual_information(np.full((n, n), 1.0 / n))) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_identity_any_size(self, n):
        assert mutual_information(np.eye(n)) == pytest.approx(math.log2(n), abs=1e-12)

    def test_zero_entries_use_the_zero_log_zero_convention(self):
        rows = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert mutual_information(rows) == 1.0

    def test_three_agent_fixture_value(self, three_agent_table):
        mi = mutual_information(confusion(three_agent_table, [G]))
        assert mi == pytest.approx(THREE_AGENT_MI_BITS, abs=1e-12)
        assert mi == pytest.approx(0.0206, abs=1e-4)

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError, match="stochastic"):
            mutual_information(np.array([[0.7, 0.7], [0.5, 0.5]]))
        with pytest.raises(ValueError, match="non-negative"):
            mutual_information(np.array([[1.5, -0.5], [0.5, 0.5]]))
        with pytest.raises(ValueError, match="square"):
            mutual_information(np.ones((2, 3)) / 3.0)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            mutual_information(np.array([[np.nan, np.nan], [0.5, 0.5]]))


class TestInfoGainSet:
    def test_identical_agents_give_nothing(self):
        table = score_table({"g": ((2.0, 2.0, 2.0), (1.0, 1.0, 1.0))})
        assert abs(info_gain_set(table, [G])) < 1e-12

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_separation_limit(self, n):
        mus = tuple(100.0 * i for i in range(n))
        table = score_table({"g": (mus, (1.0,) * n)})
        assert info_gain_set(table, [G]) == pytest.approx(math.log2(n), abs=1e-6)

    def test_exact_duplicate_game_changes_nothing_when_saturated(self):
        # one-hot rows: duplicating the evidence cannot sharpen further
        base = score_table({"g": ((0.0, 100.0, 200.0), (1.0, 1.0, 1.0))})
        both = score_table(
            {
                "g": ((0.0, 100.0, 200.0), (1.0, 1.0, 1.0)),
                "g_dup": ((0.0, 100.0, 200.0), (1.0, 1.0, 1.0)),
            }
        )
        single = info_gain_set(base, score_keys(base))
        doubled = info_gain_set(both, score_keys(both))
        assert abs(doubled - single) < 1e-12

    def test_duplicating_weak_evidence_sharpens(self):
        # the same check fails off saturation: repeated measurements of a
        # weakly separated pair genuinely concentrate the belief
        base = score_table({"g": ((0.0, 1.0), (1.0, 1.0))})
        both = score_table(
            {
                "g": ((0.0, 1.0), (1.0, 1.0)),
                "g_dup": ((0.0, 1.0), (1.0, 1.0)),
            }
        )
        assert info_gain_set(both, score_keys(both)) > 2 * info_gain_set(
            base, score_keys(base)
        )

    @given(
        n=st.integers(2, 5),
        cells=st.lists(st.tuples(SIGNED_MAGNITUDES, MAGNITUDES), min_size=1, max_size=3),
        sigma_floor=st.integers(-300, -1).map(lambda e: 10.0**e),
    )
    @settings(max_examples=200, deadline=None)
    def test_identical_agents_give_nothing_at_any_magnitude(self, n, cells, sigma_floor):
        games = {f"p{j}": ((mu,) * n, (sd,) * n) for j, (mu, sd) in enumerate(cells)}
        table = score_table(games, sigma_floor=sigma_floor)
        try:
            gain = info_gain_set(table, score_keys(table))
        except InfobenchError:
            return
        assert abs(gain) <= 1e-9

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bounds(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        table = random_score_table(rng, n, int(rng.integers(1, 5)))
        gain = info_gain_set(table, score_keys(table))
        assert 0.0 <= gain <= math.log2(n) + 1e-9


class TestInfoGainCombined:
    def test_constant_win_rate_adds_nothing(self):
        table = full_table(
            {
                "g": {
                    "win": ((0.0, 0.0, 0.0), (0.1, 0.1, 0.1)),
                    "score": ((0.0, 5.0, 10.0), (1.0, 1.0, 1.0)),
                }
            }
        )
        combined = info_gain_combined(table, "g")
        score_only = info_gain_set(table, [MetricKey("g", Measure.SCORE)])
        assert abs(combined - score_only) < 1e-12

    def test_identical_everything_is_zero(self):
        table = full_table(
            {
                "g": {
                    "win": ((0.5, 0.5), (0.5, 0.5)),
                    "score": ((1.0, 1.0), (1.0, 1.0)),
                }
            }
        )
        assert abs(info_gain_combined(table, "g")) < 1e-12

    def test_subadditive_on_well_separated_instance(self):
        rng = np.random.default_rng(5)
        table = full_table(
            {
                "g": {
                    "win": (np.linspace(0.05, 0.95, 5), np.full(5, 0.3)),
                    "score": (12.0 * rng.permutation(5.0 * np.arange(5)), np.full(5, 1.0)),
                }
            }
        )
        combined = info_gain_combined(table, "g")
        win = info_gain_set(table, [MetricKey("g", Measure.WIN_RATE)])
        score = info_gain_set(table, [MetricKey("g", Measure.SCORE)])
        assert combined <= win + score + 1e-9

    def test_missing_measure_is_a_completeness_error(self):
        table = score_table({"g": ((0.0, 1.0), (1.0, 1.0))})
        missing = "no cell for problem 'g' measure 'win'"
        with pytest.raises(CompletenessError, match=missing):
            info_gain_combined(table, "g")
        with pytest.raises(CompletenessError, match=missing):
            greedy_select(table, 1, "combined")

    def test_metric_keys_for_modes(self):
        assert metric_keys_for("p", "win") == (MetricKey("p", Measure.WIN_RATE),)
        assert metric_keys_for("p", "score") == (MetricKey("p", Measure.SCORE),)
        assert metric_keys_for("p", "combined") == (
            MetricKey("p", Measure.WIN_RATE),
            MetricKey("p", Measure.SCORE),
        )
        with pytest.raises(ValueError, match="mode"):
            metric_keys_for("p", "both")


class TestSubadditivityAudit:
    def test_clean_on_saturated_fixture(self):
        table = full_table(
            {
                "g": {
                    "win": ((0.1, 0.5, 0.9), (0.3, 0.5, 0.3)),
                    "score": ((0.0, 15.0, 30.0), (1.0, 1.0, 1.0)),
                }
            }
        )
        assert subadditivity_audit(table) == []

    def test_flags_sharpening_of_correlated_weak_measures(self):
        # win and score carry the same weak signal; combining them
        # squares the evidence and the combined gain exceeds the sum
        table = full_table(
            {
                "g": {
                    "win": ((0.4, 0.6), (0.49, 0.49)),
                    "score": ((0.4, 0.6), (0.49, 0.49)),
                }
            }
        )
        violations = subadditivity_audit(table)
        assert len(violations) == 1
        v = violations[0]
        assert v.problem == "g"
        assert v.excess_bits > 0
        assert v.combined_bits > v.win_bits + v.score_bits
