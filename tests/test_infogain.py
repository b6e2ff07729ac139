import csv
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (
    THREE_AGENT_MI_BITS,
    full_table,
    random_score_table,
    score_keys,
    score_table,
)
from infobench.cli import main
from infobench.confusion import confusion, gain_bits
from infobench.errors import CompletenessError, DomainError, InfobenchError
from infobench.infogain import (
    EPS_GAIN,
    greedy_select,
    info_gain_set,
    metric_keys_for,
    mutual_information,
    problem_gains,
)
from infobench.perf import Measure, MetricKey, write_stats_csv
from reference_oracle import oracle_bits, oracle_softmax_rows

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

    @pytest.mark.parametrize("probs", [
        np.eye(5),
        np.array([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.2, 0.3, 0.5]]),
        np.array([[0.0, 0.25, 0.75, 0.0], [1.0, 0.0, 0.0, 0.0],
                  [0.25, 0.25, 0.25, 0.25], [0.0, 0.0, 0.1, 0.9]]),
    ])
    def test_exact_zeros_add_nothing_and_warn_of_nothing(self, probs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mi = mutual_information(probs)
        assert mi == pytest.approx(oracle_bits(probs.tolist()), abs=1e-12)

    def test_three_agent_fixture_value(self, three_agent_table):
        mi = mutual_information(confusion(three_agent_table, [G]))
        assert mi == pytest.approx(THREE_AGENT_MI_BITS, abs=1e-12)
        assert mi == pytest.approx(0.0206, abs=1e-4)

    def test_one_agent_is_a_domain_error(self):
        with pytest.raises(DomainError, match="fewer than two"):
            mutual_information(np.ones((1, 1)))

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
        assert gain == 0.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bounds(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        table = random_score_table(rng, n, int(rng.integers(1, 5)))
        gain = info_gain_set(table, score_keys(table))
        assert 0.0 <= gain <= math.log2(n) + 1e-9


class TestGainFloor:
    # every agent alike gives uniform beliefs; an entropy taken from their
    # probabilities rounds to either side of log2(n), e.g. 4.4e-16 bits
    # above 0 at 12 agents
    @pytest.mark.parametrize("n", range(2, 60))
    def test_uninformative_problem_scores_exactly_zero(self, n, tmp_path):
        table = full_table(
            {
                "flat": {"win": ((0.5,) * n, (0.1,) * n), "score": ((3.0,) * n, (1.0,) * n)},
                "sharp": {
                    "win": (tuple(np.linspace(0.0, 1.0, n)), (0.1,) * n),
                    "score": (tuple(10.0 * i for i in range(n)), (1.0,) * n),
                },
            }
        )
        gains = problem_gains(table)
        for mode in ("win", "score", "combined"):
            assert info_gain_set(table, metric_keys_for("flat", mode)) == 0.0
            assert gains[mode][table.problems.index("flat")] == 0.0
        stats = tmp_path / "stats.csv"
        with open(stats, "w", newline="") as f:
            write_stats_csv(table, f)
        assert main(["info-gain", "--stats", str(stats), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "info_gain.csv") as f:
            rows = {r[0]: r[1:] for r in list(csv.reader(f))[1:]}
        assert rows["flat"] == ["0.0", "0.0", "0.0"]


# log weights from ordinary magnitudes to ones whose exp underflows to 0
LOG_WEIGHTS = st.one_of(st.floats(-40.0, 40.0), st.sampled_from([-800.0, -1e5, -1e300]))


class TestGainKernel:
    @given(
        hnp.arrays(
            float,
            st.integers(2, 9).flatmap(lambda n: st.tuples(st.integers(1, 3), st.just(n),
                                                          st.just(n))),
            elements=LOG_WEIGHTS,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_direct_summation(self, log_weights):
        expected = [oracle_bits(oracle_softmax_rows(w.tolist())) for w in log_weights]
        gains = gain_bits(log_weights.copy())
        assert gains.shape == (len(log_weights),)
        assert np.max(np.abs(gains - expected)) <= 1e-12
        assert np.all((gains >= 0.0) & (gains <= math.log2(log_weights.shape[-1])))

    @given(st.integers(2, 59), st.data())
    @settings(max_examples=100, deadline=None)
    def test_one_hot_row_scores_exactly_log2_n(self, n, data):
        # every other weight is so far below the hot one that its exp underflows to 0
        row = np.array(data.draw(st.lists(st.sampled_from([-1e5, -1e300]),
                                          min_size=n, max_size=n)))
        row[data.draw(st.integers(0, n - 1))] = data.draw(st.floats(-1e3, 1e3))
        # a slice of this one row: its gain is the row's own bits, with no mean to round
        assert gain_bits(row[None, :]) == math.log2(n)

    @given(st.integers(2, 59), st.floats(-1e300, 1e300))
    @settings(max_examples=100, deadline=None)
    def test_uniform_rows_score_exactly_zero(self, n, w):
        assert gain_bits(np.full((n, n), w)) == 0.0


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
        combined = info_gain_set(table, metric_keys_for("g", "combined"))
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
        assert abs(info_gain_set(table, metric_keys_for("g", "combined"))) < 1e-12

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
        combined = info_gain_set(table, metric_keys_for("g", "combined"))
        win = info_gain_set(table, [MetricKey("g", Measure.WIN_RATE)])
        score = info_gain_set(table, [MetricKey("g", Measure.SCORE)])
        assert combined <= win + score + 1e-9

    def test_missing_measure_is_a_completeness_error(self):
        table = score_table({"g": ((0.0, 1.0), (1.0, 1.0))})
        missing = "no cell for problem 'g' measure 'win'"
        with pytest.raises(CompletenessError, match=missing):
            info_gain_set(table, metric_keys_for("g", "combined"))
        with pytest.raises(CompletenessError, match=missing):
            greedy_select(table, 1, "combined")

    def test_overflowing_sum_of_finite_terms_is_a_domain_error(self):
        # each key's off-diagonal term is -(2.83e153)^2 / 0.08 = -1.0011e308,
        # finite, so one key gives 1 bit; the win and score terms together
        # overflow to -inf, which must not read as a gain
        table = full_table({"g": {measure: ((0.0, 2.83e153), (0.1, 0.1))
                                  for measure in ("win", "score")}})
        win = MetricKey("g", Measure.WIN_RATE)
        assert info_gain_set(table, [win]) == 1.0
        combined = metric_keys_for("g", "combined")
        for scored in (
            lambda: info_gain_set(table, combined),
            lambda: problem_gains(table),
            lambda: greedy_select(table, 1),
            lambda: confusion(table, combined),
        ):
            with pytest.raises(DomainError, match="not finite"):
                scored()

    def test_metric_keys_for_modes(self):
        assert metric_keys_for("p", "win") == (MetricKey("p", Measure.WIN_RATE),)
        assert metric_keys_for("p", "score") == (MetricKey("p", Measure.SCORE),)
        assert metric_keys_for("p", "combined") == (
            MetricKey("p", Measure.WIN_RATE),
            MetricKey("p", Measure.SCORE),
        )
        with pytest.raises(ValueError, match="mode"):
            metric_keys_for("p", "both")


def subadditivity_excess(table):
    """Each problem's combined gain minus its win gain plus its score gain."""
    gains = problem_gains(table)
    return gains["combined"] - (gains["win"] + gains["score"])


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
        assert not (subadditivity_excess(table) > EPS_GAIN).any()

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
        excess = subadditivity_excess(table)
        violators = [table.problems[i] for i in np.flatnonzero(excess > EPS_GAIN)]
        assert violators == ["g"]
        assert excess[0] > 0
