import importlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (
    THREE_AGENT_ROWS,
    random_score_table,
    score_keys,
    score_table,
)
from infobench.confusion import (
    CHUNK_ELEMENTS,
    NOISE_MODES,
    ConfusionMatrix,
    confusion,
    log_weight_matrix,
    log_weight_stack,
    log_weight_term,
    square_index,
    stack_gains,
)
from infobench.errors import CompletenessError, DomainError
from infobench.infogain import info_gain_set
from infobench.perf import Measure, MetricKey, PerformanceTable
from reference_logweight import log_weight_term as reference_log_weight_term

G = MetricKey("g", Measure.SCORE)

# magnitudes from 1e-320 (subnormal) to 1e300, with both zeros: squares
# and scales over them overflow, underflow and meet 0 / 0
MAGNITUDES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda m, e: m * 10.0**e, st.floats(1, 10), st.integers(-320, 300)),
)
MEANS = st.one_of(MAGNITUDES, MAGNITUDES.map(lambda m: -m))


@st.composite
def extreme_columns(draw, keys=1):
    """Means and stddevs of ``keys`` columns over 1 to 8 agents."""
    n = draw(st.integers(1, 8))
    cells = st.lists(st.tuples(MEANS, MAGNITUDES), min_size=n * keys, max_size=n * keys)
    mu, sd = np.array(draw(cells)).reshape(n, keys, 2).transpose(2, 0, 1)
    return mu, sd


def raw_table(mu, sd):
    """A score-only table of the given ``(agents, keys)`` columns, taken
    as they are: no floor, so zero and -0.0 stddevs reach the terms."""
    n, width = mu.shape
    keys = tuple(MetricKey(f"p{j}", Measure.SCORE) for j in range(width))
    agents = tuple(f"a{i:03d}" for i in range(n))
    return PerformanceTable(agents, keys, mu.copy(), sd.copy(), np.ones((n, width), int))


def same_bits(a, b):
    """Equal bit for bit, except that any NaN matches any NaN."""
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and np.array_equal(
        a[~nan].view(np.int64), b[~nan].view(np.int64)
    )


class TestLogWeight:
    def test_same_agent_unit_noise(self):
        table = score_table({"g": ((0.0, 0.0), (1.0, 1.0))})
        expected = -0.5 * math.log(8 * math.pi)  # -1.6120857137646181
        i = table.agents.index("a00")
        assert log_weight_matrix(table, [G])[i, i] == pytest.approx(expected, abs=1e-12)

    def test_unit_mean_gap(self):
        table = score_table({"g": ((0.0, 1.0), (1.0, 1.0))})
        expected = -0.125 - 0.5 * math.log(8 * math.pi)  # -1.7370857137646181
        i, j = table.agents.index("a00"), table.agents.index("a01")
        assert log_weight_matrix(table, [G])[i, j] == pytest.approx(expected, abs=1e-12)

    def test_two_identical_games_double_the_value(self):
        one = score_table({"g": ((0.0, 1.0), (1.0, 1.0))})
        two = score_table(
            {
                "g": ((0.0, 1.0), (1.0, 1.0)),
                "h": ((0.0, 1.0), (1.0, 1.0)),
            }
        )
        i, j = one.agents.index("a00"), one.agents.index("a01")
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
                entry = matrix[table.agents.index(obs), table.agents.index(cand)]
                assert entry == pytest.approx(expected, rel=1e-15)

    def test_rss_combination(self):
        table = score_table({"g": ((0.0, 1.0), (1.0, 2.0))})
        scale = math.hypot(1.0, 2.0)
        expected = -1.0 / (2 * scale**2) - 0.5 * math.log(2 * math.pi * scale**2)
        i, j = table.agents.index("a00"), table.agents.index("a01")
        assert log_weight_matrix(table, [G], noise="rss")[i, j] == pytest.approx(
            expected, abs=1e-12
        )

    def test_unknown_noise_mode(self):
        table = score_table({"g": ((0.0, 1.0), (1.0, 1.0))})
        with pytest.raises(ValueError, match="noise"):
            log_weight_matrix(table, [G], noise="geometric")

    @given(extreme_columns(), st.sampled_from(NOISE_MODES))
    # a subnormal squared scale: 2 * scale * scale and scale * scale * 2 differ
    @example((np.array([[0.0]]), np.array([[1e-156]])), "rss")
    @settings(max_examples=300, deadline=None)
    def test_term_equals_the_reference_expression_bit_for_bit(self, columns, noise):
        table = raw_table(*columns)
        key = table.keys[0]
        term = log_weight_term(table, key, noise)
        assert same_bits(term, reference_log_weight_term(*table.column(key), noise))

    @given(extreme_columns(keys=4), st.sampled_from(NOISE_MODES))
    @example(
        # n² above CHUNK_ELEMENTS: stack_gains scores one bundle per chunk
        tuple(np.random.default_rng(5).uniform(0.5, 3.0, (2, 182, 4))),
        "sum",
    )
    @settings(max_examples=200, deadline=None)
    def test_terms_are_symmetric_so_the_stack_holds_triangles(self, columns, noise):
        table = raw_table(*columns)
        n = len(table.agents)
        for key in table.keys:
            term = log_weight_term(table, key, noise)
            assert same_bits(term, term.T)
        bundles = [table.keys[:2], table.keys[2:]]
        stack = log_weight_stack(table, bundles, noise)
        assert stack.shape == (2, 2, n * (n + 1) // 2)
        index = square_index(n)
        for b, bundle in enumerate(bundles):
            for w, key in enumerate(bundle):
                assert same_bits(np.take(stack[w, b], index), log_weight_matrix(table, [key], noise))
        if n * n > CHUNK_ELEMENTS:
            gains = stack_gains(stack, (), np.arange(len(bundles)))
            assert gains.tolist() == [info_gain_set(table, bundle, noise) for bundle in bundles]


class TestStackGains:
    # 60 agents: the default chunk holds 9 bundles, so the 11 candidates
    # left beside one pick span two chunks
    N_AGENTS, N_BUNDLES = 60, 12

    @pytest.mark.parametrize("elements", ["one", "default", "all"])
    @pytest.mark.parametrize("picked", [(), (5,), (9, 0, 4)], ids=["none", "one", "three"])
    def test_gains_equal_info_gain_set_over_picked_then_candidate(self, monkeypatch, picked, elements):
        table = random_score_table(np.random.default_rng(21), self.N_AGENTS, 2 * self.N_BUNDLES)
        keys = score_keys(table)
        bundles = [keys[2 * b:2 * b + 2] for b in range(self.N_BUNDLES)]
        stack = log_weight_stack(table, bundles, "sum")
        ids = np.array([b for b in range(self.N_BUNDLES) if b not in picked])
        chunk = {"one": 1, "default": CHUNK_ELEMENTS, "all": self.N_AGENTS**2 * self.N_BUNDLES}
        monkeypatch.setattr(importlib.import_module("infobench.confusion"), "CHUNK_ELEMENTS",
                            chunk[elements])
        selected = [key for b in picked for key in bundles[b]]
        gains = stack_gains(stack, picked, ids)
        assert gains.tolist() == [info_gain_set(table, selected + bundles[b]) for b in ids]


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
