import math
import random
import sys
from collections import Counter

import numpy as np
import pytest

from conftest import full_table, score_table, traced_peak
from infobench.errors import DomainError, InputError
from infobench.infogain import (
    greedy_select,
    info_gain_set,
    metric_keys_for,
    problem_gains,
    subadditivity_audit,
)
from infobench.perf import Measure, MetricKey
from reference_oracle import oracle_best_subset, oracle_greedy_select, oracle_info_gain

# the package attribute infobench.confusion is the function, not the module
confusion_module = sys.modules["infobench.confusion"]


def random_problems(n_agents, n_problems, seed):
    rng = np.random.default_rng(seed)
    return {
        f"p{j:02d}": {
            "win": (rng.uniform(0.1, 0.9, n_agents), rng.uniform(0.2, 0.5, n_agents)),
            "score": (rng.uniform(-5, 5, n_agents), rng.uniform(0.5, 3.0, n_agents)),
        }
        for j in range(n_problems)
    }


def random_table(n_agents, n_problems, seed):
    return full_table(random_problems(n_agents, n_problems, seed))


def abc_table():
    """Three problems over three agents, strongly separated.

    a_split tells the first agent apart from the other two; b_twin is
    an exact copy of a_split; c_split separates the remaining pair.
    """
    return full_table(
        {
            "a_split": {
                "win": ((0.5, 0.5, 0.5), (0.5, 0.5, 0.5)),
                "score": ((0.0, 100.0, 100.0), (1.0, 1.0, 1.0)),
            },
            "b_twin": {
                "win": ((0.5, 0.5, 0.5), (0.5, 0.5, 0.5)),
                "score": ((0.0, 100.0, 100.0), (1.0, 1.0, 1.0)),
            },
            "c_split": {
                "win": ((0.5, 0.5, 0.5), (0.5, 0.5, 0.5)),
                "score": ((0.0, 0.0, 100.0), (1.0, 1.0, 1.0)),
            },
        }
    )


class TestGreedySelect:
    def test_picks_complementary_problem_over_the_twin(self):
        report = greedy_select(abc_table(), 2)
        assert report.selected == ("a_split", "c_split")
        assert report.total_bits == pytest.approx(math.log2(3), abs=1e-9)

    def test_exhaustive_oracle_confirms_the_pair(self):
        table = abc_table()
        best, best_gain = oracle_best_subset(table, 2)
        assert set(best) == {"a_split", "c_split"}
        assert best_gain == pytest.approx(math.log2(3), abs=1e-9)
        # and the twin pair is strictly worse
        twin_keys = [
            k
            for p in ("a_split", "b_twin")
            for k in metric_keys_for(p, "combined")
        ]
        assert oracle_info_gain(table, twin_keys) < best_gain - 0.5

    def test_twin_marginal_after_selection_is_negligible(self):
        table = abc_table()
        a_keys = list(metric_keys_for("a_split", "combined"))
        twin_keys = a_keys + list(metric_keys_for("b_twin", "combined"))
        marginal = info_gain_set(table, twin_keys) - info_gain_set(table, a_keys)
        assert abs(marginal) < 1e-9

    def test_k1_takes_the_best_single_problem(self):
        report = greedy_select(abc_table(), 1)
        assert [s.problem for s in report.steps] == ["a_split"]

    def test_tie_between_twins_breaks_lexicographically(self):
        table = full_table(
            {
                "zz_first": {
                    "win": ((0.5, 0.5), (0.5, 0.5)),
                    "score": ((0.0, 100.0), (1.0, 1.0)),
                },
                "aa_second": {
                    "win": ((0.5, 0.5), (0.5, 0.5)),
                    "score": ((0.0, 100.0), (1.0, 1.0)),
                },
            }
        )
        report = greedy_select(table, 1)
        assert report.selected == ("aa_second",)

    def test_identical_corpus_stops_with_no_steps(self):
        table = full_table(
            {
                p: {
                    "win": ((0.5, 0.5, 0.5), (0.5, 0.5, 0.5)),
                    "score": ((1.0, 1.0, 1.0), (1.0, 1.0, 1.0)),
                }
                for p in ("g1", "g2")
            }
        )
        report = greedy_select(table, 2)
        assert report.steps == ()
        assert report.stopped_early
        assert "step 1" in report.stop_reason
        assert "no remaining candidate" in report.stop_reason

    def test_k_beyond_corpus_selects_all_with_warning(self):
        table = abc_table()
        with pytest.warns(UserWarning, match="exceeds"):
            report = greedy_select(table, 10)
        assert len(report.steps) <= 3
        assert not set(report.selected) - {"a_split", "b_twin", "c_split"}

    @pytest.mark.parametrize("per_key", [False, True])
    @pytest.mark.parametrize("mode", ["win", "score", "combined"])
    def test_cumulative_matches_prefix_gain(self, mode, per_key):
        # the running log-weight sum adds the keys in the order
        # info_gain_set does, so the gains agree to the last bit
        table = random_table(5, 6, seed=7)
        report = greedy_select(table, 4, mode, per_key=per_key)
        assert len(report.steps) >= 2
        chosen: list[MetricKey] = []
        for step in report.steps:
            if per_key:
                problem, measure = step.problem.split(":")
                chosen.append(MetricKey(problem, Measure(measure)))
            else:
                chosen.extend(metric_keys_for(step.problem, mode))
            assert step.cumulative_bits == info_gain_set(table, chosen)
        for prev, cur in zip(report.steps, report.steps[1:]):
            assert cur.marginal_bits == cur.cumulative_bits - prev.cumulative_bits

    def test_each_key_term_is_computed_once(self, monkeypatch):
        calls = Counter()
        term = confusion_module.log_weight_term

        def counted(table, key, noise="sum"):
            calls[key] += 1
            return term(table, key, noise)

        monkeypatch.setattr(confusion_module, "log_weight_term", counted)
        table = random_table(4, 5, seed=3)
        report = greedy_select(table, 5)
        assert len(report.steps) >= 3
        keys = {k for p in table.problems for k in metric_keys_for(p, "combined")}
        assert calls == Counter(keys)

    @pytest.mark.parametrize("sd", [1e200, 1e-170])
    def test_non_finite_weights_are_a_domain_error(self, sd):
        table = score_table({"g": ((1.0, 1.0, 1.0), (sd, sd, sd))}, sigma_floor=sd)
        with pytest.raises(DomainError, match="not finite"):
            greedy_select(table, 1, "score")

    def test_repeated_runs_are_identical(self):
        table = abc_table()
        a = greedy_select(table, 3)
        b = greedy_select(table, 3)
        assert a == b

    def test_exact_twins_break_the_tie_by_the_smaller_name(self):
        twin = ((0.0, 1.0, 3.0), (1.0, 1.0, 1.0))
        # listed in reverse order, with a weaker third problem
        table = score_table({"p3": ((0.0, 0.1, 0.2), (1.0, 1.0, 1.0)), "p2": twin, "p1": twin})
        assert greedy_select(table, 1, "score").selected == ("p1",)

    def test_gains_within_half_the_resolution_tie_by_the_smaller_name(self):
        # "a" is a shade noisier than "b", so its raw gain is lower
        table = score_table({"b": ((0.0, 1.0), (1.0, 1.0)), "a": ((0.0, 1.0), (1.01, 1.01))})
        low = info_gain_set(table, metric_keys_for("a", "score"))
        high = info_gain_set(table, metric_keys_for("b", "score"))
        assert 0 < high - low
        # both gains lie within an eighth of eps_gain of the same multiple m
        m = max(2, math.floor((low + high) / (8 * (high - low))))
        eps_gain = (low + high) / (2 * m)
        assert high - low < eps_gain / 2
        report = greedy_select(table, 1, "score", eps_gain=eps_gain)
        assert report.selected == ("a",)
        assert report.steps[0].marginal_bits == low

    def test_invalid_k(self):
        with pytest.raises(ValueError, match="k must be"):
            greedy_select(abc_table(), 0)

    @pytest.mark.parametrize("eps_gain", [0.0, -1e-9, float("nan"), float("inf"), 1e-309, 5e-324])
    def test_invalid_eps_gain(self, eps_gain):
        with pytest.raises(InputError, match="eps_gain must be"):
            greedy_select(abc_table(), 2, eps_gain=eps_gain)

    def test_win_and_score_modes_use_their_measure(self):
        table = full_table(
            {
                "winny": {
                    "win": ((0.0, 1.0), (0.1, 0.1)),
                    "score": ((5.0, 5.0), (1.0, 1.0)),
                },
                "scorey": {
                    "win": ((0.5, 0.5), (0.5, 0.5)),
                    "score": ((0.0, 100.0), (1.0, 1.0)),
                },
            }
        )
        assert greedy_select(table, 1, "win").selected == ("winny",)
        assert greedy_select(table, 1, "score").selected == ("scorey",)

    def test_per_key_mode_selects_individual_cells(self):
        table = full_table(
            {
                "winny": {
                    "win": ((0.0, 1.0), (0.1, 0.1)),
                    "score": ((5.0, 5.0), (1.0, 1.0)),
                },
            }
        )
        report = greedy_select(table, 1, "combined", per_key=True)
        assert report.selected == ("winny:win",)
        assert report.mode == "per-key"

    def test_negative_marginal_is_skipped_and_surfaced(self):
        # "blur" has equal-mean, wildly unequal noise: adding it after
        # "sharp" drags every row toward the narrow agent and destroys
        # more information than it adds
        table = score_table(
            {
                "blur": ((-0.8, 1.0), (5.0, 1.6)),
                "sharp": ((-0.6, -0.8), (0.3, 1.7)),
            }
        )
        report = greedy_select(table, 2, "score")
        assert report.selected == ("sharp",)
        assert report.stopped_early
        assert len(report.negative_marginals) == 1
        neg = report.negative_marginals[0]
        assert neg.problem == "blur"
        assert neg.step == 2
        assert neg.marginal_bits < -1e-3


class TestChunkedScoring:
    # 30 agents: the default chunk holds 36 candidates, so 40 problems span
    # two chunks and 80 per-key cells three
    N_AGENTS, N_PROBLEMS = 30, 40

    @pytest.mark.parametrize("per_key", [False, True])
    @pytest.mark.parametrize("mode", ["win", "score", "combined"])
    def test_chunk_size_does_not_change_the_report(self, monkeypatch, mode, per_key):
        table = random_table(self.N_AGENTS, self.N_PROBLEMS, seed=11)
        default = greedy_select(table, 6, mode, per_key=per_key)
        assert len(default.steps) == 6
        one_per_chunk = 1
        all_in_one = self.N_AGENTS**2 * 2 * self.N_PROBLEMS
        for elements in (one_per_chunk, all_in_one):
            monkeypatch.setattr(confusion_module, "CHUNK_ELEMENTS", elements)
            assert greedy_select(table, 6, mode, per_key=per_key) == default

    @pytest.mark.parametrize("elements", [None, 1, N_AGENTS**2 * 2 * N_PROBLEMS])
    def test_problem_gains_equal_info_gain_set_at_any_chunk_size(self, monkeypatch, elements):
        table = random_table(self.N_AGENTS, self.N_PROBLEMS, seed=11)
        expected_violations = subadditivity_audit(table)
        if elements is not None:
            monkeypatch.setattr(confusion_module, "CHUNK_ELEMENTS", elements)
        gains = problem_gains(table)
        for mode in ("win", "score", "combined"):
            assert gains[mode].tolist() == [
                info_gain_set(table, metric_keys_for(problem, mode)) for problem in table.problems
            ]
        assert subadditivity_audit(table) == expected_violations

    @pytest.mark.parametrize(
        "score", [lambda table: greedy_select(table, 5), problem_gains], ids=["greedy", "problem_gains"]
    )
    def test_stack_holds_each_term_as_its_upper_triangle(self, score):
        n, problems = 120, 30
        table = random_table(n, problems, seed=4)
        score(table)  # the first run fills numpy's and Python's caches
        peak = traced_peak(score, table)
        # the 60 win and score terms as triangles, 3.5 MB, and a few n x n
        # working arrays: the unpacked chunk, its index, one term's fill and
        # the softmax's temporaries took about 7; whole n x n terms take
        # 6.9 MB for the stack alone
        stack = 2 * problems * n * (n + 1) // 2 * 8
        assert peak <= stack + 8 * n * n * 8

    def test_non_finite_weight_in_a_later_chunk_is_a_domain_error(self, monkeypatch):
        problems = random_problems(self.N_AGENTS, self.N_PROBLEMS, seed=11)
        # sorted last, so with one candidate per chunk it is scored in the last chunk
        problems["zz_overflow"] = {
            "win": problems["p00"]["win"],
            "score": (problems["p00"]["score"][0], np.full(self.N_AGENTS, 1e200)),
        }
        table = full_table(problems)
        monkeypatch.setattr(confusion_module, "CHUNK_ELEMENTS", 1)
        with pytest.raises(DomainError, match="not finite"):
            greedy_select(table, 3)


class TestGreedyOracleAgreement:
    def test_matches_naive_reimplementation_on_small_corpora(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            n_agents = int(rng.integers(2, 7))
            n_problems = int(rng.integers(2, 9))
            problems = {}
            for j in range(n_problems):
                problems[f"p{j:02d}"] = {
                    "win": (rng.uniform(0.1, 0.9, n_agents), rng.uniform(0.2, 0.5, n_agents)),
                    "score": (rng.uniform(-5, 5, n_agents), rng.uniform(0.5, 3.0, n_agents)),
                }
            table = full_table(problems)
            k = int(rng.integers(1, n_problems + 1))
            # the oracle refuses key sets larger than 4, which caps the
            # sequence length it can follow: 2 picks in combined mode
            # (2 keys per problem), 4 in score-only mode
            report = greedy_select(table, min(k, 2))
            reference = oracle_greedy_select(table, min(k, 2))
            assert list(report.selected) == reference

            report = greedy_select(table, min(k, 4), "score")
            reference = oracle_greedy_select(table, min(k, 4), "score")
            assert list(report.selected) == reference


def test_random_subsets_never_beat_log2_n():
    rng = np.random.default_rng(1234)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        problems = {
            f"p{j}": {
                "win": (rng.uniform(0.1, 0.9, n), rng.uniform(0.2, 0.5, n)),
                "score": (rng.uniform(-5, 5, n), rng.uniform(0.5, 3.0, n)),
            }
            for j in range(4)
        }
        table = full_table(problems)
        report = greedy_select(table, 4)
        assert report.total_bits <= math.log2(n) + 1e-9
