import math

import numpy as np
import pytest

from conftest import (
    exact_table,
    fixture_suite,
    playthrough_rows,
    random_score_table,
    sampled_table,
    score_keys,
)
from infobench.confusion import confusion
from infobench.errors import InputError
from infobench.infogain import info_gain_set, greedy_select
from infobench.perf import Measure, MetricKey, aggregate
from infobench.synth import Archetype, SynthSpec, archetypes, generate
from reference_oracle import (
    OracleRangeError,
    oracle_best_subset,
    oracle_confusion_rows,
    oracle_info_gain,
)


class TestArchetypes:
    def test_mixed_cycles_kinds_and_duplicates_every_fourth(self):
        kinds = archetypes("mixed", 9, gap=3.0, sigma=2.0)
        assert [a.kind for a in kinds] == [
            "linear", "two-cluster", "delayed", "linear",
            "linear", "two-cluster", "delayed", "linear", "linear",
        ]
        assert {(a.gap, a.sigma) for a in kinds} == {(3.0, 2.0)}
        assert all(kinds[i] == kinds[i - 3] for i in (3, 7))

    def test_a_hyphenated_name_is_one_kind_throughout(self):
        assert archetypes("two-cluster", 2) == (Archetype("two-cluster"),) * 2

    def test_unknown_name_is_an_input_error(self):
        with pytest.raises(InputError, match="unknown archetype"):
            archetypes("zigzag", 2)


class TestSpecValidation:
    def test_unknown_kind(self):
        for kind in ("zigzag", "duplicate", "two_cluster", "mixed"):
            with pytest.raises(ValueError, match="archetype"):
                Archetype(kind)

    @pytest.mark.parametrize("field", ["gap", "sigma"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    def test_positive_gap_and_sigma(self, field, value):
        with pytest.raises(InputError, match=f"{field} must be positive"):
            Archetype("linear", **{field: value})

    def test_positive_counts(self):
        with pytest.raises(ValueError):
            SynthSpec(0, (Archetype("identical"),))
        with pytest.raises(ValueError):
            SynthSpec(2, ())
        with pytest.raises(ValueError):
            SynthSpec(2, (Archetype("identical"),), samples_per_cell=0)

    def test_negative_seed_is_an_input_error(self):
        # numpy's own ValueError would escape the exit-code contract
        with pytest.raises(InputError, match="seed must be non-negative, got -1"):
            SynthSpec(2, (Archetype("identical"),), seed=-1)


class TestGenerate:
    def test_seed_determinism(self):
        spec = SynthSpec(3, (Archetype("linear"), Archetype("identical")), 50, seed=42)
        assert playthrough_rows(generate(spec)) == playthrough_rows(generate(spec))

    def test_different_seeds_differ(self):
        base = SynthSpec(3, (Archetype("linear"),), 50, seed=1)
        other = SynthSpec(3, (Archetype("linear"),), 50, seed=2)
        assert playthrough_rows(generate(base)) != playthrough_rows(generate(other))

    def test_shape_and_naming(self):
        spec = SynthSpec(2, (Archetype("identical"),) * 3, 10, seed=0)
        records = generate(spec)
        assert len(records) == 2 * 3 * 10
        rows = playthrough_rows(records)
        assert {agent for agent, _, _, _ in rows} == {"agent00", "agent01"}
        assert {problem for _, problem, _, _ in rows} == {"prob00", "prob01", "prob02"}

    def test_identical_archetype_gains_nothing(self):
        spec = SynthSpec(3, (Archetype("identical"),), samples_per_cell=10_000, seed=9)
        table = sampled_table(spec)
        gain = info_gain_set(table, list(table.keys))
        assert 0.0 <= gain <= 0.01

    def test_linear_archetype_reaches_the_ceiling(self):
        n = 4
        spec = SynthSpec(
            n, (Archetype("linear", gap=10.0, sigma=1.0),), samples_per_cell=10_000, seed=9
        )
        table = sampled_table(spec)
        gain = info_gain_set(table, [MetricKey("prob00", Measure.SCORE)])
        assert abs(gain - math.log2(n)) < 0.05
        assert gain <= math.log2(n) + 1e-9

    def test_duplicate_archetype_matches_its_source_exactly(self):
        twin = Archetype("two-cluster", gap=15.0)
        spec = SynthSpec(4, (twin, twin), seed=3)
        table = exact_table(spec)
        a, _ = table.column(MetricKey("prob00", Measure.SCORE))
        b, _ = table.column(MetricKey("prob01", Measure.SCORE))
        assert np.array_equal(a, b)

    def test_greedy_never_selects_the_twin(self):
        twin = Archetype("two-cluster", gap=15.0)
        spec = SynthSpec(4, (twin, twin, Archetype("delayed", gap=14.0)), seed=3)
        table = exact_table(spec)
        report = greedy_select(table, 2)
        assert "prob01" not in report.selected
        # exhaustively: no best 2-subset is the twin pair
        best, _ = oracle_best_subset(table, 2, "score")
        assert set(best) != {"prob00", "prob01"}

    def test_exact_table_win_stddev_is_bernoulli(self):
        spec = SynthSpec(4, (Archetype("two-cluster", gap=15.0),), seed=0)
        table = exact_table(spec)
        mu, sd = table.column(MetricKey("prob00", Measure.WIN_RATE))
        assert np.allclose(sd, np.sqrt(mu * (1 - mu)))

    def test_sampled_table_approaches_exact_table(self):
        spec = SynthSpec(3, (Archetype("linear", gap=5.0),), samples_per_cell=20_000, seed=17)
        exact = exact_table(spec)
        sampled = sampled_table(spec)
        assert np.max(np.abs(exact.means - sampled.means)) < 0.05
        assert np.max(np.abs(exact.stddevs - sampled.stddevs)) < 0.05

    def test_fixture_suite_is_complete_and_named(self):
        suite = fixture_suite()
        assert len(suite) >= 5
        for name, table in suite:
            assert isinstance(name, str) and name
            assert len(table.agents) >= 2
            assert len(table.keys) == 2 * len(table.problems)


class TestOracle:
    def test_refuses_too_many_agents(self):
        rng = np.random.default_rng(0)
        table = random_score_table(rng, 9, 1)
        with pytest.raises(OracleRangeError, match="agents"):
            oracle_info_gain(table, score_keys(table))

    def test_refuses_too_many_keys(self):
        rng = np.random.default_rng(0)
        table = random_score_table(rng, 3, 5)
        with pytest.raises(OracleRangeError, match="keys"):
            oracle_info_gain(table, score_keys(table))

    def test_refuses_degenerate_scales(self):
        from conftest import score_table

        table = score_table(
            {
                "g": ((0.0, 1.0), (1e200, 1e200)),
                "h": ((0.0, 1.0), (1e200, 1e200)),
            }
        )
        with pytest.raises(OracleRangeError, match="range"):
            oracle_info_gain(table, score_keys(table))

    def test_identity_fixture_is_exact(self):
        from conftest import score_table

        table = score_table({"g": ((0.0, 100.0, 200.0, 300.0), (1.0,) * 4)})
        assert oracle_info_gain(table, score_keys(table)) == 2.0

    def test_separation_fixture(self):
        from conftest import score_table

        n = 5
        table = score_table({"g": (tuple(30.0 * i for i in range(n)), (1.0,) * n)})
        assert oracle_info_gain(table, score_keys(table)) == pytest.approx(
            math.log2(n), abs=1e-6
        )

    def test_rows_match_main_path(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            table = random_score_table(rng, int(rng.integers(2, 9)), int(rng.integers(1, 5)))
            keys = score_keys(table)
            main = confusion(table, keys).probs
            reference = np.array(oracle_confusion_rows(table, keys))
            assert np.max(np.abs(main - reference)) < 1e-12

    def test_gain_matches_main_path(self):
        rng = np.random.default_rng(78)
        for _ in range(100):
            table = random_score_table(rng, int(rng.integers(2, 9)), int(rng.integers(1, 5)))
            keys = score_keys(table)
            assert abs(
                info_gain_set(table, keys) - oracle_info_gain(table, keys)
            ) < 1e-10

    def test_rss_mode_supported(self):
        rng = np.random.default_rng(79)
        table = random_score_table(rng, 4, 2)
        keys = score_keys(table)
        assert abs(
            info_gain_set(table, keys, noise="rss")
            - oracle_info_gain(table, keys, noise="rss")
        ) < 1e-10


def test_aggregated_synth_data_round_trips_through_records():
    spec = SynthSpec(3, (Archetype("linear", gap=6.0),), samples_per_cell=500, seed=5)
    records = generate(spec)
    table = aggregate(records)
    assert table.agents == spec.agent_names
    assert table.problems == spec.problem_names
    counts = np.asarray(table.counts)
    assert counts.min() == counts.max() == 500
