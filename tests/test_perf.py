import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infobench.errors import CompletenessError, InputError, ParseError
from infobench.perf import (
    Measure,
    MetricKey,
    PerformanceStat,
    PerformanceTable,
    PlaythroughRecord,
    aggregate,
    dumps_canonical_json,
    load_stats,
    parse_records,
    read_stats_csv,
    read_stats_json,
    stats_json_document,
    write_stats_csv,
)


def parse(text):
    return parse_records(io.StringIO(text))


class TestParseRecords:
    def test_direct_field_mapping(self):
        records = parse("agent,problem,score,win\na1,freeway,5.0,1\n")
        assert records == [PlaythroughRecord("a1", "freeway", 5.0, True)]

    def test_nan_score_rejected_with_line_number(self):
        with pytest.raises(ParseError, match="line 2") as exc:
            parse("agent,problem,score,win\na1,freeway,NaN,1\n")
        assert exc.value.line == 2

    def test_infinite_score_rejected(self):
        with pytest.raises(ParseError, match="non-finite"):
            parse("agent,problem,score,win\na1,freeway,inf,1\n")

    @pytest.mark.parametrize(
        "token,expected",
        [
            ("1", True),
            ("0", False),
            ("true", True),
            ("FALSE", False),
            ("Win", True),
            ("lose", False),
        ],
    )
    def test_win_tokens(self, token, expected):
        records = parse(f"agent,problem,score,win\na1,g,1.5,{token}\n")
        assert records[0].win is expected

    def test_bad_win_token(self):
        with pytest.raises(ParseError, match="line 2.*win value"):
            parse("agent,problem,score,win\na1,g,1.5,maybe\n")

    def test_wrong_field_count_names_line(self):
        text = "agent,problem,score,win\na1,g,1.0,1\na1,g,2.0\n"
        with pytest.raises(ParseError, match="line 3"):
            parse(text)

    def test_empty_identifiers(self):
        with pytest.raises(ParseError, match="agent"):
            parse("agent,problem,score,win\n,g,1.0,1\n")
        with pytest.raises(ParseError, match="problem"):
            parse("agent,problem,score,win\na1,,1.0,1\n")

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header"):
            parse("agent,game,score,win\na1,g,1.0,1\n")

    def test_empty_file(self):
        with pytest.raises(ParseError, match="empty"):
            parse("")

    def test_blank_lines_skipped_and_order_kept(self):
        records = parse("agent,problem,score,win\na1,g,1.0,1\n\na2,g,2.0,0\n")
        assert [r.agent for r in records] == ["a1", "a2"]

    def test_unparseable_score(self):
        with pytest.raises(ParseError, match="score"):
            parse("agent,problem,score,win\na1,g,abc,1\n")

    def test_bulk_file_parses_cleanly(self):
        # throughput sanity: tens of thousands of rows in well under a second
        rng = np.random.default_rng(0)
        lines = ["agent,problem,score,win"]
        for i in range(50_000):
            lines.append(f"a{i % 7},g{i % 11},{rng.normal():.6f},{i % 2}")
        records = parse("\n".join(lines) + "\n")
        assert len(records) == 50_000


def rec(agent, problem, score, win):
    return PlaythroughRecord(agent, problem, score, win)


def two_agent_records(scores_a, scores_b, problem="g"):
    out = []
    for s in scores_a:
        out.append(rec("a1", problem, float(s), s > 0))
    for s in scores_b:
        out.append(rec("a2", problem, float(s), s > 0))
    return out


class TestAggregate:
    def test_zero_one_scores(self):
        records = [rec("a1", "g", 0.0, False), rec("a1", "g", 1.0, True)]
        table = aggregate(records)
        stat = table.stat("a1", MetricKey("g", Measure.SCORE))
        assert stat.mean == 0.5
        assert stat.stddev == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert stat.count == 2

    def test_textbook_sample_stddev(self):
        values = [2, 4, 4, 4, 5, 5, 7, 9]
        records = [rec("a1", "g", float(v), True) for v in values]
        table = aggregate(records)
        stat = table.stat("a1", MetricKey("g", Measure.SCORE))
        assert stat.mean == 5.0
        assert stat.stddev == pytest.approx(2.1380899352993951, abs=1e-12)

    def test_all_wins_hits_the_floor(self):
        records = [rec("a1", "g", float(i), True) for i in range(4)]
        table = aggregate(records, sigma_floor=1e-9)
        stat = table.stat("a1", MetricKey("g", Measure.WIN_RATE))
        assert stat.mean == 1.0
        assert stat.stddev == 1e-9

    def test_single_record_warns_and_floors(self):
        with pytest.warns(UserWarning, match="single playthrough"):
            table = aggregate([rec("a1", "g", 3.0, True)])
        stat = table.stat("a1", MetricKey("g", Measure.SCORE))
        assert stat.stddev == 1e-9
        assert stat.count == 1

    def test_missing_pair_is_an_error(self):
        records = [
            rec("a1", "g1", 1.0, True),
            rec("a1", "g2", 1.0, True),
            rec("a2", "g1", 1.0, True),
        ]
        with pytest.raises(CompletenessError, match=r"\(a2, g2\)") as exc:
            aggregate(records)
        assert ("a2", "g2") in exc.value.missing

    def test_allow_missing_drops_uncovered_agents(self):
        records = [
            rec("a1", "g1", 1.0, True),
            rec("a1", "g1", 2.0, False),
            rec("a1", "g2", 1.0, True),
            rec("a1", "g2", 2.0, False),
            rec("a2", "g1", 1.0, True),
        ]
        with pytest.warns(UserWarning, match="dropping.*a2"):
            table = aggregate(records, allow_missing=True)
        assert table.agents == ("a1",)

    def test_no_records(self):
        with pytest.raises(InputError):
            aggregate([])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        records = []
        for agent in ("a1", "a2", "a3"):
            for problem in ("g1", "g2"):
                for _ in range(int(rng.integers(2, 12))):
                    records.append(
                        rec(agent, problem, float(rng.normal()), bool(rng.random() < 0.5))
                    )
        table = aggregate(records)
        shuffled = list(records)
        rng.shuffle(shuffled)
        table2 = aggregate(shuffled)
        assert table.agents == table2.agents
        assert table.keys == table2.keys
        assert np.array_equal(table.means, table2.means)
        assert np.array_equal(table.stddevs, table2.stddevs)
        assert np.array_equal(table.counts, table2.counts)

    @given(st.lists(st.booleans(), min_size=2, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_win_rate_bounds(self, wins):
        records = [rec("a1", "g", 1.0, w) for w in wins]
        table = aggregate(records)
        stat = table.stat("a1", MetricKey("g", Measure.WIN_RATE))
        n = len(wins)
        assert 0.0 <= stat.mean <= 1.0
        # Bessel-corrected Bernoulli bound: sqrt(p(1-p) * n/(n-1)) maxes at p=1/2
        assert stat.stddev <= 0.5 * math.sqrt(n / (n - 1)) + 1e-9

    def test_batch_merge_equals_concatenation(self):
        batch1 = two_agent_records([1, 2, 3], [4, 5, 6])
        batch2 = two_agent_records([7, 8], [9, 10])
        merged = aggregate(batch1 + batch2)
        concat = aggregate(list(batch1) + list(batch2))
        assert np.array_equal(merged.means, concat.means)
        assert np.array_equal(merged.counts, concat.counts)


class TestPerformanceTable:
    def test_orders_are_lexicographic(self):
        records = [
            rec("zeta", "beta", 1.0, True),
            rec("zeta", "beta", 2.0, True),
            rec("alpha", "beta", 1.0, True),
            rec("alpha", "beta", 2.0, True),
            rec("zeta", "alpha", 1.0, True),
            rec("zeta", "alpha", 2.0, True),
            rec("alpha", "alpha", 1.0, True),
            rec("alpha", "alpha", 2.0, True),
        ]
        table = aggregate(records)
        assert table.agents == ("alpha", "zeta")
        assert table.problems == ("alpha", "beta")
        assert table.keys[0] == MetricKey("alpha", Measure.SCORE)
        assert table.keys[1] == MetricKey("alpha", Measure.WIN_RATE)

    def test_from_stats_rejects_incomplete(self):
        cells = {
            ("a1", MetricKey("g", Measure.SCORE)): PerformanceStat(0.0, 1.0, 3),
            ("a2", MetricKey("h", Measure.SCORE)): PerformanceStat(0.0, 1.0, 3),
        }
        with pytest.raises(CompletenessError):
            PerformanceTable.from_stats(cells)

    def test_from_stats_rejects_bad_stats(self):
        key = MetricKey("g", Measure.SCORE)
        with pytest.raises(InputError, match="non-finite"):
            PerformanceTable.from_stats({("a", key): PerformanceStat(math.nan, 1.0, 3)})
        with pytest.raises(InputError, match="count"):
            PerformanceTable.from_stats({("a", key): PerformanceStat(0.0, 1.0, 0)})
        with pytest.raises(InputError, match="negative stddev"):
            PerformanceTable.from_stats({("a", key): PerformanceStat(0.0, -1.0, 3)})

    def test_metric_key_coerces_measure(self):
        assert MetricKey("g", "win") == MetricKey("g", Measure.WIN_RATE)
        with pytest.raises(ValueError):
            MetricKey("g", "draws")

    def test_arrays_are_read_only(self):
        table = aggregate(two_agent_records([1, 2], [3, 4]))
        with pytest.raises(ValueError):
            table.means[0, 0] = 99.0

    def test_unknown_lookups(self):
        table = aggregate(two_agent_records([1, 2], [3, 4]))
        with pytest.raises(CompletenessError):
            table.stat("nobody", MetricKey("g", Measure.SCORE))
        with pytest.raises(CompletenessError):
            table.stat("a1", MetricKey("missing", Measure.SCORE))


class TestStatsIO:
    @pytest.fixture
    def table(self):
        records = two_agent_records([1.0, 2.5, 4.0], [0.5, 0.5, 9.5])
        return aggregate(records)

    def test_csv_round_trip(self, table):
        buf = io.StringIO()
        write_stats_csv(table, buf)
        back = read_stats_csv(io.StringIO(buf.getvalue()))
        assert back.agents == table.agents
        assert back.keys == table.keys
        assert np.array_equal(back.means, table.means)
        assert np.array_equal(back.stddevs, table.stddevs)
        assert np.array_equal(back.counts, table.counts)

    def test_json_round_trip(self, table):
        text = dumps_canonical_json(stats_json_document(table))
        back = read_stats_json(io.StringIO(text))
        assert back.agents == table.agents
        assert np.array_equal(back.means, table.means)

    def test_json_reemission_is_byte_identical(self, table):
        import json

        text = dumps_canonical_json(stats_json_document(table))
        again = dumps_canonical_json(json.loads(text))
        assert text == again

    def test_duplicate_stats_row_rejected(self, table):
        buf = io.StringIO()
        write_stats_csv(table, buf)
        lines = buf.getvalue().splitlines()
        lines.append(lines[1])
        with pytest.raises(InputError, match="duplicate"):
            read_stats_csv(io.StringIO("\n".join(lines) + "\n"))

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_byte_order_mark_is_accepted(self, table, tmp_path, suffix):
        if suffix == ".csv":
            buf = io.StringIO()
            write_stats_csv(table, buf)
            text = buf.getvalue()
        else:
            text = dumps_canonical_json(stats_json_document(table))
        path = tmp_path / f"stats{suffix}"
        path.write_text("\ufeff" + text, encoding="utf-8")
        back = load_stats(path)
        assert back.agents == table.agents
        assert np.array_equal(back.means, table.means)

    def test_bad_stats_header(self):
        with pytest.raises(InputError, match="header"):
            read_stats_csv(io.StringIO("a,b\n1,2\n"))

    def test_bad_stats_json(self):
        with pytest.raises(InputError, match="JSON"):
            read_stats_json(io.StringIO("not json"))
        with pytest.raises(InputError, match="structure"):
            read_stats_json(io.StringIO('{"cells": [{"agent": "a"}]}'))
