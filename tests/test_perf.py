import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cell, full_table, playthrough_rows, playthroughs, traced_peak
from infobench import perf
from infobench.errors import CompletenessError, InputError, ParseError
from infobench.perf import (
    Measure,
    MetricKey,
    PerformanceTable,
    aggregate,
    canonical_json_pieces,
    dumps_canonical_json,
    load_stats,
    parse_records,
    read_stats_csv,
    read_stats_json,
    stats_json_document,
    write_stats_csv,
)


STATS_CSV_HEADER = "agent,problem,measure,mean,stddev,count\n"
BLOCK = perf._FLAT_DICT_BLOCK  # dicts of scalars per JSON piece


def parse(text):
    return parse_records(io.StringIO(text))


class TestParseRecords:
    def test_direct_field_mapping(self):
        records = parse("agent,problem,score,win\na1,freeway,5.0,1\n")
        assert playthrough_rows(records) == [("a1", "freeway", 5.0, True)]

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
        assert playthrough_rows(records)[0][3] is expected

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
        assert [agent for agent, _, _, _ in playthrough_rows(records)] == ["a1", "a2"]

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
    return agent, problem, score, win


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
        table = aggregate(playthroughs(records))
        mean, stddev, count = cell(table, "a1", MetricKey("g", Measure.SCORE))
        assert mean == 0.5
        assert stddev == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert count == 2

    def test_textbook_sample_stddev(self):
        values = [2, 4, 4, 4, 5, 5, 7, 9]
        records = [rec("a1", "g", float(v), True) for v in values]
        table = aggregate(playthroughs(records))
        mean, stddev, _ = cell(table, "a1", MetricKey("g", Measure.SCORE))
        assert mean == 5.0
        assert stddev == pytest.approx(2.1380899352993951, abs=1e-12)

    def test_all_wins_hits_the_floor(self):
        records = [rec("a1", "g", float(i), True) for i in range(4)]
        with pytest.warns(UserWarning, match=r"^1 cell\(s\) with zero .*: \(a1, g\) win$"):
            table = aggregate(playthroughs(records), sigma_floor=1e-9)
        mean, stddev, _ = cell(table, "a1", MetricKey("g", Measure.WIN_RATE))
        assert mean == 1.0
        assert stddev == 1e-9

    def test_floored_cells_are_counted_and_the_first_eight_named(self):
        # ten agents always lose with one repeated score; a11 varies
        records = [rec(f"a{i:02d}", "g", 2.0, False) for i in range(10) for _ in range(3)]
        records += [rec("a11", "g", float(s), s > 0) for s in (-1, 1, 3)]
        with pytest.warns(UserWarning) as caught:
            table = aggregate(playthroughs(records))
        [message] = [str(w.message) for w in caught]
        assert message.startswith("20 cell(s) with zero or sub-floor variance")
        assert "(a00, g) score, (a00, g) win, (a01, g) score" in message
        assert "(a04, g)" not in message and message.endswith(" and 12 more")
        assert np.all(table.stddevs[:10] == table.sigma_floor)

    def test_single_record_warns_and_floors(self):
        with pytest.warns(UserWarning, match="single playthrough"):
            table = aggregate(playthroughs([rec("a1", "g", 3.0, True)]))
        _, stddev, count = cell(table, "a1", MetricKey("g", Measure.SCORE))
        assert stddev == 1e-9
        assert count == 1

    def test_single_playthrough_cells_share_one_counted_warning(self):
        records = [rec(f"a{i}", p, 1.0, True) for i in range(3) for p in ("g", "h")]
        with pytest.warns(UserWarning) as caught:
            aggregate(playthroughs(records))
        [message] = [str(w.message) for w in caught]
        assert message.startswith("12 cell(s) with a single playthrough")
        assert message.endswith(": (a0, g) score, (a0, g) win, (a0, h) score, (a0, h) win, "
                                "(a1, g) score, (a1, g) win, (a1, h) score, (a1, h) win "
                                "and 4 more")

    def test_stats_rows_are_floored_and_reported_as_ingest_does(self):
        rows = [("a1", "g", "win", 0.0, 0.0, 20), ("a2", "g", "win", 1.0, 0.0, 20),
                ("a3", "g", "win", 0.5, 0.5, 20)]
        with pytest.warns(UserWarning) as caught:
            table = PerformanceTable.from_stats(rows)
        assert [str(w.message) for w in caught] == [
            "2 cell(s) with zero or sub-floor variance; stddev set to the floor (1e-09): "
            "(a1, g) win, (a2, g) win"
        ]
        assert table.stddevs[:, 0].tolist() == [1e-9, 1e-9, 0.5]

    def test_missing_pair_is_an_error(self):
        records = [
            rec("a1", "g1", 1.0, True),
            rec("a1", "g2", 1.0, True),
            rec("a2", "g1", 1.0, True),
        ]
        with pytest.raises(CompletenessError, match=r"\(a2, g2\)") as exc:
            aggregate(playthroughs(records))
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
            table = aggregate(playthroughs(records), allow_missing=True)
        assert table.agents == ("a1",)

    def test_allow_missing_names_the_first_eight_dropped_agents(self):
        records = [rec("full", p, float(s), s > 0) for p in ("g1", "g2") for s in (0, 1)]
        records += [rec(f"a{i:02d}", "g1", 1.0, True) for i in range(11)]
        with pytest.warns(UserWarning) as caught:
            table = aggregate(playthroughs(records), allow_missing=True)
        assert "dropping 11 agent(s) lacking full problem coverage: a00, a01, a02, a03, " \
            "a04, a05, a06, a07 and 3 more" in [str(w.message) for w in caught]
        assert table.agents == ("full",)

    def test_no_records(self):
        with pytest.raises(InputError):
            aggregate(playthroughs([]))

    @pytest.mark.parametrize("floor", [0.0, -1.0, float("nan")])
    def test_non_positive_sigma_floor(self, floor):
        with pytest.raises(InputError, match="sigma_floor must be"):
            records = [rec("a1", "g", 1.0, True), rec("a1", "g", 2.0, False)]
            aggregate(playthroughs(records), floor)

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
        table = aggregate(playthroughs(records))
        shuffled = list(records)
        rng.shuffle(shuffled)
        table2 = aggregate(playthroughs(shuffled))
        assert table.agents == table2.agents
        assert table.keys == table2.keys
        assert np.array_equal(table.means, table2.means)
        assert np.array_equal(table.stddevs, table2.stddevs)
        assert np.array_equal(table.counts, table2.counts)

    @given(st.lists(st.booleans(), min_size=2, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_win_rate_bounds(self, wins):
        records = [rec("a1", "g", 1.0, w) for w in wins]
        table = aggregate(playthroughs(records))
        mean, stddev, _ = cell(table, "a1", MetricKey("g", Measure.WIN_RATE))
        n = len(wins)
        assert 0.0 <= mean <= 1.0
        # Bessel-corrected Bernoulli bound: sqrt(p(1-p) * n/(n-1)) maxes at p=1/2
        assert stddev <= 0.5 * math.sqrt(n / (n - 1)) + 1e-9


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
        table = aggregate(playthroughs(records))
        assert table.agents == ("alpha", "zeta")
        assert table.problems == ("alpha", "beta")
        assert table.keys[0] == MetricKey("alpha", Measure.SCORE)
        assert table.keys[1] == MetricKey("alpha", Measure.WIN_RATE)

    def test_from_stats_rejects_incomplete(self):
        rows = [("a1", "g", "score", 0.0, 1.0, 3), ("a2", "h", "score", 0.0, 1.0, 3)]
        with pytest.raises(
            CompletenessError,
            match=r"^incomplete table, 2 missing cell\(s\): \(a1, h\) score, \(a2, g\) score$",
        ) as exc:
            PerformanceTable.from_stats(rows)
        assert list(exc.value.missing) == [
            ("a1", MetricKey("h", "score")), ("a2", MetricKey("g", "score"))
        ]

    def test_from_stats_rejects_bad_stats(self):
        for row, message in [
            (("a", "g", "score", math.nan, 1.0, 3), "non-finite stat for cell (a, g) score"),
            (("a", "g", "score", 0.0, 1.0, 0), "cell (a, g) score has count 0 < 1"),
            (("a", "g", "score", 0.0, -1.0, 3), "negative stddev for cell (a, g) score"),
            (("a", "g", "score", 0.0, 1.0, 2**63),
             "cell (a, g) score has count 9223372036854775808, above 9223372036854775807"),
        ]:
            with pytest.raises(InputError) as exc:
                PerformanceTable.from_stats([row])
            assert str(exc.value) == message

    def test_from_stats_rejects_a_duplicate_row(self):
        row = ("a", "g", "win", 0.5, 0.1, 3)
        with pytest.raises(InputError) as exc:
            PerformanceTable.from_stats([row, ("a", "g", "score", 1.0, 1.0, 3), row])
        assert str(exc.value) == "duplicate stats row for cell (a, g) win"

    @pytest.mark.parametrize("floor", [0.0, -1.0, math.nan, math.inf])
    def test_from_stats_rejects_a_bad_sigma_floor(self, floor):
        with pytest.raises(InputError, match="sigma_floor must be positive"):
            PerformanceTable.from_stats([("a", "g", "score", 0.0, 1.0, 3)], floor)

    def test_metric_key_coerces_measure(self):
        assert MetricKey("g", "win") == MetricKey("g", Measure.WIN_RATE)
        with pytest.raises(ValueError):
            MetricKey("g", "draws")

    def test_arrays_are_read_only(self):
        table = aggregate(playthroughs(two_agent_records([1, 2], [3, 4])))
        with pytest.raises(ValueError):
            table.means[0, 0] = 99.0

    def test_unknown_lookups(self):
        table = aggregate(playthroughs(two_agent_records([1, 2], [3, 4])))
        with pytest.raises(CompletenessError):
            table.key_index(MetricKey("missing", Measure.SCORE))


class TestStatsIO:
    @pytest.fixture
    def table(self):
        records = two_agent_records([1.0, 2.5, 4.0], [0.5, 0.5, 9.5])
        return aggregate(playthroughs(records))

    def test_csv_round_trip(self, table):
        buf = io.StringIO()
        write_stats_csv(table, buf)
        back = read_stats_csv(io.StringIO(buf.getvalue()))
        assert back.agents == table.agents
        assert back.keys == table.keys
        assert np.array_equal(back.means, table.means)
        assert np.array_equal(back.stddevs, table.stddevs)
        assert np.array_equal(back.counts, table.counts)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_rows_in_any_order_load_bit_identically(self, data):
        rng = np.random.default_rng(3)
        table = full_table({
            p: {"win": (rng.random(3), rng.random(3)), "score": (rng.normal(size=3), rng.random(3))}
            for p in ("g1", "g2", "g3")
        })
        buf = io.StringIO()
        write_stats_csv(table, buf)
        header, *lines = buf.getvalue().splitlines()
        shuffled = data.draw(st.permutations(lines))
        back = read_stats_csv(io.StringIO("\n".join([header, *shuffled]) + "\n"))
        assert back.agents == table.agents
        assert back.keys == table.keys
        for name in ("means", "stddevs", "counts"):
            assert getattr(back, name).tobytes() == getattr(table, name).tobytes()

    def test_json_round_trip(self, table):
        text = dumps_canonical_json(stats_json_document(table))
        back = read_stats_json(io.StringIO(text))
        assert back.agents == table.agents
        assert np.array_equal(back.means, table.means)

    def test_json_reemission_is_byte_identical(self, table):
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

    @pytest.mark.parametrize("text, line, message", [
        ("", 1, "empty file"),
        ("agent,problem,mean\n", 1, "bad header"),
        (STATS_CSV_HEADER + "a,g,win,0.5,0.1,3\n\na,g,score,1.0,0.1\n", 4,
         "expected 6 fields, got 5"),
        (STATS_CSV_HEADER + "a,g,win,0.5,0.1,3\na,g,score,abc,0.1,3\n", 3, "could not convert"),
        (STATS_CSV_HEADER + "a,g,win,0.5,0.1,3\na,g,score,1.0,0.1,2.5\n", 3, "invalid literal"),
    ], ids=["empty", "header", "short-row", "mean", "count"])
    def test_stats_csv_error_names_line(self, tmp_path, text, line, message):
        with pytest.raises(ParseError, match=f"^line {line}: {message}") as exc:
            read_stats_csv(io.StringIO(text))
        assert exc.value.line == line
        path = tmp_path / "stats.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line {line}: {message}") as exc:
            load_stats(path)
        assert (exc.value.path, exc.value.line) == (str(path), line)

    def test_bad_stats_json(self):
        with pytest.raises(InputError, match="JSON"):
            read_stats_json(io.StringIO("not json"))
        with pytest.raises(InputError, match="structure"):
            read_stats_json(io.StringIO('{"cells": [{"agent": "a"}]}'))


# keys and strings with non-ASCII, quotes, backslashes, line breaks and
# the item separator's ", "
JSON_TEXT = st.lists(
    st.sampled_from(["a", "Z", "é", "😀", '"', "\\", "\n", "\r", ", ", "\x00"]), max_size=4
).map("".join)
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-2**200, 2**200),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, 1e16, 1e-7]),
    JSON_TEXT,
)


def json_documents(depth):
    """Scalars, and lists, tuples and str-keyed dicts nested up to ``depth``
    containers deep."""
    if depth == 0:
        return JSON_SCALARS
    children = json_documents(depth - 1)
    return st.one_of(
        children,
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(JSON_TEXT, children, max_size=3),
    )


class TestCanonicalJson:
    @settings(max_examples=400, deadline=None)
    @given(document=json_documents(4))
    def test_equals_the_stdlib_text(self, document):
        expected = json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"
        assert dumps_canonical_json(document) == expected

    def test_pieces_are_one_per_block_of_flat_cells(self, monkeypatch):
        monkeypatch.setattr(perf, "_FLAT_DICT_BLOCK", 5)
        rows = [(f"a{a}", f"p{p}", m, 0.5, 0.1, 3) for a in range(3) for p in range(2)
                for m in ("score", "win")]
        document = stats_json_document(PerformanceTable.from_stats(rows))
        pieces = list(canonical_json_pieces(document))
        assert "".join(pieces) == dumps_canonical_json(document)
        # "agents", the 12 cells in blocks of 5, 5 and 2 with their
        # separators, the cells' "]", "problems", "sigma_floor", the
        # document's "}" and the newline
        assert len(pieces) == 3 + 6
        assert [piece.count('"agent"') for piece in pieces[1:4]] == [5, 5, 2]

    @pytest.mark.parametrize("count", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    def test_block_boundaries(self, count):
        # names holding JSON's punctuation, and the text between two cells,
        # which escaping keeps out of the encoder's text
        names = ["}", "{", ",", '"', "\\", "\n", "},\n      {", "a"]
        cells = [{"agent": names[i % len(names)], "count": i, "mean": i / 7, "x": None}
                 for i in range(count)]
        document = {"agents": names, "cells": cells, "sigma_floor": 1e-9}
        expected = json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"
        assert dumps_canonical_json(document) == expected
        assert dumps_canonical_json(dict(document, cells=iter(cells))) == expected

    @pytest.mark.parametrize("rows", [[], [[]], [[1.5, None], [-2, "x"]], [{"b": 1, "a": [2]}, 3],
                                      [{"a": 1}, {"b": "}"}, {}, {"c": [1]}, {"d": None}, 2]])
    def test_an_iterable_is_written_as_its_list(self, rows):
        # a generator, alone or in a container, is read once as it is written
        for document, streamed in ((rows, iter(rows)), ([rows], [iter(rows)]),
                                   ({"m": rows, "k": 1}, {"m": iter(rows), "k": 1})):
            expected = json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"
            assert dumps_canonical_json(streamed) == expected

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_out_of_range_floats_raise(self, value):
        for document in (value, [value], {"k": value}, {"k": [1, {"x": value}]}, [[value]]):
            with pytest.raises(ValueError):
                dumps_canonical_json(document)

    def test_peak_memory_per_text_byte(self):
        rows = [(f"agent{a:03d}", f"prob{p:02d}", m, a + p / 64, 0.5, 5)
                for a in range(200) for p in range(60) for m in ("score", "win")]
        document = stats_json_document(PerformanceTable.from_stats(rows))
        text = dumps_canonical_json(document)  # the first call fills the encoder cache
        peak = traced_peak(dumps_canonical_json, document)
        # one string per cell and the joined text; the stdlib's chunk per
        # token and its join peaked at about 7.4 times the text
        assert peak / len(text) <= 3
