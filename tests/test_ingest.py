"""The playthrough path end to end: synth's CSV text, the reader, the
grouping into cells and the per-cell summary, each held to the form it
replaced or to what it must give back."""

import csv
import io
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_ingest
from conftest import playthrough_rows, playthroughs, traced_peak
from infobench.cli import main
from infobench.errors import InputError, ParseError
from infobench.perf import (
    Measure,
    MetricKey,
    PerformanceTable,
    _gaussian_stat,
    _win_stat,
    aggregate,
    parse_records,
)
from infobench.synth import ARCHETYPE_CHOICES, SynthSpec, archetypes, generate


def run(*argv):
    return main([str(a) for a in argv])


def outcome(parse, text):
    """The records, by ``repr`` so -0.0 and 0.0 differ, or the error
    message and line."""
    try:
        return [repr(r) for r in parse(io.StringIO(text, newline=""))]
    except ParseError as exc:
        return exc.message, exc.line


HEADER = "agent,problem,score,win"
# str.strip() removes each of these pads; float() ignores all but U+001C
PADS = st.sampled_from(["", "", " ", "\t", "　", "\xa0", "\x1c"])
NAMES = st.sampled_from(["a", "b", "", "x,y", 'q"u', "two\nlines", "cr\rin", "é", "n\x00l"])
SCORES = st.sampled_from(
    ["1.5", "-0.0", "7", "", "abc", "nan", "inf", "-Infinity", "1_0", "0x10", "1e309",
     "9" * 400, "٣.5", "1,5"]
)
WINS = st.sampled_from(["1", "0", "true", "FALSE", "Win", "lose", "", "maybe", "1.0", "2"])
ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])


def quoted(text):
    """``text`` as one CSV field, quoted when csv.writer would quote it."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def playthrough_text(draw):
    """A playthrough CSV of up to six lines: padded and quoted fields,
    blank lines, mixed line endings, wrong field counts, and now and then
    an unterminated quote or a bad header."""
    header = draw(st.sampled_from([HEADER, HEADER, HEADER, " Agent , PROBLEM,score,win",
                                   "agent,game,score,win", ""]))
    lines = [header]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row", "row", "row", "row", "blank", "width", "open"]))
        if kind == "blank":
            lines.append("")
            continue
        fields = [draw(NAMES), draw(NAMES), draw(SCORES), draw(WINS)]
        fields = [quoted(draw(PADS) + f + draw(PADS)) for f in fields]
        if kind == "width":
            fields = fields[:3] if draw(st.booleans()) else fields + ["1"]
        elif kind == "open":
            fields[draw(st.integers(0, 3))] = '"unterminated'
        lines.append(",".join(fields))
    text = "".join(line + draw(ENDINGS) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@settings(max_examples=150, deadline=None)
@given(text=playthrough_text())
# rows with two faults: the earlier line is named, and within a row the
# first check in the order agent, problem, score parse, score range, win
@example(text=f"{HEADER}\na,g,1,maybe\na,g,1\n")
@example(text=f"{HEADER}\n , ,abc,maybe\n")
@example(text=f"{HEADER}\na, ,abc,maybe\n")
@example(text=f"{HEADER}\na,g, nan ,maybe\n")
@example(text=f"{HEADER}\na,g,　abc\xa0,1\n")
@example(text=f"{HEADER}\na,a,1.5\x1c,1")
@example(text=f"{HEADER}\r\n a ,\tg\t, 1_0 , Win \r\n\r\nb,g,0x10,0\r\n")
@example(text=f'{HEADER}\n"a,1","g\n2",-0.0,0\n"unterminated,g,1,1\n')
@example(text=f"{HEADER}\na\x00,g,{'9' * 400},1\n")
# one name spelled three ways, padded wins and scores, and empty names
# met after their padded spellings were seen
@example(text=f"{HEADER}\na1,g,1,1\n a1,g,2,0\na1\t,g,3,1\n")
@example(text=f"{HEADER}\na,g,1,WIN\na,g,2, Lose \na,g,3,TRUE\n")
@example(text=f"{HEADER}\na,g,\x1c1.5\x1c,1\na,g, -0.0 ,0\na,g,\x1cnan ,1\n")
@example(text=f"{HEADER}\n a1 ,g,1,1\n ,g,2,0\n")
@example(text=f"{HEADER}\n g ,g ,1,1\ng, ,2,0\n")
def test_reader_matches_the_per_row_stripping_reader(text):
    expected = outcome(reference_ingest.parse_records, text)
    assert outcome(lambda stream: playthrough_rows(parse_records(stream)), text) == expected
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "playthroughs.csv"
        path.write_text(text, encoding="utf-8", newline="")
        code = run("ingest", "--input", path, "--out", Path(tmp) / "out")
    assert code in (0, 1, 2)
    if isinstance(expected, tuple):
        assert code == 2


def stat_outcome(stat, values):
    """The summary as ``repr``s, or the exception's type and text."""
    try:
        return [repr(x) for x in stat(values)]
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e150, max_value=1e150),
    st.floats(min_value=-1e-150, max_value=1e-150),
    st.sampled_from([0.0, -0.0, 1e150, -1e150, 1e-150, 5e-324, 1e154, 1e160]),
)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(FINITE, min_size=1, max_size=12))
@example(values=[1e160, -1e160])
@example(values=[1.7e308, -1.7e308, 1.7e308])
def test_gaussian_stat_is_bit_identical_to_the_generator_form(values):
    assert stat_outcome(_gaussian_stat, values) == stat_outcome(
        reference_ingest.gaussian_stat, values
    )


def table_outcome(build):
    """The names and bytes of the table ``build()`` returns, or its
    error's type, text and missing cells; then the warning texts."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            table = build()
            result = (table.agents, table.keys, table.means.shape, table.means.tobytes(),
                      table.stddevs.tobytes(), table.counts.tobytes(), table.sigma_floor)
        except InputError as exc:
            result = type(exc), str(exc), getattr(exc, "missing", None)
    return result, [str(w.message) for w in caught]


# one pool for both roles, so a name can be an agent and a problem
CELL_NAMES = st.sampled_from(["a", "b", "g", "h"])
# a cell holding 1e200 and -1e200 or 0.0 squares a deviation past the float range
CELL_SCORES = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([-0.0, 5e-324, 1e200, -1e200]))


@st.composite
def shuffled_rows(draw):
    """Rows of up to three agents x three problems, one to four per cell,
    now and then with a cell or two left out, in shuffled order."""
    agents = draw(st.lists(CELL_NAMES, min_size=1, max_size=3, unique=True))
    problems = draw(st.lists(CELL_NAMES, min_size=1, max_size=3, unique=True))
    cells = [(a, p) for a in agents for p in problems]
    gone = draw(st.sets(st.sampled_from(cells), max_size=2))
    rows = [
        (a, p, draw(CELL_SCORES), draw(st.booleans()))
        for a, p in cells if (a, p) not in gone for _ in range(draw(st.integers(1, 4)))
    ]
    return draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(rows=shuffled_rows(), allow_missing=st.booleans())
@example(rows=[("a", "a", 1.0, True), ("b", "a", 2.0, False), ("a", "b", 3.0, True),
               ("b", "b", 4.0, False), ("a", "a", 5.0, False)], allow_missing=False)
@example(rows=[("a", "g", 1e200, True), ("a", "g", -1e200, False)], allow_missing=False)
@example(rows=[("a", "g", 1.0, True), ("b", "h", 2.0, False), ("a", "h", 3.0, True)],
         allow_missing=True)
@example(rows=[("a", "g", 1.0, True), ("b", "h", 2.0, False)], allow_missing=True)
@example(rows=[], allow_missing=False)
def test_aggregate_matches_the_per_row_dict_loop(rows, allow_missing):
    expected = table_outcome(lambda: reference_ingest.aggregate(rows, allow_missing=allow_missing))
    by_codes = table_outcome(lambda: aggregate(playthroughs(rows), allow_missing=allow_missing))
    assert by_codes == expected


def test_cell_codes_are_not_32_bit():
    # 46,341 agents and one problem give 46,342 names, so the last agent's
    # cell code 46,341 * 46,342 + 1 is above 2**31 - 1
    n = 46_341
    records = playthroughs((f"a{i:05d}", "g", float(i), i % 2 == 0) for i in range(n))
    with pytest.warns(UserWarning, match="single playthrough"):
        table = aggregate(records)
    assert len(table.agents) == n
    means, _ = table.column(MetricKey("g", "score"))
    assert means.tolist() == [float(i) for i in range(n)]


@pytest.mark.parametrize("corrupt, message", [
    pytest.param(lambda r: r.wins.__setitem__(1, 2), "win byte is neither 0 nor 1", id="win-2"),
    pytest.param(lambda r: r.agents.pop(), r"columns differ in length: \[3, 4\]",
                 id="agents-short"),
    pytest.param(lambda r: r.problems.pop(), r"columns differ in length: \[3, 4\]",
                 id="problems-short"),
    pytest.param(lambda r: r.agents.__setitem__(0, -1), r"agent code lies outside \[0, 3\)",
                 id="agent-negative"),
    pytest.param(lambda r: r.problems.__setitem__(2, 3), r"problem code lies outside \[0, 3\)",
                 id="problem-past-names"),
    pytest.param(lambda r: r.names.__setitem__(1, "a0"), "names repeat a name: a0",
                 id="name-repeated"),
])
def test_aggregate_rejects_malformed_columns(corrupt, message):
    records = playthroughs([("a0", "g", 1.0, 1), ("a0", "g", 2.0, 0),
                            ("a1", "g", 3.0, 1), ("a1", "g", 4.0, 0)])
    assert records.names == ["a0", "g", "a1"]
    aggregate(records)  # well-formed as built
    corrupt(records)
    with pytest.raises(InputError, match=message):
        aggregate(records)


def test_aggregate_accepts_parsed_and_generated_columns():
    # each name is both an agent and a problem, under two spellings, so it
    # has one code; the codes lie in [0, 2) and the wins are 0/1 bytes
    text = f"{HEADER}\na,a,1,1\na, b ,2,win\n b,a,3,0\nb,b,4,lose\n"
    records = parse_records(io.StringIO(text, newline=""))
    assert records.names == ["a", "b"]
    with pytest.warns(UserWarning, match="single playthrough"):
        parsed = aggregate(records)
    assert parsed.agents == ("a", "b")
    assert parsed.column(MetricKey("b", "score"))[0].tolist() == [2.0, 4.0]
    table = aggregate(generate(SynthSpec(3, archetypes("mixed", 4), samples_per_cell=5, seed=2)))
    assert table.means.shape == (3, 8)


def test_aggregate_peak_memory_per_row():
    spec = SynthSpec(27, archetypes("mixed", 20), samples_per_cell=200, seed=5)
    records = generate(spec)
    aggregate(records)  # the first call fills numpy's and Python's caches
    peak = traced_peak(aggregate, records)
    # an int64 code, its sort order and a sorted score per row, with slack;
    # a Python float per row in per-cell lists alone takes 32
    assert peak / len(records) <= 30


def mostly(sound, faults):
    """Draws from ``sound``, and about one time in eight from ``faults``."""
    return st.sampled_from([sound] * 7 + [st.sampled_from(faults)]).flatmap(lambda s: s)


# mostly sound names and stats, now and then a blank name or one XML
# forbids, a non-finite stat, a negative stddev or a count outside
# [1, 2**63 - 1]
STATS_AGENTS = mostly(st.sampled_from(["a", "b", "c", "é"]), ["x\x01", "", "\x1c"])
STATS_PROBLEMS = mostly(st.sampled_from(["g", "h", "k"]), ["p\ufffe", " "])
STATS_MEASURES = st.sampled_from(["win", "score", Measure.WIN_RATE, Measure.SCORE])
STATS_MEANS = mostly(st.floats(-10, 10), [-0.0, math.nan, math.inf, -math.inf])
STATS_STDDEVS = mostly(st.floats(0, 2), [0.0, 1e-12, -0.0, -1.0, math.nan, math.inf])
STATS_COUNTS = mostly(st.sampled_from([1, 2, 3, 9]), [0, -1, 2**63 - 1, 2**63, -2**70])
# the row a stats reader fails on, raising a ParseError mid-iteration
BAD_LINE = ("bad", "line")


@st.composite
def stats_rows(draw):
    """Stats rows for up to three agents x four keys in shuffled order,
    now and then with a cell or two left out, a row repeated, a row of
    an unknown measure or a row the reader fails on."""
    agents = draw(st.lists(STATS_AGENTS, min_size=1, max_size=3, unique=True))
    keys = draw(st.lists(st.tuples(STATS_PROBLEMS, STATS_MEASURES), min_size=1, max_size=4,
                         unique_by=lambda k: (k[0], Measure(k[1]))))
    rows = [(a, p, m, draw(STATS_MEANS), draw(STATS_STDDEVS), draw(STATS_COUNTS))
            for a in agents for p, m in keys]
    few = st.sampled_from([0, 0, 0, 0, 1, 2])
    for _ in range(min(draw(few), len(rows) - 1)):
        rows.remove(draw(st.sampled_from(rows)))
    rows += [draw(st.sampled_from(rows)) for _ in range(draw(few))]
    rows += [draw(st.sampled_from([("a", "g", "draw", 0.5, 1.0, 3), BAD_LINE]))
             for _ in range(draw(few))]
    return draw(st.permutations(rows))


def read_rows(rows):
    """The rows as a stats reader yields them, raising at ``BAD_LINE``."""
    for row in rows:
        if row == BAD_LINE:
            raise ParseError("unparseable count", 9)
        yield row


@settings(max_examples=300, deadline=None)
@given(rows=stats_rows(), sigma_floor=st.sampled_from([1e-9, 1e-12, 0.5, 1.0, 3.0]))
# a duplicate or an unknown measure is named at its row, even before a
# row the reader fails on
@example(rows=[("a", "g", "win", 0.5, 1.0, 3), ("a", "g", Measure.WIN_RATE, 0.5, 1.0, 3),
               ("a", "g", "draw", 0.5, 1.0, 3)], sigma_floor=1e-9)
@example(rows=[("a", "g", "draw", 0.5, 1.0, 3), ("a", "g", "win", 0.5, 1.0, 3),
               ("a", "g", "win", 0.5, 1.0, 3)], sigma_floor=1e-9)
@example(rows=[("a", "g", "win", 0.5, 1.0, 3), ("a", "g", "win", 0.5, 1.0, 3), BAD_LINE],
         sigma_floor=1e-9)
@example(rows=[("a", "g", "win", 0.5, 1.0, 3), BAD_LINE, ("a", "g", "win", 0.5, 1.0, 3)],
         sigma_floor=1e-9)
@example(rows=[], sigma_floor=1e-9)
# within a cell non-finite comes before negative before the count checks,
# and across cells (agent, key) order decides, not row order
@example(rows=[("b", "g", "win", math.nan, -1.0, 0), ("a", "g", "win", 0.5, -1.0, 2**63)],
         sigma_floor=1e-9)
@example(rows=[("a", "g", "win", 0.5, 1.0, -2**70), ("a", "h", "win", 0.5, -1.0, 3)],
         sigma_floor=1e-9)
@example(rows=[("a", "g", "win", 0.5, 1.0, 2**63 - 1), ("a", "h", "win", 0.5, 1.0, 2**63)],
         sigma_floor=1e-9)
# XML-forbidden names are named at the first row holding one
@example(rows=[("b", "p\ufffe", "win", 0.5, 1.0, 3), ("x\x01", "g", "win", 0.5, 1.0, 3)],
         sigma_floor=1e-9)
# a blank name is named at its row too, before any XML-forbidden one
# there; U+001C is both, blank after strip() and forbidden in XML
@example(rows=[("b", "p\ufffe", "win", 0.5, 1.0, 3), ("", "g", "win", 0.5, 1.0, 3)],
         sigma_floor=1e-9)
@example(rows=[("\x1c", "g", "win", 0.5, 1.0, 3), ("a", " ", "win", 0.5, 1.0, 3)],
         sigma_floor=1e-9)
def test_from_stats_matches_the_per_cell_dict_loop(rows, sigma_floor):
    expected = table_outcome(lambda: reference_ingest.from_stats(read_rows(rows), sigma_floor))
    by_columns = table_outcome(lambda: PerformanceTable.from_stats(read_rows(rows), sigma_floor))
    assert by_columns == expected


def test_from_stats_peak_memory_per_cell():
    def rows():
        # each row made as it is read, as the stats readers make theirs, so
        # the peak counts what from_stats keeps of a row and not the row
        return ((f"agent{a:03d}", f"prob{p:02d}", m, a + p / 64, 0.5, 5)
                for a in range(200) for p in range(60) for m in ("score", "win"))

    PerformanceTable.from_stats(rows())  # the first call fills numpy's and Python's caches
    peak = traced_peak(PerformanceTable.from_stats, rows())
    # five list entries, a flat index and three table entries per row, with
    # slack: about 85.  Keeping each row's own agent str took about 141, and
    # a dict entry and an (agent, key) tuple per cell about 260
    assert peak / (200 * 60 * 2) <= 110


def retained_bytes(build):
    """What ``build()`` returns, and the bytes it still holds after."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return result, retained


def test_rows_share_one_str_per_name():
    lines = [HEADER] + [
        f"agent{a},problem{p},{s * 0.25},{s % 2}"
        for a in range(10) for p in range(20) for s in range(100)
    ]
    stream = io.StringIO("\n".join(lines) + "\n", newline="")
    records, retained = retained_bytes(lambda: parse_records(stream))
    assert len(records) == 20_000
    assert len(records.names) == 30
    rows = playthrough_rows(records)
    assert len({id(a) for a, *_ in rows}) == 10
    assert len({id(p) for _, p, *_ in rows}) == 20
    # two int codes, a double and a byte per row, with the columns' slack;
    # a tuple per row in a list takes over 100
    assert retained / len(records) <= 24


def test_generated_rows_are_held_as_columns():
    spec = SynthSpec(27, archetypes("mixed", 20), samples_per_cell=200, seed=3)
    generate(SynthSpec(1, archetypes("mixed", 1), 1))  # numpy imports its random module lazily
    records, retained = retained_bytes(lambda: generate(spec))
    assert len(records) == 27 * 20 * 200
    assert retained / len(records) <= 24


def test_synth_holds_no_large_cell_as_text_whole(tmp_path):
    argv = ("synth", "--agents", 1, "--problems", 1, "--out", tmp_path, "--samples")
    run(*argv, 1000)  # numpy imports its random module lazily
    peak = traced_peak(run, *argv, 200_000)
    # the columns and the cell's numpy draws, with slack: about 38; the
    # cell's text held whole took about 135
    assert peak / 200_000 <= 60


def hex_rows(records):
    return [(a, p, s.hex(), w) for a, p, s, w in records]


@pytest.mark.parametrize("archetype", ARCHETYPE_CHOICES)
@pytest.mark.parametrize("sigma", [1.0, 1e300])
@pytest.mark.parametrize("samples", [1, 6])
def test_generate_draws_what_the_tuple_list_generator_drew(archetype, sigma, samples):
    spec = SynthSpec(4, archetypes(archetype, 5, sigma=sigma), samples, seed=11)
    rows = playthrough_rows(generate(spec))
    assert hex_rows(rows) == hex_rows(reference_ingest.generate(spec))


def test_overflowing_squared_deviations_are_too_large_to_summarise(tmp_path, capsys):
    with pytest.raises(OverflowError):
        _gaussian_stat([1e160, -1e160])
    path = tmp_path / "playthroughs.csv"
    path.write_text(f"{HEADER}\na,g,1e160,1\na,g,-1e160,0\n", encoding="utf-8")
    assert run("ingest", "--input", path, "--out", tmp_path / "out") == 2
    assert "(a, g) score values are too large to summarise" in capsys.readouterr().err


@pytest.mark.parametrize(
    "agents, samples, scale",
    [(3, 1, 1.0), (1, 6, 1.0), (4, 3, 1e300), (4, 3, 1e-300), (1, 2 * 4096 + 1, 1.0)],
    ids=["one-playthrough", "one-agent", "long-reprs", "tiny-long-reprs", "cells-span-writes"],
)
def test_synth_csv_equals_the_row_by_row_writer(tmp_path, agents, samples, scale):
    argv = ("--agents", agents, "--problems", 5, "--samples", samples, "--seed", 7,
            "--gap", 10 * scale, "--sigma", scale)
    assert run("synth", *argv, "--out", tmp_path) == 0
    records = generate(SynthSpec(agents, archetypes("mixed", 5, 10 * scale, scale), samples, 7))
    expected = io.StringIO(newline="")
    reference_ingest.write_playthroughs_csv(records, expected)
    assert (tmp_path / "playthroughs.csv").read_bytes() == expected.getvalue().encode("utf-8")
    if scale != 1.0:
        assert max(len(repr(s)) for s in records.scores) >= 23


@pytest.mark.parametrize("n", [1, 2, 3, 5, 40, 200])
def test_win_stat_is_the_stat_of_its_outcomes(n):
    for won in range(n + 1):
        outcomes = [1.0] * won + [0.0] * (n - won)
        # equal reprs are equal bits: a float's repr round-trips, sign of zero included
        assert list(map(repr, _win_stat(won, n))) == list(map(repr, _gaussian_stat(outcomes)))


@pytest.mark.parametrize("archetype", ARCHETYPE_CHOICES)
@pytest.mark.parametrize("sigma", [1.0, 1e300])
def test_synth_csv_reads_back_as_generate(tmp_path, archetype, sigma):
    # synth joins its rows' text itself, not through csv.writer: this holds only
    # if no name or float repr needs quoting
    argv = ("--agents", 3, "--problems", 5, "--samples", 4, "--seed", 7, "--sigma", sigma)
    assert run("synth", "--archetype", archetype, *argv, "--out", tmp_path) == 0
    with open(tmp_path / "playthroughs.csv", newline="", encoding="utf-8") as f:
        header, *rows = csv.reader(f)
    spec = SynthSpec(3, archetypes(archetype, 5, sigma=sigma), 4, 7)
    records = playthrough_rows(generate(spec))
    assert header == ["agent", "problem", "score", "win"]
    assert [(a, p, float(s), w == "1") for a, p, s, w in rows] == records
    assert all(float(s).hex() == r[2].hex() for (_, _, s, _), r in zip(rows, records))
    assert {w for *_, w in rows} <= {"0", "1"}
    if sigma == 1e300:
        assert any("e+" in s for _, _, s, _ in rows)
