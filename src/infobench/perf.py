"""Playthrough ingestion and the Gaussian performance table.

A playthrough log is a CSV headed by ``PLAYTHROUGH_HEADER``, parsed
into ``Playthroughs``, columns in file order.  ``aggregate`` groups the
rows by their (agent, problem) codes and summarises each pair by two
metric cells: the win rate (mean of the 0/1 outcomes) and the score,
both modelled as Gaussians with a sample mean, a Bessel-corrected sample
standard deviation and a sample count.

Every table is built by ``PerformanceTable.from_columns`` from one
column per stat: each row's agent, metric key, mean, stddev and count.
``aggregate`` fills the columns from its sorted runs; both stats readers
reach it through ``PerformanceTable.from_stats``, which gathers the
``(agent, problem, measure, mean, stddev, count)`` rows of a stats file
into columns.  ``from_columns`` alone decides a cell's noise scale: it
floors every standard deviation at ``sigma_floor``, so deterministic
cells (e.g. an agent that always wins) never produce a zero noise scale
downstream, and it reports those cells.

Both headed CSV inputs, playthroughs and stats, are read row by row by
``_csv_rows``, and both files are opened and decoded by ``_read_text``.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import re
import warnings
from array import array
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, compress, groupby, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import add, sub
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .errors import CompletenessError, InputError, ParseError

SIGMA_FLOOR_DEFAULT = 1e-9

_MAX_COUNT = np.iinfo(np.int64).max

# the characters outside XML 1.0's Char production: C0 controls but tab,
# newline and carriage return, surrogates, U+FFFE and U+FFFF.  No escape
# can put one into a heatmap, so no agent or problem name may hold one.
_XML_FORBIDDEN = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")

_WIN_TOKENS = {
    "1": True,
    "true": True,
    "win": True,
    "0": False,
    "false": False,
    "lose": False,
}

PLAYTHROUGH_HEADER = ("agent", "problem", "score", "win")

STATS_HEADER = ("agent", "problem", "measure", "mean", "stddev", "count")

T = TypeVar("T")


class Measure(str, Enum):
    """The two performance signals a playthrough yields."""

    WIN_RATE = "win"
    SCORE = "score"


class MetricKey(tuple):
    """A (problem, measure) pair naming one column of the table."""

    __slots__ = ()

    def __new__(cls, problem: str, measure: Measure | str):
        try:
            measure = Measure(measure)
        except ValueError:
            raise InputError(
                f"unknown measure {measure!r}, expected one of "
                f"{tuple(m.value for m in Measure)}"
            ) from None
        return super().__new__(cls, (problem, measure))

    @property
    def problem(self) -> str:
        return self[0]

    @property
    def measure(self) -> Measure:
        return self[1]

    def __repr__(self) -> str:
        return f"MetricKey({self.problem!r}, {self.measure.value!r})"


def _csv_rows(stream: IO[str], header: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line, fields)`` for each non-empty data row of a headed
    CSV, the fields as ``csv.reader`` gives them, unstripped.

    The header must match ``header`` case-insensitively and every row must
    have one field per column.  Errors are ``ParseError``s naming the
    1-based line (header = line 1).
    """
    expected = ",".join(header)
    reader = csv.reader(stream)
    try:
        first = next(reader, None)
        if first is None:
            raise ParseError(f"empty file, expected header {expected!r}", 1)
        if tuple(h.strip().lower() for h in first) != header:
            raise ParseError(f"bad header {','.join(first)!r}, expected {expected!r}", 1)
        width = len(header)
        for row in reader:
            if len(row) != width:
                if not row:
                    continue
                raise ParseError(f"expected {width} fields, got {len(row)}", reader.line_num)
            yield reader.line_num, row
    except csv.Error as exc:
        raise ParseError(str(exc), reader.line_num) from None


def _first_eight(labels: Sequence[str], total: int | None = None) -> str:
    """The first eight labels, comma-separated, then how many more of
    ``total`` (default: all of ``labels``) there are."""
    total = len(labels) if total is None else total
    more = "" if total <= 8 else f" and {total - 8} more"
    return ", ".join(labels[:8]) + more


def _raise_first_duplicate(agents: Sequence[str], keys: Sequence[MetricKey]) -> None:
    """Raise for the first stats row, in row order, whose cell an earlier
    row already gave; return if there is none."""
    seen = set()
    for cell in zip(agents, keys):
        if cell in seen:
            agent, (problem, measure) = cell
            raise InputError(
                f"duplicate stats row for cell {_cell_name(agent, problem, measure)}"
            ) from None
        seen.add(cell)


def _check_sigma_floor(sigma_floor: float) -> None:
    if not (sigma_floor > 0 and math.isfinite(sigma_floor)):
        raise InputError(f"sigma_floor must be positive and finite, got {sigma_floor}")


def _cell_name(agent: str, problem: str, measure: Measure) -> str:
    """One cell as every message names it: ``(a1, g) win``."""
    return f"({agent}, {problem}) {measure.value}"


def _read_text(path: str | Path, read: Callable[[IO[str]], T]) -> T:
    """Open ``path`` as UTF-8 text and hand the stream to ``read``; parse
    errors name the path."""
    # utf-8-sig drops the byte-order mark that spreadsheet exports prepend
    with open(path, newline="", encoding="utf-8-sig") as f:
        try:
            return read(f)
        except ParseError as exc:
            raise ParseError(exc.message, exc.line, str(path)) from None
        except UnicodeDecodeError as exc:
            # the decoder works on buffered chunks, so the line is not known here
            raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None


class Playthroughs:
    """Playthroughs as columns, in file or draw order.

    ``names`` holds each distinct name once; ``agents`` and ``problems``
    are codes into it, ``scores`` the scores and ``wins`` 0/1 bytes, so a
    row costs 17 bytes.  A row is read from the columns: the agent is
    ``names[agents[i]]``, the win ``wins[i] == 1``.
    """

    __slots__ = ("names", "agents", "problems", "scores", "wins")

    def __init__(self) -> None:
        self.names: list[str] = []
        self.agents = array("i")
        self.problems = array("i")
        self.scores = array("d")
        self.wins = bytearray()

    def __len__(self) -> int:
        return len(self.scores)


def parse_records(stream: IO[str]) -> Playthroughs:
    """Parse a playthrough CSV into ``Playthroughs``, preserving file order.

    The header must be ``PLAYTHROUGH_HEADER``.  Win tokens
    accept 0/1, true/false and win/lose, case-insensitively.  Errors
    name the offending 1-based line (header = line 1).
    """
    records = Playthroughs()
    add_agent, add_problem = records.agents.append, records.problems.append
    add_score, add_win = records.scores.append, records.wins.append
    isfinite, win_tokens = math.isfinite, _WIN_TOKENS
    # raw name field -> code of its stripped name in records.names
    codes: dict[str, int] = {}
    for line, (agent_text, problem_text, score_text, win_text) in _csv_rows(
        stream, PLAYTHROUGH_HEADER
    ):
        agent = codes.get(agent_text)
        if agent is None:
            agent = _name_code(codes, records.names, agent_text, "agent", line)
        problem = codes.get(problem_text)
        if problem is None:
            problem = _name_code(codes, records.names, problem_text, "problem", line)
        # strip even for float(): it keeps U+001C..U+001F, which strip() drops
        score_text = score_text.strip()
        try:
            score = float(score_text)
        except ValueError:
            raise ParseError(f"unparseable score {score_text!r}", line)
        if not isfinite(score):
            raise ParseError(f"non-finite score {score_text!r}", line)
        win_text = win_text.strip()
        win = win_tokens.get(win_text.lower())
        if win is None:
            raise ParseError(
                f"bad win value {win_text!r} (expected 0/1, true/false or win/lose)",
                line,
            )
        add_agent(agent)
        add_problem(problem)
        add_score(score)
        add_win(win)
    return records


def _name_code(codes: dict[str, int], names: list[str], text: str, role: str, line: int) -> int:
    """The code of a raw ``role`` field not yet in ``codes``, recorded
    there; every spelling of one name maps to the code of its one entry
    in ``names``."""
    name = text.strip()
    if not name:
        raise ParseError(f"empty {role} identifier", line)
    code = codes.setdefault(name, len(names))
    if code == len(names):
        names.append(name)
    codes[text] = code
    return code


def parse_records_path(path: str | Path) -> Playthroughs:
    return _read_text(path, parse_records)


@dataclass(frozen=True, eq=False)
class PerformanceTable:
    """Complete agents x metric-keys matrix of Gaussian cell summaries.

    Agent and key order are lexicographic, so tables built from the
    same data are identical regardless of record order.  Arrays are
    read-only; tables are safe to share across threads.
    """

    agents: tuple[str, ...]
    keys: tuple[MetricKey, ...]
    means: np.ndarray
    stddevs: np.ndarray
    counts: np.ndarray
    sigma_floor: float = SIGMA_FLOOR_DEFAULT
    _key_index: dict = field(repr=False, default_factory=dict)

    def __post_init__(self):
        for arr in (self.means, self.stddevs, self.counts):
            arr.setflags(write=False)
        self._key_index.update({k: i for i, k in enumerate(self.keys)})

    @classmethod
    def from_stats(
        cls,
        rows: Iterable[tuple[str, str, str, float, float, int]],
        sigma_floor: float = SIGMA_FLOOR_DEFAULT,
    ) -> "PerformanceTable":
        """Build a table from ``(agent, problem, measure, mean, stddev, count)``
        rows, the rows of a stats file, in any order, through
        ``from_columns``."""
        _check_sigma_floor(sigma_floor)
        # the rows as five columns, in row order: one str per distinct
        # agent and one MetricKey per distinct key, the stats as C doubles;
        # counts stay ints, so a fault message names a count as given
        row_agents, row_keys, means, stddevs, counts = [], [], array("d"), array("d"), []
        agents_seen: dict[str, str] = {}
        keys_seen: dict[tuple[str, str], MetricKey] = {}
        try:
            for agent, problem, measure, mean, stddev, count in rows:
                key = keys_seen.get((problem, measure))
                if key is None:
                    key = keys_seen[(problem, measure)] = MetricKey(problem, measure)
                row_agents.append(agents_seen.setdefault(agent, agent))
                row_keys.append(key)
                means.append(mean)
                stddevs.append(stddev)
                counts.append(count)
        except Exception:
            # a duplicate among the rows before the one that failed comes first
            _raise_first_duplicate(row_agents, row_keys)
            raise
        return cls.from_columns(row_agents, row_keys, means, stddevs, counts, sigma_floor)

    @classmethod
    def from_columns(
        cls,
        row_agents: Sequence[str],
        row_keys: Sequence[MetricKey],
        means: Sequence[float],
        stddevs: Sequence[float],
        counts: Sequence[int],
        sigma_floor: float = SIGMA_FLOOR_DEFAULT,
    ) -> "PerformanceTable":
        """Build a table from one column per stat: row ``i`` gives the
        cell ``(row_agents[i], row_keys[i])`` its ``means[i]``,
        ``stddevs[i]`` and ``counts[i]``, in any row order.

        Every agent appearing anywhere must have exactly one row for
        every key appearing anywhere, and no agent or problem name may be
        blank, or hold a character XML 1.0 forbids, since heatmaps carry
        the names.
        Standard deviations are floored at ``sigma_floor`` here, with one
        counted warning for the cells of a single playthrough and one for
        the cells of two or more whose stddev is below the floor.
        """
        _check_sigma_floor(sigma_floor)
        if not row_agents:
            raise InputError("no cells given")
        agents = tuple(sorted(set(row_agents)))
        keys = tuple(sorted(set(row_keys)))
        width = len(keys)
        # each row's cell as a flat index into the agents x keys grid
        row_start = {a: i * width for i, a in enumerate(agents)}
        column = {k: j for j, k in enumerate(keys)}
        cell = np.fromiter(
            map(add, map(row_start.__getitem__, row_agents), map(column.__getitem__, row_keys)),
            np.intp,
            len(row_agents),
        )
        size = len(agents) * width
        given = np.zeros(size, bool)
        given[cell] = True
        if np.count_nonzero(given) < len(cell):
            _raise_first_duplicate(row_agents, row_keys)
        names = agents + tuple(k.problem for k in keys)
        if not all(map(str.strip, names)) or _XML_FORBIDDEN.search("".join(names)):
            for a, k in zip(row_agents, row_keys):
                if not (a.strip() and k.problem.strip()):
                    raise InputError(f"cell {_cell_name(a, *k)!r} has an empty or blank name")
                bad = _XML_FORBIDDEN.search(a + k.problem)
                if bad:
                    raise InputError(
                        f"cell {_cell_name(a, *k)!r} has a name holding "
                        f"U+{ord(bad.group()):04X}, a character XML 1.0 forbids"
                    )

        def name(index: int) -> tuple[str, MetricKey]:
            return agents[index // width], keys[index % width]

        if not given.all():
            missing = [name(i) for i in np.flatnonzero(~given).tolist()]
            shown = _first_eight([_cell_name(a, *k) for a, k in missing])
            raise CompletenessError(
                f"incomplete table, {len(missing)} missing cell(s): {shown}", missing
            )
        mean = np.empty(size)
        mean[cell] = means
        stddev = np.empty(size)
        stddev[cell] = stddevs
        count = np.empty(size, np.int64)
        try:
            count[cell] = counts
        except OverflowError:
            # a count outside int64 is a fault; 0 marks it, and the message
            # below names the count as given
            count[cell] = [c if 1 <= c <= _MAX_COUNT else 0 for c in counts]
        faulty = ~np.isfinite(mean)
        faulty |= ~np.isfinite(stddev)
        faulty |= stddev < 0
        faulty |= count < 1
        if faulty.any():
            # the first faulty cell in (agent, key) order, named from its row
            first = int(np.argmax(faulty))
            row = int(np.argmax(cell == first))
            if not (math.isfinite(means[row]) and math.isfinite(stddevs[row])):
                fault = "non-finite stat for cell {}"
            elif stddevs[row] < 0:
                fault = "negative stddev for cell {}"
            elif counts[row] < 1:
                fault = f"cell {{}} has count {counts[row]} < 1"
            else:
                fault = f"cell {{}} has count {counts[row]}, above {_MAX_COUNT}"
            a, k = name(first)
            raise InputError(fault.format(_cell_name(a, *k)))
        single = count == 1
        for floored, reason in (
            (single, "with a single playthrough; no sample stddev, so at least the floor"),
            (~single & (stddev < sigma_floor),
             "with zero or sub-floor variance; stddev set to the floor"),
        ):
            floored = np.flatnonzero(floored)
            if len(floored):
                labels = [_cell_name(a, *k) for a, k in map(name, floored[:8].tolist())]
                warnings.warn(
                    f"{len(floored)} cell(s) {reason} ({sigma_floor:g}): "
                    f"{_first_eight(labels, len(floored))}",
                    stacklevel=2,
                )
        np.maximum(stddev, sigma_floor, out=stddev)
        shape = (len(agents), width)
        return cls(
            agents, keys, mean.reshape(shape), stddev.reshape(shape), count.reshape(shape),
            sigma_floor,
        )

    @property
    def problems(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for k in self.keys:
            seen.setdefault(k.problem, None)
        return tuple(seen)

    def key_index(self, key: MetricKey) -> int:
        try:
            return self._key_index[key]
        except KeyError:
            raise CompletenessError(
                f"no cell for problem {key.problem!r} measure {key.measure.value!r}"
            )

    def column(self, key: MetricKey) -> tuple[np.ndarray, np.ndarray]:
        """Per-agent (means, stddevs) for one metric key, in agent order."""
        j = self.key_index(key)
        return self.means[:, j], self.stddevs[:, j]


def _gaussian_stat(values: Sequence[float]) -> tuple[float, float, int]:
    """Mean, sample stddev and count; the stddev of a single value is 0.0."""
    # math.fsum is exactly rounded, so the result does not depend on the
    # order the values arrived in.
    n = len(values)
    mean = math.fsum(values) / n
    ssd = math.fsum(map(pow, map(sub, values, repeat(mean)), repeat(2)))
    return mean, math.sqrt(ssd / (n - 1)) if n > 1 else 0.0, n


@functools.cache
def _win_stat(won: int, n: int) -> tuple[float, float, int]:
    """``_gaussian_stat`` of ``won`` outcomes 1.0 and ``n - won`` outcomes
    0.0, bit for bit, from the two counts."""
    # fsum is exactly rounded, so summing each of the two squared
    # deviations ``won`` and ``n - won`` times gives _gaussian_stat's sum
    mean = won / n
    ssd = math.fsum(chain(repeat((1.0 - mean) ** 2, won), repeat((0.0 - mean) ** 2, n - won)))
    return mean, math.sqrt(ssd / (n - 1)) if n > 1 else 0.0, n


def aggregate(
    records: Playthroughs,
    sigma_floor: float = SIGMA_FLOOR_DEFAULT,
    allow_missing: bool = False,
) -> PerformanceTable:
    """Fold playthroughs into a complete performance table.

    Every (agent, problem) pair yields a win-rate cell and a score
    cell.  An agent missing some problem entirely is a completeness
    error unless ``allow_missing`` is set, in which case agents lacking
    full coverage are dropped (with a warning).
    """
    names, width = records.names, len(records.names)
    agents = np.frombuffer(records.agents, np.intc)
    problems = np.frombuffer(records.problems, np.intc)
    # columns filled by hand are checked, since a bad code or win byte
    # would otherwise aggregate silently into wrong cells
    lengths = {len(agents), len(problems), len(records.scores), len(records.wins)}
    if len(lengths) > 1:
        raise InputError(f"Playthroughs columns differ in length: {sorted(lengths)}")
    if not len(records):
        raise InputError("no records to aggregate")
    if len(set(names)) < width:
        repeated = sorted({n for n in names if names.count(n) > 1})
        raise InputError(f"Playthroughs names repeat a name: {_first_eight(repeated)}")
    for role, column in (("agent", agents), ("problem", problems)):
        if column.min() < 0 or column.max() >= width:
            raise InputError(f"a Playthroughs {role} code lies outside [0, {width})")
    if np.frombuffer(records.wins, np.uint8).max() > 1:
        raise InputError("a Playthroughs win byte is neither 0 nor 1")
    # one int64 code per (agent, problem) cell; sorted, each cell is one run
    codes = np.multiply(agents, width, dtype=np.int64)
    codes += problems
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
    cell_agents, cell_problems = np.divmod(codes[starts], width)  # one per cell, from here on
    wins = np.add.reduceat(np.frombuffer(records.wins, np.uint8)[order], starts, dtype=np.int64)
    scores = np.frombuffer(records.scores)[order]
    del order, codes
    # agents and problems in name order, and each cell's run at its place
    # in the agents x problems grid; -1 marks a pair without playthroughs
    agent_codes = sorted(np.unique(cell_agents).tolist(), key=names.__getitem__)
    problem_codes = sorted(np.unique(cell_problems).tolist(), key=names.__getitem__)
    rank = np.empty(width, np.intp)
    rank[agent_codes] = np.arange(len(agent_codes))
    cell_agents = rank[cell_agents]
    rank[problem_codes] = np.arange(len(problem_codes))
    runs = np.full((len(agent_codes), len(problem_codes)), -1, np.intp)
    runs[cell_agents, rank[cell_problems]] = np.arange(len(starts))
    agents = [names[c] for c in agent_codes]
    problems = [names[c] for c in problem_codes]
    gaps = runs < 0
    if gaps.any():
        if not allow_missing:
            missing = [(agents[a], problems[p]) for a, p in np.argwhere(gaps).tolist()]
            raise CompletenessError(
                f"{len(missing)} agent-problem pair(s) have no playthroughs: "
                + _first_eight([f"({a}, {p})" for a, p in missing]),
                missing,
            )
        covered = ~gaps.any(axis=1)
        dropped = list(compress(agents, ~covered))
        warnings.warn(
            f"dropping {len(dropped)} agent(s) lacking full problem coverage: "
            f"{_first_eight(dropped)}",
            stacklevel=2,
        )
        agents = list(compress(agents, covered))
        runs = runs[covered]
        if not agents:
            raise InputError("no agent covers every problem")

    # the table's columns, row by row in (agent, key) order; a problem's
    # score key sorts before its win key
    keys = [(MetricKey(p, Measure.SCORE), MetricKey(p, Measure.WIN_RATE)) for p in problems]
    bounds, wins = [*starts.tolist(), len(records)], wins.tolist()
    means, stddevs, counts = array("d"), array("d"), array("q")
    for agent, agent_runs in zip(agents, runs.tolist()):
        for (score_key, _), run in zip(keys, agent_runs):
            start, end = bounds[run], bounds[run + 1]
            try:
                score = _gaussian_stat(scores[start:end].tolist())
            except OverflowError:
                raise InputError(
                    f"{_cell_name(agent, *score_key)} values are too large to "
                    "summarise in floating point"
                ) from None
            for mean, stddev, count in (score, _win_stat(wins[run], end - start)):
                means.append(mean)
                stddevs.append(stddev)
                counts.append(count)
    row_agents = [agent for agent in agents for _ in range(2 * len(problems))]
    row_keys = [key for cell_keys in keys for key in cell_keys] * len(agents)
    return PerformanceTable.from_columns(row_agents, row_keys, means, stddevs, counts, sigma_floor)


# ---------------------------------------------------------------------------
# Aggregated-stats files: CSV `agent,problem,measure,mean,stddev,count`
# and an equivalent JSON document.
# ---------------------------------------------------------------------------


def _stats_rows(table: PerformanceTable):
    keys = [(k.problem, k.measure.value) for k in table.keys]
    # one agent's row of Python numbers at a time
    for agent, means, stddevs, counts in zip(
        table.agents, table.means, table.stddevs, table.counts
    ):
        for (problem, measure), mean, stddev, count in zip(
            keys, means.tolist(), stddevs.tolist(), counts.tolist()
        ):
            yield agent, problem, measure, mean, stddev, count


def write_csv(stream: IO[str], header: Iterable[str], rows: Iterable[Iterable]) -> None:
    """Write ``header`` and ``rows`` in the one dialect of every CSV the
    tool writes: ``csv.writer``'s, lines ending in ``"\n"``."""
    w = csv.writer(stream, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)


def write_stats_csv(table: PerformanceTable, stream: IO[str]) -> None:
    write_csv(stream, STATS_HEADER, _stats_rows(table))


class _StatsCells:
    """A table's stats rows as JSON objects, each made as it is read, so
    that writing them never holds them all.  Each iteration starts
    afresh."""

    __slots__ = ("table",)

    def __init__(self, table: PerformanceTable) -> None:
        self.table = table

    def __iter__(self) -> Iterator[dict]:
        return (dict(zip(STATS_HEADER, row)) for row in _stats_rows(self.table))


def stats_json_document(table: PerformanceTable) -> dict:
    """The stats JSON document of ``table``.  Its ``cells`` is an
    iterable, not a list: ``canonical_json_pieces`` writes it a block of
    cells at a time."""
    return {
        "agents": list(table.agents),
        "problems": list(table.problems),
        "sigma_floor": table.sigma_floor,
        "cells": _StatsCells(table),
    }


def canonical_json_pieces(document) -> Iterator[str]:
    """The text of ``dumps_canonical_json(document)`` as consecutive
    pieces: each scalar's or flat container's text with the separator
    before it, except that a list's consecutive non-empty dicts of scalars
    are one piece per block of up to ``_FLAT_DICT_BLOCK``, and each
    closing bracket of a container of containers."""
    yield from _encode_json(document, "\n")
    yield "\n"


def dumps_canonical_json(document) -> str:
    """Canonical JSON text, the join of ``canonical_json_pieces``: the
    text of ``json.dumps(document, indent=2, sort_keys=True,
    allow_nan=False)`` and a newline.  A dict that holds a container must
    have ``str`` keys, as every document written here does.

    Emitted files re-serialize byte-identically after a parse round
    trip.
    """
    return "".join(canonical_json_pieces(document))


_JSON_SCALARS = (str, int, float, type(None))
# dicts of scalars in a list are encoded this many at a time: a block of
# 128 stats.json cells traces about 0.2 MiB, and larger blocks are no faster
_FLAT_DICT_BLOCK = 128


@functools.cache
def _flat_json(newline: str) -> Callable[[object], str]:
    """JSON text of a scalar, or of a container of scalars laid out as
    ``indent=2`` lays out its items on lines starting with ``newline``
    but without its brackets' own line breaks.

    This is the C encoder's one-line text, with the newline and indent
    in the item separator: the encoder writes that separator only
    between items, and ASCII escaping leaves no raw newline in a string.
    """
    return json.JSONEncoder(
        sort_keys=True, allow_nan=False, check_circular=False, separators=("," + newline, ": ")
    ).encode


def _encode_json(value, newline: str, prefix: str = "") -> Iterator[str]:
    """Yield the ``indent=2`` JSON text of ``value``, whose first line
    starts with ``newline`` (a line break and the indent), after
    ``prefix``, the separator before it, held in its first piece.

    An iterable other than a dict, list, tuple or string is written as a
    list, one item or one block of dicts at a time, so rows made as they
    are read are never all held together."""
    if isinstance(value, dict):
        items = value.values()
    elif isinstance(value, (list, tuple)):
        items = value
    elif isinstance(value, _JSON_SCALARS):
        yield prefix + _flat_json(newline)(value)
        return
    else:
        items = None  # read once, as it is written
    inner = newline + "  "
    if items is not None and all(isinstance(item, _JSON_SCALARS) for item in items):
        text = _flat_json(inner)(value)
        # the C encoder's text lacks the line breaks just inside the brackets
        yield f"{prefix}{text[0]}{inner}{text[1:-1]}{newline}{text[-1]}" if items else prefix + text
    elif isinstance(value, dict):
        separator = prefix + "{" + inner
        for key in sorted(value):
            yield from _encode_json(value[key], inner, separator + encode_basestring_ascii(key) + ": ")
            separator = "," + inner
        yield newline + "}"
    else:
        separator = opening = prefix + "[" + inner
        for block in _dict_blocks(value):
            # a block of non-empty dicts of scalars is one encoder call;
            # the check runs in C
            if type(block[0]) is dict and all(block) and all(map(
                isinstance, chain.from_iterable(map(dict.values, block)), repeat(_JSON_SCALARS)
            )):
                yield separator + _flat_dicts_json(block, inner)
                separator = "," + inner
                continue
            for item in block:
                yield from _encode_json(item, inner, separator)
                separator = "," + inner
        # only a streamed list can be empty here
        yield newline + "]" if separator is not opening else prefix + "[]"


def _dict_blocks(items: Iterable) -> Iterator[list]:
    """``items`` as lists: consecutive dicts up to ``_FLAT_DICT_BLOCK`` at
    a time, and every other item alone."""
    for kind, run in groupby(items, type):
        if kind is dict:
            while block := list(islice(run, _FLAT_DICT_BLOCK)):
                yield block
        else:
            yield from ([item] for item in run)


def _flat_dicts_json(block: list[dict], newline: str) -> str:
    """The ``indent=2`` texts of consecutive non-empty dicts of scalars,
    each but the first after the item separator ``"," + newline``, from one
    C encoder call.

    The encoder writes ``}``, the item separator and ``{`` only between two
    dicts, since ASCII escaping leaves no raw newline in a string; each
    such break gains the line breaks just inside the brackets."""
    inner = newline + "  "
    text = _flat_json(inner)(block)[2:-2]  # without the list's and the outer dicts' brackets
    text = text.replace("}," + inner + "{", newline + "}," + newline + "{" + inner)
    return "{" + inner + text + newline + "}"


def read_stats_csv(stream: IO[str]) -> PerformanceTable:
    def rows():
        for line, fields in _csv_rows(stream, STATS_HEADER):
            agent, problem, measure, mean, stddev, count = map(str.strip, fields)
            try:
                row = agent, problem, measure, float(mean), float(stddev), int(count)
            except ValueError as exc:
                raise ParseError(str(exc), line) from None
            yield row

    return PerformanceTable.from_stats(rows())


def read_stats_json(stream: IO[str]) -> PerformanceTable:
    try:
        doc = json.load(stream)
    except (ValueError, RecursionError) as exc:  # bad syntax, too many digits, too deep
        raise InputError(f"bad stats JSON: {exc}")
    if not isinstance(doc, dict):
        raise InputError(f"bad stats JSON structure: top level is {type(doc).__name__}, not object")
    try:
        floor = float(_json_number(doc.get("sigma_floor", SIGMA_FLOOR_DEFAULT), "sigma_floor"))
        rows = [_json_stats_row(c) for c in doc["cells"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"bad stats JSON structure: {exc!r}")
    return PerformanceTable.from_stats(rows, floor)


def _json_number(value, name: str) -> int | float:
    # float() and int() would also take a bool or a numeric string
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a JSON number, got {value!r}")
    return value


def _json_stats_row(cell: dict) -> tuple[str, str, str, float, float, int]:
    ids = cell["agent"], cell["problem"], cell["measure"]
    if not all(isinstance(i, str) for i in ids):
        raise TypeError(f"agent, problem and measure must be strings, got {ids!r}")
    mean, stddev, count = (_json_number(cell[f], f) for f in ("mean", "stddev", "count"))
    if isinstance(count, float) and not count.is_integer():
        raise ValueError(f"count must be a whole number, got {count!r}")
    return (*ids, float(mean), float(stddev), int(count))


def load_stats(path: str | Path) -> PerformanceTable:
    """Read an aggregated-stats file, dispatching on the extension."""
    json_file = Path(path).suffix.lower() == ".json"
    return _read_text(path, read_stats_json if json_file else read_stats_csv)
