"""Playthrough ingestion and the Gaussian performance table.

A playthrough log is a CSV of ``agent,problem,score,win`` rows.  Each
(agent, problem) pair is summarised by two metric cells: the win rate
(mean of the 0/1 outcomes) and the score, both modelled as Gaussians
with a sample mean, a Bessel-corrected sample standard deviation and a
sample count.  Standard deviations are floored at ``sigma_floor`` so
deterministic cells (e.g. an agent that always wins) never produce a
zero noise scale downstream.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .errors import CompletenessError, InputError, ParseError

SIGMA_FLOOR_DEFAULT = 1e-9

_WIN_TOKENS = {
    "1": True,
    "true": True,
    "win": True,
    "0": False,
    "false": False,
    "lose": False,
}

_EXPECTED_HEADER = ("agent", "problem", "score", "win")


class Measure(str, Enum):
    """The two performance signals a playthrough yields."""

    WIN_RATE = "win"
    SCORE = "score"


class MetricKey(tuple):
    """A (problem, measure) pair naming one column of the table."""

    __slots__ = ()

    def __new__(cls, problem: str, measure: Measure):
        return super().__new__(cls, (problem, Measure(measure)))

    @property
    def problem(self) -> str:
        return self[0]

    @property
    def measure(self) -> Measure:
        return self[1]

    def __repr__(self) -> str:
        return f"MetricKey({self.problem!r}, {self.measure.value!r})"


@dataclass(frozen=True)
class PlaythroughRecord:
    """One evaluation outcome: which agent played which problem, and how it went."""

    agent: str
    problem: str
    score: float
    win: bool

    def __post_init__(self):
        if not self.agent or not self.problem:
            raise ValueError("agent and problem identifiers must be non-empty")
        if not math.isfinite(self.score):
            raise ValueError(f"score must be finite, got {self.score!r}")


@dataclass(frozen=True)
class PerformanceStat:
    """Gaussian summary of one (agent, metric) cell."""

    mean: float
    stddev: float
    count: int


def parse_records(stream: IO[str]) -> list[PlaythroughRecord]:
    """Parse a playthrough CSV into records, preserving file order.

    The header must be exactly ``agent,problem,score,win``.  Win tokens
    accept 0/1, true/false and win/lose, case-insensitively.  Errors
    name the offending 1-based line (header = line 1).
    """
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty file, expected header 'agent,problem,score,win'", 1)
    if tuple(h.strip().lower() for h in header) != _EXPECTED_HEADER:
        raise ParseError(
            f"bad header {','.join(header)!r}, expected 'agent,problem,score,win'", 1
        )

    records: list[PlaythroughRecord] = []
    for row in reader:
        line = reader.line_num
        if not row:
            continue
        if len(row) != 4:
            raise ParseError(f"expected 4 fields, got {len(row)}", line)
        agent, problem, score_text, win_text = (f.strip() for f in row)
        if not agent:
            raise ParseError("empty agent identifier", line)
        if not problem:
            raise ParseError("empty problem identifier", line)
        try:
            score = float(score_text)
        except ValueError:
            raise ParseError(f"unparseable score {score_text!r}", line)
        if not math.isfinite(score):
            raise ParseError(f"non-finite score {score_text!r}", line)
        win = _WIN_TOKENS.get(win_text.lower())
        if win is None:
            raise ParseError(
                f"bad win value {win_text!r} (expected 0/1, true/false or win/lose)",
                line,
            )
        records.append(PlaythroughRecord(agent, problem, score, win))
    return records


def parse_records_path(path: str | Path) -> list[PlaythroughRecord]:
    # utf-8-sig drops the byte-order mark that spreadsheet exports prepend
    with open(path, newline="", encoding="utf-8-sig") as f:
        return parse_records(f)


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
    _agent_index: dict = field(repr=False, default_factory=dict)
    _key_index: dict = field(repr=False, default_factory=dict)

    def __post_init__(self):
        for arr in (self.means, self.stddevs, self.counts):
            arr.setflags(write=False)
        self._agent_index.update({a: i for i, a in enumerate(self.agents)})
        self._key_index.update({k: i for i, k in enumerate(self.keys)})

    @classmethod
    def from_stats(
        cls,
        cells: Mapping[tuple[str, MetricKey], PerformanceStat],
        sigma_floor: float = SIGMA_FLOOR_DEFAULT,
    ) -> "PerformanceTable":
        """Build a table from per-cell stats, enforcing completeness.

        Every agent appearing anywhere must have a stat for every key
        appearing anywhere; standard deviations are floored here.
        """
        if not cells:
            raise InputError("no cells given")
        agents = tuple(sorted({a for a, _ in cells}))
        keys = tuple(sorted({k for _, k in cells}))
        missing = [
            (a, k) for a in agents for k in keys if (a, k) not in cells
        ]
        if missing:
            shown = ", ".join(
                f"({a!s}, {k.problem}/{k.measure.value})" for a, k in missing[:8]
            )
            more = "" if len(missing) <= 8 else f" and {len(missing) - 8} more"
            raise CompletenessError(
                f"incomplete table, {len(missing)} missing cell(s): {shown}{more}",
                missing,
            )
        n, m = len(agents), len(keys)
        means = np.empty((n, m))
        stds = np.empty((n, m))
        counts = np.empty((n, m), dtype=np.int64)
        for i, a in enumerate(agents):
            for j, k in enumerate(keys):
                stat = cells[(a, k)]
                label = f"({a}, {k.problem}/{k.measure.value})"
                if not math.isfinite(stat.mean) or not math.isfinite(stat.stddev):
                    raise InputError(f"non-finite stat for cell {label}")
                if stat.stddev < 0:
                    raise InputError(f"negative stddev for cell {label}")
                if stat.count < 1:
                    raise InputError(f"cell {label} has count {stat.count} < 1")
                means[i, j] = stat.mean
                stds[i, j] = max(stat.stddev, sigma_floor)
                counts[i, j] = stat.count
        return cls(agents, keys, means, stds, counts, sigma_floor)

    @property
    def problems(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for k in self.keys:
            seen.setdefault(k.problem, None)
        return tuple(seen)

    def agent_index(self, agent: str) -> int:
        try:
            return self._agent_index[agent]
        except KeyError:
            raise CompletenessError(f"unknown agent {agent!r}")

    def key_index(self, key: MetricKey) -> int:
        try:
            return self._key_index[key]
        except KeyError:
            raise CompletenessError(
                f"no cell for problem {key.problem!r} measure {key.measure.value!r}"
            )

    def stat(self, agent: str, key: MetricKey) -> PerformanceStat:
        i, j = self.agent_index(agent), self.key_index(key)
        return PerformanceStat(
            float(self.means[i, j]), float(self.stddevs[i, j]), int(self.counts[i, j])
        )

    def column(self, key: MetricKey) -> tuple[np.ndarray, np.ndarray]:
        """Per-agent (means, stddevs) for one metric key, in agent order."""
        j = self.key_index(key)
        return self.means[:, j], self.stddevs[:, j]


def _gaussian_stat(
    values: Sequence[float], sigma_floor: float, label: str
) -> PerformanceStat:
    # math.fsum is exactly rounded, so the result does not depend on the
    # order the values arrived in.
    n = len(values)
    try:
        mean = math.fsum(values) / n
        ssd = math.fsum((v - mean) ** 2 for v in values)
    except OverflowError:
        raise InputError(f"{label} values are too large to summarise in floating point") from None
    if n < 2:
        warnings.warn(
            f"single playthrough for {label}; stddev set to the floor "
            f"({sigma_floor:g})",
            stacklevel=3,
        )
        return PerformanceStat(mean, sigma_floor, n)
    stddev = max(math.sqrt(ssd / (n - 1)), sigma_floor)
    return PerformanceStat(mean, stddev, n)


def aggregate(
    records: Iterable[PlaythroughRecord],
    sigma_floor: float = SIGMA_FLOOR_DEFAULT,
    allow_missing: bool = False,
) -> PerformanceTable:
    """Fold playthrough records into a complete performance table.

    Every (agent, problem) pair yields a win-rate cell and a score
    cell.  An agent missing some problem entirely is a completeness
    error unless ``allow_missing`` is set, in which case agents lacking
    full coverage are dropped (with a warning).
    """
    scores: dict[tuple[str, str], list[float]] = {}
    wins: dict[tuple[str, str], list[float]] = {}
    for r in records:
        cell = (r.agent, r.problem)
        scores.setdefault(cell, []).append(r.score)
        wins.setdefault(cell, []).append(1.0 if r.win else 0.0)
    if not scores:
        raise InputError("no records to aggregate")

    agents = sorted({a for a, _ in scores})
    problems = sorted({p for _, p in scores})
    missing = [(a, p) for a in agents for p in problems if (a, p) not in scores]
    if missing:
        if not allow_missing:
            shown = ", ".join(f"({a}, {p})" for a, p in missing[:8])
            more = "" if len(missing) <= 8 else f" and {len(missing) - 8} more"
            raise CompletenessError(
                f"{len(missing)} agent-problem pair(s) have no playthroughs: "
                f"{shown}{more}",
                missing,
            )
        dropped = sorted({a for a, _ in missing})
        warnings.warn(
            f"dropping {len(dropped)} agent(s) lacking full problem coverage: "
            f"{', '.join(dropped)}",
            stacklevel=2,
        )
        agents = [a for a in agents if a not in set(dropped)]
        if not agents:
            raise InputError("no agent covers every problem")

    cells: dict[tuple[str, MetricKey], PerformanceStat] = {}
    for a in agents:
        for p in problems:
            cells[(a, MetricKey(p, Measure.SCORE))] = _gaussian_stat(
                scores[(a, p)], sigma_floor, f"({a}, {p}) score"
            )
            cells[(a, MetricKey(p, Measure.WIN_RATE))] = _gaussian_stat(
                wins[(a, p)], sigma_floor, f"({a}, {p}) win"
            )
    return PerformanceTable.from_stats(cells, sigma_floor)


# ---------------------------------------------------------------------------
# Aggregated-stats files: CSV `agent,problem,measure,mean,stddev,count`
# and an equivalent JSON document.
# ---------------------------------------------------------------------------

STATS_HEADER = ("agent", "problem", "measure", "mean", "stddev", "count")


def _stats_rows(table: PerformanceTable):
    for i, a in enumerate(table.agents):
        for j, k in enumerate(table.keys):
            yield (
                a,
                k.problem,
                k.measure.value,
                float(table.means[i, j]),
                float(table.stddevs[i, j]),
                int(table.counts[i, j]),
            )


def write_stats_csv(table: PerformanceTable, stream: IO[str]) -> None:
    w = csv.writer(stream, lineterminator="\n")
    w.writerow(STATS_HEADER)
    for agent, problem, measure, mean, stddev, count in _stats_rows(table):
        w.writerow([agent, problem, measure, repr(mean), repr(stddev), count])


def stats_json_document(table: PerformanceTable) -> dict:
    return {
        "agents": list(table.agents),
        "problems": list(table.problems),
        "sigma_floor": table.sigma_floor,
        "cells": [
            {
                "agent": agent,
                "problem": problem,
                "measure": measure,
                "mean": mean,
                "stddev": stddev,
                "count": count,
            }
            for agent, problem, measure, mean, stddev, count in _stats_rows(table)
        ],
    }


def dumps_canonical_json(document) -> str:
    """Canonical JSON text: sorted keys, 2-space indent, trailing newline.

    Emitted files re-serialize byte-identically after a parse round
    trip.
    """
    return json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _cells_from_row_iter(rows, sigma_floor) -> PerformanceTable:
    cells: dict[tuple[str, MetricKey], PerformanceStat] = {}
    for agent, problem, measure, mean, stddev, count in rows:
        key = (agent, MetricKey(problem, Measure(measure)))
        if key in cells:
            raise InputError(
                f"duplicate stats row for agent {agent!r}, "
                f"problem {problem!r}, measure {measure!r}"
            )
        cells[key] = PerformanceStat(mean, stddev, count)
    return PerformanceTable.from_stats(cells, sigma_floor)


def read_stats_csv(
    stream: IO[str], sigma_floor: float = SIGMA_FLOOR_DEFAULT
) -> PerformanceTable:
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise InputError("empty stats file")
    if tuple(h.strip().lower() for h in header) != STATS_HEADER:
        raise InputError(
            f"bad stats header {','.join(header)!r}, expected "
            f"{','.join(STATS_HEADER)!r}"
        )

    def rows():
        for row in reader:
            if not row:
                continue
            if len(row) != 6:
                raise InputError(
                    f"stats line {reader.line_num}: expected 6 fields, got {len(row)}"
                )
            agent, problem, measure, mean, stddev, count = (f.strip() for f in row)
            try:
                yield agent, problem, measure, float(mean), float(stddev), int(count)
            except ValueError as exc:
                raise InputError(f"stats line {reader.line_num}: {exc}")

    return _cells_from_row_iter(rows(), sigma_floor)


def read_stats_json(stream: IO[str]) -> PerformanceTable:
    try:
        doc = json.load(stream)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad stats JSON: {exc}")
    try:
        sigma_floor = float(doc.get("sigma_floor", SIGMA_FLOOR_DEFAULT))
        rows = [
            (
                c["agent"],
                c["problem"],
                c["measure"],
                float(c["mean"]),
                float(c["stddev"]),
                int(c["count"]),
            )
            for c in doc["cells"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad stats JSON structure: {exc!r}")
    return _cells_from_row_iter(rows, sigma_floor)


def load_stats(path: str | Path) -> PerformanceTable:
    """Read an aggregated-stats file, dispatching on the extension."""
    path = Path(path)
    with open(path, newline="", encoding="utf-8-sig") as f:
        if path.suffix.lower() == ".json":
            return read_stats_json(f)
        return read_stats_csv(f)
