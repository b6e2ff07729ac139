"""Test-only ingest references.

``_csv_rows`` and ``parse_records`` are the playthrough reader the
package shipped before it stopped building a stripped field list per
row; ``gaussian_stat`` is the per-cell summary with its sum of squares
taken over a generator; ``generate`` is the synthetic corpus drawn into a
list of tuples, one cell at a time; ``write_playthroughs_csv`` is synth's
CSV written row by row by ``csv.writer``; ``aggregate`` folds such tuples into
a table with one dict entry per cell, filled row by row, and
``from_stats`` builds a table from stats rows the same way, checking and
flooring cell by cell.  The package's reader must return the same
records, or raise the same ``ParseError`` at the same line, its summary
must be bit-identical, its generator must draw the same records bit for
bit, synth's CSV must be the same bytes, and its aggregate and table
build must give the same table, warnings and errors.
"""

import csv
import math
import warnings
from itertools import product, repeat
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from infobench.errors import CompletenessError, InputError, ParseError
from infobench.perf import (
    _MAX_COUNT,
    _WIN_TOKENS,
    _XML_FORBIDDEN,
    SIGMA_FLOOR_DEFAULT,
    Measure,
    MetricKey,
    PLAYTHROUGH_HEADER,
    PerformanceTable,
    Playthroughs,
    _cell_name,
    _first_eight,
    _gaussian_stat,
)
from infobench.synth import SynthSpec, _archetype_params


def _csv_rows(stream: IO[str], header: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line, stripped fields)`` for each non-empty data row of a
    headed CSV.

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
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"expected {len(header)} fields, got {len(row)}", reader.line_num
                )
            yield reader.line_num, [f.strip() for f in row]
    except csv.Error as exc:
        raise ParseError(str(exc), reader.line_num) from None


def parse_records(stream: IO[str]) -> list[tuple[str, str, float, bool]]:
    """Parse a playthrough CSV into ``(agent, problem, score, win)`` tuples,
    preserving file order.

    The header must be exactly ``agent,problem,score,win``.  Win tokens
    accept 0/1, true/false and win/lose, case-insensitively.  Errors
    name the offending 1-based line (header = line 1).
    """
    records = []
    for line, (agent, problem, score_text, win_text) in _csv_rows(stream, PLAYTHROUGH_HEADER):
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
        records.append((agent, problem, score, win))
    return records


def gaussian_stat(values: Sequence[float]) -> tuple[float, float, int]:
    """Mean, sample stddev and count; the stddev of a single value is 0.0."""
    # math.fsum is exactly rounded, so the result does not depend on the
    # order the values arrived in.
    n = len(values)
    mean = math.fsum(values) / n
    ssd = math.fsum((v - mean) ** 2 for v in values)
    return mean, math.sqrt(ssd / (n - 1)) if n > 1 else 0.0, n


def generate(spec: SynthSpec) -> list[tuple[str, str, float, bool]]:
    """Draw every ``(agent, problem, score, win)`` playthrough for a spec;
    byte-identical per seed.

    Draw order is fixed: problems outermost, then agents, and for each
    cell the win outcomes before the scores.  A gap or sigma so large
    that a mean or a drawn score leaves the float range is an
    ``InputError``.
    """
    rng = np.random.default_rng(spec.seed)
    records: list[tuple[str, str, float, bool]] = []
    m = spec.samples_per_cell
    for problem, arch in zip(spec.problem_names, spec.archetypes):
        mu, sigma, p = _archetype_params(arch, spec.agents)
        for a_idx, agent in enumerate(spec.agent_names):
            wins = rng.random(m) < p[a_idx]
            scores = rng.normal(mu[a_idx], sigma, m)
            if not np.isfinite(scores).all():
                raise InputError(
                    f"({agent}, {problem}): a score mean or draw is not finite; "
                    "gap or sigma is too large for floating point"
                )
            records.extend(zip(repeat(agent), repeat(problem), scores.tolist(), wins.tolist()))
    return records


def write_playthroughs_csv(records: Playthroughs, stream: IO[str]) -> None:
    """A playthrough CSV of ``records`` written row by row by ``csv.writer``."""
    name = records.names.__getitem__
    w = csv.writer(stream, lineterminator="\n")
    w.writerow(PLAYTHROUGH_HEADER)
    w.writerows(zip(map(name, records.agents), map(name, records.problems), records.scores,
                    records.wins))


def aggregate(
    records: Iterable[tuple[str, str, float, bool]],
    sigma_floor: float = SIGMA_FLOOR_DEFAULT,
    allow_missing: bool = False,
) -> PerformanceTable:
    """Fold ``(agent, problem, score, win)`` playthroughs into a complete
    performance table.

    Every (agent, problem) pair yields a win-rate cell and a score
    cell.  An agent missing some problem entirely is a completeness
    error unless ``allow_missing`` is set, in which case agents lacking
    full coverage are dropped (with a warning).
    """
    # (agent, problem) -> [scores, number of wins]
    cells: dict[tuple[str, str], list] = {}
    for agent, problem, score, win in records:
        try:
            cell = cells[agent, problem]
        except KeyError:
            cell = cells[agent, problem] = [[], 0]
        cell[0].append(score)
        if win:
            cell[1] += 1
    if not cells:
        raise InputError("no records to aggregate")

    agents = sorted({a for a, _ in cells})
    problems = sorted({p for _, p in cells})
    missing = [(a, p) for a in agents for p in problems if (a, p) not in cells]
    if missing:
        if not allow_missing:
            raise CompletenessError(
                f"{len(missing)} agent-problem pair(s) have no playthroughs: "
                + _first_eight([f"({a}, {p})" for a, p in missing]),
                missing,
            )
        dropped = {a for a, _ in missing}
        warnings.warn(
            f"dropping {len(dropped)} agent(s) lacking full problem coverage: "
            f"{_first_eight(sorted(dropped))}",
            stacklevel=2,
        )
        agents = [a for a in agents if a not in dropped]
        if not agents:
            raise InputError("no agent covers every problem")

    rows = []
    for a in agents:
        for p in problems:
            scores, wins = cells[a, p]
            outcomes = [1.0] * wins + [0.0] * (len(scores) - wins)
            for measure, values in zip((Measure.SCORE, Measure.WIN_RATE), (scores, outcomes)):
                try:
                    rows.append((a, p, measure, *_gaussian_stat(values)))
                except OverflowError:
                    raise InputError(
                        f"{_cell_name(a, p, measure)} values are too large to "
                        "summarise in floating point"
                    ) from None
    return PerformanceTable.from_stats(rows, sigma_floor)


def from_stats(
    rows: Iterable[tuple[str, str, str, float, float, int]],
    sigma_floor: float = SIGMA_FLOOR_DEFAULT,
) -> PerformanceTable:
    """Build a table from ``(agent, problem, measure, mean, stddev, count)``
    rows with one dict entry per cell, checked and floored cell by cell."""
    if not (sigma_floor > 0 and math.isfinite(sigma_floor)):
        raise InputError(f"sigma_floor must be positive and finite, got {sigma_floor}")
    cells: dict[tuple[str, MetricKey], tuple[float, float, int]] = {}
    keys_seen: dict[tuple[str, str], MetricKey] = {}
    for agent, problem, measure, mean, stddev, count in rows:
        key = keys_seen.get((problem, measure))
        if key is None:
            key = keys_seen[(problem, measure)] = MetricKey(problem, measure)
        if (agent, key) in cells:
            raise InputError(
                f"duplicate stats row for cell {_cell_name(agent, problem, key.measure)}"
            )
        cells[(agent, key)] = (mean, stddev, count)
    if not cells:
        raise InputError("no cells given")
    agents = tuple(sorted({a for a, _ in cells}))
    keys = tuple(sorted({k for _, k in cells}))
    for a, k in cells:
        if not (a.strip() and k.problem.strip()):
            raise InputError(f"cell {_cell_name(a, *k)!r} has an empty or blank name")
        bad = _XML_FORBIDDEN.search(a + k.problem)
        if bad:
            raise InputError(
                f"cell {_cell_name(a, *k)!r} has a name holding "
                f"U+{ord(bad.group()):04X}, a character XML 1.0 forbids"
            )
    missing = [(a, k) for a in agents for k in keys if (a, k) not in cells]
    if missing:
        shown = _first_eight([_cell_name(a, *k) for a, k in missing])
        raise CompletenessError(
            f"incomplete table, {len(missing)} missing cell(s): {shown}", missing
        )
    grid = [cells[(a, k)] for a in agents for k in keys]
    single, sub_floor = [], []
    for (a, k), (mean, stddev, count) in zip(product(agents, keys), grid):
        if not (math.isfinite(mean) and math.isfinite(stddev)):
            fault = "non-finite stat for cell {}"
        elif stddev < 0:
            fault = "negative stddev for cell {}"
        elif count < 1:
            fault = f"cell {{}} has count {count} < 1"
        elif count > _MAX_COUNT:
            fault = f"cell {{}} has count {count}, above {_MAX_COUNT}"
        else:
            if count == 1 or stddev < sigma_floor:
                (single if count == 1 else sub_floor).append(_cell_name(a, *k))
            continue
        raise InputError(fault.format(_cell_name(a, *k)))
    for labels, reason in (
        (single, "with a single playthrough; no sample stddev, so at least the floor"),
        (sub_floor, "with zero or sub-floor variance; stddev set to the floor"),
    ):
        if labels:
            warnings.warn(
                f"{len(labels)} cell(s) {reason} ({sigma_floor:g}): {_first_eight(labels)}",
                stacklevel=2,
            )
    shape = (len(agents), len(keys))
    means, stds, counts = zip(*grid)
    return PerformanceTable(
        agents,
        keys,
        np.array(means, dtype=float).reshape(shape),
        np.maximum(np.array(stds, dtype=float), sigma_floor).reshape(shape),
        np.array(counts, dtype=np.int64).reshape(shape),
        sigma_floor,
    )
