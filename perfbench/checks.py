"""Output checks for the benchmark, independent of `infobench`.

Every check recomputes or cross-checks an output file with numpy and the
standard library only, and returns a list of human-readable problems (an
empty list means the output passed).  Nothing here imports `infobench`, so
a bug in the program cannot hide itself by also breaking its checker.
"""

from __future__ import annotations

import csv
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

SIGMA_FLOOR = 1e-9  # the CLI default sigma floor
EPS_GAIN = 1e-9  # the CLI default gain resolution
REL_TOL = 1e-12
# Pearson r of near-duplicate problems may round to just above 1.
R_SLACK = 1e-12

SVG_RECT = "{http://www.w3.org/2000/svg}rect"


def _read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, [])
        return header, [row for row in reader if row]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def read_stats(path: Path) -> dict[tuple[str, str, str], tuple[float, float, int]]:
    """(agent, problem, measure) -> (mean, stddev, count) from a stats CSV."""
    header, rows = _read_rows(path)
    if header != ["agent", "problem", "measure", "mean", "stddev", "count"]:
        raise ValueError(f"{path.name}: bad header {header}")
    cells = {}
    for agent, problem, measure, mean, sd, count in rows:
        cells[(agent, problem, measure)] = (float(mean), float(sd), int(count))
    return cells


def table_shape(cells) -> tuple[list[str], list[str]]:
    agents = sorted({a for a, _, _ in cells})
    problems = sorted({p for _, p, _ in cells})
    return agents, problems


def check_ingest(playthroughs: Path, stats: Path) -> list[str]:
    """Recompute each cell's mean and n-1 stddev (floored) from the raw rows."""
    header, rows = _read_rows(playthroughs)
    if header != ["agent", "problem", "score", "win"]:
        return [f"{playthroughs.name}: unexpected header {header}"]
    cols = list(zip(*rows))
    cell_names = np.array([f"{a},{p}" for a, p in zip(cols[0], cols[1])])
    scores = np.array(cols[2], dtype=float)
    wins = np.array([w.strip().lower() in ("1", "true", "win") for w in cols[3]], dtype=float)
    names, code = np.unique(cell_names, return_inverse=True)
    order = np.argsort(code, kind="stable")
    bounds = np.flatnonzero(np.diff(code[order])) + 1

    expected = {}
    for name, idx in zip(names, np.split(order, bounds)):
        agent, problem = name.split(",")
        for measure, values in (("score", scores[idx]), ("win", wins[idx])):
            n = len(values)
            mean = math.fsum(values.tolist()) / n
            if n < 2:
                sd = SIGMA_FLOOR
            else:
                ssd = math.fsum(((values - mean) ** 2).tolist())
                sd = max(math.sqrt(ssd / (n - 1)), SIGMA_FLOOR)
            expected[(agent, problem, measure)] = (mean, sd, n)

    got = read_stats(stats)
    errors = []
    if set(got) != set(expected):
        errors.append(f"stats.csv has {len(got)} cells, the playthroughs give {len(expected)}")
    for key in sorted(set(got) & set(expected)):
        (m1, s1, n1), (m2, s2, n2) = got[key], expected[key]
        if n1 != n2 or not _close(m1, m2) or not _close(s1, s2):
            errors.append(f"stats.csv cell {key}: got {got[key]}, recomputed {expected[key]}")
            if len(errors) >= 5:
                break
    return errors


def read_gains(path: Path) -> dict[str, tuple[float, float, float]]:
    header, rows = _read_rows(path)
    if header != ["problem", "win_bits", "score_bits", "combined_bits"]:
        raise ValueError(f"{path.name}: bad header {header}")
    return {r[0]: (float(r[1]), float(r[2]), float(r[3])) for r in rows}


def check_info_gain(info_gain: Path, agents: list[str], problems: list[str]) -> list[str]:
    """Every gain finite and in [0, log2 n]; rows sorted by combined gain."""
    header, rows = _read_rows(info_gain)
    if header != ["problem", "win_bits", "score_bits", "combined_bits"]:
        return [f"info_gain.csv: bad header {header}"]
    errors = []
    names = [r[0] for r in rows]
    if sorted(names) != problems:
        errors.append("info_gain.csv does not list every problem exactly once")
    ceiling = math.log2(len(agents))
    for r in rows:
        for v in map(float, r[1:]):
            if not (math.isfinite(v) and 0.0 <= v <= ceiling):
                errors.append(f"info_gain.csv {r[0]}: gain {v!r} outside [0, {ceiling}]")
    ranked = [(-float(r[3]), r[0]) for r in rows]
    if ranked != sorted(ranked):
        errors.append("info_gain.csv rows are not sorted by combined gain")
    return errors


def check_select(out_dir: Path, k: int, problems: list[str]) -> list[str]:
    """Marginals telescope, picks are distinct, k picks or a stop reason, and
    the first pick is the top combined gain (to the gain resolution)."""
    header, rows = _read_rows(out_dir / "selection.csv")
    if header != ["rank", "problem", "marginal_bits", "cumulative_bits"]:
        return [f"selection.csv: bad header {header}"]
    doc = json.loads((out_dir / "selection.json").read_text(encoding="utf-8"))
    errors = []
    picks = [r[1] for r in rows]
    if [int(r[0]) for r in rows] != list(range(1, len(rows) + 1)):
        errors.append("selection.csv ranks are not 1..k")
    if len(set(picks)) != len(picks) or not set(picks) <= set(problems):
        errors.append("selection.csv picks are not distinct known problems")
    if len(picks) != k and not (doc.get("stopped_early") and doc.get("stop_reason")):
        errors.append(f"selection.csv has {len(picks)} picks of {k} and no stop_reason")
    total = 0.0
    for r in rows:
        marginal, cumulative = float(r[2]), float(r[3])
        total += marginal
        if not marginal > EPS_GAIN or abs(total - cumulative) > REL_TOL:
            errors.append(f"selection.csv rank {r[0]}: marginals do not telescope")
            break
    if [s["problem"] for s in doc.get("steps", [])] != picks:
        errors.append("selection.json and selection.csv disagree")
    if rows and doc.get("mode") == "combined":
        gains = read_gains(out_dir / "info_gain.csv")
        first, best = float(rows[0][3]), max(g[2] for g in gains.values())
        if first != gains[picks[0]][2] or first < best - EPS_GAIN:
            errors.append(f"first pick {first!r} bits is not the top combined gain {best!r}")
    return errors


def count_svg_cells(path: Path) -> int:
    """Parse the SVG incrementally and count its heatmap cells."""
    cells = 0
    for _, elem in ET.iterparse(path, events=("end",)):
        if elem.tag == SVG_RECT and elem.get("class") == "cell":
            cells += 1
        elem.clear()
    return cells


def check_correlate(out_dir: Path, problems: list[str]) -> list[str]:
    """Symmetric matrix, unit or null diagonal, |r| <= 1, a partition into
    clusters plus excluded problems, and a P^2-cell SVG per measure."""
    errors = []
    p = len(problems)
    for measure in ("win", "score"):
        header, rows = _read_rows(out_dir / f"correlation_{measure}.csv")
        names = header[1:]
        if sorted(names) != problems or [r[0] for r in rows] != names:
            errors.append(f"correlation_{measure}.csv: rows/columns are not the problems")
            continue
        r = np.array([[float(v) if v else np.nan for v in row[1:]] for row in rows])
        null = np.isnan(r)
        diag = np.diagonal(r)
        if not np.array_equal(null, null.T):
            errors.append(f"correlation_{measure}.csv: null entries are not symmetric")
        elif np.nanmax(np.abs(r - r.T), initial=0.0) > REL_TOL:
            errors.append(f"correlation_{measure}.csv: matrix is not symmetric")
        if not np.all(np.isnan(diag) | (diag == 1.0)):
            errors.append(f"correlation_{measure}.csv: diagonal is not 1 or null")
        if np.nanmax(np.abs(r), initial=0.0) > 1.0 + R_SLACK:
            errors.append(f"correlation_{measure}.csv: |r| exceeds 1")

        doc = json.loads((out_dir / f"correlation_{measure}.json").read_text(encoding="utf-8"))
        members = [q for c in doc["clusters"] for q in c] + doc["no_correlation_measure"]
        if sorted(members) != problems:
            errors.append(f"correlation_{measure}.json: clusters do not partition the problems")
        excluded = {q for q, d in zip(names, diag) if np.isnan(d)}
        if set(doc["no_correlation_measure"]) != excluded:
            errors.append(f"correlation_{measure}.json: excluded set disagrees with the matrix")
        _, assigned = _read_rows(out_dir / f"clusters_{measure}.csv")
        want = {q: str(i) for i, c in enumerate(doc["clusters"], start=1) for q in c}
        want.update({q: "" for q in excluded})
        if dict(assigned) != want or len(assigned) != p:
            errors.append(f"clusters_{measure}.csv disagrees with correlation_{measure}.json")

        try:
            cells = count_svg_cells(out_dir / f"heatmap_{measure}.svg")
        except ET.ParseError as exc:
            errors.append(f"heatmap_{measure}.svg does not parse: {exc}")
            continue
        if cells != p * p:
            errors.append(f"heatmap_{measure}.svg has {cells} cells, expected {p * p}")
    return errors


def check_outputs(playthroughs: Path | None, stats: Path, out_dir: Path, k: int,
                  steps: list[str]) -> dict[str, list[str]]:
    """Run every check that applies; map each step name to its problems.

    An output that cannot be read at all (missing file, wrong layout) is a
    problem of the step that should have written it.
    """
    found: dict[str, list[str]] = {}

    def run(step, fn, *args):
        try:
            found[step] = fn(*args)
        except (OSError, ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
            found[step] = [f"{step} output unreadable: {exc!r}"]

    if "ingest" in steps:
        run("ingest", check_ingest, playthroughs, stats)
    try:
        agents, problems = table_shape(read_stats(stats))
    except (OSError, ValueError) as exc:
        return {s: found.get(s, []) + [f"stats unreadable: {exc!r}"] for s in steps}
    run("info-gain", check_info_gain, out_dir / "info_gain.csv", agents, problems)
    run("select", check_select, out_dir, k, problems)
    run("correlate", check_correlate, out_dir, problems)
    return found
