"""Workload definitions: seeded input generators and the CLI command sequences.

Three workloads exercise the same `infobench` pipeline in different ways:

paper   `infobench synth` at paper scale (27 agents x 108 problems x 200
        samples, 583,200 rows), then ingest, info-gain, select, correlate.
        Ingest dominates; the archetypes separate so well that greedy stops
        at step 3.
stress  a stats CSV of 50 agents x 250 problems written here, then
        info-gain, select --k 20 and correlate.  No ingest step; greedy runs
        all 20 steps over ~250 candidates and each heatmap has 250^2 cells.
        (The ROADMAP's stress corpus has 500 problems; at that size one
        correlate takes ~9 s, too long to sample steadily within a run.)
wide    a playthrough CSV of 200 agents x 60 problems x 5 playthroughs
        written here, then ingest, info-gain, select --k 15, correlate.
        Ingest is per-cell overhead; greedy is n^2 work over few candidates.

The `stress` and `wide` generators use only numpy's seeded `default_rng`
and never import `infobench`, so a change to the program cannot change
their inputs.  `--smoke` shrinks every workload to a few seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

NAMES = ("paper", "stress", "wide")


@dataclass(frozen=True)
class Sizes:
    agents: int
    problems: int
    samples: int  # playthroughs per cell (paper, wide) or stats count (stress)
    k: int  # greedy selection size


FULL = {
    "paper": Sizes(27, 108, 200, 10),
    "stress": Sizes(50, 250, 200, 20),
    "wide": Sizes(200, 60, 5, 15),
}

SMOKE = {
    "paper": Sizes(5, 8, 20, 3),
    "stress": Sizes(8, 24, 50, 5),
    "wide": Sizes(12, 6, 5, 4),
}


@dataclass(frozen=True)
class Step:
    """One CLI invocation: its name and the arguments after `infobench`."""

    name: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: Sizes
    steps: tuple[Step, ...]
    playthroughs: Path | None  # playthrough CSV that ingest reads
    stats: Path  # stats CSV the analysis commands read
    rows: int  # playthrough rows (paper, wide) or stats rows (stress)


def _agent_names(n: int) -> list[str]:
    return [f"agent{i:03d}" for i in range(n)]


def _problem_names(n: int) -> list[str]:
    return [f"prob{i:03d}" for i in range(n)]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def write_stress_stats(path: Path, sizes: Sizes, seed: int) -> int:
    """Weakly separated aggregated stats: agent ability x problem loading
    plus cell noise, score stddev about 1.  Returns the row count."""
    rng = np.random.default_rng(seed)
    n, p, count = sizes.agents, sizes.problems, sizes.samples
    ability = rng.normal(0.0, 1.0, n)
    loading = rng.uniform(0.2, 1.0, p)
    score_mean = 50.0 + np.outer(ability, loading) + rng.normal(0.0, 0.5, (n, p))
    score_sd = np.abs(rng.normal(1.0, 0.1, (n, p)))
    win_p = _sigmoid(0.8 * np.outer(ability, loading) + rng.normal(0.0, 0.3, (n, p)))
    wins = rng.binomial(count, win_p)
    win_mean = wins / count
    win_sd = np.sqrt(wins * (count - wins) / (count * (count - 1.0)))

    lines = ["agent,problem,measure,mean,stddev,count"]
    for i, agent in enumerate(_agent_names(n)):
        for j, problem in enumerate(_problem_names(p)):
            lines.append(
                f"{agent},{problem},score,{float(score_mean[i, j])!r},"
                f"{float(score_sd[i, j])!r},{count}"
            )
            lines.append(
                f"{agent},{problem},win,{float(win_mean[i, j])!r},"
                f"{float(win_sd[i, j])!r},{count}"
            )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines) - 1


def write_wide_playthroughs(path: Path, sizes: Sizes, seed: int) -> int:
    """Many agents, few problems, a handful of playthroughs per cell, in
    playthrough-major order so every cell is scattered through the file.
    Returns the row count."""
    rng = np.random.default_rng(seed)
    n, p, reps = sizes.agents, sizes.problems, sizes.samples
    ability = rng.normal(0.0, 1.0, n)
    loading = rng.uniform(0.2, 1.0, p)
    cell_mean = 50.0 + np.outer(ability, loading) + rng.normal(0.0, 0.5, (n, p))
    cell_win = _sigmoid(0.8 * np.outer(ability, loading) + rng.normal(0.0, 0.3, (n, p)))
    scores = cell_mean + rng.normal(0.0, 1.0, (reps, n, p))
    wins = rng.random((reps, n, p)) < cell_win

    agents, problems = _agent_names(n), _problem_names(p)
    lines = ["agent,problem,score,win"]
    for r in range(reps):
        for i, agent in enumerate(agents):
            for j, problem in enumerate(problems):
                lines.append(f"{agent},{problem},{float(scores[r, i, j])!r},{int(wins[r, i, j])}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines) - 1


def prepare(name: str, seed: int, input_dir: Path, out_dir: Path, smoke: bool) -> Workload:
    """Write the workload's generated input (if any) and return its plan.

    Output paths of every step point into `out_dir`; generated inputs go
    to `input_dir`.
    """
    sizes = (SMOKE if smoke else FULL)[name]
    input_dir.mkdir(parents=True, exist_ok=True)
    out = str(out_dir)

    if name == "paper":
        playthroughs = input_dir / "playthroughs.csv"
        stats = out_dir / "stats.csv"
        rows = sizes.agents * sizes.problems * sizes.samples
        steps = [
            Step("synth", ("synth", "--agents", str(sizes.agents), "--problems",
                           str(sizes.problems), "--samples", str(sizes.samples),
                           "--archetype", "mixed", "--seed", str(seed),
                           "--out", str(input_dir))),
            Step("ingest", ("ingest", "--input", str(playthroughs), "--out", out)),
        ]
    elif name == "stress":
        playthroughs = None
        stats = input_dir / "stats.csv"
        rows = write_stress_stats(stats, sizes, seed)
        steps = []
    elif name == "wide":
        playthroughs = input_dir / "playthroughs.csv"
        stats = out_dir / "stats.csv"
        rows = write_wide_playthroughs(playthroughs, sizes, seed)
        steps = [Step("ingest", ("ingest", "--input", str(playthroughs), "--out", out))]
    else:
        raise ValueError(f"unknown workload {name!r}, expected one of {NAMES}")

    steps += [
        Step("info-gain", ("info-gain", "--stats", str(stats), "--out", out)),
        Step("select", ("select", "--stats", str(stats), "--k", str(sizes.k), "--out", out)),
        Step("correlate", ("correlate", "--stats", str(stats), "--out", out)),
    ]
    return Workload(name, sizes, tuple(steps), playthroughs, stats, rows)
