"""Tests of the benchmark itself: smoke runs parse, and the checker rejects
deliberately corrupted outputs.

Run with: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 3


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke():
    """One smoke run of every workload with tracing off."""
    done = bench("--workload", "all", "--seed", str(SEED), "--seconds", "1", "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    return done


def out_copy(tmp_path: Path, workload: str) -> Path:
    src = run.WORK / f"{workload}-trace0-smoke"
    dst = tmp_path / workload
    shutil.copytree(src, dst)
    return dst


def rewrite_csv(path: Path, edit) -> None:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)


def test_smoke_result_line_and_records(smoke):
    result = last_json(smoke.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    for name in workloads.NAMES:
        for metric, unit in run.END_TO_END:
            assert result["metrics"][f"{name}.{metric}"]["unit"] == unit
            assert result["metrics"][f"{name}.{metric}"]["value"] > 0
        record = json.loads((run.WORK / f"BENCH_{name}_seed{SEED}_trace0_smoke.json").read_text())
        assert record["stamp"]["seed"] == SEED and record["stamp"]["nproc"] >= 1
        assert record["metrics"]["failed_ops"]["value"] == 0
        assert record["digests"]
    for metric, _ in run.END_TO_END + run.SECONDS:
        assert metric in smoke.stdout


def test_smoke_traced_reports_every_layer():
    done = bench("--workload", "all", "--seed", str(SEED), "--seconds", "1", "--smoke",
                 "--trace", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    metrics = last_json(done.stdout)["metrics"]
    for name in workloads.NAMES:
        assert {f"{name}.{m}" for m, _ in run.PER_LAYER} <= set(metrics)
        assert metrics[f"{name}.confusion.log_weight_matrix.calls"]["value"] > 0
    record = json.loads((run.WORK / f"BENCH_paper_seed{SEED}_trace1_smoke.json").read_text())
    assert record["detail"]["unhooked"] == []
    assert record["metrics"]["synth.generate.s"]["value"] > 0


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_generators_are_seeded(tmp_path):
    sizes = workloads.SMOKE["wide"]
    paths = [tmp_path / f"{i}.csv" for i in range(3)]
    for path, seed in zip(paths, (1, 1, 2)):
        workloads.write_wide_playthroughs(path, sizes, seed)
    assert paths[0].read_bytes() == paths[1].read_bytes() != paths[2].read_bytes()


def test_checker_accepts_real_outputs(smoke, tmp_path):
    work = out_copy(tmp_path, "wide")
    found = checks.check_outputs(work / "input" / "playthroughs.csv", work / "out" / "stats.csv",
                                 work / "out", workloads.SMOKE["wide"].k,
                                 ["ingest", "info-gain", "select", "correlate"])
    assert found == {"ingest": [], "info-gain": [], "select": [], "correlate": []}


def test_checker_rejects_perturbed_stats_mean(smoke, tmp_path):
    work = out_copy(tmp_path, "wide")
    stats = work / "out" / "stats.csv"

    def nudge(rows):
        rows[1][3] = repr(float(rows[1][3]) * (1 + 1e-9))

    rewrite_csv(stats, nudge)
    assert checks.check_ingest(work / "input" / "playthroughs.csv", stats)


def test_checker_rejects_non_telescoping_selection(smoke, tmp_path):
    out = out_copy(tmp_path, "paper") / "out"

    def nudge(rows):
        rows[-1][2] = repr(float(rows[-1][2]) + 1e-6)

    rewrite_csv(out / "selection.csv", nudge)
    problems = checks.table_shape(checks.read_stats(out / "stats.csv"))[1]
    assert any("telescope" in e for e in checks.check_select(out, workloads.SMOKE["paper"].k, problems))


def test_checker_rejects_unsorted_gains(smoke, tmp_path):
    out = out_copy(tmp_path, "stress") / "out"

    def swap(rows):
        rows[1], rows[2] = rows[2], rows[1]

    rewrite_csv(out / "info_gain.csv", swap)
    agents, problems = checks.table_shape(checks.read_stats(
        run.WORK / "stress-trace0-smoke" / "input" / "stats.csv"))
    assert checks.check_info_gain(out / "info_gain.csv", agents, problems)


def test_checker_rejects_asymmetric_correlation_and_missing_cell(smoke, tmp_path):
    out = out_copy(tmp_path, "stress") / "out"
    problems = sorted(json.loads((out / "correlation_win.json").read_text())["problems"])
    assert checks.check_correlate(out, problems) == []

    def skew(rows):
        rows[1][2] = repr(float(rows[1][2]) / 2)

    rewrite_csv(out / "correlation_win.csv", skew)
    svg = out / "heatmap_score.svg"
    text = svg.read_text()
    start = text.index('<rect class="cell"')
    svg.write_text(text[:start] + text[text.index("</rect>", start) + len("</rect>"):])
    errors = checks.check_correlate(out, problems)
    assert any("not symmetric" in e for e in errors)
    assert any("heatmap_score.svg has" in e for e in errors)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = bench("--workload", "paper", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
