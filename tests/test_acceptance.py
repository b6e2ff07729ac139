"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line
per criterion.
"""

import csv
import functools
import json
import math
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conftest import (
    PEARSON_123_124,
    THREE_AGENT_MI_BITS,
    entry,
    fixture_suite,
    full_table,
    random_score_table,
    sampled_table,
    score_keys,
    score_table,
)
from infobench.cluster import cluster, correlation_matrix
from infobench.confusion import confusion
from infobench.infogain import (
    EPS_GAIN,
    greedy_select,
    info_gain_set,
    metric_keys_for,
    mutual_information,
    problem_gains,
)
from infobench.perf import Measure, MetricKey
from infobench.synth import Archetype, SynthSpec
from reference_cluster import naive_ward_partition
from reference_heatmap import read_heatmap_cells
from reference_oracle import oracle_info_gain

N_INSTANCES = 1000


def _pass(criterion, message):
    print(f"\n[acceptance] criterion {criterion}: PASS - {message}")


@functools.lru_cache(maxsize=1)
def instances():
    """1,000 seeded random instances: 2-8 agents, 1-4 metric keys."""
    rng = np.random.default_rng(20260811)
    out = []
    for _ in range(N_INSTANCES):
        n_agents = int(rng.integers(2, 9))
        n_keys = int(rng.integers(1, 5))
        out.append(random_score_table(rng, n_agents, n_keys))
    return out


def test_criterion_1_channel_bounds():
    # instance construction is deliberately inside the timed window
    start = time.perf_counter()
    for table in instances():
        keys = score_keys(table)
        matrix = confusion(table, keys)
        sums = matrix.probs.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-9
        gain = mutual_information(matrix)
        assert 0.0 <= gain <= math.log2(len(table.agents)) + 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"bounds sweep took {elapsed:.1f}s"
    _pass(1, f"{N_INSTANCES} instances within channel bounds in {elapsed:.2f}s")


def test_criterion_2_oracle_equivalence():
    worst = 0.0
    for table in instances():
        keys = score_keys(table)
        main = info_gain_set(table, keys)
        reference = oracle_info_gain(table, keys)
        worst = max(worst, abs(main - reference))
    assert worst < 1e-10, f"worst oracle disagreement {worst:g} bits"
    _pass(2, f"main path matches the direct-summation oracle (worst {worst:.2e} bits)")


def test_criterion_3_closed_form_spot_checks(three_agent_table):
    assert mutual_information(np.eye(4)) == 2.0
    assert mutual_information(np.full((4, 4), 0.25)) == 0.0
    key = [MetricKey("g", Measure.SCORE)]
    mi = info_gain_set(three_agent_table, key)
    assert mi == pytest.approx(THREE_AGENT_MI_BITS, abs=1e-4)
    assert mi == pytest.approx(oracle_info_gain(three_agent_table, key), abs=1e-10)
    _pass(3, "identity=2 bits, uniform=0 bits, three-agent fixture at 0.02063 bits")


def test_criterion_4_affine_invariance():
    rng = np.random.default_rng(44)
    table = random_score_table(rng, 6, 3)
    keys = score_keys(table)
    base_probs = confusion(table, keys).probs
    base_gain = info_gain_set(table, keys)
    for c in (1e-3, 1.0, 1e3):
        games = {}
        for k in keys:
            mu, sd = table.column(k)
            games[k.problem] = (c * mu + 3.7, c * sd)
        transformed = score_table(games)
        t_keys = score_keys(transformed)
        assert np.max(np.abs(confusion(transformed, t_keys).probs - base_probs)) < 1e-12
        assert abs(info_gain_set(transformed, t_keys) - base_gain) < 1e-9
    _pass(4, "per-game rescaling (c in {1e-3,1,1e3}) leaves the channel unchanged")


def test_criterion_5_neutrality_and_duplicate_idempotence():
    # appending a game on which every agent is identical
    base = score_table({"g": ((0.0, 1.0, 2.0), (1.0, 1.0, 1.0))})
    extended = score_table(
        {
            "g": ((0.0, 1.0, 2.0), (1.0, 1.0, 1.0)),
            "flat": ((4.0, 4.0, 4.0), (2.0, 2.0, 2.0)),
        }
    )
    drift = abs(
        info_gain_set(extended, score_keys(extended))
        - info_gain_set(base, score_keys(base))
    )
    assert drift < 1e-12

    # greedy marginal of an exact duplicate of a selected problem
    table = full_table(
        {
            "picked": {
                "win": ((0.5, 0.5, 0.5), (0.5, 0.5, 0.5)),
                "score": ((0.0, 100.0, 100.0), (1.0, 1.0, 1.0)),
            },
            "twin": {
                "win": ((0.5, 0.5, 0.5), (0.5, 0.5, 0.5)),
                "score": ((0.0, 100.0, 100.0), (1.0, 1.0, 1.0)),
            },
        }
    )
    picked = list(metric_keys_for("picked", "combined"))
    with_twin = picked + list(metric_keys_for("twin", "combined"))
    marginal = info_gain_set(table, with_twin) - info_gain_set(table, picked)
    assert abs(marginal) < 1e-9
    report = greedy_select(table, 2)
    assert report.selected == ("picked",)
    assert report.stopped_early
    _pass(5, f"flat game drift {drift:.1e} bits; twin marginal {marginal:.1e} bits")


def test_criterion_6_ceiling_for_27_agents():
    ceiling = math.log2(27)
    spec = SynthSpec(
        27,
        (Archetype("linear", gap=10.0, sigma=1.0),),
        samples_per_cell=10_000,
        seed=2026,
    )
    table = sampled_table(spec)
    gain = info_gain_set(table, [MetricKey("prob00", Measure.SCORE)])
    assert gain <= ceiling + 1e-9
    assert ceiling - gain < 0.05
    combined = info_gain_set(table, list(table.keys))
    assert combined <= ceiling + 1e-9
    _pass(6, f"27-agent population reaches {gain:.4f} of {ceiling:.4f} bits, never above")


def test_criterion_7_subadditivity_audit():
    findings = []
    for name, table in fixture_suite():
        gains = problem_gains(table)
        excess = gains["combined"] - (gains["win"] + gains["score"])
        for i in np.flatnonzero(excess > EPS_GAIN):
            findings.append(name)
            print(
                f"[acceptance] sub-additivity violated in {name}/{table.problems[i]}: "
                f"combined {gains['combined'][i]:.6f} > win {gains['win'][i]:.6f} "
                f"+ score {gains['score'][i]:.6f} (excess {excess[i]:.2e} bits)"
            )
    assert not findings
    _pass(7, "combined gain sub-additive on every shipped fixture")


def test_criterion_8_greedy_determinism_and_consistency():
    rng = np.random.default_rng(88)
    problems = {
        f"p{j:02d}": {
            "win": (rng.uniform(0.1, 0.9, 6), rng.uniform(0.2, 0.5, 6)),
            "score": (rng.uniform(-5, 5, 6), rng.uniform(0.5, 3.0, 6)),
        }
        for j in range(8)
    }
    table = full_table(problems)
    first = greedy_select(table, 5)
    again = greedy_select(table, 5)
    assert first == again
    previous = 0.0
    for step in first.steps:
        assert step.cumulative_bits - previous == pytest.approx(
            step.marginal_bits, abs=1e-9
        )
        previous = step.cumulative_bits
    _pass(8, f"identical reports across reruns; {len(first.steps)} steps telescope")


def test_criterion_9_correlation_and_clustering():
    table = score_table(
        {
            "g": ((1.0, 2.0, 3.0), (1.0,) * 3),
            "anti": ((3.0, 2.0, 1.0), (1.0,) * 3),
            "near": ((1.0, 2.0, 4.0), (1.0,) * 3),
        }
    )
    corr = correlation_matrix(table, Measure.SCORE)
    assert entry(corr, "g", "anti") == -1.0
    assert entry(corr, "g", "g") == 1.0
    assert entry(corr, "g", "near") == pytest.approx(PEARSON_123_124, abs=1e-4)

    up = (1.0, 2.0, 3.0, 4.0)
    blocks = score_table(
        {
            "up_a": (up, (1.0,) * 4),
            "up_b": (tuple(2 * x for x in up), (1.0,) * 4),
            "down_a": (up[::-1], (1.0,) * 4),
            "down_b": (tuple(3 * x for x in up[::-1]), (1.0,) * 4),
        }
    )
    block_corr = correlation_matrix(blocks, Measure.SCORE)
    result = cluster(block_corr, 0.8)
    assert {frozenset(c) for c in result.clusters} == {
        frozenset({"up_a", "up_b"}),
        frozenset({"down_a", "down_b"}),
    }

    agreements = 0
    for seed in range(20):
        rng = np.random.default_rng(9000 + seed)
        rand_table = random_score_table(rng, 6, 10)
        rand_corr = correlation_matrix(rand_table, Measure.SCORE)
        main = {
            frozenset(rand_corr.problems.index(p) for p in members)
            for members in cluster(rand_corr, 0.8).clusters
        }
        dist = (1.0 - rand_corr.values).tolist()
        for i in range(len(dist)):
            dist[i][i] = 0.0
        assert main == naive_ward_partition(dist, 0.8)
        agreements += 1

        # permutation invariance on the same fixture
        perm = list(rng.permutation(len(rand_corr.problems)))
        games = {
            rand_corr.problems[i]: (rand_table.column(MetricKey(rand_corr.problems[i], Measure.SCORE))[0],
                                     rand_table.column(MetricKey(rand_corr.problems[i], Measure.SCORE))[1])
            for i in perm
        }
        permuted_corr = correlation_matrix(score_table(games), Measure.SCORE)
        permuted = {
            frozenset(members) for members in cluster(permuted_corr, 0.8).clusters
        }
        named_main = {
            frozenset(rand_corr.problems[i] for i in group) for group in main
        }
        assert permuted == named_main
    _pass(9, f"spot checks exact; 2-block partition; {agreements} reference agreements")


def test_criterion_10_cli_end_to_end(tmp_path):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "infobench", *map(str, argv)],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )

    start = time.perf_counter()
    steps = [
        cli("synth", "--agents", 5, "--problems", 12, "--samples", 200,
            "--seed", 77, "--out", "data"),
        cli("ingest", "--input", "data/playthroughs.csv", "--out", "run"),
        cli("info-gain", "--stats", "run/stats.csv", "--out", "run"),
        cli("select", "--stats", "run/stats.csv", "--k", 5, "--out", "run"),
        cli("correlate", "--stats", "run/stats.csv", "--out", "run"),
    ]
    elapsed = time.perf_counter() - start
    for step in steps:
        assert step.returncode == 0, step.stderr
    assert elapsed < 5.0, f"pipeline took {elapsed:.1f}s"

    run_dir = tmp_path / "run"

    # CSV schemas
    with open(run_dir / "info_gain.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["problem", "win_bits", "score_bits", "combined_bits"]
    assert len(rows) == 13
    with open(run_dir / "selection.csv") as f:
        sel = list(csv.reader(f))
    assert sel[0] == ["rank", "problem", "marginal_bits", "cumulative_bits"]

    # JSON parses and re-emits byte-identically
    for name in ("stats.json", "info_gain.json", "selection.json",
                 "correlation_score.json"):
        text = (run_dir / name).read_text()
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text

    # SVG is well formed and colors invert to the matrix values
    svg_text = (run_dir / "heatmap_score.svg").read_text()
    ET.fromstring(svg_text)
    doc = json.loads((run_dir / "correlation_score.json").read_text())
    order = [p for group in doc["clusters"] for p in group]
    order += doc["no_correlation_measure"]
    cells = read_heatmap_cells(svg_text)
    assert len(cells) == len(order) ** 2
    for (row, col), value in cells.items():
        expected = doc["matrix"][doc["problems"].index(order[row])][
            doc["problems"].index(order[col])
        ]
        if expected is None:
            assert value is None
        else:
            assert value == pytest.approx(expected, abs=0.5 / 255 + 1e-12)
    _pass(10, f"synth->ingest->info-gain->select->correlate in {elapsed:.2f}s")


DATASET_ENV = "INFOBENCH_DATASET_CSV"


@pytest.mark.skipif(
    DATASET_ENV not in os.environ,
    reason=f"set {DATASET_ENV} to a full playthrough dump to run the "
    "whole-corpus integration check",
)
def test_optional_full_corpus_integration():
    """Integration against the published 27-agent, 108-game corpus."""
    from infobench.perf import aggregate, parse_records_path

    table = aggregate(
        parse_records_path(os.environ[DATASET_ENV]), allow_missing=True
    )
    assert len(table.agents) == 27
    assert len(table.problems) == 108
    gains = {
        p: info_gain_set(table, metric_keys_for(p, "combined"))
        for p in table.problems
    }
    top = max(gains, key=gains.get)
    assert top == "freeway"
    assert gains[top] == pytest.approx(1.89430152, abs=0.01)
    report = greedy_select(table, 10)
    assert report.total_bits == pytest.approx(4.68457480, abs=0.02)
