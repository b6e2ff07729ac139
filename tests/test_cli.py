import csv
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import full_table, score_table, traced_peak
import infobench
from infobench.cli import _measure_files, main
from infobench.cluster import DEFAULT_THRESHOLD, cluster, correlation_matrix
from infobench.perf import Measure, stats_json_document, write_stats_csv
from reference_heatmap import read_heatmap_cells


def run(*argv):
    return main([str(a) for a in argv])


def stats_file(tmp_path, table):
    """Write ``table`` to ``tmp_path / "stats.csv"`` and give that path."""
    stats = tmp_path / "stats.csv"
    with open(stats, "w", newline="") as f:
        write_stats_csv(table, f)
    return stats


def stats_json(*cells):
    """Stats JSON text whose cells are a valid win cell with some fields replaced."""
    base = {"agent": "a", "problem": "g", "measure": "win", "mean": 0.5, "stddev": 0.1, "count": 3}
    return json.dumps({"cells": [dict(base, **cell) for cell in cells]})


@pytest.fixture
def corpus(tmp_path):
    """Small synthetic corpus ingested into stats files."""
    data = tmp_path / "data"
    out = tmp_path / "run"
    assert run("synth", "--agents", 4, "--problems", 6, "--samples", 150,
               "--seed", 11, "--out", data) == 0
    assert run("ingest", "--input", data / "playthroughs.csv", "--out", out) == 0
    return out


class TestPipeline:
    def test_full_pipeline(self, corpus, tmp_path):
        assert run("info-gain", "--stats", corpus / "stats.csv", "--out", corpus) == 0
        assert run("select", "--stats", corpus / "stats.json", "--k", 3,
                   "--out", corpus) == 0
        assert run("correlate", "--stats", corpus / "stats.csv", "--out", corpus) == 0
        assert run("confusion", "--stats", corpus / "stats.csv",
                   "--problems", "prob00,prob01", "--out", corpus) == 0
        expected = [
            "stats.csv", "stats.json", "info_gain.csv", "info_gain.json",
            "selection.csv", "selection.json", "selection.txt",
            "correlation_win.csv", "correlation_score.csv",
            "heatmap_win.svg", "heatmap_score.svg",
            "clusters_win.csv", "clusters_score.csv", "confusion.csv",
            "confusion.json",
        ]
        for name in expected:
            assert (corpus / name).exists(), name

    def test_no_command_imports_scipy(self, tmp_path):
        # a None entry in sys.modules makes every import of scipy fail
        code = (
            "import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from infobench.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    if main(argv):\n"
            "        sys.exit(f'{argv} failed')\n"
        )
        data, run_dir = str(tmp_path / "data"), str(tmp_path / "run")
        stats = str(tmp_path / "run" / "stats.csv")
        commands = [
            ["synth", "--agents", "4", "--problems", "6", "--samples", "50", "--out", data],
            ["ingest", "--input", str(tmp_path / "data" / "playthroughs.csv"), "--out", run_dir],
            ["info-gain", "--stats", stats, "--out", run_dir],
            ["select", "--stats", stats, "--k", "2", "--out", run_dir],
            ["correlate", "--stats", stats, "--out", run_dir],
            ["confusion", "--stats", stats, "--problems", "prob00", "--out", run_dir],
        ]
        env = dict(os.environ, PYTHONPATH=str(Path(infobench.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "run" / "heatmap_score.svg").exists()

    def test_ingest_summary(self, tmp_path, capsys):
        data = tmp_path / "d"
        run("synth", "--agents", 3, "--problems", 2, "--samples", 20,
            "--seed", 0, "--out", data)
        run("ingest", "--input", data / "playthroughs.csv", "--out", tmp_path / "o")
        captured = capsys.readouterr().out
        assert "agents:   3" in captured
        assert "problems: 2" in captured
        assert "records:  120" in captured
        assert "min 20 / avg 20.0 / max 20" in captured

    def test_names_that_need_csv_quoting_survive_every_csv(self, tmp_path):
        agents = ["a,1", 'b "x"', "c", "d"]
        problems = ['g "q"', "h,2", "k"]
        data = tmp_path / "playthroughs.csv"
        with open(data, "w", newline="", encoding="utf-8") as f:
            csv.writer(f).writerows([
                ["agent", "problem", "score", "win"],
                *([a, p, (i + 1) * (j + 2) % 5 + k / 4, (i * j + k) % 3 == 0]
                  for i, a in enumerate(agents) for j, p in enumerate(problems)
                  for k in range(4)),
            ])
        out = tmp_path / "run"
        assert run("ingest", "--input", data, "--out", out) == 0
        stats = out / "stats.csv"
        assert run("info-gain", "--stats", stats, "--out", out) == 0
        assert run("select", "--stats", stats, "--k", 3, "--out", out) == 0
        assert run("correlate", "--stats", stats, "--out", out) == 0
        assert run("confusion", "--stats", stats, "--problems", 'g "q",k', "--out", out) == 0

        def read(name):
            with open(out / name, newline="", encoding="utf-8") as f:
                return list(csv.reader(f))

        header, *rows = read("stats.csv")
        assert sorted({r[0] for r in rows}) == sorted(agents)
        assert sorted({r[1] for r in rows}) == sorted(problems)
        assert sorted(r[0] for r in read("info_gain.csv")[1:]) == sorted(problems)
        assert sorted(r[1] for r in read("selection.csv")[1:]) == sorted(problems)
        for measure in ("win", "score"):
            header, *rows = read(f"correlation_{measure}.csv")
            assert header[1:] == [r[0] for r in rows] == sorted(problems)
            assert sorted(r[0] for r in read(f"clusters_{measure}.csv")[1:]) == sorted(problems)
        header, *rows = read("confusion.csv")
        assert header[1:] == [r[0] for r in rows] == sorted(agents)

    def test_selection_csv_schema(self, corpus):
        run("select", "--stats", corpus / "stats.csv", "--k", 2, "--out", corpus)
        with open(corpus / "selection.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["rank", "problem", "marginal_bits", "cumulative_bits"]
        for rank, row in enumerate(rows[1:], start=1):
            assert int(row[0]) == rank
            float(row[2]), float(row[3])

    def test_info_gain_csv_sorted_by_combined(self, corpus):
        run("info-gain", "--stats", corpus / "stats.csv", "--out", corpus)
        with open(corpus / "info_gain.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["problem", "win_bits", "score_bits", "combined_bits"]
        combined = [float(r[3]) for r in rows[1:]]
        assert combined == sorted(combined, reverse=True)

    def test_info_gain_columns_reflect_the_informative_measure(self, tmp_path):
        table = full_table(
            {
                "loseonly": {
                    # everyone always loses: the win rate carries nothing
                    "win": ((0.0, 0.0, 0.0), (0.1, 0.1, 0.1)),
                    "score": ((0.0, 40.0, 80.0), (1.0, 1.0, 1.0)),
                },
                "dull": {
                    "win": ((0.5, 0.5, 0.5), (0.5, 0.5, 0.5)),
                    "score": ((1.0, 1.0, 1.0), (1.0, 1.0, 1.0)),
                },
            }
        )
        stats = stats_file(tmp_path, table)
        assert run("info-gain", "--stats", stats, "--out", tmp_path) == 0
        with open(tmp_path / "info_gain.csv") as f:
            rows = {r[0]: r for r in list(csv.reader(f))[1:]}
        assert float(rows["loseonly"][1]) == pytest.approx(0.0, abs=1e-12)
        assert float(rows["loseonly"][3]) == pytest.approx(
            float(rows["loseonly"][2]), abs=1e-12
        )
        assert all(float(v) == pytest.approx(0.0, abs=1e-12) for v in rows["dull"][1:])

    def test_select_reports_negative_marginals(self, tmp_path):
        # adding "blur" after "sharp" destroys information (see test_greedy)
        table = score_table({"blur": ((-0.8, 1.0), (5.0, 1.6)),
                             "sharp": ((-0.6, -0.8), (0.3, 1.7))})
        stats = stats_file(tmp_path, table)
        assert run("select", "--stats", stats, "--metric", "score", "--k", 2,
                   "--out", tmp_path) == 0
        doc = json.loads((tmp_path / "selection.json").read_text())
        [neg] = doc["negative_marginals"]
        assert (neg["step"], neg["problem"]) == (2, "blur") and neg["marginal_bits"] < -1e-3
        assert [s["problem"] for s in doc["steps"]] == ["sharp"]
        lines = (tmp_path / "selection.txt").read_text().splitlines()
        assert lines[-1] == (f"(step 2: skipped 'blur', marginal "
                             f"{neg['marginal_bits']:.3g} bits < 0)")
        assert lines[-2].startswith("(early stop: stopped at step 2")

    def test_json_outputs_reemit_byte_identically(self, corpus):
        # the writer's C-encoder layout must equal the stdlib's indent=2
        # text on each Python version, for every JSON file a command writes
        stats = ("--stats", corpus / "stats.csv", "--out", corpus)
        assert run("info-gain", *stats) == 0
        assert run("select", *stats, "--k", 3) == 0
        assert run("correlate", *stats) == 0
        assert run("confusion", *stats, "--problems", "prob00,prob01") == 0
        written = sorted(p.name for p in corpus.glob("*.json"))
        assert written == sorted(name for files in self.FORMAT_FILES.values()
                                 for name in files.get("json", ()))
        for name in written:
            text = (corpus / name).read_text(encoding="utf-8")
            again = json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
            assert text == again, name

    def test_top_gain_is_greedys_first_pick_as_text(self, tmp_path):
        # 40 agents give 1,600 log weights per candidate, so info-gain and
        # select score the 30 problems in two chunks through one scorer
        assert run("synth", "--agents", 40, "--problems", 30, "--samples", 20, "--gap", 0.5,
                   "--seed", 3, "--out", tmp_path) == 0
        assert run("ingest", "--input", tmp_path / "playthroughs.csv", "--out", tmp_path) == 0
        assert run("info-gain", "--stats", tmp_path / "stats.csv", "--out", tmp_path) == 0
        assert run("select", "--stats", tmp_path / "stats.csv", "--out", tmp_path) == 0
        top = (tmp_path / "info_gain.csv").read_text().splitlines()[1].split(",")
        first = (tmp_path / "selection.csv").read_text().splitlines()[1].split(",")
        assert (top[0], top[3]) == (first[1], first[3])

    # the files each command writes, by format; "" marks a file written
    # whatever --format says
    FORMAT_FILES = {
        "ingest": {"csv": {"stats.csv"}, "json": {"stats.json"}},
        "info-gain": {"csv": {"info_gain.csv"}, "json": {"info_gain.json"}},
        "select": {"csv": {"selection.csv"}, "json": {"selection.json"}, "": {"selection.txt"}},
        "correlate": {
            "csv": {"correlation_win.csv", "correlation_score.csv",
                    "clusters_win.csv", "clusters_score.csv"},
            "json": {"correlation_win.json", "correlation_score.json"},
            "svg": {"heatmap_win.svg", "heatmap_score.svg"},
        },
        "confusion": {"csv": {"confusion.csv"}, "json": {"confusion.json"}},
    }

    @pytest.mark.parametrize("fmt", ["csv", "json", "svg", "csv,json", ","])
    @pytest.mark.parametrize("command", FORMAT_FILES)
    def test_format_filtering(self, corpus, command, fmt, capsys):
        source = {
            "ingest": ["--input", corpus.parent / "data" / "playthroughs.csv"],
            "confusion": ["--stats", corpus / "stats.csv", "--problems", "prob00,prob01"],
        }.get(command, ["--stats", corpus / "stats.csv"])
        out = corpus / "only"
        files = self.FORMAT_FILES[command]
        expected = set().union(*(files.get(f, set()) for f in ["", *fmt.split(",")]))
        if not expected:
            # a --format that selects none of the command's files is bad
            # usage; an empty one shows as ''
            assert run(command, *source, "--out", out, "--format", fmt) == 2
            given = fmt.strip(",") or "''"
            assert (f"error: --format {given} selects none of {command}'s formats"
                    in capsys.readouterr().err)
            assert not out.exists()
            return
        assert run(command, *source, "--out", out, "--format", fmt) == 0
        assert {p.name for p in out.iterdir()} == expected

    def test_correlate_holds_one_file_text_at_a_time(self, tmp_path):
        data = tmp_path / "data"
        assert run("synth", "--agents", 20, "--problems", 120, "--samples", 5,
                   "--seed", 3, "--out", data) == 0
        assert run("ingest", "--input", data / "playthroughs.csv", "--out", data) == 0
        argv = ("correlate", "--stats", data / "stats.csv", "--out", tmp_path / "corr")

        def correlate():
            assert run(*argv) == 0

        correlate()  # the first run fills numpy's and Python's caches
        peak = traced_peak(correlate)
        # each SVG line and each JSON piece is written as it is made, so
        # no file's whole text is held and the peak is about 75 bytes a
        # cell; holding each correlation JSON's whole text took about 119,
        # one heatmap's whole text and its row strings about 310, and both
        # heatmaps' texts about 520
        assert peak / 120**2 <= 100

    @staticmethod
    def correlation_file_peak(path, name):
        """The traced peak of writing ``name``, one file of the score
        correlation of 50 agents x 500 problems, to ``path``."""
        rng = np.random.default_rng(3)
        table = score_table({f"p{j:03d}": (rng.normal(0.0, 1.0, 50), np.ones(50))
                             for j in range(500)})
        corr = correlation_matrix(table, Measure.SCORE)
        files = _measure_files("score", corr, cluster(corr, DEFAULT_THRESHOLD), DEFAULT_THRESHOLD)
        write = dict(files)[name]
        with open(path / name, "w", newline="", encoding="utf-8") as f:
            return traced_peak(write, f)

    def test_correlation_csv_holds_one_row_at_a_time(self, tmp_path):
        # each row's list is made as it is written; the whole 500 x 500
        # matrix as nested lists of Python floats took about 7.9 MiB
        assert self.correlation_file_peak(tmp_path, "correlation_score.csv") <= 2**20

    def test_correlation_json_holds_one_row_at_a_time(self, tmp_path):
        # each row's list is made as it is written; the whole matrix as
        # nested lists took about 7.7 MiB
        assert self.correlation_file_peak(tmp_path, "correlation_score.json") <= 2**20


class TestExitCodes:
    def test_parse_error_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("agent,problem,score,win\na1,g,NaN,1\n")
        assert run("ingest", "--input", bad, "--out", tmp_path) == 2
        assert f"error: {bad}: line 2: non-finite score" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert run("ingest", "--input", tmp_path / "nope.csv", "--out", tmp_path) == 2

    def test_incomplete_coverage(self, tmp_path, capsys):
        bad = tmp_path / "gap.csv"
        bad.write_text(
            "agent,problem,score,win\n"
            "a1,g1,1.0,1\na1,g1,2.0,0\na1,g2,1.0,1\na1,g2,2.0,0\n"
            "a2,g1,1.0,1\na2,g1,2.0,0\n"
        )
        assert run("ingest", "--input", bad, "--out", tmp_path) == 2
        assert "a2" in capsys.readouterr().err

    def test_allow_missing_recovers(self, tmp_path):
        bad = tmp_path / "gap.csv"
        bad.write_text(
            "agent,problem,score,win\n"
            "a1,g1,1.0,1\na1,g1,2.0,0\na1,g2,1.0,1\na1,g2,2.0,0\n"
            "a2,g1,1.0,1\na2,g1,2.0,0\n"
        )
        with pytest.warns(UserWarning):
            assert run("ingest", "--input", bad, "--out", tmp_path,
                       "--allow-missing") == 0

    def test_allow_missing_with_no_covering_agent_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "gap.csv"
        bad.write_text("agent,problem,score,win\na1,g1,1.0,1\na1,g1,2.0,0\n"
                       "a2,g2,1.0,1\na2,g2,2.0,0\n")
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="dropping 2 agent"):
            assert run("ingest", "--input", bad, "--out", out, "--allow-missing") == 2
        assert "error: no agent covers every problem" in capsys.readouterr().err
        assert not out.exists()

    def test_single_playthrough_corpus_gives_one_counted_warning(self, tmp_path):
        data = tmp_path / "data"
        run("synth", "--agents", 3, "--problems", 4, "--samples", 1, "--out", data)
        with pytest.warns(UserWarning) as caught:
            assert run("ingest", "--input", data / "playthroughs.csv", "--out", tmp_path) == 0
        [message] = [str(w.message) for w in caught]
        assert message.startswith("24 cell(s) with a single playthrough")

    @pytest.mark.parametrize("floor, formats, warned", [
        ("1e-12", "csv,json", True), ("1e-12", "csv", True),
        ("1e-12", "json", False), ("1e-9", "csv,json", False),
    ])
    def test_a_floor_below_the_default_warns_that_stats_csv_drops_it(
        self, tmp_path, floor, formats, warned
    ):
        data = tmp_path / "data"
        run("synth", "--agents", 3, "--problems", 2, "--samples", 5, "--out", data)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("ingest", "--input", data / "playthroughs.csv", "--sigma-floor", floor,
                       "--format", formats, "--out", tmp_path / "run") == 0
        dropped = [str(w.message) for w in caught if "stats.csv" in str(w.message)]
        assert dropped == ["stats.csv does not keep --sigma-floor 1e-12: a command reading it "
                           "floors at 1e-09; stats.json keeps the floor"] * warned

    def test_a_warning_prints_as_one_line(self, tmp_path):
        # pytest records warnings in-process, so only a child process
        # shows what reaches stderr
        data = tmp_path / "data"
        default_format = warnings.formatwarning
        run("synth", "--agents", 3, "--problems", 4, "--samples", 1, "--out", data)
        assert warnings.formatwarning is default_format
        env = dict(os.environ, PYTHONPATH=str(Path(infobench.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "infobench", "ingest",
             "--input", str(data / "playthroughs.csv"), "--out", str(tmp_path / "run")],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        [line] = done.stderr.splitlines()
        assert line.startswith("warning: 24 cell(s) with a single playthrough")
        assert "perf.py:" not in line

    @pytest.mark.parametrize("command", ["info-gain", "select"])
    def test_missing_cell_is_named_before_non_finite_weights(self, tmp_path, capsys, command):
        # "a" squares to non-finite weights, and "b" has no score cell
        stats = tmp_path / "stats.csv"
        write_stats_rows(stats, [
            ["a1", "a", "win", 0.0, 1e200, 20], ["a1", "a", "score", 0.0, 1e200, 20],
            ["a2", "a", "win", 1.0, 1e200, 20], ["a2", "a", "score", 1.0, 1e200, 20],
            ["a1", "b", "win", 0.2, 0.1, 20], ["a2", "b", "win", 0.8, 0.1, 20],
        ])
        out = tmp_path / "out"
        assert run(command, "--stats", stats, "--out", out) == 2
        assert "error: no cell for problem 'b' measure 'score'" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_stddev_stats_file_is_floored_with_a_warning(self, tmp_path):
        stats = tmp_path / "stats.csv"
        stats.write_text("agent,problem,measure,mean,stddev,count\n"
                         "a1,g,win,0.0,0.0,20\na1,g,score,1.0,1.0,20\n"
                         "a2,g,win,1.0,0.0,20\na2,g,score,2.0,1.0,20\n")
        with pytest.warns(UserWarning, match=r"^2 cell\(s\) with zero or sub-floor variance; "
                          r"stddev set to the floor \(1e-09\): \(a1, g\) win, \(a2, g\) win$"):
            assert run("info-gain", "--stats", stats, "--out", tmp_path) == 0
        with open(tmp_path / "info_gain.csv") as f:
            [row] = list(csv.DictReader(f))
        assert float(row["win_bits"]) == 1.0

    def test_domain_error_exit_code(self, tmp_path, capsys):
        # correlation over two agents is undefined
        table = score_table({"g": ((0.0, 1.0), (1.0, 1.0)),
                             "h": ((1.0, 0.0), (1.0, 1.0))})
        stats = stats_file(tmp_path, table)
        assert run("correlate", "--stats", stats, "--out", tmp_path) == 1
        assert "three agents" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command, key, value", [
        ("select", "k", "0"),
        ("select", "eps-gain", "0"),
        ("select", "eps-gain", "1e-309"),
        ("select", "eps-gain", "5e-324"),
        ("select", "eps-gain", "inf"),
        ("correlate", "threshold", "0"),
        ("correlate", "threshold", "nan"),
        ("correlate", "threshold", "inf"),
        ("ingest", "sigma-floor", "0"),
        ("synth", "samples", "0"),
        ("synth", "agents", "0"),
        ("synth", "problems", "0"),
        ("synth", "gap", "0"),
        ("synth", "sigma", "0"),
        ("synth", "seed", "-1"),
    ])
    def test_invalid_numeric_flag(self, corpus, tmp_path, capsys, command, key, value, source):
        inputs = {
            "ingest": ("--input", corpus.parent / "data" / "playthroughs.csv"),
            "synth": (),
        }.get(command, ("--stats", corpus / "stats.csv"))
        if source == "flag":
            setting = (f"--{key}", value)
        else:
            cfg = tmp_path / "run.conf"
            cfg.write_text(f"{key}={value}\n")
            setting = ("--config", cfg)
        out = tmp_path / "rejected"
        assert run(command, *inputs, *setting, "--out", out) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_format(self, corpus):
        assert run("info-gain", "--stats", corpus / "stats.csv",
                   "--out", corpus, "--format", "xlsx") == 2

    def test_unknown_measure_in_stats_exits_2(self, corpus, tmp_path, capsys):
        stats = tmp_path / "bogus.csv"
        stats.write_text((corpus / "stats.csv").read_text().replace(",win,", ",bogus,"))
        out = tmp_path / "out"
        assert run("info-gain", "--stats", stats, "--out", out) == 2
        assert "unknown measure 'bogus'" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_problem_exits_2(self, corpus, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("confusion", "--stats", corpus / "stats.csv",
                   "--problems", "prob00,prob00", "--out", out) == 2
        assert "duplicates" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["playthroughs", "stats", "config"])
    def test_non_utf8_file_exits_2(self, corpus, tmp_path, capsys, kind):
        bad = tmp_path / f"{kind}.bad"
        if kind == "playthroughs":
            bad.write_bytes(b"agent,problem,score,win\na\xff1,g,1.0,1\n")
            argv = ("ingest", "--input", bad)
        elif kind == "stats":
            bad.write_bytes((corpus / "stats.csv").read_bytes() + b"a\xff,g,win,0.5,0.1,3\n")
            argv = ("info-gain", "--stats", bad)
        else:
            bad.write_bytes(b"k=2\nmetric=sc\xffore\n")
            argv = ("select", "--stats", corpus / "stats.csv", "--config", bad)
        out = tmp_path / "out"
        assert run(*argv, "--out", out) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "not UTF-8" in err
        if kind == "config":
            assert "line 2" in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["playthroughs", "stats"])
    def test_oversized_csv_field_exits_2(self, corpus, tmp_path, capsys, kind):
        huge = "x" * 200_000
        bad = tmp_path / f"{kind}.csv"
        if kind == "playthroughs":
            bad.write_text(f"agent,problem,score,win\na1,g,1.0,1\na1,{huge},1.0,1\n")
            argv = ("ingest", "--input", bad)
        else:
            bad.write_text(f"agent,problem,measure,mean,stddev,count\na1,{huge},win,0.5,0.1,3\n")
            argv = ("info-gain", "--stats", bad)
        out = tmp_path / "out"
        assert run(*argv, "--out", out) == 2
        err = capsys.readouterr().err
        assert "field limit" in err
        assert f"{bad}: line {3 if kind == 'playthroughs' else 2}:" in err
        assert not out.exists()

    @pytest.mark.parametrize("document, message", [
        pytest.param("[]", "not object", id="[]"),
        pytest.param('"x"', "not object", id='"x"'),
        pytest.param(stats_json({"count": "N"}).replace('"N"', "1e400"),
                     "count must be a whole number", id="count-1e400"),
        pytest.param(stats_json({"agent": 5}, {"agent": "b"}),
                     "must be strings", id="integer-agent"),
        pytest.param(stats_json({"problem": ["x"]}), "must be strings", id="list-problem"),
        pytest.param(stats_json({"count": 1e20}), "above 9223372036854775807",
                     id="count-beyond-int64"),
        pytest.param(stats_json({"mean": 10**400}), "too large to convert to float",
                     id="mean-beyond-float"),
        pytest.param(stats_json({}).replace('{"cells"', '{"sigma_floor": true, "cells"'),
                     "sigma_floor must be a JSON number", id="boolean-sigma-floor"),
        pytest.param(stats_json({"stddev": True}), "stddev must be a JSON number",
                     id="boolean-stddev"),
        pytest.param(stats_json({"mean": "1.5"}), "mean must be a JSON number", id="string-mean"),
        pytest.param(stats_json({"count": "200"}), "count must be a JSON number",
                     id="string-count"),
        pytest.param("[" * 100_000 + "]" * 100_000, "maximum recursion depth",
                     id="nested-100000-deep"),
        pytest.param(stats_json({"mean": "N"}).replace('"N"', "1" * 5000),
                     "Exceeds the limit (4300 digits)", id="mean-beyond-digit-limit"),
    ])
    def test_malformed_stats_json_exits_2(self, tmp_path, capsys, document, message):
        stats = tmp_path / "stats.json"
        stats.write_text(document)
        out = tmp_path / "out"
        assert run("info-gain", "--stats", stats, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("floor", [-1, 0, math.nan, True, pytest.param(10**400, id="10**400")])
    def test_bad_sigma_floor_in_stats_json_exits_2(self, tmp_path, capsys, floor):
        table = full_table({"g": {"win": ((0.2, 0.5, 0.9), (0.0,) * 3),
                                  "score": ((1.0, 2.0, 3.0), (0.0,) * 3)}})
        doc = stats_json_document(table)
        doc["cells"] = [dict(c, stddev=0.0) for c in doc["cells"]]
        doc["sigma_floor"] = floor
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run("info-gain", "--stats", stats, "--out", out) == 2
        fault = ("sigma_floor must be a JSON number" if floor is True
                 else "int too large to convert to float" if floor == 10**400
                 else "sigma_floor must be positive")
        assert fault in capsys.readouterr().err
        assert not out.exists()

    def test_write_error_keeps_the_files_written_before_it(self, corpus, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "stats.json").mkdir(parents=True)
        assert run("ingest", "--input", corpus.parent / "data" / "playthroughs.csv",
                   "--out", out) == 2
        assert "error:" in capsys.readouterr().err
        assert (out / "stats.csv").read_bytes() == (corpus / "stats.csv").read_bytes()
        assert (out / "stats.json").is_dir()

    def test_byte_order_mark_header_is_accepted(self, tmp_path):
        rows = "agent,problem,score,win\na1,g,1.0,1\na1,g,2.5,0\na2,g,4.0,1\na2,g,0.5,0\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(rows, encoding="utf-8")
        marked.write_text("\ufeff" + rows, encoding="utf-8")
        assert run("ingest", "--input", plain, "--out", tmp_path / "plain") == 0
        assert run("ingest", "--input", marked, "--out", tmp_path / "marked") == 0
        assert ((tmp_path / "marked" / "stats.csv").read_bytes()
                == (tmp_path / "plain" / "stats.csv").read_bytes())

    def test_overflowing_scores_are_an_input_error(self, tmp_path, capsys):
        huge = tmp_path / "huge.csv"
        huge.write_text("agent,problem,score,win\na1,g,1e200,1\na1,g,-1e200,0\n")
        assert run("ingest", "--input", huge, "--out", tmp_path / "out") == 2
        assert "(a1, g) score" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @staticmethod
    def huge_noise_stats(tmp_path):
        # two of three agents at stddev 1e200 carry no information; the
        # squared noise scale overflows and must not read as log2(3) bits
        table = full_table({"g": {"win": ((0.5, 0.5, 0.5), (1e200, 1e200, 0.1)),
                                  "score": ((1.0, 1.0, 1.0), (1e200, 1e200, 1.0))}})
        return stats_file(tmp_path, table)

    def test_non_finite_belief_weights_exit_1_without_output(self, tmp_path, capsys):
        stats = self.huge_noise_stats(tmp_path)
        out = tmp_path / "out"
        assert run("info-gain", "--stats", stats, "--out", out) == 1
        assert run("confusion", "--stats", stats, "--problems", "g", "--out", out) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 2
        assert not out.exists()

    def test_select_on_non_finite_belief_weights_exits_1_without_output(self, tmp_path, capsys):
        stats = self.huge_noise_stats(tmp_path)
        out = tmp_path / "out"
        assert run("select", "--stats", stats, "--k", 1, "--out", out) == 1
        assert "error: belief weights are not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_sum_of_finite_terms_exits_1_without_output(self, tmp_path, capsys):
        # each measure's terms are finite, so one measure alone scores; the
        # win and score terms of "g" together overflow
        stats = tmp_path / "stats.csv"
        write_stats_rows(stats, [[agent, "g", measure, mean, 0.1, 10]
                                 for agent, mean in (("a0", 0.0), ("a1", 2.83e153))
                                 for measure in ("win", "score")])
        out = tmp_path / "out"
        for argv in (["info-gain"], ["select"], ["confusion", "--problems", "g"]):
            assert run(*argv, "--stats", stats, "--out", out) == 1
            assert not out.exists()
        assert capsys.readouterr().err.count("error: belief weights are not finite") == 3
        assert run("select", "--stats", stats, "--metric", "win", "--out", out / "win") == 0
        assert run("confusion", "--stats", stats, "--problems", "g", "--metric", "score",
                   "--out", out / "score") == 0

    def test_correlate_domain_error_on_second_measure_writes_nothing(self, tmp_path, capsys):
        # win rates correlate, but every score mean is 5.0, so the score
        # measure has no defined correlation to cluster
        table = full_table({
            p: {"win": (wins, (0.1, 0.1, 0.1)), "score": ((5.0, 5.0, 5.0), (1.0, 1.0, 1.0))}
            for p, wins in (("g1", (0.2, 0.5, 0.9)), ("g2", (0.3, 0.4, 0.8)))
        })
        stats = stats_file(tmp_path, table)
        out = tmp_path / "out"
        assert run("correlate", "--stats", stats, "--out", out) == 1
        assert "error: no problem has a defined correlation" in capsys.readouterr().err
        assert not out.exists()

    def test_correlate_on_huge_means_gives_the_unscaled_r(self, tmp_path):
        # squared deviations of means near 1e200 would overflow; Pearson r
        # is scale-invariant, so it is that of the unscaled profiles
        profiles = {"g": (1, -2, 3, -4), "h": (2, 1, -3, 4), "k": (-1, 3, 2, 1)}
        table = full_table({
            p: {"win": ((0.1, 0.4, 0.6, 0.9), (0.1,) * 4),
                "score": ([1e200 * s for s in signs], (1.0,) * 4)}
            for p, signs in profiles.items()
        })
        stats = stats_file(tmp_path, table)
        out = tmp_path / "out"
        assert run("correlate", "--stats", stats, "--out", out) == 0
        doc = json.loads((out / "correlation_score.json").read_text())
        expected = np.corrcoef(np.array(list(profiles.values()), dtype=float))
        np.testing.assert_allclose(doc["matrix"], expected, rtol=0, atol=1e-15)

    def test_header_only_stats_csv_exits_2_without_output(self, tmp_path, capsys):
        stats = tmp_path / "stats.csv"
        stats.write_text("agent,problem,measure,mean,stddev,count\n")
        out = tmp_path / "out"
        assert run("info-gain", "--stats", stats, "--out", out) == 2
        assert "error: no cells given" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["stats.csv", "stats.json", "playthroughs.csv"])
    @pytest.mark.parametrize(
        "agent, problem, cell, code",
        [("a0", "p\x01x", r"(a0, p\x01x)", "0001"), ("a\uffff", "p", r"(a\uffff, p)", "FFFF")],
        ids=["problem", "agent"],
    )
    def test_name_xml_cannot_hold_exits_2_without_output(
        self, tmp_path, capsys, kind, agent, problem, cell, code
    ):
        agents = [agent, "a1", "a2", "a3"]
        problems = [problem, "q"]
        if kind == "playthroughs.csv":
            rows = [f"{a},{p},{i + j},{(i + j) % 2}" for i, a in enumerate(agents)
                    for j, p in enumerate(problems) for _ in range(2)]
            command = ("ingest", "--input")
            text = "agent,problem,score,win\n" + "\n".join(rows) + "\n"
        else:
            cells = [(a, p, m, (i * j) % 3 / 4, 0.1, 4) for i, a in enumerate(agents)
                     for j, p in enumerate(problems) for m in ("win", "score")]
            command = ("correlate", "--stats")
            if kind == "stats.csv":
                text = "agent,problem,measure,mean,stddev,count\n" + "".join(
                    ",".join(map(str, c)) + "\n" for c in cells
                )
            else:
                keys = ("agent", "problem", "measure", "mean", "stddev", "count")
                text = json.dumps({"cells": [dict(zip(keys, c)) for c in cells]})
        path = tmp_path / kind
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert run(*command, path, "--out", out) == 2
        err = capsys.readouterr().err
        assert f"error: cell '{cell} " in err
        assert f"has a name holding U+{code}, a character XML 1.0 forbids" in err
        assert not out.exists()

    @pytest.mark.parametrize("kind, agents, problems, cell", [
        ("stats.csv", ["", "a"], ["g"], "(, g) win"),
        ("stats.json", ["", "a"], ["g"], "(, g) win"),
        ("stats.json", ["a", "b"], [" ", "g"], "(a,  ) win"),
    ], ids=["csv-empty-agent", "json-empty-agent", "json-blank-problem"])
    def test_blank_name_exits_2_without_output(
        self, tmp_path, capsys, kind, agents, problems, cell
    ):
        cells = [(a, p, m, i / 4 + j / 8, 0.1, 4) for i, a in enumerate(agents)
                 for j, p in enumerate(problems) for m in ("win", "score")]
        stats = tmp_path / kind
        if kind == "stats.csv":
            write_stats_rows(stats, cells)
        else:
            keys = ("agent", "problem", "measure", "mean", "stddev", "count")
            stats.write_text(json.dumps({"cells": [dict(zip(keys, c)) for c in cells]}))
        out = tmp_path / "out"
        assert run("info-gain", "--stats", stats, "--out", out) == 2
        assert f"error: cell '{cell}' has an empty or blank name" in capsys.readouterr().err
        assert not out.exists()

    def test_lone_surrogate_in_a_stats_json_name_exits_2_without_output(self, tmp_path, capsys):
        # JSON can spell a lone surrogate, which no UTF-8 output can hold
        stats = tmp_path / "stats.json"
        stats.write_text(stats_json({"problem": "g\ud800"}))
        out = tmp_path / "out"
        assert run("correlate", "--stats", stats, "--out", out) == 2
        assert r"error: cell '(a, g\ud800) win' has a name holding U+D800" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_missing_measure_exits_2_without_output(self, tmp_path, capsys):
        table = score_table({"g": ((0.0, 1.0, 2.0), (1.0, 1.0, 1.0))})
        stats = stats_file(tmp_path, table)
        out = tmp_path / "out"
        assert run("select", "--stats", stats, "--k", 1, "--out", out) == 2
        assert "no cell for problem 'g' measure 'win'" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def fuzz_corpus(tmp_path_factory):
    """Playthroughs and stats for the flag fuzz test, built once."""
    data = tmp_path_factory.mktemp("fuzz")
    assert run("synth", "--agents", 3, "--problems", 4, "--samples", 2,
               "--seed", 5, "--out", data) == 0
    assert run("ingest", "--input", data / "playthroughs.csv", "--out", data) == 0
    return data


@pytest.mark.parametrize("flag", ["eps-gain", "threshold", "sigma-floor", "gap", "sigma"])
@settings(max_examples=15, deadline=None)
@given(value=st.floats())
@example(value=5e-324)  # the smallest subnormal
@example(value=1e-309)
@example(value=2.2250738585072014e-308)  # the smallest normal
@example(value=1e308)
@example(value=math.inf)
@example(value=-math.inf)
@example(value=math.nan)
@example(value=0.0)
@example(value=-0.0)
def test_float_flags_exit_with_a_code_and_no_traceback(fuzz_corpus, flag, value):
    command = {
        "eps-gain": ("select", "--stats", fuzz_corpus / "stats.csv"),
        "threshold": ("correlate", "--stats", fuzz_corpus / "stats.csv"),
        "sigma-floor": ("ingest", "--input", fuzz_corpus / "playthroughs.csv"),
        "gap": ("synth", "--agents", 3, "--problems", 4, "--samples", 2),
        "sigma": ("synth", "--agents", 3, "--problems", 4, "--samples", 2),
    }[flag]
    with tempfile.TemporaryDirectory() as out:
        # --flag=value, so argparse reads "-inf" as a value, not an option
        assert run(*command, f"--{flag}={value!r}", "--out", out) in (0, 1, 2)


FUZZ_NAMES = st.sampled_from(["a", "b", "c", "x,y", 'q"u', "<&>", "é", " pad ", "p\x01x", "\t"])
FUZZ_FINITE = st.sampled_from(["0", "0.25", "0.5", "-1", "3", "7", "1e308", "-1e308", "1e-308"])
FUZZ_ODD = st.sampled_from(["inf", "-inf", "nan", "-0.1"])
# the repro of a control character in a problem name, which once gave a
# heatmap that is not XML and still exited 0
CONTROL_CHARACTER_ROWS = [
    [f"a{i}", p, m, str((i * j) % 3 / 4), "0.1", "4"]
    for i in range(4) for j, p in enumerate(["p\x01x", "q", "r"]) for m in ("win", "score")
]


@st.composite
def stats_rows(draw):
    """A complete stats table over odd names and finite numbers up to
    1e±308; about half get one non-finite or negative stat, or a row
    dropped or repeated."""
    agents = draw(st.lists(FUZZ_NAMES, min_size=2, max_size=5, unique=True))
    problems = draw(st.lists(FUZZ_NAMES, min_size=1, max_size=3, unique=True))
    rows = [
        [a, p, m, draw(FUZZ_FINITE), draw(st.sampled_from(["0", "0.1", "1", "1e308"])),
         draw(st.sampled_from(["1", "3"]))]
        for a in agents for p in problems for m in ("win", "score")
    ]
    i = draw(st.integers(0, len(rows) - 1))
    edit = draw(st.sampled_from(["none", "none", "none", "stat", "drop", "repeat"]))
    if edit == "stat":
        rows[i][draw(st.sampled_from([3, 4]))] = draw(FUZZ_ODD)
    elif edit != "none":
        row = rows.pop(i)
        rows += [row, row] if edit == "repeat" else []
    return rows


def write_stats_rows(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerows([["agent", "problem", "measure", "mean", "stddev", "count"],
                                 *rows])


@settings(max_examples=40, deadline=None)
@given(rows=stats_rows())
@example(rows=CONTROL_CHARACTER_ROWS)
def test_correlate_fuzz_exits_with_a_code_and_writes_parseable_svg(rows):
    with tempfile.TemporaryDirectory() as tmp:
        stats = Path(tmp) / "stats.csv"
        write_stats_rows(stats, rows)
        out = Path(tmp) / "out"
        code = run("correlate", "--stats", stats, "--out", out)
        assert code in (0, 1, 2)
        if code == 0:
            for name in ("heatmap_win.svg", "heatmap_score.svg"):
                ET.parse(out / name)


# config lines for the stats commands: valid, out of range, unparseable,
# outside the choices, a required option, a comment, a blank and no "="
FUZZ_CONFIG = st.sampled_from(
    ["k=2", "k=0", "k=-1", "k=abc", "metric=win", "metric=score", "metric=bogus", "noise=rss",
     "noise=loud", "eps-gain=1e-309", "eps-gain=nan", "eps-gain=-1", "per-key=yes",
     "per-key=maybe", "format=json", "format=csv,svg", "format=bogus", "problems=a",
     "# comment", "", "no equals sign"]
)


@settings(max_examples=40, deadline=None)
@given(rows=stats_rows(), command=st.sampled_from(["info-gain", "select", "confusion"]),
       config=st.lists(FUZZ_CONFIG, max_size=4), data=st.data())
def test_stats_command_fuzz_exits_with_a_code_and_no_traceback(rows, command, config, data):
    argv = [command]
    if command == "confusion":
        names = data.draw(st.lists(FUZZ_NAMES | st.just("missing"), min_size=1, max_size=3))
        argv.append(f"--problems={','.join(names)}")
    with tempfile.TemporaryDirectory() as tmp:
        stats, cfg = Path(tmp) / "stats.csv", Path(tmp) / "run.conf"
        write_stats_rows(stats, rows)
        cfg.write_text("".join(line + "\n" for line in config), encoding="utf-8")
        # an exception escaping main is the traceback the exit contract forbids
        code = run(*argv, "--stats", stats, "--config", cfg, "--out", Path(tmp) / "out")
    assert code in (0, 1, 2)


class TestConfigFile:
    def test_config_supplies_defaults(self, corpus, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("# selection settings\nk=2\nmetric=score\n")
        run("select", "--stats", corpus / "stats.csv", "--out", corpus,
            "--config", cfg)
        doc = json.loads((corpus / "selection.json").read_text())
        assert doc["mode"] == "score"
        assert len(doc["steps"]) <= 2

    def test_flags_override_config(self, corpus, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("k=5\n")
        run("select", "--stats", corpus / "stats.csv", "--out", corpus,
            "--config", cfg, "--k", "1")
        doc = json.loads((corpus / "selection.json").read_text())
        assert len(doc["steps"]) == 1

    def test_byte_order_mark_is_skipped(self, corpus, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("\ufeffk=1\n", encoding="utf-8")
        assert run("select", "--stats", corpus / "stats.csv", "--out", corpus,
                   "--config", cfg) == 0
        doc = json.loads((corpus / "selection.json").read_text())
        assert len(doc["steps"]) == 1

    def test_malformed_config(self, corpus, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("just words\n")
        assert run("select", "--stats", corpus / "stats.csv", "--out", corpus,
                   "--config", cfg) == 2

    def test_bad_config_value(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text("k=abc\n")
        assert run("select", "--stats", corpus / "stats.csv", "--out", corpus,
                   "--config", cfg) == 2
        assert "config key" in capsys.readouterr().err

    def test_config_value_outside_choices(self, corpus, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("metric=bogus\n")
        assert run("select", "--stats", corpus / "stats.csv", "--out", corpus,
                   "--config", cfg) == 2

    @pytest.mark.parametrize("token, mode", [("yes", "per-key"), ("no", "combined")])
    def test_config_boolean(self, corpus, tmp_path, token, mode):
        cfg = tmp_path / "run.conf"
        cfg.write_text(f"k=2\nper-key={token}\n")
        assert run("select", "--stats", corpus / "stats.csv", "--out", corpus,
                   "--config", cfg) == 0
        doc = json.loads((corpus / "selection.json").read_text())
        assert doc["mode"] == mode

    def test_non_boolean_config_flag_exits_2(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text("per-key=maybe\n")
        out = tmp_path / "out"
        assert run("select", "--stats", corpus / "stats.csv", "--out", out,
                   "--config", cfg) == 2
        assert "error: config key 'per-key': not a boolean: 'maybe'" in capsys.readouterr().err
        assert not out.exists()

    def test_unreadable_config_file_exits_2(self, corpus, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("select", "--stats", corpus / "stats.csv", "--out", out,
                   "--config", tmp_path / "missing.conf") == 2
        assert "error: cannot read config file" in capsys.readouterr().err
        assert not out.exists()

    def test_config_key_of_another_command_is_ignored(self, corpus, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("k=0\n")
        assert run("correlate", "--stats", corpus / "stats.csv", "--out", corpus,
                   "--config", cfg) == 0

    def test_config_key_no_command_takes_is_named_in_one_warning(self, corpus, tmp_path):
        # "eps_gain" is not "eps-gain" and "stats" must be a flag, so neither
        # sets anything; "threshold" is correlate's and stays silent
        cfg = tmp_path / "run.conf"
        cfg.write_text("eps_gain=0.5\nthreshold=0.5\nstats=other.csv\nk=2\n")
        with pytest.warns(UserWarning) as caught:
            assert run("select", "--stats", corpus / "stats.csv", "--out", corpus,
                       "--config", cfg) == 0
        assert [str(w.message) for w in caught] == [
            "config key(s) no command takes from a config file: eps_gain, stats"]

    @pytest.mark.parametrize("argv", [
        ("info-gain", "--stats", "stats.csv", "--sigma-floor", "1"),
        ("synth", "--format", "csv"),
    ])
    def test_flag_the_command_does_not_read_is_a_usage_error(self, argv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--out", tmp_path)
        assert exc.value.code == 2


def unit_noise(values):
    vals = tuple(values)
    return (vals, (1.0,) * len(vals))


def blocky_stats(tmp_path):
    """Two anti-correlated blocks plus one flat (undefined) problem."""
    up = (1.0, 2.0, 3.0, 4.0)
    down = up[::-1]
    table = full_table(
        {
            "up_a": {"win": (up, (0.4,) * 4), "score": (up, (1.0,) * 4)},
            "up_b": {"win": (up, (0.4,) * 4), "score": unit_noise(2 * x for x in up)},
            "down_a": {"win": (down, (0.4,) * 4), "score": (down, (1.0,) * 4)},
            "flat": {"win": ((0.5,) * 4, (0.4,) * 4), "score": ((3.0,) * 4, (1.0,) * 4)},
        }
    )
    return stats_file(tmp_path, table)


class TestHeatmap:
    @pytest.fixture
    def heatmap_run(self, tmp_path):
        stats = blocky_stats(tmp_path)
        out = tmp_path / "out"
        assert run("correlate", "--stats", stats, "--out", out) == 0
        return out

    def test_svg_is_well_formed_xml(self, heatmap_run):
        for name in ("heatmap_win.svg", "heatmap_score.svg"):
            root = ET.fromstring((heatmap_run / name).read_text())
            assert root.tag.endswith("svg")

    def test_cell_colors_invert_to_matrix_values(self, heatmap_run):
        doc = json.loads((heatmap_run / "correlation_score.json").read_text())
        matrix = doc["matrix"]
        problems = doc["problems"]
        order = [p for group in doc["clusters"] for p in group]
        order += doc["no_correlation_measure"]
        cells = read_heatmap_cells((heatmap_run / "heatmap_score.svg").read_text())
        assert len(cells) == len(order) ** 2
        for (row, col), value in cells.items():
            i = problems.index(order[row])
            j = problems.index(order[col])
            expected = matrix[i][j]
            if expected is None:
                assert value is None
            else:
                assert value == pytest.approx(expected, abs=0.5 / 255 + 1e-12)

    def test_flat_problem_is_grey_and_reported(self, heatmap_run):
        doc = json.loads((heatmap_run / "correlation_score.json").read_text())
        assert doc["no_correlation_measure"] == ["flat"]
        cells = read_heatmap_cells((heatmap_run / "heatmap_score.svg").read_text())
        n = 4
        # the flat problem sits last in display order; its row is all grey
        assert all(cells[(n - 1, c)] is None for c in range(n))

    def test_black_separators_at_cluster_boundaries(self, heatmap_run):
        doc = json.loads((heatmap_run / "correlation_score.json").read_text())
        n_boundaries = len(doc["clusters"]) - 1 + (1 if doc["no_correlation_measure"] else 0)
        svg = (heatmap_run / "heatmap_score.svg").read_text()
        root = ET.fromstring(svg)
        lines = [el for el in root.iter("{http://www.w3.org/2000/svg}line")
                 if el.get("stroke") == "black"]
        assert len(lines) == 2 * n_boundaries

    def test_problem_names_are_escaped(self, tmp_path):
        name = "a&b<c>\"d'e"
        up = (1.0, 2.0, 3.0, 4.0)
        table = full_table({
            p: {"win": (values, (0.4,) * 4), "score": unit_noise(values)}
            for p, values in ((name, up), ("down", up[::-1]), ("tilt", (1.0, 3.0, 2.0, 4.0)))
        })
        stats = stats_file(tmp_path, table)
        assert run("correlate", "--stats", stats, "--out", tmp_path, "--format", "svg") == 0
        svg = (tmp_path / "heatmap_score.svg").read_text()
        escaped = "a&amp;b&lt;c&gt;\"d'e"
        assert f"<title>{escaped} / {escaped}: " in svg
        assert svg.count(f">{escaped}</text>") == 2
        root = ET.fromstring(svg)
        texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
        assert texts.count(name) == 2

    def test_cluster_assignment_csv(self, heatmap_run):
        with open(heatmap_run / "clusters_score.csv") as f:
            rows = {r[0]: r[1] for r in list(csv.reader(f))[1:]}
        assert rows["flat"] == ""
        assert rows["up_a"] == rows["up_b"] != rows["down_a"]


class TestConfusionCommand:
    def test_csv_has_agents_as_header_and_column(self, corpus):
        run("confusion", "--stats", corpus / "stats.csv",
            "--problems", "prob00", "--metric", "score", "--out", corpus)
        with open(corpus / "confusion.csv") as f:
            rows = list(csv.reader(f))
        agents = rows[0][1:]
        assert [r[0] for r in rows[1:]] == agents
        for row in rows[1:]:
            assert math.fsum(float(v) for v in row[1:]) == pytest.approx(1.0, abs=1e-9)

    def test_requires_problem_list(self, corpus):
        assert run("confusion", "--stats", corpus / "stats.csv", "--out", corpus,
                   "--problems", "") == 2


class TestSynthCommand:
    def test_mixed_includes_duplicates(self, tmp_path):
        run("synth", "--agents", 3, "--problems", 8, "--samples", 5,
            "--seed", 1, "--out", tmp_path)
        text = (tmp_path / "playthroughs.csv").read_text()
        assert "prob07" in text

    def test_per_archetype_flag(self, tmp_path):
        assert run("synth", "--agents", 3, "--problems", 2, "--samples", 5,
                   "--seed", 1, "--archetype", "two-cluster", "--out", tmp_path) == 0

    def test_seed_reproducibility(self, tmp_path):
        run("synth", "--agents", 3, "--problems", 2, "--samples", 10,
            "--seed", 4, "--out", tmp_path / "a")
        run("synth", "--agents", 3, "--problems", 2, "--samples", 10,
            "--seed", 4, "--out", tmp_path / "b")
        assert (tmp_path / "a/playthroughs.csv").read_bytes() == \
            (tmp_path / "b/playthroughs.csv").read_bytes()

    @pytest.mark.parametrize("setting", [("--gap", "1e308"),
                                         ("--archetype", "linear", "--sigma", "1e308")],
                             ids=["gap", "sigma"])
    def test_overflowing_gap_or_sigma_exits_2(self, tmp_path, capsys, setting):
        assert run("synth", "--agents", 3, "--problems", 2, *setting, "--out", tmp_path) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "playthroughs.csv").exists()


class TestPerKeyFlag:
    def test_select_per_key_ids(self, corpus):
        run("select", "--stats", corpus / "stats.csv", "--k", 2,
            "--per-key", "--out", corpus)
        doc = json.loads((corpus / "selection.json").read_text())
        assert doc["mode"] == "per-key"
        for step in doc["steps"]:
            problem, _, measure = step["problem"].partition(":")
            assert measure in ("win", "score")
