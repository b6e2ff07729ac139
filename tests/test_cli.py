import csv
import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conftest import full_table, score_table
from infobench.cli import main
from infobench.perf import write_stats_csv
from reference_heatmap import read_heatmap_cells


def run(*argv):
    return main([str(a) for a in argv])


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
        stats = tmp_path / "stats.csv"
        with open(stats, "w", newline="") as f:
            write_stats_csv(table, f)
        assert run("info-gain", "--stats", stats, "--out", tmp_path) == 0
        with open(tmp_path / "info_gain.csv") as f:
            rows = {r[0]: r for r in list(csv.reader(f))[1:]}
        assert float(rows["loseonly"][1]) == pytest.approx(0.0, abs=1e-12)
        assert float(rows["loseonly"][3]) == pytest.approx(
            float(rows["loseonly"][2]), abs=1e-12
        )
        assert all(float(v) == pytest.approx(0.0, abs=1e-12) for v in rows["dull"][1:])

    def test_json_outputs_reemit_byte_identically(self, corpus):
        run("info-gain", "--stats", corpus / "stats.csv", "--out", corpus)
        run("select", "--stats", corpus / "stats.csv", "--k", 3, "--out", corpus)
        for name in ("stats.json", "info_gain.json", "selection.json"):
            text = (corpus / name).read_text()
            again = json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
            assert text == again, name

    def test_format_filtering(self, corpus):
        out = corpus / "csvonly"
        run("info-gain", "--stats", corpus / "stats.csv", "--out", out,
            "--format", "csv")
        assert (out / "info_gain.csv").exists()
        assert not (out / "info_gain.json").exists()


class TestExitCodes:
    def test_parse_error_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("agent,problem,score,win\na1,g,NaN,1\n")
        assert run("ingest", "--input", bad, "--out", tmp_path) == 2
        assert "line 2" in capsys.readouterr().err

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

    def test_domain_error_exit_code(self, tmp_path, capsys):
        # correlation over two agents is undefined
        table = score_table({"g": ((0.0, 1.0), (1.0, 1.0)),
                             "h": ((1.0, 0.0), (1.0, 1.0))})
        stats = tmp_path / "stats.csv"
        with open(stats, "w", newline="") as f:
            write_stats_csv(table, f)
        assert run("correlate", "--stats", stats, "--out", tmp_path) == 1
        assert "three agents" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command, key, value", [
        ("select", "k", "0"),
        ("select", "eps-gain", "0"),
        ("correlate", "threshold", "0"),
        ("correlate", "threshold", "nan"),
        ("ingest", "sigma-floor", "0"),
        ("synth", "samples", "0"),
        ("synth", "agents", "0"),
        ("synth", "problems", "0"),
        ("synth", "gap", "0"),
        ("synth", "sigma", "0"),
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
        assert ("line 3" if kind == "playthroughs" else "line 2") in err
        assert not out.exists()

    @pytest.mark.parametrize("document", ["[]", '"x"'])
    def test_stats_json_that_is_not_an_object_exits_2(self, tmp_path, capsys, document):
        stats = tmp_path / "stats.json"
        stats.write_text(document)
        out = tmp_path / "out"
        assert run("info-gain", "--stats", stats, "--out", out) == 2
        assert "not object" in capsys.readouterr().err
        assert not out.exists()

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
        stats = tmp_path / "stats.csv"
        with open(stats, "w", newline="") as f:
            write_stats_csv(table, f)
        return stats

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

    def test_correlate_domain_error_on_second_measure_writes_nothing(self, tmp_path, capsys):
        # win rates correlate, but every score mean is 5.0, so the score
        # measure has no defined correlation to cluster
        table = full_table({
            p: {"win": (wins, (0.1, 0.1, 0.1)), "score": ((5.0, 5.0, 5.0), (1.0, 1.0, 1.0))}
            for p, wins in (("g1", (0.2, 0.5, 0.9)), ("g2", (0.3, 0.4, 0.8)))
        })
        stats = tmp_path / "stats.csv"
        with open(stats, "w", newline="") as f:
            write_stats_csv(table, f)
        out = tmp_path / "out"
        assert run("correlate", "--stats", stats, "--out", out) == 1
        assert "error: no problem has a defined correlation" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_measure_exits_2_without_output(self, tmp_path, capsys):
        table = score_table({"g": ((0.0, 1.0, 2.0), (1.0, 1.0, 1.0))})
        stats = tmp_path / "stats.csv"
        with open(stats, "w", newline="") as f:
            write_stats_csv(table, f)
        out = tmp_path / "out"
        assert run("select", "--stats", stats, "--k", 1, "--out", out) == 2
        assert "no cell for problem 'g' measure 'win'" in capsys.readouterr().err
        assert not out.exists()


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

    def test_config_key_of_another_command_is_ignored(self, corpus, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("k=0\n")
        assert run("correlate", "--stats", corpus / "stats.csv", "--out", corpus,
                   "--config", cfg) == 0

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
    stats = tmp_path / "stats.csv"
    with open(stats, "w", newline="") as f:
        write_stats_csv(table, f)
    return stats


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


class TestPerKeyFlag:
    def test_select_per_key_ids(self, corpus):
        run("select", "--stats", corpus / "stats.csv", "--k", 2,
            "--per-key", "--out", corpus)
        doc = json.loads((corpus / "selection.json").read_text())
        assert doc["mode"] == "per-key"
        for step in doc["steps"]:
            problem, _, measure = step["problem"].partition(":")
            assert measure in ("win", "score")
