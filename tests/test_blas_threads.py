"""OpenBLAS's thread count: importing infobench loads numpy with one BLAS
thread unless the caller chose a count, leaves the environment as it was,
and no output depends on the count."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import infobench
from infobench.cli import main

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
ENV = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
ENV["PYTHONPATH"] = str(Path(infobench.__file__).parents[1])

# prints the process's thread count and its thread variables
REPORT = (
    "import json, os\n"
    "print(json.dumps([len(os.listdir('/proc/self/task')),\n"
    f"                  {{k: os.environ.get(k) for k in {THREAD_VARS!r}}}]))\n"
)


def child_report(imports: str, **variables: str):
    done = subprocess.run([sys.executable, "-c", imports + "\n" + REPORT],
                          env=dict(ENV, **variables), check=True, capture_output=True, text=True)
    threads, seen = json.loads(done.stdout)
    return threads, {k: v for k, v in seen.items() if v is not None}


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="no /proc/self/task here")
class TestImportThreads:
    def test_one_thread_and_no_variable_left(self):
        assert child_report("import infobench") == (1, {})

    @pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_a_count_the_caller_set_is_kept(self, name):
        # nproc may be 1, where OpenBLAS runs one thread whatever is asked
        threads, seen = child_report("import infobench", **{name: "2"})
        assert threads == child_report("import numpy", **{name: "2"})[0]
        assert seen == {name: "2"}

    def test_numpy_imported_first_is_left_alone(self):
        assert child_report("import numpy, infobench") == child_report("import numpy")


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--agents", "12", "--problems", "10", "--samples", "40",
                 "--seed", "3", "--out", str(data)]) == 0
    assert main(["ingest", "--input", str(data / "playthroughs.csv"), "--out", str(data)]) == 0
    stats = ["--stats", str(data / "stats.json")]
    outs = []
    for variables in ({}, {"OPENBLAS_NUM_THREADS": "2"}):
        out = tmp_path / ("default" if not variables else "two")
        for step in (["info-gain"], ["select", "--k", "4"], ["correlate"]):
            subprocess.run([sys.executable, "-m", "infobench", *step, *stats, "--out", str(out)],
                           env=dict(ENV, **variables), check=True, capture_output=True)
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert "selection.json" in names and "heatmap_win.svg" in names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
