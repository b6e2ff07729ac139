"""Peak memory of single CLI steps, each spawned alone by ``run_alone.py``:
each corpus runs synth, ingest and every later step a row of ``BOUNDS``
names for it, once, and each row asserts one step's own peak."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import infobench

pytestmark = pytest.mark.skipif(not (hasattr(os, "posix_spawn") and hasattr(os, "wait4")),
                                reason="needs os.posix_spawn and os.wait4")

# the synth flags of each corpus
CORPORA = {
    "stress": ("--agents", "50", "--problems", "250", "--samples", "5"),
    "paper": ("--agents", "27", "--problems", "108", "--samples", "200"),
    "wide": ("--agents", "200", "--problems", "60", "--samples", "5"),
    "large": ("--agents", "200", "--problems", "500", "--samples", "5"),
}

# (corpus, step, bound in MB), each with the peak the bound rules out
BOUNDS = [
    # holding each heatmap's whole SVG text and row strings: about 53 MB
    ("stress", "correlate", 46),
    # holding the 583,200 rows as a list of tuples, not as columns of
    # codes, scores and wins: about 103 and 109 MB
    ("paper", "synth", 90),
    ("paper", "ingest", 90),
    # holding each log-weight term as a whole n x n array, not its upper
    # triangle: info-gain and select at about 73 MB
    ("wide", "synth", 64),
    ("wide", "info-gain", 64),
    ("wide", "select", 64),
    # holding stats.json's whole text, not writing it piece by piece as it
    # is made: about 52 MB
    ("wide", "ingest", 48),
    # a dict entry and a stats-row tuple per cell in aggregate, and
    # stats.json's cells held as a list of dicts: about 130 MB
    ("large", "ingest", 90),
    # a str and two floats per stats row kept until the table is built,
    # and each correlation matrix held as nested lists for its JSON:
    # about 76 MB
    ("large", "correlate", 64),
]


def corpus_steps(corpus: str, out: str) -> list[list[str]]:
    stats = ("--stats", f"{out}/stats.csv")
    later = {"info-gain": ["info-gain", *stats], "select": ["select", *stats, "--k", "15"],
             "correlate": ["correlate", *stats]}
    named = {step for c, step, _ in BOUNDS if c == corpus}
    steps = [["synth", *CORPORA[corpus]], ["ingest", "--input", f"{out}/playthroughs.csv"]]
    return [[*argv, "--out", out] for argv in steps + [later[s] for s in later if s in named]]


@pytest.fixture(scope="module")
def peaks(tmp_path_factory):
    """``peaks(corpus)`` runs the corpus's steps once and gives
    ``{step: [exit status, peak RSS in MB]}`` and their stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(infobench.__file__).parents[1]))

    @functools.cache
    def peaks(corpus):
        steps = corpus_steps(corpus, str(tmp_path_factory.mktemp(corpus)))
        done = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run_alone.py")), json.dumps(steps)],
            env=env, capture_output=True, text=True, check=True)
        return dict(zip((argv[0] for argv in steps), json.loads(done.stdout))), done.stderr

    return peaks


@pytest.mark.parametrize("corpus, step, bound", BOUNDS)
def test_step_run_alone_peaks_within_its_bound(peaks, corpus, step, bound):
    results, stderr = peaks(corpus)
    status, mb = results.get(step, (None, None))
    assert status == 0, f"{corpus} {step} did not succeed; statuses and peaks: {results}\n{stderr}"
    assert mb <= bound, f"{corpus} {step} peaked at {mb:.1f} MB, above {bound} MB"
