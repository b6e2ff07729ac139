"""Outputs across numpy's SIMD dispatch targets: numpy picks the code for
``exp``, ``log`` and ``log2`` by CPU, so gains may move in their last
digits between CPU classes, but picks and every correlation, cluster and
heatmap byte must not."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import infobench
from infobench.cli import main

try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as umath

# the AVX-512 targets numpy 2 dispatches exp and log to on x86
AVX512_TARGETS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
ENABLED = {t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)}

# runs each argv of the JSON list in argv[1], then prints the dispatch
# targets numpy enabled in this process
CHILD = (
    "import json, sys\n"
    "from infobench.cli import main\n"
    "from numpy._core import _multiarray_umath as umath\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    assert main(argv) == 0, argv\n"
    "print(json.dumps(sorted(t for t in umath.__cpu_dispatch__ if umath.__cpu_features__[t])))\n"
)

SAME_BYTES = [f"{kind}_{measure}.{suffix}" for measure in ("win", "score")
              for kind, suffix in (("correlation", "csv"), ("correlation", "json"),
                                   ("clusters", "csv"), ("heatmap", "svg"))]


@pytest.mark.skipif(not ENABLED.issuperset(AVX512_TARGETS),
                    reason=f"numpy does not dispatch to {', '.join(AVX512_TARGETS)} here")
def test_only_gains_depend_on_the_simd_dispatch_target(tmp_path):
    # with numpy 2.4.6 on an AVX-512 CPU, this corpus's info_gain files
    # differ between the two runs, so the tolerance below is exercised
    data = tmp_path / "data"
    assert main(["synth", "--agents", "20", "--problems", "16", "--samples", "5",
                 "--seed", "61", "--out", str(data)]) == 0
    assert main(["ingest", "--input", str(data / "playthroughs.csv"), "--out", str(data)]) == 0
    stats = ["--stats", str(data / "stats.csv")]
    env = dict(os.environ, PYTHONPATH=str(Path(infobench.__file__).parents[1]))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    outs = []
    for disabled in ("", " ".join(AVX512_TARGETS)):
        out = tmp_path / (disabled.replace(" ", "-") or "default")
        steps = [["info-gain", *stats], ["select", *stats, "--k", "6"], ["correlate", *stats]]
        done = subprocess.run(
            [sys.executable, "-c", CHILD, json.dumps([[*s, "--out", str(out)] for s in steps])],
            env=dict(env, NPY_DISABLE_CPU_FEATURES=disabled) if disabled else env,
            check=True, capture_output=True, text=True)
        seen = set(json.loads(done.stdout.splitlines()[-1]))
        assert seen.isdisjoint(AVX512_TARGETS) if disabled else seen.issuperset(AVX512_TARGETS)
        outs.append(out)
    default, off = outs
    for name in SAME_BYTES:
        assert (default / name).read_bytes() == (off / name).read_bytes(), name
    picks, gains = [], []
    for out in outs:
        steps = json.loads((out / "selection.json").read_text())["steps"]
        picks.append([s["problem"] for s in steps])
        rows = json.loads((out / "info_gain.json").read_text())["gains"]
        bits = {(r["problem"], k): v for r in rows for k, v in r.items() if k != "problem"}
        bits.update(((s["problem"], k), s[k]) for s in steps
                    for k in ("marginal_bits", "cumulative_bits"))
        gains.append(bits)
    assert picks[0] == picks[1]
    assert gains[0].keys() == gains[1].keys()
    np.testing.assert_allclose([gains[1][k] for k in gains[0]], list(gains[0].values()),
                               rtol=0, atol=1e-12)
