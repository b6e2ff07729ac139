"""The README's library example runs as written on a synth corpus."""

import math
import re
from pathlib import Path

import pytest

from infobench.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The first ``python`` block under README's "## Library use"."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


# at 20 samples some win cells have no variance and aggregate floors them
@pytest.mark.filterwarnings("ignore:.*sub-floor variance:UserWarning")
def test_library_example_runs_on_a_synth_corpus(tmp_path, capsys):
    code = library_example()
    assert '"data/playthroughs.csv"' in code
    assert main(["synth", "--agents", "5", "--problems", "12", "--samples", "20",
                 "--seed", "3", "--out", str(tmp_path)]) == 0
    code = code.replace('"data/playthroughs.csv"', repr(str(tmp_path / "playthroughs.csv")))
    capsys.readouterr()
    names = {}
    exec(compile(code, str(README), "exec"), names)
    assert 0 < names["gain"] <= math.log2(5)
    steps = names["report"].steps
    assert steps
    assert capsys.readouterr().out.splitlines() == [
        f"{step.problem} {step.marginal_bits} {step.cumulative_bits}" for step in steps
    ]
    assert sorted(names["clusters"].display_order) == sorted(names["corr"].problems)
