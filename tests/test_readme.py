"""The README's library example runs as written on a synth corpus, and
its flag table lists each command's flags and defaults as the parser
declares them."""

import math
import re
from pathlib import Path

import pytest

from infobench.cli import build_parser, main

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


def flag_table() -> dict[str, str]:
    """README's flag table: each command's flags cell, by command."""
    table = README.read_text(encoding="utf-8").split("\n| command | flags |\n|---|---|\n", 1)[1]
    table = table.split("\n\n", 1)[0]
    return dict(re.fullmatch(r"\| `([\w-]+)` \| (.*) \|", row).groups() for row in table.splitlines())


COMMANDS = next(a for a in build_parser()._actions if a.dest == "command").choices


def test_flag_table_has_a_row_per_command():
    assert flag_table().keys() == COMMANDS.keys()


# every command takes these, and the text above the table names them
UNLISTED = {"--help", "--out", "--config"}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_flag_table_row_matches_the_parser(command):
    # a flag is `--name ...`, and a default follows it as ` (value)`
    flags = re.findall(r"`(--[\w-]+)[^`]*`(?: \(`?([^`)]*)`?\))?", flag_table()[command])
    options = {o: a for a in COMMANDS[command]._actions for o in a.option_strings}
    listed = [flag for flag, _ in flags]
    assert len(set(listed)) == len(listed)
    assert set(listed) == {o for o in options if o.startswith("--")} - UNLISTED
    for flag, default in flags:
        if default:
            action = options[flag]
            assert (action.type or str)(default) == action.default, flag
