"""The README's examples run as written, and its stated sizes are the code's."""

import pathlib
import re
import shlex

import pytest

from skfb.channel import NOISE_PART_TRIALS
from skfb.cli import build_parser
from skfb.engine import BLOCK_VARIATES, CHUNK_TRIALS

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _block(heading: str, lang: str) -> str:
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs(capsys):
    exec(compile(_block("Library", "python"), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].startswith("variant,k,n_total,")  # after the oracle and the row
    assert len(lines) == 2 + 1 + 21 + 1  # the sweep's header, 21 rows, print's blank line


def test_command_line_examples_parse():
    calls = _block("Command line", "sh").replace("\\\n", " ").splitlines()
    assert calls and all(call.startswith("skfb ") for call in calls)
    parser = build_parser()
    for call in calls:
        parser.parse_args(shlex.split(call)[1:])  # a usage error exits the test


@pytest.mark.parametrize("pattern, value", [
    pytest.param(r"([\d,]+)-trial grid", CHUNK_TRIALS, id="grid"),
    pytest.param(r"parts? of (?:at most )?([\d,]+) trials", NOISE_PART_TRIALS, id="part"),
    pytest.param(r"(\d+) MiB of noise per noisy channel", BLOCK_VARIATES * 8 // 2**20,
                 id="budget-mib"),
])
def test_the_stated_block_sizes_match_the_code(pattern, value):
    text = " ".join(README.read_text(encoding="utf-8").split())  # one line
    stated = {int(number.replace(",", "")) for number in re.findall(pattern, text)}
    assert stated == {value}
