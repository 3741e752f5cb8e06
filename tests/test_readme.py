"""The README's examples run as written, and its stated sizes and flags
are the code's."""

import argparse
import ast
import pathlib
import re
import shlex

import pytest

import skfb
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


def test_every_name_the_library_example_imports_is_exported():
    imports = [node for node in ast.walk(ast.parse(_block("Library", "python")))
               if isinstance(node, ast.ImportFrom) and node.module == "skfb"]
    names = [alias.name for node in imports for alias in node.names]
    assert names
    assert [name for name in names if not hasattr(skfb, name)] == []


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


def _readme_flag_table() -> dict[str, set[str]]:
    """Each subcommand of the README's table and its flags, with "cell
    flags", "run flags" and "K range" expanded from their bullets."""
    text = README.read_text(encoding="utf-8")

    def flags(cell: str) -> set[str]:
        return set(re.findall(r"`(--[\w-]+)", cell))

    groups = {
        name.lower(): flags(body)
        for name, body in re.findall(r"^\* (Cell flags|Run flags|K range): (.*?)\n(?!  )",
                                     text, re.MULTILINE | re.DOTALL)
    }
    assert len(groups) == 3
    table = {}
    for command, cell in re.findall(r"^\| `([\w-]+)` \| (.*) \|$", text, re.MULTILINE):
        table[command] = flags(cell).union(
            *(members for name, members in groups.items() if name in cell.lower())
        )
    return table


def _parser_flags() -> dict[str, set[str]]:
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        command: {flag for action in parser._actions for flag in action.option_strings}
        - {"-h", "--help"}
        for command, parser in sub.choices.items()
    }


def test_the_flag_table_names_every_subcommand():
    assert sorted(_readme_flag_table()) == sorted(_parser_flags())


@pytest.mark.parametrize("command", sorted(_parser_flags()))
def test_the_flag_table_lists_each_subcommands_flags(command):
    assert _readme_flag_table().get(command) == _parser_flags()[command]
