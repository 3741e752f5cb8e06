"""The README's library example runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs(capsys):
    exec(compile(_library_block(), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].startswith("variant,k,n_total,")  # after the oracle and the row
    assert len(lines) == 2 + 1 + 21 + 1  # the sweep's header, 21 rows, print's blank line
