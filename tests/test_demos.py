"""Every demo imports against the current library and prints its
recorded output."""

import importlib.util
import pathlib

import pytest

HERE = pathlib.Path(__file__).resolve().parent
DEMOS = sorted((HERE.parent / "demos").glob("*.py"))


def _load(path):
    # each demo runs only under its __main__ guard, so loading it checks
    # the names it imports from skfb and nothing else
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports(path):
    assert callable(_load(path).main)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_output_matches_golden(path, capsys):
    # every demo's table is a pure function of its fixed seeds and
    # budgets, for any worker count; the golden file is its stdout
    assert _load(path).main() == 0
    want = (HERE / "golden" / f"{path.stem}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want
