"""Every demo imports against the current library without running; the
closed-form demo also prints its recorded output."""

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


def test_power_allocation_matches_golden(capsys):
    # closed form only, so every byte is fixed; the golden file is the
    # demo's stdout
    module = _load(HERE.parent / "demos" / "power_allocation.py")
    assert module.main() == 0
    want = (HERE / "golden" / "power_allocation.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want
