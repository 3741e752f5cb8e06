"""Every demo imports against the current library without running."""

import importlib.util
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports(path):
    # each demo runs only under its __main__ guard, so loading it checks
    # the names it imports from skfb and nothing else
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
