"""The command-line runs that tests start import the skfb they test.

``pyproject.toml`` puts ``src`` on pytest's import path, which a child
process does not inherit, so the tree's ``src`` goes first on the
``PYTHONPATH`` the children see.
"""

import os
import pathlib

import pytest

import skfb


@pytest.fixture(autouse=True, scope="session")
def _children_import_this_skfb():
    src = str(pathlib.Path(skfb.__file__).resolve().parent.parent)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        yield
