"""The names the benchmark under perfbench/ reaches into still exist.

The tracer wraps its targets by module attribute and only reports a
missing one, and the micro-benchmarks call channel and precision
functions by name, so a refactor that drops or renames one of them
would otherwise pass every other test.
"""

import importlib.util
import pathlib
import sys
from unittest import mock

import pytest

from skfb import channel, precision

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


_TRACING = _tracing()


@pytest.mark.parametrize("target", _TRACING.TARGETS, ids=lambda t: t.wanted)
def test_every_trace_target_resolves(target):
    assert _TRACING._resolve(target.module, target.attr) is not None


@pytest.mark.parametrize(
    "module, name",
    [(channel, "raw_stream"), (channel, "standard_normals"), (channel, "ndtri"),
     (precision, "PrecisionMode"), (precision, "quantize")],
)
def test_the_micro_benchmarks_find_their_functions(module, name):
    assert callable(getattr(module, name, None))


def test_every_noise_word_is_drawn_through_raw_stream_one_tile_at_a_time():
    # the tracer counts the words of RAW<NOISE from raw_stream's calls
    # under standard_normals: 4,133 trials at 150 steps make a ragged
    # last tile, and a worker holds one tile's words, not a part's
    lo, hi, n_steps = 7, 7 + 4133, 150
    stride = channel._stride(n_steps)
    with mock.patch.object(channel, "raw_stream", wraps=channel.raw_stream) as spy:
        channel.standard_normals(3, channel.ROLE_FORWARD, lo, hi, n_steps)
    counts = [call.args[3] for call in spy.call_args_list]
    assert sum(counts) == (hi - lo) * stride
    assert max(counts) <= max(channel._TILE_WORDS, stride)
