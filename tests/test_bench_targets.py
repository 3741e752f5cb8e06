"""The names the benchmark under perfbench/ reaches into still exist, and
its cheapest cells still print its stored rows.

The tracer wraps its targets by module attribute and only reports a
missing one, and the micro-benchmarks call channel and precision
functions by name, so a refactor that drops or renames one of them
would otherwise pass every other test.  The benchmark's output gate
compares every row with ``perfbench/reference.json``; a count, column or
``tool_version`` change fails it, and fails here first.
"""

import contextlib
import importlib.util
import io
import pathlib
import sys
from unittest import mock

import pytest

from skfb import channel, precision
from skfb.cli import main
from skfb.core import SkConfig
from skfb.engine import estimate_ber
from skfb.precision import PrecisionMode

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


_TRACING = _perfbench("tracing")
_WORKLOADS = _perfbench("workloads")
_GATE = _perfbench("gate")


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


def test_every_probe_runs_under_the_tracer():
    # a probe that reads a renamed attribute loses its counts without
    # failing the run; small cells at every width, one with a noisy
    # feedback link, reach every traced function
    cells = [SkConfig(k=2, n_total=6, precision=PrecisionMode(width), seed=width)
             for width in precision.WIDTHS]
    cells.append(SkConfig(k=2, n_total=6, feedback_snr_db=20.0, seed=1))
    with _TRACING.Tracer() as tracer:
        for cfg in cells:
            estimate_ber(cfg, 100)
    spans = [span for thread in tracer.take() for span in thread]
    assert tracer.probe_errors == 0
    assert tracer.missing == {}
    probed = {t.span for t in _TRACING.TARGETS if t.probe is not None}
    assert probed <= {name for name, *_ in spans}
    assert all(counts is not None for name, *_, counts in spans if name in probed)
    tags = {counts["_tag"] for name, *_, counts in spans if name == _TRACING.QUANTIZE}
    assert tags == {f"w{width}" for width in precision.WIDTHS}


_W8_CALLS = [call for call in _WORKLOADS.cell_list("precision_grid", _WORKLOADS.DEFAULT_SEED)
             if call.label.startswith("w8.")]


@pytest.mark.parametrize("call", _W8_CALLS, ids=lambda call: call.label)
def test_the_8_bit_grid_cells_print_the_benchmarks_stored_rows(call):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(call.argv)) == 0
    rows = [_GATE.stable_row(row) for row in _GATE.parse_rows(out.getvalue())]
    stored = _GATE.load_reference("precision_grid", _WORKLOADS.DEFAULT_SEED)
    assert rows == stored[call.label]
