"""Golden output of ``measure_symbol_power``.

The CLI golden CSVs never reach the symbol-power measurement, so its
exact (mean, std-error) at every step of a grid of cells is stored in
``tests/golden/symbol_power.json`` as the ``repr`` of each float.  The
chunk size is patched small, so each value is a sum over several blocks
in block order.  The fixture was recorded with
``PYTHONPATH=src python tests/test_golden_symbol_power.py``; re-record it
only with a declared numerics change.
"""

import json
import math
import pathlib
from unittest import mock

from skfb import engine
from skfb.core import SkConfig, SkVariant
from skfb.engine import measure_symbol_power

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "symbol_power.json"
TRIALS = 300
CHUNK = 128  # five half-chunk blocks, the last one ragged


def _cells() -> dict[str, SkConfig]:
    cells = {
        f"{variant.value}-w{bits}-fb{fb}": SkConfig(
            variant=variant, k=3, n_total=9, feedback_snr_db=fb,
            precision_bits=bits, seed=bits,
        )
        for variant in SkVariant
        for bits in (8, 16, 32, 64)
        for fb in (math.inf, 25.0)
    }
    # alpha overflows at use 11, so every trial sends 0 from there on
    cells["halting-w8-k8-n24"] = SkConfig(k=8, n_total=24, precision_bits=8, seed=1)
    return cells


def _measure_all() -> dict[str, dict[str, list[str]]]:
    out = {}
    with mock.patch.object(engine, "CHUNK_TRIALS", CHUNK):
        for name, cfg in _cells().items():
            power = measure_symbol_power(cfg, TRIALS, range(1, cfg.n_total))
            out[name] = {str(step): [repr(mean), repr(se)] for step, (mean, se) in power.items()}
    return out


def test_symbol_power_matches_golden():
    assert _measure_all() == json.loads(GOLDEN.read_text(encoding="utf-8"))


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_measure_all(), indent=1) + "\n", encoding="utf-8")
