"""Golden CSV output of every CLI subcommand.

Each call below has its stdout stored under ``tests/golden/<name>.csv``.
The output must match byte for byte, except the ``wall_time_seconds``
column, which is the only column that varies between runs.  The
fixtures were recorded with ``PYTHONPATH=src python tests/test_golden_cli.py``;
re-record them only with a declared numerics change.
"""

import csv
import io
import pathlib
import sys

import pytest

from skfb.cli import main

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
REFERENCE = str(HERE.parent / "data" / "deepcode_reference_sample.csv")

CALLS = {
    "ber_stop_at_errors": [
        "ber", "--k", "2", "--snr-db", "-10", "--trials", "100000",
        "--stop-at-errors", "100", "--seed", "11",
    ],
    "sweep_k": [
        "sweep-k", "--k-min", "2", "--k-max", "9", "--k-step", "3", "--rate", "0.5",
        "--variant", "error-recursion", "--trials", "3000", "--seed", "12",
    ],
    "sweep_precision": [
        "sweep-precision", "--k-min", "2", "--k-max", "6", "--k-step", "2",
        "--precisions", "8,16,64", "--reference", REFERENCE, "--bit-mapping", "gray",
        "--trials", "3000", "--seed", "13",
    ],
    "best_k": [  # the best K at one feedback SNR
        "sweep-feedback", "--feedback-snr-list", "23", "--k-max", "4", "--trials", "4000",
        "--seed", "14",
    ],
    "sweep_feedback": [
        "sweep-feedback", "--feedback-snr-list", "20,inf", "--k-min", "1", "--k-max", "3",
        "--precision", "32", "--trials", "3000", "--seed", "15",
    ],
    "oracle": ["oracle", "--k", "3", "--n", "9", "--snr-db", "1.5", "--bit-mapping", "gray"],
    "optimize_gamma": [
        "optimize-gamma", "--k", "10", "--n", "30", "--gamma-grid", "0.5,1,1.5,2,2.5",
    ],
}


def _without_wall_time(text: str) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if "wall_time_seconds" not in rows[0]:
        return rows
    col = rows[0].index("wall_time_seconds")
    return [row[:col] + row[col + 1 :] for row in rows]


@pytest.mark.parametrize("name", sorted(CALLS))
def test_cli_output_matches_golden(name, capsys):
    assert main(CALLS[name]) == 0
    out = capsys.readouterr().out
    want = (GOLDEN / f"{name}.csv").read_text(encoding="utf-8")
    assert out.count("\n") == want.count("\n")
    assert "\r" not in out
    assert _without_wall_time(out) == _without_wall_time(want)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CALLS.items():
        buf = io.StringIO()
        sys.stdout, saved = buf, sys.stdout
        try:
            code = main(argv)
        finally:
            sys.stdout = saved
        assert code == 0, name
        (GOLDEN / f"{name}.csv").write_text(buf.getvalue(), encoding="utf-8")
