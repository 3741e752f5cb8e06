"""Golden CSV output of every CLI subcommand.

Each call below has its stdout stored under ``tests/golden/<name>.csv``.
The output must match byte for byte, except the ``wall_time_seconds``
column, which is the only column that varies between runs.  The
fixtures are recorded with ``PYTHONPATH=src python tests/test_golden_cli.py
[NAME ...]``, which writes the named fixtures, or with no names only the
missing ones; re-record an existing one only with a declared numerics change.
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
    "sweep_precision_error_recursion": [  # noisy feedback at 8, 16 and 32 bits
        "sweep-precision", "--variant", "error-recursion", "--feedback-snr-db", "25",
        "--precisions", "8,16,32", "--k-min", "1", "--k-max", "5", "--k-step", "2",
        "--rate", "0.5", "--reference", REFERENCE, "--trials", "2000", "--seed", "16",
    ],
    "sweep_feedback_16bit": [
        "sweep-feedback", "--feedback-snr-list", "15,inf", "--k-min", "1", "--k-max", "3",
        "--snr-db", "-3", "--precision", "16", "--trials", "2000", "--seed", "17",
    ],
    "sweep_feedback_8bit_error_recursion": [
        "sweep-feedback", "--feedback-snr-list", "20,inf", "--k-min", "1", "--k-max", "3",
        "--variant", "error-recursion", "--snr-db", "-3", "--precision", "8",
        "--trials", "2000", "--seed", "18",
    ],
    "sweep_precision_noiseless_forward": [  # no forward noise, noisy feedback
        "sweep-precision", "--snr-db", "inf", "--feedback-snr-db", "20",
        "--variant", "error-recursion", "--precisions", "8,16,32", "--k-min", "2",
        "--k-max", "8", "--k-step", "3", "--reference", REFERENCE, "--trials", "2000",
        "--seed", "19",
    ],
    "sweep_feedback_noiseless_forward": [
        "sweep-feedback", "--snr-db", "inf", "--feedback-snr-list", "10,inf", "--k-min", "2",
        "--k-max", "6", "--k-step", "2", "--precision", "8", "--trials", "2000", "--seed", "20",
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
    names = sys.argv[1:] or [n for n in CALLS if not (GOLDEN / f"{n}.csv").exists()]
    unknown = sorted(set(names) - set(CALLS))
    if unknown:
        sys.exit(f"unknown fixture name(s): {', '.join(unknown)}; choose from {', '.join(CALLS)}")
    GOLDEN.mkdir(exist_ok=True)
    for name in names:
        argv = CALLS[name]
        buf = io.StringIO()
        sys.stdout, saved = buf, sys.stdout
        try:
            code = main(argv)
        finally:
            sys.stdout = saved
        assert code == 0, name
        (GOLDEN / f"{name}.csv").write_text(buf.getvalue(), encoding="utf-8")
