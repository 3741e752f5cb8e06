"""Command-line surface tests (parsing, CSV output, exit codes)."""

import csv
import io
import math
import subprocess
import sys

import pytest

from skfb.cli import main
from skfb.codec import analytic_ber_oracle
from skfb.core import SkConfig, SkVariant
from skfb.engine import sweep_feedback_snr


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def test_ber_smoke(capsys):
    code, out = run_cli(
        capsys, "ber", "--k", "5", "--snr-db", "0", "--trials", "5000", "--seed", "7"
    )
    assert code == 0
    rows = parse_rows(out)
    assert len(rows) == 1
    row = rows[0]
    assert row["k"] == "5"
    assert row["seed"] == "7"
    assert row["feedback_snr_db"] == "inf"
    assert float(row["wall_time_seconds"]) > 0
    assert row["tool_version"]


def test_sweep_k_row_count(capsys):
    code, out = run_cli(
        capsys,
        "sweep-k", "--k-min", "40", "--k-max", "60", "--snr-db", "0",
        "--precision", "64", "--trials", "50",
    )
    assert code == 0
    rows = parse_rows(out)
    assert len(rows) == 21
    assert [int(r["k"]) for r in rows] == list(range(40, 61))
    assert all(int(r["n_total"]) == 3 * int(r["k"]) for r in rows)


def test_usage_errors_exit_2():
    for argv in (
        ["ber", "--bogus-flag", "1"],
        [],
        ["ber", "--precision", "12"],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "skfb.cli", *argv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2, argv
        assert "usage" in proc.stderr.lower()


@pytest.mark.parametrize("command", ["sweep-k", "sweep-precision", "best-k", "sweep-feedback"])
@pytest.mark.parametrize(
    "k_args, message",
    [
        (["--k-min", "1", "--k-max", "3", "--k-step", "0"], "--k-step"),
        (["--k-min", "1", "--k-max", "3", "--k-step", "-1"], "--k-step"),
        (["--k-min", "3", "--k-max", "1"], "--k-max"),
    ],
)
def test_bad_k_range_is_a_usage_error(command, k_args, message, capsys):
    extra = {
        "sweep-precision": ["--reference", "/nonexistent/ref.csv"],
        "sweep-feedback": ["--feedback-snr-list", "20"],
    }.get(command, [])
    with pytest.raises(SystemExit) as exc:
        main([command, *k_args, *extra, "--trials", "10"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage" in captured.err.lower() and message in captured.err


_SWEEP_EXTRA = {
    "sweep-k": ["--k-min", "2", "--k-max", "3"],
    "sweep-precision": ["--k-min", "2", "--k-max", "3", "--reference", "/nonexistent/ref.csv"],
    "best-k": ["--k-max", "3"],
    "sweep-feedback": ["--k-max", "3", "--feedback-snr-list", "20"],
}


@pytest.mark.parametrize("command", sorted(_SWEEP_EXTRA))
def test_sweeps_refuse_n(command, capsys):
    # a sweep sets each cell's N from the rate; --n would be ignored
    with pytest.raises(SystemExit) as exc:
        main([command, *_SWEEP_EXTRA[command], "--n", "30", "--trials", "10"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--n" in captured.err and "--rate" in captured.err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_stop_at_errors_below_one_is_a_usage_error(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ber", "--k", "2", "--trials", "1000", "--stop-at-errors", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--stop-at-errors" in captured.err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["ber", "--trials", "0"], "--trials"),
        (["sweep-k", "--k-min", "1", "--k-max", "2", "--trials", "-5"], "--trials"),
        (["ber", "--rate", "0"], "--rate"),
        (["ber", "--rate", "1.5"], "--rate"),
        (["sweep-k", "--k-min", "1", "--k-max", "2", "--rate", "nan"], "--rate"),
    ],
    ids=["trials-0", "trials-negative", "rate-0", "rate-above-1", "rate-nan"],
)
def test_trials_and_rate_out_of_range_are_usage_errors(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage" in captured.err.lower() and flag in captured.err


def test_schedule_failure_is_noted_on_stderr(capsys):
    # at 0 dB and 64 bits, alpha overflows at use 1025 of 1300
    code = main(["ber", "--k", "1", "--n", "1300", "--trials", "200"])
    captured = capsys.readouterr()
    assert code == 0
    row = parse_rows(captured.out)[0]
    assert row["failed_trials"] == "200"
    lines = captured.err.splitlines()
    assert len(lines) == 1
    for part in ("step 1025", "k=1", "n_total=1300", "precision=64"):
        assert part in lines[0]


def test_schedule_failure_noted_once_per_failing_cell(capsys, tmp_path):
    ref = tmp_path / "ref.csv"
    ref.write_text("precision_bits,feedback_snr_db,reference_ber\n8,inf,0.5\n", encoding="utf-8")
    # 8-bit alpha overflows at use 11 at 0 dB: K=2 (n=6) is healthy, K=4 and 6 fail
    code = main(["sweep-precision", "--k-min", "2", "--k-max", "6", "--k-step", "2",
                 "--precisions", "8", "--reference", str(ref), "--trials", "100"])
    captured = capsys.readouterr()
    assert code == 0
    assert len(parse_rows(captured.out)) == 3
    lines = captured.err.splitlines()
    assert len(lines) == 2
    assert "k=4, n_total=12, precision=8" in lines[0] and "step 11" in lines[0]
    assert "k=6, n_total=18, precision=8" in lines[1] and "step 11" in lines[1]


def test_healthy_run_prints_nothing_on_stderr(capsys):
    assert main(["ber", "--k", "3", "--trials", "100"]) == 0
    assert capsys.readouterr().err == ""


def test_runtime_error_exits_1(capsys):
    code = main(
        ["sweep-precision", "--k-min", "1", "--k-max", "1", "--trials", "10",
         "--reference", "/nonexistent/ref.csv"]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert "error" in err


def test_replay_row_reproduces_ber(capsys):
    code, out = run_cli(
        capsys, "ber", "--k", "2", "--trials", "30000", "--seed", "11",
        "--feedback-snr-db", "20",
    )
    assert code == 0
    row = parse_rows(out)[0]
    code2, out2 = run_cli(
        capsys, "ber",
        "--variant", row["variant"],
        "--k", row["k"],
        "--n", row["n_total"],
        "--snr-db", row["forward_snr_db"],
        "--feedback-snr-db", row["feedback_snr_db"],
        "--precision", row["precision_bits"],
        "--gamma", row["gamma"],
        "--seed", row["seed"],
        "--bit-mapping", row["bit_mapping"],
        "--trials", row["trials"],
    )
    assert code2 == 0
    row2 = parse_rows(out2)[0]
    assert row2["ber"] == row["ber"]
    assert row2["bit_errors"] == row["bit_errors"]


def test_best_k_matches_engine(capsys):
    code, out = run_cli(
        capsys, "best-k", "--feedback-snr-db", "23", "--k-max", "4",
        "--trials", "20000", "--seed", "3",
    )
    assert code == 0
    rows = parse_rows(out)
    assert len(rows) == 4
    marked = [int(r["k"]) for r in rows if r["is_best"] == "True"]
    assert len(marked) == 1
    engine_rows = sweep_feedback_snr(SkConfig(k=1, seed=3), [23.0], range(1, 5), trials=20_000)
    assert marked == [r.k for r in engine_rows if r.is_best]
    assert [r["ber"] for r in rows] == [repr(r.ber) for r in engine_rows]


def test_sweep_feedback_rows(capsys):
    code, out = run_cli(
        capsys, "sweep-feedback", "--feedback-snr-list", "20,30",
        "--k-max", "2", "--trials", "2000",
    )
    assert code == 0
    rows = parse_rows(out)
    assert len(rows) == 4
    assert sorted({r["feedback_snr_db"] for r in rows}) == ["20.0", "30.0"]


def test_oracle_subcommand(capsys):
    code, out = run_cli(capsys, "oracle", "--k", "1", "--n", "3", "--snr-db", "0")
    assert code == 0
    row = parse_rows(out)[0]
    assert float(row["oracle_ber"]) == pytest.approx(
        analytic_ber_oracle(SkConfig(k=1, n_total=3)), rel=1e-12
    )


def test_oracle_rejects_noisy_feedback(capsys):
    code = main(["oracle", "--k", "1", "--feedback-snr-db", "20"])
    assert code == 1


def test_optimize_gamma_subcommand(capsys):
    code, out = run_cli(
        capsys, "optimize-gamma", "--k", "10", "--n", "30",
        "--gamma-grid", "0.5,1.0,1.5,2.0,2.5",
    )
    assert code == 0
    rows = parse_rows(out)
    assert len(rows) == 5
    best = [float(r["gamma"]) for r in rows if r["is_best"] == "True"]
    assert len(best) == 1
    assert best[0] > 1.0


def test_out_file_and_reference_flow(capsys, tmp_path):
    ref = tmp_path / "ref.csv"
    ref.write_text(
        "precision_bits,feedback_snr_db,reference_ber\n64,inf,1.0\n32,inf,1.0\n",
        encoding="utf-8",
    )
    out_path = tmp_path / "grid.csv"
    code = main(
        ["sweep-precision", "--k-min", "1", "--k-max", "2", "--trials", "2000",
         "--precisions", "64,32", "--reference", str(ref), "--out", str(out_path)]
    )
    assert code == 0
    rows = list(csv.DictReader(out_path.open()))
    assert len(rows) == 4
    assert all(r["verdict"] == "sk_wins" for r in rows)
    assert all(r["reference_ber"] == "1.0" for r in rows)


def test_variant_flag_values(capsys):
    for value in (v.value for v in SkVariant):
        code, out = run_cli(
            capsys, "ber", "--k", "1", "--trials", "1000", "--variant", value
        )
        assert code == 0
        assert parse_rows(out)[0]["variant"] == value


def test_rate_flag_sets_n(capsys):
    code, out = run_cli(
        capsys, "ber", "--k", "4", "--rate", "0.5", "--trials", "100"
    )
    assert code == 0
    assert parse_rows(out)[0]["n_total"] == "8"


def test_n_and_rate_mutually_exclusive():
    proc = subprocess.run(
        [sys.executable, "-m", "skfb.cli", "ber", "--k", "2", "--n", "6", "--rate", "0.5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
