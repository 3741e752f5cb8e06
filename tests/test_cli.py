"""Command-line surface tests (parsing, CSV output, exit codes)."""

import argparse
import csv
import io
import math
import pathlib
import re
import subprocess
import sys
from unittest import mock

import pytest

from skfb.cli import _config_from_args, build_parser, main
from skfb.codec import analytic_ber_oracle
from skfb.core import SkConfig, SkVariant
from skfb.engine import estimate_ber, sweep_feedback_snr
from skfb.records import write_csv


REFERENCE = str(pathlib.Path(__file__).resolve().parent.parent / "data"
                / "deepcode_reference_sample.csv")


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


# the best K at one feedback SNR is sweep-feedback with a one-entry list; the
# "best-k" cases below run that call, and name its one SNR --feedback-snr-db
_BEST_K = ["sweep-feedback", "--feedback-snr-list", "23"]


def _call(command: str) -> list[str]:
    """The argv head of a case: the subcommand, or the best-K call."""
    return list(_BEST_K) if command == "best-k" else [command]


def test_best_k_is_not_a_subcommand(capsys):
    # the best K at one feedback SNR is sweep-feedback with a one-entry list
    with pytest.raises(SystemExit) as exc:
        main(["best-k", "--feedback-snr-db", "23", "--k-max", "4", "--trials", "10"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'best-k'" in captured.err


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
        main([*_call(command), *k_args, *extra, "--trials", "10"])
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
        main([*_call(command), *_SWEEP_EXTRA[command], "--n", "30", "--trials", "10"])
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


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["sweep-feedback", "--k-max", "2", "--feedback-snr-list", "nan"], "--feedback-snr-list"),
        (["sweep-feedback", "--k-max", "2", "--feedback-snr-list", "20,-inf"],
         "--feedback-snr-list"),
        (["sweep-precision", "--k-min", "1", "--k-max", "2", "--precisions", "8,12",
          "--reference", "/nonexistent/ref.csv"], "--precisions"),
        (["ber", "--feedback-snr-db=-inf"], "--feedback-snr-db"),
        (["ber", "--snr-db=-inf"], "--snr-db"),
        # below about -3082.5 dB the noise variance overflows binary64
        (["ber", "--snr-db=-3100"], "--snr-db"),
        (["ber", "--feedback-snr-db", "-3100"], "--feedback-snr-db"),
        (["sweep-feedback", "--k-max", "2", "--feedback-snr-list", "20,-3100"],
         "--feedback-snr-list"),
    ],
    ids=["snr-list-nan", "snr-list-minus-inf", "precisions-12", "feedback-snr-minus-inf",
         "snr-minus-inf", "snr-below-bound", "feedback-snr-below-bound",
         "snr-list-below-bound"],
)
def test_list_entries_are_checked_like_their_single_value_flags(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--trials", "10"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage" in captured.err.lower() and flag in captured.err


@pytest.mark.parametrize(
    "argv, column, values",
    [
        (["sweep-feedback", "--k-max", "2", "--feedback-snr-list", "-5,10"],
         "feedback_snr_db", {-5.0, 10.0}),
        (["ber", "--snr-db", "-1e1"], "forward_snr_db", {-10.0}),
        (["ber", "--snr-db", "-3"], "forward_snr_db", {-3.0}),
    ],
    ids=["snr-list", "exponent", "plain-negative"],
)
def test_values_with_a_leading_minus_reach_their_flag(argv, column, values, capsys):
    code, out = run_cli(capsys, *argv, "--trials", "20")
    assert code == 0
    assert {float(row[column]) for row in parse_rows(out)} == values


@pytest.mark.parametrize("flag", ["--snr-db", "--feedback-snr-db"])
def test_minus_inf_snr_gets_the_flags_own_message(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ber", flag, "-inf", "--trials", "10"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: SNR must be a number or +inf" in captured.err


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


def test_k_zero_is_refused_with_the_config_message(capsys):
    code = main(["ber", "--k", "0", "--trials", "10"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "skfb: error: k must be in [1, 64], got 0\n"


def test_precision_flags_accept_exactly_the_four_widths():
    parser = build_parser()
    sweep = ["sweep-precision", "--k-min", "1", "--k-max", "1", "--reference", REFERENCE]
    for width in (8, 16, 32, 64):
        assert parser.parse_args(["ber", "--precision", str(width)]).precision_bits == width
    assert parser.parse_args([*sweep, "--precisions", "8,16,32,64"]).precisions == [8, 16, 32, 64]
    assert parser.parse_args(sweep).precisions == [8, 16, 32, 64]
    for value in ("4", "12", "16.0", "128"):
        with pytest.raises(SystemExit):
            parser.parse_args(["ber", "--precision", value])
        with pytest.raises(SystemExit):
            parser.parse_args([*sweep, "--precisions", f"8,{value}"])


@pytest.mark.parametrize(
    "argv, entry",
    [
        (["sweep-precision", "--k-min", "1", "--k-max", "1", "--reference", REFERENCE,
          "--precisions", "8,16.0"], "'16.0'"),
        (["sweep-feedback", "--k-max", "1", "--feedback-snr-list", "20,abc"], "'abc'"),
        (["optimize-gamma", "--k", "2", "--gamma-grid", "1,2x"], "'2x'"),
        # every value flag reads through the same readers as the list entries
        (["ber", "--k", "x"], "expected an integer, got 'x'"),
        (["sweep-k", "--k-max", "3", "--k-min", "1.5"], "expected an integer, got '1.5'"),
        (["sweep-k", "--k-min", "1", "--k-max", "x"], "expected an integer, got 'x'"),
        (["sweep-k", "--k-min", "1", "--k-max", "3", "--k-step", "x"],
         "expected an integer, got 'x'"),
        (["ber", "--n", "3.0"], "expected an integer, got '3.0'"),
        (["ber", "--gamma", "x"], "expected a number, got 'x'"),
        (["ber", "--precision", "12"], "width must be one of 8, 16, 32, 64, got 12"),
        (["sweep-precision", "--k-min", "1", "--k-max", "1", "--reference", REFERENCE,
          "--precisions", "12"], "width must be one of 8, 16, 32, 64, got 12"),
    ],
    ids=["precisions", "feedback-snr-list", "gamma-grid", "k", "k-min", "k-max", "k-step",
         "n", "gamma", "precision-12", "precisions-12"],
)
def test_a_bad_list_entry_is_named_in_the_usage_error(argv, entry, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert entry in err and argv[-2] in err
    assert "invalid" not in err  # argparse's text, which names the type function


@pytest.mark.parametrize(
    "argv, name",
    [
        (["sweep-precision", "--k-min", "1", "--k-max", "1", "--reference", REFERENCE,
          "--precisions", ","], "precisions"),
        (["sweep-feedback", "--k-max", "1", "--feedback-snr-list", ","], "snr_list"),
        (["optimize-gamma", "--gamma-grid", ""], "grid"),
    ],
    ids=["precisions", "feedback-snr-list", "gamma-grid"],
)
def test_an_empty_list_flag_is_a_runtime_error_naming_its_parameter(argv, name, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"skfb: error: {name} must be non-empty\n"


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
        capsys, "sweep-feedback", "--feedback-snr-list", "23", "--k-max", "4",
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


def test_a_library_row_with_integer_floats_is_the_cli_row(capsys):
    code, out = run_cli(capsys, "ber", "--k", "2", "--trials", "100")
    assert code == 0
    library = write_csv([estimate_ber(SkConfig(k=2, gamma=1, forward_snr_db=0), 100)])
    rows = [
        {**row, "wall_time_seconds": None} for row in parse_rows(out) + parse_rows(library)
    ]
    assert rows[0] == rows[1]
    assert (rows[0]["gamma"], rows[0]["forward_snr_db"]) == ("1.0", "0.0")


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


def test_repeated_gammas_get_one_row(capsys):
    code, out = run_cli(
        capsys, "optimize-gamma", "--k", "4", "--gamma-grid", "0.5,2,2,1",
    )
    assert code == 0
    rows = parse_rows(out)
    assert [float(r["gamma"]) for r in rows] == [0.5, 1.0, 2.0]
    assert [r["is_best"] for r in rows].count("True") == 1


def test_repeated_precisions_are_simulated_once(capsys):
    argv = ["sweep-precision", "--k-min", "2", "--k-max", "2", "--trials", "100",
            "--reference", REFERENCE]
    rows = {}
    for precisions in ("8,8,16", "8,16"):
        code, out = run_cli(capsys, *argv, "--precisions", precisions)
        assert code == 0
        rows[precisions] = [{**r, "wall_time_seconds": None} for r in parse_rows(out)]
    assert [r["precision_bits"] for r in rows["8,8,16"]] == ["8", "16"]
    assert rows["8,8,16"] == rows["8,16"]


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


@pytest.mark.parametrize(
    "case", ["missing-directory", "a-directory", "a-missing-directory", "unwritable"])
def test_a_bad_out_path_is_refused_before_any_cell_runs(case, capsys, tmp_path):
    out = {"missing-directory": tmp_path / "missing" / "x.csv", "a-directory": tmp_path,
           "a-missing-directory": f"{tmp_path}/missing/", "unwritable": tmp_path / "x.csv"}[case]
    with mock.patch("skfb.cli.estimate_ber") as run, \
            mock.patch("skfb.cli.os.access", return_value=case != "unwritable"):
        code = main(["ber", "--k", "1", "--trials", "10", "--out", str(out)])
    assert code == 1
    assert run.call_count == 0
    assert f"skfb: error: --out {out}" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_a_run_that_fails_leaves_the_out_file_as_it_was(capsys, tmp_path):
    kept, fresh = tmp_path / "kept.csv", tmp_path / "fresh.csv"
    kept.write_text("earlier rows\n", encoding="utf-8")
    for out in (kept, fresh):
        assert main(["ber", "--k", "65", "--trials", "10", "--out", str(out)]) == 1
        assert "k must be in [1, 64], got 65" in capsys.readouterr().err
    assert kept.read_text(encoding="utf-8") == "earlier rows\n"
    assert not fresh.exists()


def test_optimize_gamma_refuses_noisy_feedback(capsys):
    code = main(["optimize-gamma", "--k", "2", "--feedback-snr-db", "20", "--gamma-grid", "1"])
    assert code == 1
    assert capsys.readouterr().err == (
        "skfb: error: analytic oracle requires noiseless feedback\n")


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


@pytest.mark.parametrize("command", ["sweep-k", "sweep-precision", "sweep-feedback"])
@pytest.mark.parametrize(
    "extra, message",
    [(["--n", "30"], "unrecognized arguments: --n 30"),
     (["--k-min", "4"], "--k-max 3 is below --k-min 4")],
    ids=["n", "k-max"],
)
def test_a_sweeps_usage_errors_print_its_own_usage_without_n(command, extra, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert not re.search(r"--n\b", capsys.readouterr().out)
    with pytest.raises(SystemExit) as exc:
        main([command, *_SWEEP_EXTRA[command], *extra, "--trials", "10"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: skfb {command} ")
    assert captured.err.endswith(f"skfb {command}: error: {message}\n")


def test_a_flag_before_the_subcommand_gets_the_tools_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--bogus", "ber", "--trials", "5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: skfb [-h]")
    assert err.endswith("skfb: error: unrecognized arguments: --bogus\n")


def test_n_and_rate_mutually_exclusive():
    proc = subprocess.run(
        [sys.executable, "-m", "skfb.cli", "ber", "--k", "2", "--n", "6", "--rate", "0.5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def _subparsers() -> dict:
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


# each required flag at the value of SkConfig()'s cell
_REQUIRED_AT_DEFAULT = {
    "--k-min": str(SkConfig().k),
    "--k-max": str(SkConfig().k),
    "--reference": REFERENCE,
    "--feedback-snr-list": "inf",
    "--gamma-grid": "1",
}


@pytest.mark.parametrize("command", sorted(_subparsers()))
def test_a_subcommand_given_only_its_required_flags_builds_the_default_cell(command):
    argv = [command]
    for action in _subparsers()[command]._actions:
        if action.required:
            argv += [action.option_strings[0], _REQUIRED_AT_DEFAULT[action.option_strings[0]]]
    args = build_parser().parse_args(argv)
    assert _config_from_args(args) == SkConfig()
    if hasattr(args, "rate"):  # a sweep sets each cell's N from it
        assert args.rate == SkConfig().rate


# the smallest call of each subcommand, and a value other than the call's
# for every flag
_BASE_ARGV = {
    "ber": ["--trials", "200"],
    "sweep-k": ["--k-min", "1", "--k-max", "3", "--trials", "200"],
    "sweep-precision": ["--k-min", "1", "--k-max", "3", "--reference", REFERENCE,
                        "--trials", "200"],
    "best-k": ["--k-max", "3", "--trials", "200"],
    "sweep-feedback": ["--k-max", "3", "--feedback-snr-list", "20", "--trials", "200"],
    "oracle": [],
    "optimize-gamma": ["--gamma-grid", "0.5,1,2"],
}
_OTHER_VALUE = {
    "--variant": "error-recursion",
    "--k": "2",
    "--k-min": "2",
    "--k-max": "4",
    "--k-step": "2",
    "--n": "5",
    "--rate": "0.5",
    "--snr-db": "3",
    "--feedback-snr-db": "20",
    "--feedback-snr-list": "30",
    "--precision": "32",
    "--precisions": "16",
    "--reference": None,  # a table with other BERs, written per test
    "--gamma": "1.5",
    "--gamma-grid": "0.5,3",
    "--seed": "5",
    "--bit-mapping": "gray",
    "--trials": "300",
    "--stop-at-errors": "5",
}
_FLAG_CASES = [
    (command, action.option_strings[0])
    for command, sub in _subparsers().items()
    for action in sub._actions
    if action.option_strings and action.option_strings[0] not in ("-h", "--out")
]
_FLAG_CASES += [
    ("best-k", "--feedback-snr-db" if flag == "--feedback-snr-list" else flag)
    for command, flag in _FLAG_CASES
    if command == "sweep-feedback"
]


def _rows_or_none(capsys, argv):
    """The rows less wall_time_seconds, or None if the call exits non-zero."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr().out
    if code != 0:
        return None
    return [{**row, "wall_time_seconds": None} for row in parse_rows(out)]


@pytest.mark.parametrize(
    "command, flag", _FLAG_CASES, ids=[f"{c} {f}" for c, f in _FLAG_CASES]
)
def test_no_flag_is_silently_ignored(command, flag, capsys, tmp_path):
    value = _OTHER_VALUE[flag]
    if flag == "--reference":
        value = tmp_path / "ref.csv"
        value.write_text("precision_bits,feedback_snr_db,reference_ber\n8,inf,0.5\n",
                         encoding="utf-8")
    if command == "best-k" and flag == "--feedback-snr-db":
        flag = "--feedback-snr-list"  # the one entry of the best-K call
    base = _rows_or_none(capsys, [*_call(command), *_BASE_ARGV[command]])
    assert base is not None
    changed = _rows_or_none(capsys, [*_call(command), *_BASE_ARGV[command], flag, str(value)])
    assert changed != base


_SMALL_SWEEP = ["--k-max", "2", "--trials", "10"]
_UNREAD = [  # the tested flag comes second
    ["sweep-k", "--k", "2", "--k-min", "1", *_SMALL_SWEEP],
    ["sweep-precision", "--k", "2", "--k-min", "1", "--reference", REFERENCE, *_SMALL_SWEEP],
    ["sweep-precision", "--precision", "8", "--k-min", "1", "--reference", REFERENCE,
     *_SMALL_SWEEP],
    ["best-k", "--k", "2", *_SMALL_SWEEP],
    ["sweep-feedback", "--k", "2", "--feedback-snr-list", "20", *_SMALL_SWEEP],
    ["sweep-feedback", "--feedback-snr-db", "20", "--feedback-snr-list", "20", *_SMALL_SWEEP],
    ["oracle", "--precision", "8"],
    ["oracle", "--seed", "9"],
    ["oracle", "--trials", "5"],
    ["oracle", "--stop-at-errors", "5"],
    ["optimize-gamma", "--precision", "8", "--gamma-grid", "1"],
    ["optimize-gamma", "--seed", "9", "--gamma-grid", "1"],
    ["optimize-gamma", "--trials", "5", "--gamma-grid", "1"],
    ["optimize-gamma", "--stop-at-errors", "5", "--gamma-grid", "1"],
    ["optimize-gamma", "--gamma", "2", "--gamma-grid", "1"],
    ["optimize-gamma", "--variant", "error-recursion", "--gamma-grid", "1"],
    ["ber", "--trial", "7"],  # an abbreviation of --trials is not expanded
]


@pytest.mark.parametrize("argv", _UNREAD, ids=[" ".join(argv[:2]) for argv in _UNREAD])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*_call(argv[0]), *argv[1:]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


def test_a_sweep_checks_its_flags_against_its_first_cell(capsys):
    # gamma 5 needs n_total > 5; the base cell is K=10, n_total=30
    code, out = run_cli(capsys, "sweep-k", "--gamma", "5", "--k-min", "10", "--k-max", "10",
                        "--trials", "10")
    assert code == 0
    rows = parse_rows(out)
    assert [(r["k"], r["n_total"], r["gamma"]) for r in rows] == [("10", "30", "5.0")]
