"""The ``skfb`` command-line tool.

Every subcommand prints plot-ready CSV (header + one row per result) to
stdout or ``--out``.  Rows are self-describing: replaying a row's config
columns reproduces its ber exactly.  Exit codes: 0 success, 1 runtime
error, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import replace

from . import __version__
from .codec import analytic_ber_oracle, optimize_gamma, schedule
from .core import BitMapping, SkConfig, SkVariant
from .engine import estimate_ber, sweep_block_length, sweep_feedback_snr, sweep_precision_grid
from .precision import PrecisionMode
from .records import (
    GammaRecord,
    OracleRecord,
    RunRecord,
    config_from_record,
    read_reference_table,
    write_csv,
)

DEFAULT_RATE = 1.0 / 3.0
DEFAULT_TRIALS = 100_000


def _parse_snr(text: str) -> float:
    value = float(text)
    if math.isnan(value) or value == -math.inf:
        raise argparse.ArgumentTypeError(f"SNR must be a number or +inf, got {text!r}")
    return value


def _parse_u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit an unsigned 64-bit integer")
    return value


PRECISIONS = (8, 16, 32, 64)


def _parse_precision(text: str) -> int:
    value = int(text)
    if value not in PRECISIONS:
        widths = ", ".join(map(str, PRECISIONS))
        raise argparse.ArgumentTypeError(f"width must be one of {widths}, got {value}")
    return value


def _entries(text: str) -> list[str]:
    return [part for part in text.split(",") if part.strip()]


def _parse_float_list(text: str) -> list[float]:
    return [float(part) for part in _entries(text)]


# each entry is checked as its single-value flag checks it
def _parse_snr_list(text: str) -> list[float]:
    return [_parse_snr(part) for part in _entries(text)]


def _parse_precision_list(text: str) -> list[int]:
    return [_parse_precision(part) for part in _entries(text)]


# argparse takes only plain negative numbers ("-3") for values; "-inf",
# "-1e3" or "-5,10" after a flag would be read as an option name
_FLAG = re.compile(r"--\w[\w-]*")
_SIGNED_VALUE = re.compile(r"-(?:\.?\d|inf|nan)", re.IGNORECASE)


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Write "--flag -5,10" as "--flag=-5,10", so the value reaches its flag."""
    out: list[str] = []
    for token in argv:
        if out and _FLAG.fullmatch(out[-1]) and _SIGNED_VALUE.match(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def _common_options(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--variant",
        choices=[v.value for v in SkVariant],
        default=SkVariant.ESTIMATE_DIFFERENCE.value,
        help="SK recursion form (default: %(default)s)",
    )
    p.add_argument("--k", type=int, default=1, help="information bits per block")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--n", type=int, default=None, help="total channel uses")
    group.add_argument(
        "--rate", type=float, default=DEFAULT_RATE, help="coding rate K/N (default 1/3)"
    )
    p.add_argument("--snr-db", type=_parse_snr, default=0.0, help="forward SNR in dB")
    p.add_argument(
        "--feedback-snr-db",
        type=_parse_snr,
        default=math.inf,
        help="feedback SNR in dB, 'inf' for noiseless (default)",
    )
    p.add_argument(
        "--precision",
        type=int,
        choices=PRECISIONS,
        default=64,
        help="emulated arithmetic width (default: %(default)s)",
    )
    p.add_argument(
        "--gamma", type=float, default=1.0, help="first-use power fraction (default 1.0)"
    )
    p.add_argument("--seed", type=_parse_u64, default=0, help="master seed")
    p.add_argument(
        "--bit-mapping",
        choices=[m.value for m in BitMapping],
        default=BitMapping.NATURAL.value,
        help="bits-to-position labeling (default: %(default)s)",
    )
    p.add_argument(
        "--trials", type=int, default=DEFAULT_TRIALS, help="Monte Carlo trials per cell"
    )
    p.add_argument(
        "--stop-at-errors",
        type=int,
        default=None,
        help="stop a cell early once this many bit errors accumulate",
    )
    p.add_argument("--out", default=None, help="output CSV path (default: stdout)")


def _config_from_args(args) -> SkConfig:
    n_total = args.n if args.n is not None else max(1, round(args.k / args.rate))
    return SkConfig(
        variant=SkVariant(args.variant),
        k=args.k,
        n_total=n_total,
        forward_snr_db=args.snr_db,
        feedback_snr_db=args.feedback_snr_db,
        precision=PrecisionMode(args.precision),
        gamma=args.gamma,
        seed=args.seed,
        bit_mapping=BitMapping(args.bit_mapping),
    )


def _emit(args, records) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write_csv(records, fh)
    else:
        sys.stdout.write(write_csv(records))
    for rec in records:
        if isinstance(rec, RunRecord):
            _note_schedule_failure(rec)


def _note_schedule_failure(rec: RunRecord) -> None:
    """One stderr line for a cell whose alpha overflows before n_total."""
    halt = schedule(config_from_record(rec)).halt
    if halt < rec.n_total:
        print(
            f"skfb: note: schedule fails at step {halt} (k={rec.k}, "
            f"n_total={rec.n_total}, precision={rec.precision_bits} bits): alpha is "
            "not finite, so every trial from that step on counts as failed",
            file=sys.stderr,
        )


def _k_range(args) -> range:
    return range(args.k_min, args.k_max + 1, args.k_step)


def _sweep_options(args) -> dict:
    return dict(rate=args.rate, trials=args.trials, stop_at_errors=args.stop_at_errors)


def _cmd_ber(args) -> int:
    _emit(args, [estimate_ber(_config_from_args(args), args.trials, args.stop_at_errors)])
    return 0


def _cmd_sweep_k(args) -> int:
    base = _config_from_args(args)
    _emit(args, sweep_block_length(base, _k_range(args), **_sweep_options(args)))
    return 0


def _cmd_sweep_precision(args) -> int:
    base = _config_from_args(args)
    reference = read_reference_table(args.reference)
    rows = sweep_precision_grid(
        base, args.precisions, _k_range(args), reference, **_sweep_options(args)
    )
    _emit(args, rows)
    return 0


def _cmd_sweep_feedback(args) -> int:
    base = _config_from_args(args)
    # best-k is the sweep at its one --feedback-snr-db
    snrs = getattr(args, "feedback_snr_list", [args.feedback_snr_db])
    rows = sweep_feedback_snr(base, snrs, _k_range(args), **_sweep_options(args))
    _emit(args, rows)
    return 0


def _cmd_oracle(args) -> int:
    cfg = _config_from_args(args)
    record = OracleRecord(
        variant=cfg.variant.value,
        k=cfg.k,
        n_total=cfg.n_total,
        forward_snr_db=cfg.forward_snr_db,
        feedback_snr_db=cfg.feedback_snr_db,
        gamma=cfg.gamma,
        bit_mapping=cfg.bit_mapping.value,
        oracle_ber=analytic_ber_oracle(cfg),
    )
    _emit(args, [record])
    return 0


def _cmd_optimize_gamma(args) -> int:
    cfg = _config_from_args(args)
    grid = sorted(set(args.gamma_grid))  # one row per distinct gamma
    gamma_star, _ = optimize_gamma(cfg, grid)
    records = [
        GammaRecord(
            k=cfg.k,
            n_total=cfg.n_total,
            forward_snr_db=cfg.forward_snr_db,
            bit_mapping=cfg.bit_mapping.value,
            gamma=float(g),
            oracle_ber=analytic_ber_oracle(replace(cfg, gamma=float(g))),
            is_best=(float(g) == gamma_star),
        )
        for g in grid
    ]
    _emit(args, records)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skfb",
        description="Monte Carlo BER experiments for SK feedback coding over AWGN",
    )
    parser.add_argument("--version", action="version", version=f"skfb {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ber", help="single BER estimate")
    _common_options(p)
    p.set_defaults(func=_cmd_ber)

    p = sub.add_parser("sweep-k", help="BER vs block length at fixed rate")
    _common_options(p)
    p.add_argument("--k-min", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--k-step", type=int, default=1)
    p.set_defaults(func=_cmd_sweep_k)

    p = sub.add_parser(
        "sweep-precision", help="SK-vs-reference grid over precision and block length"
    )
    _common_options(p)
    p.add_argument("--k-min", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--k-step", type=int, default=1)
    p.add_argument(
        "--precisions",
        type=_parse_precision_list,
        default=[8, 16, 32, 64],
        help="comma-separated widths (default: 8,16,32,64)",
    )
    p.add_argument(
        "--reference",
        required=True,
        help="CSV with header precision_bits,feedback_snr_db,reference_ber",
    )
    p.set_defaults(func=_cmd_sweep_precision)

    p = sub.add_parser("best-k", help="best block length at one feedback SNR")
    _common_options(p)
    p.add_argument("--k-min", type=int, default=1)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--k-step", type=int, default=1)
    p.set_defaults(func=_cmd_sweep_feedback)

    p = sub.add_parser("sweep-feedback", help="best block length per feedback SNR")
    _common_options(p)
    p.add_argument("--k-min", type=int, default=1)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--k-step", type=int, default=1)
    p.add_argument(
        "--feedback-snr-list",
        type=_parse_snr_list,
        required=True,
        help="comma-separated feedback SNRs in dB",
    )
    p.set_defaults(func=_cmd_sweep_feedback)

    p = sub.add_parser("oracle", help="closed-form BER for noiseless feedback")
    _common_options(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("optimize-gamma", help="grid-optimize first-use power fraction")
    _common_options(p)
    p.add_argument(
        "--gamma-grid",
        type=_parse_float_list,
        required=True,
        help="comma-separated gamma values to scan",
    )
    p.set_defaults(func=_cmd_optimize_gamma)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_attach_signed_values(argv))
    if args.trials < 1:
        parser.error(f"--trials must be >= 1, got {args.trials}")
    if not 0 < args.rate <= 1:
        parser.error(f"--rate must be in (0, 1], got {args.rate}")
    if args.stop_at_errors is not None and args.stop_at_errors < 1:
        parser.error(f"--stop-at-errors must be >= 1, got {args.stop_at_errors}")
    if hasattr(args, "k_step"):
        if args.n is not None:
            parser.error("--n sets a single cell's N; sweeps set each cell's N from --rate")
        if args.k_step < 1:
            parser.error(f"--k-step must be >= 1, got {args.k_step}")
        if args.k_max < args.k_min:
            parser.error(f"--k-max {args.k_max} is below --k-min {args.k_min}")
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"skfb: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
