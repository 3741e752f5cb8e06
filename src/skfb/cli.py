"""The ``skfb`` command-line tool.

Every subcommand prints plot-ready CSV (header + one row per result) to
stdout or ``--out``.  Rows are self-describing: replaying a row's config
columns reproduces its ber exactly.  Each subcommand takes only the
flags it reads, written in full.  Exit codes: 0 success, 1 runtime
error, 2 usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import fields

from . import __version__
from .channel import snr_db_error
from .codec import analytic_ber_oracle, schedule
from .core import BitMapping, SkConfig, SkVariant, seed_error
from .engine import (count_error, estimate_ber, optimize_gamma, rate_error, sweep_block_length,
                     sweep_feedback_snr, sweep_precision_grid)
from .precision import WIDTHS, PrecisionMode, width_error
from .records import (
    OracleRecord,
    RunRecord,
    config_columns,
    config_from_record,
    read_reference_table,
    write_csv,
)

DEFAULT_TRIALS = 100_000
_DEFAULT = SkConfig()  # every cell flag's default


def _reader(kind, rule=None, name=""):
    """An argparse type: ``kind(text)``, refused with a usage error if
    ``kind`` cannot read it (naming the text, not the type function, as
    argparse would) or if ``rule`` gives a reason."""

    def read(text: str):
        try:
            value = kind(text)
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}") from None
        if rule and (why := rule(value)):
            raise argparse.ArgumentTypeError(f"{name} {why}, got {value}")
        return value

    return read


def _list_of(read):
    """An argparse type for comma-separated entries, each read by ``read``
    as its single-value flag reads it; blank entries are skipped."""
    return lambda text: [read(part) for part in text.split(",") if part.strip()]


_int, _float = _reader(int), _reader(float)
_count = _reader(int, count_error, "count")
_snr = _reader(float, snr_db_error, "SNR")
_width = _reader(int, width_error, "width")


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


# every flag of the tool; each subcommand names the ones it reads
_FLAGS = {
    "--variant": dict(
        choices=[v.value for v in SkVariant],
        default=_DEFAULT.variant.value,
        help="SK recursion form (default: %(default)s)",
    ),
    "--k": dict(type=_int, default=_DEFAULT.k, help="information bits per block"),
    "--k-min": dict(
        dest="k", metavar="K_MIN", type=_int, required=True,
        help="smallest K; the other flags are checked against this cell",
    ),
    "--k-max": dict(type=_int, required=True, help="largest K"),
    "--k-step": dict(type=_count, default=1, help="K increment (default 1)"),
    "--n": dict(type=_int, default=None, help="total channel uses"),
    "--rate": dict(
        type=_reader(float, rate_error, "rate"), default=_DEFAULT.rate,
        help=f"coding rate K/N (default {_DEFAULT.k}/{_DEFAULT.n_total})",
    ),
    "--snr-db": dict(
        dest="forward_snr_db", metavar="SNR_DB", type=_snr,
        default=_DEFAULT.forward_snr_db, help="forward SNR in dB",
    ),
    "--feedback-snr-db": dict(
        type=_snr, default=_DEFAULT.feedback_snr_db,
        help="feedback SNR in dB, 'inf' for noiseless (default: %(default)s)"
    ),
    "--feedback-snr-list": dict(
        type=_list_of(_snr), required=True, help="comma-separated feedback SNRs in dB"
    ),
    "--precision": dict(
        type=_width, default=_DEFAULT.precision.width,
        help=f"emulated arithmetic width: {', '.join(map(str, WIDTHS))} (default: %(default)s)",
    ),
    "--precisions": dict(
        type=_list_of(_width), default=list(WIDTHS),
        help=f"comma-separated widths (default: {','.join(map(str, WIDTHS))})",
    ),
    "--reference": dict(
        required=True, help="CSV with header precision_bits,feedback_snr_db,reference_ber"
    ),
    "--gamma": dict(type=_float, default=_DEFAULT.gamma,
                    help="first-use power fraction (default: %(default)s)"),
    "--gamma-grid": dict(
        type=_list_of(_float), required=True, help="comma-separated gamma values to scan"
    ),
    "--seed": dict(type=_reader(int, seed_error, "seed"), default=_DEFAULT.seed,
                   help="master seed"),
    "--bit-mapping": dict(
        choices=[m.value for m in BitMapping],
        default=_DEFAULT.bit_mapping.value,
        help="bits-to-position labeling (default: %(default)s)",
    ),
    "--trials": dict(
        type=_count, default=DEFAULT_TRIALS, help="Monte Carlo trials per cell"
    ),
    "--stop-at-errors": dict(
        type=_count, default=None,
        help="stop a cell early once this many bit errors accumulate",
    ),
    "--out": dict(default=None, help="output CSV path (default: stdout)"),
}
_EXCLUSIVE = ("--n", "--rate")


def _config_from_args(args) -> SkConfig:
    """The cell the flags describe.  A field whose flag the subcommand
    does not take keeps SkConfig's default, as the flag's default does."""
    cfg = {f.name: getattr(args, f.name) for f in fields(SkConfig) if hasattr(args, f.name)}
    for name, kind in (("variant", SkVariant), ("precision", PrecisionMode),
                       ("bit_mapping", BitMapping)):
        if name in cfg:
            cfg[name] = kind(cfg[name])
    n = getattr(args, "n", None)  # the sweeps set each cell's N from the rate
    n_total = n if n is not None else round(args.k / args.rate)
    return SkConfig(**cfg, n_total=n_total)


def _emit(args, records) -> None:
    text = write_csv(records)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
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
    return range(args.k, args.k_max + 1, args.k_step)


def _sweep_options(args) -> dict:
    return dict(rate=args.rate, trials=args.trials, stop_at_errors=args.stop_at_errors)


def _cmd_ber(args) -> list:
    return [estimate_ber(_config_from_args(args), args.trials, args.stop_at_errors)]


def _cmd_sweep_k(args) -> list:
    return sweep_block_length(_config_from_args(args), _k_range(args), **_sweep_options(args))


def _cmd_sweep_precision(args) -> list:
    reference = read_reference_table(args.reference)
    return sweep_precision_grid(
        _config_from_args(args), args.precisions, _k_range(args), reference,
        **_sweep_options(args),
    )


def _cmd_sweep_feedback(args) -> list:
    return sweep_feedback_snr(
        _config_from_args(args), args.feedback_snr_list, _k_range(args), **_sweep_options(args)
    )


def _cmd_oracle(args) -> list:
    cfg = _config_from_args(args)
    return [OracleRecord(**config_columns(cfg, OracleRecord), oracle_ber=analytic_ber_oracle(cfg))]


def _cmd_optimize_gamma(args) -> list:
    return optimize_gamma(_config_from_args(args), args.gamma_grid)


_CELL = ("--variant", "--rate", "--snr-db", "--bit-mapping", "--gamma")
_RUN = ("--seed", "--trials", "--stop-at-errors", "--out")
_K_RANGE = ("--k-min", "--k-max", "--k-step")
_K_FROM_1 = (("--k-min", dict(required=False, default=1)), "--k-max", "--k-step")

# name, help, command, flags: a flag is named, or paired with the settings
# that differ from its _FLAGS entry; help lists the flags in _FLAGS order
_SUBCOMMANDS = (
    ("ber", "single BER estimate", _cmd_ber,
     ("--k", "--n", *_CELL, "--feedback-snr-db", "--precision", *_RUN)),
    ("sweep-k", "BER vs block length at fixed rate", _cmd_sweep_k,
     (*_K_RANGE, *_CELL, "--feedback-snr-db", "--precision", *_RUN)),
    ("sweep-precision", "SK-vs-reference grid over precision and block length",
     _cmd_sweep_precision,
     (*_K_RANGE, *_CELL, "--feedback-snr-db", "--precisions", "--reference", *_RUN)),
    ("sweep-feedback", "best block length per feedback SNR", _cmd_sweep_feedback,
     (*_K_FROM_1, *_CELL, "--feedback-snr-list", "--precision", *_RUN)),
    ("oracle", "closed-form BER for noiseless feedback", _cmd_oracle,
     ("--k", "--n", *_CELL, "--feedback-snr-db", "--out")),
    ("optimize-gamma", "grid-optimize first-use power fraction", _cmd_optimize_gamma,
     ("--k", "--n", "--rate", "--snr-db", "--bit-mapping", "--feedback-snr-db", "--gamma-grid",
      "--out")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skfb",
        description="Monte Carlo BER experiments for SK feedback coding over AWGN",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"skfb {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, command, flags in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        exclusive = p.add_mutually_exclusive_group()
        specs = [flag if isinstance(flag, tuple) else (flag, {}) for flag in flags]
        for flag, settings in sorted(specs, key=lambda spec: list(_FLAGS).index(spec[0])):
            target = exclusive if flag in _EXCLUSIVE else p
            target.add_argument(flag, **{**_FLAGS[flag], **settings})
        p.set_defaults(func=command, parser=p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = _attach_signed_values(sys.argv[1:] if argv is None else list(argv))
    args, extras = parser.parse_known_args(argv)
    if extras:  # past the subcommand's name, its own usage names the flags it takes
        (args.parser if argv[0] == args.command else parser).error(
            f"unrecognized arguments: {' '.join(extras)}")
    if hasattr(args, "k_step") and args.k_max < args.k:
        args.parser.error(f"--k-max {args.k_max} is below --k-min {args.k}")
    try:
        _emit(args, args.func(args))
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"skfb: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
