"""Each input rule gives one reason for a bad value wherever the value
enters: the library, the command line and the reference table.

A rule returns its reason ("must be one of 8, 16, 32, 64") or None; each
caller writes "<name> <reason>, got <value>" and picks its own error.
"""

import math
import os
import pathlib
from unittest import mock

import pytest

from skfb import channel, core, engine, precision
from skfb.cli import main
from skfb.core import SkConfig
from skfb.engine import (estimate_ber, measure_symbol_power, sweep_block_length,
                         sweep_precision_grid)
from skfb.precision import PrecisionMode
from skfb.records import ReferenceTableError, read_reference_table

REFERENCE = str(pathlib.Path(__file__).resolve().parent.parent / "data"
                / "deepcode_reference_sample.csv")

WIDTH = "must be one of 8, 16, 32, 64"
SEED = "must fit an unsigned 64-bit integer"
COUNT = "must be an integer >= 1"
RATE = "must be a number in (0, 1]"
SNR = "must be a number or +inf"


def _rule(module, name, value):
    return lambda capsys, tmp_path: getattr(module, name)(value)


def _library(call):
    def entry(capsys, tmp_path):
        with pytest.raises(ValueError) as exc:
            call()
        return str(exc.value)
    return entry


def _cli(*argv):
    def entry(capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        return capsys.readouterr().err
    return entry


def _reference(row):
    def entry(capsys, tmp_path):
        path = tmp_path / "ref.csv"
        path.write_text(f"precision_bits,feedback_snr_db,reference_ber\n{row}\n",
                        encoding="utf-8")
        with pytest.raises(ReferenceTableError) as exc:
            read_reference_table(path)
        message = str(exc.value)
        assert message.startswith(f"{path}:2: ")  # the row's line
        return message
    return entry


def _threads(value):
    def call():
        with mock.patch.dict(os.environ, {"SKFB_THREADS": value}):
            estimate_ber(SkConfig(), 10)
    return _library(call)


_SWEEP_K = ("sweep-k", "--k-min", "1", "--k-max", "2")
CASES = [
    ("width", WIDTH, "width_error(12)", _rule(precision, "width_error", 12)),
    ("width", WIDTH, "PrecisionMode(12)", _library(lambda: PrecisionMode(12))),
    ("width", WIDTH, "SkConfig(precision_bits=12)",
     _library(lambda: SkConfig(precision_bits=12))),
    ("width", WIDTH, "sweep_precision_grid 8,12",
     _library(lambda: sweep_precision_grid(SkConfig(), [8, 12], [1], {}, trials=10))),
    ("width", WIDTH, "--precision 12", _cli("ber", "--precision", "12")),
    ("width", WIDTH, "--precisions 8,12",
     _cli("sweep-precision", "--k-min", "1", "--k-max", "1", "--reference", REFERENCE,
          "--precisions", "8,12")),
    ("width", WIDTH, "reference 12,inf", _reference("12,inf,1e-3")),
    ("seed", SEED, "seed_error(2**64)", _rule(core, "seed_error", 2**64)),
    ("seed", SEED, "SkConfig(seed=2**64)", _library(lambda: SkConfig(seed=2**64))),
    ("seed", SEED, "--seed 2**64", _cli("ber", "--seed", str(2**64))),
    ("count", COUNT, "count_error(0)", _rule(engine, "count_error", 0)),
    ("count", COUNT, "estimate_ber trials", _library(lambda: estimate_ber(SkConfig(), 0))),
    ("count", COUNT, "estimate_ber stop_at_errors",
     _library(lambda: estimate_ber(SkConfig(), 10, 0))),
    ("count", COUNT, "measure_symbol_power trials",
     _library(lambda: measure_symbol_power(SkConfig(), 0, [1]))),
    ("count", COUNT, "--trials 0", _cli("ber", "--trials", "0")),
    ("count", COUNT, "--stop-at-errors 0", _cli("ber", "--stop-at-errors", "0")),
    ("count", COUNT, "--k-step 0", _cli(*_SWEEP_K, "--k-step", "0")),
    ("count", COUNT, "SKFB_THREADS=0", _threads("0")),
    ("rate", RATE, "rate_error(0)", _rule(engine, "rate_error", 0)),
    ("rate", RATE, "rate_error(1.5)", _rule(engine, "rate_error", 1.5)),
    ("rate", RATE, "sweep rate=0",
     _library(lambda: sweep_block_length(SkConfig(), [1], rate=0, trials=10))),
    ("rate", RATE, "sweep rate=1.5",
     _library(lambda: sweep_block_length(SkConfig(), [1], rate=1.5, trials=10))),
    ("rate", RATE, "--rate 0", _cli(*_SWEEP_K, "--rate", "0")),
    ("rate", RATE, "--rate 1.5", _cli(*_SWEEP_K, "--rate", "1.5")),
    ("snr", SNR, "snr_db_error(-inf)", _rule(channel, "snr_db_error", -math.inf)),
    ("snr", SNR, "SkConfig(feedback_snr_db=-inf)",
     _library(lambda: SkConfig(feedback_snr_db=-math.inf))),
    ("snr", SNR, "--feedback-snr-db -inf", _cli("ber", "--feedback-snr-db", "-inf")),
    ("snr", SNR, "--feedback-snr-list 20,-inf",
     _cli("sweep-feedback", "--k-max", "1", "--feedback-snr-list", "20,-inf")),
    ("snr", SNR, "reference 64,-inf", _reference("64,-inf,1e-3")),
]


@pytest.mark.parametrize(
    "reason, entry", [(reason, entry) for _, reason, _, entry in CASES],
    ids=[f"{rule}-{where}" for rule, _, where, _ in CASES],
)
def test_a_rule_gives_one_reason_at_every_entry_point(reason, entry, capsys, tmp_path):
    message = entry(capsys, tmp_path)
    assert message == reason or f" {reason}, got " in message
