"""Self-describing result records and CSV serialization.

Every output row carries the full configuration that produced it, so any
row can be replayed: feeding the config columns (including the seed) back
into the tool reproduces the same ber bit-for-bit.  Reals are written in
shortest round-trip form, infinity as ``inf``; lines end with LF.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields

from . import __version__
from .channel import snr_db_error
from .core import BitMapping, SkConfig, SkVariant
from .precision import PrecisionMode, width_error


@dataclass(frozen=True)
class RunRecord:
    """One BER experiment: flattened config plus results."""

    variant: str
    k: int
    n_total: int
    forward_snr_db: float
    feedback_snr_db: float
    precision_bits: int
    gamma: float
    seed: int
    bit_mapping: str
    trials: int
    stop_at_errors: int | None
    bit_errors: int
    failed_trials: int
    ber: float
    ci_low: float
    ci_high: float
    wall_time_seconds: float
    tool_version: str = __version__


@dataclass(frozen=True)
class PhaseRecord(RunRecord):
    """RunRecord plus the reference comparison of one grid cell."""

    reference_ber: float | None = None
    verdict: str = ""


@dataclass(frozen=True)
class BestKRecord(RunRecord):
    """RunRecord plus the argmin marker of a best-K search."""

    is_best: bool = False


@dataclass(frozen=True)
class OracleRecord:
    """Closed-form BER prediction for one configuration."""

    variant: str
    k: int
    n_total: int
    forward_snr_db: float
    feedback_snr_db: float
    gamma: float
    bit_mapping: str
    oracle_ber: float
    tool_version: str = __version__


@dataclass(frozen=True)
class GammaRecord:
    """One grid point of the first-use power optimization."""

    k: int
    n_total: int
    forward_snr_db: float
    bit_mapping: str
    gamma: float
    oracle_ber: float
    is_best: bool = False
    tool_version: str = __version__


def config_columns(cfg: SkConfig, record_type) -> dict:
    """The config columns ``record_type`` declares, filled from ``cfg``;
    the inverse of :func:`config_from_record`."""
    columns = {
        "variant": cfg.variant.value,
        "k": cfg.k,
        "n_total": cfg.n_total,
        "forward_snr_db": cfg.forward_snr_db,
        "feedback_snr_db": cfg.feedback_snr_db,
        "precision_bits": cfg.precision.width,
        "gamma": cfg.gamma,
        "seed": cfg.seed,
        "bit_mapping": cfg.bit_mapping.value,
    }
    return {f.name: columns[f.name] for f in fields(record_type) if f.name in columns}


# the column and type of each SkConfig field not written as its own value
_CONVERTED = {"variant": ("variant", SkVariant), "precision": ("precision_bits", PrecisionMode),
              "bit_mapping": ("bit_mapping", BitMapping)}


def config_from_record(rec) -> SkConfig:
    """The configuration the config columns of ``rec`` describe: a record
    is rebuilt exactly as it was produced, the command-line tool's parsed
    flags give their cell.  A column ``rec`` lacks keeps SkConfig's default."""
    cfg = {}
    for f in fields(SkConfig):
        column, kind = _CONVERTED.get(f.name, (f.name, None))
        if hasattr(rec, column):
            cfg[f.name] = kind(getattr(rec, column)) if kind else getattr(rec, column)
    return SkConfig(**cfg)


def _format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):  # np.float64 too, whose repr names its type
        return repr(float(v))  # shortest round-trip decimal; inf -> 'inf'
    return str(v)


def write_csv(records) -> str:
    """Header plus one row per record; returns the CSV text.

    All records must be of one dataclass type, which sets the header; an
    empty list has no header and is refused.
    """
    records = list(records)
    if not records:
        raise ValueError("cannot infer the header of an empty record list")
    record_type = type(records[0])
    for rec in records:
        if type(rec) is not record_type:
            raise ValueError(
                f"mixed record types: expected {record_type.__name__}, "
                f"got {type(rec).__name__}"
            )
    names = [f.name for f in fields(record_type)]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(names)
    for rec in records:
        writer.writerow([_format_value(getattr(rec, name)) for name in names])
    return out.getvalue()


REFERENCE_HEADER = ["precision_bits", "feedback_snr_db", "reference_ber"]


class ReferenceTableError(ValueError):
    """Malformed reference table file."""


def read_reference_table(path) -> dict[tuple[int, float], float]:
    """Load and validate a baseline CSV as ``{(precision_bits,
    feedback_snr_db): reference_ber}``; widths and SNRs are checked by the
    rules of ``PrecisionMode`` and ``SkConfig``."""
    rows: dict[tuple[int, float], float] = {}
    first_line: dict[tuple[int, float], int] = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:  # a BOM is dropped
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ReferenceTableError(f"{path}: empty file") from None
        if [h.strip() for h in header] != REFERENCE_HEADER:
            raise ReferenceTableError(
                f"{path}:1: header must be {','.join(REFERENCE_HEADER)!r}, "
                f"got {','.join(header)!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise ReferenceTableError(
                    f"{path}:{lineno}: expected 3 fields, got {len(row)}"
                )
            try:
                bits = int(row[0])
                snr = float(row[1])
                ber = float(row[2])
            except ValueError as exc:
                raise ReferenceTableError(f"{path}:{lineno}: {exc}") from None
            if why := width_error(bits):
                raise ReferenceTableError(f"{path}:{lineno}: precision_bits {why}, got {bits}")
            if why := snr_db_error(snr):
                raise ReferenceTableError(f"{path}:{lineno}: feedback_snr_db {why}, got {snr}")
            if not 0.0 < ber <= 1.0:
                raise ReferenceTableError(
                    f"{path}:{lineno}: reference_ber must be in (0, 1], got {ber}"
                )
            key = (bits, snr)
            if key in rows:
                raise ReferenceTableError(
                    f"{path}:{lineno}: duplicate key {key}, first seen on "
                    f"line {first_line[key]}"
                )
            rows[key] = ber
            first_line[key] = lineno
    return rows
