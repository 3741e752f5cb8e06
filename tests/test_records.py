"""CSV serialization and reference-table validation tests."""

import csv
import io
import math
from dataclasses import fields

import numpy as np
import pytest

from skfb.core import SkConfig
from skfb.engine import estimate_ber, sweep_precision_grid
from skfb.records import (
    ReferenceTableError,
    RunRecord,
    config_from_record,
    read_reference_table,
    write_csv,
)


def _sample_record(**overrides) -> RunRecord:
    fields = dict(
        variant="estimate-diff",
        k=5,
        n_total=15,
        forward_snr_db=0.0,
        feedback_snr_db=math.inf,
        precision_bits=64,
        gamma=1.0,
        seed=7,
        bit_mapping="natural",
        trials=1000,
        stop_at_errors=None,
        bit_errors=3,
        failed_trials=0,
        ber=0.0006,
        ci_low=0.0001,
        ci_high=0.002,
        wall_time_seconds=0.25,
    )
    fields.update(overrides)
    return RunRecord(**fields)


def test_csv_roundtrip_including_infinity():
    rec = _sample_record(feedback_snr_db=math.inf, stop_at_errors=None)
    text = write_csv([rec])
    assert ",inf," in text
    assert text.endswith("\n")
    assert "\r" not in text
    row = next(csv.DictReader(io.StringIO(text)))
    assert list(row) == [f.name for f in fields(RunRecord)]
    for name, value in vars(rec).items():
        parsed = (row[name] or None) if value is None else type(value)(row[name])
        assert parsed == value, name


def test_csv_shortest_roundtrip_reals():
    rec = _sample_record(ber=0.1, ci_low=1e-9)
    text = write_csv([rec])
    assert ",0.1," in text
    assert "1e-09" in text


def test_a_numpy_float_is_written_as_a_plain_real():
    # numpy 2's repr of np.float64(0.001) is "np.float64(0.001)"
    table = {(64, math.inf): np.float64(0.001)}
    [rec] = sweep_precision_grid(SkConfig(k=1, seed=3), [64], [1], table, trials=100)
    row = next(csv.DictReader(io.StringIO(write_csv([rec]))))
    assert row["reference_ber"] == "0.001"


def test_empty_record_list_is_refused():
    # an empty list has no record type to take the header from
    with pytest.raises(ValueError):
        write_csv([])


def test_mixed_record_types_rejected():
    class Other:
        pass

    with pytest.raises(ValueError):
        write_csv([_sample_record(), Other()])


def test_run_record_replay_reproduces_ber():
    cfg = SkConfig(k=3, n_total=9, seed=99)
    rec = estimate_ber(cfg, 20_000)
    row = next(csv.DictReader(io.StringIO(write_csv([rec]))))
    assert (row["seed"], row["ber"]) == ("99", repr(rec.ber))
    cfg2 = config_from_record(rec)
    assert cfg2 == cfg
    est2 = estimate_ber(cfg2, rec.trials)
    assert est2.ber == rec.ber
    assert est2.bit_errors == rec.bit_errors


def _write_reference(tmp_path, text: str):
    path = tmp_path / "ref.csv"
    path.write_text(text, encoding="utf-8")
    return path


def test_reference_table_single_row(tmp_path):
    path = _write_reference(
        tmp_path, "precision_bits,feedback_snr_db,reference_ber\n64,inf,1e-6\n"
    )
    table = read_reference_table(path)
    assert table == {(64, math.inf): 1e-6}
    assert table.get((32, math.inf)) is None


def test_a_reference_table_saved_with_a_byte_order_mark_loads_as_without_one(tmp_path):
    # spreadsheet exports often start a UTF-8 file with one
    text = "precision_bits,feedback_snr_db,reference_ber\n64,inf,1e-6\n8,20,0.5\n"
    bom = tmp_path / "bom.csv"
    bom.write_text(text, encoding="utf-8-sig")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
    assert read_reference_table(bom) == read_reference_table(_write_reference(tmp_path, text))


def test_reference_table_duplicate_names_both_lines(tmp_path):
    path = _write_reference(
        tmp_path,
        "precision_bits,feedback_snr_db,reference_ber\n"
        "64,inf,1e-6\n32,inf,1e-5\n64,inf,2e-6\n",
    )
    with pytest.raises(ReferenceTableError) as err:
        read_reference_table(path)
    assert ":4:" in str(err.value)
    assert "line 2" in str(err.value)


def test_reference_table_rejects_zero_ber(tmp_path):
    path = _write_reference(
        tmp_path, "precision_bits,feedback_snr_db,reference_ber\n64,inf,0\n"
    )
    with pytest.raises(ReferenceTableError) as err:
        read_reference_table(path)
    assert ":2:" in str(err.value)


def test_reference_table_rejects_bad_header(tmp_path):
    path = _write_reference(tmp_path, "bits,snr,ber\n64,inf,1e-6\n")
    with pytest.raises(ReferenceTableError) as err:
        read_reference_table(path)
    assert ":1:" in str(err.value)


def test_reference_table_reports_malformed_rows_with_line_numbers(tmp_path):
    path = _write_reference(
        tmp_path,
        "precision_bits,feedback_snr_db,reference_ber\n64,inf,1e-6\nnot-a-number,inf,1e-6\n",
    )
    with pytest.raises(ReferenceTableError) as err:
        read_reference_table(path)
    assert ":3:" in str(err.value)
    path2 = _write_reference(
        tmp_path, "precision_bits,feedback_snr_db,reference_ber\n64,inf\n"
    )
    with pytest.raises(ReferenceTableError) as err2:
        read_reference_table(path2)
    assert "expected 3 fields" in str(err2.value)


def test_reference_table_rejects_unknown_width(tmp_path):
    path = _write_reference(
        tmp_path, "precision_bits,feedback_snr_db,reference_ber\n12,inf,1e-6\n"
    )
    with pytest.raises(ReferenceTableError):
        read_reference_table(path)
