"""PAM mapping, bit labeling, and configuration tests."""

import math
import warnings

import numpy as np
import pytest

from skfb.core import (
    BitMapping,
    SkConfig,
    index_mask,
    index_of_label,
    index_to_value,
    label_of_index,
    pam_step,
    popcount_u64,
    value_to_index,
)
from skfb.precision import PrecisionMode

RNG = np.random.default_rng(77)


def _encode(labels, k, mapping=BitMapping.NATURAL):
    """Amplitudes of the bit labels, as the engine maps its messages."""
    return index_to_value(index_of_label(np.asarray(labels, dtype=np.uint64), k, mapping), k)


def _decode(values, k, mapping=BitMapping.NATURAL):
    """Bit labels of the nearest positions, as the engine decodes."""
    return label_of_index(value_to_index(values, k), k, mapping)


def test_two_pam_is_plus_minus_one():
    assert list(_encode([0, 1], 1)) == [-1.0, +1.0]


def test_k2_index3_value_from_step_formula():
    # frozen from the normalization formula: 3 * sqrt(3/15)
    assert int(index_of_label(0b11, 2, BitMapping.NATURAL)) == 3
    value = float(_encode(0b11, 2))
    assert value == pytest.approx(3.0 * math.sqrt(3.0 / 15.0), abs=1e-15)
    assert value == pytest.approx(1.3416407864998738, abs=1e-15)


@pytest.mark.parametrize("k", range(1, 17))
def test_unit_average_power(k):
    values = index_to_value(np.arange(1 << k), k)
    assert np.mean(values**2) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("k", range(1, 13))
def test_constellation_symmetric_about_zero(k):
    values = index_to_value(np.arange(1 << k), k)
    assert np.allclose(values, -values[::-1], atol=0.0)


@pytest.mark.parametrize("k", range(1, 11))
@pytest.mark.parametrize("mapping", list(BitMapping))
def test_roundtrip_exhaustive(k, mapping):
    labels = np.arange(1 << k, dtype=np.uint64)
    assert np.array_equal(_decode(_encode(labels, k, mapping), k, mapping), labels)


def test_gray_and_natural_share_the_value_set():
    for k in (2, 3, 6):
        labels = np.arange(1 << k, dtype=np.uint64)
        nat = np.sort(_encode(labels, k, BitMapping.NATURAL))
        gray = np.sort(_encode(labels, k, BitMapping.GRAY))
        assert np.array_equal(nat, gray)


def test_gray_adjacent_positions_differ_in_one_bit():
    for k in (3, 5, 8):
        labels = label_of_index(np.arange(1 << k, dtype=np.uint64), k, BitMapping.GRAY)
        flips = popcount_u64(labels[1:] ^ labels[:-1])
        assert np.all(flips == 1)


def test_midway_tie_goes_to_lower_index():
    # exactly between positions 1 and 2 of the 4-PAM grid
    assert int(value_to_index(0.0, 2)) == 1
    # and between 0 and 1
    delta = pam_step(2)
    assert int(value_to_index(-2.0 * delta, 2)) == 0


def test_decode_nearest_simple():
    assert int(_decode(0.3, 1)) == 1
    assert int(_decode(-0.0001, 1)) == 0


def test_decode_clamps_outliers():
    assert int(value_to_index(1e6, 3)) == 7
    assert int(value_to_index(-1e6, 3)) == 0


@pytest.mark.parametrize("k", [53, 54, 60, 64])
def test_decode_clamps_outliers_beyond_53_bits(k):
    # 2^k - 1 is not a float64 for k >= 54; the top must still be index_mask(k)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        idx = value_to_index(np.array([-10.0, 10.0]), k)
    assert idx.dtype == np.uint64
    assert list(idx) == [0, index_mask(k)]


@pytest.mark.parametrize("k", [1, 2, 53, 64])
def test_decode_clamps_values_whose_scaling_overflows(k):
    # v / pam_step(k) overflows to +-inf for k >= 2; that must not warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        idx = value_to_index(np.array([1.7e308, -1.7e308, np.finfo(float).max]), k)
    assert list(idx) == [index_mask(k), 0, index_mask(k)]


def test_bit_errors_examples():
    # the engine counts bit errors as popcount(sent label ^ decoded label)
    sent = np.array([0b011, 0b00, 0b1, 2**64 - 1], dtype=np.uint64)
    decoded = np.array([0b011, 0b11, 0b0, 0], dtype=np.uint64)
    assert list(popcount_u64(sent ^ decoded)) == [0, 2, 1, 64]


def test_bit_errors_matches_naive_loop():
    for _ in range(50):
        k = int(RNG.integers(1, 65))
        a, b = (int(v) & ((1 << k) - 1) for v in RNG.integers(0, 2**64, 2, dtype=np.uint64))
        naive = sum(((a >> i) & 1) != ((b >> i) & 1) for i in range(k))
        assert popcount_u64(np.uint64(a) ^ np.uint64(b)) == naive


def test_config_defaults_and_validation():
    cfg = SkConfig(k=7)
    assert cfg.n_total == 21
    assert cfg.rate == pytest.approx(1.0 / 3.0)
    assert cfg.feedback_snr_db == math.inf
    assert cfg.precision == PrecisionMode(64)
    with pytest.raises(ValueError):
        SkConfig(k=0)
    with pytest.raises(ValueError):
        SkConfig(k=65)
    with pytest.raises(ValueError):
        SkConfig(k=2, n_total=0)
    with pytest.raises(ValueError):
        SkConfig(k=2, gamma=0.0)
    with pytest.raises(ValueError):
        SkConfig(k=2, n_total=6, gamma=6.0)  # no power left for later uses
    with pytest.raises(ValueError):
        SkConfig(k=1, seed=-1)


@pytest.mark.parametrize(
    "field, overrides",
    [
        ("forward_snr_db", dict(forward_snr_db=math.nan)),
        ("forward_snr_db", dict(forward_snr_db=-math.inf)),
        ("feedback_snr_db", dict(feedback_snr_db=math.nan)),
        ("feedback_snr_db", dict(feedback_snr_db=-math.inf)),
        ("gamma", dict(n_total=1, gamma=1.5)),
        ("gamma", dict(gamma=0.0)),
        ("gamma", dict(gamma=math.nan)),
        ("seed", dict(seed=1.5)),
        ("seed", dict(seed=True)),
        ("k", dict(k=2.5)),
        ("k", dict(k=True)),
        ("n_total", dict(n_total=6.0)),
        ("precision", dict(precision=16)),
        ("variant", dict(variant="estimate-diff")),
        ("bit_mapping", dict(bit_mapping="gray")),
        ("gamma", dict(gamma="2")),
        ("gamma", dict(gamma=True)),
        ("gamma", dict(gamma=None)),
        ("forward_snr_db", dict(forward_snr_db="3")),
        ("forward_snr_db", dict(forward_snr_db=False)),
        ("feedback_snr_db", dict(feedback_snr_db="inf")),
        ("feedback_snr_db", dict(feedback_snr_db=1j)),
        # below about -3082.5 dB the noise variance overflows binary64
        ("forward_snr_db", dict(forward_snr_db=-3082.6)),
        ("feedback_snr_db", dict(feedback_snr_db=-3100.0)),
        ("feedback_snr_db", dict(feedback_snr_db=-7000.0)),
    ],
)
def test_config_refusals_name_the_field(field, overrides):
    with pytest.raises(ValueError, match=field):
        SkConfig(**{"k": 2, **overrides})


def test_config_stores_float_fields_as_float():
    cfg = SkConfig(k=2, gamma=1, forward_snr_db=np.int64(0), feedback_snr_db=np.float32(20.5))
    assert (cfg.gamma, cfg.forward_snr_db, cfg.feedback_snr_db) == (1.0, 0.0, 20.5)
    assert all(type(v) is float for v in (cfg.gamma, cfg.forward_snr_db, cfg.feedback_snr_db))


def test_config_stores_integer_fields_as_int():
    cfg = SkConfig(k=np.int64(3), n_total=np.uint8(9), seed=np.uint64(2**63))
    assert (cfg.k, cfg.n_total, cfg.seed) == (3, 9, 2**63)
    assert all(type(v) is int for v in (cfg.k, cfg.n_total, cfg.seed))


def test_config_accepts_the_edges_the_model_honours():
    assert SkConfig(k=2, forward_snr_db=math.inf, feedback_snr_db=math.inf).n_total == 6
    assert SkConfig(k=1, n_total=1, gamma=1.0).gamma == 1.0
    assert SkConfig(k=2, forward_snr_db=-3082.5, feedback_snr_db=-3082.5).n_total == 6


def test_large_k_interfaces_stay_finite():
    values = index_to_value(np.array([0, (1 << 60) - 1], dtype=np.uint64), 60)
    assert np.all(np.isfinite(values))
    assert abs(float(np.max(np.abs(values))) - math.sqrt(3.0)) < 1e-6
