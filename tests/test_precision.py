"""Quantizer and quantized-op tests against bit-level references."""

import math

import numpy as np
import pytest

from skfb.precision import PrecisionMode, q_add, q_div, q_mul, q_sqrt, q_sub, quantize

RNG = np.random.default_rng(20240817)


def minifloat_codepoints():
    """All 256 code points of the (1,4,3) format: (value, mantissa)."""
    points = []
    for sign in (1.0, -1.0):
        for exp in range(15):  # stored exponent 15 is inf/nan
            for mant in range(8):
                if exp == 0:
                    value = sign * mant * 2.0**-9  # subnormal grid
                else:
                    value = sign * (1.0 + mant / 8.0) * 2.0 ** (exp - 7)
                points.append((value, mant))
    return points


def nearest_minifloat(x: float) -> float:
    """Brute-force nearest (1,4,3) value, ties to even mantissa."""
    best = None
    for value, mant in minifloat_codepoints():
        d = abs(value - x)
        if best is None or d < best[0] or (d == best[0] and mant % 2 == 0):
            best = (d, value, mant)
    return best[1]


MODE8 = PrecisionMode(8)
MODE16 = PrecisionMode(16)
MODE32 = PrecisionMode(32)
MODE64 = PrecisionMode(64)


def test_format_table():
    assert (MODE8.exponent_bits, MODE8.mantissa_bits) == (4, 3)
    assert (MODE16.exponent_bits, MODE16.mantissa_bits) == (5, 10)
    assert (MODE32.exponent_bits, MODE32.mantissa_bits) == (8, 23)
    assert (MODE64.exponent_bits, MODE64.mantissa_bits) == (11, 52)
    assert MODE8.max_finite == 240.0
    assert MODE16.max_finite == 65504.0


def test_rejects_unknown_width():
    with pytest.raises(ValueError):
        PrecisionMode(12)


def test_identity_mode_is_exact():
    xs = np.concatenate(
        [
            RNG.standard_normal(1000) * 10.0 ** RNG.integers(-300, 300, 1000),
            [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324],
        ]
    )
    out = quantize(xs, MODE64)
    assert np.array_equal(out, xs)
    assert quantize(1.23456789, MODE64) == 1.23456789


def test_minifloat_against_enumeration_oracle():
    xs = np.concatenate(
        [
            RNG.uniform(-300.0, 300.0, 400),
            RNG.uniform(-1.0, 1.0, 200),
            RNG.uniform(-0.002, 0.002, 200),  # deep in the subnormal range
        ]
    )
    got = quantize(xs, MODE8)
    for x, g in zip(xs, got):
        assert g == nearest_minifloat(float(x)), f"x={x}"


def test_minifloat_midpoint_ties_to_even():
    values = sorted({v for v, _ in minifloat_codepoints()})
    mants = {}
    for v, m in minifloat_codepoints():
        mants[v] = m
    for lo, hi in zip(values[:-1], values[1:]):
        mid = (lo + hi) / 2.0
        got = quantize(mid, MODE8)
        want = lo if mants[lo] % 2 == 0 else hi
        assert got == want, f"midpoint of ({lo}, {hi})"


def test_minifloat_saturation_examples():
    assert quantize(240.0, MODE8) == 240.0
    assert quantize(260.0, MODE8) == 240.0
    assert quantize(-1e9, MODE8) == -240.0


def test_infinities_and_nan_propagate():
    assert quantize(np.inf, MODE8) == np.inf
    assert quantize(-np.inf, MODE16) == -np.inf
    assert math.isnan(quantize(np.nan, MODE8))
    assert math.isnan(q_div(0.0, 0.0, MODE16))
    assert q_div(1.0, 0.0, MODE8) == np.inf
    assert q_div(-1.0, 0.0, MODE8) == -np.inf


def test_half_precision_against_float16_cast():
    # in-range values: numpy's float16 conversion is the bit-level reference
    xs = np.concatenate(
        [
            RNG.uniform(-60000, 60000, 500),
            RNG.uniform(-2.0, 2.0, 500),
            RNG.uniform(-1e-4, 1e-4, 500),
            RNG.uniform(-1e-7, 1e-7, 200),  # subnormal half range
        ]
    )
    want = xs.astype(np.float16).astype(np.float64)
    got = quantize(xs, MODE16)
    assert np.array_equal(got, want)


def test_single_precision_against_float32_cast():
    xs = RNG.standard_normal(2000) * 10.0 ** RNG.integers(-30, 30, 2000)
    want = xs.astype(np.float32).astype(np.float64)
    got = quantize(xs, MODE32)
    assert np.array_equal(got, want)


def _frexp_round(x, exponent_bits, mantissa_bits):
    """Round to nearest even on the format's ulp grid, by frexp scaling,
    saturating finite overflow (the rounding quantize does at 8/16 bits)."""
    bias = (1 << (exponent_bits - 1)) - 1
    max_finite = (2.0 - 2.0**-mantissa_bits) * 2.0**bias
    with np.errstate(invalid="ignore", over="ignore"):
        _, e = np.frexp(x)
        ulp_exp = np.maximum(e - 1, 1 - bias) - mantissa_bits
        q = np.ldexp(np.rint(np.ldexp(x, -ulp_exp)), ulp_exp)
        over = np.isfinite(x) & (np.abs(q) > max_finite)
    return np.where(over, np.copysign(max_finite, x), q)


def test_single_precision_cast_matches_frexp_rounding_bit_for_bit():
    rng = np.random.default_rng(32)
    values = rng.standard_normal(10**6) * 10.0 ** rng.uniform(-50.0, 50.0, 10**6)
    top, tiny = 2.0**128, 2.0**-149  # overflow threshold, smallest subnormal
    edges = np.array([
        0.0, np.inf, np.nan, MODE32.max_finite,
        top - 2.0**103,  # overflow midpoint: ties to even, past the top
        np.nextafter(top - 2.0**103, 0.0), np.nextafter(top - 2.0**103, np.inf),
        top, 1e39, 1.7976931348623157e308,
        tiny / 2, np.nextafter(tiny / 2, 1.0), np.nextafter(tiny / 2, 0.0),  # underflow midpoint
        tiny, 1.5 * tiny, 2.5 * tiny,  # subnormal midpoints, ties to even
        2.0**-126 - tiny / 2,  # midway between the top subnormal and the smallest normal
        2.0**-126, 5e-324, 1e-310,
    ])
    xs = np.concatenate([values, edges, -edges])
    got = quantize(xs, MODE32)
    want = _frexp_round(xs, 8, 23)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))
    assert quantize(-1e39, MODE32) == -MODE32.max_finite
    assert math.copysign(1.0, quantize(-tiny / 2, MODE32)) == -1.0


def test_spec_value_examples():
    assert quantize(1.0 + 2.0**-12, MODE16) == 1.0
    assert q_add(1.0, 2.0**-11, MODE16) == 1.0
    assert q_add(1.0, 2.0**-10, MODE16) == 1.0009765625


@pytest.mark.parametrize("mode", [MODE8, MODE16, MODE32, MODE64])
def test_idempotence_and_sign(mode):
    xs = RNG.standard_normal(2000) * 10.0 ** RNG.integers(-12, 12, 2000)
    q1 = quantize(xs, mode)
    q2 = quantize(q1, mode)
    assert np.array_equal(q1, q2)
    nonzero = q1 != 0
    assert np.all(np.sign(q1[nonzero]) == np.sign(xs[nonzero]))


@pytest.mark.parametrize("mode", [MODE8, MODE16, MODE32, MODE64])
def test_a_scalar_comes_back_as_a_0d_array(mode):
    for x in (1.25, 1e39, -np.inf):
        q = quantize(x, mode)
        assert type(q) is np.ndarray and q.dtype == np.float64 and q.shape == ()
    assert type(q_add(1.0, 2.0, mode)) is np.ndarray


@pytest.mark.parametrize("mode", [MODE8, MODE16, MODE32])
def test_monotonicity(mode):
    xs = np.sort(RNG.uniform(-mode.max_finite * 1.5, mode.max_finite * 1.5, 5000))
    q = quantize(xs, mode)
    assert np.all(np.diff(q) >= 0)


@pytest.mark.parametrize("mode", [MODE8, MODE16, MODE32])
def test_half_ulp_error_bound(mode):
    xs = RNG.uniform(-mode.max_finite, mode.max_finite, 5000)
    q = quantize(xs, mode)
    # ulp of the binade containing x, floored at the subnormal grid
    _, e = np.frexp(xs)
    ulp = 2.0 ** (np.maximum(e - 1, mode.min_normal_exp) - mode.mantissa_bits)
    assert np.all(np.abs(q - xs) <= ulp / 2.0 + 1e-300)


@pytest.mark.parametrize("mode", [MODE8, MODE16, MODE32, MODE64])
def test_commutativity(mode):
    a = quantize(RNG.standard_normal(1000), mode)
    b = quantize(RNG.standard_normal(1000), mode)
    assert np.array_equal(q_add(a, b, mode), q_add(b, a, mode))
    assert np.array_equal(q_mul(a, b, mode), q_mul(b, a, mode))


def test_q_add_zero_is_quantize():
    xs = RNG.uniform(-200, 200, 500)
    for mode in (MODE8, MODE16, MODE32, MODE64):
        assert np.array_equal(q_add(xs, 0.0, mode), quantize(xs, mode))


def test_q_ops_at_64_bit_match_native():
    a = RNG.standard_normal(1000)
    b = RNG.standard_normal(1000)
    assert np.array_equal(q_mul(a, b, MODE64), a * b)
    assert np.array_equal(q_sub(a, b, MODE64), a - b)
    assert np.array_equal(q_sqrt(np.abs(a), MODE64), np.sqrt(np.abs(a)))


def test_exact_halving_survives_subnormals():
    # repeated halving walks through subnormals and lands on signed zero
    x = 1.0
    seen_subnormal = False
    for _ in range(40):
        x = q_mul(x, 0.5, MODE8)
        if 0 < x < 2.0**-6:
            seen_subnormal = True
    assert seen_subnormal
    assert x == 0.0
