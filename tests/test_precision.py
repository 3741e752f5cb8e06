"""Quantizer tests against bit-level references."""

import math

import numpy as np
import pytest

from skfb.precision import WIDTHS, PrecisionMode, quantize

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
    assert WIDTHS == (8, 16, 32, 64)
    with pytest.raises(ValueError, match="width"):
        PrecisionMode(12)


@pytest.mark.parametrize(
    "width", [16.0, True, 16.9, np.float64(16), "16", None],
    ids=["float", "bool", "fraction", "numpy-float", "str", "none"],
)
def test_rejects_a_width_that_is_not_an_integer(width):
    with pytest.raises(ValueError, match="width"):
        PrecisionMode(width)


def test_an_integer_width_is_stored_as_int():
    mode = PrecisionMode(np.int64(16))
    assert type(mode.width) is int and mode == MODE16


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
    with np.errstate(divide="ignore", invalid="ignore"):
        assert math.isnan(quantize(np.float64(0.0) / 0.0, MODE16))
        assert quantize(np.float64(1.0) / 0.0, MODE8) == np.inf
        assert quantize(np.float64(-1.0) / 0.0, MODE8) == -np.inf


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


def _rounding_edges(mode):
    """Edge values of ``mode``'s format: overflow, underflow, ties, binary64."""
    top = 2.0 ** (mode.bias + 1)  # overflow threshold
    mid = top - 2.0 ** (mode.bias - mode.mantissa_bits - 1)  # overflow midpoint
    tiny = 2.0 ** (mode.min_normal_exp - mode.mantissa_bits)  # smallest subnormal
    normal = 2.0**mode.min_normal_exp
    return np.array([
        0.0, np.inf, np.nan, mode.max_finite,
        mid,  # ties to even, past the top
        np.nextafter(mid, 0.0), np.nextafter(mid, np.inf),
        top, 10.0 * top, np.finfo(np.float64).max,
        tiny / 2, np.nextafter(tiny / 2, 1.0), np.nextafter(tiny / 2, 0.0),  # underflow midpoint
        tiny, 1.5 * tiny, 2.5 * tiny,  # subnormal midpoints, ties to even
        normal - tiny / 2,  # midway between the top subnormal and the smallest normal
        normal, 5e-324, 1e-310,
    ])


def _assert_same_bits(got, want):
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


@pytest.mark.parametrize("mode", [MODE8, MODE16, MODE32], ids=lambda m: f"w{m.width}")
def test_quantize_matches_frexp_rounding_bit_for_bit(mode):
    rng = np.random.default_rng(mode.width)
    values = rng.standard_normal(10**6) * 10.0 ** rng.uniform(-50.0, 50.0, 10**6)
    edges = _rounding_edges(mode)
    xs = np.concatenate([values, edges, -edges])
    want = _frexp_round(xs, mode.exponent_bits, mode.mantissa_bits)
    _assert_same_bits(quantize(xs, mode), want)
    signed = np.stack([edges, -edges])  # 2-d
    got = quantize(signed, mode)
    assert got.shape == signed.shape
    _assert_same_bits(got.ravel(), want[values.size:])
    for x, w in zip(signed.ravel(), want[values.size:]):
        q = quantize(x, mode)  # 0-d
        assert q.shape == ()
        _assert_same_bits(q.reshape(1), np.array([w]))
    dbl_max = np.finfo(np.float64).max
    assert quantize(-dbl_max, mode) == -mode.max_finite
    assert quantize(dbl_max, mode) == mode.max_finite
    tiny = 2.0 ** (mode.min_normal_exp - mode.mantissa_bits)
    assert math.copysign(1.0, quantize(-tiny / 2, mode)) == -1.0


_NATIVE = {16: np.float16, 32: np.float32}


@pytest.mark.parametrize("op", ["add", "subtract", "multiply", "divide", "sqrt"])
@pytest.mark.parametrize("mode", [MODE16, MODE32], ids=lambda m: f"w{m.width}")
def test_rounding_a_binary64_result_is_the_native_narrow_operation(mode, op):
    # binary64 has at least 2p + 2 significand bits for p = 11 and 24, so
    # rounding its + - x / sqrt result once gives the narrow format's own
    native = _NATIVE[mode.width]
    rng = np.random.default_rng(mode.width)
    top = math.log10(mode.max_finite)
    with np.errstate(over="ignore"):
        a, b = (
            (rng.standard_normal(10**5) * 10.0 ** rng.uniform(-top, top, 10**5)).astype(native)
            for _ in range(2)
        )
    keep = np.isfinite(a) & np.isfinite(b)
    a, b = a[keep], b[keep]
    fn = getattr(np, op)
    args = (np.abs(a),) if op == "sqrt" else (a, b)
    with np.errstate(all="ignore"):
        want = fn(*args).astype(np.float64)
        exact = fn(*(x.astype(np.float64) for x in args))
        got = quantize(exact, mode)
    # where only the narrow format overflows, quantize saturates
    over = np.isinf(want) & np.isfinite(exact)
    assert over.any() == (op in ("add", "subtract", "multiply", "divide"))
    want[over] = np.copysign(mode.max_finite, want[over])
    _assert_same_bits(got, want)


def test_spec_value_examples():
    assert quantize(1.0 + 2.0**-12, MODE16) == 1.0
    assert quantize(1.0 + 2.0**-11, MODE16) == 1.0
    assert quantize(1.0 + 2.0**-10, MODE16) == 1.0009765625


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
    assert type(quantize(np.float64(1.0) + 2.0, mode)) is np.ndarray


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


def test_exact_halving_survives_subnormals():
    # repeated halving walks through subnormals and lands on signed zero
    x = 1.0
    seen_subnormal = False
    for _ in range(40):
        x = quantize(x * 0.5, MODE8)
        if 0 < x < 2.0**-6:
            seen_subnormal = True
    assert seen_subnormal
    assert x == 0.0
