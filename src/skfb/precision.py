"""Emulated reduced-precision binary floating point.

The SK recursion can be run as if every state update were executed on a
narrower floating-point unit: each arithmetic result is computed in
binary64 and rounded once, by ``quantize``, to the nearest value
representable in the target format (round-to-nearest-even), with gradual
underflow through subnormals and saturation to the largest finite
magnitude on overflow.  True infinities (e.g. from division by zero) and
NaNs pass through so that numerically failed trials remain detectable
downstream.

Supported widths and their (exponent, mantissa) bit splits:

    8-bit  -> (4, 3)    minifloat, largest finite value 240
    16-bit -> (5, 10)   binary16
    32-bit -> (8, 23)   binary32
    64-bit -> (11, 52)  native double; quantize is the identity
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

# width -> (exponent bits, mantissa bits); sign bit implied
_FORMATS = {
    8: (4, 3),
    16: (5, 10),
    32: (8, 23),
    64: (11, 52),
}
WIDTHS = tuple(_FORMATS)  # the supported widths, ascending


def width_error(width) -> str | None:
    """Why ``SkConfig``'s ``precision_bits``, the command-line tool, the
    reference table and ``PrecisionMode`` refuse a width, or None."""
    if not isinstance(width, numbers.Integral) or isinstance(width, bool):
        return "must be an integer"
    if width not in _FORMATS:
        return f"must be one of {', '.join(map(str, WIDTHS))}"
    return None


@dataclass(frozen=True)
class PrecisionMode:
    """The format ``quantize`` rounds to: one bit width, an integer in
    ``WIDTHS``, stored as ``int``."""

    width: int = 64

    def __post_init__(self):
        if why := width_error(self.width):
            raise ValueError(f"width {why}, got {self.width!r}")
        object.__setattr__(self, "width", int(self.width))

    @property
    def exponent_bits(self) -> int:
        return _FORMATS[self.width][0]

    @property
    def mantissa_bits(self) -> int:
        return _FORMATS[self.width][1]

    @property
    def bias(self) -> int:
        return (1 << (self.exponent_bits - 1)) - 1

    @property
    def min_normal_exp(self) -> int:
        # smallest unbiased exponent of a normal number
        return 1 - self.bias

    @property
    def max_finite(self) -> float:
        # top stored exponent is reserved for inf/nan
        return float((2.0 - 2.0 ** -self.mantissa_bits) * 2.0 ** self.bias)


def quantize(x, mode: PrecisionMode):
    """Round to the nearest representable value of ``mode``.

    Round-to-nearest-even; overflow of finite inputs saturates to
    ``mode.max_finite`` with the input's sign; underflow goes through
    subnormals to signed zero.  ``inf`` and ``nan`` propagate unchanged.
    Returns a float64 ndarray of the input's shape (0-d for a scalar);
    at 64 bits a float64 ndarray comes back as the same object.
    """
    xa = np.asarray(x, dtype=np.float64)
    if mode.width == 64:
        return xa

    if mode.width == 32:
        # the hardware cast rounds to nearest even through subnormals; it
        # sends finite overflow to inf, which saturates here instead
        with np.errstate(invalid="ignore", over="ignore"):
            q = xa.astype(np.float32).astype(np.float64)
        over = np.isinf(q)
    else:
        # exponent of the ulp: normals scale with the value, subnormals
        # share the fixed grid of the smallest normal binade; a finite input
        # near DBL_MAX rounds to inf, and asarray keeps a 0-d input 0-d
        with np.errstate(invalid="ignore", over="ignore"):
            e = np.maximum(np.frexp(xa)[1] - 1, mode.min_normal_exp) - mode.mantissa_bits
            q = np.asarray(np.ldexp(np.rint(np.ldexp(xa, -e)), e))
        over = np.abs(q) > mode.max_finite
    # only the input tells finite overflow, which saturates, from infinity
    if over.any():
        over &= np.isfinite(xa)
        np.copysign(mode.max_finite, xa, out=q, where=over)
    return q
