"""Emulated reduced-precision binary floating point.

The SK recursion can be run as if every state update were executed on a
narrower floating-point unit: each arithmetic result is rounded to the
nearest value representable in the target format (round-to-nearest-even),
with gradual underflow through subnormals and saturation to the largest
finite magnitude on overflow.  True infinities (e.g. from division by
zero) and NaNs pass through so that numerically failed trials remain
detectable downstream.

Supported widths and their (exponent, mantissa) bit splits:

    8-bit  -> (4, 3)    minifloat, largest finite value 240
    16-bit -> (5, 10)   binary16
    32-bit -> (8, 23)   binary32
    64-bit -> (11, 52)  native double; all operations are the identity
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# width -> (exponent bits, mantissa bits); sign bit implied
_FORMATS = {
    8: (4, 3),
    16: (5, 10),
    32: (8, 23),
    64: (11, 52),
}


@dataclass(frozen=True)
class PrecisionMode:
    """Arithmetic emulation policy for one bit width."""

    width: int = 64

    def __post_init__(self):
        if self.width not in _FORMATS:
            raise ValueError(
                f"unsupported precision width {self.width}; "
                f"choose one of {sorted(_FORMATS)}"
            )

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

    @property
    def is_identity(self) -> bool:
        return self.width == 64


def quantize(x, mode: PrecisionMode):
    """Round to the nearest representable value of ``mode``.

    Round-to-nearest-even; overflow of finite inputs saturates to
    ``mode.max_finite`` with the input's sign; underflow goes through
    subnormals to signed zero.  ``inf`` and ``nan`` propagate unchanged.
    Accepts scalars or arrays and preserves the input shape.
    """
    if mode.is_identity:
        if type(x) is np.ndarray and x.dtype == np.float64:
            return x
        if np.isscalar(x) or isinstance(x, float):
            return float(x)
        return np.asarray(x, dtype=np.float64)

    scalar = np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0)
    xa = np.asarray(x, dtype=np.float64)

    if mode.width == 32:
        # the hardware cast rounds to nearest even through subnormals; it
        # sends finite overflow to inf, which saturates here instead
        with np.errstate(invalid="ignore", over="ignore"):
            q = xa.astype(np.float32).astype(np.float64)
        over = np.isinf(q)
        if over.any():
            over &= np.isfinite(xa)
            q[over] = np.copysign(mode.max_finite, xa[over])
        return float(q) if scalar else q

    with np.errstate(invalid="ignore", over="ignore"):
        _, e = np.frexp(xa)  # |x| = m * 2^e with m in [0.5, 1)
        # exponent of the ulp: normals scale with the value, subnormals
        # share the fixed grid of the smallest normal binade
        ulp_exp = np.maximum(e - 1, mode.min_normal_exp) - mode.mantissa_bits
        q = np.ldexp(np.rint(np.ldexp(xa, -ulp_exp)), ulp_exp)
        over = np.isfinite(xa) & (np.abs(q) > mode.max_finite)
        q = np.where(over, np.copysign(mode.max_finite, xa), q)

    return float(q) if scalar else q


def q_add(a, b, mode: PrecisionMode):
    """a + b, rounded to ``mode``."""
    return quantize(np.add(a, b), mode)


def q_sub(a, b, mode: PrecisionMode):
    """a - b, rounded to ``mode``."""
    return quantize(np.subtract(a, b), mode)


def q_mul(a, b, mode: PrecisionMode):
    """a * b, rounded to ``mode``."""
    with np.errstate(invalid="ignore", over="ignore"):
        return quantize(np.multiply(a, b), mode)


def q_div(a, b, mode: PrecisionMode):
    """a / b, rounded to ``mode``; division by zero yields signed inf."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return quantize(np.divide(a, b), mode)


def q_sqrt(a, mode: PrecisionMode):
    """sqrt(a), rounded to ``mode``; negative inputs yield nan."""
    with np.errstate(invalid="ignore"):
        return quantize(np.sqrt(a), mode)
