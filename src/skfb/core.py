"""Message representation, 2^K-ary PAM mapping, and experiment configuration.

A block of K information bits is carried by a single amplitude from a
2^K-ary PAM constellation normalized to unit average power over uniform
messages: the constellation values are (2m - (2^K - 1)) * delta with
delta = sqrt(3 / (4^K - 1)).  Bit labels are attached to constellation
positions either in natural binary order or in Gray order; the value set
is identical for both.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .channel import snr_db_error
from .precision import PrecisionMode

MAX_K = 64  # message indices must fit an unsigned 64-bit integer


def seed_error(seed: int) -> str | None:
    """Why ``SkConfig`` and the command-line tool refuse an integer seed,
    or None."""
    return None if 0 <= seed < 2**64 else "must fit an unsigned 64-bit integer"


class SkVariant(enum.Enum):
    """Which algebraic form of the SK recursion the transmitter runs."""

    ESTIMATE_DIFFERENCE = "estimate-diff"
    ERROR_RECURSION = "error-recursion"


class BitMapping(enum.Enum):
    """Association between bit patterns and constellation positions."""

    NATURAL = "natural"
    GRAY = "gray"


@dataclass(frozen=True)
class SkConfig:
    """Full parameterization of one SK simulation.

    ``n_total`` counts every channel use, including the initial message
    transmission; the default 3*k gives the fixed rate-1/3 setup.
    ``gamma`` is the fraction of per-symbol power given to the first
    transmission (1.0 = uniform); the total energy over the block is held
    at n_total * P, so the remaining uses share the residual equally.
    ``feedback_snr_db = inf`` means noiseless feedback (the transmitter
    sees the receiver's values exactly).
    """

    variant: SkVariant = SkVariant.ESTIMATE_DIFFERENCE
    k: int = 1
    n_total: int | None = None
    forward_snr_db: float = 0.0
    feedback_snr_db: float = math.inf
    precision: PrecisionMode = field(default_factory=PrecisionMode)
    gamma: float = 1.0
    seed: int = 0
    bit_mapping: BitMapping = BitMapping.NATURAL

    def __post_init__(self):
        if self.n_total is None and isinstance(self.k, numbers.Integral):
            object.__setattr__(self, "n_total", 3 * self.k)
        for name in ("k", "n_total", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        for name in ("forward_snr_db", "feedback_snr_db", "gamma"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            object.__setattr__(self, name, float(value))
        for name, kind in (
            ("variant", SkVariant),
            ("precision", PrecisionMode),
            ("bit_mapping", BitMapping),
        ):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(
                    f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}"
                )
        if not 1 <= self.k <= MAX_K:
            raise ValueError(f"k must be in [1, {MAX_K}], got {self.k}")
        if self.n_total < 1:
            raise ValueError(f"n_total must be >= 1, got {self.n_total}")
        for name in ("forward_snr_db", "feedback_snr_db"):
            snr = getattr(self, name)
            if why := snr_db_error(snr):
                raise ValueError(f"{name} {why}, got {snr}")
        if not self.gamma > 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if self.n_total == 1 and self.gamma > 1:
            raise ValueError(
                f"gamma={self.gamma} exceeds the energy budget of a single use "
                f"(need gamma <= 1 when n_total == 1)"
            )
        if self.n_total > 1 and self.gamma >= self.n_total:
            raise ValueError(
                f"gamma={self.gamma} leaves no power for the remaining "
                f"{self.n_total - 1} uses (need gamma < n_total)"
            )
        if why := seed_error(self.seed):
            raise ValueError(f"seed {why}, got {self.seed}")

    @property
    def rate(self) -> float:
        return self.k / self.n_total


def pam_step(k: int) -> float:
    """Normalization step delta of the 2^k-ary unit-power constellation."""
    return math.sqrt(3.0 / (4.0**k - 1.0))


def index_to_value(index, k: int):
    """Amplitude of constellation position ``index`` (scalar or array)."""
    m = np.asarray(index, dtype=np.float64)
    return (2.0 * m - (2.0**k - 1.0)) * pam_step(k)


def value_to_index(value, k: int):
    """Nearest constellation position, ties toward the lower index.

    Accepts scalars or arrays; inputs must be finite (callers are
    responsible for routing non-finite estimates to the failure path).
    Values beyond either end decode to position 0 or ``index_mask(k)``.
    Beyond K=53 adjacent positions are not distinct in binary64, so the
    nearest position is only resolved to within the float spacing there.
    """
    with np.errstate(over="ignore"):  # far beyond either end t is +-inf, which the clip maps
        t = (np.asarray(value, dtype=np.float64) / pam_step(k) + (2.0**k - 1.0)) / 2.0
    # ceil(t - 1/2) rounds to nearest with half-way cases going down
    m = np.ceil(t - 0.5)
    # 2^k - 1 rounds up to 2^k in float64 for k >= 54, so the top end is
    # clipped in the integer domain; the float clip only keeps the cast valid
    idx = np.clip(m, 0.0, np.nextafter(2.0**k, 0.0)).astype(np.uint64)
    return np.where(m >= 2.0**k, index_mask(k), idx)


def index_mask(k: int) -> np.uint64:
    """Mask selecting the low k bits of a uint64 (uniform index draw)."""
    return np.uint64((1 << k) - 1)


def label_of_index(index, mapping: BitMapping):
    """Bit pattern (as an integer) carried by constellation position ``index``;
    a K-bit label is its own low K bits, so K is not needed.  Gray labels
    position m with m XOR m>>1."""
    m = np.asarray(index, dtype=np.uint64)
    if mapping is BitMapping.NATURAL:
        return m
    return m ^ (m >> np.uint64(1))


def index_of_label(label, mapping: BitMapping):
    """Constellation position that carries bit pattern ``label``; under
    Gray labeling the prefix XOR of the label, folded in six shifts."""
    v = np.asarray(label, dtype=np.uint64)
    if mapping is BitMapping.NATURAL:
        return v
    v = v.copy()
    for shift in (1, 2, 4, 8, 16, 32):
        v ^= v >> np.uint64(shift)
    return v


def popcount_u64(a) -> np.ndarray:
    """Per-element population count of a uint64 array."""
    return np.bitwise_count(np.asarray(a, dtype=np.uint64))
