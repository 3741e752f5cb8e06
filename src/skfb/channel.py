"""AWGN forward and feedback channels with reproducible noise streams.

Noise is counter-based: the Gaussian variate consumed by trial ``i`` at
step ``n`` on a given channel role is a pure function of (master seed,
role, i, n), independent of how trials are batched or scheduled across
workers.  Philox provides the keyed counter stream; variates come from
the inverse normal CDF applied to 53-bit uniforms, so consumption per
step is fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

# channel / stream roles (spawn keys off the master seed)
ROLE_FORWARD = 0
ROLE_FEEDBACK = 1
ROLE_MESSAGE = 2


def snr_db_to_noise_std(snr_db: float) -> float:
    """Noise standard deviation under the unit-signal-power convention."""
    if snr_db == np.inf:
        return 0.0
    return float(10.0 ** (-snr_db / 20.0))


def _role_key(master_seed: int, role: int) -> np.ndarray:
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(role),))
    return ss.generate_state(2, np.uint64)


def raw_stream(master_seed: int, role: int, start: int, count: int) -> np.ndarray:
    """uint64 words [start, start+count) of the keyed Philox stream.

    ``start`` must be a multiple of 4 (Philox emits 4 words per counter).
    """
    if start % 4:
        raise ValueError("stream offsets must be 4-word aligned")
    bg = np.random.Philox(key=_role_key(master_seed, role), counter=start // 4)
    return bg.random_raw(count)


def _stride(n_steps: int) -> int:
    # words reserved per trial; 4-word alignment keeps counters block-aligned
    return 4 * ((n_steps + 3) // 4) if n_steps > 0 else 4


def standard_normals(
    master_seed: int,
    role: int,
    trial_lo: int,
    trial_hi: int,
    n_steps: int,
    n_read: int | None = None,
) -> np.ndarray:
    """(trials, n_read) standard normals for trials [trial_lo, trial_hi).

    Row i holds the variates of absolute trial index trial_lo + i at steps
    [0, n_read) of an ``n_steps``-use block (n_read defaults to n_steps).
    Words are laid out for the whole block, so entry (i, n) depends on
    neither the requested range boundaries nor ``n_read``; only the read
    columns are converted.
    """
    if n_read is None:
        n_read = n_steps
    n_trials = trial_hi - trial_lo
    stride = _stride(n_steps)
    raw = raw_stream(master_seed, role, trial_lo * stride, n_trials * stride)
    raw = raw.reshape(n_trials, stride)[:, :n_read]
    # (r >> 11) + 0.5 scaled by 2^-53 lies strictly inside (0, 1)
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return ndtri(u)


def message_indices(master_seed: int, trial_lo: int, trial_hi: int, k: int) -> np.ndarray:
    """Uniform message indices in [0, 2^k) for trials [trial_lo, trial_hi)."""
    raw = raw_stream(master_seed, ROLE_MESSAGE, trial_lo * 4, (trial_hi - trial_lo) * 4)
    mask = np.uint64((1 << k) - 1)
    return raw.reshape(-1, 4)[:, 0] & mask


@dataclass
class AwgnChannel:
    """One-directional AWGN channel over a block of trials.

    ``transmit(x, step)`` adds column ``step`` of a pre-derived
    counter-based (trials, steps) noise block to its input, so the noise
    of each use is a pure function of (seed, role, trial, step) and never
    of how often the channel was used before.  ``snr_db = inf`` is a
    noiseless passthrough.
    """

    snr_db: float
    noise: np.ndarray | None = None  # (trials, steps) standard normals

    @classmethod
    def for_trials(
        cls,
        snr_db: float,
        master_seed: int,
        role: int,
        trial_lo: int,
        trial_hi: int,
        n_steps: int,
        n_read: int | None = None,
    ) -> "AwgnChannel":
        if snr_db == np.inf:
            return cls(snr_db=snr_db, noise=None)
        noise = standard_normals(master_seed, role, trial_lo, trial_hi, n_steps, n_read)
        return cls(snr_db=snr_db, noise=noise)

    @property
    def noise_std(self) -> float:
        return snr_db_to_noise_std(self.snr_db)

    def transmit(self, x, step: int):
        """y = x + z, with z the channel's noise at channel use ``step``."""
        xa = np.asarray(x, dtype=np.float64)
        if not np.all(np.isfinite(xa)):
            raise ValueError("channel input must be finite")
        if self.noise is None:
            return xa
        return xa + self.noise_std * self.noise[:, step]


def make_channels(
    cfg, trial_lo: int, trial_hi: int, n_read: int | None = None
) -> tuple[AwgnChannel, AwgnChannel]:
    """Forward and feedback channels for a block of trials of ``cfg``.

    With ``n_read`` set, only the noise of channel uses [0, n_read) is
    derived; each of those variates is the one the full block would use.
    """
    forward = AwgnChannel.for_trials(
        cfg.forward_snr_db, cfg.seed, ROLE_FORWARD, trial_lo, trial_hi, cfg.n_total, n_read
    )
    feedback = AwgnChannel.for_trials(
        cfg.feedback_snr_db, cfg.seed, ROLE_FEEDBACK, trial_lo, trial_hi, cfg.n_total, n_read
    )
    return forward, feedback
