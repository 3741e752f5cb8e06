"""AWGN forward and feedback channels with reproducible noise streams.

Noise is counter-based: the Gaussian variate consumed by trial ``i`` at
step ``n`` on a given channel role is a pure function of (master seed,
role, i, n), independent of how trials are batched or scheduled across
workers.  Philox provides the keyed counter stream; variates come from
the inverse normal CDF applied to 53-bit uniforms, so consumption per
step is fixed.  A block of noise is stored step-major, so each channel
use reads one contiguous column.  A channel is a noise standard
deviation and such a block; a noiseless link (SNR +inf) has none.

``ndtri`` here and the codec's ``ndtr`` come from ``ufuncs``, scipy's
compiled ufunc module, and the streams from numpy's ``SeedSequence`` and
``Philox`` classes; all three modules are loaded without running their
package's start-up, ``scipy.special``'s or ``numpy.random``'s, and
``bit_generator`` against a stand-in for the ``secrets`` module it
imports, so no process loads OpenSSL (see :func:`_load_unexecuted`).
"""

from __future__ import annotations

import functools
import importlib
import importlib.util
import math
import random
import sys
import types
from dataclasses import dataclass

import numpy as np


def _load_unexecuted(package: str, module: str, *stand_ins):
    """``package.module`` imported without executing ``package/__init__.py``.

    skfb needs three compiled modules: ``scipy.special._ufuncs`` (``ndtri``
    and ``ndtr``), ``numpy.random.bit_generator`` (``SeedSequence``) and
    ``numpy.random._philox`` (``Philox``).  ``scipy.special``'s ``__init__``
    sets up scipy's array-API dispatch, which imports ``numpy.testing``,
    ``numpy.f2py`` and ``numpy.ma``: most of a run's start-up time and about
    13 MB of memory.  ``numpy.random``'s loads ``mtrand``, ``_generator``
    and four other bit generators, about 1.4 MB more at peak.  None of it
    is used here.  An unexecuted module object stands in for ``package``
    in ``sys.modules`` only while ``module`` loads; a later ``import
    package`` runs the real ``__init__``, which reuses the loaded module,
    so its names are the same objects (``numpy.random.Philox is Philox``).
    ``stand_ins`` are further (name, module) pairs that sit in
    ``sys.modules`` over the same span, each only if ``name`` is not
    imported yet, so an imported module is used as it is.  If ``package``
    is already imported, or the direct load raises ``ImportError``, the
    package itself is returned, once every stand-in is removed: the names
    skfb takes from ``module`` are attributes of the package too.

    Limits: the direct loads are verified on scipy 1.17.1 and numpy 2.4.6
    only (pyproject allows older versions; other layouts take the
    fallback).  ``bit_generator`` runs ``from secrets import randbits``,
    and ``secrets`` imports ``hmac`` and ``hashlib``, and with them OpenSSL
    (about 3.7 MB); it is loaded against a stand-in ``secrets`` whose one
    name is bound as ``secrets.py`` binds its own, ``randbits =
    SystemRandom().getrandbits``, so it is the real function and a
    ``SeedSequence`` given no entropy still draws it from the OS.  While
    skfb is first being imported, another thread that imports either
    package at that moment could see the unexecuted module, and one that
    imports ``secrets`` would get the stand-in.  A later import does not
    bind the directly loaded modules as attributes of the package
    (``numpy.random.bit_generator`` raises ``AttributeError``); ``from
    numpy.random import bit_generator`` and ``sys.modules`` find them.
    """
    if package in sys.modules:
        return sys.modules[package]
    try:
        placed = [(package, importlib.util.module_from_spec(importlib.util.find_spec(package)))]
        placed += [(name, stand_in) for name, stand_in in stand_ins if name not in sys.modules]
        sys.modules.update(placed)
        try:
            return importlib.import_module(f"{package}.{module}")
        finally:
            for name, _ in placed:
                del sys.modules[name]
    except ImportError:
        return importlib.import_module(package)


ufuncs = _load_unexecuted("scipy.special", "_ufuncs")
ndtri = ufuncs.ndtri
_secrets = types.ModuleType("secrets")
_secrets.randbits = random.SystemRandom().getrandbits  # all bit_generator takes from it
SeedSequence = _load_unexecuted("numpy.random", "bit_generator", ("secrets", _secrets)).SeedSequence
Philox = _load_unexecuted("numpy.random", "_philox").Philox

# channel / stream roles (spawn keys off the master seed)
ROLE_FORWARD = 0
ROLE_FEEDBACK = 1
ROLE_MESSAGE = 2


def snr_db_to_noise_std(snr_db: float) -> float:
    """Noise standard deviation under the unit-signal-power convention;
    0.0 at +inf."""
    return float(10.0 ** (-snr_db / 20.0))


def noise_variance(snr_db: float) -> float:
    """sigma^2; OverflowError below about -3082.5 dB, past binary64."""
    return snr_db_to_noise_std(snr_db) ** 2


def snr_db_error(snr_db: float) -> str | None:
    """Why ``SkConfig`` and the command-line tool refuse an SNR, or None."""
    if math.isnan(snr_db) or snr_db == -math.inf:
        return "must be a number or +inf"
    try:
        noise_variance(snr_db)
    except OverflowError:
        return "must be at least about -3082.5 dB (the noise variance overflows binary64 below it)"
    return None


@functools.lru_cache(maxsize=256)
def _role_seed(master_seed: int, role: int) -> SeedSequence:
    # a pure function of (seed, role), built once per pair rather than once
    # per noise part; a given sequence spares Philox its draw of OS entropy
    return SeedSequence(entropy=int(master_seed), spawn_key=(int(role),))


def raw_stream(master_seed: int, role: int, start: int, count: int) -> np.ndarray:
    """uint64 words [start, start+count) of the keyed Philox stream.

    ``start`` must be a multiple of 4 (Philox emits 4 words per counter).
    """
    if start % 4:
        raise ValueError("stream offsets must be 4-word aligned")
    bg = Philox(seed=_role_seed(master_seed, role), counter=start // 4)
    return bg.random_raw(count)


# Philox words drawn and converted per pass (256 KiB): a tile is turned
# step-major while it is in cache, so the block never needs a trial-major
# copy, and a part never holds more words than one tile (or one trial)
_TILE_WORDS = 1 << 15


def _stride(n_steps: int) -> int:
    # words reserved per trial; 4-word alignment keeps counters block-aligned
    return 4 * ((n_steps + 3) // 4) if n_steps > 0 else 4


def standard_normals(
    master_seed: int, role: int, trial_lo: int, trial_hi: int, n_steps: int, out=None
) -> np.ndarray:
    """(trials, n_steps) standard normals for trials [trial_lo, trial_hi).

    Row i holds the variates of absolute trial index trial_lo + i; entry
    (i, n) does not depend on the requested range boundaries.  The block
    is stored step-major: it is the transpose of ``out``, a
    (n_steps, trials) array that is allocated unless given (a column slice
    of a larger block will do), so column n, the noise of channel use n,
    is contiguous.  A given ``out`` may have fewer rows than ``n_steps``:
    only those first uses are filled, each with the variates it has at
    ``n_steps``.  The Philox words are drawn one conversion tile at a
    time, so only one tile's words are held at once.
    """
    n_trials = trial_hi - trial_lo
    if out is None:
        out = np.empty((n_steps, n_trials))
    elif out.ndim != 2 or out.shape[0] > n_steps or out.shape[1] != n_trials:
        raise ValueError(
            f"out must have shape (uses, {n_trials}) with uses <= {n_steps}, got {out.shape}"
        )
    uses = out.shape[0]
    stride = _stride(n_steps)
    tile = max(1, _TILE_WORDS // stride)
    for lo in range(0, n_trials, tile):
        hi = min(lo + tile, n_trials)
        r = raw_stream(master_seed, role, (trial_lo + lo) * stride, (hi - lo) * stride)
        r = r.reshape(hi - lo, stride)
        # (r >> 11) + 0.5 scaled by 2^-53 lies inside (0, 1) for every word
        # but the top 2^11: (2^53 - 1) + 0.5 rounds to 2^53 (ties to even),
        # so they give u = 1.0 and z = +inf, once in 2^53 variates
        r >>= np.uint64(11)
        u = np.array(r[:, :uses].T, dtype=np.float64, order="C")
        u += 0.5
        u *= 2.0**-53
        ndtri(u, out=out[:, lo:hi])
    return out.T


def message_indices(master_seed: int, trial_lo: int, trial_hi: int, k: int) -> np.ndarray:
    """Uniform message indices in [0, 2^k) for trials [trial_lo, trial_hi)."""
    raw = raw_stream(master_seed, ROLE_MESSAGE, trial_lo * 4, (trial_hi - trial_lo) * 4)
    mask = np.uint64((1 << k) - 1)
    return raw.reshape(-1, 4)[:, 0] & mask


@dataclass
class AwgnChannel:
    """One-directional AWGN channel over a block of trials.

    ``transmit(x, step)`` adds ``sigma`` times column ``step`` of a
    pre-derived counter-based (trials, steps) ``noise`` block to its
    input, so the noise of each use is a pure function of (seed, role,
    trial, step) and never of how often the channel was used before.  The
    block from :func:`standard_normals` is stored step-major, so that
    column is one contiguous read.  A noiseless link has no channel.
    """

    sigma: float
    noise: np.ndarray  # (trials, uses) standard normals

    def transmit(self, x, step: int):
        """y = x + sigma * z, with z the channel's noise at channel use ``step``."""
        xa = np.asarray(x, dtype=np.float64)
        if not np.isfinite(xa).all():
            raise ValueError("channel input must be finite")
        y = self.sigma * self.noise[:, step]
        y += xa  # addition commutes, so this is xa + sigma * z bit for bit
        return y


# trials per noise part, the unit the engine spreads over its workers:
# smaller parts balance long blocks better, but each part has a fixed
# cost that short blocks (n_total of a few steps) feel
NOISE_PART_TRIALS = 4096


def make_channels(
    cfg, trial_lo: int, trial_hi: int, parts=None, uses: int | None = None
) -> tuple[AwgnChannel | None, AwgnChannel | None]:
    """Forward and feedback channels for trials [trial_lo, trial_hi) of
    ``cfg``; None for a noiseless role (SNR = +inf), which derives no noise.

    A noisy channel's block holds the noise of the first ``uses`` channel
    uses (default ``cfg.n_total``, every use); each variate is the one it
    has in the full block.  The block is filled by parts: calls that each
    derive the noise of at most ``NOISE_PART_TRIALS`` trials into their
    own columns.  They run here, unless a list ``parts`` is given: then
    they are appended to it, and the channels are ready once every part
    has run, in any order and on any thread.
    """
    pending = [] if parts is None else parts
    uses = cfg.n_total if uses is None else uses

    def build(snr_db: float, role: int) -> AwgnChannel | None:
        if snr_db == np.inf:
            return None
        block = np.empty((uses, trial_hi - trial_lo))
        for lo in range(trial_lo, trial_hi, NOISE_PART_TRIALS):
            hi = min(lo + NOISE_PART_TRIALS, trial_hi)
            out = block[:, lo - trial_lo:hi - trial_lo]
            pending.append(functools.partial(standard_normals, cfg.seed, role, lo, hi, cfg.n_total, out))
        return AwgnChannel(snr_db_to_noise_std(snr_db), block.T)

    channels = build(cfg.forward_snr_db, ROLE_FORWARD), build(cfg.feedback_snr_db, ROLE_FEEDBACK)
    if parts is None:
        for part in pending:
            part()
    return channels
