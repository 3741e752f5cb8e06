"""The SK feedback-coding recursion in both algebraic forms.

One trial transmits a PAM message point theta over n_total channel uses:
the first use sends sqrt(gamma) * theta, every later use sends a scaled
version of the transmitter's view of the receiver's current estimation
error.  The receiver refines its estimate with a linear MMSE correction
whose gain follows the analytically tracked error variance, which
contracts by sigma^2 / (P_rest + sigma^2) per use.

The two variants differ only in how the transmitter forms the error
signal U_n:

  * estimate-difference: U_n = theta_hat_tx_{n-1} - theta, where
    theta_hat_tx is the transmitter's feedback-tracked copy of the
    receiver estimate;
  * error-recursion:     U_n = U_{n-1} - beta_{n-1} * Ytilde_{n-1},
    seeded by U_1 = (Ytilde_0 - X_0) / sqrt(gamma).

The two are algebraically identical at infinite precision with noiseless
feedback but accumulate rounding differently, which is exactly what the
precision experiments measure.  All state arithmetic is rounded to the
configured width, ``SkConfig.precision_bits``; channel noise is drawn at
full precision and receipt of a channel output rounds it into the
state's precision.
A noiseless link has no channel (None): forward, the receiver gets the
symbol sent; as feedback, the transmitter's copy is the receiver's.

State fields are arrays over a block of trials; a block of one gives the
single-trial view.  Trials whose state goes non-finite are flagged
failed, transmit zeros from then on, and decode to position 0.  A
forward channel output is finite unless its noise variate is +inf (once
in 2^53 variates, see ``channel.standard_normals``): the receiver's
estimate then fails that trial, and a noisy feedback link is fed 0 in
its place, so the rest of the block runs on unchanged.

``block_states`` is the one loop over a block's channel uses; it yields
the state after each use, whose ``SkState.x`` is the symbol that use sent.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import channel as _channel
from .core import BitMapping, SkConfig, SkVariant, pam_step, value_to_index
from .precision import PrecisionMode, quantize

ndtr = _channel.ufuncs.ndtr

SIGNAL_POWER = 1.0  # per-symbol power constraint P


@dataclass(frozen=True)
class Schedule:
    """Per-step scaling constants shared by transmitter and receiver.

    Derived from the configuration alone (never from trial data), in
    ``mode``, the format of the configured width: alpha[n] scales the
    error signal to the per-use power budget, beta[n] is the linear MMSE
    gain alpha_n * u_var_n / (P_rest + sigma^2), and u_var[n] is the tracked
    Var(U_n) before the step-n correction (u_var[n_total] is terminal).

    ``halt`` is the first step whose alpha is not finite (n_total if
    there is none).  alpha grows geometrically, so a long block or a
    narrow format overflows it once u_var underflows; at that step
    alpha * U_n is non-finite for every trial, so every trial fails and
    decodes to position 0.  A cell with halt < n_total is therefore
    decided by its message labels alone, and from the halt on every
    trial sends 0.
    """

    mode: PrecisionMode
    sqrt_gamma: np.ndarray  # 0-d
    alpha: np.ndarray
    beta: np.ndarray
    u_var: np.ndarray
    halt: int


def residual_power(cfg: SkConfig) -> float:
    """Per-use power of the correction steps under the energy constraint.

    Total block energy is held at n_total * P while the first use takes
    gamma * P, so the remaining n_total - 1 uses share the residual.
    """
    if cfg.n_total == 1:
        return 0.0
    return SIGNAL_POWER * (cfg.n_total - cfg.gamma) / (cfg.n_total - 1)


@functools.lru_cache(maxsize=128)
def schedule(cfg: SkConfig) -> Schedule:
    """Precompute alpha/beta/u_var for every step of ``cfg``."""
    mode = PrecisionMode(cfg.precision_bits)
    n = cfg.n_total
    alpha = np.full(n, np.nan)
    beta = np.full(n, np.nan)
    u_var = np.full(n + 1, np.nan)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sigma2 = quantize(_channel.noise_variance(cfg.forward_snr_db), mode)
        p_rest = quantize(residual_power(cfg), mode)
        gamma = quantize(cfg.gamma, mode)
        sqrt_gamma = quantize(np.sqrt(gamma), mode)
        if sigma2 == 0.0:
            # noiseless forward channel: the estimate is exact after the
            # first use, so nothing is sent or corrected afterwards
            alpha[1:] = 0.0
            beta[1:] = 0.0
            u_var[1:] = 0.0
            return Schedule(mode, sqrt_gamma, alpha, beta, u_var, n)

        denom = quantize(p_rest + sigma2, mode)
        ratio = quantize(sigma2 / denom, mode)
        u_var[1] = quantize(sigma2 / gamma, mode)
        for i in range(1, n):
            alpha[i] = quantize(np.sqrt(quantize(p_rest / u_var[i], mode)), mode)
            beta[i] = quantize(quantize(alpha[i] * u_var[i], mode) / denom, mode)
            u_var[i + 1] = quantize(u_var[i] * ratio, mode)
    overflowed = np.flatnonzero(~np.isfinite(alpha[1:]))
    halt = int(overflowed[0]) + 1 if overflowed.size else n
    return Schedule(mode, sqrt_gamma, alpha, beta, u_var, halt)


@dataclass
class SkState:
    """Recursion state over a block of trials after channel use ``step``."""

    theta: np.ndarray  # quantized message points
    u: np.ndarray  # last error signal U_n
    theta_hat_rx: np.ndarray  # receiver estimate
    theta_hat_tx: np.ndarray  # transmitter's tracked copy
    prev_y_fb: np.ndarray  # last feedback output Ytilde_n (quantized)
    failed: np.ndarray  # trials that went non-finite
    x: np.ndarray  # symbol sent at this use; 0 in trials failed before it
    step: int  # index of the last channel use, in [0, n_total)


def _fed_back(feedback: _channel.AwgnChannel, y, step: int) -> np.ndarray:
    """The feedback link's output for the receiver's ``y`` at use ``step``.

    A non-finite y has already failed its trial through theta_hat_rx, so
    it is fed back as 0 and fails that trial alone.  The link's own
    finiteness check finds it, so a finite ``y`` takes no extra pass.
    """
    try:
        return feedback.transmit(y, step)
    except ValueError:
        finite = np.isfinite(y)
        if finite.all():
            raise
        return feedback.transmit(np.where(finite, y, 0.0), step)


def sk_init(theta, cfg: SkConfig, channels) -> SkState:
    """Run the first channel use: X_0 = sqrt(gamma) * theta.

    ``theta`` is a scalar amplitude or an array of amplitudes (one per
    trial).  ``channels`` is the (forward, feedback) pair from
    :func:`skfb.channel.make_channels`; either is None when noiseless.
    """
    sched = schedule(cfg)
    mode = sched.mode
    forward, feedback = channels

    sqrt_gamma = sched.sqrt_gamma
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        theta_q = np.atleast_1d(quantize(theta, mode))
        x0 = quantize(sqrt_gamma * theta_q, mode)
        # a noiseless link (None) is decided here and in sk_step: y is then
        # the rounded x itself, and the transmitter's copy the receiver's
        y0 = x0 if forward is None else quantize(forward.transmit(x0, 0), mode)
        theta_hat_rx = quantize(y0 / sqrt_gamma, mode)
        if feedback is None:
            y0_fb, theta_hat_tx = y0, theta_hat_rx
        else:
            y0_fb = quantize(_fed_back(feedback, y0, 0), mode)
            theta_hat_tx = quantize(y0_fb / sqrt_gamma, mode)
        # error-recursion seed U_1 = (Ytilde_0 - X_0) / sqrt(gamma)
        u = quantize(quantize(y0_fb - x0, mode) / sqrt_gamma, mode)

    failed = ~(
        np.isfinite(theta_hat_rx) & np.isfinite(theta_hat_tx) & np.isfinite(u)
    )
    return SkState(
        theta=theta_q,
        u=u,
        theta_hat_rx=theta_hat_rx,
        theta_hat_tx=theta_hat_tx,
        prev_y_fb=y0_fb,
        failed=failed,
        x=x0,
        step=0,
    )


def sk_step(state: SkState, cfg: SkConfig, channels) -> SkState:
    """One correction step of ``cfg.variant``.

    The error signal is U_n = theta_hat_tx_{n-1} - theta (estimate-
    difference) or U_n = U_{n-1} - beta_{n-1} * Ytilde_{n-1}, seeded at
    init (error-recursion).  The transmitter sends alpha_n * U_n, or 0 in
    trials that have failed.
    """
    n = state.step + 1
    if n >= cfg.n_total:
        raise ValueError(
            f"all {cfg.n_total} channel uses already consumed (step={state.step})"
        )
    sched = schedule(cfg)
    mode = sched.mode
    forward, feedback = channels
    alpha = float(sched.alpha[n])
    beta = float(sched.beta[n])

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if cfg.variant is SkVariant.ESTIMATE_DIFFERENCE:
            u_n = quantize(state.theta_hat_tx - state.theta, mode)
        elif n == 1:
            u_n = state.u
        else:
            prev_beta = float(sched.beta[state.step])
            u_n = quantize(state.u - quantize(prev_beta * state.prev_y_fb, mode), mode)
        x = quantize(alpha * u_n, mode)
        failed = ~np.isfinite(x)
        failed |= state.failed
        if failed.any():
            x[failed] = 0.0  # x is this step's own array

        y = x if forward is None else quantize(forward.transmit(x, n), mode)
        theta_hat_rx = quantize(state.theta_hat_rx - quantize(beta * y, mode), mode)
        failed |= ~np.isfinite(theta_hat_rx)
        if feedback is None:  # the transmitter's copy is the receiver's
            y_fb, theta_hat_tx = y, theta_hat_rx
        else:
            y_fb = quantize(_fed_back(feedback, y, n), mode)
            theta_hat_tx = quantize(state.theta_hat_tx - quantize(beta * y_fb, mode), mode)
            failed |= ~np.isfinite(theta_hat_tx)

    return SkState(
        theta=state.theta,
        u=u_n,
        theta_hat_rx=theta_hat_rx,
        theta_hat_tx=theta_hat_tx,
        prev_y_fb=y_fb,
        failed=failed,
        x=x,
        step=n,
    )


def decode_indices(state: SkState, cfg: SkConfig) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-distance indices and failure flags after the final use."""
    if state.step != cfg.n_total - 1:
        raise ValueError(
            f"decoding requires step {cfg.n_total - 1}, state is at {state.step}"
        )
    failed = state.failed | ~np.isfinite(state.theta_hat_rx)
    safe = np.where(failed, 0.0, state.theta_hat_rx)
    idx = value_to_index(safe, cfg.k)
    idx = np.where(failed, np.uint64(0), idx)
    return idx, failed


def block_states(cfg: SkConfig, theta, channels):
    """The :func:`sk_init` state, then each :func:`sk_step` state, in
    order; a caller that needs only the first uses stops iterating early."""
    state = sk_init(theta, cfg, channels)
    yield state
    for _ in range(cfg.n_total - 1):
        state = sk_step(state, cfg, channels)
        yield state


def run_block(cfg: SkConfig, theta, channels) -> tuple[np.ndarray, np.ndarray]:
    """Full encode-transmit-decode pass; returns (indices, failed)."""
    for state in block_states(cfg, theta, channels):
        pass
    return decode_indices(state, cfg)


def terminal_estimate_std(cfg: SkConfig) -> float:
    """Closed-form std of theta_hat - theta at full precision.

    Independent of the recursion path: evaluates the variance contraction
    (sigma^2 / gamma) * (sigma^2 / (P_rest + sigma^2))^(n_total - 1)
    directly in double precision.
    """
    sigma2 = _channel.noise_variance(cfg.forward_snr_db)
    if sigma2 == 0.0:
        return 0.0
    p_rest = residual_power(cfg)
    var = (sigma2 / cfg.gamma) * (sigma2 / (p_rest + sigma2)) ** (cfg.n_total - 1)
    return math.sqrt(var)


def adjacent_bitflip_total(k: int, mapping: BitMapping) -> int:
    """Sum of bit flips over all ordered adjacent constellation pairs.

    The label structure gives the total in closed form: natural binary
    flips 2*(2M - 2 - k) bits, Gray 2*(M - 1), one flip per gap.
    """
    m_points = 1 << k
    if mapping is BitMapping.NATURAL:
        return 2 * (2 * m_points - 2 - k)
    return 2 * (m_points - 1)


def analytic_ber_oracle(cfg: SkConfig) -> float:
    """Closed-form BER estimate for noiseless feedback at full precision.

    Adjacent-neighbor approximation: each gap is crossed with probability
    Q(delta_k / sigma_N), weighted by the bit flips of the configured
    mapping.  Rejects noisy-feedback configurations (no closed form).
    """
    if cfg.feedback_snr_db != math.inf:
        raise ValueError("analytic oracle requires noiseless feedback")
    sigma_n = terminal_estimate_std(cfg)
    if sigma_n == 0.0:
        return 0.0
    q = float(ndtr(-pam_step(cfg.k) / sigma_n))
    total = adjacent_bitflip_total(cfg.k, cfg.bit_mapping)
    return q * total / (cfg.k * (1 << cfg.k))
