"""SK recursion tests: fixed points, variance tracking, oracle agreement."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from scipy.special import ndtr

from skfb.channel import (
    ROLE_FORWARD,
    AwgnChannel,
    make_channels,
    message_indices,
    snr_db_to_noise_std,
    standard_normals,
)
from skfb.precision import PrecisionMode
from skfb.codec import (
    adjacent_bitflip_total,
    analytic_ber_oracle,
    block_states,
    decode_indices,
    run_block,
    schedule,
    sk_init,
    sk_step,
    terminal_estimate_std,
)
from skfb.core import (
    BitMapping,
    SkConfig,
    SkVariant,
    index_of_label,
    index_to_value,
    label_of_index,
    popcount_u64,
)
from skfb.engine import optimize_gamma

RNG = np.random.default_rng(4242)


def reference_sk(theta, z_fwd, z_fb, cfg):
    """Plain-float scalar mirror of the recursion (full precision only).

    Independent of the array implementation: straight-line Python floats,
    one trial, same operation order.  Returns the terminal estimate.
    """
    assert cfg.precision.width == 64
    sigma = 10.0 ** (-cfg.forward_snr_db / 20.0) if cfg.forward_snr_db != math.inf else 0.0
    sigma_fb = (
        10.0 ** (-cfg.feedback_snr_db / 20.0) if cfg.feedback_snr_db != math.inf else 0.0
    )
    sigma2 = sigma * sigma
    n = cfg.n_total
    p_rest = (n - cfg.gamma) / (n - 1) if n > 1 else 0.0
    sg = math.sqrt(cfg.gamma)

    x0 = sg * theta
    y0 = x0 + sigma * z_fwd[0]
    th_rx = y0 / sg
    y0_fb = y0 + sigma_fb * z_fb[0]
    th_tx = y0_fb / sg
    u = (y0_fb - x0) / sg

    if sigma2 == 0.0:
        return th_rx
    u_var = sigma2 / cfg.gamma
    denom = p_rest + sigma2
    ratio = sigma2 / denom
    prev_beta, prev_y_fb = 0.0, y0_fb
    for i in range(1, n):
        alpha = math.sqrt(p_rest / u_var)
        beta = (alpha * u_var) / denom
        if cfg.variant is SkVariant.ESTIMATE_DIFFERENCE:
            u_n = th_tx - theta
        elif i == 1:
            u_n = u
        else:
            u_n = u - prev_beta * prev_y_fb
        x = alpha * u_n
        y = x + sigma * z_fwd[i]
        th_rx = th_rx - beta * y
        y_fb = y + sigma_fb * z_fb[i]
        th_tx = th_tx - beta * y_fb
        u, prev_beta, prev_y_fb = u_n, beta, y_fb
        u_var = u_var * ratio
    return th_rx


def _injected_channels(cfg, z_fwd, z_fb):
    fwd = AwgnChannel(sigma=snr_db_to_noise_std(cfg.forward_snr_db), noise=np.atleast_2d(z_fwd))
    if cfg.feedback_snr_db == math.inf:
        return fwd, None
    return fwd, AwgnChannel(sigma=snr_db_to_noise_std(cfg.feedback_snr_db),
                            noise=np.atleast_2d(z_fb))


@pytest.mark.parametrize("variant", list(SkVariant))
@pytest.mark.parametrize("feedback_snr_db", [math.inf, 20.0])
def test_batch_codec_matches_scalar_reference_bit_exactly(variant, feedback_snr_db):
    cfg = SkConfig(variant=variant, k=4, n_total=12, feedback_snr_db=feedback_snr_db, gamma=1.5)
    for trial in range(20):
        z_fwd = RNG.standard_normal(cfg.n_total)
        z_fb = RNG.standard_normal(cfg.n_total)
        theta = float(index_to_value(RNG.integers(0, 16), 4))
        channels = _injected_channels(cfg, z_fwd, z_fb)
        state = sk_init(theta, cfg, channels)
        for _ in range(cfg.n_total - 1):
            state = sk_step(state, cfg, channels)
        want = reference_sk(theta, z_fwd, z_fb, cfg)
        assert float(state.theta_hat_rx[0]) == want, f"trial {trial}"


def test_noiseless_everything_is_exact():
    cfg = SkConfig(k=6, n_total=18, forward_snr_db=math.inf)
    theta = index_to_value(np.arange(64), 6)
    channels = make_channels(cfg, 0, 64)
    state = sk_init(theta, cfg, channels)
    assert np.array_equal(state.theta_hat_rx, theta)
    first = sk_step(state, cfg, channels)
    assert np.all(first.u == 0.0)
    for _ in range(cfg.n_total - 2):
        state = sk_step(first, cfg, channels)
    idx, failed = run_block(cfg, theta, make_channels(cfg, 0, 64))
    assert np.array_equal(idx, np.arange(64))
    assert not failed.any()


def test_init_state_examples():
    # gamma=1: theta_hat_0 equals Y_0 exactly
    cfg = SkConfig(k=2, n_total=6, seed=5)
    channels = make_channels(cfg, 0, 8)
    theta = index_to_value(np.arange(8) % 4, 2)
    state = sk_init(theta, cfg, channels)
    y0 = theta + channels[0].sigma * channels[0].noise[:, 0]
    assert np.allclose(state.theta_hat_rx, y0, rtol=0, atol=0)
    assert state.step == 0
    # gamma=2 at 0 dB: tracked variance is 0.5
    cfg2 = SkConfig(k=2, n_total=6, gamma=2.0, seed=5)
    assert schedule(cfg2).u_var[1] == pytest.approx(0.5, abs=1e-15)


def test_tracked_variance_halves_per_step_at_zero_db():
    cfg = SkConfig(k=3, n_total=9, seed=2)
    u_var = schedule(cfg).u_var
    assert u_var[1] == pytest.approx(1.0)
    for n in range(1, cfg.n_total - 1):
        assert u_var[n + 1] == pytest.approx(2.0**-n, rel=1e-12), f"step {n}"


def test_tracked_variance_matches_empirical():
    cfg = SkConfig(k=2, n_total=6, seed=13)
    n_trials = 200_000
    channels = make_channels(cfg, 0, n_trials)
    labels = message_indices(cfg.seed, 0, n_trials, cfg.k)
    theta = index_to_value(labels, cfg.k)
    state = sk_init(theta, cfg, channels)
    for n in range(1, cfg.n_total):
        state = sk_step(state, cfg, channels)
        err = state.theta_hat_rx - theta
        empirical = float(np.var(err))
        tracked = schedule(cfg).u_var[n + 1]
        assert empirical == pytest.approx(tracked, rel=0.05), f"step {n}"


def test_variants_agree_per_step_at_full_precision():
    for k in (8, 20, 30):
        cfg_ed = SkConfig(variant=SkVariant.ESTIMATE_DIFFERENCE, k=k, n_total=3 * k, seed=k)
        cfg_er = SkConfig(variant=SkVariant.ERROR_RECURSION, k=k, n_total=3 * k, seed=k)
        n_trials = 500
        theta = index_to_value(message_indices(k, 0, n_trials, k), k)
        ch_ed = make_channels(cfg_ed, 0, n_trials)
        ch_er = make_channels(cfg_er, 0, n_trials)
        sa = sk_init(theta, cfg_ed, ch_ed)
        sb = sk_init(theta, cfg_er, ch_er)
        for _ in range(cfg_ed.n_total - 1):
            sa = sk_step(sa, cfg_ed, ch_ed)
            sb = sk_step(sb, cfg_er, ch_er)
            scale = np.maximum(np.abs(sa.theta_hat_rx), 1e-30)
            assert np.all(np.abs(sa.theta_hat_rx - sb.theta_hat_rx) / scale < 1e-9)


def test_transmitter_tracking_identity_with_noiseless_feedback():
    for variant in SkVariant:
        cfg = SkConfig(variant=variant, k=8, n_total=24, seed=99)
        channels = make_channels(cfg, 0, 1000)
        theta = index_to_value(message_indices(cfg.seed, 0, 1000, 8), 8)
        state = sk_init(theta, cfg, channels)
        assert np.array_equal(state.theta_hat_tx, state.theta_hat_rx)
        for _ in range(cfg.n_total - 1):
            state = sk_step(state, cfg, channels)
            assert np.array_equal(state.theta_hat_tx, state.theta_hat_rx)


@pytest.mark.parametrize("variant", list(SkVariant))
@pytest.mark.parametrize("bits", [8, 16, 32, 64])
def test_aliased_copy_matches_zero_noise_feedback(variant, bits):
    # Noiseless feedback aliases the transmitter's copy to the receiver's
    # estimate.  A finite-SNR feedback channel whose noise is all zero
    # takes the unaliased path (round the fed-back value, update the copy
    # with its own multiply and subtract) and must give the same trials.
    cfg = SkConfig(variant=variant, k=6, n_total=30, precision=PrecisionMode(bits), seed=bits)
    n_trials = 2000
    forward, noiseless = make_channels(cfg, 0, n_trials)
    assert noiseless is None
    zero_noise = AwgnChannel(sigma=snr_db_to_noise_std(30.0),
                             noise=np.zeros((n_trials, cfg.n_total)))
    theta = index_to_value(message_indices(cfg.seed, 0, n_trials, cfg.k), cfg.k)

    def same(a, b):
        # exact values; +0.0 noise turns a -0.0 feedback value into +0.0,
        # which compares equal, and NaNs must sit in the same trials
        return np.array_equal(a, b, equal_nan=True)

    aliased = sk_init(theta, cfg, (forward, noiseless))
    plain = sk_init(theta, cfg, (forward, zero_noise))
    assert aliased.theta_hat_tx is aliased.theta_hat_rx
    for _ in range(cfg.n_total - 1):
        assert same(aliased.theta_hat_rx, plain.theta_hat_rx)
        assert same(plain.theta_hat_tx, plain.theta_hat_rx)
        assert same(aliased.u, plain.u)
        assert np.array_equal(aliased.failed, plain.failed)
        aliased = sk_step(aliased, cfg, (forward, noiseless))
        plain = sk_step(plain, cfg, (forward, zero_noise))
    for a, b in zip(decode_indices(aliased, cfg), decode_indices(plain, cfg)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("variant", list(SkVariant))
@pytest.mark.parametrize("bits", [8, 64])
def test_noiseless_feedback_does_not_pass_through_the_feedback_channel(variant, bits):
    # noiseless feedback has no channel: every use transmits through the
    # forward one alone, and the transmitter's copy is the receiver's own
    # estimate; k=6, n=30 at 8 bits halts at use 11, so failed trials too
    cfg = SkConfig(variant=variant, k=6, n_total=30, precision=PrecisionMode(bits), seed=bits)
    n_trials = 1000
    forward, feedback = make_channels(cfg, 0, n_trials)
    assert feedback is None
    theta = index_to_value(message_indices(cfg.seed, 0, n_trials, cfg.k), cfg.k)
    transmit, senders = AwgnChannel.transmit, []

    def spy(channel, x, step):
        senders.append(channel)
        return transmit(channel, x, step)

    with mock.patch.object(AwgnChannel, "transmit", spy):
        for state in block_states(cfg, theta, (forward, None)):
            assert state.theta_hat_tx is state.theta_hat_rx, state.step
    assert len(senders) == cfg.n_total and all(ch is forward for ch in senders)


@pytest.mark.parametrize("forward_snr_db, feedback_snr_db", [
    (0.0, math.inf), (0.0, 20.0), (math.inf, 20.0), (math.inf, math.inf),
])
@pytest.mark.parametrize("variant", list(SkVariant))
@pytest.mark.parametrize("bits", [8, 64])
def test_transmit_runs_once_per_use_per_noisy_role(bits, variant, forward_snr_db,
                                                   feedback_snr_db):
    # a noiseless link has no channel, so nothing of it can be transmitted
    # through; k=6, n=30 at 8 bits halts at use 11 with a noisy forward
    # channel, so failed trials are covered too
    cfg = SkConfig(variant=variant, k=6, n_total=30, forward_snr_db=forward_snr_db,
                   feedback_snr_db=feedback_snr_db, precision=PrecisionMode(bits), seed=bits)
    n_trials = 1000
    channels = make_channels(cfg, 0, n_trials)
    assert [ch is None for ch in channels] == [forward_snr_db == math.inf,
                                                feedback_snr_db == math.inf]
    theta = index_to_value(message_indices(cfg.seed, 0, n_trials, cfg.k), cfg.k)
    transmit, inputs = AwgnChannel.transmit, []

    def spy(channel, x, step):
        inputs.append((step, bool(np.isfinite(x).all())))
        return transmit(channel, x, step)

    with mock.patch.object(AwgnChannel, "transmit", spy):
        expected = run_block(cfg, theta, channels)
    noisy = sum(ch is not None for ch in channels)
    assert [step for step, _ in inputs] == [n for n in range(cfg.n_total) for _ in range(noisy)]
    assert all(finite for _, finite in inputs)
    # every symbol sent is finite, also where no forward channel checks it
    for state in block_states(cfg, theta, channels):
        assert np.isfinite(state.x).all(), state.step
    assert state.failed.any() == (bits == 8 and forward_snr_db == 0.0)
    for a, b in zip(decode_indices(state, cfg), expected):
        assert np.array_equal(a, b)


def test_schedule_halt_is_the_first_overflowing_alpha():
    def halt(bits, n, snr=0.0):
        return schedule(SkConfig(k=1, n_total=n, forward_snr_db=snr, precision=PrecisionMode(bits))).halt

    # at 0 dB alpha becomes inf at step 11 in 8-bit and 26 in 16-bit
    assert halt(8, 24) == 11
    assert halt(16, 78) == 26
    assert halt(64, 1300) == 1025  # u_var underflows binary64 after ~1000 halvings
    # a healthy schedule, and one that ends before its overflow, keep n_total
    assert halt(64, 150) == 150
    assert halt(8, 11) == 11
    assert halt(8, 24, snr=math.inf) == 24  # noiseless forward: alpha is 0
    sched = schedule(SkConfig(k=1, n_total=24, precision=PrecisionMode(8)))
    assert np.all(np.isfinite(sched.alpha[1:11])) and not np.isfinite(sched.alpha[11])


def test_step_and_decode_guards():
    cfg = SkConfig(k=1, n_total=3, seed=0)
    channels = make_channels(cfg, 0, 2)
    state = sk_init(np.array([1.0, -1.0]), cfg, channels)
    with pytest.raises(ValueError):
        decode_indices(state, cfg)  # not at the final use yet
    state = sk_step(state, cfg, channels)
    state = sk_step(state, cfg, channels)
    with pytest.raises(ValueError):
        sk_step(state, cfg, channels)  # all uses consumed
    idx, failed = decode_indices(state, cfg)
    assert idx.shape == (2,)
    assert not failed.any()


def test_non_finite_state_decodes_to_zero_and_flags():
    cfg = SkConfig(k=3, n_total=9, forward_snr_db=math.inf)
    channels = make_channels(cfg, 0, 4)
    theta = index_to_value(np.array([5, 6, 7, 1]), 3)
    state = sk_init(theta, cfg, channels)
    for _ in range(cfg.n_total - 1):
        state = sk_step(state, cfg, channels)
    state.theta_hat_rx[1] = math.nan
    state.theta_hat_rx[2] = math.inf
    idx, failed = decode_indices(state, cfg)
    assert list(idx) == [5, 0, 0, 1]
    assert list(failed) == [False, True, True, False]
    labels = label_of_index(idx, cfg.bit_mapping)
    assert list(labels) == [5, 0, 0, 1]


class _RecordingChannel:
    """A forward channel that keeps each use's (input, output) pair."""

    def __init__(self, channel):
        self.channel, self.uses = channel, []

    def transmit(self, x, step):
        y = self.channel.transmit(x, step)
        self.uses.append((np.array(x, copy=True), np.array(y, copy=True)))
        return y


@pytest.mark.parametrize("feedback_snr_db", [math.inf, 20.0])
@pytest.mark.parametrize("variant", list(SkVariant))
@pytest.mark.parametrize("bits", [8, 16, 32, 64])
def test_a_trial_failing_mid_block_sends_zero_and_leaves_the_others(bits, variant,
                                                                     feedback_snr_db):
    # k=3, n=9 is healthy at every width (8-bit alpha overflows at use 11)
    cfg = SkConfig(variant=variant, k=3, n_total=9, feedback_snr_db=feedback_snr_db,
                   precision=PrecisionMode(bits), seed=bits)
    n_trials, bad, inject_after = 64, 5, 3
    noise = standard_normals(cfg.seed, ROLE_FORWARD, 0, n_trials, cfg.n_total).copy()
    noise[:, inject_after + 1:] = 0.0
    feedback = make_channels(cfg, 0, n_trials)[1]
    theta = index_to_value(message_indices(cfg.seed, 0, n_trials, cfg.k), cfg.k)

    def run(inject):
        forward = _RecordingChannel(AwgnChannel(sigma=snr_db_to_noise_std(cfg.forward_snr_db),
                                                noise=noise))
        channels = (forward, feedback)
        state = sk_init(theta, cfg, channels)
        states = [state]
        for _ in range(cfg.n_total - 1):
            if inject and state.step == inject_after:
                rx = state.theta_hat_rx.copy()
                aliased = state.theta_hat_tx is state.theta_hat_rx
                tx = rx if aliased else state.theta_hat_tx.copy()
                fields = dict(u=state.u.copy(), theta_hat_rx=rx, theta_hat_tx=tx,
                              prev_y_fb=state.prev_y_fb.copy())
                for array in fields.values():
                    array[bad] = math.nan
                state = replace(state, **fields)
            state = sk_step(state, cfg, channels)
            states.append(state)
        return states, forward.uses, decode_indices(state, cfg)

    clean_states, clean_uses, (clean_idx, clean_failed) = run(inject=False)
    states, uses, (idx, failed) = run(inject=True)
    assert not clean_failed.any()
    assert failed[bad] and idx[bad] == 0
    for state in states[inject_after + 1:]:
        assert state.failed[bad] and state.x[bad] == 0.0
    for x, y in uses[inject_after + 1:]:
        assert x[bad] == 0.0 and y[bad] == 0.0
    # each state carries, bit for bit, the symbol its use sent
    for run_states, run_uses in ((clean_states, clean_uses), (states, uses)):
        for state, (x, _) in zip(run_states, run_uses, strict=True):
            assert np.array_equal(state.x.view(np.uint64), x.view(np.uint64)), state.step

    others = np.arange(n_trials) != bad

    def same(a, b):  # bit for bit on the other trials
        a, b = a[others], b[others]
        if a.dtype == np.float64:
            a, b = a.view(np.uint64), b.view(np.uint64)
        return np.array_equal(a, b)

    for a, b in zip(clean_states, states):
        for name in ("u", "theta_hat_rx", "theta_hat_tx", "prev_y_fb", "failed", "x"):
            assert same(getattr(a, name), getattr(b, name)), (a.step, name)
    for (cx, cy), (x, y) in zip(clean_uses, uses):
        assert same(cx, x) and same(cy, y)
    assert same(clean_idx, idx) and same(clean_failed, failed)


def test_decode_tolerates_sub_half_gap_perturbation():
    cfg = SkConfig(k=4, n_total=12, forward_snr_db=math.inf)
    channels = make_channels(cfg, 0, 16)
    theta = index_to_value(np.arange(16), 4)
    state = sk_init(theta, cfg, channels)
    for _ in range(cfg.n_total - 1):
        state = sk_step(state, cfg, channels)
    from skfb.core import pam_step

    state.theta_hat_rx += 0.49 * 2.0 * pam_step(4) * np.where(np.arange(16) % 2 == 0, 1, -1)
    idx, failed = decode_indices(state, cfg)
    assert np.array_equal(idx, np.arange(16))
    assert not failed.any()


def test_power_constraint_montecarlo():
    cfg = SkConfig(k=10, n_total=30, seed=21)
    n_trials = 50_000
    channels = make_channels(cfg, 0, n_trials)
    theta = index_to_value(message_indices(cfg.seed, 0, n_trials, 10), 10)
    state = sk_init(theta, cfg, channels)
    for n in (1, 2, 5):
        while state.step < n:
            state = sk_step(state, cfg, channels)
        x = schedule(cfg).alpha[n] * state.u
        mean = float(np.mean(x * x))
        se = float(np.std(x * x) / math.sqrt(n_trials))
        assert abs(mean - 1.0) < 3 * se, f"step {n}: {mean} +- {se}"


# ---------------------------------------------------------------- oracle


def test_oracle_q2_at_k1():
    cfg = SkConfig(k=1, n_total=3)
    assert analytic_ber_oracle(cfg) == pytest.approx(float(ndtr(-2.0)), rel=1e-12)
    assert analytic_ber_oracle(cfg) == pytest.approx(0.02275, abs=2e-5)


def test_oracle_zero_at_infinite_snr():
    assert analytic_ber_oracle(SkConfig(k=5, n_total=15, forward_snr_db=math.inf)) == 0.0


def test_oracle_rejects_noisy_feedback():
    with pytest.raises(ValueError):
        analytic_ber_oracle(SkConfig(k=2, n_total=6, feedback_snr_db=20.0))


def test_terminal_std_closed_form():
    assert terminal_estimate_std(SkConfig(k=1, n_total=3)) == pytest.approx(0.5, rel=1e-12)
    # gamma shifts the first-use variance and the residual power together
    cfg = SkConfig(k=1, n_total=3, gamma=2.0)
    p_rest = (3 - 2.0) / 2
    want = math.sqrt((1.0 / 2.0) * (1.0 / (p_rest + 1.0)) ** 2)
    assert terminal_estimate_std(cfg) == pytest.approx(want, rel=1e-12)


def test_adjacency_totals_match_enumeration():
    # the closed forms against direct popcount enumeration
    for k in range(1, 19):
        for mapping in BitMapping:
            labels = label_of_index(np.arange(1 << k, dtype=np.uint64), mapping)
            brute = 2 * int(popcount_u64(labels[1:] ^ labels[:-1]).sum())
            assert adjacent_bitflip_total(k, mapping) == brute, (k, mapping)
    assert adjacent_bitflip_total(3, BitMapping.NATURAL) == 22
    assert adjacent_bitflip_total(3, BitMapping.GRAY) == 14


def test_oracle_k3_value_and_montecarlo_agreement():
    from skfb.engine import estimate_ber

    cfg = SkConfig(k=3, n_total=9, seed=31337)
    oracle = analytic_ber_oracle(cfg)
    assert oracle == pytest.approx(2.2e-4, rel=0.05)
    est = estimate_ber(cfg, 1_000_000)
    assert est.bit_errors >= 100
    se = math.sqrt(oracle * (1 - oracle) / (1_000_000 * 3))
    assert abs(est.ber - oracle) < 3 * se


def test_gray_oracle_is_lower_than_natural():
    nat = analytic_ber_oracle(SkConfig(k=3, n_total=9))
    gray = analytic_ber_oracle(SkConfig(k=3, n_total=9, bit_mapping=BitMapping.GRAY))
    assert gray < nat


# ------------------------------------------------------- gamma optimization


def test_optimize_gamma_singleton():
    [row] = optimize_gamma(SkConfig(k=2, n_total=6), [1.0])
    assert row.gamma == 1.0 and row.is_best


def test_optimize_gamma_prefers_boosted_first_use():
    cfg = SkConfig(k=10, n_total=30)
    grid = [0.5 + 0.25 * i for i in range(13)]  # 0.5 .. 3.5
    [best] = [row for row in optimize_gamma(cfg, grid) if row.is_best]
    assert best.gamma > 1.0
    assert best.oracle_ber <= analytic_ber_oracle(cfg)


def test_optimize_gamma_rows_are_distinct_ascending_and_ties_go_to_the_smaller_gamma():
    # a noiseless forward channel gives every gamma the same zero spread
    cfg = SkConfig(k=2, n_total=6, forward_snr_db=math.inf, bit_mapping=BitMapping.GRAY)
    rows = optimize_gamma(cfg, [2.0, 0.5, 1, 0.5])
    assert [row.gamma for row in rows] == [0.5, 1.0, 2.0]
    assert [row.is_best for row in rows] == [True, False, False]
    for row in rows:
        assert (row.k, row.n_total, row.forward_snr_db, row.bit_mapping) == (
            2, 6, math.inf, "gray"
        )
        assert row.oracle_ber == analytic_ber_oracle(replace(cfg, gamma=row.gamma))


@pytest.mark.parametrize(
    "grid", [[True], [1.0, "2"], [True, "2"], [1.0, None]],
    ids=["bool", "str", "bool-and-str", "none"],
)
def test_each_gamma_entry_is_checked_as_sk_config_checks_it(grid):
    with pytest.raises(ValueError, match="gamma"):
        optimize_gamma(SkConfig(k=2, n_total=6), grid)


def test_optimize_gamma_refuses_noisy_feedback_as_the_oracle_does():
    cfg = SkConfig(k=2, n_total=6, feedback_snr_db=20.0)
    with pytest.raises(ValueError, match="^analytic oracle requires noiseless feedback$"):
        analytic_ber_oracle(cfg)
    with pytest.raises(ValueError, match="^analytic oracle requires noiseless feedback$"):
        optimize_gamma(cfg, [0.5, 1.0])


def test_optimize_gamma_rejects_bad_grids():
    with pytest.raises(ValueError, match="^grid must be non-empty$"):
        optimize_gamma(SkConfig(k=2, n_total=6), [])
    with pytest.raises(ValueError):
        optimize_gamma(SkConfig(k=2, n_total=6), [1.0, -0.5])
