"""Noise-stream determinism, statistics, and channel contracts."""

import math

import numpy as np
import pytest

from skfb.channel import (
    ROLE_FEEDBACK,
    ROLE_FORWARD,
    AwgnChannel,
    make_channels,
    message_indices,
    raw_stream,
    snr_db_to_noise_std,
    standard_normals,
)
from skfb.core import SkConfig

SEED = 0xFEEDBEEF


def test_noiseless_passthrough():
    ch = AwgnChannel.for_trials(math.inf, SEED, ROLE_FORWARD, 0, 4, 3)
    x = np.array([0.5, -1.0, 2.0, 0.0])
    assert np.array_equal(ch.transmit(x, 2), x)
    assert ch.noise_std == 0.0


def test_zero_db_noise_variance():
    ch = AwgnChannel.for_trials(0.0, SEED, ROLE_FORWARD, 0, 1_000_000, 1)
    y = ch.transmit(np.zeros(1_000_000), 0)
    assert np.var(y) == pytest.approx(1.0, abs=0.01)
    assert np.mean(y) == pytest.approx(0.0, abs=0.01)


def test_feedback_noise_variance_at_23_db():
    assert snr_db_to_noise_std(23.0) ** 2 == pytest.approx(10.0 ** -2.3, rel=1e-12)
    assert snr_db_to_noise_std(23.0) ** 2 == pytest.approx(0.005012, abs=5e-6)


def test_same_seed_same_sequence():
    a = standard_normals(SEED, ROLE_FORWARD, 0, 100, 9)
    b = standard_normals(SEED, ROLE_FORWARD, 0, 100, 9)
    assert np.array_equal(a, b)
    c = standard_normals(SEED + 1, ROLE_FORWARD, 0, 100, 9)
    assert not np.array_equal(a, c)


def test_trial_noise_independent_of_range_boundaries():
    # the keystone of worker-count invariance
    full = standard_normals(SEED, ROLE_FORWARD, 0, 100, 7)
    left = standard_normals(SEED, ROLE_FORWARD, 0, 37, 7)
    right = standard_normals(SEED, ROLE_FORWARD, 37, 100, 7)
    assert np.array_equal(full, np.vstack([left, right]))


@pytest.mark.parametrize("n_steps", [1, 7, 8, 30])
def test_partial_draw_is_the_leading_columns_of_the_full_draw(n_steps):
    full = standard_normals(SEED, ROLE_FEEDBACK, 13, 90, n_steps)
    for n_read in range(n_steps + 1):
        part = standard_normals(SEED, ROLE_FEEDBACK, 13, 90, n_steps, n_read)
        assert part.shape == (77, n_read)
        assert np.array_equal(part, full[:, :n_read])


def test_make_channels_reads_only_the_requested_uses():
    cfg = SkConfig(k=4, n_total=12, feedback_snr_db=20.0, seed=9)
    full = make_channels(cfg, 5, 40)
    part = make_channels(cfg, 5, 40, 5)
    for a, b in zip(full, part):
        assert np.array_equal(b.noise, a.noise[:, :5])


def test_forward_and_feedback_streams_are_independent():
    n = 1_000_000
    f = standard_normals(SEED, ROLE_FORWARD, 0, n, 1)[:, 0]
    g = standard_normals(SEED, ROLE_FEEDBACK, 0, n, 1)[:, 0]
    r = float(np.mean(f * g))  # correlation of standard normals
    assert abs(r) < 3.0 / math.sqrt(n)


def test_empirical_snr_convention():
    # unit-power +/-1 input at 10 dB: Var(y - x) = 0.1
    n = 200_000
    ch = AwgnChannel.for_trials(10.0, SEED, ROLE_FORWARD, 0, n, 1)
    x = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    y = ch.transmit(x, 0)
    assert np.var(y - x) == pytest.approx(0.1, rel=0.03)


def test_transmit_rejects_non_finite():
    ch = AwgnChannel.for_trials(0.0, SEED, ROLE_FORWARD, 0, 2, 1)
    with pytest.raises(ValueError):
        ch.transmit(np.array([1.0, np.nan]), 0)
    ch2 = AwgnChannel.for_trials(math.inf, SEED, ROLE_FORWARD, 0, 2, 1)
    with pytest.raises(ValueError):
        ch2.transmit(np.inf, 0)


def test_transmit_consumes_steps_in_order():
    # use n reads noise column n, whatever was transmitted before
    noise = np.arange(6, dtype=np.float64).reshape(2, 3)
    ch = AwgnChannel(snr_db=0.0, noise=noise)
    assert np.array_equal(ch.transmit(np.zeros(2), 0), [0.0, 3.0])
    assert np.array_equal(ch.transmit(np.zeros(2), 1), [1.0, 4.0])
    assert np.array_equal(ch.transmit(np.zeros(2), 0), [0.0, 3.0])
    assert np.array_equal(ch.transmit(np.ones(2), 2), [3.0, 6.0])


def test_raw_stream_requires_alignment():
    with pytest.raises(ValueError):
        raw_stream(SEED, ROLE_FORWARD, 2, 4)


def test_message_indices_range_and_determinism():
    v = message_indices(SEED, 0, 50_000, 5)
    assert v.max() < 32
    assert np.array_equal(v, message_indices(SEED, 0, 50_000, 5))
    # chunk invariance for messages too
    assert np.array_equal(v[10_000:], message_indices(SEED, 10_000, 50_000, 5))
    # roughly uniform
    counts = np.bincount(v.astype(int), minlength=32)
    assert counts.min() > 50_000 / 32 * 0.9


def test_message_indices_full_width():
    v = message_indices(SEED, 0, 1000, 64)
    assert v.dtype == np.uint64
    assert len(np.unique(v)) == 1000  # collisions vanish at 64 bits
