"""Acceptance criteria, one test per criterion.

Each criterion prints a single PASS/FAIL line with the measured values
(run ``pytest tests/test_acceptance.py -v -s`` to see them live).  Trial
counts and tolerances are fixed here; the heavy criteria (3 and 5) take
a few minutes each.
"""

import csv
import io
import math
import os
import subprocess
import sys

import numpy as np
from scipy.special import ndtr

from skfb import channel as channel_mod
from skfb import codec as codec_mod
from skfb.core import BitMapping, SkConfig, SkVariant, index_of_label, index_to_value
from skfb.engine import (
    estimate_ber,
    measure_symbol_power,
    sweep_block_length,
    sweep_feedback_snr,
)
from skfb.precision import PrecisionMode


def _criterion(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {name}: {status}  ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_1_small_k_analytic_agreement():
    cfg = SkConfig(k=1, n_total=3, forward_snr_db=0.0, gamma=1.0, seed=101)
    oracle = float(ndtr(-2.0))  # Q(sqrt(SNR * (1+SNR)^(N-1))) = Q(2)
    est = estimate_ber(cfg, 1_000_000)
    ok = abs(est.ber - oracle) <= 0.10 * oracle
    _criterion(
        1,
        "small-K analytic agreement",
        ok,
        f"MC ber={est.ber:.5f} vs Q(2)={oracle:.5f} at 1e6 trials",
    )


def test_criterion_2_noiseless_feedback_floor():
    details = []
    ok = True
    for k in (10, 30, 50):
        cfg = SkConfig(
            variant=SkVariant.ESTIMATE_DIFFERENCE, k=k, n_total=3 * k, seed=202
        )
        est = estimate_ber(cfg, 100_000)
        ok = ok and est.bit_errors == 0
        details.append(f"K={k}: {est.bit_errors} errors, BER < {est.ci_high:.2e}")
    _criterion(2, "noiseless-feedback floor", ok, "; ".join(details))


def test_criterion_3_precision_cliff_and_variant_ordering():
    trials = 100_000
    k_values = range(40, 61)
    cliffs = {}
    jumps = {}
    for variant in SkVariant:
        base = SkConfig(variant=variant, k=40, n_total=120, seed=303)
        rows = sweep_block_length(base, k_values, rate=1.0 / 3.0, trials=trials)
        bers = {row.k: row.ber for row in rows}
        # zero-error cells contribute their resolution floor to the span
        low = min(max(ber, 1.0 / (trials * k)) for k, ber in bers.items())
        high = max(bers.values())
        jumps[variant] = high / low
        over = [k for k, ber in bers.items() if ber > 1e-4]
        cliffs[variant] = min(over) if over else None
    ed, er = SkVariant.ESTIMATE_DIFFERENCE, SkVariant.ERROR_RECURSION
    ok = (
        jumps[ed] >= 1e3
        and jumps[er] >= 1e3
        and cliffs[ed] is not None
        and cliffs[er] is not None
        and cliffs[er] <= cliffs[ed]
    )
    _criterion(
        3,
        "precision cliff and variant ordering",
        ok,
        f"jump ed={jumps[ed]:.1e} er={jumps[er]:.1e}; "
        f"cliff ed=K{cliffs[ed]} er=K{cliffs[er]}",
    )


def test_criterion_4_precision_monotonicity():
    bers = {}
    for bits in (8, 16, 32, 64):
        cfg = SkConfig(k=30, n_total=90, precision=PrecisionMode(bits), seed=404)
        bers[bits] = estimate_ber(cfg, 100_000).ber
    ok = (
        bers[8] >= bers[16] >= bers[32] >= bers[64]
        and bers[8] >= 10.0 * bers[64]
    )
    detail = ", ".join(f"{b}b={bers[b]:.3e}" for b in (8, 16, 32, 64))
    _criterion(4, "precision monotonicity at K=30", ok, detail)


def test_criterion_5_noisy_feedback_best_k():
    base = SkConfig(k=1, forward_snr_db=0.0, seed=505)
    rows = sweep_feedback_snr(base, [23.0, 33.0, 40.0], range(1, 11), trials=1_000_000)
    expected = {23.0: 2, 33.0: 3, 40.0: 4}
    ok = True
    details = []
    best_bers = []
    for best in (row for row in rows if row.is_best):
        snr = best.feedback_snr_db
        ok = ok and abs(best.k - expected[snr]) <= 1
        best_bers.append(best.ber)
        details.append(f"{snr:g}dB: K*={best.k} ber={best.ber:.2e}")
    ok = ok and best_bers[0] > best_bers[1] > best_bers[2]
    _criterion(5, "noisy-feedback best block length", ok, "; ".join(details))


def test_criterion_6_variant_equivalence():
    n_trials = 10_000
    seed = 606
    labels = channel_mod.message_indices(seed, 0, n_trials, 20)
    positions = index_of_label(labels, BitMapping.NATURAL)
    theta = index_to_value(positions, 20)
    decoded = {}
    for variant in SkVariant:
        cfg = SkConfig(variant=variant, k=20, n_total=60, seed=seed)
        channels = channel_mod.make_channels(cfg, 0, n_trials)
        idx, failed = codec_mod.run_block(cfg, theta, channels)
        assert not failed.any()
        decoded[variant] = idx
    agree = np.mean(
        decoded[SkVariant.ESTIMATE_DIFFERENCE] == decoded[SkVariant.ERROR_RECURSION]
    )
    _criterion(
        6,
        "variant equivalence on shared streams",
        agree == 1.0,
        f"{agree:.2%} of {n_trials} paired trials decode identically",
    )


def test_criterion_7_worker_count_determinism(tmp_path):
    argv = [
        sys.executable, "-m", "skfb.cli", "ber",
        "--k", "8", "--snr-db", "0", "--feedback-snr-db", "25",
        "--trials", "100000", "--seed", "777",
    ]
    outputs = []
    for workers in ("1", "8"):
        env = dict(os.environ, SKFB_THREADS=workers)
        proc = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.DictReader(io.StringIO(proc.stdout)))
        for row in rows:
            row.pop("wall_time_seconds")
        outputs.append(rows)
    ok = outputs[0] == outputs[1]
    _criterion(
        7,
        "worker-count determinism",
        ok,
        f"1 vs 8 workers, ber={outputs[0][0]['ber']}",
    )


def test_criterion_8_power_constraint():
    cfg = SkConfig(k=20, n_total=60, seed=808)
    power = measure_symbol_power(cfg, 100_000, (1, 5, 10))
    ok = True
    details = []
    for step, (mean, se) in sorted(power.items()):
        z = abs(mean - 1.0) / se
        ok = ok and z <= 3.0
        details.append(f"n={step}: E[X^2]={mean:.4f} (z={z:.2f})")
    _criterion(8, "per-symbol power constraint", ok, "; ".join(details))


def test_criterion_9_transmitter_tracking_identity():
    cfg = SkConfig(k=8, n_total=24, feedback_snr_db=math.inf, seed=909)
    n_trials = 1000
    channels = channel_mod.make_channels(cfg, 0, n_trials)
    labels = channel_mod.message_indices(cfg.seed, 0, n_trials, cfg.k)
    theta = index_to_value(index_of_label(labels, cfg.bit_mapping), cfg.k)
    state = codec_mod.sk_init(theta, cfg, channels)
    worst = float(np.max(np.abs(state.theta_hat_tx - state.theta_hat_rx)))
    for _ in range(cfg.n_total - 1):
        state = codec_mod.sk_step(state, cfg, channels)
        worst = max(worst, float(np.max(np.abs(state.theta_hat_tx - state.theta_hat_rx))))
    _criterion(
        9,
        "transmitter tracking identity",
        worst == 0.0,
        f"max |theta_hat_tx - theta_hat_rx| = {worst}",
    )
