"""Monte Carlo engine: determinism, intervals, sweeps, comparisons."""

import math
import os
import sys
import threading
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from skfb import channel, codec, engine
from skfb.channel import make_channels, message_indices
from skfb.codec import analytic_ber_oracle, decode_indices, schedule, sk_init, sk_step
from skfb.core import (
    BitMapping,
    SkConfig,
    SkVariant,
    index_of_label,
    index_to_value,
    label_of_index,
    popcount_u64,
)
from skfb.engine import (
    CHUNK_TRIALS,
    classify_cell,
    derive_seed,
    estimate_ber,
    measure_symbol_power,
    sweep_block_length,
    sweep_feedback_snr,
    sweep_precision_grid,
    wilson_interval,
    REFERENCE_WINS,
    SK_WINS,
    TIE,
    UNAVAILABLE,
)
from skfb.precision import PrecisionMode, quantize
from skfb.records import BestKRecord, PhaseRecord, RunRecord


def _without_wall_time(rows):
    """The rows' columns, less the one that varies between runs."""
    return [{**vars(r), "wall_time_seconds": None} for r in rows]


def _threads(n: int):
    """SKFB_THREADS=n for the duration of a ``with`` block."""
    return mock.patch.dict(os.environ, {"SKFB_THREADS": str(n)})


def test_noiseless_channels_give_zero_errors():
    est = estimate_ber(SkConfig(k=4, n_total=12, forward_snr_db=math.inf), 5000)
    assert est.bit_errors == 0
    assert est.ber == 0.0
    assert est.failed_trials == 0


def test_k1_matches_analytic_oracle():
    cfg = SkConfig(k=1, n_total=3, seed=2024)
    oracle = analytic_ber_oracle(cfg)
    est = estimate_ber(cfg, 200_000)
    assert est.ber == pytest.approx(oracle, rel=0.1)


def test_worker_count_does_not_change_results():
    cfg = SkConfig(k=6, n_total=18, feedback_snr_db=25.0, seed=55)
    trials = 3 * CHUNK_TRIALS + 17  # force several chunks plus a ragged tail
    results = []
    for workers in (1, 2, 8):
        with _threads(workers):
            results += _without_wall_time([estimate_ber(cfg, trials)])
    assert results[0] == results[1] == results[2]


def test_repeat_runs_are_identical():
    cfg = SkConfig(k=3, n_total=9, seed=808)
    runs = [estimate_ber(cfg, 40_000), estimate_ber(cfg, 40_000)]
    assert _without_wall_time(runs[:1]) == _without_wall_time(runs[1:])


def test_trials_validation():
    with pytest.raises(ValueError):
        estimate_ber(SkConfig(k=1), 0)


@pytest.mark.parametrize("stop_at_errors", [0, -5])
def test_stop_at_errors_below_one_is_refused(stop_at_errors):
    with pytest.raises(ValueError, match="stop_at_errors"):
        estimate_ber(SkConfig(k=2), 1000, stop_at_errors=stop_at_errors)


@pytest.mark.parametrize(
    "name, counts",
    [
        ("trials", dict(trials=1000.0)),
        ("trials", dict(trials=True)),
        ("stop_at_errors", dict(trials=1000, stop_at_errors=2.5)),
        ("stop_at_errors", dict(trials=1000, stop_at_errors=True)),
    ],
)
def test_non_integer_counts_are_refused(name, counts):
    with pytest.raises(ValueError, match=name):
        estimate_ber(SkConfig(k=2), **counts)


def _hand_loop(cfg, hi, lo=0):
    """Every one of the n_total uses, stepped by hand over trials [lo, hi).

    Returns the per-trial (bit errors, failed) and, per step n >= 1, the
    sums of X_n^2 and X_n^4 over trials (failed trials send 0).
    """
    labels = message_indices(cfg.seed, lo, hi, cfg.k)
    theta = index_to_value(index_of_label(labels, cfg.bit_mapping), cfg.k)
    channels = make_channels(cfg, lo, hi)
    alpha = schedule(cfg).alpha
    state = sk_init(theta, cfg, channels)
    power = {}
    for _ in range(cfg.n_total - 1):
        state = sk_step(state, cfg, channels)
        with np.errstate(invalid="ignore", over="ignore"):
            x = quantize(float(alpha[state.step]) * state.u, cfg.precision)
        x = np.where(state.failed | ~np.isfinite(x), 0.0, x)
        power[state.step] = (float(np.sum(x * x)), float(np.sum(x**4)))
    idx, failed = decode_indices(state, cfg)
    errors = popcount_u64(labels ^ label_of_index(idx, cfg.bit_mapping))
    return errors, failed, power


_HALTING = [
    SkConfig(k=8, n_total=24, precision=PrecisionMode(8), seed=1),
    SkConfig(k=14, n_total=42, precision=PrecisionMode(16), seed=2,
             variant=SkVariant.ERROR_RECURSION, bit_mapping=BitMapping.GRAY),
    SkConfig(k=4, n_total=30, forward_snr_db=10.0, feedback_snr_db=20.0,
             precision=PrecisionMode(16), seed=3),
    SkConfig(k=1, n_total=1300, seed=4),
]


@pytest.mark.parametrize("cfg", _HALTING, ids=lambda c: f"w{c.precision.width}-n{c.n_total}")
def test_halted_chunks_match_a_hand_loop_over_every_use(cfg):
    assert schedule(cfg).halt < cfg.n_total
    trials = 300
    errors, failed, _ = _hand_loop(cfg, trials)
    with mock.patch.object(engine, "CHUNK_TRIALS", 128):  # several chunks
        est = estimate_ber(cfg, trials)
    assert (est.trials, est.bit_errors, est.failed_trials) == (
        trials, int(errors.sum()), int(np.count_nonzero(failed))
    )
    assert est.failed_trials == trials


_HEALTHY = SkConfig(k=8, n_total=24, precision=PrecisionMode(16), seed=1)


@pytest.mark.parametrize(
    "cfg", [*_HALTING, _HEALTHY], ids=lambda c: f"w{c.precision.width}-n{c.n_total}"
)
def test_only_cells_that_reach_the_last_use_derive_noise(cfg):
    # a halting cell is decided by its labels; a healthy one needs its noise
    halts = schedule(cfg).halt < cfg.n_total
    noisy_roles = (cfg.forward_snr_db != math.inf) + (cfg.feedback_snr_db != math.inf)
    with mock.patch.object(
        channel, "standard_normals", wraps=channel.standard_normals
    ) as spy, mock.patch.object(engine, "CHUNK_TRIALS", 128), _threads(2):
        estimate_ber(cfg, 300)
        estimate_ber(cfg, 300, stop_at_errors=10**9)
    variates = sum(c.args[4] * (c.args[3] - c.args[2]) for c in spy.call_args_list)
    assert variates == (0 if halts else 2 * noisy_roles * 300 * cfg.n_total)


@pytest.mark.parametrize("cfg, chunk", [
    *(pytest.param(c, None, id=f"w{c.precision.width}-n{c.n_total}") for c in _HALTING[:3]),
    pytest.param(_HALTING[2], 128, id="w16-n30-blocks"),
])
def test_symbol_power_past_the_halt_matches_a_hand_loop(cfg, chunk):
    # chunk None: one block; else the hand loop sums each half-chunk
    # block and adds the block sums in block order, as the engine does
    trials, chunk = 500, chunk or CHUNK_TRIALS
    half = chunk // 2
    power = {}
    for lo in range(0, trials, half):
        for step, sums in _hand_loop(cfg, min(lo + half, trials), lo)[2].items():
            power[step] = tuple(a + b for a, b in zip(power.get(step, (0.0, 0.0)), sums))
    steps = range(1, cfg.n_total)
    with mock.patch.object(engine, "CHUNK_TRIALS", chunk):
        measured = measure_symbol_power(cfg, trials, steps)
    for step in steps:
        s2, s4 = power[step]
        mean = s2 / trials
        se = math.sqrt(max(0.0, s4 / trials - mean * mean) / trials)
        assert measured[step] == (mean, se), f"step {step}"
    assert measured[cfg.n_total - 1] == (0.0, 0.0)


def test_early_stop_is_deterministic_and_recorded():
    cfg = SkConfig(k=2, n_total=6, forward_snr_db=-10.0, seed=3)  # high BER
    full = estimate_ber(cfg, 5 * CHUNK_TRIALS)
    stopped = estimate_ber(cfg, 5 * CHUNK_TRIALS, stop_at_errors=100)
    assert stopped.trials < full.trials
    assert stopped.trials % CHUNK_TRIALS == 0  # cut at a chunk boundary
    assert stopped.bit_errors >= 100
    with _threads(4):
        again = estimate_ber(cfg, 5 * CHUNK_TRIALS, stop_at_errors=100)
    assert _without_wall_time([stopped]) == _without_wall_time([again])


def _recorded_chunks():
    """Patch ``_run_chunk`` to record (lo, hi, thread id) of every call."""
    calls, lock, run_chunk = [], threading.Lock(), engine._run_chunk

    def record(cfg, lo, hi, channels):
        with lock:
            calls.append((lo, hi, threading.get_ident()))
        return run_chunk(cfg, lo, hi, channels)

    return calls, mock.patch.object(engine, "_run_chunk", record)


_STOPPING = SkConfig(k=2, n_total=6, forward_snr_db=-10.0, seed=3)  # high BER


@pytest.mark.parametrize("stop_at_errors", [1, 150])
def test_a_stopping_cell_discards_no_simulated_trial(stop_at_errors):
    calls, patch = _recorded_chunks()
    with patch, mock.patch.object(engine, "CHUNK_TRIALS", 64), _threads(2):
        row = estimate_ber(_STOPPING, 64 * 20, stop_at_errors=stop_at_errors)
    assert row.trials < 64 * 20
    assert sum(hi - lo for lo, hi, _ in calls) == row.trials


@pytest.mark.parametrize(
    "trials, stop_at_errors", [(64 * 20, 150), (1000, None), (64 * 3 + 1, None)]
)
def test_rows_do_not_depend_on_the_worker_count(trials, stop_at_errors):
    rows = []
    with mock.patch.object(engine, "CHUNK_TRIALS", 64):
        for workers in (1, 2, 3):
            with _threads(workers):
                rows += _without_wall_time([estimate_ber(_STOPPING, trials, stop_at_errors)])
    assert rows[0] == rows[1] == rows[2]
    if stop_at_errors is None:
        assert rows[0]["trials"] == trials
    else:
        assert rows[0]["trials"] < trials and rows[0]["trials"] % 64 == 0


@pytest.mark.parametrize(
    "cfg, trials, stop_at_errors",
    [
        (replace(_STOPPING, feedback_snr_db=10.0), 64 * 3 + 5, None),
        (_STOPPING, 64 * 20, 150),
        (_HALTING[0], 300, None),
    ],
    ids=["noisy-feedback", "stops", "halting"],
)
def test_rows_do_not_depend_on_the_block_budget(cfg, trials, stop_at_errors):
    # at n_total 6 a 32-trial block holds 192 variates per noisy channel:
    # a budget of 100 halves it to 16 trials, and a budget of 1 to two
    # 4-trial noise parts; a halting cell derives no noise and keeps 32
    halts = schedule(cfg).halt < cfg.n_total
    with mock.patch.object(engine, "CHUNK_TRIALS", 64), \
            mock.patch.object(channel, "NOISE_PART_TRIALS", 4):
        with _threads(1):
            want = _without_wall_time([estimate_ber(cfg, trials, stop_at_errors)])
        ran = want[0]["trials"]
        assert ran == trials if stop_at_errors is None else ran < trials
        for budget, noisy_block in ((100, 16), (1, 8)):
            block = 32 if halts else noisy_block
            for workers in (1, 2):
                calls, patch = _recorded_chunks()
                with patch, mock.patch.object(engine, "BLOCK_VARIATES", budget), \
                        _threads(workers):
                    got = _without_wall_time([estimate_ber(cfg, trials, stop_at_errors)])
                assert got == want, (budget, workers)
                assert [(lo, hi) for lo, hi, _ in calls] == [
                    (lo, min(lo + block, ran)) for lo in range(0, ran, block)
                ]


@pytest.mark.parametrize("stop_at_errors", [None, 10**9], ids=["whole", "never-stops"])
@pytest.mark.parametrize(
    "cfg", [_HALTING[0], _HALTING[3], _HEALTHY], ids=["w8", "n1300", "healthy"]
)
def test_a_cell_runs_half_chunk_blocks_one_at_a_time_on_the_calling_thread(cfg, stop_at_errors):
    # each block is one recursion, on the calling thread, for any worker count
    blocks = [(lo, min(lo + 32, 300)) for lo in range(0, 300, 32)]  # the last ends at 300
    for workers in (1, 2, 3):
        calls, patch = _recorded_chunks()
        with patch, mock.patch.object(engine, "CHUNK_TRIALS", 64), _threads(workers):
            estimate_ber(cfg, 300, stop_at_errors)
        assert [(lo, hi) for lo, hi, _ in calls] == blocks
        assert {thread for _, _, thread in calls} == {threading.get_ident()}


@pytest.mark.parametrize("stop_at_errors", [1, 150, 400])
def test_a_cell_stops_only_where_a_block_ends_on_the_chunk_grid(stop_at_errors):
    calls, patch = _recorded_chunks()
    with mock.patch.object(engine, "CHUNK_TRIALS", 64), _threads(2):
        with patch:
            row = estimate_ber(_STOPPING, 64 * 20, stop_at_errors=stop_at_errors)
        # the first half-block alone already reaches a stop of 1
        first = estimate_ber(_STOPPING, 32)
        before = estimate_ber(_STOPPING, row.trials - 64) if row.trials > 64 else None
    assert first.bit_errors >= 1
    assert 0 < row.trials < 64 * 20 and row.trials % 64 == 0
    assert [(lo, hi) for lo, hi, _ in calls] == [(lo, lo + 32) for lo in range(0, row.trials, 32)]
    # the cut is the first grid point where the cumulative errors reach the stop
    assert row.bit_errors >= stop_at_errors
    assert before is None or before.bit_errors < stop_at_errors


@pytest.mark.parametrize("stop_at_errors", [1, 150])
def test_a_stop_drops_noise_a_half_block_ahead_at_most_and_leaves_no_thread(stop_at_errors):
    cfg = replace(_STOPPING, feedback_snr_db=10.0)  # two noisy roles
    threads = threading.active_count()
    with mock.patch.object(
        channel, "standard_normals", wraps=channel.standard_normals
    ) as spy, mock.patch.object(engine, "CHUNK_TRIALS", 64), \
            mock.patch.object(channel, "NOISE_PART_TRIALS", 8), _threads(2):
        row = estimate_ber(cfg, 64 * 20, stop_at_errors=stop_at_errors)
    assert threading.active_count() == threads  # the pool's threads have exited
    derived = Counter()
    for call in spy.call_args_list:
        derived[call.args[1]] += call.args[3] - call.args[2]
    for role in (channel.ROLE_FORWARD, channel.ROLE_FEEDBACK):
        assert row.trials <= derived[role] <= row.trials + 32


@pytest.mark.parametrize(
    "cfg, trials, stop_at_errors, ran, block",
    [
        (SkConfig(k=50, n_total=150, seed=3), 100_000, None, 100_000, 8192),
        (SkConfig(k=2, n_total=60, forward_snr_db=-10.0, seed=3), 200_000, 1500,
         3 * CHUNK_TRIALS, 16384),
        (SkConfig(k=2, n_total=600, seed=3), CHUNK_TRIALS, None, CHUNK_TRIALS, 8192),
    ],
    ids=["whole", "stops-after-3-chunks", "n600"],
)
@pytest.mark.parametrize("workers", [1, 2])
def test_a_cell_holds_two_budgeted_blocks_of_noise(cfg, trials, stop_at_errors, ran, block,
                                                   workers):
    # the block in flight and the next one, each one float64 forward-noise
    # array of block x n_total: half a chunk up to 128 uses, halved past
    # the 16 MiB budget down to two noise parts; two conversion tiles on
    # each worker (a tile's Philox words and their uniforms); and 2 MiB
    # for the recursion state and the message labels
    assert schedule(cfg).halt == cfg.n_total  # so the noise is derived
    tiles = 2 * channel._TILE_WORDS * 8
    bound = 2 * block * cfg.n_total * 8 + workers * tiles + 2 * 2**20
    with _threads(workers):
        tracemalloc.start()  # counts numpy's arrays as well as Python objects
        try:
            row = estimate_ber(cfg, trials, stop_at_errors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert row.trials == ran
    assert peak <= bound, f"{peak / 2**20:.1f} MiB > {bound / 2**20:.1f} MiB"


def test_a_stopping_cells_memory_does_not_grow_with_its_trial_budget():
    # the cell stops after its first chunk at any budget, so a budget of
    # 10^9 trials must cost what a budget of two chunks does
    cfg = SkConfig(k=4, n_total=4, forward_snr_db=-10.0, seed=1)
    peaks = []
    with _threads(1):
        for trials in (2 * CHUNK_TRIALS, 10**9):
            tracemalloc.start()
            try:
                row = estimate_ber(cfg, trials, stop_at_errors=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert row.trials == CHUNK_TRIALS
    assert peaks[1] - peaks[0] < 2**20, f"{(peaks[1] - peaks[0]) / 2**20:.1f} MiB more"


def test_no_more_threads_than_workers_derive_noise_or_simulate_at_once():
    depth, peak, lock = Counter(), [0], threading.Lock()

    def counted(fn, pause):
        def run(*args):
            me = threading.get_ident()
            with lock:
                depth[me] += 1
                peak[0] = max(peak[0], sum(1 for d in depth.values() if d))
            try:
                time.sleep(pause)  # let the other threads catch up
                return fn(*args)
            finally:
                with lock:
                    depth[me] -= 1
        return run

    cfg = replace(_STOPPING, feedback_snr_db=10.0)  # two noisy roles
    rows = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads interleave often
    try:
        for workers in (1, 2, 5):  # more workers than cores, too
            peak[0] = 0
            with mock.patch.object(engine, "CHUNK_TRIALS", 256), \
                    mock.patch.object(channel, "NOISE_PART_TRIALS", 32), \
                    mock.patch.object(channel, "standard_normals",
                                      counted(channel.standard_normals, 0.002)), \
                    mock.patch.object(engine, "_run_chunk", counted(engine._run_chunk, 0.0)), \
                    _threads(workers):
                rows[workers] = _without_wall_time([estimate_ber(cfg, 1000)])
            assert (peak[0] == 1) if workers == 1 else (1 < peak[0] <= workers)
    finally:
        sys.setswitchinterval(interval)
    # the parts of every block land in their own columns on any thread
    assert rows[1] == rows[2] == rows[5]


_TABLE = {(64, math.inf): 1e-3}


@pytest.mark.parametrize(
    "sweep",
    [
        lambda base: sweep_block_length(base, range(63, 66), trials=10),
        lambda base: sweep_precision_grid(base, [64], range(63, 66), _TABLE, trials=10),
        lambda base: sweep_precision_grid(base, [64, 12], [1, 2], _TABLE, trials=10),
        lambda base: sweep_precision_grid(base, [16.9], [1, 2], _TABLE, trials=10),
        lambda base: sweep_precision_grid(base, [64, 64.0], [1, 2], _TABLE, trials=10),
        lambda base: sweep_feedback_snr(base, [20.0, math.nan], [1, 2], trials=10),
    ],
    ids=["sweep-k-65", "precision-k-65", "precision-12", "precision-16.9", "precision-64.0",
         "feedback-nan"],
)
def test_an_invalid_last_cell_fails_the_sweep_before_any_simulation(sweep):
    calls, patch = _recorded_chunks()
    with patch, pytest.raises(ValueError):
        sweep(SkConfig(k=1, seed=1))
    assert calls == []


@pytest.mark.parametrize(
    "snr_list", [[True], [20.0, "2"], [20.0, None], [1, True]],
    ids=["bool", "str", "none", "bool-equal-to-an-earlier-entry"],
)
def test_each_feedback_snr_entry_is_checked_as_sk_config_checks_it(snr_list):
    calls, patch = _recorded_chunks()
    with patch, pytest.raises(ValueError, match="feedback_snr_db"):
        sweep_feedback_snr(SkConfig(k=1), snr_list, [1], trials=10)
    assert calls == []


def test_real_feedback_snr_entries_keep_their_order_and_seeds():
    base = SkConfig(k=1, seed=12)
    assert engine._snr_id(23) == engine._snr_id(23.0)
    mixed = sweep_feedback_snr(base, [23, np.float64(9), 23.0], [1], trials=500)
    floats = sweep_feedback_snr(base, [23.0, 9.0], [1], trials=500)
    assert _without_wall_time(mixed) == _without_wall_time(floats)


def test_repeated_feedback_snrs_are_dropped():
    base = SkConfig(k=1, seed=12)
    repeated = sweep_feedback_snr(base, [30.0, 20.0, 30.0, 20.0], [2, 1], trials=2000)
    once = sweep_feedback_snr(base, [30.0, 20.0], [1, 2], trials=2000)
    cells = [(r.feedback_snr_db, r.k) for r in repeated]
    assert cells == [(30.0, 1), (30.0, 2), (20.0, 1), (20.0, 2)]
    assert _without_wall_time(repeated) == _without_wall_time(once)


def test_repeated_precisions_are_dropped():
    table = {(64, math.inf): 1.0, (8, math.inf): 1.0}
    base = SkConfig(k=1, seed=12)
    repeated = sweep_precision_grid(base, [64, 8, 64, 8], [1, 2], table, trials=2000)
    once = sweep_precision_grid(base, [64, 8], [1, 2], table, trials=2000)
    cells = [(r.precision_bits, r.k) for r in repeated]
    assert cells == [(64, 1), (64, 2), (8, 1), (8, 2)]
    assert _without_wall_time(repeated) == _without_wall_time(once)


def test_repeated_k_values_are_dropped():
    table = {(64, math.inf): 1.0}
    base = SkConfig(k=1, seed=3)
    for sweep in (
        lambda ks: sweep_block_length(base, ks, trials=500),
        lambda ks: sweep_precision_grid(base, [64], ks, table, trials=500),
    ):
        repeated, once = sweep([3, 2, 3, 2]), sweep([3, 2])
        assert [r.k for r in repeated] == [3, 2]
        assert _without_wall_time(repeated) == _without_wall_time(once)


@pytest.mark.parametrize(
    "call",
    [
        lambda base: sweep_block_length(base, [1], 1 / 3, 10),
        lambda base: sweep_block_length(base, [1]),
        lambda base: sweep_precision_grid(base, [64], [1], {}, 10, 1 / 3),
        lambda base: sweep_precision_grid(base, [64], [1], {}),
        lambda base: sweep_feedback_snr(base, [20.0], [1], 10, 1 / 3),
        lambda base: sweep_feedback_snr(base, [20.0], [1]),
    ],
    ids=["sweep-k-positional", "sweep-k-no-trials", "precision-positional",
         "precision-no-trials", "feedback-positional", "feedback-no-trials"],
)
def test_a_sweeps_run_options_are_keywords_and_trials_has_no_default(call):
    calls, patch = _recorded_chunks()
    with patch, pytest.raises(TypeError):
        call(SkConfig(k=1, seed=1))
    assert calls == []


def test_a_non_integer_k_fails_the_sweep():
    with pytest.raises(ValueError, match="k must be an integer"):
        sweep_block_length(SkConfig(k=1), [2, 2.5], trials=10)


@pytest.mark.parametrize("value", ["0", "-1", "abc", "1.5"])
def test_skfb_threads_must_be_a_positive_integer(value):
    with mock.patch.dict(os.environ, {"SKFB_THREADS": value}):
        with pytest.raises(ValueError, match="SKFB_THREADS"):
            engine.default_workers()


@pytest.mark.parametrize("affinity, want", [({0}, 1), (None, 8)], ids=["pinned", "no-affinity"])
def test_default_workers_counts_the_cpus_this_process_may_run_on(monkeypatch, affinity, want):
    # a process pinned to one CPU of eight gets one worker, not eight; a
    # platform without affinity masks falls back to the CPU count
    monkeypatch.delenv("SKFB_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    assert engine.default_workers() == want


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 1000)
    assert lo == 0.0
    assert hi == pytest.approx(1.96**2 / (1000 + 1.96**2), rel=1e-3)
    lo, hi = wilson_interval(500, 1000)
    assert lo < 0.5 < hi
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


def test_wilson_interval_calibration():
    # synthetic Bernoulli source: 95% interval must cover p >= 93% of runs
    rng = np.random.default_rng(1234)
    p, n, covered = 0.02, 2000, 0
    reps = 1000
    for _ in range(reps):
        errors = rng.binomial(n, p)
        lo, hi = wilson_interval(int(errors), n)
        covered += lo <= p <= hi
    assert covered / reps >= 0.93


def test_estimate_fields_are_consistent():
    cfg = SkConfig(k=2, n_total=6, seed=17)
    est = estimate_ber(cfg, 30_000)
    assert est.trials == 30_000
    assert est.ber == est.bit_errors / (30_000 * 2)
    assert est.ci_low <= est.ber <= est.ci_high


def test_sweep_block_length_single_k_equals_estimate():
    base = SkConfig(k=1, seed=5)
    rows = sweep_block_length(base, [1], rate=1.0 / 3.0, trials=20_000)
    assert len(rows) == 1
    row = rows[0]
    assert type(row) is RunRecord
    assert (row.k, row.n_total, row.stop_at_errors) == (1, 3, None)
    assert row.wall_time_seconds > 0
    # the cell's seed comes from the master seed, the sweep's domain and K
    cell = replace(base, k=1, n_total=3, seed=derive_seed(5, 101, 1))
    assert _without_wall_time(rows) == _without_wall_time([estimate_ber(cell, 20_000)])


def test_sweep_cells_stop_at_errors():
    base = SkConfig(k=2, forward_snr_db=-10.0, seed=3)  # high BER
    rows = sweep_block_length(base, [2], trials=3 * CHUNK_TRIALS, stop_at_errors=100)
    assert (rows[0].stop_at_errors, rows[0].trials) == (100, CHUNK_TRIALS)


@pytest.mark.parametrize("rate", [0.0, -1.0, 10.0, 1.0 + 1e-9, math.nan, math.inf, "0.5"])
def test_sweeps_refuse_a_rate_outside_the_unit_interval(rate):
    calls, patch = _recorded_chunks()
    with patch, pytest.raises(ValueError, match="rate"):
        sweep_block_length(SkConfig(), [4], rate=rate, trials=10)
    assert calls == []


def test_sweep_block_length_rejects_empty_range():
    with pytest.raises(ValueError, match="^k_range must be non-empty$"):
        sweep_block_length(SkConfig(k=1), [], trials=10)


@pytest.mark.parametrize(
    "precisions, k_range, name", [([], [1], "precisions"), ([8], [], "k_range"),
                                  ([], [], "precisions")],
    ids=["precisions", "k-range", "both"],
)
def test_an_empty_precision_grid_names_its_parameter(precisions, k_range, name):
    table = {}
    with pytest.raises(ValueError, match=f"^{name} must be non-empty$"):
        sweep_precision_grid(SkConfig(k=1), precisions, k_range, table, trials=10)


def test_derive_seed_is_stable_and_spread():
    a = derive_seed(7, 101, 3)
    assert a == derive_seed(7, 101, 3)
    assert a != derive_seed(7, 101, 4)
    assert a != derive_seed(8, 101, 3)


def test_classify_cell_rules():
    est = replace(estimate_ber(SkConfig(k=1), 100), ber=0.1, ci_low=0.05, ci_high=0.18)
    assert classify_cell(est, None) == UNAVAILABLE
    assert classify_cell(est, 0.5) == SK_WINS
    assert classify_cell(est, 0.01) == REFERENCE_WINS
    assert classify_cell(est, 0.1) == TIE


def test_sweep_precision_grid_trivial_reference():
    # a reference of 1.0 everywhere loses to any observed BER
    table = {(64, math.inf): 1.0, (32, math.inf): 1.0}
    base = SkConfig(k=1, seed=6)
    rows = sweep_precision_grid(base, [64, 32], [1, 2], table, trials=5000)
    assert [(r.precision_bits, r.k) for r in rows] == [(64, 1), (64, 2), (32, 1), (32, 2)]
    for row in rows:
        assert type(row) is PhaseRecord
        assert row.reference_ber == 1.0
        assert row.verdict == SK_WINS


def test_sweep_precision_grid_missing_reference_row():
    table = {(64, math.inf): 1e-6}
    rows = sweep_precision_grid(SkConfig(k=1, seed=6), [64, 8], [1], table, trials=2000)
    verdicts = {r.precision_bits: r.verdict for r in rows}
    assert verdicts[64] in (SK_WINS, REFERENCE_WINS, TIE)
    assert verdicts[64] == classify_cell(rows[0], 1e-6)
    assert verdicts[8] == UNAVAILABLE
    assert rows[1].reference_ber is None


def test_best_block_length_tie_prefers_smaller_k():
    # noiseless forward channel: every candidate scores exactly zero
    base = SkConfig(k=1, forward_snr_db=math.inf, seed=9)
    rows = sweep_feedback_snr(base, [math.inf], [3, 1, 2], trials=2000)
    assert [r.k for r in rows] == [1, 2, 3]
    assert [r.is_best for r in rows] == [True, False, False]
    assert all(r.ber == 0.0 for r in rows)


def test_best_block_length_marks_the_lowest_ber():
    rows = sweep_feedback_snr(SkConfig(k=1, seed=3), [23.0], range(1, 5), trials=20_000)
    assert all(type(r) is BestKRecord and r.feedback_snr_db == 23.0 for r in rows)
    best = [r for r in rows if r.is_best]
    assert len(best) == 1
    assert best[0].ber == min(r.ber for r in rows)


def test_best_block_length_rejects_empty():
    with pytest.raises(ValueError, match="k_candidates"):
        sweep_feedback_snr(SkConfig(k=1), [23.0], [], trials=10)
    with pytest.raises(ValueError, match="snr_list"):
        sweep_feedback_snr(SkConfig(k=1), [], [1], trials=10)


def test_sweep_feedback_snr_single_point():
    # each SNR's rows, is_best included, do not depend on the other SNRs
    base = SkConfig(k=1, seed=77)
    rows = sweep_feedback_snr(base, [25.0], [1, 2], trials=20_000)
    assert len(rows) == 2
    assert {r.feedback_snr_db for r in rows} == {25.0}
    both = sweep_feedback_snr(base, [20.0, 25.0], [1, 2], trials=20_000)
    assert [r.feedback_snr_db for r in both] == [20.0, 20.0, 25.0, 25.0]
    assert _without_wall_time(both[2:]) == _without_wall_time(rows)


def test_sweep_feedback_infinite_entry_matches_noiseless():
    base = SkConfig(k=1, seed=4)
    rows = sweep_feedback_snr(base, [math.inf], [1, 2, 3], trials=20_000)
    best = next(r for r in rows if r.is_best)
    assert best.bit_errors == best.ber * best.trials * best.k
    snr_id = int(np.float64(math.inf).view(np.uint64))
    cells = [
        replace(base, k=k, n_total=3 * k, seed=derive_seed(4, 103, snr_id, k))
        for k in (1, 2, 3)
    ]
    direct = [
        BestKRecord(**vars(estimate_ber(cell, 20_000)), is_best=cell.k == best.k)
        for cell in cells
    ]
    assert _without_wall_time(rows) == _without_wall_time(direct)


def test_monotone_in_forward_and_feedback_snr():
    trials = 30_000
    fwd = [
        estimate_ber(SkConfig(k=2, n_total=6, forward_snr_db=s, seed=1), trials).ber
        for s in (-3.0, 0.0, 3.0)
    ]
    assert fwd[0] >= fwd[1] >= fwd[2]
    fb = [
        estimate_ber(SkConfig(k=4, n_total=12, feedback_snr_db=s, seed=1), trials).ber
        for s in (20.0, 30.0, math.inf)
    ]
    assert fb[0] >= fb[1] >= fb[2]


def test_measure_symbol_power_refuses_empty_steps_before_any_work():
    with mock.patch.object(engine, "_map_chunks") as run, \
            pytest.raises(ValueError, match="^steps must be non-empty$"):
        measure_symbol_power(SkConfig(k=2, n_total=6), 100, [])
    assert run.call_count == 0


def test_measure_symbol_power_validates_steps():
    with pytest.raises(ValueError):
        measure_symbol_power(SkConfig(k=2, n_total=6), 100, [0])
    with pytest.raises(ValueError):
        measure_symbol_power(SkConfig(k=2, n_total=6), 100, [6])
    for trials in (0, -5):
        with pytest.raises(ValueError, match="trials"):
            measure_symbol_power(SkConfig(k=2, n_total=6), trials, [1])
    for steps in ([1.7, 2], [np.float64(2.0)], [True], [np.True_]):
        with pytest.raises(ValueError, match="steps"):
            measure_symbol_power(SkConfig(k=2, n_total=6), 100, steps)
    # numpy integers are steps like any other
    numpy_steps = measure_symbol_power(SkConfig(k=2, n_total=6), 100, np.arange(1, 3))
    assert numpy_steps == measure_symbol_power(SkConfig(k=2, n_total=6), 100, [1, 2])
    assert all(type(step) is int for step in numpy_steps)


@pytest.mark.parametrize("steps", [(1,), (2,), (1, 4, 3)])
def test_measure_symbol_power_derives_only_the_uses_it_walks(steps):
    cfg = SkConfig(k=2, n_total=6, feedback_snr_db=20.0, seed=9)  # two noisy roles
    with mock.patch.object(
        channel, "standard_normals", wraps=channel.standard_normals
    ) as spy, mock.patch.object(engine, "CHUNK_TRIALS", 64), _threads(2):
        measure_symbol_power(cfg, 200, steps)
    variates = Counter()
    for call in spy.call_args_list:
        _, role, lo, hi, _, out = call.args
        variates[role] += (hi - lo) * out.shape[0]
    uses = max(steps) + 1
    assert variates == {channel.ROLE_FORWARD: 200 * uses, channel.ROLE_FEEDBACK: 200 * uses}


@pytest.mark.parametrize("steps", [(1,), (2,), (1, 4, 3)])
def test_measure_symbol_power_steps_each_chunk_to_its_last_step(steps):
    with mock.patch.object(engine, "CHUNK_TRIALS", 64):  # seven blocks of 32
        with mock.patch.object(codec, "sk_step", wraps=codec.sk_step) as spy:
            measure_symbol_power(SkConfig(k=2, n_total=6), 200, steps)
    assert spy.call_count == 7 * max(steps)


def test_symbol_power_does_not_depend_on_the_worker_count():
    cfg = SkConfig(k=3, n_total=9, feedback_snr_db=25.0, precision=PrecisionMode(16), seed=5)
    powers = []
    with mock.patch.object(engine, "CHUNK_TRIALS", 64):
        for workers in (1, 2, 3):
            with _threads(workers):
                powers.append(measure_symbol_power(cfg, 64 * 3 + 1, range(1, cfg.n_total)))
    assert powers[0] == powers[1] == powers[2]


def test_measure_symbol_power_near_unit():
    power = measure_symbol_power(SkConfig(k=5, n_total=15, seed=44), 40_000, (1, 3))
    for step, (mean, se) in power.items():
        assert abs(mean - 1.0) < 4 * se, f"step {step}"


# NaN and -inf SNRs and NaN or non-positive gammas are refused at
# construction (tests/test_core.py), so drawing them would only skip examples
_SNRS = st.one_of(st.floats(-20.0, 60.0), st.just(math.inf))


@settings(max_examples=60, deadline=None)
@given(
    variant=st.sampled_from(list(SkVariant)),
    k=st.integers(1, 64),
    n_total=st.one_of(st.none(), st.integers(1, 40)),  # 8- and 16-bit halts at 0 dB
    forward_snr_db=_SNRS,
    feedback_snr_db=_SNRS,
    bits=st.sampled_from([8, 16, 32, 64]),
    gamma=st.floats(0.0, 10.0, exclude_min=True),
    bit_mapping=st.sampled_from(list(BitMapping)),
    seed=st.integers(0, 2**64 - 1),
)
# an 8-bit and a 16-bit cell whose schedule halts (steps 11 and 26), every run
@example(SkVariant.ESTIMATE_DIFFERENCE, 8, 24, 0.0, math.inf, 8, 1.0, BitMapping.NATURAL, 1)
@example(SkVariant.ERROR_RECURSION, 14, 40, 0.0, 20.0, 16, 1.0, BitMapping.GRAY, 2)
# SNRs just above the bound where the noise variance overflows binary64, on
# each role, and below it, which SkConfig refuses
@example(SkVariant.ERROR_RECURSION, 20, None, -3082.0, -3082.0, 64, 1.0, BitMapping.NATURAL, 3)
@example(SkVariant.ESTIMATE_DIFFERENCE, 2, None, -3082.0, math.inf, 8, 0.5, BitMapping.GRAY, 4)
@example(SkVariant.ESTIMATE_DIFFERENCE, 53, None, 0.0, -3082.0, 16, 1.0, BitMapping.NATURAL, 5)
@example(SkVariant.ESTIMATE_DIFFERENCE, 2, None, -3100.0, math.inf, 64, 1.0, BitMapping.NATURAL, 6)
@example(SkVariant.ERROR_RECURSION, 2, None, 0.0, -3100.0, 32, 1.0, BitMapping.NATURAL, 7)
def test_every_constructible_config_gives_valid_counts(
    variant, k, n_total, forward_snr_db, feedback_snr_db, bits, gamma, bit_mapping, seed
):
    try:
        cfg = SkConfig(
            variant=variant,
            k=k,
            n_total=n_total,
            forward_snr_db=forward_snr_db,
            feedback_snr_db=feedback_snr_db,
            precision=PrecisionMode(bits),
            gamma=gamma,
            seed=seed,
            bit_mapping=bit_mapping,
        )
    except ValueError:
        return
    trials = 200
    with mock.patch.object(engine, "CHUNK_TRIALS", 64):  # several chunks per run
        with _threads(1):
            one = estimate_ber(cfg, trials)
        with _threads(2):
            two = estimate_ber(cfg, trials)
    assert _without_wall_time([one]) == _without_wall_time([two])
    assert 0 <= one.bit_errors <= trials * cfg.k
    assert 0 <= one.failed_trials <= trials
