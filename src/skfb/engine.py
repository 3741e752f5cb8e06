"""Deterministic parallel Monte Carlo BER estimation and the sweeps.

Noise and messages for trial ``i`` are pure functions of (config seed,
i).  One block mapper, :func:`_map_chunks`, runs each per-trial reduction
(BER counts, symbol power) over contiguous blocks of at most half a
``CHUNK_TRIALS`` chunk and sums the results in block order.  It is the
one place a block's inputs are derived: a reducer receives the block's
message labels and its finished channel pair as values.  A block's
recursion is many short numpy calls that hold the GIL, so it runs once,
on the calling thread, as do its labels; its noise, which releases the
GIL, is derived in parts on every worker, one block ahead.  Results are
bit-identical for any worker count; the ``SKFB_THREADS`` environment
variable caps the worker count, the calling thread included, for the
library as for the command-line tool.

``estimate_ber`` runs one cell and returns the timed CSV row the
command-line tool prints.  Each of the three sweeps is the one
implementation of its experiment: it reads its axes with
:func:`_distinct`, runs its cells through :func:`_run_sweep` and returns
one such row per cell.  :func:`optimize_gamma` returns the closed-form
oracle's rows over a gamma grid.
"""

from __future__ import annotations

import math
import numbers
import os
import time
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from . import channel as _channel
from . import codec as _codec
from .core import SkConfig, index_of_label, index_to_value, label_of_index, popcount_u64
from .precision import PrecisionMode
from .records import BestKRecord, GammaRecord, PhaseRecord, RunRecord, config_columns

CHUNK_TRIALS = 1 << 15  # fixed so results never depend on worker layout
# noise variates per noisy channel a block may hold (16 MiB of float64)
BLOCK_VARIATES = 1 << 21

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


def wilson_interval(errors: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval; well-defined at zero observed errors."""
    if n <= 0:
        raise ValueError("interval needs at least one observation")
    p = errors / n
    denom = 1.0 + _Z95 * _Z95 / n
    center = (p + _Z95 * _Z95 / (2 * n)) / denom
    half = (_Z95 / denom) * math.sqrt(p * (1.0 - p) / n + _Z95 * _Z95 / (4 * n * n))
    lo = 0.0 if errors == 0 else max(0.0, center - half)
    hi = 1.0 if errors == n else min(1.0, center + half)
    return lo, hi


def count_error(value) -> str | None:
    """Why a trial count, an error count, a worker count or a K step is
    refused, here and by the command-line tool, or None."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 1:
        return "must be an integer >= 1"
    return None


def rate_error(rate) -> str | None:
    """Why a sweep's coding rate is refused, or None.  In (0, 1] a cell's
    n_total = round(K / rate) is at least K."""
    if not isinstance(rate, numbers.Real) or isinstance(rate, bool) or not 0 < rate <= 1:
        return "must be a number in (0, 1]"
    return None


def _check(name: str, value, rule) -> None:
    if why := rule(value):
        raise ValueError(f"{name} {why}, got {value!r}")


def default_workers() -> int:
    """Worker cap: SKFB_THREADS if set, else the CPUs this process may run on."""
    env = os.environ.get("SKFB_THREADS")
    if env:
        try:
            workers = int(env)
        except ValueError:
            workers = None
        if why := count_error(workers):
            raise ValueError(f"SKFB_THREADS {why}, got {env!r}")
        return workers
    if hasattr(os, "sched_getaffinity"):  # honours a pinned CPU set
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_chunk(cfg: SkConfig, lo: int, hi: int, labels, channels) -> dict:
    """Bit-error and failed-trial counts of trials [lo, hi), whose message
    labels are ``labels``.

    ``channels`` is None exactly when the cell's schedule halts before
    the last use, which :func:`estimate_ber` decides once per cell: the
    block is then decided from its labels alone, since every trial fails
    and decodes to position 0, and no step is run.
    """
    if channels is None:
        idx = np.zeros(hi - lo, dtype=np.uint64)
        failed = np.ones(hi - lo, dtype=bool)
    else:
        theta = index_to_value(index_of_label(labels, cfg.bit_mapping), cfg.k)
        idx, failed = _codec.run_block(cfg, theta, channels)
    errors = popcount_u64(labels ^ label_of_index(idx, cfg.bit_mapping))
    return {"bit_errors": int(errors.sum()), "failed": int(np.count_nonzero(failed))}


def _map_chunks(cfg: SkConfig, trials: int, reduce, uses: int, stop_at_errors=None) -> Counter:
    """``reduce(cfg, lo, hi, labels, channels)`` summed over blocks, in
    block order, plus ``trials``, the number of trials reduced.

    A reducer is a function of its block, trials [lo, hi): ``labels`` are
    their message labels and ``channels`` their finished channel pair,
    holding the noise of the first ``uses`` channel uses, or None when
    ``uses`` is 0 and no noise is derived.  A block is half a
    ``CHUNK_TRIALS`` chunk, halved while it would hold more than
    ``BLOCK_VARIATES`` variates (``uses`` per trial) per noisy channel but
    never below two ``channel.NOISE_PART_TRIALS`` parts, so blocks tile
    the chunk grid and two workers can derive a block's noise at once.
    At two or more workers the block in flight and the next one hold at
    most twice the budget, or four parts past ``BLOCK_VARIATES / (2 *
    NOISE_PART_TRIALS)`` uses: for each block this thread submits the next
    block's noise parts to ``workers - 1`` pool threads, derives the
    block's labels, runs the block's parts no pool thread has started,
    newest first, and waits for the rest, so no more threads derive at
    once than there are workers; then it reduces the block.  At one
    worker nothing derives ahead, so the next block's noise is allocated
    only once the block is reduced and freed, and one block is held.
    With ``stop_at_errors`` the stop is decided on the cumulative
    ``bit_errors`` where a block ends on the chunk grid, so the cut point
    does not depend on the worker count and no reduced trial is
    discarded; the noise parts no thread has started are dropped, and
    those in flight finish before this returns.
    """
    block = CHUNK_TRIALS // 2
    while block * uses > BLOCK_VARIATES and block // 2 >= 2 * _channel.NOISE_PART_TRIALS:
        block //= 2
    workers = default_workers()
    totals = Counter()
    pool = ThreadPoolExecutor(max_workers=max(1, workers - 1))
    try:
        # at one worker a part's future never reaches the pool, so this
        # thread runs every part and no thread starts
        submit = pool.submit if workers > 1 else lambda part: Future()

        def noise(lo):  # the block at lo's channel pair and its submitted noise parts
            if not uses or lo == trials:
                return None, []
            parts = []
            channels = _channel.make_channels(cfg, lo, min(lo + block, trials), parts, uses)
            return channels, [(submit(part), part) for part in parts]

        def finished(channels, jobs):  # its own scope, so no loop name keeps a used block alive
            for future, part in jobs[::-1]:
                if future.cancel():  # no pool thread has started it
                    part()
            for future, _ in jobs:
                if not future.cancelled():
                    future.result()  # waits, and raises what the part raised
            return channels

        pending = noise(0)
        for lo in range(0, trials, block):
            hi = min(lo + block, trials)
            ahead = noise(hi) if workers > 1 else None
            labels = _channel.message_indices(cfg.seed, lo, hi, cfg.k)
            totals.update(reduce(cfg, lo, hi, labels, finished(*pending)))
            totals["trials"] += hi - lo
            if stop_at_errors is not None and hi % CHUNK_TRIALS == 0 \
                    and totals["bit_errors"] >= stop_at_errors:
                break
            pending = None  # at one worker the next block is allocated once this one is freed
            pending = ahead if workers > 1 else noise(hi)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    return totals


def estimate_ber(cfg: SkConfig, trials: int, stop_at_errors: int | None = None) -> RunRecord:
    """Monte Carlo BER over ``trials`` independent SK trials, as one CSV row.

    Per-trial randomness is derived from (cfg.seed, trial index), so every
    column but ``wall_time_seconds`` is a pure function of (cfg, trials,
    stop_at_errors).  With ``stop_at_errors`` set, simulation ends at the
    first multiple of ``CHUNK_TRIALS`` trials that reaches that many bit
    errors; the row's ``trials`` is what was actually run.
    """
    _check("trials", trials, count_error)
    if stop_at_errors is not None:
        _check("stop_at_errors", stop_at_errors, count_error)
    t0 = time.perf_counter()
    halts = _codec.schedule(cfg).halt < cfg.n_total  # every trial fails: no noise, no step
    totals = _map_chunks(cfg, trials, _run_chunk, 0 if halts else cfg.n_total, stop_at_errors)
    n_bits = totals["trials"] * cfg.k
    ci_low, ci_high = wilson_interval(totals["bit_errors"], n_bits)
    return RunRecord(
        **config_columns(cfg, RunRecord),
        trials=totals["trials"],
        stop_at_errors=stop_at_errors,
        bit_errors=totals["bit_errors"],
        failed_trials=totals["failed"],
        ber=totals["bit_errors"] / n_bits,
        ci_low=ci_low,
        ci_high=ci_high,
        wall_time_seconds=time.perf_counter() - t0,
    )


def measure_symbol_power(cfg: SkConfig, trials: int, steps) -> dict[int, tuple[float, float]]:
    """Empirical (mean, std-error) of X_n^2 at the requested steps.

    Each block of trials derives the noise of uses 0 to the last
    requested step only and walks ``codec.block_states`` up to that step;
    the sums of the sent X_n^2 and X_n^4 are added in block order.  Blocks
    are sized by the uses walked: a walk past use 128 runs smaller blocks,
    so its float sums split at other trials.  Failed trials send 0, so
    from the schedule's halt on the power is 0.  ``steps`` is an axis read
    by :func:`_distinct`: repeats are read once, and it must be non-empty.
    """
    _check("trials", trials, count_error)
    steps = tuple(steps)
    if not all(isinstance(n, numbers.Integral) and not isinstance(n, bool) for n in steps):
        raise ValueError(f"steps must be integers, got {steps!r}")
    if any(not 1 <= n < cfg.n_total for n in steps):
        raise ValueError(f"steps must lie in [1, {cfg.n_total}), got {steps!r}")
    wanted = _distinct("steps", (int(n) for n in steps))
    last = max(wanted)

    def power(cfg, lo, hi, labels, channels):
        theta = index_to_value(index_of_label(labels, cfg.bit_mapping), cfg.k)
        sums = {}
        for state in _codec.block_states(cfg, theta, channels):
            if state.step in wanted:
                sums[state.step, 2] = float(np.sum(state.x * state.x))
                sums[state.step, 4] = float(np.sum(state.x**4))
            if state.step == last:
                break
        return sums

    totals = _map_chunks(cfg, trials, power, last + 1)
    out = {}
    for step in wanted:
        mean = totals[step, 2] / trials
        var = max(0.0, totals[step, 4] / trials - mean * mean)
        out[step] = (mean, math.sqrt(var / trials))
    return out


def derive_seed(master_seed: int, *ids: int) -> int:
    """Independent sub-seed for a sweep cell, from the master seed only."""
    ss = _channel.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(i) for i in ids))
    return int(ss.generate_state(1, np.uint64)[0])


def _snr_id(snr_db: float) -> int:
    # stable integer identifier for a (possibly infinite) SNR value
    return int(np.float64(snr_db).view(np.uint64))


_DOMAIN_SWEEP_K = 101
_DOMAIN_PRECISION = 102
_DOMAIN_BEST_K = 103


def _distinct(name: str, values) -> list:
    """A sweep axis: ``values`` less repeats, each keeping its first
    position; an empty axis is refused by ``name``."""
    axis = list(dict.fromkeys(values))
    if not axis:
        raise ValueError(f"{name} must be non-empty")
    return axis


def _run_sweep(base_cfg: SkConfig, k_values, groups, rate, trials, stop_at_errors) -> list:
    """The rows of every (group, K) cell, one list per group, K in order.

    A group is (domain ids, config fields): a cell's seed is derived from
    the master seed, the ids and K, and ``fields`` are the other config
    fields the sweep sets.  Its N is round(K / rate) at ``rate`` (default:
    the base config's rate), which :func:`rate_error` checks.  Every cell
    is built before the first is simulated, so an invalid cell fails the
    sweep before any work is done.
    """
    rate = base_cfg.rate if rate is None else rate
    _check("rate", rate, rate_error)
    cells = [
        [replace(base_cfg, k=k, n_total=round(k / rate),
                 seed=derive_seed(base_cfg.seed, *ids, int(k)), **fields) for k in k_values]
        for ids, fields in groups
    ]
    return [[estimate_ber(cfg, trials, stop_at_errors) for cfg in group] for group in cells]


def sweep_block_length(base_cfg: SkConfig, k_range, *, trials: int, rate: float | None = None,
                       stop_at_errors: int | None = None) -> list[RunRecord]:
    """One row per K at fixed rate (default: the base config's rate).

    A repeated K is dropped: each keeps its first position.
    """
    [rows] = _run_sweep(base_cfg, _distinct("k_range", k_range), [((_DOMAIN_SWEEP_K,), {})],
                        rate, trials, stop_at_errors)
    return rows


SK_WINS = "sk_wins"
REFERENCE_WINS = "reference_wins"
TIE = "tie"
UNAVAILABLE = "unavailable"


def classify_cell(run: RunRecord, reference_ber: float | None) -> str:
    """Verdict of a row's BER interval against a reference BER."""
    if reference_ber is None:
        return UNAVAILABLE
    if run.ci_high < reference_ber:
        return SK_WINS
    if run.ci_low > reference_ber:
        return REFERENCE_WINS
    return TIE


def sweep_precision_grid(base_cfg: SkConfig, precisions, k_range, reference: dict, *,
                         trials: int, rate: float | None = None,
                         stop_at_errors: int | None = None) -> list[PhaseRecord]:
    """SK-vs-reference rows over (precision, block length), precision-major.

    ``reference`` maps (precision_bits, feedback_snr_db) to the baseline
    BER; a cell whose key it lacks is ``unavailable``.  A repeated width
    or K is dropped: each keeps its first position.
    """
    modes = _distinct("precisions", (PrecisionMode(bits) for bits in precisions))
    k_values = _distinct("k_range", k_range)
    groups = [((_DOMAIN_PRECISION, mode.width), dict(precision=mode)) for mode in modes]
    rows = []
    for runs in _run_sweep(base_cfg, k_values, groups, rate, trials, stop_at_errors):
        ref = reference.get((runs[0].precision_bits, base_cfg.feedback_snr_db))
        rows += [PhaseRecord(**vars(run), reference_ber=ref, verdict=classify_cell(run, ref))
                 for run in runs]
    return rows


def sweep_feedback_snr(base_cfg: SkConfig, snr_list, k_candidates, *, trials: int,
                       rate: float | None = None,
                       stop_at_errors: int | None = None) -> list[BestKRecord]:
    """One row per candidate K at each feedback SNR, SNR-major, K ascending.

    At each SNR ``is_best`` marks the lowest BER; ties go to the smaller K.
    Repeated SNRs and K candidates are dropped: each SNR keeps its first
    position.
    """
    # SkConfig checks every entry, a repeated one too
    snrs = _distinct("snr_list", (
        replace(base_cfg, feedback_snr_db=snr).feedback_snr_db for snr in snr_list
    ))
    candidates = sorted(_distinct("k_candidates", k_candidates))
    groups = [((_DOMAIN_BEST_K, _snr_id(snr)), dict(feedback_snr_db=snr)) for snr in snrs]
    rows = []
    for runs in _run_sweep(base_cfg, candidates, groups, rate, trials, stop_at_errors):
        best = min(runs, key=lambda r: r.ber)  # the first minimum has the smallest K
        rows += [BestKRecord(**vars(run), is_best=run is best) for run in runs]
    return rows


def optimize_gamma(cfg: SkConfig, grid) -> list[GammaRecord]:
    """The oracle BER at each first-use power fraction, as CSV rows.

    One row per distinct gamma of ``grid``, ascending; ``cfg``'s own
    gamma is not used.  The energy constraint is applied through
    ``codec.residual_power``: raising gamma drains the later uses.  Exactly
    one row has ``is_best``: grid points are ranked by the terminal
    estimate spread, the strictly monotone core of the oracle, so the
    ranking stays meaningful even where the BER itself underflows to zero,
    and ties go to the smaller gamma.  Noisy feedback is refused, as the
    oracle refuses it.
    """
    # SkConfig checks every entry, a repeated one too
    cells = sorted(_distinct("grid", (replace(cfg, gamma=g) for g in grid)),
                   key=lambda c: c.gamma)
    spreads = [_codec.terminal_estimate_std(c) for c in cells]
    best = spreads.index(min(spreads))  # the first minimum has the smallest gamma
    return [
        GammaRecord(
            **config_columns(c, GammaRecord),
            oracle_ber=_codec.analytic_ber_oracle(c),
            is_best=i == best,
        )
        for i, c in enumerate(cells)
    ]
