"""Deterministic parallel Monte Carlo BER estimation and the sweeps.

Trials are embarrassingly parallel: noise and messages for trial ``i``
are pure functions of (config seed, i), so any partition of the trials
gives the same integer counts.  The engine splits a cell's trials into
near-equal contiguous chunks of at most ``CHUNK_TRIALS``, a multiple of
the worker count of them, runs them on a thread pool, and merges the
counts in chunk order.  Results are bit-identical for any worker count;
the ``SKFB_THREADS`` environment variable caps the pool size, for the
library as for the command-line tool.

``estimate_ber`` runs one cell and returns the timed CSV row the
command-line tool prints.  Each of the three sweeps is the one
implementation of its experiment and returns one such row per cell.
"""

from __future__ import annotations

import math
import numbers
import os
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from . import channel as _channel
from . import codec as _codec
from .core import SkConfig, index_of_label, index_to_value, label_of_index, popcount_u64
from .precision import PrecisionMode
from .records import BestKRecord, PhaseRecord, ReferenceTable, RunRecord, config_columns

CHUNK_TRIALS = 1 << 15  # fixed so results never depend on worker layout

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


def wilson_interval(errors: int, n: int, z: float = _Z95) -> tuple[float, float]:
    """95% Wilson score interval; well-defined at zero observed errors."""
    if n <= 0:
        raise ValueError("interval needs at least one observation")
    p = errors / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n))
    lo = 0.0 if errors == 0 else max(0.0, center - half)
    hi = 1.0 if errors == n else min(1.0, center + half)
    return lo, hi


def default_workers() -> int:
    """Worker cap: SKFB_THREADS if set, else the machine's CPU count."""
    env = os.environ.get("SKFB_THREADS")
    if env:
        try:
            workers = int(env)
        except ValueError:
            workers = 0
        if workers < 1:
            raise ValueError(f"SKFB_THREADS must be an integer >= 1, got {env!r}")
        return workers
    return os.cpu_count() or 1


def _run_chunk(cfg: SkConfig, lo: int, hi: int) -> dict:
    """Simulate trials [lo, hi); returns their integer counts.

    A cell whose schedule halts before the last use is decided from its
    message labels alone: every trial fails and decodes to position 0,
    so no noise is derived and no step is run.
    """
    labels = _channel.message_indices(cfg.seed, lo, hi, cfg.k)
    if _codec.schedule(cfg).halt < cfg.n_total:
        idx = np.zeros(hi - lo, dtype=np.uint64)
        failed = np.ones(hi - lo, dtype=bool)
    else:
        theta = index_to_value(index_of_label(labels, cfg.k, cfg.bit_mapping), cfg.k)
        idx, failed = _codec.run_block(cfg, theta, _channel.make_channels(cfg, lo, hi))
    decoded_labels = label_of_index(idx, cfg.k, cfg.bit_mapping)
    errors = popcount_u64(labels ^ decoded_labels)
    return {
        "trials": hi - lo,
        "bit_errors": int(errors.sum()),
        "failed": int(np.count_nonzero(failed)),
    }


def _chunk_ranges(trials: int):
    return [(lo, min(lo + CHUNK_TRIALS, trials)) for lo in range(0, trials, CHUNK_TRIALS)]


def _split(lo: int, hi: int, parts: int) -> list[tuple[int, int]]:
    """[lo, hi) as at most ``parts`` contiguous ranges, in order, whose
    sizes differ by at most one trial; empty ranges are left out."""
    size, extra = divmod(hi - lo, parts)
    cuts = [lo + i * size + min(i, extra) for i in range(parts + 1)]
    return [(a, b) for a, b in zip(cuts, cuts[1:]) if a < b]


def _map_chunks(cfg: SkConfig, trials: int, stop_at_errors=None) -> Counter:
    """Counts of trials [0, trials), merged in chunk order.

    Without ``stop_at_errors`` the whole range is one block.  With it,
    the fixed ``CHUNK_TRIALS`` grid blocks run one at a time, in order,
    and the stop is decided on the cumulative counts at each block
    boundary, so the cut point does not depend on the worker count and no
    simulated trial is discarded.  Each block is split into near-equal
    chunks of at most ``CHUNK_TRIALS`` trials, a multiple of the worker
    count of them, which the pool runs in order.
    """
    grid = _chunk_ranges(trials)
    workers = min(default_workers(), len(grid))
    blocks = [(0, trials)] if stop_at_errors is None else grid
    totals = Counter()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        run = map if workers == 1 else pool.map  # a 1-worker pool starts no thread
        for lo, hi in blocks:
            chunks = _split(lo, hi, workers * -(-(hi - lo) // (workers * CHUNK_TRIALS)))
            for counts in run(lambda chunk: _run_chunk(cfg, *chunk), chunks):
                totals.update(counts)
            if stop_at_errors is not None and totals["bit_errors"] >= stop_at_errors:
                break
    return totals


def _check_count(name: str, value) -> None:
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def estimate_ber(cfg: SkConfig, trials: int, stop_at_errors: int | None = None) -> RunRecord:
    """Monte Carlo BER over ``trials`` independent SK trials, as one CSV row.

    Per-trial randomness is derived from (cfg.seed, trial index), so every
    column but ``wall_time_seconds`` is a pure function of (cfg, trials,
    stop_at_errors).  With ``stop_at_errors`` set, simulation ends at the
    first chunk boundary where at least that many bit errors have
    accumulated; the row's ``trials`` is what was actually run.
    """
    _check_count("trials", trials)
    if stop_at_errors is not None:
        _check_count("stop_at_errors", stop_at_errors)
    t0 = time.perf_counter()
    totals = _map_chunks(cfg, trials, stop_at_errors)
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

    Each chunk of trials walks the block loop up to the last requested
    step, and the sums of the sent X_n^2 and X_n^4 are added in chunk
    order.  Failed trials send 0, so from the schedule's halt on the
    power is 0.
    """
    _check_count("trials", trials)
    steps = tuple(steps)
    if not all(isinstance(n, numbers.Integral) for n in steps):
        raise ValueError(f"steps must be integers, got {steps!r}")
    if any(not 1 <= n < cfg.n_total for n in steps):
        raise ValueError(f"steps must lie in [1, {cfg.n_total}), got {steps!r}")
    sums = {int(n): [0.0, 0.0] for n in steps}
    last = max(sums, default=0)
    for lo, hi in _chunk_ranges(trials):
        labels = _channel.message_indices(cfg.seed, lo, hi, cfg.k)
        theta = index_to_value(index_of_label(labels, cfg.k, cfg.bit_mapping), cfg.k)
        for state in _codec.block_states(cfg, theta, _channel.make_channels(cfg, lo, hi)):
            if state.step in sums:
                x = state.x
                sums[state.step][0] += float(np.sum(x * x))
                sums[state.step][1] += float(np.sum(x**4))
            if state.step == last:
                break
    out = {}
    for step, (s2, s4) in sums.items():
        mean = s2 / trials
        var = max(0.0, s4 / trials - mean * mean)
        out[step] = (mean, math.sqrt(var / trials))
    return out


def derive_seed(master_seed: int, *ids: int) -> int:
    """Independent sub-seed for a sweep cell, from the master seed only."""
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(i) for i in ids))
    return int(ss.generate_state(1, np.uint64)[0])


def _snr_id(snr_db: float) -> int:
    # stable integer identifier for a (possibly infinite) SNR value
    return int(np.float64(snr_db).view(np.uint64))


_DOMAIN_SWEEP_K = 101
_DOMAIN_PRECISION = 102
_DOMAIN_BEST_K = 103


def _cell(base_cfg: SkConfig, k: int, rate: float | None, ids: tuple, **fields) -> SkConfig:
    """Sweep cell K at ``rate`` (default: the base config's rate).

    The rate must lie in (0, 1], the range ``--rate`` accepts, so the
    cell's n_total = round(K / rate) is at least K.  Its seed is derived
    from the master seed, the sweep's ``ids`` and K; ``fields`` are the
    other config fields the sweep sets per cell.
    """
    rate = base_cfg.rate if rate is None else rate
    if not isinstance(rate, numbers.Real) or isinstance(rate, bool) or not 0 < rate <= 1:
        raise ValueError(f"rate must be a number in (0, 1], got {rate!r}")
    return replace(
        base_cfg,
        k=k,
        n_total=round(k / rate),
        seed=derive_seed(base_cfg.seed, *ids, int(k)),
        **fields,
    )


def sweep_block_length(
    base_cfg: SkConfig,
    k_range,
    rate: float | None = None,
    trials: int = 100_000,
    stop_at_errors: int | None = None,
) -> list[RunRecord]:
    """One row per K at fixed rate (default: the base config's rate).

    A repeated K is dropped: each keeps its first position.  Every cell
    is built before the first is simulated, so an invalid K fails the
    sweep before any work is done.
    """
    cells = [_cell(base_cfg, k, rate, (_DOMAIN_SWEEP_K,)) for k in dict.fromkeys(k_range)]
    if not cells:
        raise ValueError("k_range must be non-empty")
    return [estimate_ber(cfg, trials, stop_at_errors) for cfg in cells]


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


def sweep_precision_grid(
    base_cfg: SkConfig,
    precisions,
    k_range,
    reference: ReferenceTable,
    trials: int = 100_000,
    rate: float | None = None,
    stop_at_errors: int | None = None,
) -> list[PhaseRecord]:
    """SK-vs-reference rows over (precision, block length), precision-major.

    A repeated width or K is dropped: each keeps its first position.
    Every cell and its reference BER are built before the first cell is
    simulated, so an invalid width or K fails the sweep before any work.
    """
    k_values = list(dict.fromkeys(k_range))
    precisions = list(dict.fromkeys(int(bits) for bits in precisions))
    if not k_values or not precisions:
        raise ValueError("precision and K grids must be non-empty")
    cells = [
        (
            _cell(base_cfg, k, rate, (_DOMAIN_PRECISION, bits), precision=PrecisionMode(bits)),
            reference.lookup(bits, base_cfg.feedback_snr_db),
        )
        for bits in precisions
        for k in k_values
    ]
    rows = []
    for cfg, ref in cells:
        run = estimate_ber(cfg, trials, stop_at_errors)
        rows.append(PhaseRecord(**vars(run), reference_ber=ref, verdict=classify_cell(run, ref)))
    return rows


def sweep_feedback_snr(
    base_cfg: SkConfig,
    snr_list,
    k_candidates,
    trials: int = 100_000,
    rate: float | None = None,
    stop_at_errors: int | None = None,
) -> list[BestKRecord]:
    """One row per candidate K at each feedback SNR, SNR-major, K ascending.

    At each SNR ``is_best`` marks the lowest BER; ties go to the smaller K.
    Repeated SNRs and K candidates are dropped: each SNR keeps its first
    position.  Every cell is built before the first is simulated, so an
    invalid SNR or K fails the sweep before any work is done.
    """
    snrs = list(dict.fromkeys(float(snr) for snr in snr_list))
    candidates = sorted(set(k_candidates))
    if not snrs:
        raise ValueError("snr_list must be non-empty")
    if not candidates:
        raise ValueError("k_candidates must be non-empty")
    grid = [
        [
            _cell(base_cfg, k, rate, (_DOMAIN_BEST_K, _snr_id(snr)), feedback_snr_db=snr)
            for k in candidates
        ]
        for snr in snrs
    ]
    rows = []
    for cells in grid:
        runs = [estimate_ber(cfg, trials, stop_at_errors) for cfg in cells]
        best = min(runs, key=lambda r: r.ber)  # the first minimum has the smallest K
        rows += [BestKRecord(**vars(run), is_best=run is best) for run in runs]
    return rows
