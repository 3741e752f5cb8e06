"""Deterministic parallel Monte Carlo BER estimation and the sweeps.

Trials are embarrassingly parallel: noise and messages for trial ``i``
are pure functions of (config seed, i), so the engine splits work into
fixed-size chunks, maps them over a thread pool, and merges integer
counts.  Results are bit-identical for any worker count; the
``SKFB_THREADS`` environment variable caps the pool size.

Each sweep is the one implementation of its experiment: it returns the
CSV rows the command-line tool prints, one timed row per cell.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import channel as _channel
from . import codec as _codec
from .core import SkConfig, index_of_label, index_to_value, label_of_index, popcount_u64
from .precision import PrecisionMode, q_mul
from .records import BestKRecord, PhaseRecord, ReferenceTable, RunRecord

CHUNK_TRIALS = 1 << 15  # fixed so results never depend on worker layout

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class BerEstimate:
    """Monte Carlo BER with a 95% Wilson interval on the bit proportion."""

    k: int
    trials: int
    bit_errors: int
    failed_trials: int
    ber: float
    ci_low: float
    ci_high: float


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
        workers = int(env)
        if workers < 1:
            raise ValueError(f"SKFB_THREADS must be >= 1, got {workers}")
        return workers
    return os.cpu_count() or 1


def _make_estimate(cfg: SkConfig, trials: int, errors: int, failed: int) -> BerEstimate:
    n_bits = trials * cfg.k
    lo, hi = wilson_interval(errors, n_bits)
    return BerEstimate(
        k=cfg.k,
        trials=trials,
        bit_errors=errors,
        failed_trials=failed,
        ber=errors / n_bits,
        ci_low=lo,
        ci_high=hi,
    )


def _run_chunk(cfg: SkConfig, lo: int, hi: int, power_steps=()) -> dict:
    """Simulate trials [lo, hi); returns integer counts and power sums.

    Steps stop before the schedule's halt, where every trial fails: the
    uses from there on change no count, and send 0 in every trial.
    """
    sched = _codec.schedule(cfg)
    labels = _channel.message_indices(cfg.seed, lo, hi, cfg.k)
    positions = index_of_label(labels, cfg.k, cfg.bit_mapping)
    theta = index_to_value(positions, cfg.k)
    channels = _channel.make_channels(cfg, lo, hi, sched.halt)

    power = {n: (0.0, 0.0) for n in power_steps if n >= sched.halt}
    state = _codec.sk_init(theta, cfg, channels)
    for _ in range(sched.halt - 1):
        state = _codec.sk_step(state, cfg, channels)
        if state.step in power_steps:
            # reconstruct this step's transmitted symbol (failed trials sent 0)
            x = q_mul(float(sched.alpha[state.step]), state.u, cfg.precision)
            x = np.where(state.failed | ~np.isfinite(x), 0.0, x)
            power[state.step] = (float(np.sum(x * x)), float(np.sum(x**4)))
    idx, failed = _codec.decode_indices(state, cfg)
    decoded_labels = label_of_index(idx, cfg.k, cfg.bit_mapping)
    errors = popcount_u64(labels ^ decoded_labels)

    return {
        "trials": hi - lo,
        "bit_errors": int(errors.sum()),
        "failed": int(np.count_nonzero(failed)),
        "power": power,
    }


def _chunk_ranges(trials: int):
    return [(lo, min(lo + CHUNK_TRIALS, trials)) for lo in range(0, trials, CHUNK_TRIALS)]


def _map_chunks(cfg: SkConfig, trials: int, workers, stop_at_errors=None, power_steps=()):
    """Run chunks in submission waves, merging results in chunk order.

    The early-stop decision is taken on the ordered cumulative counts at
    chunk boundaries, so it is independent of completion order.
    """
    if workers is None:
        workers = default_workers()
    ranges = _chunk_ranges(trials)
    totals = {"trials": 0, "bit_errors": 0, "failed": 0}
    power_sums = {n: [0.0, 0.0] for n in power_steps}

    def merge(res) -> bool:
        totals["trials"] += res["trials"]
        totals["bit_errors"] += res["bit_errors"]
        totals["failed"] += res["failed"]
        for n, (s2, s4) in res["power"].items():
            power_sums[n][0] += s2
            power_sums[n][1] += s4
        return stop_at_errors is not None and totals["bit_errors"] >= stop_at_errors

    if workers == 1 or len(ranges) == 1:
        for lo, hi in ranges:
            if merge(_run_chunk(cfg, lo, hi, power_steps)):
                break
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            pos, stop = 0, False
            while pos < len(ranges) and not stop:
                wave = ranges[pos : pos + workers]
                futures = [pool.submit(_run_chunk, cfg, lo, hi, power_steps) for lo, hi in wave]
                for fut in futures:  # in chunk order
                    if stop:
                        fut.result()  # drain; counts beyond the stop are discarded
                        continue
                    stop = merge(fut.result())
                pos += len(wave)
    return totals, power_sums


def estimate_ber(
    cfg: SkConfig,
    trials: int,
    stop_at_errors: int | None = None,
    workers: int | None = None,
) -> BerEstimate:
    """Monte Carlo BER over ``trials`` independent SK trials.

    Per-trial randomness is derived from (cfg.seed, trial index), so the
    estimate is a pure function of (cfg, trials, stop_at_errors).  With
    ``stop_at_errors`` set, simulation ends at the first chunk boundary
    where at least that many bit errors have accumulated; the returned
    ``trials`` reflects what was actually run.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if stop_at_errors is not None and stop_at_errors < 1:
        raise ValueError(f"stop_at_errors must be >= 1, got {stop_at_errors}")
    totals, _ = _map_chunks(cfg, trials, workers, stop_at_errors=stop_at_errors)
    return _make_estimate(cfg, totals["trials"], totals["bit_errors"], totals["failed"])


def ber_record(
    cfg: SkConfig,
    trials: int,
    stop_at_errors: int | None = None,
    workers: int | None = None,
) -> RunRecord:
    """:func:`estimate_ber` of ``cfg`` as one CSV row, with its wall time."""
    t0 = time.perf_counter()
    est = estimate_ber(cfg, trials, stop_at_errors=stop_at_errors, workers=workers)
    return RunRecord(
        variant=cfg.variant.value,
        k=cfg.k,
        n_total=cfg.n_total,
        forward_snr_db=cfg.forward_snr_db,
        feedback_snr_db=cfg.feedback_snr_db,
        precision_bits=cfg.precision.width,
        gamma=cfg.gamma,
        seed=cfg.seed,
        bit_mapping=cfg.bit_mapping.value,
        trials=est.trials,
        stop_at_errors=stop_at_errors,
        bit_errors=est.bit_errors,
        failed_trials=est.failed_trials,
        ber=est.ber,
        ci_low=est.ci_low,
        ci_high=est.ci_high,
        wall_time_seconds=time.perf_counter() - t0,
    )


def measure_symbol_power(
    cfg: SkConfig, trials: int, steps, workers: int | None = None
) -> dict[int, tuple[float, float]]:
    """Empirical (mean, std-error) of X_n^2 at the requested steps."""
    steps = tuple(int(n) for n in steps)
    if any(not 1 <= n < cfg.n_total for n in steps):
        raise ValueError(f"power steps must lie in [1, {cfg.n_total})")
    totals, power = _map_chunks(cfg, trials, workers, power_steps=steps)
    n = totals["trials"]
    out = {}
    for step in steps:
        s2, s4 = power[step]
        mean = s2 / n
        var = max(0.0, s4 / n - mean * mean)
        out[step] = (mean, math.sqrt(var / n))
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


def _n_for_rate(k: int, rate: float) -> int:
    return max(1, round(k / rate))


def cfg_for_sweep_k(base_cfg: SkConfig, k: int, rate: float) -> SkConfig:
    """Cell configuration of the block-length sweep (own derived seed)."""
    return replace(
        base_cfg,
        k=int(k),
        n_total=_n_for_rate(k, rate),
        seed=derive_seed(base_cfg.seed, _DOMAIN_SWEEP_K, int(k)),
    )


def cfg_for_precision_cell(base_cfg: SkConfig, bits: int, k: int, rate: float) -> SkConfig:
    """Cell configuration of the precision-vs-K grid."""
    return replace(
        base_cfg,
        k=int(k),
        n_total=_n_for_rate(k, rate),
        precision=PrecisionMode(int(bits)),
        seed=derive_seed(base_cfg.seed, _DOMAIN_PRECISION, int(bits), int(k)),
    )


def cfg_for_best_k(base_cfg: SkConfig, feedback_snr_db: float, k: int, rate: float) -> SkConfig:
    """Cell configuration of the best-block-length search."""
    return replace(
        base_cfg,
        k=int(k),
        n_total=_n_for_rate(k, rate),
        feedback_snr_db=float(feedback_snr_db),
        seed=derive_seed(base_cfg.seed, _DOMAIN_BEST_K, _snr_id(feedback_snr_db), int(k)),
    )


def sweep_block_length(
    base_cfg: SkConfig,
    k_range,
    rate: float | None = None,
    trials: int = 100_000,
    stop_at_errors: int | None = None,
    workers: int | None = None,
) -> list[RunRecord]:
    """One row per K at fixed rate (default: the base config's rate)."""
    k_values = list(k_range)
    if not k_values:
        raise ValueError("k_range must be non-empty")
    if rate is None:
        rate = base_cfg.rate
    return [
        ber_record(cfg_for_sweep_k(base_cfg, k, rate), trials, stop_at_errors, workers)
        for k in k_values
    ]


SK_WINS = "sk_wins"
REFERENCE_WINS = "reference_wins"
TIE = "tie"
UNAVAILABLE = "unavailable"


def classify_cell(estimate, reference_ber: float | None) -> str:
    """Verdict of a BerEstimate or RunRecord against a reference BER."""
    if reference_ber is None:
        return UNAVAILABLE
    if estimate.ci_high < reference_ber:
        return SK_WINS
    if estimate.ci_low > reference_ber:
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
    workers: int | None = None,
) -> list[PhaseRecord]:
    """SK-vs-reference rows over (precision, block length), precision-major."""
    k_values = list(k_range)
    precisions = list(precisions)
    if not k_values or not precisions:
        raise ValueError("precision and K grids must be non-empty")
    if rate is None:
        rate = base_cfg.rate
    rows = []
    for bits in precisions:
        ref = reference.lookup(int(bits), base_cfg.feedback_snr_db)
        for k in k_values:
            cfg = cfg_for_precision_cell(base_cfg, bits, k, rate)
            run = ber_record(cfg, trials, stop_at_errors, workers)
            verdict = classify_cell(run, ref)
            rows.append(PhaseRecord(**vars(run), reference_ber=ref, verdict=verdict))
    return rows


def best_block_length(
    base_cfg: SkConfig,
    feedback_snr_db: float,
    k_candidates,
    trials: int = 100_000,
    rate: float | None = None,
    stop_at_errors: int | None = None,
    workers: int | None = None,
) -> list[BestKRecord]:
    """One row per candidate K at one feedback SNR, in ascending K.

    ``is_best`` marks the lowest BER; ties go to the smaller K.
    """
    candidates = sorted(set(int(k) for k in k_candidates))
    if not candidates:
        raise ValueError("k_candidates must be non-empty")
    if rate is None:
        rate = base_cfg.rate
    cells = [cfg_for_best_k(base_cfg, feedback_snr_db, k, rate) for k in candidates]
    runs = [ber_record(cfg, trials, stop_at_errors, workers) for cfg in cells]
    best = min(runs, key=lambda r: r.ber)  # the first minimum has the smallest K
    return [BestKRecord(**vars(run), is_best=run is best) for run in runs]


def sweep_feedback_snr(
    base_cfg: SkConfig,
    snr_list,
    k_candidates,
    trials: int = 100_000,
    rate: float | None = None,
    stop_at_errors: int | None = None,
    workers: int | None = None,
) -> list[BestKRecord]:
    """The rows of :func:`best_block_length` at each SNR of ``snr_list``."""
    snrs = list(snr_list)
    if not snrs:
        raise ValueError("snr_list must be non-empty")
    return [
        row
        for snr in snrs
        for row in best_block_length(
            base_cfg, float(snr), k_candidates, trials, rate, stop_at_errors, workers
        )
    ]
