"""Workloads of the skfb benchmark and what each metric is expected to show.

Every workload reproduces a result of the paper and is a fixed list of
``skfb`` CLI calls.  The workload seed is passed to every call as
``--seed``; it changes the random streams but never the cells, their
trial budgets or the amount of work, so runs with different seeds are
comparable.

A call is the unit that is timed (from outside ``skfb.cli.main``) and
repeated; each call's expected row count is part of the output gate.
Sweeps are split into one call per cell where that prints the same rows
as the whole sweep (cell seeds derive from the master seed and the
cell's own coordinates): the work is the same, and short calls can each
be repeated within one run, so every call has a median.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_TABLE = ROOT / "data" / "deepcode_reference_sample.csv"

# The seed whose rows are stored in reference.json (the CLI's own default).
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Call:
    """One timed CLI invocation of a workload."""

    label: str
    argv: tuple[str, ...]
    rows: int  # CSV rows the call must print

    def with_seed(self, seed: int) -> "Call":
        return Call(self.label, self.argv + ("--seed", str(seed)), self.rows)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    calls: tuple[Call, ...]


def _cliff64_calls() -> tuple[Call, ...]:
    # K in {44, 47, 50, 53}: K stops at 53 because the decode is known to
    # be wrong for K >= 54, and the gate would freeze wrong counts.
    return tuple(
        Call(
            f"{variant}.k{k}",
            (
                "sweep-k", "--k-min", str(k), "--k-max", str(k),
                "--variant", variant, "--precision", "64", "--snr-db", "0",
                "--feedback-snr-db", "inf", "--trials", "100000",
            ),
            rows=1,
        )
        for variant in ("estimate-diff", "error-recursion")
        for k in (44, 47, 50, 53)
    )


def _precision_grid_calls() -> tuple[Call, ...]:
    # Cells are timed one by one, and the detail record sums them per width
    # (trial_steps_per_s.w8 ...), so a gain at one width cannot hide a loss
    # at another there.  8-bit K >= 8 and 16-bit K >= 14 fail every trial
    # and stop after their first chunk.
    return tuple(
        Call(
            f"w{bits}.k{k}",
            (
                "sweep-precision", "--k-min", str(k), "--k-max", str(k),
                "--precisions", str(bits), "--reference", str(REFERENCE_TABLE),
                "--stop-at-errors", "10000", "--trials", "100000",
            ),
            rows=1,
        )
        for bits in (8, 16, 32)
        for k in (2, 8, 14, 20, 26)
    )


def _noisy_fb_calls() -> tuple[Call, ...]:
    # One call per feedback SNR prints the same rows as one call over the
    # list (cell seeds and is_best are per SNR), and gives three timed
    # calls of equal work.  327,680 trials = 10 full chunks of 32,768 per
    # cell, so engine imbalance stays small.
    return tuple(
        Call(
            f"fb{snr}",
            (
                "sweep-feedback", "--feedback-snr-list", str(snr), "--k-min", "1",
                "--k-max", "8", "--precision", "64", "--snr-db", "0",
                "--trials", "327680",
            ),
            rows=8,
        )
        for snr in (23, 33, 40)
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cliff64",
            "Paper headline 64-bit cliff, K 44-53, both variants: long blocks draw one "
            "noise stream, quantize is the identity (precision bypass), noiseless "
            "feedback, 4 chunks per cell",
            _cliff64_calls(),
        ),
        Workload(
            "precision_grid",
            "8/16/32-bit grid, K 2-26, early stop, noiseless feedback, timed per "
            "cell: quantize dominates, failing cells mix with healthy ones, stopped "
            "cells discard a chunk",
            _precision_grid_calls(),
        ),
        Workload(
            "noisy_fb",
            "Paper noisy-feedback optimum at 23/33/40 dB, K 1-8: both noise streams "
            "drawn, transmitter copy differs from the receiver's, short blocks raise "
            "per-trial core and codec work, 10 chunks per cell",
            _noisy_fb_calls(),
        ),
    )
}


def cell_list(workload: str, seed: int) -> list[Call]:
    """The calls of ``workload`` for ``seed``, in run order."""
    return [call.with_seed(seed) for call in WORKLOADS[workload].calls]


# End-to-end metrics, measured with tracing off.  A throughput is the
# sum of reported trial-steps over the sum of each call's median time over
# its repetitions in the run.  The detail line adds the same per group of
# calls (label before the dot), e.g. trial_steps_per_s.w8 on precision_grid.
E2E_METRICS = {
    "trial_steps_per_s": ("1/s", "sum of reported trials x n_total over all rows, "
                          "over wall time, at nproc workers; discarded chunks "
                          "do not count"),
    "trial_steps_per_s_1w": ("1/s", "the same at 1 worker"),
    "setup_s": ("s", "wall time of a fresh interpreter running "
                "skfb ber --k 1 --trials 1, median of 5"),
    "peak_rss_mb": ("MB", "peak RSS of the fresh benchmark process, which runs "
                    "the workload at nproc workers"),
}

# Per-layer metrics of the traced run: unit, which is better, what it is,
# and the end-to-end metric and workload it is expected to move.
LAYER_METRICS = {
    "channel.noise_ns_per_variate": (
        "ns", "lower", "standard_normals time / variates returned",
        "trial_steps_per_s most on noisy_fb, then cliff64, little on precision_grid"),
    "channel.words_per_variate": (
        "count", "lower", "Philox words requested by standard_normals through "
        "raw_stream / variates used; padding makes it 4/3 at n=3",
        "trial_steps_per_s on noisy_fb"),
    "channel.transmit_ns_per_elem": (
        "ns", "lower", "self time of AwgnChannel.transmit / elements",
        "trial_steps_per_s_1w on cliff64"),
    "channel.philox_ns_per_word": (
        "ns", "lower", "micro: raw_stream on 2^20 fixed words",
        "trial_steps_per_s on noisy_fb and cliff64"),
    "channel.uniform_ns_per_variate": (
        "ns", "lower", "micro: standard_normals minus raw_stream minus ndtri, "
        "per variate, on fixed inputs",
        "trial_steps_per_s on noisy_fb and cliff64"),
    "channel.ndtri_ns_per_variate": (
        "ns", "lower", "micro: the channel's ndtri on 2^20 fixed uniforms",
        "trial_steps_per_s on noisy_fb and cliff64"),
    "channel.philox_thread_speedup": (
        "ratio", "higher", "micro: raw_stream on 2 threads vs the same words on 1",
        "trial_steps_per_s relative to trial_steps_per_s_1w on noisy_fb and cliff64"),
    "precision.quantize_ns_per_elem": (
        "ns", "lower", "self time of quantize / elements, all widths "
        "(per width in the detail line)",
        "trial_steps_per_s on precision_grid; nothing on cliff64 or noisy_fb"),
    "precision.quantize_calls_per_trial_step": (
        "count", "lower", "elements quantized / simulated trial-steps",
        "trial_steps_per_s on cliff64 and precision_grid, where feedback is "
        "noiseless and the transmitter copy could be aliased; unchanged on noisy_fb"),
    "precision.quantize_share": (
        "ratio", "lower", "quantize self time / busy lane time",
        "trial_steps_per_s on precision_grid"),
    "precision.quantize_micro_ns.w8": (
        "ns", "lower", "micro: quantize at 8 bits, 10^6 fixed values plus edge cases",
        "trial_steps_per_s on precision_grid (8-bit cells)"),
    "precision.quantize_micro_ns.w16": (
        "ns", "lower", "micro: quantize at 16 bits, same inputs",
        "trial_steps_per_s on precision_grid (16-bit cells)"),
    "precision.quantize_micro_ns.w32": (
        "ns", "lower", "micro: quantize at 32 bits, same inputs",
        "trial_steps_per_s on precision_grid (32-bit cells)"),
    "precision.quantize_micro_ns.w64": (
        "ns", "lower", "micro: quantize at 64 bits (identity), same inputs",
        "trial_steps_per_s on cliff64 and noisy_fb, slightly"),
    "codec.step_self_ns_per_trial_step": (
        "ns", "lower", "sk_step self time (minus quantize and transmit) / "
        "trial-steps stepped",
        "trial_steps_per_s_1w on cliff64"),
    "codec.decode_ns_per_trial": (
        "ns", "lower", "decode_indices time / trials decoded",
        "trial_steps_per_s on noisy_fb"),
    "codec.failed_trial_share": (
        "count", "lower", "failed trials / trials decoded; high on precision_grid, "
        "0 elsewhere", "trial_steps_per_s on precision_grid if failed trials are skipped"),
    "core.label_ns_per_trial": (
        "ns", "lower", "index_of_label + index_to_value + label_of_index + "
        "popcount_u64 time / simulated trials",
        "trial_steps_per_s on noisy_fb; negligible on cliff64"),
    "engine.parallel_speedup": (
        "ratio", "higher", "untraced trial_steps_per_s / trial_steps_per_s_1w",
        "trial_steps_per_s on every workload"),
    "engine.busy_frac": (
        "ratio", "higher", "busy lane time (union of chunk spans per thread) / "
        "(wall x workers)", "trial_steps_per_s on cliff64 and precision_grid"),
    "engine.useful_chunk_ratio": (
        "ratio", "higher", "chunks merged / chunks simulated (message_indices calls)",
        "trial_steps_per_s on precision_grid and cliff64; 1 on noisy_fb"),
    "trace.overhead": (
        "ratio", "lower", "traced wall / untraced wall - 1, at nproc workers",
        "none: the cost of tracing itself"),
    "trace.accounting_residual": (
        "ratio", "lower", "|layer self times + engine idle - wall x workers| / "
        "(wall x workers); the check passes below ACCOUNTING_TOLERANCE",
        "none: a consistency check of the trace"),
}
