"""Micro-timings of the noise and precision layers on fixed inputs.

Inputs never depend on the workload seed.  Each timing is the median of
REPEATS rounds; the kernels compared with each other run in the same
rounds.  Bytes moved are computed from the array sizes a kernel
reads and writes (temporaries and cache misses are not counted), so they
are labelled as computed.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

REPEATS = 9
WORDS = 1 << 20
NOISE_STEPS = 64  # a multiple of 4, so no Philox word is padding
FIXED_SEED = 20200817
METRICS = (
    "channel.philox_ns_per_word", "channel.uniform_ns_per_variate",
    "channel.ndtri_ns_per_variate", "channel.philox_thread_speedup",
    *(f"precision.quantize_micro_ns.w{w}" for w in (8, 16, 32, 64)),
)


def _interleaved_ns(*fns, repeats: int = REPEATS) -> list[list[int]]:
    """Per function, its times over ``repeats`` rounds that each run every
    function once, so the functions of one round see the same machine state."""
    times = [[] for _ in fns]
    for _ in range(repeats):
        for fn, out in zip(fns, times):
            t0 = time.perf_counter_ns()
            fn()
            out.append(time.perf_counter_ns() - t0)
    return times


def quantize_inputs(n: int = 10**6) -> np.ndarray:
    """n fixed values over 1e-40..1e40 plus the edge cases of the format."""
    rng = np.random.default_rng(FIXED_SEED)
    values = rng.standard_normal(n) * 10.0 ** rng.uniform(-40.0, 40.0, n)
    edges = np.array([
        np.inf, -np.inf, np.nan, 0.0, -0.0,
        5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,  # subnormal, min normal
        1e-8, 6e-8, 1.4e-45,  # below the 16- and 32-bit subnormal grids
        240.0, 248.0, 65504.0, 65520.0, 3.4028235e38, 1e39,  # at and past each overflow
        1.7976931348623157e308, -1.7976931348623157e308,
    ])
    return np.concatenate([values, edges])


def _in_threads(fn, args_per_thread) -> None:
    threads = [threading.Thread(target=fn, args=args) for args in args_per_thread]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def run_micro(channel, precision) -> tuple[dict[str, float], dict]:
    """(per-layer metric -> value, detail with computed bytes)."""
    raw_stream, standard_normals, ndtri = channel.raw_stream, channel.standard_normals, channel.ndtri
    raw = raw_stream(FIXED_SEED, 0, 0, WORDS)
    uniforms = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    trials = WORDS // NOISE_STEPS

    raw_t, ndtri_t, normals_t, serial_t, threaded_t = _interleaved_ns(
        lambda: raw_stream(FIXED_SEED, 0, 0, WORDS),
        lambda: ndtri(uniforms),
        lambda: standard_normals(FIXED_SEED, 0, 0, trials, NOISE_STEPS),
        lambda: [raw_stream(FIXED_SEED, 0, lo, WORDS) for lo in (0, WORDS)],
        lambda: _in_threads(raw_stream, [(FIXED_SEED, 0, lo, WORDS) for lo in (0, WORDS)]),
    )
    philox = statistics.median(raw_t) / WORDS
    ndtri_ns = statistics.median(ndtri_t) / WORDS
    normals = statistics.median(normals_t) / WORDS
    metrics = {
        "channel.philox_ns_per_word": philox,
        # the conversion is inside standard_normals, so it is what is left
        # of it after Philox and ndtri, taken round by round
        "channel.uniform_ns_per_variate": statistics.median(
            n - r - d for n, r, d in zip(normals_t, raw_t, ndtri_t)
        ) / WORDS,
        "channel.ndtri_ns_per_variate": ndtri_ns,
        "channel.philox_thread_speedup": statistics.median(
            s / t for s, t in zip(serial_t, threaded_t)
        ),
    }
    # computed bytes per element: what the kernel reads plus what it writes
    detail = {
        "philox": {"ns_per_elem": philox, "computed_bytes_per_elem": 8},
        "uniform": {"ns_per_elem": metrics["channel.uniform_ns_per_variate"],
                    "computed_bytes_per_elem": 16},
        "ndtri": {"ns_per_elem": ndtri_ns, "computed_bytes_per_elem": 16},
        "standard_normals": {"ns_per_elem": normals, "computed_bytes_per_elem": 8},
    }
    x = quantize_inputs()
    widths = (8, 16, 32, 64)
    modes = [precision.PrecisionMode(w) for w in widths]
    per_width = _interleaved_ns(*(lambda m=m: precision.quantize(x, m) for m in modes))
    for width, times in zip(widths, per_width):
        ns = statistics.median(times) / x.size
        metrics[f"precision.quantize_micro_ns.w{width}"] = ns
        # 64 bits is the identity: the input array comes back, nothing moves
        detail[f"quantize.w{width}"] = {"ns_per_elem": ns,
                                        "computed_bytes_per_elem": 0 if width == 64 else 16}
    for d in detail.values():
        d["computed_GB_per_s"] = d["computed_bytes_per_elem"] / d["ns_per_elem"]
    detail["elements"] = {"words": WORDS, "quantize_values": int(x.size)}
    return metrics, detail
