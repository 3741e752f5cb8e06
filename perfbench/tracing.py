"""Spans around skfb's layer functions, installed from outside.

Each target is a public function (plus the engine's chunk runner, which
is the unit the thread pool schedules) rebound by module attribute, so
the program itself is unchanged.  A wrapper records (name, start, end,
parent, counts) in a per-thread list in memory; the lists are written
out when the run ends.  A target that no longer exists is reported as
missing, by the name the benchmark wanted, and the run goes on.

Self time is a span's duration minus the time its children cover.  The
accounting check: the self times of all spans plus the engine's idle
lane time (workers not inside a chunk) must equal wall x workers within
ACCOUNTING_TOLERANCE.  It fails if spans nest inconsistently, leave the
timed call, or more threads are busy than there are workers.
"""

from __future__ import annotations

import importlib
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

ACCOUNTING_TOLERANCE = 0.01  # share of wall x workers

CHUNK = "engine.chunk"
MESSAGES = "channel.message_indices"
RAW = "channel.raw_stream"
NOISE = "channel.standard_normals"
TRANSMIT = "channel.transmit"
QUANTIZE = "precision.quantize"
STEP = "codec.sk_step"
DECODE = "codec.decode_indices"
CORE = ("core.index_of_label", "core.index_to_value", "core.label_of_index",
        "core.popcount_u64")


def _elems(args, result):
    return {"elems": int(np.size(args[0]))}


@dataclass(frozen=True)
class Target:
    span: str
    module: str
    attr: str  # may be dotted, e.g. "AwgnChannel.transmit"
    probe: Callable | None = None  # (args, result) -> counts

    @property
    def wanted(self) -> str:
        return f"{self.module}.{self.attr}"


# Keys starting with "_" in a probe's counts are labels, not summed;
# "_tag" splits a span's totals by a sub-name such as the width.
TARGETS = (
    Target(CHUNK, "skfb.engine", "_run_chunk",
           lambda a, r: {"trials": a[2] - a[1], "trial_steps": (a[2] - a[1]) * a[0].n_total}),
    Target(MESSAGES, "skfb.channel", "message_indices",
           lambda a, r: {"trials": a[2] - a[1], "_seed": int(a[0]), "_hi": int(a[2])}),
    Target(RAW, "skfb.channel", "raw_stream", lambda a, r: {"words": int(a[3])}),
    Target("channel.make_channels", "skfb.channel", "make_channels"),
    Target(NOISE, "skfb.channel", "standard_normals", lambda a, r: {"variates": int(r.size)}),
    Target(TRANSMIT, "skfb.channel", "AwgnChannel.transmit",
           lambda a, r: {"elems": int(np.size(a[1]))}),
    # codec imported quantize by name, so both bindings are wrapped
    *(
        Target(QUANTIZE, module, "quantize",
               lambda a, r: {"elems": int(np.size(a[0])), "_tag": f"w{a[1].width}"})
        for module in ("skfb.precision", "skfb.codec")
    ),
    Target("codec.sk_init", "skfb.codec", "sk_init"),
    Target(STEP, "skfb.codec", "sk_step", lambda a, r: {"elems": int(a[0].theta.size)}),
    Target(DECODE, "skfb.codec", "decode_indices",
           lambda a, r: {"trials": int(r[0].size), "failed": int(np.count_nonzero(r[1]))}),
    # the engine's own bindings of the core helpers are the ones it calls
    *(Target(name, "skfb.engine", name.split(".")[1], _elems) for name in CORE),
)


def _resolve(module: str, attr: str):
    """(owner, attribute name, current value), or None if missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, last, None)
    return None if value is None else (owner, last, value)


class Tracer:
    """Installs span wrappers on entry and restores the originals on exit."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.missing: dict[str, str] = {}  # span name -> wanted attribute
        self.probe_errors = 0
        self._installed = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[list] = []
        self._generation = 0

    def __enter__(self) -> "Tracer":
        wanted, found_spans = {}, set()
        for t in self.targets:
            found = _resolve(t.module, t.attr)
            if found is None:
                wanted.setdefault(t.span, t.wanted)
                continue
            owner, name, original = found
            self._installed.append((owner, name, original))
            setattr(owner, name, self._wrap(original, t.span, t.probe))
            found_spans.add(t.span)
        # a span with several bindings is missing only if none is left
        self.missing = {s: w for s, w in wanted.items() if s not in found_spans}
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    def take(self) -> list[list[tuple]]:
        """Per-thread span lists recorded since the last call; resets them.

        Call only while no traced function is running.
        """
        with self._lock:
            threads, self._threads = self._threads, []
            self._generation += 1
        return threads

    def _spans_of_thread(self) -> tuple[list, list]:
        local = self._local
        if getattr(local, "generation", None) != self._generation:
            local.generation = self._generation
            local.spans, local.stack = [], []
            with self._lock:
                self._threads.append(local.spans)
        return local.spans, local.stack

    def _wrap(self, fn, span: str, probe):
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            spans, stack = self._spans_of_thread()
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (span, t0, t1, parent, None)
            if probe is not None:
                try:
                    counts = probe(args, result)
                except Exception:  # noqa: BLE001 - a changed signature loses counts, not the run
                    with self._lock:
                        self.probe_errors += 1
                else:
                    spans[idx] = (span, t0, t1, parent, counts)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


@dataclass
class TracedCall:
    """The spans of one traced CLI call and its wall-clock window."""

    start_ns: int
    end_ns: int
    workers: int
    threads: list[list[tuple]]
    reported_trials: dict[int, int]  # cell seed -> trials in its row


@dataclass
class Totals:
    calls: int = 0
    dur_ns: int = 0
    self_ns: int = 0
    counts: dict = field(default_factory=dict)


@dataclass
class Summary:
    """Totals over a set of traced calls."""

    by_span: dict[str, Totals] = field(default_factory=dict)
    capacity_ns: int = 0  # wall x workers
    self_ns: int = 0  # all spans
    idle_ns: int = 0  # lane time with no chunk running
    chunks_simulated: int = 0
    chunks_merged: int = 0
    negative_self: int = 0

    def get(self, key: str) -> Totals:
        return self.by_span.get(key, Totals())

    @property
    def accounting_residual(self) -> float:
        return abs(self.self_ns + self.idle_ns - self.capacity_ns) / self.capacity_ns

    @property
    def accounting_ok(self) -> bool:
        return self.negative_self == 0 and self.accounting_residual <= ACCOUNTING_TOLERANCE


def _idle_ns(top_level: list[tuple[int, int]], start: int, end: int, workers: int) -> int:
    """Integral of max(0, workers - busy threads) over [start, end]."""
    events = sorted(
        [(max(start, t0), 1) for t0, _ in top_level] + [(min(end, t1), -1) for _, t1 in top_level]
    )
    idle, busy, last = 0, 0, start
    for t, delta in events:
        idle += max(0, workers - busy) * (t - last)
        busy += delta
        last = t
    return idle + max(0, workers - busy) * (end - last)


def summarize(calls: list[TracedCall]) -> Summary:
    out = Summary()

    def add(key, dur, self_ns, counts):
        tot = out.by_span.setdefault(key, Totals())
        tot.calls += 1
        tot.dur_ns += dur
        tot.self_ns += self_ns
        for k, v in counts.items():
            if not k.startswith("_"):
                tot.counts[k] = tot.counts.get(k, 0) + v

    for call in calls:
        out.capacity_ns += (call.end_ns - call.start_ns) * call.workers
        top_level = []
        for spans in call.threads:
            covered = [0] * len(spans)
            for name, t0, t1, parent, _ in spans:
                if parent >= 0:
                    covered[parent] += t1 - t0
                else:
                    top_level.append((t0, t1))
            for i, (name, t0, t1, parent, counts) in enumerate(spans):
                dur = t1 - t0
                self_ns = dur - covered[i]
                out.negative_self += self_ns < 0
                out.self_ns += self_ns
                counts = counts or {}
                add(name, dur, self_ns, counts)
                if "_tag" in counts:
                    add(f"{name}.{counts['_tag']}", dur, self_ns, counts)
                if parent >= 0:
                    add(f"{name}<{spans[parent][0]}", dur, self_ns, counts)
                if name == MESSAGES:
                    out.chunks_simulated += 1
                    if "_hi" in counts:
                        out.chunks_merged += (
                            counts["_hi"] <= call.reported_trials.get(counts["_seed"], -1)
                        )
        out.idle_ns += _idle_ns(top_level, call.start_ns, call.end_ns, call.workers)
    return out


def _ratio(num: float, den: float):
    return num / den if den else None


# metric -> (spans it needs, function of the Summary); a function that
# returns None had nothing to divide by.
LAYER_FORMULAS = {
    "channel.noise_ns_per_variate": (
        (NOISE,), lambda s: _ratio(s.get(NOISE).dur_ns, s.get(NOISE).counts.get("variates", 0))),
    "channel.words_per_variate": (
        (RAW, NOISE), lambda s: _ratio(s.get(f"{RAW}<{NOISE}").counts.get("words", 0),
                                       s.get(NOISE).counts.get("variates", 0))),
    "channel.transmit_ns_per_elem": (
        (TRANSMIT,), lambda s: _ratio(s.get(TRANSMIT).self_ns, s.get(TRANSMIT).counts.get("elems", 0))),
    "precision.quantize_ns_per_elem": (
        (QUANTIZE,), lambda s: _ratio(s.get(QUANTIZE).self_ns, s.get(QUANTIZE).counts.get("elems", 0))),
    "precision.quantize_calls_per_trial_step": (
        (QUANTIZE, CHUNK), lambda s: _ratio(s.get(QUANTIZE).counts.get("elems", 0),
                                            s.get(CHUNK).counts.get("trial_steps", 0))),
    "precision.quantize_share": (
        (QUANTIZE, CHUNK), lambda s: _ratio(s.get(QUANTIZE).self_ns, s.capacity_ns - s.idle_ns)),
    "codec.step_self_ns_per_trial_step": (
        (STEP, QUANTIZE, TRANSMIT), lambda s: _ratio(s.get(STEP).self_ns, s.get(STEP).counts.get("elems", 0))),
    "codec.decode_ns_per_trial": (
        (DECODE,), lambda s: _ratio(s.get(DECODE).dur_ns, s.get(DECODE).counts.get("trials", 0))),
    "codec.failed_trial_share": (
        (DECODE,), lambda s: _ratio(s.get(DECODE).counts.get("failed", 0),
                                    s.get(DECODE).counts.get("trials", 0))),
    "core.label_ns_per_trial": (
        CORE + (CHUNK,), lambda s: _ratio(sum(s.get(n).dur_ns for n in CORE),
                                          s.get(CHUNK).counts.get("trials", 0))),
    "engine.busy_frac": (
        (CHUNK,), lambda s: _ratio(s.capacity_ns - s.idle_ns, s.capacity_ns)),
    "engine.useful_chunk_ratio": (
        (MESSAGES,), lambda s: _ratio(s.chunks_merged, s.chunks_simulated)),
    "trace.accounting_residual": ((CHUNK,), lambda s: s.accounting_residual),
}


def layer_metrics(summary: Summary, missing: dict[str, str]):
    """(metric -> value, metric -> why it is missing)."""
    values, absent = {}, {}
    for metric, (needs, formula) in LAYER_FORMULAS.items():
        gone = [missing[n] for n in needs if n in missing]
        if gone:
            absent[metric] = "missing wrap target " + ", ".join(gone)
            continue
        value = formula(summary)
        if value is None:
            absent[metric] = "no counts recorded by " + ", ".join(needs)
        else:
            values[metric] = value
    return values, absent


def per_width(summary: Summary) -> dict[str, dict[str, float]]:
    """In-run quantize cost per width: calls, elements, ns per element."""
    out = {}
    for key, tot in sorted(summary.by_span.items()):
        if key.startswith(QUANTIZE + ".w"):
            elems = tot.counts.get("elems", 0)
            out[key.rsplit(".", 1)[1]] = {
                "calls": tot.calls,
                "elems": elems,
                "ns_per_elem": _ratio(tot.self_ns, elems),
            }
    return out
