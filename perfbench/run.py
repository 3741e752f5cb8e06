"""Benchmark of the skfb simulator, driving its CLI in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository: the benchmark imports ``skfb``
from ``src/`` next to this directory and exits with code 2, printing no
result, if it is not there.  Each workload (see workloads.py) is a list
of ``skfb.cli.main(argv)`` calls with ``--seed N``; every call is timed
from outside, and the worker count is set through ``SKFB_THREADS``.

``--trace 0`` runs each call at nproc workers and at 1 worker, in
alternating order, repeating while the ``--seconds`` budget lasts, and
reports the end-to-end metrics.  ``--trace 1`` runs each call untraced at
both worker counts and traced at nproc, then the micro-timings, and
reports the per-layer metrics.  Both gate every output row (gate.py).

The last stdout line is the result, {"correct", "attempted", "failed",
"metrics"}; ``failed / attempted`` is the op_fail_ratio over output rows.
The line before it is the detail record: environment, per-call times,
gate problems and missing trace targets.  Detail and spans are also
written under .perfbench_out/ in the checkout.

``--write-reference`` regenerates reference.json: every workload's rows
at DEFAULT_SEED, 1 worker.  Do that only with a declared numerics change.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import gate
import micro
import tracing
import workloads

ROOT = workloads.ROOT
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5
SETUP_CALL = workloads.Call("setup", ("ber", "--k", "1", "--trials", "1"), rows=1)
WARMUP_ARGV = ["sweep-k", "--k-min", "2", "--k-max", "3", "--trials", "40000"]


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def import_skfb():
    """Import skfb from this checkout's src/, never from elsewhere."""
    package = SRC / "skfb"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no skfb package at {package}")
    sys.path.insert(0, str(SRC))
    import skfb
    import skfb.cli

    if Path(skfb.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported skfb from {skfb.__file__}, not {package}")
    return skfb


@dataclass
class CallRun:
    label: str
    workers: int
    traced: bool
    rc: int
    seconds: float
    rows: list = field(repr=False)


def run_call(cli_main, argv, label: str, workers: int, traced: bool = False) -> tuple[CallRun, int, int]:
    """One timed call; returns the run and its perf_counter_ns window."""
    os.environ["SKFB_THREADS"] = str(workers)
    out = io.StringIO()
    t0 = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli_main(list(argv))
    except SystemExit as exc:  # argparse refuses the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    t1 = time.perf_counter_ns()
    rows = gate.parse_rows(out.getvalue()) if rc == 0 else []
    return CallRun(label, workers, traced, rc, (t1 - t0) / 1e9, rows), t0, t1


def measure(calls, modes, seconds: float, run_one) -> list[CallRun]:
    """Run every call in every mode, repeating while the budget lasts.

    ``modes`` are (workers, traced) pairs run back to back per call, in
    reversed order on odd repetitions.  The first repetition always runs
    in full; later ones stop before a call that would end past the budget.
    """
    deadline = time.monotonic() + seconds
    runs, last = [], {}
    rep = 0
    while True:
        for call in calls:
            predicted = sum(last.get((call.label, m), 0.0) for m in modes)
            if rep and time.monotonic() + predicted > deadline:
                return runs
            for mode in modes if rep % 2 == 0 else modes[::-1]:
                run = run_one(call, mode)
                runs.append(run)
                last[(call.label, mode)] = run.seconds
        rep += 1


def call_medians(runs, workers: int, traced: bool = False) -> dict[str, tuple[int, float]]:
    """Call label -> (reported trial-steps, median seconds over its repetitions)."""
    times, steps = {}, {}
    for r in runs:
        if r.workers == workers and r.traced == traced and r.rc == 0:
            times.setdefault(r.label, []).append(r.seconds)
            steps.setdefault(r.label, gate.trial_steps(r.rows))
    return {label: (steps[label], statistics.median(ts)) for label, ts in times.items()}


def rate(cells: dict[str, tuple[int, float]]) -> float | None:
    """Trial-steps per second of a set of calls: summed work over summed medians."""
    seconds = sum(t for _, t in cells.values())
    return sum(n for n, _ in cells.values()) / seconds if seconds else None


def setup_probes(n: int = SETUP_PROBES) -> list[CallRun]:
    """Time fresh interpreters running ``skfb ber --k 1 --trials 1``."""
    code = "import sys; from skfb.cli import main; sys.exit(main(sys.argv[1:]))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("SKFB_THREADS", None)
    runs = []
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code, *SETUP_CALL.argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        seconds = time.perf_counter() - t0
        rows = gate.parse_rows(proc.stdout) if proc.returncode == 0 else []
        runs.append(CallRun(SETUP_CALL.label, 1, False, proc.returncode, seconds, rows))
    return runs


def _read_sys(path: Path) -> str:
    try:
        return path.read_text(encoding="ascii").strip()
    except OSError:
        return "unknown"


def environment(skfb) -> dict:
    """What the noise and the timings depend on besides the code."""
    import numpy
    import scipy

    caches = {}
    # hardware description only; nothing else outside the checkout is read
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read_sys(index / "type") in ("Data", "Unified"):
            caches[f"L{_read_sys(index / 'level')}"] = _read_sys(index / "size")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "skfb_tool_version": skfb.__version__,
        "machine": platform.machine(),
        "caches": caches or "unknown",
    }


def write_spans(path: Path, traced) -> None:
    """Spans of the traced calls: [name index, start ns, end ns, parent]."""
    names = {}
    calls = []
    for call in traced:
        threads = [
            [[names.setdefault(s[0], len(names)), s[1], s[2], s[3]] for s in spans]
            for spans in call.threads
        ]
        calls.append({"start_ns": call.start_ns, "end_ns": call.end_ns,
                      "workers": call.workers, "threads": threads})
    path.write_text(json.dumps({"names": list(names), "calls": calls}), encoding="utf-8")


def bench(args) -> tuple[dict, dict]:
    """Run one workload; returns (result, detail)."""
    wl = workloads.WORKLOADS[args.workload]
    calls = workloads.cell_list(args.workload, args.seed)
    nproc = os.cpu_count() or 1
    expected = {c.label: c.rows for c in calls}
    expected[SETUP_CALL.label] = SETUP_CALL.rows

    skfb = import_skfb()
    detail = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": environment(skfb)}
    probes = setup_probes() if not args.trace else []
    cli_main = skfb.cli.main
    run_call(cli_main, WARMUP_ARGV, "warmup", nproc)  # imports, caches, first pool

    traced_calls = []
    tracer = tracing.Tracer()

    def run_one(call, mode):
        workers, traced = mode
        if not traced:
            return run_call(cli_main, call.argv, call.label, workers)[0]
        with tracer:
            run, t0, t1 = run_call(cli_main, call.argv, call.label, workers, traced=True)
        reported = {int(r["seed"]): int(r["trials"]) for r in run.rows}
        traced_calls.append(tracing.TracedCall(t0, t1, workers, tracer.take(), reported))
        return run

    modes = [(nproc, False), (1, False)] + ([(nproc, True)] if args.trace else [])
    runs = measure(calls, modes, args.seconds, run_one)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    by_mode = {f"{nproc}w": call_medians(runs, nproc), "1w": call_medians(runs, 1)}
    fast, slow = rate(by_mode[f"{nproc}w"]), rate(by_mode["1w"])
    detail["calls"] = {
        c.label: {
            "argv": " ".join(c.argv),
            "seconds": [[r.workers, int(r.traced), r.seconds] for r in runs if r.label == c.label],
            **{f"median_s_{m}": cells[c.label][1] for m, cells in by_mode.items() if c.label in cells},
        }
        for c in calls
    }
    for mode, cells in by_mode.items():
        groups = sorted({label.split(".")[0] for label in cells})
        detail[f"trial_steps_per_s_{mode}"] = {
            f"trial_steps_per_s.{g}": rate({l: v for l, v in cells.items() if l.split(".")[0] == g})
            for g in groups
        }

    if not args.trace:
        setup = [r.seconds for r in probes if r.rc == 0]
        metrics = {
            "trial_steps_per_s": (fast, "1/s"),
            "trial_steps_per_s_1w": (slow, "1/s"),
            "setup_s": (statistics.median(setup) if setup else None, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        detail["setup_s_samples"] = setup
    else:
        summary = tracing.summarize(traced_calls)
        values, missing = tracing.layer_metrics(summary, tracer.missing)
        detail["quantize_per_width"] = tracing.per_width(summary)
        detail["accounting"] = {
            "ok": summary.accounting_ok,
            "tolerance": tracing.ACCOUNTING_TOLERANCE,
            "residual": summary.accounting_residual,
            "negative_self_spans": summary.negative_self,
            "capacity_s": summary.capacity_ns / 1e9,
            "self_s": summary.self_ns / 1e9,
            "idle_s": summary.idle_ns / 1e9,
        }
        traced = call_medians(runs, nproc, traced=True)
        untraced = rate({label: by_mode[f"{nproc}w"][label] for label in traced})
        values["engine.parallel_speedup"] = fast / slow if fast and slow else None
        values["trace.overhead"] = untraced / rate(traced) - 1.0 if traced else None
        try:
            micro_values, detail["micro"] = micro.run_micro(skfb.channel, skfb.precision)
            values.update(micro_values)
        except AttributeError as exc:
            missing.update((name, f"missing micro target: {exc}") for name in micro.METRICS)
        if not summary.accounting_ok:
            print(f"perfbench: trace accounting check failed: {detail['accounting']}",
                  file=sys.stderr)
        detail["span_self_s"] = {k: v.self_ns / 1e9 for k, v in sorted(summary.by_span.items())}
        detail["probe_errors"] = tracer.probe_errors
        detail["missing"] = missing
        metrics = {
            name: (values.get(name), workloads.LAYER_METRICS[name][0])
            for name in workloads.LAYER_METRICS
        }
        OUT_DIR.mkdir(exist_ok=True)
        write_spans(OUT_DIR / f"{wl.name}-seed{args.seed}-spans.json", traced_calls)

    reference = gate.load_reference(wl.name, args.seed)
    result_gate = gate.check_runs(probes + runs, expected, reference)
    detail["gate"] = {
        "op_fail_ratio": result_gate.ratio,
        "attempted": result_gate.attempted,
        "failed": result_gate.failed,
        "reference_checked": reference is not None,
        "problems": result_gate.problems[:50],
    }
    result = {
        "correct": result_gate.failed == 0,
        "attempted": result_gate.attempted,
        "failed": result_gate.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
            if value is not None
        },
    }
    return result, detail


def write_reference() -> None:
    """Store every workload's rows at DEFAULT_SEED, 1 worker."""
    skfb = import_skfb()
    out = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    setup = setup_probes(1)[0]
    for name in workloads.WORKLOADS:
        calls = workloads.cell_list(name, workloads.DEFAULT_SEED) + [SETUP_CALL]
        table = {}
        for call in calls:
            run = setup if call is SETUP_CALL else run_call(skfb.cli.main, call.argv, call.label, 1)[0]
            if run.rc != 0 or len(run.rows) != call.rows:
                raise BenchError(f"{name}/{call.label}: exit code {run.rc}, {len(run.rows)} rows")
            table[call.label] = [dict(gate.stable_row(r)) for r in run.rows]
        out["workloads"][name] = table
    gate.REFERENCE_FILE.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args(argv)
    try:
        if args.write_reference:
            write_reference()
            return 0
        if args.workload is None:
            p.error("--workload is required")
        result, detail = bench(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    text = json.dumps(detail)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(text, encoding="utf-8")
    for problem in detail["gate"]["problems"]:
        print(f"gate: {problem}", file=sys.stderr)
    print(text)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
