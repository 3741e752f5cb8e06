"""Tests of the benchmark's own code.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys

import pytest

import gate
import micro
import run
import tracing
import workloads

TINY_SWEEP = ("sweep-k", "--k-min", "2", "--k-max", "3", "--trials", "70000", "--seed", "5")


class FakeRun:
    def __init__(self, label, workers, rows, rc=0):
        self.label, self.workers, self.rows, self.rc = label, workers, rows, rc


def _reference_runs(workload):
    """1-worker and 2-worker runs whose rows equal the stored reference."""
    reference = gate.load_reference(workload, workloads.DEFAULT_SEED)
    assert reference is not None
    runs = []
    for workers in (1, 2):
        for label, rows in reference.items():
            runs.append(FakeRun(label, workers, [dict(r, wall_time_seconds="0.1") for r in rows]))
    expected = {label: len(rows) for label, rows in reference.items()}
    return runs, expected, reference


def test_reference_rows_pass_the_gate():
    runs, expected, reference = _reference_runs("noisy_fb")
    result = gate.check_runs(runs, expected, reference)
    assert result.failed == 0 and result.attempted == 2 * sum(expected.values())


def test_perturbed_reference_count_makes_op_fail_ratio_nonzero():
    runs, expected, reference = _reference_runs("precision_grid")
    label = next(iter(reference))
    row = dict(reference[label][0])
    row["bit_errors"] = str(int(row["bit_errors"]) + 1)
    reference[label] = [tuple(row.items())] + reference[label][1:]
    result = gate.check_runs(runs, expected, reference)
    assert result.failed == 2  # that row, at both worker counts
    assert result.ratio > 0


def test_gate_checks_worker_agreement_and_invariants_without_reference():
    runs, expected, _ = _reference_runs("noisy_fb")
    nproc_run = next(r for r in runs if r.workers == 2)
    nproc_run.rows[0] = dict(nproc_run.rows[0], failed_trials="-1")
    result = gate.check_runs(runs, expected, None)
    assert result.failed == 1
    assert "differs from the 1-worker row" in result.problems[0]
    assert "failed_trials=-1" in result.problems[0]


def test_missing_rows_and_failed_calls_count_as_failed():
    runs, expected, reference = _reference_runs("noisy_fb")
    short, crashed = [r for r in runs if r.workers == 2][:2]
    short.rows = short.rows[:-1]
    crashed.rc = 1
    result = gate.check_runs(runs, expected, reference)
    assert result.failed == expected[short.label] + expected[crashed.label]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_cell_list(name):
    assert workloads.cell_list(name, 7) == workloads.cell_list(name, 7)
    for a, b in zip(workloads.cell_list(name, 7), workloads.cell_list(name, 8)):
        assert a.argv[-2:] == ("--seed", "7") and b.argv[-2:] == ("--seed", "8")
        assert a.argv[:-2] == b.argv[:-2] and a.label == b.label


@pytest.fixture
def skfb(monkeypatch):
    monkeypatch.setenv("SKFB_THREADS", "2")  # restored after run_call sets it
    return run.import_skfb()


def test_trace_accounting_passes_on_a_tiny_workload(skfb):
    plain, _, _ = run.run_call(skfb.cli.main, TINY_SWEEP, "tiny", 2)
    with tracing.Tracer() as tracer:
        traced, t0, t1 = run.run_call(skfb.cli.main, TINY_SWEEP, "tiny", 2, traced=True)
    call = tracing.TracedCall(t0, t1, 2, tracer.take(),
                              {int(r["seed"]): int(r["trials"]) for r in traced.rows})
    summary = tracing.summarize([call])
    values, missing = tracing.layer_metrics(summary, tracer.missing)

    assert tracer.missing == {} and missing == {} and tracer.probe_errors == 0
    assert summary.accounting_ok, summary.accounting_residual
    assert 0 < values["engine.busy_frac"] <= 1
    assert values["engine.useful_chunk_ratio"] == 1.0  # 3 chunks per cell, no early stop
    assert values["precision.quantize_calls_per_trial_step"] > 0
    assert [gate.stable_row(r) for r in traced.rows] == [gate.stable_row(r) for r in plain.rows]
    # wrappers are gone again
    assert not hasattr(skfb.channel.raw_stream, "__wrapped__")


def test_missing_wrap_target_is_named_and_the_call_still_runs(skfb):
    targets = tuple(t for t in tracing.TARGETS if t.span != tracing.TRANSMIT) + (
        tracing.Target(tracing.TRANSMIT, "skfb.channel", "AwgnChannel.no_such_method"),
    )
    with tracing.Tracer(targets) as tracer:
        result, t0, t1 = run.run_call(skfb.cli.main, TINY_SWEEP, "tiny", 2, traced=True)
    assert result.rc == 0
    summary = tracing.summarize([tracing.TracedCall(t0, t1, 2, tracer.take(), {})])
    values, missing = tracing.layer_metrics(summary, tracer.missing)
    wanted = "skfb.channel.AwgnChannel.no_such_method"
    assert wanted in missing["channel.transmit_ns_per_elem"]
    assert wanted in missing["codec.step_self_ns_per_trial_step"]
    assert "channel.noise_ns_per_variate" in values


def test_idle_counts_lanes_without_a_chunk():
    # two workers over [0, 10): one busy [0, 10), the other [2, 5)
    assert tracing._idle_ns([(0, 10), (2, 5)], 0, 10, 2) == 7
    # three threads busy at once on two workers: the excess is not idle
    assert tracing._idle_ns([(0, 10), (0, 10), (0, 10)], 0, 10, 2) == 0


def test_benchmark_json_matches_the_workload_and_metric_tables():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (unit, _) in workloads.E2E_METRICS.items()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _, _) in workloads.LAYER_METRICS.items()
    }
    assert set(workloads.LAYER_METRICS) == set(tracing.LAYER_FORMULAS) | set(micro.METRICS) | {
        "engine.parallel_speedup", "trace.overhead",
    }


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "noisy_fb", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
