"""Output gate: every CSV row the benchmark makes is checked.

A row fails if any of these holds:

* it is missing (its call printed fewer or more rows than expected);
* its CLI call exited with a nonzero code;
* it differs from the stored reference in any column other than
  ``wall_time_seconds`` (only at the seed the reference was made for);
* it differs from the same call's first 1-worker row (so the ``nproc``
  rows, and every repetition, must equal the 1-worker rows);
* it breaks 0 <= bit_errors <= trials*K or 0 <= failed_trials <= trials.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

VOLATILE_COLUMNS = ("wall_time_seconds",)
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


def parse_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def stable_row(row: dict[str, str]) -> tuple[tuple[str, str], ...]:
    """The row's columns that must repeat exactly, in CSV order."""
    return tuple((k, v) for k, v in row.items() if k not in VOLATILE_COLUMNS)


def invariant_errors(row: dict[str, str]) -> list[str]:
    try:
        trials = int(row["trials"])
        k = int(row["k"])
        bit_errors = int(row["bit_errors"])
        failed = int(row["failed_trials"])
    except (KeyError, ValueError) as exc:
        return [f"unreadable counts ({exc})"]
    errors = []
    if trials < 1:
        errors.append(f"trials={trials} < 1")
    if not 0 <= bit_errors <= trials * k:
        errors.append(f"bit_errors={bit_errors} outside [0, trials*K={trials * k}]")
    if not 0 <= failed <= trials:
        errors.append(f"failed_trials={failed} outside [0, trials={trials}]")
    return errors


def trial_steps(rows: list[dict[str, str]]) -> int:
    """Sum of reported trials x n_total: the work a user got back."""
    return sum(int(r["trials"]) * int(r["n_total"]) for r in rows)


def load_reference(workload: str, seed: int, path: Path = REFERENCE_FILE):
    """Stored stable rows per call label, or None if this seed has none."""
    if not path.exists():
        return None
    data = json.loads(path.read_text(encoding="utf-8"))
    if data.get("seed") != seed or workload not in data.get("workloads", {}):
        return None
    return {
        label: [tuple(row.items()) for row in rows]
        for label, rows in data["workloads"][workload].items()
    }


@dataclass
class Gate:
    """Rows attempted and failed over every call of a run."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def check_runs(runs, expected: dict[str, int], reference: dict | None) -> Gate:
    """Gate every call run; ``runs`` are in the order they ran.

    Each run has ``label``, ``workers``, ``rc`` and ``rows``.  A call's
    first 1-worker run is the baseline the others must equal.
    """
    gate = Gate()
    baseline = {}
    for run in runs:
        complete = run.rc == 0 and len(run.rows) == expected[run.label]
        if run.workers == 1 and complete and run.label not in baseline:
            baseline[run.label] = [stable_row(r) for r in run.rows]
    for run in runs:
        n = expected[run.label]
        gate.attempted += n
        if run.rc != 0 or len(run.rows) != n:
            gate.failed += n
            gate.problems.append(
                f"{run.label}: exit code {run.rc}, {len(run.rows)} of {n} rows"
            )
            continue
        base = baseline.get(run.label)
        ref = reference.get(run.label, []) if reference is not None else None
        for i, row in enumerate(run.rows):
            srow = stable_row(row)
            why = invariant_errors(row)
            if base is None:
                why.append("no 1-worker run to compare with")
            elif srow != base[i]:
                why.append("differs from the 1-worker row")
            if ref is not None and (i >= len(ref) or srow != ref[i]):
                why.append("differs from the stored reference")
            if why:
                gate.failed += 1
                gate.problems.append(
                    f"{run.label} ({run.workers} workers) row {i}: " + "; ".join(why)
                )
    return gate
