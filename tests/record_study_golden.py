"""Record ``tests/study_golden.json``, the golden pin of the three studies.

For every case (one seeded ``run_scaling_study``, ``run_gap_study`` or
``run_traffic_study`` call) the file keeps the number of records and three
sha256 digests: of the CSV that ``write_records_csv`` writes, of the summary
as ``cli._render`` prints it, and of the in-memory
``(feasible, proven_optimal, assignment)`` of every record, which the CSV
does not carry.  ``tests/test_experiments.py`` reruns every case and compares
the documents, so any change to a study's instances, seeds, rows, row order,
cells or summary keys shows up.

Cases: scaling in exact mode (n <= ``ODDSET_EXACT_CAP``), in bracket mode
(n above it) and with uniform demand; gap at k = 1, 2 with solved,
budget-exhausted and proven-infeasible cells at ``jobs=1``, and with the ifa
scheme (degree cap 2) at ``jobs=2``; traffic with exhausted budgets.

Re-record only when a change is meant to alter a study's output:

    PYTHONPATH=src python tests/record_study_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from chanrec import experiments
from chanrec.cli import _render

GOLDEN_PATH = Path(__file__).with_name("study_golden.json")

# (name, kind, keyword arguments of run_<kind>_study)
CASES = (
    ("scaling_exact", "scaling", dict(
        sizes=[8, 12, 16], channel_counts=[2, 3], k=2, trials=2, seed=101,
    )),
    ("scaling_bracket", "scaling", dict(
        sizes=[24, 48], channel_counts=[2, 4], k=1, trials=2, seed=102,
    )),
    ("scaling_uniform_demand", "scaling", dict(
        sizes=[8, 24], channel_counts=[3], k=2, trials=3, seed=103,
        spec_overrides={"demand_range": (10.0, 10.0)},
    )),
    ("gap", "gap", dict(
        sizes=[6, 8], channel_counts=[2, 3], k_values=[1, 2], trials=3,
        seed=11, budget=10,
    )),
    ("gap_jobs2", "gap", dict(
        sizes=[6, 8], channel_counts=[2, 3], k_values=[1, 2], trials=3,
        seed=11, budget=3, jobs=2,
        spec_overrides={"degree_cap": 2, "capacity_range": (80.0, 80.0)},
    )),
    ("traffic", "traffic", dict(
        sizes=[6, 8], channel_counts=[2, 3], trials=3, seed=11, budget=10,
    )),
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_case(kind: str, kwargs: dict):
    return getattr(experiments, f"run_{kind}_study")(**kwargs)


def digests(records, summary) -> dict:
    fd, path = tempfile.mkstemp(suffix=".csv")
    os.close(fd)
    try:
        experiments.write_records_csv(records, path)
        csv = Path(path).read_text()
    finally:
        os.unlink(path)
    rows = [
        [
            r.feasible,
            r.proven_optimal,
            None if r.assignment is None else list(r.assignment.channel_of),
        ]
        for r in records
    ]
    return {
        "records": len(records),
        "csv": _sha256(csv),
        "summary": _sha256(_render(summary) + "\n"),
        "rows": _sha256(json.dumps(rows)),
    }


def main() -> None:
    lines = []
    for name, kind, kwargs in CASES:
        doc = dict(name=name, **digests(*run_case(kind, kwargs)))
        lines.append(json.dumps(doc, separators=(",", ":")))
    GOLDEN_PATH.write_text("[\n" + ",\n".join(lines) + "\n]\n")
    print(f"wrote {len(lines)} cases to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
