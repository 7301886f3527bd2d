"""Cross-check the exact oracles on the golden instances, solve by solve.

    PYTHONPATH=src python3 tools/oracle_check.py [--out FILE] [--compare FILE]

Solves the 84 seeded networks of ``tests/oracle_golden.json`` with
``whiterec`` and ``whiterecinf`` at k = 1..4 and with ``feasi``, each at the
default leaf budget and at ``limit=50``: 18 solves per case, 1,512 in all.
Per solve it keeps one JSON line: the case index, problem, k (null for
feasi), limit, the objective as ``float.hex()``, ``explored``,
``proven_optimal``, the assignment, and the exact metric of that assignment
(``recovery_capacity(...).capacity``, or ``feasibility_ratio(...).beta`` for
feasi) as hex with its distance from the objective in ulps.  ``--out FILE``
writes the lines.

It prints the number of solves, of solves that return an assignment, and of
those whose objective is not their metric, with the largest distance.  On
stderr it prints one line per problem: its solves, their leaves, the CPU
seconds spent in the solver (the metric check not counted) and the leaves
per CPU second.

``--compare FILE`` reads the lines of an earlier run, say against another
revision's ``src/`` on ``PYTHONPATH``, and prints every solve whose
objective, ``explored``, ``proven_optimal`` or assignment differs, or that
only one side has; it exits 1 if there is one.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import struct
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from record_oracle_golden import GOLDEN_PATH, case_network, solve_record  # noqa: E402

from chanrec.metrics import feasibility_ratio, recovery_capacity  # noqa: E402
from chanrec.netmodel import ChannelAssignment  # noqa: E402
from chanrec.oracles import DEFAULT_LEAF_BUDGET  # noqa: E402

# (problem, k, limit); k is None for feasi
SOLVES = tuple(
    (problem, k, limit)
    for limit in (DEFAULT_LEAF_BUDGET, 50)
    for problem in ("whiterec", "whiterecinf")
    for k in (1, 2, 3, 4)
) + (("feasi", None, DEFAULT_LEAF_BUDGET), ("feasi", None, 50))
# the fields two runs must agree on
SAME = ("objective", "explored", "proven_optimal", "assignment")


def _ordered(x: float) -> int:
    """The float's bit pattern as an int that orders as the floats do."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & (2**63 - 1))


def ulps(a: float, b: float) -> int | None:
    """Number of floats from a to b; None if only one of them is finite."""
    if a == b:
        return 0
    if not (math.isfinite(a) and math.isfinite(b)):
        return None
    return abs(_ordered(a) - _ordered(b))


def solve(net, problem: str, k: int | None, limit: int) -> tuple[dict, float]:
    """The golden file's record of one solve, with the exact metric of its
    assignment as hex and that metric's distance from the objective, and the
    CPU seconds the solve took."""
    start = time.process_time()
    record = solve_record(net, problem, k, limit)
    cpu_s = time.process_time() - start
    out = dict(record, metric=None, ulps=None)
    if out["assignment"] is not None:
        y = ChannelAssignment(tuple(out["assignment"]))
        if problem == "feasi":
            metric = feasibility_ratio(net, y, "exact").beta
        else:
            metric = recovery_capacity(net, y, k, "exact").capacity
        out["metric"] = metric.hex()
        out["ulps"] = ulps(float.fromhex(out["objective"]), metric)
    return out, cpu_s


def check(cases: list[dict]) -> tuple[list[dict], dict[str, float]]:
    """The rows of every solve, and the solver's CPU seconds per problem."""
    rows = []
    cpu_s = dict.fromkeys((problem for problem, _, _ in SOLVES), 0.0)
    for i, case in enumerate(cases):
        net = case_network(case)
        for problem, k, limit in SOLVES:
            row, spent = solve(net, problem, k, limit)
            rows.append(dict(case=i, **row))
            cpu_s[problem] += spent
    return rows, cpu_s


def timing_lines(rows: list[dict], cpu_s: dict[str, float]) -> list[str]:
    """One line per problem: solves, leaves, solver CPU seconds, leaves/s."""
    out = []
    for problem, spent in cpu_s.items():
        mine = [r for r in rows if r["problem"] == problem]
        leaves = sum(r["explored"] for r in mine)
        rate = leaves / spent if spent > 0.0 else math.inf
        out.append(
            f"{problem}: {len(mine)} solves, {leaves} leaves, "
            f"{spent:.3f} s CPU in the solver, {rate:.0f} leaves per CPU s"
        )
    return out


def _key(row: dict) -> tuple:
    return row["case"], row["problem"], row["k"], row["limit"]


def differences(rows: list[dict], earlier: list[dict]) -> list[str]:
    """One line per solve that differs between two runs."""
    old = {_key(r): r for r in earlier}
    new = {_key(r): r for r in rows}
    out = []
    for key in list(new) + [key for key in old if key not in new]:
        name = "case {} {} k={} limit={}".format(*key)
        if key not in old or key not in new:
            out.append(f"{name}: only in the {'new' if key in new else 'earlier'} run")
            continue
        moved = [
            f"{field} {old[key][field]} -> {new[key][field]}"
            for field in SAME
            if old[key][field] != new[key][field]
        ]
        if moved:
            out.append(f"{name}: " + ", ".join(moved))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="write one JSON line per solve")
    parser.add_argument("--compare", default=None, help="lines of an earlier run")
    args = parser.parse_args(argv)

    with open(GOLDEN_PATH) as fh:
        rows, cpu_s = check(json.load(fh))
    for line in timing_lines(rows, cpu_s):
        print(line, file=sys.stderr)
    if args.out:
        with open(args.out, "w") as fh:
            fh.writelines(json.dumps(r, separators=(",", ":")) + "\n" for r in rows)

    with_y = [r for r in rows if r["assignment"] is not None]
    off = [r["ulps"] for r in with_y if r["ulps"] != 0]
    print(f"solves: {len(rows)}")
    print(f"with an assignment: {len(with_y)}")
    worst = "inf" if None in off else max(off, default=0)
    print(f"objective != metric: {len(off)} (at most {worst} ulps)")
    if args.compare is None:
        return 0
    with open(args.compare) as fh:
        earlier = [json.loads(line) for line in fh]
    diff = differences(rows, earlier)
    for line in diff:
        print(line)
    print(f"differing solves: {len(diff)}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
