"""Record ``tests/oracle_golden.json``, the golden pin of the exact oracles.

For every case (a seeded ``generate_instance`` network) the file keeps, per
solve, the objective as ``float.hex()``, the leaf count ``explored``, the
``proven_optimal`` flag and the assignment.  ``tests/test_oracles.py``
re-solves every case and compares all four fields, so any change to the
search order, its tie-breaks, its pruning or its float arithmetic shows up.

Cases: n = 3..9 nodes, |W| = 1..3 channels, the default capacity family and
``capacity_range=(150, 150)``, two instances per combination.  An instance is
kept if it has 1..14 edges and at most 3**12 channel assignments, which keeps
every full solve short.  Solves: ``whiterec`` and ``whiterecinf`` at k = 1, 2
and ``feasi``, each at the default leaf budget and at ``limit=50``.

Re-record only when a change is meant to alter the oracles' results:

    PYTHONPATH=src python tests/record_oracle_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from chanrec.experiments import InstanceSpec, generate_instance
from chanrec.oracles import (
    DEFAULT_LEAF_BUDGET,
    solve_feasi_exact,
    solve_whiterec_exact,
    solve_whiterecinf_exact,
)

GOLDEN_PATH = Path(__file__).with_name("oracle_golden.json")
MASTER_SEED = 20240611
PER_COMBINATION = 2
MAX_EDGES = 14
MAX_SPACE = 3**12
FAMILIES = (None, (150.0, 150.0))

# (problem, k, limit); k is None for feasi
SOLVES = tuple(
    (problem, k, limit)
    for limit in (DEFAULT_LEAF_BUDGET, 50)
    for problem, k in (
        ("whiterec", 1), ("whiterec", 2),
        ("whiterecinf", 1), ("whiterecinf", 2),
        ("feasi", None),
    )
)


def case_network(case: dict):
    family = case["capacity_range"]
    extra = {} if family is None else {"capacity_range": tuple(family)}
    spec = InstanceSpec(n_nodes=case["n_nodes"], n_channels=case["n_channels"], **extra)
    return generate_instance(spec, case["seed"])


def solve_record(net, problem: str, k: int | None, limit: int) -> dict:
    """One solve's record: problem, k (None for feasi), limit, the objective
    as ``float.hex()``, ``explored``, ``proven_optimal`` and the assignment."""
    if problem == "whiterec":
        res = solve_whiterec_exact(net, k, limit=limit)
    elif problem == "whiterecinf":
        res = solve_whiterecinf_exact(net, k, limit=limit)
    else:
        res = solve_feasi_exact(net, limit=limit)
    y = res.best_assignment
    return {
        "problem": problem,
        "k": k,
        "limit": limit,
        "objective": res.objective.hex(),
        "explored": res.explored,
        "proven_optimal": res.proven_optimal,
        "assignment": None if y is None else list(y.channel_of),
    }


def solve_all(net) -> list[dict]:
    return [solve_record(net, problem, k, limit) for problem, k, limit in SOLVES]


def golden_cases() -> list[dict]:
    rng = np.random.default_rng(MASTER_SEED)
    cases = []
    for n in range(3, 10):
        for w in (1, 2, 3):
            for family in FAMILIES:
                made = 0
                while made < PER_COMBINATION:
                    case = {
                        "n_nodes": n,
                        "n_channels": w,
                        "capacity_range": None if family is None else list(family),
                        "seed": int(rng.integers(0, 2**63)),
                    }
                    m = case_network(case).n_edges
                    if 1 <= m <= MAX_EDGES and w**m <= MAX_SPACE:
                        cases.append(case)
                        made += 1
    return cases


def main() -> None:
    lines = []
    for case in golden_cases():
        doc = dict(case, solves=solve_all(case_network(case)))
        lines.append(json.dumps(doc, separators=(",", ":")))
    GOLDEN_PATH.write_text("[\n" + ",\n".join(lines) + "\n]\n")
    print(f"wrote {len(lines)} cases to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
