"""Record ``tests/metrics_golden.json``, the golden pin of the exact metrics.

For every case (a seeded ``generate_instance`` network and one assignment
scheme) the file keeps, in both the exact and the bracket mode,
``recovery_capacity(...).to_json_dict()`` at k = 1, 2, 3 and
``feasibility_ratio(...).to_json_dict()``.  The feasibility documents also
hold the witnesses ``to_json_dict`` leaves out: ``witness_z1`` in both modes
and ``witness_z2`` in exact mode.  Every float is written as ``float.hex()``.
``tests/test_metrics.py`` recomputes every case and compares the documents,
so any change to the metrics' float arithmetic, their tie-breaks or their
witnesses shows up.  Uniform random demands are not dyadic, so a change in
summation order changes the last bits.

Cases: n in {5, 10, 14, 16, 18} nodes, |W| in {1, 3, 5} channels, one
instance per combination, with the greedy, ifa and random schemes.

Re-record only when a change is meant to alter the metrics' results:

    PYTHONPATH=src python tests/record_metrics_golden.py

Before it writes, the script prints how many values differ from the existing
file, per field path (list positions folded together), so the re-record can
be checked against what the change was meant to alter.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import numpy as np

from chanrec.assign import greedy_assign, ifa_assign, random_assign
from chanrec.experiments import InstanceSpec, generate_instance
from chanrec.metrics import feasibility_ratio, recovery_capacity

GOLDEN_PATH = Path(__file__).with_name("metrics_golden.json")
MASTER_SEED = 20261018
SIZES = (5, 10, 14, 16, 18)
CHANNELS = (1, 3, 5)
SCHEMES = ("greedy", "ifa", "random")
KS = (1, 2, 3)


def hex_floats(doc):
    """``doc`` with every float replaced by its ``float.hex()`` string."""
    if isinstance(doc, float):
        return doc.hex()
    if isinstance(doc, dict):
        return {key: hex_floats(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [hex_floats(value) for value in doc]
    return doc


def case_assignment(case: dict):
    spec = InstanceSpec(n_nodes=case["n_nodes"], n_channels=case["n_channels"])
    net = generate_instance(spec, case["seed"])
    scheme = case["scheme"]
    if scheme == "greedy":
        y = greedy_assign(net)
    elif scheme == "ifa":
        y = ifa_assign(net)
    else:
        y = random_assign(net, case["seed"])
    return net, y


def _witness(witness):
    return None if witness is None else witness._asdict()


def evaluate(net, y) -> dict:
    exact = feasibility_ratio(net, y, mode="exact")
    bracket = feasibility_ratio(net, y, mode="bracket")
    return hex_floats(
        {
            "recovery": [
                recovery_capacity(net, y, k, mode="exact").to_json_dict()
                for k in KS
            ],
            "feasibility": dict(
                exact.to_json_dict(),
                witness_z1=_witness(exact.witness_z1),
                witness_z2=_witness(exact.witness_z2),
            ),
            "bracket_recovery": [
                recovery_capacity(net, y, k, mode="bracket").to_json_dict()
                for k in KS
            ],
            "bracket_feasibility": dict(
                bracket.to_json_dict(), witness_z1=_witness(bracket.witness_z1)
            ),
        }
    )


def golden_cases() -> list[dict]:
    rng = np.random.default_rng(MASTER_SEED)
    cases = []
    for n in SIZES:
        for w in CHANNELS:
            seed = int(rng.integers(0, 2**63))
            for scheme in SCHEMES:
                cases.append(
                    {"n_nodes": n, "n_channels": w, "seed": seed, "scheme": scheme}
                )
    return cases


def changed_values(old, new, path: str = "") -> Counter:
    """Number of differing leaf values of two documents, per field path."""
    if isinstance(old, dict) and isinstance(new, dict):
        counts: Counter = Counter()
        for key in old.keys() | new.keys():
            sub = f"{path}.{key}" if path else key
            counts += changed_values(old.get(key), new.get(key), sub)
        return counts
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return sum((changed_values(a, b, path) for a, b in zip(old, new)), Counter())
    return Counter({path: int(old != new)})


def main() -> None:
    docs = [
        dict(case, metrics=evaluate(*case_assignment(case)))
        for case in golden_cases()
    ]
    if GOLDEN_PATH.exists():
        changed = changed_values(json.loads(GOLDEN_PATH.read_text()), docs)
        print(f"changed values against {GOLDEN_PATH.name}:")
        for path, count in sorted(changed.items()):
            print(f"  {path}: {count}")
        if not changed:
            print("  none")
    lines = [json.dumps(doc, separators=(",", ":")) for doc in docs]
    GOLDEN_PATH.write_text("[\n" + ",\n".join(lines) + "\n]\n")
    print(f"wrote {len(lines)} cases to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
