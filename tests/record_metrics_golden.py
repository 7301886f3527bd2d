"""Record ``tests/metrics_golden.json``, the golden pin of the exact metrics.

For every case (a seeded ``generate_instance`` network and one assignment
scheme) the file keeps ``recovery_capacity(..., mode="exact").to_json_dict()``
at k = 1, 2, 3 and ``feasibility_ratio(..., mode="exact").to_json_dict()``,
with every float written as ``float.hex()``.  ``tests/test_metrics.py``
recomputes every case and compares the documents, so any change to the
odd-set enumeration's float arithmetic, its tie-breaks or its witnesses shows
up.  Uniform random demands are not dyadic, so a change in summation order
changes the last bits.

Cases: n in {5, 10, 14, 16, 18} nodes, |W| in {1, 3, 5} channels, one
instance per combination, with the greedy, ifa and random schemes.

Re-record only when a change is meant to alter the metrics' results:

    PYTHONPATH=src python tests/record_metrics_golden.py
"""

from __future__ import annotations

import json
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
    if isinstance(doc, list):
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


def evaluate(net, y) -> dict:
    return hex_floats(
        {
            "recovery": [
                recovery_capacity(net, y, k, mode="exact").to_json_dict()
                for k in KS
            ],
            "feasibility": feasibility_ratio(net, y, mode="exact").to_json_dict(),
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


def main() -> None:
    lines = []
    for case in golden_cases():
        doc = dict(case, metrics=evaluate(*case_assignment(case)))
        lines.append(json.dumps(doc, separators=(",", ":")))
    GOLDEN_PATH.write_text("[\n" + ",\n".join(lines) + "\n]\n")
    print(f"wrote {len(lines)} cases to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
