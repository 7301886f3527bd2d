"""Write reference.json: output digests of each workload's warm-up round.

    python3 perfbench/record_reference.py

Run it from the root of a source checkout, only when a change is meant to
alter chanrec's outputs; every benchmark run compares against these digests.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def main() -> None:
    ref = {}
    with tempfile.TemporaryDirectory(dir=HERE) as workdir:
        for name, wl in workloads.WORKLOADS.items():
            res = workloads.reference_round(wl, workdir)
            if res.failed:
                sys.exit(f"error: {name}: {res.failed} output checks failed")
            ref[name] = res.digests
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
