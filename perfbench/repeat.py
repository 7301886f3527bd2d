"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/repeat.py [--workloads scaling,oracle] [--seeds 1-10]
        [--out FILE]

The runs are untraced (``--trace 0``).  For every workload and end-to-end
metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), and the spread: the distance between
the quartiles as a share of the median.  With ``--out`` the runs (each with
its set-up samples) and the summary are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--out", default=None)
    args = p.parse_args()

    report = {"seconds": args.seconds, "workloads": {}}
    for name in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            lines = proc.stdout.strip().splitlines() or ["{}"]
            result = json.loads(lines[-1])
            if proc.returncode != 0 or not result.get("correct"):
                sys.exit(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            meta = next(
                json.loads(line)["meta"] for line in lines if line.startswith('{"meta"')
            )
            runs.append({"seed": seed, "setup_samples_s": meta["setup_samples_s"], **result})
        metrics = sorted(runs[0]["metrics"])
        summary = {
            m: summarize([r["metrics"][m]["value"] for r in runs]) for m in metrics
        }
        report["workloads"][name] = {"runs": runs, "summary": summary}
        for m in metrics:
            s = summary[m]
            print(f"{name:<8} {m:<40} median {s['median']:>12.5g}  "
                  f"q1 {s['q1']:>12.5g}  q3 {s['q3']:>12.5g}  spread {s['spread']:.4f}",
                  flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
