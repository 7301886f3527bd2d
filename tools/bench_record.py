"""Record one benchmark point of this checkout as ``BENCH_<pr>.json``.

    python3 tools/bench_record.py --pr N [--seeds 1-3] [--tier1] [--out FILE]

Run from anywhere inside a source checkout.  It runs
``perfbench/repeat.py --seeds A-B`` (untraced end-to-end runs, one per seed
and workload) and one ``perfbench/run.py --trace 1`` run per workload at the
first seed, then writes one JSON file with:

* the git sha and dirty flag of the checkout, and the machine metadata of the
  ``meta`` line the traced runs print (CPU, ``nproc``, Python, numpy, BLAS,
  thread settings);
* per workload, the median, first and third quartile and spread of every
  end-to-end metric, with each run's value, and whether every run was correct;
* per workload, the traced per-layer metrics and the round count they cover;
* with ``--tier1``, the wall time, exit code and summary line of the Tier-1
  command ``python -m pytest -q --continue-on-collection-errors``, run
  without pytest's cache plugin so that it writes nothing into the checkout.

Nothing under ``perfbench/`` is changed; its own scratch and span files go
where ``perfbench/run.py`` puts them.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
MACHINE_KEYS = ("nproc", "cpu", "python", "numpy", "blas", "thread_env")
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
SUMMARY = re.compile(r" in \d+(\.\d+)?s( \(\d+:\d\d:\d\d\))?$")


def _seeds(text: str) -> list[int]:
    """``"A-B"`` or ``"A"`` as the seeds A..B; an empty range is refused."""
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range '{text}'")
    return seeds


def _end_to_end(seeds: list[int]) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "repeat.json")
        subprocess.run(
            [sys.executable, os.path.join(PERFBENCH, "repeat.py"),
             "--seeds", f"{seeds[0]}-{seeds[-1]}", "--out", out],
            cwd=ROOT, check=True,
        )
        with open(out) as fh:
            return json.load(fh)


def _traced(workload: str, seed: int) -> tuple[dict, dict]:
    """(meta, result) of one traced run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    metas = [json.loads(line)["meta"] for line in lines if line.startswith('{"meta"')]
    if proc.returncode != 0 or not metas:
        sys.exit(f"traced {workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return metas[0], json.loads(lines[-1])


def _tier1() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *TIER1], cwd=ROOT, env=env, capture_output=True, text=True
    )
    wall = time.perf_counter() - t0
    # pytest's final line, e.g. "165 passed, 1 skipped in 317.00s (0:05:17)"
    # or "1 failed in 0.49s", whatever the outcome
    lines = [line.strip("= ") for line in proc.stdout.splitlines()]
    summary = [line for line in lines if SUMMARY.search(line)]
    return {
        "command": "PYTHONPATH=src python " + " ".join(TIER1),
        "wall_s": round(wall, 1),
        "exit_code": proc.returncode,
        "summary": summary[-1] if summary else None,
    }


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--pr", type=int, required=True)
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-3"))
    p.add_argument("--tier1", action="store_true")
    p.add_argument("--out", default=None)
    args = p.parse_args()

    repeat = _end_to_end(args.seeds)
    record: dict = {"pr": args.pr, "seeds": [args.seeds[0], args.seeds[-1]],
                    "seconds": repeat["seconds"], "workloads": {}}
    for name, data in repeat["workloads"].items():
        meta, traced = _traced(name, args.seeds[0])
        record.setdefault("git_sha", meta["git_sha"])
        record.setdefault("git_dirty", meta["git_dirty"])
        record.setdefault("machine", {k: meta[k] for k in MACHINE_KEYS})
        runs = data["runs"]
        record["workloads"][name] = {
            "correct": all(r["correct"] for r in runs),
            "end_to_end": {
                m: {**s, "unit": runs[0]["metrics"][m]["unit"],
                    "values": [r["metrics"][m]["value"] for r in runs]}
                for m, s in data["summary"].items()
            },
            "per_layer": {
                "seed": args.seeds[0], "rounds": meta["rounds"],
                "correct": traced["correct"],
                "metrics": {m: v["value"] for m, v in traced["metrics"].items()},
            },
        }
    if args.tier1:
        record["tier1"] = _tier1()
    out = args.out or os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
