"""Record one benchmark point of this checkout as ``BENCH_<pr>.json``.

    python3 tools/bench_record.py --pr N [--seeds 1-3] [--base REV] [--tier1]
        [--out FILE]

Run from anywhere inside a source checkout.  For every workload of
``BENCHMARK.json`` it runs ``perfbench/run.py --trace 0`` once per seed
(untraced end-to-end runs) and ``perfbench/run.py --trace 1`` once at the
first seed, then writes one JSON file with the record below.  The untraced
runs go seed by seed, each seed through every workload in turn, so that the
host's drift over the recording spreads over all workloads; the traced runs
come after them.  The file holds:

* the git sha and dirty flag of the checkout, and the machine metadata of the
  ``meta`` line the traced runs print (CPU, ``nproc``, Python, numpy, BLAS,
  thread settings);
* per workload, the median, first and third quartile and spread of every
  end-to-end metric over the correct runs, each run's seed, exit code,
  correctness and values, and whether every run was correct.  A run is
  correct when it exits 0 with ``correct: true`` and its result holds every
  metric ``BENCHMARK.json`` lists for its kind (``end_to_end`` untraced,
  ``per_layer`` traced); a run that is not correct also keeps the names of
  the listed metrics it lacks and the last lines of its stdout;
* per workload, the traced per-layer metrics and the round count they cover;
* with ``--tier1``, the wall time, exit code and summary line of the Tier-1
  command ``python -m pytest -q --continue-on-collection-errors``, run
  without pytest's cache plugin so that it writes nothing into the checkout.

``--base REV`` measures the checkout against the git revision ``REV`` on the
same host.  ``REV``'s ``src/``, ``tests/``, ``tools/`` (which its tests load)
and ``pyproject.toml`` are exported with ``git archive`` into a temporary
directory, beside copies of this checkout's ``perfbench/`` and
``BENCHMARK.json``, so both sides run the same harness on their own library.
With ``--tier1`` the same Tier-1 command also runs in the export, on
``REV``'s own tests, and is recorded as the base side's ``tier1``.
Each seed runs each workload on both sides, one after the other, the side
that goes first alternating from seed to seed, and the traced run is made on
both sides.  Each workload then holds a ``base`` and a ``head`` entry in the
form above, and ``compare``: per end-to-end metric, the median over seeds of
the head/base ratio and the number of seeds on which the head is better (by
the metric's ``better`` in ``BENCHMARK.json``).  A seed on which either side
is not correct is left out of the comparison.  An unknown ``REV`` exits with
code 2 before any run.

Nothing under ``perfbench/`` is changed; its own scratch and span files go
where ``perfbench/run.py`` puts them.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
MACHINE_KEYS = ("nproc", "cpu", "python", "numpy", "blas", "thread_env")
EXPORT = ("src", "tests", "tools", "pyproject.toml")
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
SUMMARY = re.compile(r" in \d+(\.\d+)?s( \(\d+:\d\d:\d\d\))?$")
STDOUT_TAIL = 5  # stdout lines kept of a run that is not correct


def _seeds(text: str) -> list[int]:
    """``"A-B"`` or ``"A"`` as the seeds A..B; an empty range is refused."""
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range '{text}'")
    return seeds


def _summary(values: list[float]) -> dict:
    """Median, quartiles and spread, as ``perfbench/repeat.py`` reports them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _resolve(rev: str) -> str | None:
    """The commit sha ``rev`` names in this checkout, or None."""
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"],
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def export_base(sha: str, dest: str) -> None:
    """Write the ``EXPORT`` paths ``sha`` has into ``dest``, with this
    checkout's ``perfbench/`` (without its scratch and span files) and
    ``BENCHMARK.json`` beside them."""
    names = subprocess.run(
        ["git", "-C", ROOT, "ls-tree", "--name-only", sha],
        capture_output=True, text=True, check=True, timeout=30,
    ).stdout.split()
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", sha,
         *(p for p in EXPORT if p in names)],
        capture_output=True, check=True, timeout=120,
    ).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True, timeout=120)
    shutil.copytree(
        PERFBENCH, os.path.join(dest, "perfbench"),
        ignore=shutil.ignore_patterns("out", "_work-*", "__pycache__"),
    )
    shutil.copy2(os.path.join(ROOT, "BENCHMARK.json"), dest)


def _run(root: str, workload: str, seed: int, trace: int, wanted: list[str]) -> dict:
    """One ``perfbench/run.py`` run in the tree at ``root``: its exit code,
    ``meta`` line and result line.  ``correct`` is false when the result line
    is missing or lacks one of the ``wanted`` metrics."""
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    metas = [json.loads(line)["meta"] for line in lines if line.startswith('{"meta"')]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    metrics = {m: v["value"] for m, v in result.get("metrics", {}).items()}
    missing = [m for m in wanted if m not in metrics]
    ok = (proc.returncode == 0 and bool(metas) and result.get("correct") is True
          and not missing)
    run = {"seed": seed, "exit_code": proc.returncode, "correct": ok,
           "meta": metas[0] if metas else None, "metrics": metrics}
    if not ok:
        print(f"{workload} seed {seed} in {root}: exit {proc.returncode}, not correct\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        run.update(missing_metrics=missing, stdout_tail=lines[-STDOUT_TAIL:])
    return run


def _outcome(run: dict) -> dict:
    """What a run's record keeps of it besides its metrics."""
    keys = ("seed", "exit_code", "correct", "missing_metrics", "stdout_tail")
    return {k: run[k] for k in keys if k in run}


def _side(runs: list[dict], traced: dict, units: dict) -> dict:
    """The record of one tree's runs of one workload."""
    good = [r for r in runs if r["correct"]]
    return {
        "correct": len(good) == len(runs),
        "runs": [_outcome(r) for r in runs],
        # quartiles need two values
        "end_to_end": {
            m: {**(_summary(vals) if len(vals) > 1 else {}), "unit": unit, "values": vals}
            for m, unit in units.items()
            if (vals := [r["metrics"][m] for r in good if m in r["metrics"]])
        },
        "per_layer": {
            **_outcome(traced),
            "rounds": traced["meta"]["rounds"] if traced["meta"] else None,
            "metrics": traced["metrics"],
        },
    }


def _compare(base: list[dict], head: list[dict], better: dict) -> dict:
    """Head/base ratio per end-to-end metric over the seeds where both sides
    are correct: its median and the number of seeds the head wins."""
    pairs = [(b, h) for b, h in zip(base, head) if b["correct"] and h["correct"]]
    out = {}
    for m, direction in better.items():
        ratios = [h["metrics"][m] / b["metrics"][m] for b, h in pairs
                  if b["metrics"].get(m) and m in h["metrics"]]
        if ratios:
            wins = sum(r > 1.0 if direction == "higher" else r < 1.0 for r in ratios)
            out[m] = {"median_ratio": statistics.median(ratios), "head_better": wins,
                      "pairs": len(ratios)}
    return out


def _measure(
    seeds: list[int], roots: dict[str, str], spec: dict
) -> dict[str, tuple[dict, dict]]:
    """Per workload, its record and the ``meta`` line of the head's traced
    run.  Each seed runs every workload untraced on every side, the side that
    goes first alternating from seed to seed, so that host drift within the
    recording reaches all workloads alike; then each workload has one traced
    run per side at the first seed."""
    names = [w["name"] for w in spec["workloads"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = [m["name"] for m in spec["per_layer"]]
    runs = {name: {side: [] for side in roots} for name in names}
    for i, seed in enumerate(seeds):
        for name in names:
            for side in list(roots)[:: 1 if i % 2 == 0 else -1]:
                runs[name][side].append(_run(roots[side], name, seed, 0, list(units)))
        print(f"seed {seed}: done", flush=True)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    out = {}
    for name in names:
        traced = {side: _run(roots[side], name, seeds[0], 1, layers) for side in roots}
        sides = {side: _side(runs[name][side], traced[side], units) for side in roots}
        meta = traced["head"]["meta"] or {}
        if len(roots) == 1:
            out[name] = sides["head"], meta
        else:
            compare = _compare(runs[name]["base"], runs[name]["head"], better)
            out[name] = {**sides, "compare": compare}, meta
        print(f"{name}: done", flush=True)
    return out


def _tier1(root: str) -> dict:
    """The Tier-1 command's outcome in the tree at ``root``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
    )
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *TIER1], cwd=root, env=env, capture_output=True, text=True
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
    spec = _spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--pr", type=int, required=True)
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-3"))
    p.add_argument("--base", metavar="REV", default=None)
    p.add_argument("--tier1", action="store_true")
    p.add_argument("--out", default=None)
    args = p.parse_args()
    base_sha = None
    if args.base is not None:
        base_sha = _resolve(args.base)
        if base_sha is None:
            p.error(f"unknown revision '{args.base}'")

    record: dict = {"pr": args.pr, "seeds": [args.seeds[0], args.seeds[-1]],
                    "seconds": spec["run_seconds"], "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        roots = {"head": ROOT}
        if base_sha is not None:
            export_base(base_sha, tmp)
            roots = {"base": tmp, "head": ROOT}
            record["base"] = {"rev": args.base, "git_sha": base_sha}
        for name, (workload, meta) in _measure(args.seeds, roots, spec).items():
            record["workloads"][name] = workload
            record.setdefault("git_sha", meta.get("git_sha"))
            record.setdefault("git_dirty", meta.get("git_dirty"))
            record.setdefault("machine", {k: meta.get(k) for k in MACHINE_KEYS})
        if args.tier1:
            record["tier1"] = _tier1(ROOT)
            if base_sha is not None:
                record["base"]["tier1"] = _tier1(tmp)
    out = args.out or os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
