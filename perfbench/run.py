"""chanrec benchmark.

    python3 perfbench/run.py --workload {scaling,oracle,eval} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; chanrec is imported from ``src/``.
``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.
One process runs one workload with ``jobs=1``.  Set-up (imports, input
generation and an untimed warm-up round at the reference seed, whose output
digests are checked against ``reference.json``) is timed in this process and
in two fresh child processes, and ``setup_s`` is their median; the three
samples, this process's first, are in the run metadata.  Then rounds
made from ``--seed`` run until ``--seconds`` of wall time have passed.

End-to-end times are CPU time of this single-threaded process
(``time.process_time``), not wall time: on a shared virtual machine the wall
time also holds the time the host ran other guests (steal), which changes
from minute to minute.  A task's latency is its CPU time; for the studies,
whose ``runtime_ms`` is a wall time, it is ``runtime_ms`` times the CPU share
of the round's wall time.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.  With
``--trace 1`` it holds the per-layer metrics of a fixed number of rounds, each
run once untraced and once traced, so counts repeat exactly for a given seed
and the difference in wall time is the tracing overhead.  The spans (name,
start, end, parent index) go to ``out/spans-<workload>-<seed>.json``.  Metric
names and units come from ``BENCHMARK.json``.  The process exits non-zero when
an output check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# The process runs single-threaded (jobs=1); BLAS and OpenMP pools are held to
# one thread so the oracle's small matrix products start no extra threads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

# One round takes about this long on a 2-CPU Xeon; trace
# mode sizes its fixed round count from it.
NOMINAL_ROUND_S = {"scaling": 0.75, "oracle": 1.0, "eval": 1.3}
SETUP_CHILDREN = 2


def _parse_args(argv, spec):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-only", action="store_true",
        help="time set-up, print it and exit (used for the child set-ups)",
    )
    return p.parse_args(argv)


def _import_chanrec():
    if not os.path.isfile(os.path.join(SRC, "chanrec", "__init__.py")):
        sys.exit(f"error: chanrec sources not found under {SRC}")
    sys.path[:0] = [SRC, HERE]
    import workloads

    return workloads


def round_seed(seed: int, r: int) -> int:
    return int(np.random.SeedSequence((seed, r)).generate_state(1, np.uint64)[0])


def _child_setup_seconds(workload: str) -> float:
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    return float(out.split()[-1])


def _execute(wl, inputs, stats, tracer=None):
    """Run one round once; returns (result or None, wall s, CPU s)."""
    if tracer is not None:
        tracer.install()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        res = wl.run(inputs)
    except Exception:
        traceback.print_exc()
        res = None
    finally:
        dt, dc = time.perf_counter() - t0, time.process_time() - c0
        if tracer is not None:
            tracer.uninstall()
    stats["attempted"] += wl.tasks_per_round
    stats["failed"] += wl.tasks_per_round if res is None else min(res.failed, wl.tasks_per_round)
    return res, dt, dc


def _run_rounds(wl, seed, workdir, n_rounds=None, seconds=None, tracer=None):
    """Timed rounds made from ``seed``; with a tracer, each round also runs
    traced, alternating which of the two goes first."""
    stats = {"lat": [], "rates": [], "attempted": 0, "failed": 0,
             "solves": 0, "proven": 0, "wall": 0.0, "traced_wall": 0.0}
    t_end = time.perf_counter() + (seconds or 0.0)

    def more(r):
        if n_rounds is not None:
            return r < n_rounds
        return r == 0 or time.perf_counter() < t_end

    r = 0
    while more(r):
        inputs = wl.prepare(round_seed(seed, r), workdir)
        r += 1
        traced_first = tracer is not None and r % 2 == 0
        if traced_first:
            stats["traced_wall"] += _execute(wl, inputs, stats, tracer)[1]
        res, dt, dc = _execute(wl, inputs, stats)
        if tracer is not None and not traced_first:
            stats["traced_wall"] += _execute(wl, inputs, stats, tracer)[1]
        if res is None:
            continue
        stats["wall"] += dt
        cpu_share = dc / dt if wl.wall_latencies else 1.0
        stats["lat"].extend(ms * cpu_share for ms in res.latencies_ms)
        stats["rates"].append(len(res.latencies_ms) / dc)
        stats["solves"] += res.solves
        stats["proven"] += res.proven
    stats["rounds"] = r
    return stats


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else float("nan")


def _git_state():
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        lines = top.stdout.split()
        if top.returncode != 0 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
            return None, None
        dirty = subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=30,
        ).stdout.strip() != ""
        return lines[1], dirty
    except (OSError, subprocess.SubprocessError, IndexError):
        return None, None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _thread_count():
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _metadata(args, rounds, setups):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f'{blas.get("name")} {blas.get("version")}'
    except (AttributeError, KeyError, TypeError):  # layout differs across numpy versions
        blas = "unknown"
    sha, dirty = _git_state()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "setup_samples_s": setups,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "threads_at_exit": _thread_count(), "git_sha": sha, "git_dirty": dirty,
    }


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    spec = _spec()
    args = _parse_args(argv, spec)
    workloads = _import_chanrec()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}")
    wl = workloads.WORKLOADS[args.workload]
    workdir = tempfile.mkdtemp(prefix="_work-", dir=HERE)
    try:
        mismatches = workloads.reference_mismatches(wl, workdir)
        setup_own = time.process_time()
        if args.setup_only:
            print(f"{setup_own:.6f}")
            return 0
        setups = [setup_own]
        if args.trace:
            from layertrace import Tracer, layer_metrics

            tracer = Tracer()
            n_rounds = max(1, round(args.seconds / (2 * NOMINAL_ROUND_S[wl.name])))
            stats = _run_rounds(wl, args.seed, workdir, n_rounds=n_rounds, tracer=tracer)
        else:
            setups += [_child_setup_seconds(wl.name) for _ in range(SETUP_CHILDREN)]
            stats = _run_rounds(wl, args.seed, workdir, seconds=args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lat = stats["lat"]
    table = {
        "tasks_per_cpu_s": (statistics.median(stats["rates"]) if stats["rates"] else 0.0, "1/s"),
        "task_cpu_ms_p50": (_percentile(lat, 50), "ms"),
        "task_cpu_ms_p95": (_percentile(lat, 95), "ms"),
        "failed_frac": (stats["failed"] / max(1, stats["attempted"]), "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    if wl.oracle:
        table["proven_frac"] = (stats["proven"] / max(1, stats["solves"]), "1")
    if args.trace:
        metrics = layer_metrics(tracer)
        spans_path = os.path.join(HERE, "out", f"spans-{wl.name}-{args.seed}.json")
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)
        if stats["wall"] > 0:
            metrics["trace.overhead_frac"] = stats["traced_wall"] / stats["wall"] - 1.0
        metrics["trace.traced_ms"] = stats["traced_wall"] * 1000.0
        wanted = spec["per_layer"]
        _print_layers(metrics, stats["traced_wall"])
    else:
        table["setup_s"] = (statistics.median(setups), "s")
        metrics = {k: v for k, (v, _) in table.items() if math.isfinite(v)}
        wanted = spec["end_to_end"]

    print(json.dumps({"meta": _metadata(args, stats["rounds"], setups)}))
    print(f"{len(lat)} task samples over {stats['rounds']} rounds, "
          f"{stats['attempted']} tasks attempted")
    for name, (value, unit) in table.items():
        print(f"  {name:<14} {value:>14.6g} {unit}")
    if mismatches:
        print(f"reference check FAILED: {mismatches}")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"missing metrics: {missing}")
    correct = stats["failed"] == 0 and not mismatches
    result = {
        "correct": correct,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted if m["name"] in metrics
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


def _print_layers(metrics, traced_s):
    """Self-time share of every traced layer, largest first."""
    shares = sorted(
        ((k[: -len(".self_ms")], v) for k, v in metrics.items() if k.endswith(".self_ms")),
        key=lambda kv: -kv[1],
    )
    for name, ms in shares:
        print(f"  {name:<42} {ms:>11.1f} ms {ms / max(traced_s * 10, 1e-9):6.1f} %")


if __name__ == "__main__":
    sys.exit(main())
