"""The three benchmark workloads and the checks on their outputs.

Each workload runs in rounds.  A round is one call of a public chanrec entry
point on inputs made from a round seed: one study call, or one batch of
``chanrec.cli.main(["eval", ...])`` calls.  ``prepare`` makes the inputs
(untimed), ``run`` executes the round and returns per-task latencies taken
from public data (the studies' wall-time ``runtime_ms``, the CPU time of each
``eval`` call), and the checks count the tasks whose outputs are wrong.

Entry points are looked up on the chanrec modules at call time, so the
tracer in ``layertrace.py`` sees the calls when it patches those names.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

from chanrec import assign, cli, experiments, netmodel

TOL = 1e-9

# Round seed of the warm-up round, whose output digests are stored in
# reference.json.  It is the library's default master seed.
REFERENCE_SEED = 20240611
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Task latency rises in steps with the node count.  Each workload has an odd
# number of size groups, so the median task falls inside the middle group
# rather than on the step between two groups, where it would swing with the
# instance mix.
SCALING_SIZES = tuple(range(20, 221, 20))
SCALING_CHANNELS = (3, 5)
SCALING_K = 2

# |W| = 2 solves are a fast population of their own; mixing them in half and
# half would put the median on the step between |W| = 2 and |W| = 3.  k = 2 is
# left out: at n = 8 about one whiterec solve in fifty runs past 1 s and one in
# a thousand past 19 s, on few leaves, so the leaf budget does not bound it
# (see README).
ORACLE_SIZES = (6, 7, 8)
ORACLE_CHANNELS = (3,)
GAP_K_VALUES = (1,)
GAP_TRIALS = 20
TRAFFIC_TRIALS = 20
# Leaf budget of each oracle solve.  Solves that exhaust it cost about
# budget x (time per leaf), which caps the tail of the per-task latency.
LEAF_BUDGET = 500

EVAL_SIZES = (16, 17, 18)
EVAL_CHANNELS = 3
EVAL_K_VALUES = (1, 2)
EVAL_ALGS = ("greedy", "ifa", "random")


@dataclass
class RoundResult:
    latencies_ms: list[float]
    failed: int
    digests: dict[str, str] = field(default_factory=dict)
    solves: int = 0
    proven: int = 0


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def canonical_json(obj) -> str:
    """JSON with floats at 9 decimals, the precision the CLI prints."""

    def fix(x):
        if isinstance(x, float):
            return repr(x) if math.isinf(x) or math.isnan(x) else format(x, ".9f")
        if isinstance(x, dict):
            return {str(k): fix(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [fix(v) for v in x]
        return x

    return json.dumps(fix(obj))


def _study_digests(records, summary) -> dict[str, str]:
    csv = "".join(
        [experiments.CSV_HEADER + "\n"] + [r.csv_row() + "\n" for r in records]
    )
    return {"csv": sha256(csv), "summary": sha256(canonical_json(summary))}


class Workload:
    name = ""
    tasks_per_round = 0
    oracle = False
    # True when RoundResult.latencies_ms are wall times, False when CPU times
    wall_latencies = True

    def prepare(self, seed: int, workdir: str):
        return seed

    def run(self, inputs) -> RoundResult:
        raise NotImplementedError


class Scaling(Workload):
    name = "scaling"
    tasks_per_round = len(SCALING_SIZES) * len(SCALING_CHANNELS)

    def run(self, seed):
        records, summary = experiments.run_scaling_study(
            sizes=SCALING_SIZES, channel_counts=SCALING_CHANNELS,
            k=SCALING_K, trials=1, seed=seed, jobs=1,
        )
        failed = sum(
            1 for r in records
            if not (r.capacity_lo <= r.capacity_hi and math.isfinite(r.ratio))
        )
        failed += max(0, self.tasks_per_round - len(records))
        return RoundResult(
            [r.runtime_ms for r in records], failed, _study_digests(records, summary)
        )


def _by_instance(records):
    """(optimal rows, scheme rows) keyed by (instance_id, k)."""
    opt, schemes = {}, {}
    for r in records:
        key = (r.instance_id, r.k)
        if r.algorithm == "optimal":
            opt[key] = r
        else:
            schemes.setdefault(key, []).append(r)
    return opt, schemes


GAP_TASKS = len(ORACLE_SIZES) * len(ORACLE_CHANNELS) * len(GAP_K_VALUES) * GAP_TRIALS
TRAFFIC_TASKS = len(ORACLE_SIZES) * len(ORACLE_CHANNELS) * TRAFFIC_TRIALS


def _gap_round(seed) -> RoundResult:
    """One whiterec solve per (instance, k), checked against the scheme rows."""
    records, summary = experiments.run_gap_study(
        sizes=ORACLE_SIZES, channel_counts=ORACLE_CHANNELS,
        k_values=GAP_K_VALUES, trials=GAP_TRIALS, seed=seed,
        budget=LEAF_BUDGET, jobs=1,
    )
    opt, schemes = _by_instance(records)
    failed = max(0, GAP_TASKS - len(opt))
    for key, o in opt.items():
        if not o.proven_optimal:
            continue
        feasible = [r for r in schemes.get(key, []) if r.feasible == "yes"]
        if o.assignment is None:
            bad = bool(feasible)  # proven infeasible, yet a scheme is feasible
        else:
            bad = any(
                o.capacity_hi > r.capacity_hi * (1.0 + TOL) for r in feasible
            )
        failed += bad
    return RoundResult(
        [o.runtime_ms for o in opt.values()], failed,
        _study_digests(records, summary),
        solves=len(opt), proven=sum(1 for o in opt.values() if o.proven_optimal),
    )


def _traffic_round(seed) -> RoundResult:
    """One feasi solve per instance, checked against the scheme rows."""
    records, summary = experiments.run_traffic_study(
        sizes=ORACLE_SIZES, channel_counts=ORACLE_CHANNELS,
        trials=TRAFFIC_TRIALS, seed=seed, budget=LEAF_BUDGET, jobs=1,
    )
    opt, schemes = _by_instance(records)
    failed = max(0, TRAFFIC_TASKS - len(opt))
    for key, o in opt.items():
        if o.proven_optimal:
            failed += any(o.beta < r.beta - TOL for r in schemes.get(key, []))
    return RoundResult(
        [o.runtime_ms for o in opt.values()], failed,
        _study_digests(records, summary),
        solves=len(opt), proven=sum(1 for o in opt.values() if o.proven_optimal),
    )


class Oracle(Workload):
    """A round is a gap study and a traffic study on the same round seed.

    The two studies generate the same instances, so whiterec and feasi solve
    the same networks.  They share one workload because the machine's speed
    drifts over minutes: one longer run of both spreads less than two
    shorter runs of each (see README).
    """

    name = "oracle"
    tasks_per_round = GAP_TASKS + TRAFFIC_TASKS
    oracle = True

    def run(self, seed):
        gap, traffic = _gap_round(seed), _traffic_round(seed)
        return RoundResult(
            gap.latencies_ms + traffic.latencies_ms, gap.failed + traffic.failed,
            {f"{study}.{k}": v
             for study, res in (("gap", gap), ("traffic", traffic))
             for k, v in res.digests.items()},
            solves=gap.solves + traffic.solves, proven=gap.proven + traffic.proven,
        )


def _eval_output_ok(text: str) -> bool:
    doc = json.loads(text)

    def num(x):
        return math.inf if x is None else float(x)

    beta = num(doc["beta"])
    want = "yes" if beta >= 1.0 - TOL else "no"
    return (
        doc["mode"] == "exact"
        and float(doc["capacity"]) == max(float(doc["m1"]), float(doc["m2"]))
        and beta == min(num(doc["z1"]), num(doc["z2"]))
        and doc["feasible"] == want
    )


def _call_eval(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Eval(Workload):
    name = "eval"
    tasks_per_round = len(EVAL_SIZES) * len(EVAL_ALGS) * len(EVAL_K_VALUES)
    wall_latencies = False

    def prepare(self, seed, workdir):
        """Write one network per size and one assignment file per scheme."""
        calls = []
        for i, n in enumerate(EVAL_SIZES):
            inst_seed = experiments.derive_seed(seed, i)
            spec = experiments.InstanceSpec(n_nodes=n, n_channels=EVAL_CHANNELS)
            net = experiments.generate_instance(spec, inst_seed)
            net_path = os.path.join(workdir, f"net{n}.json")
            with open(net_path, "w") as fh:
                fh.write(netmodel.serialize_network(net))
            ys = {
                "greedy": assign.greedy_assign(net),
                "ifa": assign.ifa_assign(net),
                "random": assign.random_assign(net, inst_seed),
            }
            for alg in EVAL_ALGS:
                y_path = os.path.join(workdir, f"y{n}-{alg}.json")
                with open(y_path, "w") as fh:
                    fh.write(netmodel.serialize_assignment(ys[alg], net))
                for k in EVAL_K_VALUES:
                    calls.append(
                        ["eval", "--net", net_path, "--assignment", y_path,
                         "--k", str(k), "--mode", "exact"]
                    )
        return calls

    def run(self, calls):
        latencies, outputs, failed = [], [], 0
        for argv in calls:
            t0 = time.process_time()
            code, out = _call_eval(argv)
            latencies.append((time.process_time() - t0) * 1000.0)
            outputs.append(out)
            failed += code != 0 or not _eval_output_ok(out)
        # a repeated call must print the same bytes
        failed += _call_eval(calls[0]) != (0, outputs[0])
        return RoundResult(latencies, failed, {"stdout": sha256("".join(outputs))})


def reference_round(wl: Workload, workdir: str) -> RoundResult:
    return wl.run(wl.prepare(REFERENCE_SEED, workdir))


def reference_mismatches(wl: Workload, workdir: str) -> list[str]:
    """Run the warm-up round; name each digest or check that went wrong."""
    res = reference_round(wl, workdir)
    with open(REFERENCE_PATH) as fh:
        want = json.load(fh)[wl.name]
    bad = [k for k, v in want.items() if res.digests.get(k) != v]
    if res.failed:
        bad.append("checks")
    return bad


WORKLOADS = {w.name: w for w in (Scaling(), Oracle(), Eval())}
