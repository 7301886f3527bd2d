"""Instance generation and reproducible experiment studies.

Instances are random graphs with a degree cap: node pairs are visited in
seeded-random order and an edge is added with probability ``edge_prob``
unless either endpoint already has ``degree_cap`` edges.  Demands are drawn
uniformly per link; capacity is drawn uniformly per channel and shared by all
links on that channel.  Every pair's coin is drawn in one call, and the
demands in one call, in edge-addition order; the stream is the same as one
draw per call.

Every instance gets its own seed derived from the master seed and a running
instance index with a splitmix-style mix (golden-ratio increment plus the
standard 64-bit finalizer), so studies are reproducible and insensitive to
how work is split across processes.

The three studies run through one runner, ``_run_study``: it checks the
axes, builds one task per instance (``replace(InstanceSpec(size, w),
**spec_overrides)``, instance id, derived seed) and runs the tasks in order
or on a process pool.  ``_scaling_task`` makes one ``ifa`` row per instance;
``_oracle_task`` makes, per k, the optimum of whiterec (gap study) or feasi
(traffic study) and one row per scheme.  ``make_record`` builds every row.

``runtime_ms`` times, per row: the exact solve alone (``optimal`` rows), the
metric evaluation (scheme rows), or generation, ``ifa_assign`` and the
metrics together (scaling rows).  It is kept on the in-memory records but
written as 0 in CSV exports: study outputs are byte-reproducible across runs
and job counts, and wall-clock time is not.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .assign import greedy_assign, ifa_assign, random_assign
from .metrics import evaluate
from .netmodel import ChannelAssignment, Network
from .oracles import _check_size, solve_feasi_exact, solve_whiterec_exact

_MASK64 = (1 << 64) - 1

DEFAULT_MASTER_SEED = 20240611
# leaf budget of each exact solve in the gap and traffic studies
DEFAULT_STUDY_BUDGET = 300_000


def derive_seed(master: int, index: int) -> int:
    """Per-instance seed: splitmix64 of the master advanced index+1 steps."""
    z = (master + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4B5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class InstanceSpec:
    """Parameters of the random instance family."""

    n_nodes: int
    n_channels: int
    edge_prob: float = 0.6
    degree_cap: int = 8
    demand_range: tuple[float, float] = (1.0, 100.0)
    capacity_range: tuple[float, float] = (75.0, 200.0)

    def __post_init__(self) -> None:
        if self.n_nodes < 1 or self.n_channels < 1:
            raise ValueError("n_nodes and n_channels must be >= 1")
        if not 0.0 <= self.edge_prob <= 1.0:
            raise ValueError("edge_prob must be in [0, 1]")
        if self.degree_cap < 0:
            raise ValueError("degree_cap must be >= 0")
        for lo, hi in (self.demand_range, self.capacity_range):
            if not 0.0 < lo <= hi < math.inf:
                raise ValueError("ranges must satisfy 0 < lo <= hi < inf")


def generate_instance(spec: InstanceSpec, seed: int) -> Network:
    """Draw one instance.  Draw order (fixed for reproducibility): pair
    visiting order, one coin per visited pair, demands in edge-addition
    order, then one capacity per channel."""
    rng = np.random.default_rng(seed)
    n = spec.n_nodes
    us, vs = np.triu_indices(n, 1)
    visit = rng.permutation(len(us))
    heads = visit[rng.random(len(visit)) < spec.edge_prob]
    degree = [0] * n
    edges: list[tuple[int, int]] = []
    for u, v in zip(us[heads].tolist(), vs[heads].tolist()):
        if degree[u] < spec.degree_cap and degree[v] < spec.degree_cap:
            edges.append((u, v))
            degree[u] += 1
            degree[v] += 1
    demands = rng.uniform(*spec.demand_range, len(edges)).tolist()
    per_channel = rng.uniform(*spec.capacity_range, spec.n_channels).tolist()
    return Network(
        node_names=tuple(f"n{i}" for i in range(n)),
        channel_names=tuple(f"w{i}" for i in range(spec.n_channels)),
        edges=tuple(edges),
        demands=tuple(demands),
        capacity=tuple((c,) * len(edges) for c in per_channel),
    )


def uniform_demand_capacity_bound(
    r: float, k: int, d_max: int, n_channels: int
) -> float:
    """Capacity of the coloring-based scheme under uniform demand r never
    exceeds this."""
    return r * k * math.ceil((d_max + 1) / n_channels)


# -- records --------------------------------------------------------------

# the CSV columns: these ints, the algorithm, these 9-decimal floats, then
# runtime_ms, written as a 0 placeholder
_INT_COLUMNS = ("instance_id", "seed", "n_nodes", "n_edges", "n_channels", "k")
_FLOAT_COLUMNS = (
    "m1", "m2_lo", "m2_hi", "capacity_lo", "capacity_hi", "beta", "l_tot", "ratio"
)
CSV_HEADER = ",".join((*_INT_COLUMNS, "algorithm", *_FLOAT_COLUMNS, "runtime_ms"))


@dataclass(frozen=True)
class ExperimentRecord:
    instance_id: int
    seed: int
    n_nodes: int
    n_edges: int
    n_channels: int
    k: int
    algorithm: str
    m1: float
    m2_lo: float
    m2_hi: float
    capacity_lo: float
    capacity_hi: float
    beta: float
    l_tot: float
    ratio: float
    # measured wall time; excluded from equality because it is the one field
    # that cannot be reproduced across runs (CSV writes a placeholder)
    runtime_ms: float = field(compare=False, default=0.0)
    assignment: ChannelAssignment | None = None
    feasible: str = ""
    proven_optimal: bool | None = None

    def csv_row(self) -> str:
        return ",".join(
            [str(getattr(self, name)) for name in _INT_COLUMNS]
            + [self.algorithm]
            + [format(getattr(self, name), ".9f") for name in _FLOAT_COLUMNS]
            + [format(0.0, ".9f")]  # placeholder: wall time is not reproducible
        )


def write_records_csv(records: Iterable[ExperimentRecord], path: str) -> None:
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            fh.write(rec.csv_row() + "\n")


def make_record(
    instance_id: int,
    seed: int,
    net: Network,
    k: int,
    algorithm: str,
    y: ChannelAssignment | None,
    proven_optimal: bool | None = None,
    started: float | None = None,
    stopped: float | None = None,
) -> ExperimentRecord:
    """One study row: ``y`` evaluated at ``k`` in ``auto`` mode (exact up to
    ``ODDSET_EXACT_CAP`` nodes, so on every oracle study instance).

    ``y is None`` (an exact solve found no feasible assignment) gives the
    row of an infeasible optimum: every load and the ratio ``inf``, ``beta``
    ``-inf``, ``feasible`` "no".
    ``runtime_ms`` runs from ``started`` (a ``time.perf_counter()`` reading;
    default: the start of this call) to ``stopped`` (default: the end of the
    evaluation).
    """
    t0 = time.perf_counter() if started is None else started
    l_tot = net.total_demand
    if y is None:
        m1 = m2_lo = m2_hi = cap_lo = cap_hi = ratio = math.inf
        beta, feasible = -math.inf, "no"
    else:
        rec, feas = evaluate(net, y, k)
        m1 = rec.m1
        m2_lo, m2_hi = rec.m2_lo, rec.m2_hi
        cap_lo, cap_hi = float(rec.capacity_lo), float(rec.capacity_hi)
        beta, feasible = float(feas.beta_lo), feas.feasible
        ratio = float(rec.capacity_hi / l_tot) if l_tot > 0 else 0.0
    t1 = time.perf_counter() if stopped is None else stopped
    return ExperimentRecord(
        instance_id=instance_id,
        seed=seed,
        n_nodes=net.n_nodes,
        n_edges=net.n_edges,
        n_channels=net.n_channels,
        k=k,
        algorithm=algorithm,
        m1=m1,
        m2_lo=m2_lo,
        m2_hi=m2_hi,
        capacity_lo=cap_lo,
        capacity_hi=cap_hi,
        beta=beta,
        l_tot=float(l_tot),
        ratio=ratio,
        runtime_ms=(t1 - t0) * 1000.0,
        assignment=y,
        feasible=feasible,
        proven_optimal=proven_optimal,
    )


def _run_tasks(tasks: list, fn, jobs: int) -> list:
    # never more workers than CPUs or tasks; results keep the task order
    workers = min(jobs, os.cpu_count() or 1, len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(tasks) // (workers * 4))
        return list(pool.map(fn, tasks, chunksize=chunk))


# -- one runner for the three studies ------------------------------------


def _run_study(
    task,
    extra: tuple,
    sizes: Sequence[int],
    channel_counts: Sequence[int],
    trials: int,
    seed: int,
    jobs: int,
    spec_overrides: dict | None,
    k_values: Sequence[int] = (),
) -> list[ExperimentRecord]:
    """The records of ``task((spec, instance_id, instance_seed) + extra)``
    over ``trials`` instances per (channel count, size) cell, cells in that
    order.  The axes, and for the oracle studies the sizes against the exact
    solvers' limit, are checked before any instance is drawn or any worker
    starts."""
    for name, axis in (
        ("sizes", sizes), ("channel counts", channel_counts), ("k values", k_values)
    ):
        if any(v < 1 for v in axis) or len(set(axis)) < len(axis):
            raise ValueError(f"{name} must be positive and distinct, got {list(axis)}")
    if task is _oracle_task:
        _check_size(max(sizes, default=0))
    cells = [
        replace(InstanceSpec(size, w), **(spec_overrides or {}))
        for w in channel_counts
        for size in sizes
    ]
    specs = [spec for spec in cells for _ in range(trials)]
    tasks = [
        (spec, i, derive_seed(seed, i)) + extra for i, spec in enumerate(specs)
    ]
    return [r for batch in _run_tasks(tasks, task, jobs) for r in batch]


def _scaling_task(args: tuple) -> list[ExperimentRecord]:
    spec, instance_id, seed, k = args
    started = time.perf_counter()
    net = generate_instance(spec, seed)
    y = ifa_assign(net)
    return [make_record(instance_id, seed, net, k, "ifa", y, started=started)]


def _oracle_task(args: tuple) -> list[ExperimentRecord]:
    """Per k: the optimum of ``problem`` ("whiterec" or "feasi"), then the
    greedy, ifa (when defined) and random schemes, all evaluated exactly."""
    spec, instance_id, seed, problem, k_values, budget = args
    net = generate_instance(spec, seed)
    schemes = [("greedy", greedy_assign(net)), ("random", random_assign(net, seed))]
    if net.n_channels > net.max_degree:
        schemes.insert(1, ("ifa", ifa_assign(net)))
    out: list[ExperimentRecord] = []
    for k in k_values:
        started = time.perf_counter()
        if problem == "whiterec":
            opt = solve_whiterec_exact(net, k, limit=budget)
        else:
            opt = solve_feasi_exact(net, limit=budget)
        out.append(
            make_record(
                instance_id, seed, net, k, "optimal", opt.best_assignment,
                opt.proven_optimal, started=started, stopped=time.perf_counter(),
            )
        )
        out += [
            make_record(instance_id, seed, net, k, name, y) for name, y in schemes
        ]
    return out


# -- the three studies ----------------------------------------------------


def _by_cell(records: list[ExperimentRecord]) -> dict[tuple, list[ExperimentRecord]]:
    """The records grouped by ``(n_channels, n_nodes, k)``, in record order."""
    cells: dict[tuple, list[ExperimentRecord]] = {}
    for r in records:
        cells.setdefault((r.n_channels, r.n_nodes, r.k), []).append(r)
    return cells


def _mean_and_count(pairs: Iterable[tuple[str, float]]) -> tuple[dict, dict]:
    """Per algorithm of the ``(algorithm, value)`` pairs, sorted by name: the
    mean value and the number of values."""
    values: dict[str, list[float]] = {}
    for alg, v in pairs:
        values.setdefault(alg, []).append(v)
    names = sorted(values)
    return (
        {alg: float(np.mean(values[alg])) for alg in names},
        {alg: len(values[alg]) for alg in names},
    )


def run_scaling_study(
    sizes: Sequence[int],
    channel_counts: Sequence[int],
    k: int,
    trials: int,
    seed: int = DEFAULT_MASTER_SEED,
    jobs: int = 1,
    spec_overrides: dict | None = None,
) -> tuple[list[ExperimentRecord], dict]:
    """Capacity-to-total-demand ratio of the coloring scheme as size grows.

    Fits log(mean ratio) against log(size) per channel count and reports the
    decay exponent (the negated slope).
    """
    records = _run_study(
        _scaling_task, (k,), sizes, channel_counts, trials, seed, jobs,
        spec_overrides, k_values=(k,),
    )
    by_cell = _by_cell(records)
    cells = []
    exponents = {}
    for w in channel_counts:
        log_sizes = []
        log_ratios = []
        for size in sizes:
            rs = [r.ratio for r in by_cell.get((w, size, k), [])]
            mean_ratio = float(np.mean(rs)) if rs else 0.0
            cells.append(
                {
                    "n_channels": w,
                    "n_nodes": size,
                    "trials": len(rs),
                    "mean_ratio": mean_ratio,
                }
            )
            if mean_ratio > 0:
                log_sizes.append(math.log(size))
                log_ratios.append(math.log(mean_ratio))
        if len(log_sizes) >= 2:
            slope = float(np.polyfit(log_sizes, log_ratios, 1)[0])
            exponents[str(w)] = -slope
    summary = {
        "kind": "scaling",
        "k": k,
        "sizes": list(sizes),
        "channel_counts": list(channel_counts),
        "trials": trials,
        "seed": seed,
        "cells": cells,
        "exponents": exponents,
    }
    return records, summary


def run_gap_study(
    sizes: Sequence[int],
    channel_counts: Sequence[int],
    k_values: Sequence[int],
    trials: int,
    seed: int = DEFAULT_MASTER_SEED,
    budget: int = DEFAULT_STUDY_BUDGET,
    jobs: int = 1,
    spec_overrides: dict | None = None,
) -> tuple[list[ExperimentRecord], dict]:
    """Capacity gap of each scheme versus the proven optimum, per cell.

    Instances whose exact solve runs out of budget, or that are infeasible,
    are flagged in the summary and excluded from the mean gaps.
    """
    records = _run_study(
        _oracle_task, ("whiterec", tuple(k_values), budget), sizes,
        channel_counts, trials, seed, jobs, spec_overrides, k_values=k_values,
    )
    by_cell = _by_cell(records)
    cells = []
    for w, size, k in product(channel_counts, sizes, k_values):
        cell = by_cell.get((w, size, k), [])
        opt = {r.instance_id: r for r in cell if r.algorithm == "optimal"}
        solved = {
            i: r.capacity_hi for i, r in opt.items()
            if r.proven_optimal and r.assignment is not None and r.capacity_hi > 0
        }
        mean_gap, counts = _mean_and_count(
            (r.algorithm, (r.capacity_hi - solved[r.instance_id]) / solved[r.instance_id])
            for r in cell
            if r.algorithm != "optimal" and r.instance_id in solved
        )
        cells.append(
            {
                "n_channels": w,
                "n_nodes": size,
                "k": k,
                "trials": len(opt),
                "solved": len(solved),
                "exhausted": sum(not r.proven_optimal for r in opt.values()),
                "infeasible": sum(
                    r.proven_optimal and r.assignment is None for r in opt.values()
                ),
                "mean_gap": mean_gap,
                "gap_counts": counts,
            }
        )
    summary = {
        "kind": "gap",
        "sizes": list(sizes),
        "channel_counts": list(channel_counts),
        "k_values": list(k_values),
        "trials": trials,
        "seed": seed,
        "budget": budget,
        "cells": cells,
    }
    return records, summary


def run_traffic_study(
    sizes: Sequence[int],
    channel_counts: Sequence[int],
    trials: int,
    seed: int = DEFAULT_MASTER_SEED,
    budget: int = DEFAULT_STUDY_BUDGET,
    jobs: int = 1,
    spec_overrides: dict | None = None,
) -> tuple[list[ExperimentRecord], dict]:
    """Sustained traffic fraction min(beta, 1) of each scheme versus the
    best achievable margin."""
    records = _run_study(
        _oracle_task, ("feasi", (1,), budget), sizes, channel_counts, trials,
        seed, jobs, spec_overrides,
    )
    by_cell = _by_cell(records)
    cells = []
    for w, size in product(channel_counts, sizes):
        cell = by_cell.get((w, size, 1), [])
        opt = {r.instance_id: r for r in cell if r.algorithm == "optimal"}
        solved = {i for i, r in opt.items() if r.proven_optimal}
        mean_sustained, counts = _mean_and_count(
            (r.algorithm, min(r.beta, 1.0)) for r in cell if r.instance_id in solved
        )
        cells.append(
            {
                "n_channels": w,
                "n_nodes": size,
                "trials": len(opt),
                "solved": len(solved),
                "exhausted": len(opt) - len(solved),
                "mean_sustained": mean_sustained,
                "sustained_counts": counts,
            }
        )
    summary = {
        "kind": "traffic",
        "sizes": list(sizes),
        "channel_counts": list(channel_counts),
        "trials": trials,
        "seed": seed,
        "budget": budget,
        "cells": cells,
    }
    return records, summary
