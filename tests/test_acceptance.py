"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Everything here runs from fixed seeds.  Pools are sized at the stated
minimums; the two timed criteria also assert their runtime targets.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from brute import (
    best_partition_value,
    incident_edges,
    is_bipartite,
    sequential_proper_assignment,
)
from conftest import cli_env
from chanrec.assign import greedy_assign, ifa_assign, random_assign
from chanrec.experiments import (
    InstanceSpec,
    derive_seed,
    generate_instance,
    run_gap_study,
    run_scaling_study,
    run_traffic_study,
)
from chanrec.metrics import (
    IFA_CAPACITY_RATIO_BOUND,
    TOL,
    feasibility_ratio,
    greedy_capacity_ratio_bound,
    max_node_load,
    recovery_capacity,
)
from chanrec.netmodel import make_network, serialize_network
from chanrec.oracles import solve_whiterec_exact, solve_whiterecinf_exact

SEED = 0xC0FFEE


def _report(capsys, num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


# -- shared pools ----------------------------------------------------------


@pytest.fixture(scope="module")
def bracket_pool():
    """1000 random heterogeneous instances, all three schemes, exact mode."""
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    entries = []
    for i in range(1000):
        seed = derive_seed(SEED, i)
        spec = InstanceSpec(
            n_nodes=int(rng.integers(6, 15)),
            n_channels=int(rng.integers(2, 5)),
        )
        net = generate_instance(spec, seed)
        if net.n_edges == 0:
            continue
        schemes = {
            "greedy": greedy_assign(net),
            "ifa": ifa_assign(net),
            "random": random_assign(net, seed),
        }
        per_scheme = {}
        for name, y in schemes.items():
            reports = {
                k: recovery_capacity(net, y, k, mode="exact") for k in (1, 2, 3)
            }
            feas = feasibility_ratio(net, y, mode="exact")
            per_scheme[name] = (y, reports, feas)
        entries.append((net, per_scheme))
    return entries, time.perf_counter() - t0


def test_criterion_01_capacity_bracket(bracket_pool, capsys):
    entries, elapsed = bracket_pool
    checked = 0
    worst = 0.0
    for net, per_scheme in entries:
        for name, (y, reports, _) in per_scheme.items():
            for k, rep in reports.items():
                assert rep.m1 - TOL <= rep.capacity <= 1.5 * rep.m1 + TOL, (
                    name,
                    k,
                )
                if rep.m1 > 0:
                    worst = max(worst, rep.capacity / rep.m1)
                checked += 1
    ok = len(entries) >= 1000 and elapsed < 60.0
    _report(
        capsys,
        1,
        ok,
        f"{len(entries)} instances x 3 schemes x k in 1..3 ({checked} checks), "
        f"max capacity/m1 = {worst:.4f}, pool built in {elapsed:.1f}s (< 60s)",
    )


def _bipartite_instance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 13))
    side = rng.integers(0, 2, size=n)
    if side.min() == side.max():
        side[0] = 1 - side[0]
    pairs = [
        (u, v) for u in range(n) for v in range(u + 1, n) if side[u] != side[v]
    ]
    deg = [0] * n
    edges = []
    for i in rng.permutation(len(pairs)):
        u, v = pairs[int(i)]
        if rng.random() < 0.6 and deg[u] < 8 and deg[v] < 8:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    if not edges:
        return None
    w = int(rng.integers(2, 5))
    demands = [float(rng.uniform(1.0, 100.0)) for _ in edges]
    cap = [[float(rng.uniform(75.0, 200.0))] * len(edges) for _ in range(w)]
    return make_network(n, edges, demands, w, capacity=cap)


def test_criterion_02_bipartite_collapse(capsys):
    count = 0
    i = 0
    while count < 500:
        net = _bipartite_instance(derive_seed(SEED + 1, i))
        i += 1
        if net is None:
            continue
        assert is_bipartite(net)
        for y in (greedy_assign(net), ifa_assign(net), random_assign(net, i)):
            for k in (1, 2, 3):
                rep = recovery_capacity(net, y, k, mode="exact")
                assert rep.m2 <= rep.m1 + TOL, (i, k)
        count += 1
    _report(capsys, 2, count >= 500, f"{count} bipartite instances, m2 <= m1 throughout")


def test_criterion_03_feasibility_bracket(bracket_pool, capsys):
    entries, _ = bracket_pool
    for net, per_scheme in entries:
        rmin = min(min(row) for row in net.capacity)
        rmax = max(max(row) for row in net.capacity)
        for name, (y, reports, feas) in per_scheme.items():
            c1 = reports[1].capacity
            assert rmin / c1 - TOL <= feas.beta_lo <= rmax / c1 + TOL, name
    # homogeneous twins: both bounds collapse to equality
    eq_checked = 0
    for net, per_scheme in entries[:400]:
        rng = np.random.default_rng(net.n_edges * 7 + net.n_nodes)
        r = float(rng.uniform(75.0, 200.0))
        twin = make_network(
            net.n_nodes, net.edges, net.demands, net.n_channels, capacity=r
        )
        for name, (y, _, _) in per_scheme.items():
            c1 = recovery_capacity(twin, y, 1, mode="exact").capacity
            beta = feasibility_ratio(twin, y, mode="exact").beta_lo
            assert abs(beta - r / c1) <= 1e-9 * max(1.0, beta), name
            eq_checked += 1
    _report(
        capsys,
        3,
        True,
        f"beta within [Rmin,Rmax]/C(y,1) on {len(entries)} instances; "
        f"equality on {eq_checked} homogeneous evaluations",
    )


def test_criterion_04_interference_free_node_term(capsys):
    count = 0
    i = 0
    while count < 200:
        seed = derive_seed(SEED + 2, i)
        i += 1
        net = generate_instance(
            InstanceSpec(n_nodes=6 + i % 6, n_channels=7, degree_cap=3, edge_prob=0.5),
            seed,
        )
        if net.n_edges == 0 or net.n_channels <= net.max_degree:
            continue
        ya = ifa_assign(net)
        yb = sequential_proper_assignment(net, np.random.default_rng(seed))
        yr = random_assign(net, seed)
        for k in (1, 2, 3):
            a, _ = max_node_load(net, ya, k)
            b, _ = max_node_load(net, yb, k)
            r, _ = max_node_load(net, yr, k)
            assert abs(a - b) <= TOL, (i, k)
            assert a <= r + TOL, (i, k)
        count += 1
    _report(
        capsys, 4, count >= 200,
        f"{count} instances: independent interference-free assignments share m1, "
        "and never exceed the random scheme",
    )


@pytest.fixture(scope="module")
def oracle_pool():
    """Proven-feasible instances with |E| <= 10, |W| = 3 > d_max, homogeneous
    capacity, plus exact optima for k in 1..3."""
    entries = []
    i = 0
    while len(entries) < 300 and i < 1200:
        seed = derive_seed(SEED + 3, i)
        i += 1
        rng = np.random.default_rng(seed)
        r = float(rng.uniform(75.0, 200.0))
        spec = InstanceSpec(
            n_nodes=int(rng.integers(6, 11)),
            n_channels=3,
            degree_cap=2,
            capacity_range=(r, r),
        )
        net = generate_instance(spec, seed)
        if net.n_edges == 0 or net.n_edges > 10:
            continue
        opts = {}
        feasible = True
        for k in (1, 2, 3):
            res = solve_whiterec_exact(net, k)
            assert res.proven_optimal
            if res.infeasible:
                feasible = False
                break
            opts[k] = res
        if not feasible:
            continue
        entries.append((net, opts))
    return entries


def test_criterion_05_coloring_scheme_optimality(oracle_pool, capsys):
    entries = oracle_pool
    assert len(entries) >= 300
    bip = 0
    for net, opts in entries:
        y = ifa_assign(net)
        c1 = recovery_capacity(net, y, 1, mode="exact").capacity
        assert abs(c1 - opts[1].objective) <= TOL  # (i) single preemption
        if is_bipartite(net):
            bip += 1
            for k in (1, 2, 3):  # (iii) bipartite, any preemption level
                ck = recovery_capacity(net, y, k, mode="exact").capacity
                assert abs(ck - opts[k].objective) <= TOL

    # (ii) uniform demands with k up to the maximum degree
    uni = 0
    k2 = 0
    i = 0
    while uni < 150 and i < 600:
        seed = derive_seed(SEED + 4, i)
        i += 1
        rng = np.random.default_rng(seed)
        r = float(rng.uniform(10.0, 100.0))
        cap = float(rng.uniform(150.0, 400.0))
        spec = InstanceSpec(
            n_nodes=int(rng.integers(6, 11)),
            n_channels=3,
            degree_cap=2,
            demand_range=(r, r),
            capacity_range=(cap, cap),
        )
        net = generate_instance(spec, seed)
        if net.n_edges == 0 or net.n_edges > 10:
            continue
        y = ifa_assign(net)
        counted = False
        for k in range(1, net.max_degree + 1):
            res = solve_whiterec_exact(net, k)
            assert res.proven_optimal
            if res.infeasible:
                break
            ck = recovery_capacity(net, y, k, mode="exact").capacity
            assert abs(ck - res.objective) <= TOL, (i, k)
            counted = True
            if k == 2:
                k2 += 1
        uni += counted
    _report(
        capsys,
        5,
        len(entries) >= 300 and bip >= 100 and uni >= 150 and k2 >= 50,
        f"{len(entries)} solved instances: k=1 equality everywhere; "
        f"bipartite equality on {bip}; uniform-demand equality on {uni} "
        f"({k2} reaching k=2)",
    )


def test_criterion_06_interference_free_ratio(oracle_pool, capsys):
    worst = 0.0
    for net, opts in oracle_pool:
        y = ifa_assign(net)
        for k in (1, 2, 3):
            ck = recovery_capacity(net, y, k, mode="exact").capacity
            assert ck <= IFA_CAPACITY_RATIO_BOUND * opts[k].objective + TOL, k
            worst = max(worst, ck / opts[k].objective)
    _report(
        capsys, 6, True,
        f"C(ifa,k) <= 1.25 * optimum on {len(oracle_pool)} instances, "
        f"worst observed ratio {worst:.4f}",
    )


def test_criterion_07_greedy_ratio_and_lower_bound(oracle_pool, capsys):
    rho = greedy_capacity_ratio_bound(3)
    worst = 0.0
    for net, opts in oracle_pool:
        y = greedy_assign(net)
        beta = feasibility_ratio(net, y, mode="exact").beta_lo
        rmin = min(min(row) for row in net.capacity)
        rmax = max(max(row) for row in net.capacity)
        assert beta >= rmin / rmax / rho - TOL
        busiest = max(
            sum(net.demands[e] for e in incident_edges(net, v))
            for v in range(net.n_nodes)
        )
        for k in (1, 2, 3):
            ck = recovery_capacity(net, y, k, mode="exact").capacity
            assert ck <= rho * opts[k].objective + TOL, k
            worst = max(worst, ck / opts[k].objective)
            assert opts[k].objective >= min(k, 3) / 3 * busiest - 1e-9, k
    _report(
        capsys, 7, True,
        f"greedy within rho={rho:.2f} of optimum (worst {worst:.4f}), "
        f"beta and busiest-node lower bounds hold on {len(oracle_pool)} instances",
    )


def test_criterion_08_partition_cross_check(capsys):
    rng = np.random.default_rng(SEED + 5)
    exact_matches = 0
    for trial in range(100):
        n_leaves = int(rng.integers(2, 11))
        demands = [float(rng.integers(1, 80)) for _ in range(n_leaves)]
        star = make_network(
            n_leaves + 1,
            [(0, i + 1) for i in range(n_leaves)],
            demands,
            2,
            capacity=1e9,
        )
        res = solve_whiterecinf_exact(star, 1)
        assert res.proven_optimal
        expected = best_partition_value(demands)
        assert res.objective == expected, (trial, demands)
        exact_matches += 1
    _report(
        capsys, 8, exact_matches == 100,
        f"{exact_matches} star instances match the subset-sum partition value exactly",
    )


def test_criterion_09_scaling_law(capsys):
    sizes = list(range(20, 201, 20))
    t0 = time.perf_counter()
    records, summary = run_scaling_study(
        sizes=sizes, channel_counts=[3, 5], k=2, trials=100, seed=SEED + 6
    )
    elapsed = time.perf_counter() - t0
    exps = summary["exponents"]
    tail = {
        c["n_channels"]: c["mean_ratio"]
        for c in summary["cells"]
        if c["n_nodes"] == 200
    }
    ok = (
        all(0.8 <= exps[str(w)] <= 1.3 for w in (3, 5))
        and all(v < 0.02 for v in tail.values())
        and elapsed < 600.0
    )
    _report(
        capsys, 9, ok,
        f"exponents a = {exps['3']:.3f} (|W|=3), {exps['5']:.3f} (|W|=5) in [0.8, 1.3]; "
        f"mean ratio at |V|=200: {tail[3]:.4f}, {tail[5]:.4f} (< 0.02); "
        f"{len(records)} runs in {elapsed:.0f}s (< 600s)",
    )


@pytest.fixture(scope="module")
def gap_summary():
    return run_gap_study(
        sizes=[6, 8, 10],
        channel_counts=[2, 3],
        k_values=[1],
        trials=200,
        seed=SEED + 7,
        spec_overrides={"degree_cap": 2, "capacity_range": (150.0, 150.0)},
    )


def test_criterion_10_gap_ordering(gap_summary, capsys):
    _, summary = gap_summary
    details = []
    ok = True
    for cell in summary["cells"]:
        solved = cell["solved"]
        ok = ok and solved >= 50
        gaps = cell["mean_gap"]
        ok = ok and gaps["random"] >= gaps["greedy"] - TOL
        ok = ok and gaps["greedy"] <= 0.30
        if cell["n_channels"] == 3:
            # 3 channels vs degree cap 2: the coloring scheme is defined and
            # lands exactly on the optimum at k=1
            ok = ok and cell["gap_counts"]["ifa"] == solved
            ok = ok and abs(gaps["ifa"]) <= TOL
            ok = ok and gaps["greedy"] >= gaps["ifa"] - TOL
        details.append(
            f"|V|={cell['n_nodes']},|W|={cell['n_channels']}: solved {solved}, "
            f"greedy {gaps['greedy']:.3f}, random {gaps['random']:.3f}"
        )
    _report(capsys, 10, ok, "; ".join(details))


def test_criterion_11_sustained_traffic(capsys):
    records, summary = run_traffic_study(
        sizes=[6, 8, 10],
        channel_counts=[2, 3],
        trials=200,
        seed=SEED + 8,
        spec_overrides={"degree_cap": 2, "capacity_range": (150.0, 150.0)},
    )
    by_instance = {}
    for r in records:
        by_instance.setdefault(r.instance_id, {})[r.algorithm] = r
    ok = True
    ifa_full = 0
    ifa_feasible = 0
    means = {}
    for cell in summary["cells"]:
        key = (cell["n_nodes"], cell["n_channels"])
        schemes = ["optimal", "greedy", "random"] + (
            ["ifa"] if cell["n_channels"] == 3 else []
        )
        common = [
            rows
            for rows in by_instance.values()
            if all(s in rows for s in schemes)
            and rows["optimal"].n_nodes == key[0]
            and rows["optimal"].n_channels == key[1]
            and rows["optimal"].proven_optimal
        ]
        ok = ok and len(common) >= 50
        mean = {
            s: float(np.mean([min(rows[s].beta, 1.0) for rows in common]))
            for s in schemes
        }
        means[key] = mean
        ok = ok and mean["optimal"] >= mean["greedy"] - TOL
        ok = ok and mean["greedy"] >= mean["random"] - TOL
        if "ifa" in mean:
            ok = ok and mean["optimal"] >= mean["ifa"] - TOL
            ok = ok and mean["ifa"] >= mean["greedy"] - TOL
        # feasible homogeneous instances with spare channels sustain everything
        for rows in common:
            if "ifa" in rows and rows["optimal"].beta >= 1.0 - TOL:
                ifa_feasible += 1
                if rows["ifa"].beta >= 1.0 - TOL:
                    ifa_full += 1
    ok = ok and ifa_feasible > 100 and ifa_full == ifa_feasible
    sample = means[(10, 3)]
    _report(
        capsys, 11, ok,
        f"sustained ordering holds per cell (e.g. |V|=10,|W|=3: "
        f"opt {sample['optimal']:.3f} >= ifa {sample['ifa']:.3f} >= "
        f"greedy {sample['greedy']:.3f} >= random {sample['random']:.3f}); "
        f"ifa sustains 100% on {ifa_full}/{ifa_feasible} feasible instances",
    )


def test_criterion_12_cli_determinism(tmp_path, capsys):
    net = generate_instance(InstanceSpec(n_nodes=9, n_channels=3), 424242)
    net_path = tmp_path / "net.json"
    net_path.write_text(serialize_network(net))
    big = generate_instance(InstanceSpec(n_nodes=30, n_channels=3), 424243)
    big_path = tmp_path / "big.json"
    big_path.write_text(serialize_network(big))

    def run(args):
        proc = subprocess.run(
            [sys.executable, "-m", "chanrec.cli"] + args,
            capture_output=True,
            cwd=tmp_path,
            env=cli_env(),
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    y_path = tmp_path / "y.json"
    invocations = [
        ["assign", "--net", str(net_path), "--alg", "greedy", "--out", str(y_path)],
        ["assign", "--net", str(net_path), "--alg", "random", "--seed", "5"],
        ["eval", "--net", str(net_path), "--assignment", str(y_path), "--k", "2"],
        ["oracle", "--net", str(net_path), "--problem", "whiterec", "--k", "1"],
        ["oracle", "--net", str(net_path), "--problem", "feasi"],
    ]
    checked = 0
    for args in invocations:
        assert run(args) == run(args), args
        checked += 1

    study = [
        "study", "--kind", "gap", "--sizes", "6,8", "--channels", "3",
        "--k-values", "1", "--trials", "5",
        "--degree-cap", "2", "--capacity-range", "150", "150",
    ]
    outs = []
    for tag, jobs in (("a", "8"), ("b", "8"), ("c", "1")):
        csv_p = tmp_path / f"{tag}.csv"
        sum_p = tmp_path / f"{tag}.json"
        run(study + ["--jobs", jobs, "--out", str(csv_p), "--summary", str(sum_p)])
        outs.append((csv_p.read_bytes(), sum_p.read_bytes()))
    assert outs[0] == outs[1] == outs[2]
    checked += 1

    # bracket-mode eval on a larger instance
    big_y = tmp_path / "big_y.json"
    run(["assign", "--net", str(big_path), "--alg", "ifa", "--out", str(big_y)])
    a = run(["eval", "--net", str(big_path), "--assignment", str(big_y)])
    b = run(["eval", "--net", str(big_path), "--assignment", str(big_y)])
    assert a == b and json.loads(a)["mode"] == "bracket"
    checked += 1

    _report(
        capsys, 12, True,
        f"{checked} invocation families byte-identical across repeats, "
        "study output unchanged between --jobs 8 and --jobs 1",
    )
