"""Exact solvers against full enumeration and the reduction cross-checks."""

import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brute import (
    all_assignments,
    best_partition_value,
    brute_beta,
    brute_capacity,
    brute_m1,
    incident_edges,
    induced_edges,
    is_bipartite,
    items_pack,
)
from chanrec import oracles
from chanrec.experiments import InstanceSpec, generate_instance
from chanrec.metrics import ODDSET_EXACT_CAP, TOL, feasibility_ratio, recovery_capacity
from chanrec.netmodel import make_network
from chanrec.oracles import (
    solve_feasi_exact,
    solve_whiterec_exact,
    solve_whiterecinf_exact,
)
from record_oracle_golden import GOLDEN_PATH, case_network, solve_all


def test_triangle_with_three_channels():
    k3 = make_network(3, [(0, 1), (0, 2), (1, 2)], [1.0] * 3, 3, capacity=1.0)
    res = solve_whiterec_exact(k3, 1)
    assert res.objective == 1.0
    assert res.proven_optimal and res.explored >= 1
    assert res.best_assignment is not None
    assert len(set(res.best_assignment.channel_of)) == 3


def test_triangle_single_channel_odd_set_drives_value():
    k3 = make_network(3, [(0, 1), (0, 2), (1, 2)], [1.0] * 3, 1)
    res = solve_whiterecinf_exact(k3, 1)
    assert res.objective == 3.0  # the whole triangle on one channel


def test_infeasible_star_is_reported():
    star = make_network(4, [(0, 1), (0, 2), (0, 3)], [1.0] * 3, 1, capacity=2.0)
    res = solve_whiterec_exact(star, 1)
    assert res.infeasible
    assert res.best_assignment is None and res.proven_optimal
    assert math.isinf(res.objective)
    doc = res.to_json_dict(star)
    assert doc["objective"] is None and doc["assignment"] is None
    assert doc["proven_optimal"] is True


def test_budget_exhaustion_flags_result():
    net = make_network(
        6,
        [(i, j) for i in range(6) for j in range(i + 1, 6)],
        [1.0] * 15,
        3,
        capacity=1e9,
    )
    res = solve_whiterec_exact(net, 1, limit=1)
    assert not res.proven_optimal
    assert res.best_assignment is not None  # incumbent from the seeded schemes
    full = solve_whiterec_exact(net, 1)
    assert full.proven_optimal
    assert full.objective <= res.objective + TOL


def test_oracle_rejects_oversized_instances():
    big = make_network(ODDSET_EXACT_CAP + 1, [(0, 1)], [1.0], 2)
    with pytest.raises(ValueError):
        solve_whiterec_exact(big, 1)


def test_result_json_shape():
    k3 = make_network(3, [(0, 1), (0, 2), (1, 2)], [1.0] * 3, 2, capacity=10.0)
    doc = solve_whiterec_exact(k3, 1).to_json_dict(k3)
    assert list(doc) == ["objective", "proven_optimal", "explored", "assignment"]
    assert set(doc["assignment"]) == {"0", "1", "2"}
    assert all(v in ("w0", "w1") for v in doc["assignment"].values())


def test_star_partition_cross_check():
    rng = np.random.default_rng(31)
    for trial in range(40):
        n_leaves = int(rng.integers(2, 9))
        demands = [float(rng.integers(1, 60)) for _ in range(n_leaves)]
        star = make_network(
            n_leaves + 1,
            [(0, i + 1) for i in range(n_leaves)],
            demands,
            2,
            capacity=1e9,
        )
        res = solve_whiterecinf_exact(star, 1)
        assert res.proven_optimal
        assert res.objective == best_partition_value(demands), trial


def test_star_bin_packing_cross_check():
    rng = np.random.default_rng(37)
    agree_feasible = 0
    for trial in range(60):
        n_items = int(rng.integers(2, 8))
        m_bins = int(rng.integers(1, 4))
        volumes = [float(rng.integers(1, 11)) / 10.0 for _ in range(n_items)]
        star = make_network(
            n_items + 1,
            [(0, i + 1) for i in range(n_items)],
            volumes,
            m_bins,
            capacity=1.0,
        )
        res = solve_feasi_exact(star)
        assert res.proven_optimal
        packs = items_pack(volumes, m_bins, 1.0)
        assert (res.objective >= 1.0 - TOL) == packs, (trial, volumes, m_bins)
        agree_feasible += packs
    assert 0 < agree_feasible < 60  # both outcomes exercised


def _tiny_instances(seed, count, max_edges=7):
    rng = np.random.default_rng(seed)
    made = 0
    while made < count:
        spec = InstanceSpec(
            n_nodes=int(rng.integers(3, 6)),
            n_channels=int(rng.integers(1, 4)),
        )
        net = generate_instance(spec, int(rng.integers(0, 2**63)))
        if net.n_edges == 0 or net.n_edges > max_edges:
            continue
        made += 1
        yield net


def test_whiterec_matches_full_enumeration():
    for i, net in enumerate(_tiny_instances(41, 25)):
        # |W| <= 3, so k = 3 runs the cut = 0 path
        for k in (1, 2, 3):
            res = solve_whiterec_exact(net, k)
            assert res.proven_optimal
            best = math.inf
            for y in all_assignments(net):
                if brute_beta(net, y) >= 1.0 - TOL:
                    best = min(best, brute_capacity(net, y, k))
            if math.isinf(best):
                assert res.infeasible, i
            else:
                assert abs(res.objective - best) < 1e-9, i
                # returned assignment really attains the optimum and is feasible
                y = res.best_assignment
                assert abs(brute_capacity(net, y, k) - best) < 1e-9
                assert brute_beta(net, y) >= 1.0 - TOL


def test_whiterecinf_matches_full_enumeration_and_relaxation_order():
    for i, net in enumerate(_tiny_instances(43, 25)):
        # |W| <= 3, so k = 3 runs the cut = 0 path
        for k in (1, 2, 3):
            res = solve_whiterecinf_exact(net, k)
            assert res.proven_optimal
            best = min(brute_capacity(net, y, k) for y in all_assignments(net))
            assert abs(res.objective - best) < 1e-9, i
            strict = solve_whiterec_exact(net, k)
            assert res.objective <= strict.objective + TOL


def test_feasi_matches_full_enumeration():
    for i, net in enumerate(_tiny_instances(47, 25)):
        res = solve_feasi_exact(net)
        assert res.proven_optimal
        best = max(brute_beta(net, y) for y in all_assignments(net))
        assert abs(res.objective - best) < 1e-9 * max(1.0, best), i
        assert abs(brute_beta(net, res.best_assignment) - best) < 1e-9 * max(1.0, best)


def test_lower_bound_on_optimum():
    # the busiest node spreads its demand over at most |W| channels, so any
    # k of them carry at least a k/|W| share
    for net in _tiny_instances(53, 20):
        dmax = max(
            sum(net.demands[e] for e in incident_edges(net, v))
            for v in range(net.n_nodes)
        )
        for k in (1, 2):
            res = solve_whiterecinf_exact(net, k)
            bound = min(k, net.n_channels) / net.n_channels * dmax
            assert res.objective >= bound - 1e-9


def test_bipartite_optimum_is_node_term_optimum():
    rng = np.random.default_rng(59)
    done = 0
    while done < 15:
        spec = InstanceSpec(n_nodes=int(rng.integers(3, 6)), n_channels=2)
        net = generate_instance(spec, int(rng.integers(0, 2**63)))
        if net.n_edges == 0 or net.n_edges > 7 or not is_bipartite(net):
            continue
        for k in (1, 2):
            res = solve_whiterecinf_exact(net, k)
            only_m1 = min(brute_m1(net, y, k) for y in all_assignments(net))
            assert abs(res.objective - only_m1) < 1e-9
        done += 1


def test_homogeneous_feasi_equals_capacity_reciprocal():
    rng = np.random.default_rng(61)
    for net in _tiny_instances(61, 15):
        homog = make_network(
            net.n_nodes,
            net.edges,
            net.demands,
            net.n_channels,
            capacity=float(rng.integers(50, 200)),
        )
        beta = solve_feasi_exact(homog).objective
        c_min = solve_whiterecinf_exact(homog, 1).objective
        r = homog.capacity[0][0]
        assert abs(beta - r / c_min) < 1e-9 * max(1.0, beta)


def test_oracle_is_deterministic():
    net = next(iter(_tiny_instances(67, 1)))
    a = solve_whiterec_exact(net, 2)
    b = solve_whiterec_exact(net, 2)
    assert a == b
    fa = solve_feasi_exact(net)
    fb = solve_feasi_exact(net)
    assert fa == fb


def test_oracles_match_golden_file():
    # objective bits, leaf counts, flags and assignments recorded by
    # tests/record_oracle_golden.py; a diff means the search itself changed
    cases = json.loads(GOLDEN_PATH.read_text())
    assert len(cases) == 84
    for case in cases:
        assert solve_all(case_network(case)) == case["solves"], case["seed"]


def test_edgeless_instances():
    net = make_network(4, [], [], 2)
    res = solve_whiterec_exact(net, 1)
    assert res.objective == 0.0 and res.proven_optimal
    assert res.best_assignment is not None and len(res.best_assignment) == 0
    feas = solve_feasi_exact(net)
    assert math.isinf(feas.objective) and feas.proven_optimal


@pytest.mark.parametrize(
    "solve",
    [
        lambda net: solve_whiterec_exact(net, 1),
        lambda net: solve_whiterecinf_exact(net, 1),
        solve_feasi_exact,
    ],
    ids=["whiterec", "whiterecinf", "feasi"],
)
def test_each_solve_builds_the_odd_set_table_once(solve, monkeypatch):
    # whiterec's capacity and margin problems share one (odd set, edge)
    # table; a second copy costs tens of MiB at 18 nodes
    calls = []
    build = oracles._odd_membership

    def counted(net):
        calls.append(net)
        return build(net)

    monkeypatch.setattr(oracles, "_odd_membership", counted)
    net = generate_instance(InstanceSpec(7, 2), 11)
    assert net.n_edges > 0
    assert solve(net).proven_optimal
    assert len(calls) == 1


def test_odd_membership_matches_induced_edges():
    rng = np.random.default_rng(3)
    for n in range(1, 9):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        net = make_network(n, pairs, [1.0] * len(pairs), 2)
        member, sizes = oracles._odd_membership(net)
        odd = [
            [v for v in range(n) if mask >> v & 1]
            for mask in range(1 << n)
            if bin(mask).count("1") % 2 == 1 and bin(mask).count("1") >= 3
        ]
        expected = np.zeros((len(odd), net.n_edges))
        for row, nodes in enumerate(odd):
            expected[row, list(induced_edges(net, nodes))] = 1.0
        assert member.dtype == np.float64 and member.flags.c_contiguous
        assert np.array_equal(member, expected)
        assert sizes.tolist() == [len(nodes) for nodes in odd]


# a triangle on three channels: the leaves' odd set {0, 1, 2} leaves at least
# one channel cell unloaded, so its margin divides by zero
TRIANGLE = make_network(3, [(0, 1), (0, 2), (1, 2)], [1.0] * 3, 3, capacity=2.0)


@pytest.mark.parametrize(
    "solve",
    [
        lambda net: solve_whiterec_exact(net, 1),
        lambda net: solve_whiterecinf_exact(net, 1),
        solve_feasi_exact,
    ],
    ids=["whiterec", "whiterecinf", "feasi"],
)
def test_unloaded_odd_set_cells_raise_no_warning(solve):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve(TRIANGLE)
    assert res.proven_optimal and res.best_assignment is not None


def test_solves_leave_the_numpy_error_state_as_they_found_it():
    before = np.geterr()
    solve_feasi_exact(TRIANGLE)
    solve_whiterec_exact(TRIANGLE, 1)
    assert np.geterr() == before
    big = make_network(ODDSET_EXACT_CAP + 1, [(0, 1)], [1.0], 2)
    with pytest.raises(ValueError):
        solve_feasi_exact(big)
    assert np.geterr() == before
    # a caller's stricter setting holds around the solve, not inside it
    with np.errstate(all="raise"):
        strict = np.geterr()
        assert solve_feasi_exact(TRIANGLE).proven_optimal
        assert np.geterr() == strict


@st.composite
def place_stacks(draw):
    """A small network with tenths demands and a program of steps
    ``(push, edge pick, channel, reject)`` for :func:`_capacity`'s place and
    unplace."""
    n = draw(st.integers(min_value=2, max_value=5))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    tenths = st.integers(min_value=1, max_value=30).map(lambda i: i / 10)
    demands = draw(st.lists(tenths, min_size=len(edges), max_size=len(edges)))
    net = make_network(n, edges, demands, draw(st.integers(min_value=1, max_value=4)))
    step = st.tuples(st.booleans(), st.integers(0, 63), st.integers(0, 3), st.booleans())
    return net, draw(st.lists(step, min_size=20, max_size=60))


# node 0's load on w0 drifts up from 0.1 to 0.1 + 0.2 - 0.2 while the bound
# still reads 0.1; the next place, on w1, must see the drifted load
DRIFT = (
    make_network(4, [(0, 1), (0, 2), (0, 3)], [0.1, 0.2, 0.1], 2),
    [(True, 0, 0, False), (True, 0, 0, True), (True, 1, 1, False)],
)


@settings(max_examples=300, deadline=None)
@given(place_stacks(), st.sampled_from(["one", "all"]))
@example(DRIFT, "one")
def test_capacity_node_bound_is_bit_exact_under_residual_drift(case, level):
    # the search's place/unplace with a shadow of its loads: every bound is
    # the parent's bound or an endpoint's top-k sum, ascending, on the loads
    # as they stand, including the -= residuals of rejected and undone places
    net, steps = case
    w = net.n_channels
    k = 1 if level == "one" else w
    cut = w - k
    member, sizes = oracles._odd_membership(net)
    problem = oracles._capacity(net, k, member, sizes, None)
    shadow = [[0.0] * w for _ in range(net.n_nodes)]
    # 0.0 rather than the search's floor, so that drifted loads reach the bound
    stack = [(None, None, (0.0, math.inf))]
    for push, pick, ww, reject in steps:
        free = [e for e in range(net.n_edges) if e not in {f[0] for f in stack}]
        if push and free:
            e, ww = free[pick % len(free)], ww % w
            u, v = net.edges[e]
            r = net.demands[e]
            state = stack[-1][2]
            shadow[u][ww] += r
            shadow[v][ww] += r
            want = max(state[0], sum(sorted(shadow[u])[cut:]), sum(sorted(shadow[v])[cut:]))
            child = problem.place(e, ww, state, want if reject else math.inf)
            if reject:
                assert child is None
                shadow[u][ww] -= r
                shadow[v][ww] -= r
            else:
                assert child[0].hex() == want.hex()
                stack.append((e, ww, child))
        elif len(stack) > 1:
            e, ww, _ = stack.pop()
            problem.unplace(e, ww)
            u, v = net.edges[e]
            shadow[u][ww] -= net.demands[e]
            shadow[v][ww] -= net.demands[e]
        # undoing in stack order can leave a load a rounding residual below
        # zero, but never at -0.0, where 0.0 + max would differ from max
        for x in itertools.chain.from_iterable(shadow):
            assert x > -1e-12 and (x != 0.0 or math.copysign(1.0, x) == 1.0)


def test_margin_place_guards_a_load_undone_below_zero():
    # ((3.0 + 2.1) - 2.1) - 3.0 is -2^-51, so node 0's load on w0 ends below
    # zero, and the tiny link's rho brings it back to exactly 0.0
    tiny = -(((3.0 + 2.1) - 2.1) - 3.0)
    net = make_network(4, [(0, 1), (0, 2), (0, 3)], [3.0, 2.1, tiny], 2)
    member, sizes = oracles._odd_membership(net)
    problem = oracles._margin(net, member, (sizes - 1.0) / 2.0)
    root = (problem.floor, math.inf)
    child = problem.place(0, 0, root, math.inf)
    problem.place(1, 0, child, math.inf)
    problem.unplace(1, 0)
    problem.unplace(0, 0)
    # node 3 carries the tiny load; node 0's 0.0 is read as unloaded
    assert problem.place(2, 0, root, math.inf) == (-1.0 / tiny, 1.0 / tiny)


def test_whiterec_skips_the_infeasible_capacity_optimum():
    # A triangle of light links, each node with one heavy pendant link.  A
    # node stays at 10 only if the light links all avoid the heavy links'
    # channel.  Heavy links fit only on w1, and the light triangle on w0
    # overloads its odd set (1.2 > 1) though every node constraint holds
    # (0.8 <= 1).  The best feasible assignment moves one light link to w1,
    # at 10.1.
    light, heavy = [0.1] * 3, [10.0] * 3
    net = make_network(
        6,
        [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)],
        light + heavy,
        2,
        capacity=[[0.25] * 3 + [5.0] * 3, [1.0] * 3 + [20.0] * 3],
    )
    free = solve_whiterecinf_exact(net, 1)
    assert free.proven_optimal and free.objective == 10.0
    y = free.best_assignment.channel_of
    assert len(set(y[:3])) == 1 and len(set(y[3:])) == 1 and y[0] != y[3]
    assert feasibility_ratio(net, free.best_assignment).beta < 1.0 - TOL

    res = solve_whiterec_exact(net, 1)
    assert res.proven_optimal and res.objective == 10.1
    y = res.best_assignment.channel_of
    assert y[3:] == (1, 1, 1) and sorted(y[:3]) == [0, 0, 1]
    assert res.objective == recovery_capacity(net, res.best_assignment, 1).capacity
    assert feasibility_ratio(net, res.best_assignment).beta >= 1.0 - TOL
    best = min(
        brute_capacity(net, a, 1)
        for a in all_assignments(net)
        if brute_beta(net, a) >= 1.0 - TOL
    )
    assert res.objective == best
