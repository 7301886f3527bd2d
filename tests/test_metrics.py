"""Capacity and feasibility metrics against hand traces, explicit
enumeration, and the stated bounds."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import (
    brute_beta,
    brute_capacity,
    brute_m1,
    brute_m2,
    is_bipartite,
    node_channel_load,
)
from chanrec import metrics
from chanrec.assign import random_assign
from chanrec.experiments import InstanceSpec, generate_instance
from chanrec.metrics import (
    IFA_CAPACITY_RATIO_BOUND,
    ODDSET_CAP_LIMIT,
    ODDSET_EXACT_CAP,
    TOL,
    capacity_floor,
    channel_load_at_node,
    feasibility_ratio,
    greedy_capacity_ratio_bound,
    is_feasible,
    is_interference_free,
    max_node_load,
    max_odd_set_load_bracket,
    max_odd_set_load_exact,
    recovery_capacity,
)
from chanrec.netmodel import ChannelAssignment, make_network
from record_metrics_golden import GOLDEN_PATH, case_assignment, evaluate

# -- fixed micro-instances ------------------------------------------------

PATH = make_network(4, [(0, 1), (1, 2), (2, 3)], [1.0, 1.0, 1.0], 2)
Y_ADJACENT = ChannelAssignment((0, 0, 1))  # e0,e1 share a channel at node 1
Y_SPREAD = ChannelAssignment((0, 1, 0))  # proper reuse on the outer edges
K3 = make_network(3, [(0, 1), (0, 2), (1, 2)], [1.0, 1.0, 1.0], 1)
K3_W3 = make_network(3, [(0, 1), (0, 2), (1, 2)], [1.0, 1.0, 1.0], 3)
Y_K3_ONE = ChannelAssignment((0, 0, 0))
Y_K3_IF = ChannelAssignment((0, 1, 2))


def test_channel_load_at_node():
    star = make_network(3, [(0, 1), (0, 2)], [2.0, 3.0], 2)
    y = ChannelAssignment((0, 0))
    assert channel_load_at_node(star, y, 0, 0) == 5.0
    assert channel_load_at_node(star, y, 0, 1) == 0.0
    assert channel_load_at_node(K3_W3, Y_K3_IF, 1, 0) in (0.0, 1.0)


def test_max_node_load_path():
    m1, wit = max_node_load(PATH, Y_ADJACENT, 1)
    assert m1 == 2.0
    assert wit.node == 1 and wit.channels == (0,)
    m1b, _ = max_node_load(PATH, Y_SPREAD, 1)
    assert m1b == 1.0


def test_max_node_load_all_channels_is_node_demand():
    for y in (Y_ADJACENT, Y_SPREAD):
        m1, _ = max_node_load(PATH, y, PATH.n_channels)
        assert m1 == 2.0  # busiest node carries both its edges
    with pytest.raises(ValueError):
        max_node_load(PATH, Y_ADJACENT, 0)


def test_odd_set_exact_k3():
    m2, wit = max_odd_set_load_exact(K3, Y_K3_ONE, 1)
    assert m2 == 3.0
    assert wit.nodes == (0, 1, 2) and wit.channels == (0,)
    m2_if, _ = max_odd_set_load_exact(K3_W3, Y_K3_IF, 1)
    assert m2_if == 1.0


def test_odd_set_cap_refusal():
    big = make_network(
        ODDSET_EXACT_CAP + 1, [(0, 1)], [1.0], 1
    )
    with pytest.raises(ValueError, match="bracket"):
        max_odd_set_load_exact(big, ChannelAssignment((0,)), 1)
    # explicit override still works; any 3-set around the edge carries it
    m2, _ = max_odd_set_load_exact(
        big, ChannelAssignment((0,)), 1, oddset_exact_cap=ODDSET_EXACT_CAP + 1
    )
    assert m2 == 1.0


def test_odd_set_cap_limit_checked_before_allocation(monkeypatch):
    def no_tables(n_nodes):
        raise AssertionError("odd-set tables allocated")

    monkeypatch.setattr(metrics, "_odd_masks", no_tables)
    over = ODDSET_CAP_LIMIT + 1
    for call in (
        lambda: max_odd_set_load_exact(K3, Y_K3_ONE, 1, oddset_exact_cap=over),
        lambda: recovery_capacity(K3, Y_K3_ONE, 1, oddset_exact_cap=over),
        lambda: feasibility_ratio(K3, Y_K3_ONE, oddset_exact_cap=over),
        lambda: feasibility_ratio(K3, Y_K3_ONE, "bracket", oddset_exact_cap=over),
    ):
        with pytest.raises(ValueError, match="exceeds the limit"):
            call()


def test_exact_reports_match_golden_file():
    # float bits and witnesses of exact reports recorded by
    # tests/record_metrics_golden.py; a diff means the enumeration changed
    cases = json.loads(GOLDEN_PATH.read_text())
    assert len(cases) == 45
    for case in cases:
        got = evaluate(*case_assignment(case))
        assert got == case["metrics"], (case["seed"], case["scheme"])


def test_recovery_capacity_examples():
    assert recovery_capacity(PATH, Y_ADJACENT, 1, mode="exact").capacity == 2.0
    assert recovery_capacity(PATH, Y_SPREAD, 1, mode="exact").capacity == 1.0
    rep = recovery_capacity(K3, Y_K3_ONE, 1, mode="exact")
    assert rep.capacity == 3.0 == 1.5 * rep.m1  # the 3/2 factor is tight here


def test_recovery_report_json_shapes():
    exact = recovery_capacity(K3, Y_K3_ONE, 1, mode="exact").to_json_dict()
    assert list(exact) == ["m1", "m2", "capacity", "k", "witness_m1", "witness_m2", "mode"]
    assert exact["mode"] == "exact" and exact["capacity"] == 3.0
    br = recovery_capacity(K3, Y_K3_ONE, 1, mode="bracket").to_json_dict()
    assert list(br) == ["m1", "m2_lo", "m2_hi", "capacity", "k", "witness_m1", "mode"]
    lo, hi = br["capacity"]
    assert lo <= 3.0 <= hi


def test_bracket_uses_tighter_factor_when_interference_free():
    rep = recovery_capacity(K3_W3, Y_K3_IF, 2, mode="bracket")
    lo, hi = rep.capacity
    exact = recovery_capacity(K3_W3, Y_K3_IF, 2, mode="exact").capacity
    assert lo <= exact <= hi
    assert hi <= max(lo, IFA_CAPACITY_RATIO_BOUND * rep.m1) + TOL


def test_edgeless_network():
    net = make_network(5, [], [], 2)
    rep = recovery_capacity(net, ChannelAssignment(()), 1, mode="exact")
    assert rep.capacity == 0.0 and rep.m1 == 0.0
    feas = feasibility_ratio(net, ChannelAssignment(()), mode="exact")
    assert math.isinf(feas.beta_lo) and feas.feasible == "yes"
    doc = feas.to_json_dict()
    assert doc["beta"] is None and doc["feasible"] == "yes"
    assert max_odd_set_load_bracket(make_network(2, [(0, 1)], [1.0], 1),
                                    ChannelAssignment((0,)), 1) == (0.0, 0.0)


def test_feasibility_star_examples():
    star = make_network(4, [(0, 1), (0, 2), (0, 3)], [1.0, 1.0, 1.0], 1)
    y = ChannelAssignment((0, 0, 0))
    tight = make_network(4, star.edges, star.demands, 1, capacity=2.0)
    loose = make_network(4, star.edges, star.demands, 1, capacity=3.0)
    assert feasibility_ratio(tight, y, mode="exact").feasible == "no"
    rep = feasibility_ratio(loose, y, mode="exact")
    assert rep.feasible == "yes" and abs(rep.beta_lo - 1.0) < TOL
    assert is_feasible(loose, y) == "yes"
    assert is_feasible(tight, y) == "no"


def test_feasibility_single_link():
    net = make_network(2, [(0, 1)], [10.0], 1, capacity=100.0)
    rep = feasibility_ratio(net, ChannelAssignment((0,)), mode="exact")
    assert rep.beta_lo == 10.0
    assert rep.to_json_dict() == {
        "z1": 10.0,
        "z2": None,
        "beta": 10.0,
        "feasible": "yes",
    }


def test_is_interference_free():
    assert is_interference_free(K3_W3, Y_K3_IF)
    assert not is_interference_free(PATH, Y_ADJACENT)
    assert is_interference_free(PATH, Y_SPREAD)  # non-adjacent reuse is fine


def test_ratio_bound_constants():
    assert greedy_capacity_ratio_bound(1) == 1.5
    assert greedy_capacity_ratio_bound(2) == 3.0
    assert abs(greedy_capacity_ratio_bound(3) - 3.5) < 1e-12


# -- randomized agreement with explicit enumeration -----------------------


def _random_net(rng, n_max=7, w_max=4, homogeneous=False, bipartite=False):
    while True:
        n = int(rng.integers(2, n_max + 1))
        side = rng.integers(0, 2, size=n) if bipartite else None
        pairs = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if not bipartite or side[u] != side[v]
        ]
        keep = [p for p in pairs if rng.random() < 0.55]
        if keep:
            break
    w = int(rng.integers(1, w_max + 1))
    demands = rng.integers(1, 801, size=len(keep)) / 8.0
    if homogeneous:
        cap = float(rng.integers(50, 4000)) / 8.0
    else:
        cap = [
            [float(rng.integers(50, 4000)) / 8.0 for _ in keep] for _ in range(w)
        ]
    return make_network(n, keep, demands.tolist(), w, capacity=cap)


def _random_assignment(rng, net):
    return ChannelAssignment(
        tuple(int(x) for x in rng.integers(0, net.n_channels, size=net.n_edges))
    )


def test_metrics_agree_with_enumeration():
    rng = np.random.default_rng(402)
    for trial in range(120):
        net = _random_net(rng)
        y = _random_assignment(rng, net)
        for k in (1, 2, 3):
            m1, _ = max_node_load(net, y, k)
            m2, _ = max_odd_set_load_exact(net, y, k)
            assert abs(m1 - brute_m1(net, y, k)) < 1e-9, trial
            assert abs(m2 - brute_m2(net, y, k)) < 1e-9, trial
            rep = recovery_capacity(net, y, k, mode="exact")
            assert abs(rep.capacity - brute_capacity(net, y, k)) < 1e-9


def test_feasibility_agrees_with_enumeration():
    rng = np.random.default_rng(403)
    for trial in range(120):
        net = _random_net(rng)
        y = _random_assignment(rng, net)
        rep = feasibility_ratio(net, y, mode="exact")
        expect = brute_beta(net, y)
        assert abs(rep.beta_lo - expect) < 1e-9 * max(1.0, expect), trial


def test_witnesses_are_lexicographically_minimal():
    rng = np.random.default_rng(404)
    for trial in range(60):
        net = _random_net(rng, n_max=6, w_max=3)
        y = _random_assignment(rng, net)
        m1, wit = max_node_load(net, y, 2)
        # the witness channel set really attains the reported value
        attained = sum(
            node_channel_load(net, y, wit.node, w) for w in wit.channels
        )
        assert abs(attained - m1) < 1e-9


def brute_m1_at_node(net, y, v, k):
    import itertools

    kk = min(k, net.n_channels)
    return max(
        sum(node_channel_load(net, y, v, w) for w in S)
        for S in itertools.combinations(range(net.n_channels), kk)
    )


def test_witness_node_is_smallest_argmax():
    rng = np.random.default_rng(405)
    for trial in range(80):
        net = _random_net(rng, n_max=6, w_max=3)
        y = _random_assignment(rng, net)
        m1, wit = max_node_load(net, y, 1)
        firsts = [
            v
            for v in range(net.n_nodes)
            if abs(brute_m1_at_node(net, y, v, 1) - m1) < 1e-12
        ]
        assert wit.node == firsts[0]


def _direct_oddset_loads(net, y, weights):
    # per subset and channel, the induced edges' weights in edge-index order
    n = net.n_nodes
    masks = [m for m in range(1 << n) if m.bit_count() % 2 and m.bit_count() >= 3]
    loads = np.zeros((len(masks), net.n_channels))
    for i, m in enumerate(masks):
        for e in net.induced_edges(v for v in range(n) if m >> v & 1):
            loads[i, y.channel_of[e]] += weights[e]
    return masks, loads


def test_oddset_loads_match_direct_per_subset_sums_bitwise():
    # uniform random demands and capacities are not dyadic, so a change in
    # summation order would change the last bits
    rng = np.random.default_rng(407)
    for n in range(3, 13):
        for w in range(1, 5):
            seed = int(rng.integers(0, 2**63))
            net = generate_instance(InstanceSpec(n_nodes=n, n_channels=w), seed)
            if net.n_edges == 0:
                continue
            # the second assignment leaves channel 1 (and 3) without edges
            sparse = rng.choice(range(0, w, 2), size=net.n_edges)
            for y in (
                random_assign(net, seed),
                ChannelAssignment(tuple(int(c) for c in sparse)),
            ):
                for weights in (
                    np.asarray(net.demands),
                    metrics._weighted_demands(net, y),
                ):
                    masks, sizes, loads = metrics._oddset_loads(net, y, weights)
                    want_masks, want = _direct_oddset_loads(net, y, weights)
                    assert masks.tolist() == want_masks, (n, w)
                    assert sizes.tolist() == [m.bit_count() for m in want_masks]
                    assert np.array_equal(
                        loads.view(np.int64), want.view(np.int64)
                    ), (n, w, y)


# -- property-based checks ------------------------------------------------


# loads are sums of positive weights, so never -0.0 (hence abs); the sampled
# values give ties and zeros
_LOAD = st.one_of(
    st.sampled_from([0.0, 0.1, 1.0, 3.7]),
    st.floats(min_value=0.0, max_value=1e6).map(abs),
)


@given(st.data())
def test_topk_sum_matches_descending_cumsum_bitwise(data):
    w = data.draw(st.integers(min_value=1, max_value=6))
    rows = data.draw(
        st.lists(st.lists(_LOAD, min_size=w, max_size=w), min_size=1, max_size=12)
    )
    x = np.array(rows)
    before = x.copy()
    want = np.cumsum(np.sort(x, axis=1)[:, ::-1], axis=1)
    for k in range(1, w + 1):
        got = metrics._topk_sum(x, k)
        assert np.array_equal(got.view(np.int64), want[:, k - 1].view(np.int64)), k
    assert np.array_equal(x, before)


@st.composite
def net_and_assignment(draw, homogeneous=False, bipartite=False):
    n = draw(st.integers(min_value=2, max_value=7))
    w = draw(st.integers(min_value=1, max_value=4))
    side = draw(st.lists(st.booleans(), min_size=n, max_size=n)) if bipartite else None
    pairs = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if not bipartite or side[u] != side[v]
    ]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, b in zip(pairs, mask) if b]
    demands = draw(
        st.lists(
            st.integers(min_value=1, max_value=800),
            min_size=len(edges),
            max_size=len(edges),
        )
    )
    if homogeneous:
        cap = draw(st.integers(min_value=1, max_value=4000)) / 4.0
    else:
        cap = [
            draw(
                st.lists(
                    st.integers(min_value=1, max_value=4000),
                    min_size=len(edges),
                    max_size=len(edges),
                )
            )
            for _ in range(w)
        ]
        cap = [[c / 4.0 for c in row] for row in cap]
    net = make_network(n, edges, [d / 4.0 for d in demands], w, capacity=cap)
    y = ChannelAssignment(
        tuple(draw(st.integers(min_value=0, max_value=w - 1)) for _ in edges)
    )
    k = draw(st.integers(min_value=1, max_value=4))
    return net, y, k


@given(net_and_assignment())
def test_capacity_within_three_halves_of_node_term(data):
    net, y, k = data
    rep = recovery_capacity(net, y, k, mode="exact")
    assert rep.m1 - TOL <= rep.capacity <= 1.5 * rep.m1 + TOL


@given(net_and_assignment(bipartite=True))
def test_bipartite_odd_sets_never_dominate(data):
    net, y, k = data
    assert is_bipartite(net)
    m1, _ = max_node_load(net, y, k)
    m2, _ = max_odd_set_load_exact(net, y, k)
    assert m2 <= m1 + TOL


@given(net_and_assignment())
def test_capacity_monotone_in_k(data):
    net, y, _ = data
    caps = [
        recovery_capacity(net, y, k, mode="exact").capacity
        for k in range(1, net.n_channels + 2)
    ]
    for a, b in zip(caps, caps[1:]):
        assert a <= b + TOL
    # saturates once every channel can be preempted at once
    assert caps[-1] == caps[net.n_channels - 1]


@given(net_and_assignment())
def test_bracket_contains_exact_value(data):
    net, y, k = data
    lo, hi = max_odd_set_load_bracket(net, y, k)
    m2, _ = max_odd_set_load_exact(net, y, k)
    assert lo - TOL <= m2 <= hi + TOL
    assert abs(lo - brute_m2(net, y, k, max_size=3)) < 1e-9
    reb = recovery_capacity(net, y, k, mode="bracket")
    ree = recovery_capacity(net, y, k, mode="exact")
    assert reb.capacity_lo - TOL <= ree.capacity <= reb.capacity_hi + TOL


@given(net_and_assignment())
@settings(max_examples=60)
def test_scaling_demands_scales_metrics(data):
    net, y, k = data
    scaled = make_network(
        net.n_nodes,
        net.edges,
        [4.0 * r for r in net.demands],
        net.n_channels,
        capacity=net.capacity,
    )
    a = recovery_capacity(net, y, k, mode="exact")
    b = recovery_capacity(scaled, y, k, mode="exact")
    assert b.m1 == 4.0 * a.m1
    assert b.capacity == 4.0 * a.capacity
    assert b.witness_m1 == a.witness_m1
    assert b.witness_m2 == a.witness_m2


@given(net_and_assignment())
@settings(max_examples=60)
def test_beta_bracketed_by_channel_capacity_over_capacity(data):
    net, y, _ = data
    if net.n_edges == 0:
        return
    rep = feasibility_ratio(net, y, mode="exact")
    c1 = recovery_capacity(net, y, 1, mode="exact").capacity
    rmin = min(min(row) for row in net.capacity)
    rmax = max(max(row) for row in net.capacity)
    assert rmin / c1 - TOL <= rep.beta_lo <= rmax / c1 + TOL


@given(net_and_assignment(homogeneous=True))
@settings(max_examples=60)
def test_homogeneous_beta_is_capacity_over_c1(data):
    net, y, _ = data
    if net.n_edges == 0:
        return
    rep = feasibility_ratio(net, y, mode="exact")
    c1 = recovery_capacity(net, y, 1, mode="exact").capacity
    r = net.capacity[0][0]
    assert abs(rep.beta_lo - r / c1) < 1e-9 * max(1.0, rep.beta_lo)


@given(net_and_assignment())
@settings(max_examples=60)
def test_bracket_feasibility_consistent_with_exact(data):
    net, y, _ = data
    exact = feasibility_ratio(net, y, mode="exact").feasible
    br = feasibility_ratio(net, y, mode="bracket")
    assert br.beta_lo <= br.beta_hi + TOL
    if br.feasible != "unknown":
        assert br.feasible == exact


def test_capacity_floor_is_a_lower_bound():
    rng = np.random.default_rng(406)
    for trial in range(40):
        net = _random_net(rng, n_max=5, w_max=3)
        for k in (1, 2):
            floor = capacity_floor(net, k)
            best = min(
                recovery_capacity(net, y, k, mode="exact").capacity
                for y in _all_assignments(net)
            )
            assert floor <= best + 1e-9, trial


def _all_assignments(net):
    import itertools

    for vec in itertools.product(range(net.n_channels), repeat=net.n_edges):
        if net.n_edges > 6:
            break
        yield ChannelAssignment(vec)
    if net.n_edges > 6:
        # too many leaves; sample instead
        rng = np.random.default_rng(0)
        for _ in range(200):
            yield _random_assignment(rng, net)
