"""Capacity and feasibility metrics against hand traces, explicit
enumeration, and the stated bounds."""

import dataclasses
import functools
import itertools
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
    induced_edges,
    is_bipartite,
    node_channel_load,
    node_loads,
    odd_mask_loads,
    wedge_loads,
)
from chanrec import metrics
from chanrec.assign import greedy_assign, ifa_assign, random_assign
from chanrec.experiments import InstanceSpec, generate_instance
from chanrec.metrics import (
    IFA_CAPACITY_RATIO_BOUND,
    ODDSET_CAP_LIMIT,
    ODDSET_EXACT_CAP,
    TOL,
    capacity_floor,
    feasibility_ratio,
    greedy_capacity_ratio_bound,
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


def _channel(y):
    # the index array that evaluate hands the private load helpers
    return np.asarray(y.channel_of, dtype=np.intp)


def test_channel_load_at_node():
    star = make_network(3, [(0, 1), (0, 2)], [2.0, 3.0], 2)
    y = ChannelAssignment((0, 0))
    assert node_channel_load(star, y, 0, 0) == 5.0
    assert node_channel_load(star, y, 0, 1) == 0.0
    assert node_channel_load(K3_W3, Y_K3_IF, 1, 0) in (0.0, 1.0)
    for net, y in ((star, y), (K3_W3, Y_K3_IF), (PATH, Y_ADJACENT), (PATH, Y_SPREAD)):
        loads = metrics._node_loads(net, _channel(y), net.demand_array)
        assert loads.tolist() == [
            [node_channel_load(net, y, v, w) for w in range(net.n_channels)]
            for v in range(net.n_nodes)
        ]


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
    # above ODDSET_EXACT_CAP auto picks bracket, and an explicit exact mode
    # still evaluates; any 3-set around the edge carries it
    big = make_network(ODDSET_EXACT_CAP + 1, [(0, 1)], [1.0], 1)
    y = ChannelAssignment((0,))
    assert recovery_capacity(big, y, 1).mode == "bracket"
    assert feasibility_ratio(big, y).mode == "bracket"
    m2, _ = max_odd_set_load_exact(big, y, 1)
    assert m2 == 1.0
    assert recovery_capacity(big, y, 1, mode="exact").m2 == 1.0
    assert feasibility_ratio(big, y, mode="exact").z2 == 1.0


def test_odd_set_cap_limit_checked_before_allocation(monkeypatch):
    def no_tables(n_nodes):
        raise AssertionError("odd-set tables allocated")

    monkeypatch.setattr(metrics, "_parity_rows", no_tables)
    at_limit = make_network(ODDSET_CAP_LIMIT, [], [], 1)
    assert metrics._resolve_mode(at_limit, "exact") == "exact"
    over = make_network(ODDSET_CAP_LIMIT + 1, [(0, 1), (1, 2)], [1.0, 2.0], 1)
    y = ChannelAssignment((0, 0))
    for call in (
        lambda: max_odd_set_load_exact(over, y, 1),
        lambda: recovery_capacity(over, y, 1, mode="exact"),
        lambda: feasibility_ratio(over, y, mode="exact"),
        lambda: metrics.evaluate(over, y, 1, mode="exact"),
    ):
        with pytest.raises(ValueError, match=f"stops at {ODDSET_CAP_LIMIT} nodes"):
            call()
    # bracket mode, picked by auto at this size, needs no odd-set tables
    for mode in ("bracket", "auto"):
        rec = recovery_capacity(over, y, 1, mode=mode)
        assert rec.mode == "bracket" and rec.capacity == (3.0, 4.5)
        feas = feasibility_ratio(over, y, mode=mode)
        assert feas.mode == "bracket" and feas.feasible == "no"
        assert metrics.evaluate(over, y, 1, mode=mode) == (rec, feas)


def test_exact_reports_match_golden_file():
    # float bits and witnesses of exact and bracket reports recorded by
    # tests/record_metrics_golden.py; a diff means the metrics changed
    cases = json.loads(GOLDEN_PATH.read_text())
    assert len(cases) == 45
    for case in cases:
        got = evaluate(*case_assignment(case))
        assert got == case["metrics"], (case["seed"], case["scheme"])


def test_each_public_metric_checks_the_assignment_once(monkeypatch):
    calls = {"check": 0, "node": 0}
    check, node = metrics.check_assignment, metrics.max_node_load

    def counted_check(net, y):
        calls["check"] += 1
        check(net, y)

    def counted_node(net, y, k):
        calls["node"] += 1
        return node(net, y, k)

    monkeypatch.setattr(metrics, "check_assignment", counted_check)
    monkeypatch.setattr(metrics, "max_node_load", counted_node)
    net = generate_instance(InstanceSpec(n_nodes=9, n_channels=3), 11)
    y = greedy_assign(net)
    for mode in ("exact", "bracket"):
        for call in (
            lambda: recovery_capacity(net, y, 2, mode=mode),
            lambda: feasibility_ratio(net, y, mode=mode),
            lambda: max_odd_set_load_bracket(net, y, 2),
            lambda: metrics.evaluate(net, y, 2, mode=mode),
        ):
            calls.update(check=0, node=0)
            call()
            assert calls["check"] == 1, mode
            assert calls["node"] == 1, mode


@pytest.mark.parametrize(
    "kind", [np.int64, np.intp, np.uint8, "mixed"], ids=["int64", "intp", "uint8", "mixed"]
)
def test_numpy_int_entries_evaluate_as_python_ints(kind):
    # evaluate reads the entries through one index array; the reports, their
    # witnesses' plain ints included, are those of the Python-int assignment
    net = generate_instance(InstanceSpec(n_nodes=8, n_channels=3), 11)
    for y in (greedy_assign(net), ifa_assign(net), random_assign(net, 2)):
        if kind == "mixed":
            kinds = itertools.cycle([int, np.int64, np.intp, np.uint8])
            entries = tuple(t(c) for t, c in zip(kinds, y.channel_of))
        else:
            entries = tuple(kind(c) for c in y.channel_of)
        as_numpy = ChannelAssignment(entries)
        for mode in ("exact", "bracket", "auto"):
            for k in (1, 2, 3):
                got, want = (metrics.evaluate(net, x, k, mode) for x in (as_numpy, y))
                assert got == want and repr(got) == repr(want), (mode, k)
    # an entry beyond intp is refused by the range check, never cast
    huge = ChannelAssignment((0, 2**70) + y.channel_of[2:])
    for mode in ("exact", "bracket", "auto"):
        with pytest.raises(ValueError, match=r"^edge 1: channel index \d+ out of range$"):
            metrics.evaluate(net, huge, 1, mode)


def test_reports_hold_plain_floats():
    net = generate_instance(InstanceSpec(n_nodes=8, n_channels=3), 11)
    cases = [
        (PATH, Y_ADJACENT),
        (K3, Y_K3_ONE),
        (make_network(3, [], [], 1), ChannelAssignment(())),
        (net, random_assign(net, 11)),
    ]
    for net, y in cases:
        for mode in ("exact", "bracket"):
            reports = [recovery_capacity(net, y, k, mode=mode) for k in (1, 2)]
            reports.append(feasibility_ratio(net, y, mode=mode))
            for rep in reports:
                for field in dataclasses.fields(rep):
                    if field.name in ("k", "mode") or field.name.startswith("witness"):
                        continue
                    value = getattr(rep, field.name)
                    assert value is None or type(value) is float, (
                        mode, field.name, type(value)
                    )


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
    assert feasibility_ratio(loose, y).feasible == "yes"
    assert feasibility_ratio(tight, y).feasible == "no"


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
        for e in induced_edges(net, (v for v in range(n) if m >> v & 1)):
            loads[i, y.channel_of[e]] += weights[e]
    return masks, loads


@functools.lru_cache(maxsize=None)
def _row_masks(n, x):
    """The node-set bitmask of each parity-lattice row, by ``_row_set``."""
    rows = range(1 << (n - 1))
    return np.array([sum(1 << v for v in metrics._row_set(r, x)) for r in rows])


def _lattice_table(net, y, weights, x=None):
    """(masks, sizes, loads[odd set, channel]) of the odd sets of size >= 3,
    in mask order, read off the parity lattice's rows through the row-to-set
    map with parity node x (by default the one evaluate picks); unloaded
    channels stay zero.  The n singleton rows must hold no load and size 3."""
    n = net.n_nodes
    on_channel = metrics._edges_by_channel(net, _channel(y))
    if x is None:
        x = metrics._parity_node(net, on_channel)
    row_sizes, _ = metrics._parity_rows(n)
    rows = np.zeros((len(row_sizes), net.n_channels), dtype=weights.dtype)
    for c, column in metrics._lattice_columns(net, on_channel, weights, x):
        rows[:, c] = column
    masks = _row_masks(n, x)
    single = np.bitwise_count(masks) == 1
    assert single.sum() == n and not rows[single].any()
    assert (row_sizes[single] == 3).all()
    keep = np.flatnonzero(~single)
    keep = keep[np.argsort(masks[keep])]
    return masks[keep], row_sizes[keep], rows[keep]


def _bits(a):
    return a.view(np.int64)


def test_oddset_loads_match_direct_per_subset_sums_bitwise(monkeypatch):
    # uniform random demands and capacities are not dyadic, so a change in
    # summation order would change the last bits.  Pinning starts at 9 nodes
    # here, so the sizes span both sides of it; the parity node is node 0,
    # node n-1 and the one evaluate picks.  With node 0 as parity node, the
    # third assignment puts only its edges on channel 0, so that channel's
    # first edge is at the parity node, and none on channel w-1 > 0.  Demand
    # and rho packed into one complex vector give each part bit for bit.
    monkeypatch.setattr(metrics, "_PIN_FROM_NODES", 9)
    rng = np.random.default_rng(407)
    for n in range(3, 16):
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
                ChannelAssignment(tuple(0 if 0 in uv else w - 1 for uv in net.edges)),
            ):
                on_channel = metrics._edges_by_channel(net, _channel(y))
                picked = metrics._parity_node(net, on_channel)
                assert picked == n - 1 or n >= 9
                demands = np.asarray(net.demands)
                rho = net.rho[np.arange(net.n_edges), y.channel_of]
                packed = np.empty(net.n_edges, dtype=np.complex128)
                packed.real, packed.imag = demands, rho
                want_masks, want_demand = _direct_oddset_loads(net, y, demands)
                _, want_rho = _direct_oddset_loads(net, y, rho)
                for x in sorted({0, n - 1, picked}):
                    for weights, want in ((demands, want_demand), (rho, want_rho)):
                        masks, sizes, loads = _lattice_table(net, y, weights, x)
                        assert masks.tolist() == want_masks, (n, w, x)
                        assert sizes.tolist() == [m.bit_count() for m in want_masks]
                        assert np.array_equal(_bits(loads), _bits(want)), (n, w, x, y)
                    _, _, loads = _lattice_table(net, y, packed, x)
                    assert np.array_equal(_bits(loads.real), _bits(want_demand))
                    assert np.array_equal(_bits(loads.imag), _bits(want_rho))


def test_parity_lattice_matches_odd_mask_reference_at_16_to_18_bitwise():
    # the golden file checks these sizes only through their extremes and
    # witnesses; here every row of the pinned lattice, with the parity node
    # evaluate picks and with node 0, against the mask-space loads
    assert metrics._PIN_FROM_NODES <= 16
    rng = np.random.default_rng(410)
    for n in (16, 17, 18):
        seed = int(rng.integers(0, 2**63))
        net = generate_instance(InstanceSpec(n_nodes=n, n_channels=3), seed)
        sizes, _ = metrics._parity_rows(n)
        for y in (greedy_assign(net), random_assign(net, seed)):
            packed = np.empty(net.n_edges, dtype=np.complex128)
            packed.real = net.demands
            packed.imag = net.rho[np.arange(net.n_edges), y.channel_of]
            masks, want = odd_mask_loads(net, y, packed)
            on_channel = metrics._edges_by_channel(net, _channel(y))
            for x in sorted({0, metrics._parity_node(net, on_channel)}):
                rows = np.zeros((len(sizes), net.n_channels), dtype=np.complex128)
                for c, column in metrics._lattice_columns(net, on_channel, packed, x):
                    rows[:, c] = column
                # row r's mask: bits from x up move up one, x joins even rows
                r = np.arange(len(sizes), dtype=np.int64)
                low = r & ((1 << x) - 1)
                even = np.bitwise_count(r) % 2 == 0
                row_masks = low | (r ^ low) << 1 | even.astype(np.int64) << x
                order = np.argsort(row_masks)
                assert np.array_equal(row_masks[order], masks), (n, x)
                assert np.array_equal(sizes, np.maximum(np.bitwise_count(row_masks), 3))
                got = rows[order]
                assert np.array_equal(_bits(got.real), _bits(want.real)), (n, x)
                assert np.array_equal(_bits(got.imag), _bits(want.imag)), (n, x)


def test_witnesses_follow_the_tie_rule_on_uniform_networks():
    # uniform demand and capacity tie many odd sets and channels.  The rule:
    # the capacity witness is the lexicographically first node set attaining
    # m2, with the first channel set (in combination order) of largest load;
    # the margin witness is the first (node set, channel) cell attaining z2.
    # Bracket mode has no witnesses; its ends are the rule's values over the
    # 3-node sets.  Demand loads are multiples of 40, so the sums are exact.
    rng = np.random.default_rng(409)
    uniform = dict(demand_range=(40.0, 40.0), capacity_range=(150.0, 150.0))
    for n in range(5, 15):
        for w in (2, 3, 4):
            seed = int(rng.integers(0, 2**63))
            net = generate_instance(InstanceSpec(n, w, **uniform), seed)
            if net.n_edges == 0:
                continue
            for y in (greedy_assign(net), ifa_assign(net), random_assign(net, seed)):
                demands = np.asarray(net.demands)
                rho = net.rho[np.arange(net.n_edges), y.channel_of]
                masks, loads = _direct_oddset_loads(net, y, demands)
                _, rho_loads = _direct_oddset_loads(net, y, rho)
                nodes = [tuple(v for v in range(n) if m >> v & 1) for m in masks]
                triple = np.array([len(u) == 3 for u in nodes])
                limits = np.array([(len(u) - 1) / 2.0 for u in nodes])
                with np.errstate(divide="ignore"):
                    margins = limits[:, None] / rho_loads
                z2 = min(float(margins.min()), 1.0 / rho.max())
                z2_hi = min(float(margins[triple].min()), 1.0 / rho.max())
                cells = zip(*np.nonzero(margins == z2))
                wit_z2 = min((nodes[i], int(j)) for i, j in cells)
                for k in (1, 2, 3):
                    combos = list(itertools.combinations(range(w), min(k, w)))
                    sums = np.array([loads[:, list(s)].sum(axis=1) for s in combos]).T
                    values = sums.max(axis=1) * np.array(
                        [2.0 / (len(u) - 1) for u in nodes]
                    )
                    m2 = max(float(values.max()), demands.max())
                    m2_lo = max(float(values[triple].max()), demands.max())
                    row = min(np.flatnonzero(values == m2), key=lambda i: nodes[i])
                    best = combos[int(np.argmax(sums[row] == sums[row].max()))]
                    rec, feas = metrics.evaluate(net, y, k, mode="exact")
                    assert (rec.m2, feas.z2) == (m2, z2), (n, w, k)
                    assert rec.witness_m2 == (nodes[row], best), (n, w, k)
                    assert feas.witness_z2 == wit_z2, (n, w, k)
                    rec, feas = metrics.evaluate(net, y, k, mode="bracket")
                    assert (rec.m2_lo, feas.z2_hi) == (m2_lo, z2_hi), (n, w, k)
                    assert rec.witness_m2 is None and feas.witness_z2 is None


# -- bracket mode reads the lattice's 3-node loads ------------------------


def _lattice_triples(net, y, weights):
    """The parity lattice's rows of the 3-node sets with two or three edges."""
    masks, sizes, loads = _lattice_table(net, y, weights)
    keep = []
    for i in np.flatnonzero(sizes == 3):
        nodes = [v for v in range(net.n_nodes) if masks[i] >> v & 1]
        if len(induced_edges(net, nodes)) >= 2:
            keep.append(i)
    return loads[keep]


def _assert_same_rows_bitwise(got, want):
    # rows as multisets: the wedge table lists the sets in its own order
    def canon(a):
        bits = a.view(np.int64)
        return bits[np.lexsort(bits.T[::-1])]

    assert got.shape == want.shape
    assert np.array_equal(canon(got), canon(want))


def _seeded_bracket_cases():
    rng = np.random.default_rng(408)
    for n in range(3, 15):
        for w in range(1, 5):
            # uniform demands give ties between 3-node sets and with m1
            for demand_range in ((1.0, 100.0), (40.0, 40.0)):
                seed = int(rng.integers(0, 2**63))
                spec = InstanceSpec(n, w, demand_range=demand_range)
                net = generate_instance(spec, seed)
                if net.n_edges == 0:
                    continue
                yield net, greedy_assign(net)
                yield net, ifa_assign(net)
                yield net, random_assign(net, seed)


def test_bracket_reads_exact_three_node_loads_bitwise():
    # m2_lo and z2_hi are the exact odd-set values over 3-node sets, summed
    # as the lattice sums them, so they bound the exact m2 and z2 bit for bit
    for net, y in _seeded_bracket_cases():
        rho = net.rho[np.arange(net.n_edges), y.channel_of]
        demands = np.asarray(net.demands)
        for weights in (demands, rho):
            _assert_same_rows_bitwise(
                metrics._triple_loads(net, _channel(y), weights),
                _lattice_triples(net, y, weights),
            )
        _, sizes, loads = _lattice_table(net, y, demands)
        for k in (1, 2, 3):
            lo, _ = max_odd_set_load_bracket(net, y, k)
            k_eff = min(k, net.n_channels)
            triples = loads[sizes == 3]
            want = metrics._topk_sum(triples.T, k_eff, len(triples)).max()
            assert lo.hex() == float(want).hex(), (net.n_nodes, net.n_channels, k)
            m2, _ = max_odd_set_load_exact(net, y, k)
            assert lo <= m2
        _, sizes, rho_loads = _lattice_table(net, y, rho)
        z2_hi = feasibility_ratio(net, y, mode="bracket").z2_hi
        assert z2_hi.hex() == float(1.0 / rho_loads[sizes == 3].max()).hex()
        assert z2_hi >= feasibility_ratio(net, y, mode="exact").z2


def test_triple_loads_structural_cases():
    # a perfect matching has no wedges: m2_lo is the largest demand
    matching = make_network(6, [(0, 1), (2, 3), (4, 5)], [0.3, 0.7, 0.1], 2, 2.0)
    y = ChannelAssignment((0, 0, 1))
    demands = np.asarray(matching.demands)
    assert metrics._triple_loads(matching, _channel(y), demands).shape == (0, 2)
    assert max_odd_set_load_bracket(matching, y, 2)[0] == 0.7
    assert feasibility_ratio(matching, y, mode="bracket").z2_hi == 1.0 / (0.7 / 2.0)

    # one triangle on one channel is one row, summed in edge order: the other
    # orders give 0x1.0126e978d4fe0p+1, one ulp above the exact m2
    tri = make_network(3, [(0, 1), (0, 2), (1, 2)], [0.8, 0.66, 0.549], 2)
    y = ChannelAssignment((1, 1, 1))
    table = metrics._triple_loads(tri, _channel(y), np.asarray(tri.demands))
    assert table.tolist() == [[0.0, (0.8 + 0.66) + 0.549]]
    lo, _ = max_odd_set_load_bracket(tri, y, 1)
    assert lo == (0.8 + 0.66) + 0.549 == max_odd_set_load_exact(tri, y, 1)[0]
    assert lo < (0.549 + 0.8) + 0.66

    # a star: every pair of its edges is a wedge, and no triangle
    star = make_network(5, [(0, 1), (0, 2), (0, 3), (0, 4)], [1.0, 2.0, 4.0, 8.0], 2)
    y = ChannelAssignment((0, 1, 0, 1))
    demands = np.asarray(star.demands)
    table = metrics._triple_loads(star, _channel(y), demands)
    _assert_same_rows_bitwise(table, _lattice_triples(star, y, demands))
    assert len(table) == 6
    assert max_odd_set_load_bracket(star, y, 1)[0] == 10.0
    assert max_odd_set_load_bracket(star, y, 2)[0] == 12.0

    # K5: each of the ten triangles once, though it holds three wedges
    pairs = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    k5 = make_network(5, pairs, [0.1 * (e + 1) for e in range(10)], 3)
    y = random_assign(k5, 5)
    rho = k5.rho[np.arange(10), y.channel_of]
    for weights in (np.asarray(k5.demands), rho):
        table = metrics._triple_loads(k5, _channel(y), weights)
        assert len(table) == 10
        _assert_same_rows_bitwise(table, _lattice_triples(k5, y, weights))


def _complete_graph(rng, n, w):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    demands = rng.uniform(1.0, 100.0, size=len(pairs)).tolist()
    capacity = rng.uniform(75.0, 200.0, size=(w, len(pairs))).tolist()
    return make_network(n, pairs, demands, w, capacity=capacity)


def _large_bracket_cases():
    # the scaling study's specs and assignment, and dense graphs; uniform
    # random demands are not dyadic, so the order of addition shows
    rng = np.random.default_rng(410)
    for n in range(20, 221, 20):
        for w in (3, 5):
            net = generate_instance(InstanceSpec(n, w), int(rng.integers(0, 2**63)))
            yield net, ifa_assign(net)
            yield net, greedy_assign(net)
    for n, w in ((20, 3), (40, 5), (60, 3)):
        net = _complete_graph(rng, n, w)
        yield net, greedy_assign(net)


def test_bracket_matches_brute_wedges_at_scale():
    # bracket mode against plain loops over net.edges where auto picks it:
    # its wedge table holds each 3-node set with two or three edges once,
    # summed in edge-index order, so m2_lo and z2_hi equal the loops' values
    # bit for bit, as m1 and z1 equal the node loads'
    for net, y in _large_bracket_cases():
        case = (net.n_nodes, net.n_channels, net.n_edges)
        demands = net.demands
        rho = net.rho[np.arange(net.n_edges), y.channel_of].tolist()
        wedges, rho_wedges = (wedge_loads(net, y, x) for x in (demands, rho))
        for weights, rows in ((demands, wedges), (rho, rho_wedges)):
            got = metrics._triple_loads(net, _channel(y), np.asarray(weights))
            _assert_same_rows_bitwise(got, np.array(list(rows.values())))
        # each row's loads in descending order: its top-k sum is a prefix's
        loads = [sorted(row, reverse=True) for row in node_loads(net, y, demands)]
        triples = [sorted(row, reverse=True) for row in wedges.values()]
        z1 = min(1.0 / x for row in node_loads(net, y, rho) for x in row if x > 0)
        z2_hi = min([1.0 / max(row) for row in rho_wedges.values()] + [1.0 / max(rho)])
        for k in (1, 2, 3):
            k_eff = min(k, net.n_channels)
            rec, feas = metrics.evaluate(net, y, k, mode="bracket")
            m1 = max(sum(row[:k_eff]) for row in loads)
            m2_lo = max([sum(row[:k_eff]) for row in triples] + list(demands))
            assert rec.m1.hex() == m1.hex(), (case, k)
            assert rec.m2_lo.hex() == m2_lo.hex(), (case, k)
            assert feas.z1.hex() == z1.hex(), case
            assert feas.z2_hi.hex() == z2_hi.hex(), case


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

    def one_buffer():
        # one pass, each column copied into the same buffer, as
        # _lattice_columns hands its columns over
        buffer = np.empty(len(x))
        for column in x.T:
            buffer[:] = column
            yield buffer

    for k in range(1, w + 1):
        got = metrics._topk_sum(one_buffer(), k, len(x))
        assert np.array_equal(got.view(np.int64), want[:, k - 1].view(np.int64)), k
        empty = metrics._topk_sum(iter(()), k, len(x))
        assert np.array_equal(empty.view(np.int64), np.zeros(len(x), dtype=np.int64))
    assert np.array_equal(x, before)


@given(st.data())
def test_node_loads_match_per_edge_loop_bitwise(data):
    n = data.draw(st.integers(min_value=1, max_value=12))
    w = data.draw(st.integers(min_value=1, max_value=4))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = data.draw(st.permutations([p for p, b in zip(pairs, mask) if b]))
    # weights over many orders of magnitude, so the order of addition shows
    magnitude = st.tuples(
        st.floats(min_value=1.0, max_value=10.0), st.integers(min_value=-6, max_value=9)
    ).map(lambda t: t[0] * 10.0 ** t[1])
    weights = data.draw(st.lists(magnitude, min_size=len(edges), max_size=len(edges)))
    net = make_network(n, edges, [1.0] * len(edges), w)
    y = ChannelAssignment(
        tuple(data.draw(st.integers(min_value=0, max_value=w - 1)) for _ in edges)
    )
    want = np.array(node_loads(net, y, weights))
    assert np.array_equal(metrics._node_loads(net, _channel(y), weights), want)
    assert np.array_equal(metrics._node_loads(net, _channel(y), np.array(weights)), want)


@st.composite
def net_and_assignment(draw, homogeneous=False, bipartite=False, max_nodes=7):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
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
    assert lo <= m2 <= hi + TOL
    assert abs(lo - brute_m2(net, y, k, max_size=3)) < 1e-9
    reb = recovery_capacity(net, y, k, mode="bracket")
    ree = recovery_capacity(net, y, k, mode="exact")
    assert reb.capacity_lo - TOL <= ree.capacity <= reb.capacity_hi + TOL


@given(net_and_assignment())
def test_bracket_ends_pinned_bit_for_bit(data):
    # each end of both brackets as one float expression over the lattice's
    # 3-node rows; z1 / f in place of (1.0 / f) * z1 differs in the last bit
    # for some z1.  Below 5 nodes every odd set has 3 nodes, and the node
    # term bounds neither end.
    net, y, _ = data
    f = 1.25 if is_interference_free(net, y) else 1.5
    small = net.n_nodes < 5
    feas = feasibility_ratio(net, y, mode="bracket")
    want = feas.z2_hi if small else min(feas.z2_hi, (1.0 / f) * feas.z1)
    assert feas.z2_lo.hex() == want.hex()
    if net.n_edges == 0 or net.n_nodes < 3:
        assert feas.z2_hi == math.inf
        assert all(max_odd_set_load_bracket(net, y, k) == (0.0, 0.0) for k in (1, 2, 3))
        return
    demands = net.demand_array
    # descending cumulative sums: the reference top-k
    top = np.cumsum(np.sort(_lattice_triples(net, y, demands), axis=1)[:, ::-1], axis=1)
    for k in (1, 2, 3):
        m2_lo, m2_hi = max_odd_set_load_bracket(net, y, k)
        want = float(np.max(top[:, min(k, net.n_channels) - 1], initial=demands.max()))
        assert m2_lo.hex() == want.hex(), k
        m1, _ = max_node_load(net, y, k)
        assert m2_hi.hex() == (m2_lo if small else max(m2_lo, f * m1)).hex(), k
    rho = net.rho[np.arange(net.n_edges), y.channel_of]
    top_rho = float(np.max(_lattice_triples(net, y, rho), initial=rho.max()))
    assert feas.z2_hi.hex() == (1.0 / top_rho).hex()


@given(net_and_assignment(max_nodes=4))
def test_bracket_is_exact_below_five_nodes(data):
    # every odd set has 3 nodes there, and bracket mode lists them all
    net, y, k = data
    exact = recovery_capacity(net, y, k, mode="exact")
    br = recovery_capacity(net, y, k, mode="bracket")
    assert br.m2_lo.hex() == br.m2_hi.hex() == exact.m2.hex()
    assert [c.hex() for c in br.capacity] == [exact.capacity.hex()] * 2
    exact_feas = feasibility_ratio(net, y, mode="exact")
    br_feas = feasibility_ratio(net, y, mode="bracket")
    assert br_feas.z2_lo.hex() == br_feas.z2_hi.hex() == exact_feas.z2.hex()
    assert [b.hex() for b in br_feas.beta] == [exact_feas.beta.hex()] * 2
    assert br_feas.feasible == exact_feas.feasible


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
