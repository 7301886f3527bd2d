"""Greedy, coloring-based, and random assignment schemes."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import (
    brute_m1,
    edge_color_reference,
    greedy_reference,
    ifa_reference,
    incident_edges,
    is_proper_edge_coloring,
    node_channel_load,
    sequential_proper_assignment,
)
from chanrec import assign
from chanrec.assign import (
    EdgeColoring,
    edge_color,
    greedy_assign,
    ifa_assign,
    random_assign,
    serialize_edge_coloring,
)
from chanrec.experiments import InstanceSpec, generate_instance
from chanrec.metrics import is_interference_free, max_node_load
from chanrec.netmodel import ChannelAssignment, make_network


def test_greedy_star_trace():
    star = make_network(4, [(0, 1), (0, 2), (0, 3)], [3.0, 2.0, 1.0], 2)
    y = greedy_assign(star)
    assert y.channel_of == (0, 1, 1)
    assert node_channel_load(star, y, 0, 0) == 3.0
    assert node_channel_load(star, y, 0, 1) == 3.0


def test_greedy_single_edge_and_disjoint_edges():
    single = make_network(2, [(0, 1)], [7.0], 3)
    assert greedy_assign(single).channel_of == (0,)
    pair = make_network(4, [(0, 1), (2, 3)], [5.0, 9.0], 2)
    assert greedy_assign(pair).channel_of == (0, 0)


def test_greedy_argmin_unchanged_by_counting_the_edge_itself():
    # the processed edge would add its own demand to every channel equally,
    # so including it cannot change which channel wins
    rng = np.random.default_rng(7)
    for trial in range(60):
        net = generate_instance(
            InstanceSpec(n_nodes=int(rng.integers(3, 9)), n_channels=int(rng.integers(2, 4))),
            int(rng.integers(0, 2**63)),
        )
        assert greedy_assign(net).channel_of == _greedy_counting_self(net)


def _greedy_counting_self(net):
    loads = np.zeros((net.n_nodes, net.n_channels))
    out = []
    for e, (u, v) in enumerate(net.edges):
        r = net.demands[e]
        combined = loads[u] + loads[v] + r  # in-flight edge included
        w = int(np.argmin(combined))
        out.append(w)
        loads[u][w] += r
        loads[v][w] += r
    return tuple(out)


@st.composite
def tie_heavy_networks(draw):
    n = draw(st.integers(min_value=2, max_value=60))
    n_channels = draw(st.integers(min_value=1, max_value=5))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    p = draw(st.sampled_from([0.05, 0.2, 0.6]))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    edges = [edges[i] for i in rng.permutation(len(edges))]
    # equal demands tie whole channel rows; tenths make sums that round
    kind = draw(st.sampled_from(["uniform", "tenths", "any"]))
    if kind == "uniform":
        demands = [1.0] * len(edges)
    elif kind == "tenths":
        demands = rng.choice([0.1, 0.2, 0.3], size=len(edges)).tolist()
    else:
        demands = rng.uniform(0.1, 10.0, size=len(edges)).tolist()
    return make_network(n, edges, demands, n_channels)


@settings(max_examples=200, deadline=None)
@given(tie_heavy_networks())
def test_greedy_matches_numpy_reference_bit_for_bit(net):
    assert greedy_assign(net).channel_of == greedy_reference(net).channel_of


def test_edge_color_small_cases():
    k3 = make_network(3, [(0, 1), (0, 2), (1, 2)], [1.0] * 3, 1)
    c = edge_color(k3)
    assert is_proper_edge_coloring(k3, c) and c.n_colors == 3
    s5 = make_network(6, [(0, i) for i in range(1, 6)], [1.0] * 5, 1)
    c = edge_color(s5)
    assert is_proper_edge_coloring(s5, c) and c.n_colors == 5
    c4 = make_network(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [1.0] * 4, 1)
    c = edge_color(c4)
    assert is_proper_edge_coloring(c4, c) and c.n_colors <= 3


def _repeats_at_a_node(net, labels):
    # reference: look at each node's incident labels separately
    for v in range(net.n_nodes):
        at_v = [labels[e] for e in incident_edges(net, v)]
        if len(set(at_v)) < len(at_v):
            return True
    return False


def test_coloring_and_interference_checks_agree_with_per_node_scan():
    path = make_network(3, [(0, 1), (1, 2)], [1.0, 1.0], 2)
    assert not is_proper_edge_coloring(path, EdgeColoring((0, 0)))
    assert not is_proper_edge_coloring(path, EdgeColoring((0,)))  # length
    assert is_proper_edge_coloring(path, EdgeColoring((1, 0)))
    rng = np.random.default_rng(12)
    for trial in range(300):
        n = int(rng.integers(2, 9))
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        ]
        w = int(rng.integers(1, 5))
        net = make_network(n, edges, [1.0] * len(edges), w)
        labels = tuple(int(c) for c in rng.integers(0, w, size=len(edges)))
        expect = not _repeats_at_a_node(net, labels)
        assert is_proper_edge_coloring(net, EdgeColoring(labels)) == expect, trial
        assert is_interference_free(net, ChannelAssignment(labels)) == expect, trial


def test_edge_color_random_graphs_within_vizing_bound():
    rng = np.random.default_rng(11)
    for trial in range(400):
        n = int(rng.integers(2, 14))
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.45
        ]
        if not edges:
            continue
        net = make_network(n, edges, [1.0] * len(edges), 1)
        col = edge_color(net)
        assert is_proper_edge_coloring(net, col), trial
        assert col.n_colors <= net.max_degree + 1, trial
        assert edge_color(net).color_of == col.color_of  # deterministic


def _matches_reference(net):
    col = edge_color(net)
    assert col.color_of == edge_color_reference(net).color_of
    return col


def test_edge_color_matches_reference_on_generator_networks():
    for n in range(20, 221, 20):
        for w in (3, 5):
            for seed in range(3):
                _matches_reference(generate_instance(InstanceSpec(n, w), 1000 * n + seed))
    for n in (*range(6, 9), *range(16, 19)):
        for seed in range(5):
            _matches_reference(generate_instance(InstanceSpec(n, 3), seed))


def test_edge_color_matches_reference_on_complete_graphs_and_stars():
    for n in range(1, 41):
        pairs = list(itertools.combinations(range(n), 2))
        star = [(0, v) for v in range(1, n)]
        for edges in (pairs, star):
            net = make_network(n, edges, [1.0] * len(edges), 1)
            col = _matches_reference(net)
            assert is_proper_edge_coloring(net, col) and col.n_colors <= n


@st.composite
def simple_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=16))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = draw(st.permutations([p for p, b in zip(pairs, mask) if b]))
    return make_network(n, edges, [1.0] * len(edges), 1)


@settings(max_examples=200, deadline=None)
@given(simple_graphs())
def test_edge_color_random_simple_graphs(net):
    col = _matches_reference(net)
    assert is_proper_edge_coloring(net, col)
    assert col.n_colors <= net.max_degree + 1


def test_edge_coloring_serialization():
    k3 = make_network(3, [(0, 1), (0, 2), (1, 2)], [1.0] * 3, 1)
    text = serialize_edge_coloring(edge_color(k3))
    import json

    doc = json.loads(text)
    assert set(doc["colors"]) == {"0", "1", "2"}
    assert sorted(doc["colors"].values()) == [0, 1, 2]


def test_ifa_interference_free_when_channels_exceed_degree():
    rng = np.random.default_rng(13)
    for trial in range(150):
        net = generate_instance(
            InstanceSpec(
                n_nodes=int(rng.integers(2, 12)),
                n_channels=9,
                degree_cap=5,
                edge_prob=0.5,
            ),
            int(rng.integers(0, 2**63)),
        )
        y = ifa_assign(net)
        if net.n_channels > net.max_degree:
            assert is_interference_free(net, y), trial


@settings(max_examples=200, deadline=None)
@given(tie_heavy_networks())
def test_ifa_matches_dict_reference(net):
    # uniform demands tie whole color classes of one size: the lower color
    # ranks first
    assert ifa_assign(net).channel_of == ifa_reference(net).channel_of


def test_ifa_ranks_tied_classes_lower_color_first():
    # the 4-cycle is colored (2, 1, 2, 0): class 2 carries 2.0 and takes
    # channel 0; classes 0 and 1 tie at 1.0, and class 0 ranks first
    cycle = make_network(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [1.0] * 4, 3)
    assert edge_color(cycle).color_of == (2, 1, 2, 0)
    assert ifa_assign(cycle).channel_of == (0, 2, 0, 1) == ifa_reference(cycle).channel_of
    # class 1 at 3.0 ranks before class 2 at 2.0, then class 0
    heavy = make_network(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [1.0, 3.0, 1.0, 1.0], 3)
    assert edge_color(heavy).color_of == (2, 1, 2, 0)
    assert ifa_assign(heavy).channel_of == (1, 0, 1, 2) == ifa_reference(heavy).channel_of
    # one channel folds every class onto it
    single = make_network(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [1.0] * 4, 1)
    assert ifa_assign(single).channel_of == (0,) * 4 == ifa_reference(single).channel_of


def test_ifa_on_edgeless_network():
    for n in (0, 1, 4):
        net = make_network(n, [], [], 2)
        assert ifa_assign(net).channel_of == () == ifa_reference(net).channel_of


def test_ifa_ranks_colors_without_edges_last(monkeypatch):
    # a coloring may leave colors unused; they rank after every class, so
    # the classes keep their channels
    net = make_network(5, [(0, 1), (1, 2), (2, 3), (3, 4)], [1.0, 2.0, 2.0, 1.0], 2)
    for colors in ((5, 2, 5, 0), (3, 1, 0, 3), (0, 4, 0, 4)):
        monkeypatch.setattr(assign, "edge_color", lambda _, c=colors: EdgeColoring(c))
        assert ifa_assign(net).channel_of == ifa_reference(net).channel_of


def test_ifa_on_triangle_matches_largest_demand():
    k3 = make_network(3, [(0, 1), (0, 2), (1, 2)], [4.0, 2.0, 7.0], 3)
    y = ifa_assign(k3)
    assert is_interference_free(k3, y)
    m1, _ = max_node_load(k3, y, 1)
    assert m1 == 7.0


def test_ifa_path_two_channels():
    path = make_network(4, [(0, 1), (1, 2), (2, 3)], [1.0, 1.0, 1.0], 2)
    y = ifa_assign(path)
    assert is_interference_free(path, y)


def test_ifa_folding_respects_per_node_class_bound():
    # 4-leaf star, 2 channels: 4 color classes fold onto 2 channels, so no
    # node may see more than ceil((d_max+1)/|W|) = 3 edges per channel; the
    # center has 4 edges over 2 channels with per-class folding, giving 2.
    star = make_network(5, [(0, i) for i in range(1, 5)], [5.0, 4.0, 3.0, 2.0], 2)
    y = ifa_assign(star)
    per_channel = [sum(1 for w in y.channel_of if w == c) for c in range(2)]
    assert per_channel == [2, 2]


def test_ifa_prefers_heavy_classes_on_distinct_channels():
    # two heavy edges sharing a node must land on different channels before
    # any folding happens
    net = make_network(4, [(0, 1), (0, 2), (0, 3)], [10.0, 9.0, 1.0], 2)
    y = ifa_assign(net)
    assert y.channel_of[0] != y.channel_of[1]


def test_interference_free_assignments_share_node_term():
    rng = np.random.default_rng(17)
    checked = 0
    for trial in range(200):
        net = generate_instance(
            InstanceSpec(
                n_nodes=int(rng.integers(3, 10)),
                n_channels=9,
                degree_cap=4,
                edge_prob=0.5,
            ),
            int(rng.integers(0, 2**63)),
        )
        if net.n_edges == 0 or net.n_channels <= net.max_degree:
            continue
        ya = ifa_assign(net)
        yb = sequential_proper_assignment(net, np.random.default_rng(trial))
        for k in (1, 2):
            a = brute_m1(net, ya, k)
            b = brute_m1(net, yb, k)
            assert abs(a - b) < 1e-9, trial
            yr = random_assign(net, trial)
            assert a <= brute_m1(net, yr, k) + 1e-9, trial
        checked += 1
    assert checked >= 100


def test_random_assign_deterministic_and_uniform():
    net = make_network(40, [(i, i + 1) for i in range(39)], [1.0] * 39, 2)
    a = random_assign(net, 99)
    b = random_assign(net, 99)
    assert a == b
    assert random_assign(net, 100) != a  # overwhelmingly likely
    one = make_network(4, [(0, 1), (1, 2)], [1.0, 1.0], 1)
    assert random_assign(one, 5).channel_of == (0, 0)

    # frequency sanity over many draws: binomial 5 sigma band
    big = make_network(2, [(0, 1)], [1.0], 2)
    n, ones = 4000, 0
    for s in range(4000):
        ones += random_assign(big, s).channel_of[0]
    sigma = (n * 0.25) ** 0.5
    assert abs(ones - n / 2) < 5 * sigma
