"""Model construction, validation, and the two JSON document formats."""

import collections
import json
import math

import numpy as np
import pytest

from brute import degree, incident_edges, induced_edges
from chanrec.experiments import InstanceSpec, generate_instance
from chanrec.metrics import feasibility_ratio
from chanrec.netmodel import (
    ChannelAssignment,
    FormatError,
    Network,
    check_assignment,
    make_network,
    parse_assignment,
    parse_network,
    serialize_assignment,
    serialize_network,
)


def path4():
    return make_network(4, [(0, 1), (1, 2), (2, 3)], [3.0, 1.0, 2.0], 2)


def test_basic_sizes_and_helpers():
    net = path4()
    assert net.n_nodes == 4
    assert net.n_edges == 3
    assert net.n_channels == 2
    assert net.max_degree == degree(net, 1) == 2
    assert net.total_demand == 6.0
    assert incident_edges(net, 1) == (0, 1)
    assert induced_edges(net, [1, 2, 3]) == (1, 2)
    assert induced_edges(net, [0, 3]) == ()


def test_edges_normalized_by_make_network():
    net = make_network(3, [(2, 0), (1, 0)], [1.0, 1.0], 1)
    assert net.edges == ((0, 2), (0, 1))


def test_max_degree_is_the_largest_incidence():
    nets = array_networks() + [
        make_network(0, [], [], 1),
        make_network(5, [(1, 3)], [1.0], 1),  # isolated nodes 0, 2 and 4
        make_network(6, [(0, 5), (2, 5), (4, 5), (1, 2)], [1.0] * 4, 1),
    ]
    for net in nets:
        degrees = [degree(net, v) for v in range(net.n_nodes)]
        assert net.max_degree == max(degrees, default=0)
        assert type(net.max_degree) is int


def test_network_rejects_bad_input():
    with pytest.raises(FormatError, match="self loop"):
        make_network(3, [(1, 1)], [1.0], 1)
    with pytest.raises(FormatError, match="duplicate edge"):
        make_network(3, [(0, 1), (1, 0)], [1.0, 1.0], 1)
    with pytest.raises(FormatError, match="out of range"):
        make_network(2, [(0, 5)], [1.0], 1)
    with pytest.raises(FormatError, match=r"^edges\[0\]: non-integer endpoint$"):
        make_network(4, [(0.5, 2), (1, 3)], [1.0, 2.0], 2)
    # two faults: the message names the first edge, not the first check
    with pytest.raises(
        FormatError, match=r"^edges\[0\]: self loop or unnormalized endpoints$"
    ):
        Network(("a", "b", "c"), ("w",), ((1, 0), (0, 5)), (1.0, 1.0), ((1.0, 1.0),))
    with pytest.raises(FormatError, match="nonpositive demand"):
        make_network(2, [(0, 1)], [0.0], 1)
    with pytest.raises(FormatError, match="nonpositive capacity"):
        make_network(2, [(0, 1)], [1.0], 1, capacity=-3.0)
    with pytest.raises(FormatError, match="at least one channel"):
        make_network(2, [(0, 1)], [1.0], 0)
    with pytest.raises(FormatError, match="one demand per edge"):
        Network(("a", "b"), ("w",), ((0, 1),), (), ((1.0,),))
    with pytest.raises(FormatError, match="one row per channel"):
        Network(("a", "b"), ("w", "x"), ((0, 1),), (1.0,), ((1.0,),))
    with pytest.raises(FormatError, match="one row per channel"):
        Network(("a",), ("w",), (), (), ())
    with pytest.raises(FormatError, match=r"^capacity\[1\]: one entry per edge required$"):
        Network(("a", "b"), ("w", "x"), ((0, 1),), (1.0,), ((1.0,), (1.0, 2.0)))
    with pytest.raises(FormatError, match=r"^capacity\[0\]\[0\]: nonpositive capacity$"):
        Network(("a", "b"), ("w", "x"), ((0, 1),), (1.0,), ((-1.0,), (1.0, 2.0)))
    # row 0's entry before row 1's length
    with pytest.raises(FormatError, match=r"^capacity\[0\]\[0\]: non-numeric capacity$"):
        Network(("a", "b"), ("w", "x"), ((0, 1),), (1.0,), (("x",), (1.0, 2.0)))
    # a value fault before a later ragged edge, and before a later bad demand
    with pytest.raises(FormatError, match=r"^edges\[0\]: endpoint out of range$"):
        Network(("a", "b", "c"), ("w",), ((0, 5), (0, 1, 2)), (1.0, 1.0), ((1.0, 1.0),))
    with pytest.raises(FormatError, match=r"^edges\[0\]: nonpositive demand$"):
        Network(("a", "b", "c"), ("w",), ((0, 1), (1, 2)), (-1.0, "x"), ((1.0, 1.0),))
    # an endpoint beyond int64 is out of range, not malformed
    with pytest.raises(FormatError, match=r"^edges\[0\]: endpoint out of range$"):
        Network(("a", "b"), ("w",), ((0, 2**70),), (1.0,), ((1.0,),))
    with pytest.raises(FormatError, match="duplicate node name"):
        Network(("a", "a"), ("w",), (), (), ((),))
    # malformed entries of a directly built network
    with pytest.raises(FormatError, match=r"^edges\[1\]: not a pair of endpoints$"):
        Network(("a", "b", "c"), ("w",), ((0, 1), (0, 1, 2)), (1.0, 1.0), ((1.0, 1.0),))
    with pytest.raises(FormatError, match=r"^edges\[0\]: not a pair of endpoints$"):
        Network(("a", "b"), ("w",), (5,), (1.0,), ((1.0,),))
    with pytest.raises(FormatError, match=r"^edges\[1\]: non-numeric demand$"):
        Network(("a", "b", "c"), ("w",), ((0, 1), (1, 2)), (1.0, "x"), ((1.0, 1.0),))
    with pytest.raises(FormatError, match=r"^capacity\[0\]\[1\]: non-numeric capacity$"):
        Network(("a", "b", "c"), ("w",), ((0, 1), (1, 2)), (1.0, 1.0), ((1.0, "x"),))
    with pytest.raises(FormatError, match=r"^edges\[0\]\.demand: number out of range$"):
        make_network(3, [(0, 1)], [2**1100], 1)
    with pytest.raises(FormatError, match=r"^capacity: number out of range$"):
        make_network(3, [(0, 1)], [1.0], 1, capacity=2**1100)


def test_network_refuses_ratios_out_of_float_range():
    # rho = demand / capacity underflows to 0 or overflows to inf, although
    # both numbers are positive and finite; the first bad pair is named
    msg = r"^capacity\[{}\]\[{}\]: demand over capacity out of range$"
    with np.errstate(all="raise"):  # and no floating-point warning on the way
        with pytest.raises(FormatError, match=msg.format(0, 0)):
            make_network(2, [(0, 1)], [1e-300], 1, capacity=1e30)
        with pytest.raises(FormatError, match=msg.format(0, 0)):
            make_network(2, [(0, 1)], [1.0], 1, capacity=1e-310)
        with pytest.raises(FormatError, match=msg.format(1, 2)):
            make_network(
                4, [(0, 1), (1, 2), (2, 3)], [1.0, 1.0, 1e-300], 2,
                capacity=[[1.0, 1.0, 1.0], [1.0, 1e-300, 1e30]],
            )
        # a subnormal ratio is positive, but its node margin 1 / rho overflows
        with pytest.raises(FormatError, match=msg.format(0, 0)):
            make_network(2, [(0, 1)], [1e-300], 1, capacity=1e10)
        # an odd-set margin overflows where the node margin does not: the
        # largest limit (n - 1) / 2 over rho is finite at 11 nodes, not at 13
        assert 5.0 / 3e-308 < math.inf and 6.0 / 3e-308 == math.inf
        edge = make_network(11, [(0, 1)], [3e-308], 1)
        assert edge.rho[0, 0] == 3e-308
        assert feasibility_ratio(edge, ChannelAssignment((0,))).beta < math.inf
        with pytest.raises(FormatError, match=msg.format(0, 0)):
            make_network(13, [(0, 1)], [3e-308], 1)
    # an int beyond float range still gets the array message, also where the
    # total demand cannot be added up in floats
    with pytest.raises(FormatError, match="do not form numeric arrays"):
        Network(("a", "b"), ("w",), ((0, 1),), (2**1100,), ((1.0,),))
    with pytest.raises(FormatError, match="do not form numeric arrays"):
        Network(("a", "b", "c"), ("w",), ((0, 1), (1, 2)), (2**1100, 1.0), ((1.0, 1.0),))


def _pairs_network(edges, demands=None, capacity=None, channels=1):
    m = len(edges)
    return Network(
        tuple(f"n{i}" for i in range(4)),
        tuple(f"w{i}" for i in range(channels)),
        edges,
        (1.0,) * m if demands is None else demands,
        tuple((1.0,) * m for _ in range(channels)) if capacity is None else capacity,
    )


@pytest.mark.parametrize(
    "edges, demands, capacity, msg",
    [
        # ragged rows and rows of three, also where the entry count is even
        (((0, 1), (1,)), None, None, r"^edges\[1\]: not a pair of endpoints$"),
        (((0, 1, 2), (1,)), None, None, r"^edges\[0\]: not a pair of endpoints$"),
        (((0, 1), (1, 2, 3)), None, None, r"^edges\[1\]: not a pair of endpoints$"),
        (((0, 1), 5), None, None, r"^edges\[1\]: not a pair of endpoints$"),
        (((0, 1), None), None, None, r"^edges\[1\]: not a pair of endpoints$"),
        # float, string and nested endpoints
        (((0, 1), (1, 2.0)), None, None, r"^edges\[1\]: non-integer endpoint$"),
        ((np.array([0.0, 1.0]),), None, None, r"^edges\[0\]: non-integer endpoint$"),
        (((np.float64(0), np.float64(1)),), None, None, r"^edges\[0\]: non-integer endpoint$"),
        (("01",), None, None, r"^edges\[0\]: non-integer endpoint$"),
        ((("0", "1"),), None, None, r"^edges\[0\]: non-integer endpoint$"),
        ((((0, 1), (1, 2)),), None, None, r"^edges\[0\]: non-integer endpoint$"),
        ((((0,), (1,)), ((1,), (2,))), None, None, r"^edges\[0\]: non-integer endpoint$"),
        # pairs that are not sequences
        (({0: 0, 1: 1},), None, None, "^network: entries do not form numeric arrays$"),
        (({0, 1},), None, None, "^network: entries do not form numeric arrays$"),
        # ints beyond float range in demand or capacity
        (((0, 1), (1, 2)), (1.0, 2**1030), None, "do not form numeric arrays$"),
        (((0, 1), (1, 2)), None, ((1.0, 10**400),), "do not form numeric arrays$"),
        # NaN capacity; a numpy scalar entry is checked like a Python one
        (((0, 1), (1, 2)), None, ((1.0, math.nan),), r"^capacity\[0\]\[1\]: non-finite capacity$"),
        (((0, 1),), None, ((np.float64(math.nan),),), r"^capacity\[0\]\[0\]: non-finite capacity$"),
        (((0, 1),), (np.float32(-1.0),), None, r"^edges\[0\]: nonpositive demand$"),
        (((0, 1),), None, (("1.0",),), r"^capacity\[0\]\[0\]: non-numeric capacity$"),
    ],
)
def test_network_messages_on_malformed_rows(edges, demands, capacity, msg):
    # each malformed row is reported with the message Network has always given
    with pytest.raises(FormatError, match=msg):
        _pairs_network(edges, demands, capacity)


def test_network_accepts_the_rows_numpy_accepts():
    # list rows next to tuple rows, bool and numpy integer endpoints, numpy
    # rows, tuple subclasses and numpy float entries convert as np.array
    # converts them
    point = collections.namedtuple("point", "u v")
    for edges in (
        ((0, 1), [1, 2]),
        [(0, 1), (1, 2)],
        ((False, True), (True, 2)),
        ((np.int64(0), np.int32(1)), (np.uint8(1), np.bool_(True) + 1)),
        (np.array([0, 1]), (1, 2)),
        (point(0, 1), (1, 2)),
    ):
        net = _pairs_network(edges)
        assert net.edge_array.dtype == np.intp
        assert net.edge_array.tolist() == [[0, 1], [1, 2]]
    net = _pairs_network(
        ((0, 1), (1, 2)),
        (np.float32(0.1), True),
        ((np.float32(0.1), 3), [np.float64(0.3), 2.5]),
        channels=2,
    )
    assert net.demand_array.tolist() == [float(np.float32(0.1)), 1.0]
    assert net.capacity_array.tolist() == [[float(np.float32(0.1)), 3.0], [0.3, 2.5]]
    assert _pairs_network((), (), ((), ()), channels=2).capacity_array.shape == (2, 0)


def test_network_rejects_non_finite_numbers():
    for bad in (math.inf, math.nan):
        with pytest.raises(FormatError, match="non-finite demand"):
            make_network(2, [(0, 1)], [bad], 1)
        with pytest.raises(FormatError, match="non-finite capacity"):
            make_network(2, [(0, 1)], [1.0], 1, capacity=bad)
    with pytest.raises(FormatError, match="total demand overflows"):
        make_network(3, [(0, 1), (1, 2)], [1e308, 1e308], 1)


def array_networks():
    """Seeded generator networks up to n = 220, and an edgeless one."""
    specs = [(6, 3, 1), (8, 2, 2), (20, 3, 3), (50, 5, 4), (220, 3, 5), (220, 5, 6)]
    nets = [generate_instance(InstanceSpec(n, w), seed) for n, w, seed in specs]
    return nets + [make_network(3, [], [], 2)]


def test_network_arrays_match_tuple_fields_bitwise():
    for net in array_networks():
        assert net.edge_array.dtype == np.intp
        for a in (net.demand_array, net.capacity_array, net.rho, net.node_demand):
            assert a.dtype == np.float64
        assert net.edge_array.shape == (net.n_edges, 2)
        assert net.edge_array.tolist() == [list(e) for e in net.edges]
        assert net.demand_array.tolist() == list(net.demands)
        assert net.capacity_array.shape == (net.n_channels, net.n_edges)
        assert net.capacity_array.tolist() == [list(row) for row in net.capacity]
        assert net.rho.shape == (net.n_edges, net.n_channels)
        assert net.rho.tolist() == [
            [r / row[e] for row in net.capacity] for e, r in enumerate(net.demands)
        ]
        assert net.node_demand.tolist() == [
            sum(net.demands[e] for e in incident_edges(net, v))
            for v in range(net.n_nodes)
        ]
        assert net.total_demand == sum(net.demands)


def test_network_arrays_are_read_only():
    for net in array_networks():
        for a in (
            net.edge_array,
            net.demand_array,
            net.capacity_array,
            net.rho,
            net.node_demand,
        ):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0


def test_homogeneous_flag():
    assert make_network(2, [(0, 1)], [1.0], 3, capacity=5.0).homogeneous
    het = make_network(2, [(0, 1)], [1.0], 2, capacity=[[5.0], [6.0]])
    assert not het.homogeneous


def test_assignment_checks():
    net = path4()
    check_assignment(net, ChannelAssignment((0, 1, 0)))
    with pytest.raises(ValueError, match="covers"):
        check_assignment(net, ChannelAssignment((0, 1)))
    with pytest.raises(ValueError, match="out of range"):
        check_assignment(net, ChannelAssignment((0, 1, 2)))
    # two bad edges: the message names the first, not the largest index
    with pytest.raises(ValueError, match=r"^edge 1: channel index 2 out of range$"):
        check_assignment(net, ChannelAssignment((0, 2, 5)))
    with pytest.raises(ValueError, match="negative"):
        ChannelAssignment((0, -1))


@pytest.mark.parametrize(
    "channels, edge",
    [
        ((0.5, 1, 0, 1), 0),
        ((0, 1.9, 0), 1),
        ((0, 1, 1.0), 2),
        ((0, True, 1), 1),
        ((False, False), 0),
        ((0, "1"), 1),
        ((0, np.float64(1.0)), 1),
        ((0, np.bool_(True)), 1),
        ((0, 1, None), 2),
    ],
)
def test_assignment_refuses_non_integer_channels(channels, edge):
    with pytest.raises(ValueError, match=rf"^edge {edge}: non-integer channel index$"):
        ChannelAssignment(channels)


def test_assignment_accepts_python_and_numpy_ints():
    channels = (0, np.int64(1), np.intp(2), np.uint8(1), 0)
    assert ChannelAssignment(channels).channel_of == channels
    # the first bad entry is named, whatever its fault
    with pytest.raises(ValueError, match=r"^edge 1: negative channel index$"):
        ChannelAssignment((0, np.int32(-1), 0.5))


def test_network_json_round_trip():
    net = make_network(
        4,
        [(0, 1), (1, 2), (2, 3)],
        [3.25, 1.0, 2.5],
        2,
        capacity=[[100.0, 150.0, 80.0], [90.0, 90.0, 90.0]],
    )
    text = serialize_network(net)
    again = parse_network(text)
    assert again == net
    # heterogeneous capacity must serialize as a full matrix
    assert isinstance(json.loads(text)["capacity"], list)


def test_scalar_capacity_shorthand():
    doc = {
        "nodes": ["a", "b", "c"],
        "channels": ["w0", "w1"],
        "edges": [
            {"u": "b", "v": "a", "demand": 2},
            {"u": "b", "v": "c", "demand": 1.5},
        ],
        "capacity": 120,
    }
    net = parse_network(json.dumps(doc))
    assert net.edges == ((0, 1), (1, 2))
    assert net.capacity == ((120.0, 120.0), (120.0, 120.0))
    assert net.homogeneous
    # homogeneous nets serialize back to the shorthand
    assert json.loads(serialize_network(net))["capacity"] == 120.0


@pytest.mark.parametrize(
    "mutate, msg",
    [
        (lambda d: d.pop("nodes"), "missing field 'nodes'"),
        (lambda d: d.pop("capacity"), "missing field 'capacity'"),
        (lambda d: d.update(nodes="xy"), "list of names"),
        (lambda d: d.update(nodes=["a", "a", "c"]), "duplicate node"),
        (lambda d: d["edges"][0].pop("demand"), "missing field 'demand'"),
        (lambda d: d["edges"][0].update(u="zz"), "unknown node"),
        (lambda d: d["edges"][0].update(v="a"), "self loop"),
        (lambda d: d["edges"][0].update(demand=True), "expected a number"),
        (lambda d: d["edges"][0].update(demand="3"), "expected a number"),
        (lambda d: d.update(capacity=[[1.0, 1.0]]), "one row per channel"),
        (lambda d: d.update(capacity=[[1.0], [1.0]]), "expected 2 entries"),
        (lambda d: d.update(capacity=True), "number or a matrix"),
        # names that are not strings must not reach a dict lookup
        (lambda d: d["edges"][0].update(u=["a"]), "u: expected a node name"),
        (lambda d: d["edges"][1].update(v={"c": 1}), "v: expected a node name"),
    ],
)
def test_network_parse_errors(mutate, msg):
    doc = {
        "nodes": ["a", "b", "c"],
        "channels": ["w0", "w1"],
        "edges": [
            {"u": "a", "v": "b", "demand": 2},
            {"u": "b", "v": "c", "demand": 1.5},
        ],
        "capacity": 120,
    }
    mutate(doc)
    with pytest.raises(FormatError, match=msg):
        parse_network(json.dumps(doc))


def test_network_parse_rejects_garbage():
    with pytest.raises(FormatError, match="not valid JSON"):
        parse_network("{nope")
    with pytest.raises(FormatError, match="JSON object"):
        parse_network("[1, 2]")


def test_assignment_round_trip():
    net = path4()
    y = ChannelAssignment((1, 0, 1))
    text = serialize_assignment(y, net)
    assert parse_assignment(text, net) == y
    doc = json.loads(text)
    assert doc == {"assignment": {"0": "w1", "1": "w0", "2": "w1"}}


@pytest.mark.parametrize(
    "doc, msg",
    [
        ({"assignment": {"0": "w0"}}, "missing entry for edge 1"),
        ({"assignment": {"0": "w0", "1": "w0", "2": "w0", "3": "w0"}}, "out of range"),
        ({"assignment": {"0": "w0", "1": "w9", "2": "w0"}}, "unknown channel"),
        ({"assignment": {"x": "w0"}}, "non-integer edge key"),
        ({"wrong": {}}, "missing field 'assignment'"),
        ({"assignment": {"0": ["w0"], "1": "w0", "2": "w0"}}, "expected a channel name"),
        ({"assignment": {"0": "w0", "1": {"w": 0}, "2": "w0"}}, "expected a channel name"),
        # int() takes these, as edges 10, 1 and 1
        ({"assignment": {" 1_0 ": "w0"}}, "non-integer edge key"),
        ({"assignment": {"+1": "w0"}}, "non-integer edge key"),
        ({"assignment": {"01": "w0"}}, "non-integer edge key"),
    ],
)
def test_assignment_parse_errors(doc, msg):
    net = path4()
    with pytest.raises(FormatError, match=msg):
        parse_assignment(json.dumps(doc), net)


def test_serialize_assignment_validates():
    net = path4()
    with pytest.raises(ValueError):
        serialize_assignment(ChannelAssignment((0, 0)), net)
