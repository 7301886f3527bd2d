"""Network model for secondary networks sharing a set of white channels.

A network is a simple undirected graph whose links carry fixed traffic
demands.  Every link can be served by any of the white channels, and each
(channel, link) pair has a capacity.  Channel assignments map every link to
exactly one channel; interference is one-hop, so links sharing a node and a
channel contend with each other.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np


class FormatError(ValueError):
    """A network or assignment document failed validation."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise FormatError(msg)


def _array(values: Sequence, shape: tuple, kinds: str, dtype: type) -> np.ndarray | None:
    """``values`` cast to ``dtype``, or None unless they form an array of
    ``shape`` whose dtype kind is in ``kinds``."""
    try:
        # np.array(()) would be a float array of shape (0,)
        a = np.array(values) if len(values) else np.zeros((0, *shape[1:]), np.intp)
    except ValueError:  # ragged
        return None
    return a.astype(dtype) if a.shape == shape and a.dtype.kind in kinds else None


def _not_positive_finite(x: float, where: str, name: str) -> FormatError:
    kind = "nonpositive" if x <= 0 else "non-finite"
    return FormatError(f"{where}: {kind} {name}")


@dataclass(frozen=True)
class Network:
    """Immutable network instance.

    Fields use dense indices: node u is ``node_names[u]``, channel w is
    ``channel_names[w]``, edge e is ``edges[e]`` with demand ``demands[e]``
    and per-channel capacity ``capacity[w][e]``.  Edges are stored with
    integer ends ``u < v`` and no duplicates; demands and capacities are
    positive and finite, and so is the total demand, so no load sum
    overflows.  Every ratio ``rho`` (below) is positive, and the largest
    odd-set limit ``max(1, (n - 1) / 2)`` over it is finite, so no margin
    overflows either.  The fields are the network's value (equality,
    hashing, JSON).

    Their array form is built once, when the network is made, validated, and
    read-only: ``edge_array`` (m, 2) intp, ``demand_array`` (m,),
    ``capacity_array`` (|W|, m), ``rho`` (m, |W|) with ``rho[e, w] =
    demands[e] / capacity[w][e]``, and ``node_demand`` (n,), each node's
    incident demand added in edge order.  ``total_demand`` is
    ``sum(demands)``, added left to right.
    """

    node_names: tuple[str, ...]
    channel_names: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    demands: tuple[float, ...]
    capacity: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        n, m, w = len(self.node_names), len(self.edges), len(self.channel_names)
        _require(w >= 1, "channels: at least one channel required")
        _require(len(set(self.node_names)) == n, "nodes: duplicate node name")
        _require(len(set(self.channel_names)) == w, "channels: duplicate channel name")
        ends = _array(self.edges, (m, 2), "biu", np.intp)
        demand = _array(self.demands, (m,), "biuf", np.float64)
        cap = _array(self.capacity, (w, m), "biuf", np.float64)
        ok = ends is not None and demand is not None and cap is not None
        if ok:
            u, v = ends.T
            key = np.sort(u * n + v)  # unique iff no edge repeats, given u < v < n
            with np.errstate(all="ignore"):  # a bad ratio is refused below
                rho = demand[:, None] / cap.T
                slack = max(1.0, (n - 1) / 2) / rho
            ok = bool(
                (0 <= u).all() and (u < v).all() and (v < n).all()
                and (key[1:] > key[:-1]).all()
                and ((demand > 0.0) & (demand < math.inf)).all()
                and ((cap > 0.0) & (cap < math.inf)).all()
                and ((rho > 0.0) & (rho < math.inf) & (slack < math.inf)).all()
            )
        total = sum(self.demands) if ok else math.inf
        if not total < math.inf:
            self._raise_first_fault()
        # in edge order; astype, as bincount returns ints when there is no edge
        node_demand = np.bincount(ends.ravel(), np.repeat(demand, 2), n).astype(float)
        arrays = {
            "edge_array": ends,
            "demand_array": demand,
            "capacity_array": cap,
            "rho": rho,
            "node_demand": node_demand,
        }
        for name, a in arrays.items():
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        object.__setattr__(self, "total_demand", float(total))

    def _raise_first_fault(self) -> None:
        """Raise for the first bad edge, demand or capacity, checked one entry
        at a time in field order: the error path of the array checks."""
        n, m, w = self.n_nodes, self.n_edges, self.n_channels
        seen = set()
        for i, edge in enumerate(self.edges):
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise FormatError(f"edges[{i}]: not a pair of endpoints") from None
            _require(
                isinstance(u, numbers.Integral) and isinstance(v, numbers.Integral),
                f"edges[{i}]: non-integer endpoint",
            )
            _require(0 <= u < n and 0 <= v < n, f"edges[{i}]: endpoint out of range")
            _require(u < v, f"edges[{i}]: self loop or unnormalized endpoints")
            _require((u, v) not in seen, f"edges[{i}]: duplicate edge")
            seen.add((u, v))
        _require(len(self.demands) == m, "demands: one demand per edge required")
        # 0 < x < inf in one comparison rejects NaN, infinities and nonpositive
        # values alike
        for i, r in enumerate(self.demands):
            _require(isinstance(r, numbers.Real), f"edges[{i}]: non-numeric demand")
            if not 0.0 < r < math.inf:
                raise _not_positive_finite(r, f"edges[{i}]", "demand")
        try:
            total = sum(self.demands)
        except OverflowError:  # an int beyond float range, see below
            total = 0.0
        _require(total < math.inf, "demands: total demand overflows")
        _require(len(self.capacity) == w, "capacity: one row per channel required")
        for wi, row in enumerate(self.capacity):
            _require(len(row) == m, f"capacity[{wi}]: one entry per edge required")
            for i, c in enumerate(row):
                where = f"capacity[{wi}][{i}]"
                _require(isinstance(c, numbers.Real), f"{where}: non-numeric capacity")
                if not 0.0 < c < math.inf:
                    raise _not_positive_finite(c, where, "capacity")
        limit = max(1.0, (n - 1) / 2)
        try:
            for wi, row in enumerate(self.capacity):
                for i, c in enumerate(row):
                    ratio = self.demands[i] / c
                    _require(
                        0.0 < ratio < math.inf and limit / ratio < math.inf,
                        f"capacity[{wi}][{i}]: demand over capacity out of range",
                    )
        except OverflowError:  # an int beyond float range, see below
            pass
        # entries that pass one by one but form no numeric array, such as an
        # int beyond float range
        raise FormatError("network: entries do not form numeric arrays")

    # -- basic sizes ------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.node_names)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_channels(self) -> int:
        return len(self.channel_names)

    @cached_property
    def max_degree(self) -> int:
        # minlength=1 gives an edgeless network degree 0
        return int(np.bincount(self.edge_array.ravel(), minlength=1).max())

    @property
    def homogeneous(self) -> bool:
        """True iff every (channel, link) capacity is the same value."""
        cap = self.capacity_array
        return cap.size == 0 or bool((cap == cap.flat[0]).all())


@dataclass(frozen=True)
class ChannelAssignment:
    """Total map from edge index to channel index."""

    channel_of: tuple[int, ...]

    def __post_init__(self) -> None:
        # by the entries' types: np.array((0, True)) would be an int array
        kinds = set(map(type, self.channel_of))
        if all(issubclass(t, numbers.Integral) and t is not bool for t in kinds):
            if min(self.channel_of, default=0) >= 0:
                return
        for e, w in enumerate(self.channel_of):
            if isinstance(w, bool) or not isinstance(w, numbers.Integral):
                raise ValueError(f"edge {e}: non-integer channel index")
            if w < 0:
                raise ValueError(f"edge {e}: negative channel index")

    def __len__(self) -> int:
        return len(self.channel_of)


def check_assignment(net: Network, y: ChannelAssignment) -> None:
    """Reject assignments that are not total maps into the channel set."""
    if len(y.channel_of) != net.n_edges:
        raise ValueError(
            f"assignment covers {len(y.channel_of)} edges, network has {net.n_edges}"
        )
    if max(y.channel_of, default=-1) < net.n_channels:
        return
    for e, w in enumerate(y.channel_of):
        if w >= net.n_channels:
            raise ValueError(f"edge {e}: channel index {w} out of range")


def is_proper_labeling(net: Network, labels: Sequence[int]) -> bool:
    """True iff no two edges that share a node carry the same label."""
    ends: set[tuple[int, int]] = set()
    for (u, v), c in zip(net.edges, labels):
        if (u, c) in ends or (v, c) in ends:
            return False
        ends.add((u, c))
        ends.add((v, c))
    return True


# -- JSON documents -------------------------------------------------------
#
# Network document:
#   {"nodes": ["a", ...], "channels": ["w0", ...],
#    "edges": [{"u": "a", "v": "b", "demand": 3.5}, ...],
#    "capacity": 150.0}                  # scalar shorthand, or
#    "capacity": [[...], ...]}           # one row per channel, entry per edge
#
# Assignment document:
#   {"assignment": {"0": "w1", "1": "w0", ...}}   # edge index -> channel name


def _is_number(x: object) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _number(x: object, where: str) -> float:
    _require(_is_number(x), f"{where}: expected a number")
    return _float(x, where)


def _float(x: object, where: str) -> float:
    try:
        return float(x)
    except OverflowError:  # an integer literal beyond float range
        raise FormatError(f"{where}: number out of range") from None


def parse_network(text: str | bytes) -> Network:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"network document is not valid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "network document must be a JSON object")
    for key in ("nodes", "channels", "edges", "capacity"):
        _require(key in doc, f"missing field '{key}'")

    nodes = doc["nodes"]
    _require(
        isinstance(nodes, list) and all(isinstance(x, str) for x in nodes),
        "nodes: expected a list of names",
    )
    channels = doc["channels"]
    _require(
        isinstance(channels, list) and all(isinstance(x, str) for x in channels),
        "channels: expected a list of names",
    )
    node_index = {name: i for i, name in enumerate(nodes)}
    _require(len(node_index) == len(nodes), "nodes: duplicate node name")

    _require(isinstance(doc["edges"], list), "edges: expected a list")
    edges: list[tuple[int, int]] = []
    demands: list[float] = []
    for i, rec in enumerate(doc["edges"]):
        _require(isinstance(rec, dict), f"edges[{i}]: expected an object")
        for key in ("u", "v", "demand"):
            _require(key in rec, f"edges[{i}]: missing field '{key}'")
        for end in ("u", "v"):
            name = rec[end]
            _require(isinstance(name, str), f"edges[{i}].{end}: expected a node name")
            _require(name in node_index, f"edges[{i}].{end}: unknown node '{name}'")
        u, v = node_index[rec["u"]], node_index[rec["v"]]
        _require(u != v, f"edges[{i}]: self loop at '{rec['u']}'")
        edges.append((min(u, v), max(u, v)))
        demands.append(_number(rec["demand"], f"edges[{i}].demand"))

    cap = doc["capacity"]
    m, w = len(edges), len(channels)
    if _is_number(cap):
        c = _number(cap, "capacity")
        matrix = tuple(tuple(c for _ in range(m)) for _ in range(w))
    else:
        _require(isinstance(cap, list), "capacity: expected a number or a matrix")
        _require(len(cap) == w, "capacity: one row per channel required")
        rows = []
        for wi, row in enumerate(cap):
            _require(
                isinstance(row, list) and len(row) == m,
                f"capacity[{wi}]: expected {m} entries",
            )
            rows.append(
                tuple(_number(c, f"capacity[{wi}][{i}]") for i, c in enumerate(row))
            )
        matrix = tuple(rows)

    return Network(
        node_names=tuple(nodes),
        channel_names=tuple(channels),
        edges=tuple(edges),
        demands=tuple(demands),
        capacity=matrix,
    )


def serialize_network(net: Network) -> str:
    cap: object
    if net.homogeneous and net.n_edges > 0:
        cap = net.capacity[0][0]
    else:
        cap = [list(row) for row in net.capacity]
    doc = {
        "nodes": list(net.node_names),
        "channels": list(net.channel_names),
        "edges": [
            {"u": net.node_names[u], "v": net.node_names[v], "demand": r}
            for (u, v), r in zip(net.edges, net.demands)
        ],
        "capacity": cap,
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_assignment(text: str | bytes, net: Network) -> ChannelAssignment:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"assignment document is not valid JSON: {exc}") from exc
    _require(isinstance(doc, dict) and "assignment" in doc, "missing field 'assignment'")
    amap = doc["assignment"]
    _require(isinstance(amap, dict), "assignment: expected an object")
    channel_index = {name: w for w, name in enumerate(net.channel_names)}
    channel_of = [-1] * net.n_edges
    for key, name in amap.items():
        try:
            e = int(key)
        except ValueError:
            e = -1  # "-1" itself parses, so the key is refused below
        # int() also takes spaces, a '+', leading zeros and underscores
        _require(key == str(e), f"assignment: non-integer edge key '{key}'")
        _require(0 <= e < net.n_edges, f"assignment: edge index {e} out of range")
        _require(channel_of[e] == -1, f"assignment: duplicate entry for edge {e}")
        _require(isinstance(name, str), f"assignment[{e}]: expected a channel name")
        _require(name in channel_index, f"assignment[{e}]: unknown channel '{name}'")
        channel_of[e] = channel_index[name]
    for e, w in enumerate(channel_of):
        _require(w >= 0, f"assignment: missing entry for edge {e}")
    return ChannelAssignment(tuple(channel_of))


def serialize_assignment(y: ChannelAssignment, net: Network) -> str:
    check_assignment(net, y)
    doc = {
        "assignment": {
            str(e): net.channel_names[w] for e, w in enumerate(y.channel_of)
        }
    }
    return json.dumps(doc, indent=2) + "\n"


def make_network(
    n_nodes: int,
    edges: Sequence[tuple[int, int]],
    demands: Sequence[float],
    n_channels: int,
    capacity: float | Sequence[Sequence[float]] = 1.0,
) -> Network:
    """Convenience constructor with normalized edges, nodes named ``n<i>``
    and channels ``w<j>``."""
    norm = tuple((min(u, v), max(u, v)) for u, v in edges)
    if isinstance(capacity, (int, float)):
        c = _float(capacity, "capacity")
        cap = tuple(tuple(c for _ in norm) for _ in range(n_channels))
    else:
        cap = tuple(
            tuple(_float(c, f"capacity[{wi}][{i}]") for i, c in enumerate(row))
            for wi, row in enumerate(capacity)
        )
    return Network(
        node_names=tuple(f"n{i}" for i in range(n_nodes)),
        channel_names=tuple(f"w{i}" for i in range(n_channels)),
        edges=norm,
        demands=tuple(_float(r, f"edges[{i}].demand") for i, r in enumerate(demands)),
        capacity=cap,
    )
