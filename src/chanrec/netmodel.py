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
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence


class FormatError(ValueError):
    """A network or assignment document failed validation."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise FormatError(msg)


def _not_positive_finite(x: float, where: str, name: str) -> FormatError:
    kind = "nonpositive" if x <= 0 else "non-finite"
    return FormatError(f"{where}: {kind} {name}")


@dataclass(frozen=True)
class Network:
    """Immutable network instance.

    Fields use dense indices: node u is ``node_names[u]``, channel w is
    ``channel_names[w]``, edge e is ``edges[e]`` with demand ``demands[e]``
    and per-channel capacity ``capacity[w][e]``.  Edges are stored with
    ``u < v`` and no duplicates; demands and capacities are positive and
    finite, and so is the total demand, so no load sum overflows.
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
        seen = set()
        for i, (u, v) in enumerate(self.edges):
            _require(0 <= u < n and 0 <= v < n, f"edges[{i}]: endpoint out of range")
            _require(u < v, f"edges[{i}]: self loop or unnormalized endpoints")
            _require((u, v) not in seen, f"edges[{i}]: duplicate edge")
            seen.add((u, v))
        _require(len(self.demands) == m, "demands: one demand per edge required")
        # 0 < x < inf in one comparison rejects NaN, infinities and nonpositive
        # values alike
        for i, r in enumerate(self.demands):
            if not 0.0 < r < math.inf:
                raise _not_positive_finite(r, f"edges[{i}]", "demand")
        _require(sum(self.demands) < math.inf, "demands: total demand overflows")
        _require(len(self.capacity) == w, "capacity: one row per channel required")
        for wi, row in enumerate(self.capacity):
            _require(len(row) == m, f"capacity[{wi}]: one entry per edge required")
            for i, c in enumerate(row):
                if not 0.0 < c < math.inf:
                    raise _not_positive_finite(c, f"capacity[{wi}][{i}]", "capacity")

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
    def _incidence(self) -> tuple[tuple[int, ...], ...]:
        inc: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for e, (u, v) in enumerate(self.edges):
            inc[u].append(e)
            inc[v].append(e)
        return tuple(tuple(es) for es in inc)

    def incident_edges(self, node: int) -> tuple[int, ...]:
        """Edge indices touching ``node``."""
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node index {node} out of range")
        return self._incidence[node]

    def induced_edges(self, nodes: Iterable[int]) -> tuple[int, ...]:
        """Edge indices with both endpoints inside ``nodes``."""
        s = set(nodes)
        for v in s:
            if not 0 <= v < self.n_nodes:
                raise ValueError(f"node index {v} out of range")
        return tuple(
            e for e, (u, v) in enumerate(self.edges) if u in s and v in s
        )

    def degree(self, node: int) -> int:
        return len(self.incident_edges(node))

    @cached_property
    def max_degree(self) -> int:
        if self.n_nodes == 0:
            return 0
        return max(len(es) for es in self._incidence)

    @property
    def total_demand(self) -> float:
        return float(sum(self.demands))

    @property
    def homogeneous(self) -> bool:
        """True iff every (channel, link) capacity is the same value."""
        if self.n_edges == 0 or self.n_channels == 0:
            return True
        first = self.capacity[0][0]
        return all(c == first for row in self.capacity for c in row)


@dataclass(frozen=True)
class ChannelAssignment:
    """Total map from edge index to channel index."""

    channel_of: tuple[int, ...]

    def __post_init__(self) -> None:
        for e, w in enumerate(self.channel_of):
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
            _require(
                rec[end] in node_index,
                f"edges[{i}].{end}: unknown node '{rec[end]}'",
            )
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
            raise FormatError(f"assignment: non-integer edge key '{key}'") from None
        _require(0 <= e < net.n_edges, f"assignment: edge index {e} out of range")
        _require(channel_of[e] == -1, f"assignment: duplicate entry for edge {e}")
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
    node_prefix: str = "n",
    channel_prefix: str = "w",
) -> Network:
    """Convenience constructor with generated names and normalized edges."""
    norm = tuple((min(u, v), max(u, v)) for u, v in edges)
    if isinstance(capacity, (int, float)):
        cap = tuple(
            tuple(float(capacity) for _ in norm) for _ in range(n_channels)
        )
    else:
        cap = tuple(tuple(float(c) for c in row) for row in capacity)
    return Network(
        node_names=tuple(f"{node_prefix}{i}" for i in range(n_nodes)),
        channel_names=tuple(f"{channel_prefix}{i}" for i in range(n_channels)),
        edges=norm,
        demands=tuple(float(r) for r in demands),
        capacity=cap,
    )
