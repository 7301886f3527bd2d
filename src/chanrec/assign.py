"""Channel assignment schemes.

Three ways to map links to white channels:

* ``greedy_assign``: one pass over the links, each link takes the channel
  with the least demand already assigned around its two endpoints;
* ``ifa_assign``: proper edge coloring with at most max_degree + 1 colors,
  color classes mapped to channels (interference-free whenever the channel
  count exceeds the maximum degree);
* ``random_assign``: seeded uniform choice per link.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .netmodel import ChannelAssignment, Network, is_proper_labeling


@dataclass(frozen=True)
class EdgeColoring:
    """Proper edge coloring, one color index per edge."""

    color_of: tuple[int, ...]

    @property
    def n_colors(self) -> int:
        return max(self.color_of) + 1 if self.color_of else 0


def is_proper_edge_coloring(net: Network, coloring: EdgeColoring) -> bool:
    if len(coloring.color_of) != net.n_edges:
        return False
    return is_proper_labeling(net, coloring.color_of)


def serialize_edge_coloring(coloring: EdgeColoring) -> str:
    doc = {"colors": {str(e): c for e, c in enumerate(coloring.color_of)}}
    return json.dumps(doc, indent=2) + "\n"


class _Palette:
    """Mutable coloring state: edge colors plus per-node color->neighbor maps."""

    def __init__(self, net: Network):
        self.net = net
        self.n_colors = net.max_degree + 1
        self.ecolor = [-1] * net.n_edges
        self.at = [dict() for _ in range(net.n_nodes)]  # color -> neighbor
        self.eid = {uv: e for e, uv in enumerate(net.edges)}

    def edge(self, u: int, v: int) -> int:
        return self.eid[(u, v) if u < v else (v, u)]

    def free(self, v: int, c: int) -> bool:
        return c not in self.at[v]

    def first_free(self, v: int) -> int:
        for c in range(self.n_colors):
            if c not in self.at[v]:
                return c
        raise AssertionError("palette exhausted")

    def set_color(self, u: int, v: int, c: int) -> None:
        self.at[u][c] = v
        self.at[v][c] = u
        self.ecolor[self.edge(u, v)] = c

    def unset_color(self, u: int, v: int) -> None:
        c = self.ecolor[self.edge(u, v)]
        del self.at[u][c]
        del self.at[v][c]
        self.ecolor[self.edge(u, v)] = -1


def edge_color(net: Network) -> EdgeColoring:
    """Proper edge coloring with at most ``max_degree + 1`` colors.

    Fan-rotation algorithm: for each uncolored edge (u, v) build a maximal
    fan of u starting at v (successive fan edges colored with a color free at
    the previous fan vertex), flip the maximal alternating path through u in
    the two candidate colors if needed, then rotate a fan prefix and finish
    the last fan edge with the color freed at both ends.  Deterministic:
    edges in index order, smallest free color, smallest-index fan extension.
    """
    pal = _Palette(net)
    for e0, (u0, v0) in enumerate(net.edges):
        fan = [v0]
        fan_set = {v0}
        while True:
            last = fan[-1]
            nxt = None
            for c, wnode in pal.at[u0].items():
                if wnode not in fan_set and pal.free(last, c):
                    if nxt is None or wnode < nxt:
                        nxt = wnode
            if nxt is None:
                break
            fan.append(nxt)
            fan_set.add(nxt)

        c = pal.first_free(u0)
        d = pal.first_free(fan[-1])
        if c != d and not pal.free(u0, d):
            _invert_path(pal, u0, c, d)

        # rotate the shortest fan prefix ending at a vertex with d free; a
        # prefix is a fan only if each edge's color is free at the previous
        # vertex, so the scan stops at the first edge that breaks this
        for w_idx, x in enumerate(fan):
            if pal.free(x, d):
                break
            if w_idx + 1 == len(fan) or not pal.free(
                x, pal.ecolor[pal.edge(u0, fan[w_idx + 1])]
            ):
                raise AssertionError("no rotatable fan prefix; coloring bug")

        new_cols = [
            pal.ecolor[pal.edge(u0, fan[j + 1])] for j in range(w_idx)
        ] + [d]
        for j in range(1, w_idx + 1):
            pal.unset_color(u0, fan[j])
        for j, cc in enumerate(new_cols):
            pal.set_color(u0, fan[j], cc)
    return EdgeColoring(tuple(pal.ecolor))


def _invert_path(pal: _Palette, u0: int, c: int, d: int) -> None:
    """Swap colors c and d along the maximal alternating path leaving u0.

    c is free at u0, so the path starts with the d-colored edge at u0; after
    the swap d is free at u0 instead.
    """
    path = []
    x, col = u0, d
    while col in pal.at[x]:
        ynode = pal.at[x][col]
        path.append((x, ynode, col))
        x = ynode
        col = c if col == d else d
    for a, b, _ in path:
        pal.unset_color(a, b)
    for a, b, cc in path:
        pal.set_color(a, b, d if cc == c else c)


def greedy_assign(
    net: Network, edge_order: Sequence[int] | None = None
) -> ChannelAssignment:
    """Process links in order; each takes the channel minimizing the demand
    already assigned on links sharing either endpoint (ties: lowest channel).
    The link being placed is not counted, which cannot change the argmin."""
    if edge_order is None:
        order = range(net.n_edges)
    else:
        if sorted(edge_order) != list(range(net.n_edges)):
            raise ValueError("edge_order must be a permutation of all edge indices")
        order = edge_order
    loads = np.zeros((net.n_nodes, net.n_channels))
    channel_of = [-1] * net.n_edges
    for e in order:
        u, v = net.edges[e]
        w = int(np.argmin(loads[u] + loads[v]))
        channel_of[e] = w
        loads[u, w] += net.demands[e]
        loads[v, w] += net.demands[e]
    return ChannelAssignment(tuple(channel_of))


def ifa_assign(net: Network) -> ChannelAssignment:
    """Edge-color the network, then map color classes to channels.

    Classes are sorted by descending total demand (ties: lower color first)
    and class i goes to channel i mod n_channels, so when there are more
    channels than colors every class keeps a private channel and the result
    is interference-free.
    """
    coloring = edge_color(net)
    totals: dict[int, float] = {}
    members: dict[int, list[int]] = {}
    for e, c in enumerate(coloring.color_of):
        totals[c] = totals.get(c, 0.0) + net.demands[e]
        members.setdefault(c, []).append(e)
    ranked = sorted(totals, key=lambda c: (-totals[c], c))
    channel_of = [-1] * net.n_edges
    for i, c in enumerate(ranked):
        w = i % net.n_channels
        for e in members[c]:
            channel_of[e] = w
    return ChannelAssignment(tuple(channel_of))


def random_assign(net: Network, seed: int) -> ChannelAssignment:
    """Uniform seeded channel per link."""
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, net.n_channels, size=net.n_edges)
    return ChannelAssignment(tuple(int(w) for w in picks))
