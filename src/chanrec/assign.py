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

import numpy as np

from .netmodel import ChannelAssignment, Network


@dataclass(frozen=True)
class EdgeColoring:
    """Proper edge coloring, one color index per edge."""

    color_of: tuple[int, ...]

    @property
    def n_colors(self) -> int:
        return max(self.color_of) + 1 if self.color_of else 0


def serialize_edge_coloring(coloring: EdgeColoring) -> str:
    doc = {"colors": {str(e): c for e, c in enumerate(coloring.color_of)}}
    return json.dumps(doc, indent=2) + "\n"


def edge_color(net: Network) -> EdgeColoring:
    """Proper edge coloring with at most ``max_degree + 1`` colors.

    Misra-Gries fan rotation: for each uncolored edge (u, v) build a maximal
    fan of u starting at v (successive fan edges colored with a color free at
    the previous fan vertex), flip the maximal alternating path through u in
    the two candidate colors if needed, then rotate a fan prefix and finish
    the last fan edge with the color freed at both ends.  Deterministic:
    edges in index order, smallest free color, smallest-index fan extension.

    State per node v: ``at[v][c]`` is the neighbor joined to v by the edge of
    color c, or -1 when c is free at v, and the int bitmask ``used[v]`` has
    bit c set iff c is taken at v.  Fan candidates are the set bits of
    ``used[u] & ~used[last]``, the first free color is the lowest zero bit,
    and the edge colors are read off ``at`` at the end.
    """
    at = [[-1] * (net.max_degree + 1) for _ in range(net.n_nodes)]
    used = [0] * net.n_nodes
    for u0, v0 in net.edges:
        at_u0, used_u0 = at[u0], used[u0]
        # cols[j] is the color of edge (u0, fan[j]); the first is uncolored
        fan, cols = [v0], [-1]
        while True:
            cand = used_u0 & ~used[fan[-1]]
            nxt = -1
            while cand:
                bit = cand & -cand
                cand ^= bit
                col = bit.bit_length() - 1
                wnode = at_u0[col]
                if (nxt < 0 or wnode < nxt) and wnode not in fan:
                    nxt, nxt_col = wnode, col
            if nxt < 0:
                break
            fan.append(nxt)
            cols.append(nxt_col)

        free_u0, free_last = ~used[u0], ~used[fan[-1]]
        c = (free_u0 & -free_u0).bit_length() - 1
        d = (free_last & -free_last).bit_length() - 1
        if c != d and used[u0] >> d & 1:
            _invert_path(at, used, u0, c, d)
            cols = [c if col == d else col for col in cols]

        # rotate the shortest fan prefix ending at a vertex with d free; a
        # prefix is a fan only if each edge's color is free at the previous
        # vertex, so the scan stops at the first edge that breaks this
        for w_idx, x in enumerate(fan):
            if not used[x] >> d & 1:
                break
            if w_idx + 1 == len(fan) or used[x] >> cols[w_idx + 1] & 1:
                raise AssertionError("no rotatable fan prefix; coloring bug")

        # fan[j] takes the color of edge (u0, fan[j + 1]), fan[w_idx] takes d
        for j, cc in enumerate(cols[1 : w_idx + 1] + [d]):
            x = fan[j]
            at[x][cc] = u0
            at_u0[cc] = x
            used[x] |= 1 << cc
            if j:
                at[x][cols[j]] = -1
                used[x] ^= 1 << cols[j]
        used[u0] |= 1 << d
    return EdgeColoring(tuple(at[u].index(v) for u, v in net.edges))


def _invert_path(at: list[list[int]], used: list[int], u0: int, c: int, d: int) -> None:
    """Swap colors c and d along the maximal alternating path leaving u0.

    c is free at u0, so the path starts with the d-colored edge at u0; after
    the swap d is free at u0 instead.  Every path node swaps its ``at``
    entries for c and d; only the two ends change which of them they use.
    """
    x, col = u0, d
    while True:
        y = at[x][col]
        at[x][c], at[x][d] = at[x][d], at[x][c]
        if y < 0:
            break
        x, col = y, c + d - col
    used[u0] ^= 1 << c | 1 << d
    used[x] ^= 1 << c | 1 << d


def greedy_assign(net: Network) -> ChannelAssignment:
    """Process links in index order; each takes the channel minimizing the
    demand already assigned on links sharing either endpoint (ties: lowest
    channel).  The link being placed is not counted, which cannot change the
    argmin."""
    loads = [[0.0] * net.n_channels for _ in range(net.n_nodes)]
    channels = range(net.n_channels)
    channel_of = []
    for (u, v), r in zip(net.edges, net.demands):
        lu, lv = loads[u], loads[v]
        w = min(channels, key=lambda c: lu[c] + lv[c])  # first minimum
        channel_of.append(w)
        lu[w] += r
        lv[w] += r
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
