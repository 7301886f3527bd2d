"""Small pure-python oracles used to cross-check the library.

Everything here enumerates explicitly, channel subsets included, and stays
deliberately independent of the implementation under test.  Only usable on
tiny instances, except the per-edge load loops (``node_loads``,
``wedge_loads``), which cost O(sum of squared degrees) and run at any size,
and ``odd_mask_loads``, which is numpy over 2^(n-1) masks and runs to about
20 nodes.
"""

import itertools
import math

import numpy as np

from chanrec import assign
from chanrec.assign import EdgeColoring
from chanrec.netmodel import ChannelAssignment, Network


def incident_edges(net, v):
    """Edge indices touching node ``v``, in edge order."""
    return tuple(e for e, (a, b) in enumerate(net.edges) if v in (a, b))


def induced_edges(net, nodes):
    """Edge indices with both ends in ``nodes``, in edge order."""
    s = set(nodes)
    return tuple(e for e, (a, b) in enumerate(net.edges) if a in s and b in s)


def degree(net, v):
    return len(incident_edges(net, v))


def is_proper_edge_coloring(net, coloring):
    # one colour per edge, and no (node, colour) pair twice
    if len(coloring.color_of) != net.n_edges:
        return False
    ends = [(x, c) for uv, c in zip(net.edges, coloring.color_of) for x in uv]
    return len(set(ends)) == len(ends)


def node_channel_load(net, y, v, w):
    return sum(
        net.demands[e]
        for e in incident_edges(net, v)
        if y.channel_of[e] == w
    )


def node_loads(net, y, weights):
    """loads[v][w]: weight of the edges at node v on channel w, added in edge
    order."""
    loads = [[0.0] * net.n_channels for _ in range(net.n_nodes)]
    for e, uv in enumerate(net.edges):
        for x in uv:
            loads[x][y.channel_of[e]] += weights[e]
    return loads


def wedge_loads(net, y, weights):
    """Per-channel induced load of every 3-node set with two or three edges,
    keyed by the sorted node triple: at each node, each pair of its edges
    and the edge closing them into a triangle, if there is one, added in
    edge-index order."""
    edge_of = {uv: e for e, uv in enumerate(net.edges)}
    at = [[] for _ in range(net.n_nodes)]
    for e, uv in enumerate(net.edges):
        for x in uv:
            at[x].append(e)
    n_channels = net.n_channels
    rows = {}
    for v, edges in enumerate(at):
        for e, f in itertools.combinations(edges, 2):
            a, b = sorted(set(net.edges[e] + net.edges[f]) - {v})
            closing = edge_of.get((a, b))
            load = [0.0] * n_channels
            for g in sorted([e, f] if closing is None else [e, f, closing]):
                load[y.channel_of[g]] += weights[g]
            rows[tuple(sorted((v, a, b)))] = load
    return rows


def odd_mask_loads(net, y, weights):
    """(masks, loads[i, w]) of every odd node set, as ascending bitmasks
    (singletons included): for each edge in edge order, its weight added on
    its channel to every odd mask that holds both its ends."""
    weights = np.asarray(weights)
    masks = np.arange(1 << net.n_nodes, dtype=np.int64)
    masks = masks[np.bitwise_count(masks) % 2 == 1]
    loads = np.zeros((net.n_channels, len(masks)), dtype=weights.dtype)
    for e, (u, v) in enumerate(net.edges):
        hold = (masks >> u) & (masks >> v) & 1 == 1
        loads[y.channel_of[e], hold] += weights[e]
    return masks, loads.T


def brute_m1(net, y, k):
    kk = min(k, net.n_channels)
    best = 0.0
    for v in range(net.n_nodes):
        for S in itertools.combinations(range(net.n_channels), kk):
            best = max(best, sum(node_channel_load(net, y, v, w) for w in S))
    return best


def brute_m2(net, y, k, max_size=None):
    kk = min(k, net.n_channels)
    top = net.n_nodes if max_size is None else min(net.n_nodes, max_size)
    best = 0.0
    for size in range(3, top + 1, 2):
        for U in itertools.combinations(range(net.n_nodes), size):
            induced = induced_edges(net, U)
            for S in itertools.combinations(range(net.n_channels), kk):
                tot = sum(net.demands[e] for e in induced if y.channel_of[e] in S)
                best = max(best, 2.0 * tot / (size - 1))
    return best


def brute_capacity(net, y, k):
    return max(brute_m1(net, y, k), brute_m2(net, y, k))


def brute_beta(net, y):
    z = math.inf
    for v in range(net.n_nodes):
        for w in range(net.n_channels):
            load = sum(
                net.demands[e] / net.capacity[w][e]
                for e in incident_edges(net, v)
                if y.channel_of[e] == w
            )
            if load > 0:
                z = min(z, 1.0 / load)
    for size in range(3, net.n_nodes + 1, 2):
        for U in itertools.combinations(range(net.n_nodes), size):
            induced = induced_edges(net, U)
            for w in range(net.n_channels):
                load = sum(
                    net.demands[e] / net.capacity[w][e]
                    for e in induced
                    if y.channel_of[e] == w
                )
                if load > 0:
                    z = min(z, (size - 1) / (2.0 * load))
    return z


def all_assignments(net):
    for vec in itertools.product(range(net.n_channels), repeat=net.n_edges):
        yield ChannelAssignment(vec)


def best_partition_value(values):
    """Optimal two-way split: minimal max part sum."""
    total = sum(values)
    best = total
    n = len(values)
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            s = sum(values[i] for i in combo)
            best = min(best, max(s, total - s))
    return float(best)


def items_pack(volumes, n_bins, cap, eps=1e-9):
    """Backtracking bin packing: can all volumes fit into n_bins of cap?"""
    bins = [0.0] * n_bins
    order = sorted(volumes, reverse=True)

    def place(i):
        if i == len(order):
            return True
        tried = set()
        for b in range(n_bins):
            key = round(bins[b], 12)
            if key in tried:
                continue
            tried.add(key)
            if bins[b] + order[i] <= cap + eps:
                bins[b] += order[i]
                if place(i + 1):
                    return True
                bins[b] -= order[i]
        return False

    return place(0)


def is_bipartite(net):
    color = [-1] * net.n_nodes
    for start in range(net.n_nodes):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for e in incident_edges(net, v):
                a, b = net.edges[e]
                u = b if a == v else a
                if color[u] == -1:
                    color[u] = 1 - color[v]
                    queue.append(u)
                elif color[u] == color[v]:
                    return False
    return True


def sequential_proper_assignment(net, rng):
    """Interference-free assignment by first-fit coloring on a shuffled edge
    order.  Needs n_channels >= 2*d_max - 1."""
    order = list(range(net.n_edges))
    rng.shuffle(order)
    chan = [-1] * net.n_edges
    for e in order:
        u, v = net.edges[e]
        used = {
            chan[f]
            for x in (u, v)
            for f in incident_edges(net, x)
            if chan[f] != -1
        }
        w = 0
        while w in used:
            w += 1
        if w >= net.n_channels:
            raise ValueError("not enough channels for a proper assignment")
        chan[e] = w
    return ChannelAssignment(tuple(chan))


def greedy_reference(net):
    """``greedy_assign`` on a numpy load table: ties go to the first minimum,
    by ``np.argmin``."""
    loads = np.zeros((net.n_nodes, net.n_channels))
    channel_of = [-1] * net.n_edges
    for e, (u, v) in enumerate(net.edges):
        w = int(np.argmin(loads[u] + loads[v]))
        channel_of[e] = w
        loads[u, w] += net.demands[e]
        loads[v, w] += net.demands[e]
    return ChannelAssignment(tuple(channel_of))


def ifa_reference(net):
    """``ifa_assign`` with per-class dicts: class totals added in edge order,
    classes ranked by descending total (ties: lower color first), class i on
    channel i mod n_channels.  Colors are ``assign.edge_color``'s, looked up
    at call time."""
    coloring = assign.edge_color(net)
    totals = {}
    members = {}
    for e, c in enumerate(coloring.color_of):
        totals[c] = totals.get(c, 0.0) + net.demands[e]
        members.setdefault(c, []).append(e)
    ranked = sorted(totals, key=lambda c: (-totals[c], c))
    channel_of = [-1] * net.n_edges
    for i, c in enumerate(ranked):
        for e in members[c]:
            channel_of[e] = i % net.n_channels
    return ChannelAssignment(tuple(channel_of))


def generate_instance_scalar(spec, seed):
    """The instance generator drawn one coin and one demand per call, in the
    documented draw order: pair visiting order, one coin per visited pair,
    demands in edge-addition order, then one capacity per channel."""
    rng = np.random.default_rng(seed)
    n = spec.n_nodes
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    visit = rng.permutation(len(pairs))
    degree = [0] * n
    edges = []
    for i in visit:
        u, v = pairs[i]
        coin = rng.random()
        if (
            coin < spec.edge_prob
            and degree[u] < spec.degree_cap
            and degree[v] < spec.degree_cap
        ):
            edges.append((u, v))
            degree[u] += 1
            degree[v] += 1
    demands = tuple(
        float(rng.uniform(spec.demand_range[0], spec.demand_range[1]))
        for _ in edges
    )
    per_channel = [
        float(rng.uniform(spec.capacity_range[0], spec.capacity_range[1]))
        for _ in range(spec.n_channels)
    ]
    capacity = tuple(tuple(c for _ in edges) for c in per_channel)
    return Network(
        node_names=tuple(f"n{i}" for i in range(n)),
        channel_names=tuple(f"w{i}" for i in range(spec.n_channels)),
        edges=tuple(edges),
        demands=demands,
        capacity=capacity,
    )


class _Palette:
    """Mutable coloring state: edge colors plus per-node color->neighbor maps."""

    def __init__(self, net: Network):
        self.net = net
        degrees = [degree(net, v) for v in range(net.n_nodes)]
        self.n_colors = max(degrees, default=0) + 1
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


def edge_color_reference(net: Network) -> EdgeColoring:
    """The fan-rotation coloring on dict-based per-node state, as
    ``chanrec.assign.edge_color`` must reproduce it bit for bit.

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
