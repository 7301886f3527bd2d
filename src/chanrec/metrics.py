"""Recovery capacity and feasibility metrics for channel assignments.

The recovery capacity of an assignment y under k channel preemptions is the
worst-case total demand that must be re-accommodated, maximized over which k
channels are lost.  It is the larger of two terms:

* the node term (``m1``): worst over nodes v and channel sets S of size k of
  the demand incident to v carried on channels in S;
* the odd-set term (``m2``): worst over odd node sets U (|U| >= 3) and sets S
  of ``2/(|U|-1)`` times the demand induced inside U on channels in S.

Both arise because links sharing a node and a channel cannot be recovered
simultaneously: the links that stay active on one channel form a matching, so
recovery demand is constrained by the matching polytope (degree constraints
give the node term, odd-set constraints give the rest).

Feasibility of an assignment is measured by the scaling margin ``beta``: the
largest factor by which all demands could be multiplied while every node and
odd-set capacity constraint still holds.  ``beta >= 1`` means the assignment
is feasible as given.

Exact odd-set evaluation enumerates all odd subsets and is capped at
``ODDSET_EXACT_CAP`` nodes by default; above that, bracket variants return
certified lower/upper bounds instead.  Per channel, the induced loads of all
2^n node subsets are accumulated on a dense subset lattice (each edge adds its
weight to the quarter of the lattice that contains both endpoints), and the
odd subsets are then read off it.  The cap itself may not exceed
``ODDSET_CAP_LIMIT``: the enumeration allocates arrays of 2^n entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .netmodel import ChannelAssignment, Network, check_assignment, is_proper_labeling

TOL = 1e-9
ODDSET_EXACT_CAP = 18
# at n = 22 the subset lattice is 32 MiB of float64, beside the cached odd-mask
# table (2^21 int64 masks plus their sizes) and 16 MiB of loads per channel;
# each further node doubles all three
ODDSET_CAP_LIMIT = 22

IFA_CAPACITY_RATIO_BOUND = 1.25


def greedy_capacity_ratio_bound(n_channels: int) -> float:
    """Worst-case capacity ratio of the greedy scheme versus the optimum."""
    if n_channels < 1:
        raise ValueError("n_channels must be >= 1")
    return 1.5 * (3.0 - 2.0 / n_channels)


class NodeLoadWitness(NamedTuple):
    node: int
    channels: tuple[int, ...]


class OddSetLoadWitness(NamedTuple):
    nodes: tuple[int, ...]
    channels: tuple[int, ...]


class NodeConstraintWitness(NamedTuple):
    node: int
    channel: int


class OddSetConstraintWitness(NamedTuple):
    nodes: tuple[int, ...]
    channel: int


# -- shared load tables ---------------------------------------------------


def _check_cap(oddset_exact_cap: int) -> None:
    """Refuse an exact-enumeration cap whose tables could not be allocated."""
    if oddset_exact_cap > ODDSET_CAP_LIMIT:
        raise ValueError(
            f"oddset_exact_cap {oddset_exact_cap} exceeds the limit of "
            f"{ODDSET_CAP_LIMIT} nodes (exact enumeration allocates 2^n entries)"
        )


def _resolve_mode(net: Network, mode: str, oddset_exact_cap: int) -> str:
    """'exact' or 'bracket'; 'auto' is exact up to ``oddset_exact_cap`` nodes."""
    _check_cap(oddset_exact_cap)
    if mode == "auto":
        mode = "exact" if net.n_nodes <= oddset_exact_cap else "bracket"
    if mode not in ("exact", "bracket"):
        raise ValueError(f"unknown mode '{mode}'")
    return mode


def channel_load_at_node(
    net: Network, y: ChannelAssignment, node: int, channel: int
) -> float:
    """Total demand incident to ``node`` carried on ``channel`` under y."""
    check_assignment(net, y)
    if not 0 <= channel < net.n_channels:
        raise ValueError(f"channel index {channel} out of range")
    return float(
        sum(
            net.demands[e]
            for e in net.incident_edges(node)
            if y.channel_of[e] == channel
        )
    )


def _node_channel_loads(net: Network, y: ChannelAssignment) -> np.ndarray:
    loads = np.zeros((net.n_nodes, net.n_channels))
    for e, (u, v) in enumerate(net.edges):
        w = y.channel_of[e]
        loads[u, w] += net.demands[e]
        loads[v, w] += net.demands[e]
    return loads


@lru_cache(maxsize=8)
def _odd_masks(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Bitmasks of all odd node subsets of size >= 3, with their sizes."""
    masks = np.arange(1 << n_nodes, dtype=np.int64)
    sizes = np.bitwise_count(masks).astype(np.int64)
    keep = (sizes % 2 == 1) & (sizes >= 3)
    return masks[keep], sizes[keep]


def _mask_nodes(mask: int) -> tuple[int, ...]:
    out = []
    v = 0
    m = int(mask)
    while m:
        if m & 1:
            out.append(v)
        m >>= 1
        v += 1
    return tuple(out)


def _oddset_loads(
    net: Network, y: ChannelAssignment, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-channel induced load of every odd subset.

    Accumulates on the dense subset lattice: one 2^n buffer, viewed as an
    n-dimensional 2x...x2 array in which node u is axis n-1-u.  Per channel,
    each edge (u, v) on it adds its weight, in edge-index order, to the
    quarter of the lattice with both u and v inside; the odd masks are then
    gathered from it.  No BLAS involved, so results are bitwise reproducible.
    Returns (masks, sizes, loads[n_masks, n_channels]).
    """
    n = net.n_nodes
    masks, sizes = _odd_masks(n)
    loads = np.zeros((len(masks), net.n_channels))
    on_channel: list[list[int]] = [[] for _ in range(net.n_channels)]
    for e, c in enumerate(y.channel_of):
        on_channel[c].append(e)
    lattice = np.empty(1 << n)
    cube = lattice.reshape((2,) * n)
    for c, edges in enumerate(on_channel):
        if not edges:
            continue
        lattice.fill(0.0)
        for e in edges:
            u, v = net.edges[e]
            inside: list[slice | int] = [slice(None)] * n
            inside[n - 1 - u] = inside[n - 1 - v] = 1
            cube[tuple(inside)] += weights[e]
        loads[:, c] = lattice[masks]
    return masks, sizes, loads


def _topk_sum(loads: np.ndarray, k: int) -> np.ndarray:
    """Row-wise sum of the k largest channel loads, added in descending order.

    k bubble passes of column-wise max/min move each row's k largest values,
    in descending order, into the first k columns; adding those left to right
    equals column k-1 of the descending cumulative sum bit for bit.
    """
    cols = [loads[:, j] for j in range(loads.shape[1])]
    for i in range(k):
        for j in range(len(cols) - 1, i, -1):
            left, right = cols[j - 1], cols[j]
            cols[j - 1], cols[j] = np.maximum(left, right), np.minimum(left, right)
    total = cols[0].copy()
    for col in cols[1:k]:
        total += col
    return total


def _best_channel_set(loads_row: np.ndarray, k_eff: int) -> tuple[int, ...]:
    """Smallest channel set of size k_eff attaining the top-k load sum."""
    order = sorted(range(len(loads_row)), key=lambda w: (-loads_row[w], w))
    return tuple(sorted(order[:k_eff]))


# -- node term ------------------------------------------------------------


def max_node_load(
    net: Network, y: ChannelAssignment, k: int
) -> tuple[float, NodeLoadWitness | None]:
    """Node term: worst demand at a single node over any k preempted channels.

    With k >= n_channels this is just the largest total demand at a node.
    Returns 0 with no witness on edgeless networks.
    """
    check_assignment(net, y)
    if k < 1:
        raise ValueError("k must be >= 1")
    if net.n_edges == 0:
        return 0.0, None
    k_eff = min(k, net.n_channels)
    loads = _node_channel_loads(net, y)
    per_node = _topk_sum(loads, k_eff)
    best = float(per_node.max())
    node = int(np.flatnonzero(per_node == per_node.max())[0])
    return best, NodeLoadWitness(node, _best_channel_set(loads[node], k_eff))


# -- odd-set term ---------------------------------------------------------


def max_odd_set_load_exact(
    net: Network,
    y: ChannelAssignment,
    k: int,
    oddset_exact_cap: int = ODDSET_EXACT_CAP,
) -> tuple[float, OddSetLoadWitness | None]:
    """Odd-set term by full enumeration of odd subsets.

    Refuses networks above ``oddset_exact_cap`` nodes; use
    :func:`max_odd_set_load_bracket` there instead.
    """
    check_assignment(net, y)
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_cap(oddset_exact_cap)
    if net.n_nodes > oddset_exact_cap:
        raise ValueError(
            f"exact odd-set enumeration disabled above {oddset_exact_cap} nodes; "
            "use max_odd_set_load_bracket"
        )
    if net.n_edges == 0 or net.n_nodes < 3:
        return 0.0, None
    k_eff = min(k, net.n_channels)
    weights = np.asarray(net.demands)
    masks, sizes, loads = _oddset_loads(net, y, weights)
    values = _topk_sum(loads, k_eff) * (2.0 / (sizes - 1))
    best = float(values.max())
    ties = np.flatnonzero(values == values.max())
    node_sets = sorted(_mask_nodes(masks[i]) for i in ties)
    chosen = node_sets[0]
    row = int(ties[[_mask_nodes(masks[i]) for i in ties].index(chosen)])
    return best, OddSetLoadWitness(chosen, _best_channel_set(loads[row], k_eff))


def _triple_top_loads(
    n_nodes: int,
    edges: tuple[tuple[int, int], ...],
    weights: np.ndarray,
    channels: np.ndarray,
) -> tuple[float, float, float]:
    """Max over 3-node subsets of the top-1/2/3 per-channel induced load sums.

    A 3-node subset induces at most three edges, hence at most three loaded
    channels; the scan runs over (edge, third node) pairs so only subsets
    with at least one induced edge are touched.
    """
    if n_nodes < 3 or len(edges) == 0:
        return 0.0, 0.0, 0.0
    dem = np.zeros((n_nodes, n_nodes))
    chan = np.full((n_nodes, n_nodes), -1, dtype=np.int64)
    for e, (u, v) in enumerate(edges):
        dem[u, v] = dem[v, u] = weights[e]
        chan[u, v] = chan[v, u] = channels[e]
    us = np.fromiter((u for u, _ in edges), dtype=np.int64)
    vs = np.fromiter((v for _, v in edges), dtype=np.int64)
    r1 = weights[:, None]
    w1 = channels[:, None]
    r2, c2 = dem[us, :], chan[us, :]
    r3, c3 = dem[vs, :], chan[vs, :]
    t = np.arange(n_nodes)[None, :]
    valid = (t != us[:, None]) & (t != vs[:, None])

    la = r1 + r2 * (c2 == w1) + r3 * (c3 == w1)
    lb = r2 * (c2 != w1) + r3 * ((c3 != w1) & (c3 == c2))
    lc = r3 * ((c3 != w1) & (c3 != c2))
    la = np.where(valid, la, 0.0)
    lb = np.where(valid, lb, 0.0)
    lc = np.where(valid, lc, 0.0)

    top1 = np.maximum(la, np.maximum(lb, lc))
    tot = la + lb + lc
    top2 = tot - np.minimum(la, np.minimum(lb, lc))
    return float(top1.max()), float(top2.max()), float(tot.max())


def max_odd_set_load_bracket(
    net: Network, y: ChannelAssignment, k: int
) -> tuple[float, float]:
    """Certified [lo, hi] bounds on the odd-set term.

    lo is exact over 3-node subsets.  hi comes from the node term: the
    odd-set term never exceeds 1.5x the node term, and for interference-free
    assignments the contribution of subsets of 5+ nodes never exceeds 1.25x
    the node term.
    """
    check_assignment(net, y)
    if k < 1:
        raise ValueError("k must be >= 1")
    if net.n_edges == 0 or net.n_nodes < 3:
        # no odd sets at all, so the odd-set term is exactly zero
        return 0.0, 0.0
    k_eff = min(k, net.n_channels)
    tops = _triple_top_loads(
        net.n_nodes,
        net.edges,
        np.asarray(net.demands),
        np.asarray(y.channel_of, dtype=np.int64),
    )
    lo = tops[min(k_eff, 3) - 1]
    m1, _ = max_node_load(net, y, k)
    if is_interference_free(net, y):
        hi = max(lo, 1.25 * m1)
    else:
        hi = max(lo, 1.5 * m1)
    return lo, hi


# -- recovery capacity ----------------------------------------------------


@dataclass(frozen=True)
class RecoveryReport:
    """Recovery capacity of one assignment at preemption level k.

    In exact mode ``m2`` and ``capacity`` are numbers; in bracket mode the
    odd-set term is the interval [``m2_lo``, ``m2_hi``] and ``capacity`` the
    induced interval.
    """

    k: int
    mode: str
    m1: float
    witness_m1: NodeLoadWitness | None
    m2: float | None = None
    witness_m2: OddSetLoadWitness | None = None
    m2_lo: float | None = None
    m2_hi: float | None = None

    @property
    def capacity_lo(self) -> float:
        m2 = self.m2 if self.mode == "exact" else self.m2_lo
        return max(self.m1, m2)

    @property
    def capacity_hi(self) -> float:
        m2 = self.m2 if self.mode == "exact" else self.m2_hi
        return max(self.m1, m2)

    @property
    def capacity(self) -> float | tuple[float, float]:
        if self.mode == "exact":
            return self.capacity_lo
        return self.capacity_lo, self.capacity_hi

    def to_json_dict(self) -> dict:
        out: dict = {"m1": self.m1}
        if self.mode == "exact":
            out["m2"] = self.m2
            out["capacity"] = self.capacity_lo
        else:
            out["m2_lo"] = self.m2_lo
            out["m2_hi"] = self.m2_hi
            out["capacity"] = [self.capacity_lo, self.capacity_hi]
        out["k"] = self.k
        if self.witness_m1 is not None:
            out["witness_m1"] = {
                "node": self.witness_m1.node,
                "channels": list(self.witness_m1.channels),
            }
        else:
            out["witness_m1"] = None
        if self.mode == "exact":
            if self.witness_m2 is not None:
                out["witness_m2"] = {
                    "nodes": list(self.witness_m2.nodes),
                    "channels": list(self.witness_m2.channels),
                }
            else:
                out["witness_m2"] = None
        out["mode"] = self.mode
        return out


def recovery_capacity(
    net: Network,
    y: ChannelAssignment,
    k: int,
    mode: str = "auto",
    oddset_exact_cap: int = ODDSET_EXACT_CAP,
) -> RecoveryReport:
    """Evaluate the recovery capacity of assignment y at preemption level k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    mode = _resolve_mode(net, mode, oddset_exact_cap)
    m1, wit1 = max_node_load(net, y, k)
    if mode == "exact":
        m2, wit2 = max_odd_set_load_exact(net, y, k, oddset_exact_cap)
        return RecoveryReport(
            k=k, mode="exact", m1=m1, witness_m1=wit1, m2=m2, witness_m2=wit2
        )
    lo, hi = max_odd_set_load_bracket(net, y, k)
    return RecoveryReport(
        k=k, mode="bracket", m1=m1, witness_m1=wit1, m2_lo=lo, m2_hi=hi
    )


# -- feasibility ----------------------------------------------------------


def is_interference_free(net: Network, y: ChannelAssignment) -> bool:
    """True iff no two links sharing a node share a channel."""
    check_assignment(net, y)
    return is_proper_labeling(net, y.channel_of)


def _weighted_demands(net: Network, y: ChannelAssignment) -> np.ndarray:
    return np.array(
        [net.demands[e] / net.capacity[y.channel_of[e]][e] for e in range(net.n_edges)]
    )


@dataclass(frozen=True)
class FeasibilityReport:
    """Feasibility margins of one assignment.

    ``z1`` is the scaling margin of the node constraints, ``z2`` of the
    odd-set constraints; ``beta = min(z1, z2)``.  Margins are ``inf`` when no
    constraint is active (edgeless network).  In bracket mode ``z2`` and
    ``beta`` are certified intervals and feasibility can be ``unknown``.
    """

    mode: str
    z1: float
    witness_z1: NodeConstraintWitness | None
    z2: float | None = None
    witness_z2: OddSetConstraintWitness | None = None
    z2_lo: float | None = None
    z2_hi: float | None = None

    @property
    def beta_lo(self) -> float:
        z2 = self.z2 if self.mode == "exact" else self.z2_lo
        return min(self.z1, z2)

    @property
    def beta_hi(self) -> float:
        z2 = self.z2 if self.mode == "exact" else self.z2_hi
        return min(self.z1, z2)

    @property
    def beta(self) -> float | tuple[float, float]:
        if self.mode == "exact":
            return self.beta_lo
        return self.beta_lo, self.beta_hi

    @property
    def feasible(self) -> str:
        if self.beta_lo >= 1.0 - TOL:
            return "yes"
        if self.beta_hi < 1.0 - TOL:
            return "no"
        return "unknown"

    def to_json_dict(self) -> dict:
        def enc(x: float | None) -> float | None:
            if x is None or math.isinf(x):
                return None
            return x

        out: dict = {"z1": enc(self.z1)}
        if self.mode == "exact":
            out["z2"] = enc(self.z2)
            out["beta"] = enc(self.beta_lo)
        else:
            out["z2"] = [enc(self.z2_lo), enc(self.z2_hi)]
            out["beta"] = [enc(self.beta_lo), enc(self.beta_hi)]
        out["feasible"] = self.feasible
        return out


def feasibility_ratio(
    net: Network,
    y: ChannelAssignment,
    mode: str = "auto",
    oddset_exact_cap: int = ODDSET_EXACT_CAP,
) -> FeasibilityReport:
    """Compute the feasibility margins of assignment y."""
    check_assignment(net, y)
    mode = _resolve_mode(net, mode, oddset_exact_cap)

    # Node margin: smallest slack 1/load over node-channel pairs with load.
    z1 = math.inf
    wit1: NodeConstraintWitness | None = None
    wloads = np.zeros((net.n_nodes, net.n_channels))
    for e, (u, v) in enumerate(net.edges):
        w = y.channel_of[e]
        rho = net.demands[e] / net.capacity[w][e]
        wloads[u, w] += rho
        wloads[v, w] += rho
    for v in range(net.n_nodes):
        for w in range(net.n_channels):
            if wloads[v, w] > 0.0:
                margin = 1.0 / wloads[v, w]
                if margin < z1:
                    z1 = margin
                    wit1 = NodeConstraintWitness(v, w)

    if mode == "exact":
        z2, wit2 = _oddset_margin_exact(net, y, oddset_exact_cap)
        return FeasibilityReport(
            mode="exact", z1=z1, witness_z1=wit1, z2=z2, witness_z2=wit2
        )

    z2_3 = _oddset_margin_triples(net, y)
    factor = 0.8 if is_interference_free(net, y) else 2.0 / 3.0
    z2_lo = min(z2_3, factor * z1)
    return FeasibilityReport(
        mode="bracket", z1=z1, witness_z1=wit1, z2_lo=z2_lo, z2_hi=z2_3
    )


def _oddset_margin_exact(
    net: Network, y: ChannelAssignment, oddset_exact_cap: int
) -> tuple[float, OddSetConstraintWitness | None]:
    if net.n_nodes > oddset_exact_cap:
        raise ValueError(
            f"exact odd-set enumeration disabled above {oddset_exact_cap} nodes; "
            "use bracket mode"
        )
    if net.n_edges == 0 or net.n_nodes < 3:
        return math.inf, None
    masks, sizes, loads = _oddset_loads(net, y, _weighted_demands(net, y))
    limits = (sizes - 1) / 2.0  # >= 1, so an unloaded channel gives inf
    with np.errstate(divide="ignore"):
        margins = limits[:, None] / loads
    z2 = float(margins.min())
    if math.isinf(z2):
        return math.inf, None
    rows, cols = np.nonzero(margins == margins.min())
    cands = sorted(
        (_mask_nodes(masks[i]), int(w)) for i, w in zip(rows, cols)
    )
    nodes, w = cands[0]
    return z2, OddSetConstraintWitness(nodes, w)


def _oddset_margin_triples(net: Network, y: ChannelAssignment) -> float:
    """Exact odd-set margin restricted to 3-node subsets (limit is 1 there)."""
    if net.n_edges == 0 or net.n_nodes < 3:
        return math.inf
    top1, _, _ = _triple_top_loads(
        net.n_nodes,
        net.edges,
        _weighted_demands(net, y),
        np.asarray(y.channel_of, dtype=np.int64),
    )
    if top1 <= 0.0:
        return math.inf
    return 1.0 / top1


def is_feasible(
    net: Network,
    y: ChannelAssignment,
    mode: str = "auto",
    oddset_exact_cap: int = ODDSET_EXACT_CAP,
) -> str:
    """'yes', 'no', or (bracket mode only) 'unknown'."""
    return feasibility_ratio(net, y, mode, oddset_exact_cap).feasible


# -- generic floors -------------------------------------------------------


def capacity_floor(net: Network, k: int) -> float:
    """A load bound every assignment's recovery capacity must meet.

    Each node eventually spreads its incident demand across the channels, so
    the top-k channels at the busiest node carry at least k/|W| of its total;
    and the largest single demand is always lost when its channel is.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if net.n_edges == 0:
        return 0.0
    frac = min(k, net.n_channels) / net.n_channels
    busiest = max(
        sum(net.demands[e] for e in net.incident_edges(v))
        for v in range(net.n_nodes)
    )
    return max(max(net.demands), frac * busiest)
