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

Both objectives come from one pass, :func:`evaluate`; ``recovery_capacity``
and ``feasibility_ratio`` are its two halves.  The node terms read the loads
per node and channel (``_node_loads``), weighted by demand
(``Network.demand_array``) for the capacity and by ``rho = demand /
capacity`` (``Network.rho``) for the margin.  The odd-set terms read both
weights at once: demand is packed into the real part and the assigned rho
into the imaginary part of one complex weight vector, and numpy adds complex
values part by part with the same IEEE additions, so each part is bit for
bit what that weight alone would give.  Per channel, the odd sets' loads
are folded into running reductions (``_odd_set_extremes``): the sum of the
k largest real parts (``_topk_sum``, the reduction the node term and the
oracle leaves also use) and the largest imaginary part per odd set.  No
odd set by channel table is kept; an exact-mode witness recomputes the
per-channel loads of its one set in edge-index order (``_set_loads``).

``mode`` selects which odd sets are listed; the reductions are the same.
``"exact"`` lists all odd subsets: per channel, the induced loads of all 2^n
node subsets are accumulated on a dense subset lattice (each edge adds its
weight to the quarter of the lattice that contains both endpoints), and the
odd subsets are gathered off it into one reused column
(``_lattice_columns``).  From 15 nodes up (``_PIN_FROM_NODES``), a node's
lattice axis stays pinned at its outside half until the channel's first
edge at that node, so the channel's early edges add to a smaller lattice;
the cells filled so far are copied across an axis when it is freed, and
every load is the same bit for bit as without pinning.
``"bracket"`` lists the 3-node sets with two or three edges, from one
complex wedge table whose rows add their edges in edge-index order as the
lattice does (``_triple_loads``), so its odd-set end (``m2_lo``, ``z2_hi``)
matches exact mode over those sets bit for bit; the node term bounds the
other end, except below 5 nodes, where every odd set has 3 nodes and both
ends are exact.
``"auto"`` is exact up to ``ODDSET_EXACT_CAP`` nodes and bracket above.  An
explicit ``"exact"`` runs up to ``ODDSET_CAP_LIMIT`` nodes and is refused
above that before anything is allocated: the enumeration allocates arrays of
2^n entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .netmodel import ChannelAssignment, Network, check_assignment, is_proper_labeling

TOL = 1e-9
ODDSET_EXACT_CAP = 18
# at n = 22 the complex subset lattice is 64 MiB, beside the cached odd-mask
# table (2^21 int64 masks, 16 MiB, plus their uint8 sizes, 2 MiB), one 32 MiB
# complex column and up to k_eff + 3 float columns of 16 MiB (the running
# top-k and peak columns and two spares); each further node doubles them all
ODDSET_CAP_LIMIT = 22
# from this many nodes the subset lattice pins the axes of nodes a channel
# has not yet touched (``_lattice_columns``); below it the copies that free
# the axes cost more than the smaller quarter adds save
_PIN_FROM_NODES = 15

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


def _resolve_mode(net: Network, mode: str) -> str:
    """'exact' or 'bracket'; 'auto' is exact up to ``ODDSET_EXACT_CAP`` nodes.

    Exact mode is refused above ``ODDSET_CAP_LIMIT`` nodes, before any table
    is allocated.
    """
    if mode == "auto":
        mode = "exact" if net.n_nodes <= ODDSET_EXACT_CAP else "bracket"
    if mode not in ("exact", "bracket"):
        raise ValueError(f"unknown mode '{mode}'")
    if mode == "exact" and net.n_nodes > ODDSET_CAP_LIMIT:
        raise ValueError(
            f"exact odd-set enumeration stops at {ODDSET_CAP_LIMIT} nodes "
            f"(it allocates 2^n entries); this network has {net.n_nodes}, "
            "use bracket mode"
        )
    return mode


def _node_loads(
    net: Network, y: ChannelAssignment, weights: Sequence[float] | np.ndarray
) -> np.ndarray:
    """loads[v, w]: weight of the edges at node v on channel w, in edge order
    (``bincount`` adds the cells (u0, w0), (v0, w0), (u1, w1), ... in turn)."""
    n, n_w = net.n_nodes, net.n_channels
    channel = np.asarray(y.channel_of, dtype=np.intp)
    cells = (net.edge_array * n_w + channel[:, None]).ravel()
    return np.bincount(cells, np.repeat(weights, 2), n * n_w).reshape(n, n_w)


@lru_cache(maxsize=8)
def _odd_masks(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Bitmasks of all odd node subsets of size >= 3, with their sizes."""
    masks = np.arange(1 << n_nodes, dtype=np.int64)
    sizes = np.bitwise_count(masks)  # uint8
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


def _lattice_columns(
    net: Network, y: ChannelAssignment, weights: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (channel, induced load of every odd subset) per loaded channel.

    Accumulates on the dense subset lattice: one 2^n buffer of the weights'
    dtype, viewed as an n-dimensional 2x...x2 array in which node u is axis
    n-1-u.  Per channel, each edge (u, v) on it adds its weight, in edge-index
    order, to the quarter of the lattice with both u and v inside; the odd
    masks are then gathered into one column buffer, which is yielded and
    overwritten by the next channel.  From ``_PIN_FROM_NODES`` nodes up, a
    node's axis stays pinned at index 0 until the channel's first edge at
    that node: the channel starts from the one cell ``lattice[0]``, the
    filled slice is copied to the node's side 1 just before that edge adds,
    and the axes of nodes the channel never touches are spread after its
    last edge.  Until an edge at the node adds, both sides of its axis hold
    equal values, so every cell receives the same additions in the same
    order either way.  Complex weights add part by part with the same IEEE
    additions, so each part equals the lattice of that part alone bit for
    bit.  No BLAS involved, so results are bitwise reproducible.
    """
    n = net.n_nodes
    masks, _ = _odd_masks(n)
    on_channel: list[list[int]] = [[] for _ in range(net.n_channels)]
    for e, c in enumerate(y.channel_of):
        on_channel[c].append(e)
    lattice = np.empty(1 << n, dtype=weights.dtype)
    cube = lattice.reshape((2,) * n)
    column = np.empty(len(masks), dtype=weights.dtype)
    every = slice(None)
    pin = n >= _PIN_FROM_NODES

    def free(at: list[slice | int], axis: int) -> None:
        # copy the filled slice from the pinned axis' side 0 to its side 1;
        # a ufunc copy, since slice assignment between the interleaved sides
        # stages a full temporary, and the trailing ... keeps an all-pinned
        # index a view
        side0 = cube[(*at, ...)]
        at[axis] = 1
        np.positive(side0, out=cube[(*at, ...)])
        at[axis] = every

    for c, edges in enumerate(on_channel):
        if not edges:
            continue
        # per axis: 0 while the node's axis is pinned, the full slice once free
        at: list[slice | int] = [0 if pin else every] * n
        if pin:
            lattice[0] = 0.0
        else:
            lattice.fill(0.0)
        for e in edges:
            u, v = net.edges[e]
            for axis in (n - 1 - u, n - 1 - v):
                if at[axis] is not every:
                    free(at, axis)
            inside = list(at)
            inside[n - 1 - u] = inside[n - 1 - v] = 1
            quarter = cube[(*inside, ...)]
            quarter += weights[e]
        for axis in range(n):
            if at[axis] is not every:
                free(at, axis)
        # masks are always in range; "clip" writes straight into the buffer
        np.take(lattice, masks, out=column, mode="clip")
        yield c, column


def _topk_sum(columns: Iterable[np.ndarray], k: int, rows: int) -> np.ndarray:
    """Row-wise sum of the k largest loads in a stream of load columns,
    added largest first.

    Each column is inserted into up to k running descending columns by
    max/min and not read again once the next one is drawn, so a stream may
    reuse one buffer; an unloaded channel (all zeros, as loads are never
    negative) may be left out.  The sum equals column k-1 of the descending
    cumulative sum bit for bit.
    """
    top: list[np.ndarray] = []
    spare = [np.empty(rows) for _ in range(min(2, k - 1))]
    for carry in columns:
        for i, kept in enumerate(top[: k - 1]):
            np.minimum(kept, carry, out=spare[i % 2])
            np.maximum(kept, carry, out=kept)
            carry = spare[i % 2]
        if len(top) < k:
            top.append(carry.copy())
        else:
            np.maximum(top[-1], carry, out=top[-1])
    total = top[0] if top else np.zeros(rows)
    for kept in top[1:]:
        total += kept
    return total


def _triple_loads(
    net: Network, y: ChannelAssignment, weights: np.ndarray
) -> np.ndarray:
    """Per-channel induced load of every 3-node set with two or three edges.

    The sets are listed as wedges, two edges e < f at one node; a triangle
    holds three wedges and is kept once, from its two lowest-index edges.
    Each row adds its edges in edge-index order, as the subset lattice does,
    so the rows equal the lattice's 3-node rows bit for bit.  The table has
    the weights' dtype and is column-major.  Costs O(sum of squared degrees)
    plus an n x n edge-id table.
    """
    n, m = net.n_nodes, net.n_edges
    ends = net.edge_array
    # the 2m (node, other end, edge) incidences, sorted by node, then edge
    node, other = ends.T.ravel(), ends[:, ::-1].T.ravel()
    edge = np.tile(np.arange(m), 2)
    order = np.lexsort((edge, node))
    node, other, edge = node[order], other[order], edge[order]
    # pair each incidence with every later one at the same node
    later = np.searchsorted(node, node, side="right") - np.arange(2 * m) - 1
    first = np.repeat(np.arange(2 * m), later)
    step = np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    second = first + step + 1
    edge_id = np.full((n, n), -1, dtype=np.int64)
    edge_id[ends[:, 0], ends[:, 1]] = edge_id[ends[:, 1], ends[:, 0]] = np.arange(m)
    e, f = edge[first], edge[second]
    g = edge_id[other[first], other[second]]
    keep = (g < 0) | (g > f)
    e, f, g = e[keep], f[keep], g[keep]

    channel = np.asarray(y.channel_of, dtype=np.int64)
    loads = np.zeros((len(e), net.n_channels), dtype=weights.dtype, order="F")
    rows = np.arange(len(e))
    loads[rows, channel[e]] += weights[e]
    loads[rows, channel[f]] += weights[f]
    tri = g >= 0
    loads[rows[tri], channel[g[tri]]] += weights[g[tri]]
    return loads


def _set_loads(
    net: Network, y: ChannelAssignment, weights: np.ndarray, nodes: tuple[int, ...]
) -> np.ndarray:
    """Per-channel induced load of one node set, its edges added in
    edge-index order as the subset lattice adds them, so bit for bit equal
    to the set's lattice cells."""
    inside = set(nodes)
    loads = np.zeros(net.n_channels, dtype=weights.dtype)
    for e, (u, v) in enumerate(net.edges):
        if u in inside and v in inside:
            loads[y.channel_of[e]] += weights[e]
    return loads


def _first_set(masks: np.ndarray, hit: np.ndarray) -> tuple[int, ...]:
    """Nodes of the lexicographically first set among the ``hit`` rows."""
    return min(_mask_nodes(masks[i]) for i in np.flatnonzero(hit))


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
    loads = _node_loads(net, y, net.demand_array)
    per_node = _topk_sum(loads.T, k_eff, net.n_nodes)
    node = int(per_node.argmax())
    best = float(per_node[node])
    return best, NodeLoadWitness(node, _best_channel_set(loads[node], k_eff))


# -- odd-set term ---------------------------------------------------------


def _odd_set_extremes(
    net: Network, y: ChannelAssignment, weights: np.ndarray, k_eff: int, mode: str
) -> tuple[np.ndarray | None, np.ndarray | int, np.ndarray, np.ndarray]:
    """(masks, sizes, top, peak) over the odd sets ``mode`` lists: every odd
    set in exact mode (streamed from the lattice, one column per channel),
    and in bracket mode the 3-node sets with two or three edges (the wedge
    table's columns), without masks.

    ``weights`` packs two weights into one complex vector.  Per set, ``top``
    is :func:`_topk_sum` of its channel loads' real parts and ``peak`` the
    largest imaginary part, folded in as each column comes; the unloaded
    channels left out of the stream change neither.
    """
    if mode == "exact":
        masks, sizes = _odd_masks(net.n_nodes)
        rows = len(masks)
        columns = _lattice_columns(net, y, weights)
    else:
        masks, sizes = None, 3
        table = _triple_loads(net, y, weights)
        rows = len(table)
        columns = enumerate(table.T)
    peak = np.zeros(rows)

    def real_parts() -> Iterator[np.ndarray]:
        for _, column in columns:
            np.maximum(peak, column.imag, out=peak)
            yield column.real

    return masks, sizes, _topk_sum(real_parts(), k_eff, rows), peak


def _lists_every_odd_set(net: Network, mode: str) -> bool:
    """True iff ``mode`` lists every odd set: exact mode, or bracket mode
    below 5 nodes, where every odd set has 3 nodes."""
    return mode == "exact" or net.n_nodes < 5


def _bracket_factor(net: Network, y: ChannelAssignment) -> float:
    """Odd-set over node term bound for the sets bracket mode leaves out."""
    return 1.25 if is_proper_labeling(net, y.channel_of) else 1.5


def max_odd_set_load_exact(
    net: Network, y: ChannelAssignment, k: int
) -> tuple[float, OddSetLoadWitness | None]:
    """Odd-set term by full enumeration of odd subsets.

    Refuses networks above ``ODDSET_CAP_LIMIT`` nodes; use
    :func:`max_odd_set_load_bracket` there instead.
    """
    rec, _ = evaluate(net, y, k, "exact")
    return rec.m2_lo, rec.witness_m2


def max_odd_set_load_bracket(
    net: Network, y: ChannelAssignment, k: int
) -> tuple[float, float]:
    """Certified [lo, hi] bounds on the odd-set term.

    lo is the exact odd-set term over 3-node subsets, bit for bit as exact
    mode computes it there.  Below 5 nodes every odd set has 3 nodes, so hi =
    lo.  Elsewhere hi comes from the node term: the odd-set term never
    exceeds 1.5x the node term, and for interference-free assignments the
    contribution of subsets of 5+ nodes never exceeds 1.25x the node term.
    """
    rec, _ = evaluate(net, y, k, "bracket")
    return rec.m2_lo, rec.m2_hi


# -- recovery capacity ----------------------------------------------------


def _witness_json(witness: NamedTuple | None) -> dict | None:
    """A witness's fields by name, tuples as lists."""
    if witness is None:
        return None
    return {
        name: list(v) if isinstance(v, tuple) else v
        for name, v in witness._asdict().items()
    }


@dataclass(frozen=True)
class RecoveryReport:
    """Recovery capacity of one assignment at preemption level k.

    The odd-set term is the interval [``m2_lo``, ``m2_hi``]; in exact mode
    the two ends are equal, and ``m2`` and ``capacity`` are numbers.  In
    bracket mode ``m2`` is None and ``capacity`` is the induced interval.
    """

    k: int
    mode: str
    m1: float
    witness_m1: NodeLoadWitness | None
    m2_lo: float
    m2_hi: float
    witness_m2: OddSetLoadWitness | None = None

    @property
    def m2(self) -> float | None:
        return self.m2_lo if self.mode == "exact" else None

    @property
    def capacity_lo(self) -> float:
        return max(self.m1, self.m2_lo)

    @property
    def capacity_hi(self) -> float:
        return max(self.m1, self.m2_hi)

    @property
    def capacity(self) -> float | tuple[float, float]:
        if self.mode == "exact":
            return self.capacity_lo
        return self.capacity_lo, self.capacity_hi

    def to_json_dict(self) -> dict:
        out: dict = {"m1": self.m1}
        if self.mode == "exact":
            out["m2"] = self.m2_lo
            out["capacity"] = self.capacity_lo
        else:
            out["m2_lo"] = self.m2_lo
            out["m2_hi"] = self.m2_hi
            out["capacity"] = [self.capacity_lo, self.capacity_hi]
        out["k"] = self.k
        out["witness_m1"] = _witness_json(self.witness_m1)
        if self.mode == "exact":
            out["witness_m2"] = _witness_json(self.witness_m2)
        out["mode"] = self.mode
        return out


# -- feasibility ----------------------------------------------------------


def is_interference_free(net: Network, y: ChannelAssignment) -> bool:
    """True iff no two links sharing a node share a channel."""
    check_assignment(net, y)
    return is_proper_labeling(net, y.channel_of)


@dataclass(frozen=True)
class FeasibilityReport:
    """Feasibility margins of one assignment.

    ``z1`` is the scaling margin of the node constraints, ``z2`` of the
    odd-set constraints; ``beta = min(z1, z2)``.  Margins are ``inf`` when no
    constraint is active (edgeless network).  The odd-set margin is the
    interval [``z2_lo``, ``z2_hi``]; in exact mode the two ends are equal and
    ``z2`` and ``beta`` are numbers.  In bracket mode ``z2`` is None, ``beta``
    is a certified interval and feasibility can be ``unknown``.
    """

    mode: str
    z1: float
    witness_z1: NodeConstraintWitness | None
    z2_lo: float
    z2_hi: float
    witness_z2: OddSetConstraintWitness | None = None

    @property
    def z2(self) -> float | None:
        return self.z2_lo if self.mode == "exact" else None

    @property
    def beta_lo(self) -> float:
        return min(self.z1, self.z2_lo)

    @property
    def beta_hi(self) -> float:
        return min(self.z1, self.z2_hi)

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
            out["z2"] = enc(self.z2_lo)
            out["beta"] = enc(self.beta_lo)
        else:
            out["z2"] = [enc(self.z2_lo), enc(self.z2_hi)]
            out["beta"] = [enc(self.beta_lo), enc(self.beta_hi)]
        out["feasible"] = self.feasible
        return out


# -- one pass -------------------------------------------------------------


def evaluate(
    net: Network, y: ChannelAssignment, k: int, mode: str = "auto"
) -> tuple[RecoveryReport, FeasibilityReport]:
    """Recovery capacity of y at preemption level k and its feasibility
    margins, from one odd-set pass.

    Demand (the capacity's weight) is packed into the real part and the
    assigned ``rho`` (the margins' weight) into the imaginary part of one
    complex weight vector, so the lattice or the wedge table is built once
    for both; each part is bit for bit the table of that weight alone.
    """
    mode = _resolve_mode(net, mode)
    m1, wit_m1 = max_node_load(net, y, k)  # checks y and k, once
    rho = net.rho[np.arange(net.n_edges), y.channel_of]

    # Node margin: smallest slack 1/load over node-channel pairs, the first
    # in row-major order on ties; an unloaded pair has slack inf.
    z1 = math.inf
    wit_z1: NodeConstraintWitness | None = None
    if net.n_edges:
        with np.errstate(divide="ignore"):
            margins = 1.0 / _node_loads(net, y, rho)
        v, w = divmod(int(margins.argmin()), net.n_channels)
        z1, wit_z1 = float(margins[v, w]), NodeConstraintWitness(v, w)

    # Odd-set term: the largest 2/(|U|-1) times top-k demand over the listed
    # sets, and the largest demand for the sets that hold one edge.  Odd-set
    # margin: the smallest limit (|U|-1)/2 over load, taken per set as limit
    # over its largest load (rounded division never grows with the divisor,
    # so this is the smallest over its channels bit for bit), and 1 over the
    # largest rho for the sets that hold one edge.
    m2_lo = m2_hi = 0.0
    z2_lo = z2_hi = math.inf
    wit_m2: OddSetLoadWitness | None = None
    wit_z2: OddSetConstraintWitness | None = None
    if net.n_edges and net.n_nodes >= 3:
        k_eff = min(k, net.n_channels)
        demands = net.demand_array
        weights = np.empty(net.n_edges, dtype=np.complex128)
        weights.real, weights.imag = demands, rho
        masks, sizes, top, peak = _odd_set_extremes(net, y, weights, k_eff, mode)
        limits = (sizes - 1) / 2.0  # >= 1, so an unloaded set gives inf
        # a tiny demand may scale to a subnormal value, rounded as it should be
        with np.errstate(divide="ignore", under="ignore"):
            top *= 2.0 / (sizes - 1)  # in place: bracket mode's x 1.0 allocates nothing
            peak = np.divide(limits, peak, out=peak)
        m2_lo = m2_hi = float(np.max(top, initial=demands.max()))
        z2_lo = z2_hi = float(np.min(peak, initial=1.0 / rho.max()))
        if mode == "exact":
            # witnesses: the lexicographically first node set attaining each
            # extreme (node sets are distinct, so one row), then its channels
            nodes = _first_set(masks, top == m2_lo)
            loads = _set_loads(net, y, weights, nodes)
            wit_m2 = OddSetLoadWitness(nodes, _best_channel_set(loads.real, k_eff))
            nodes = _first_set(masks, peak == z2_hi)
            limit = (len(nodes) - 1) / 2.0
            with np.errstate(divide="ignore"):
                loads = limit / _set_loads(net, y, weights, nodes).imag
            wit_z2 = OddSetConstraintWitness(nodes, int(np.argmax(loads == z2_hi)))
        elif not _lists_every_odd_set(net, mode):
            factor = _bracket_factor(net, y)
            m2_hi = max(m2_lo, factor * m1)
            z2_lo = min(z2_hi, (1.0 / factor) * z1)
    rec = RecoveryReport(
        k=k, mode=mode, m1=m1, witness_m1=wit_m1, m2_lo=m2_lo, m2_hi=m2_hi,
        witness_m2=wit_m2,
    )
    feas = FeasibilityReport(
        mode=mode, z1=z1, witness_z1=wit_z1, z2_lo=z2_lo, z2_hi=z2_hi,
        witness_z2=wit_z2,
    )
    return rec, feas


def recovery_capacity(
    net: Network, y: ChannelAssignment, k: int, mode: str = "auto"
) -> RecoveryReport:
    """Evaluate the recovery capacity of assignment y at preemption level k
    (the first half of :func:`evaluate`)."""
    return evaluate(net, y, k, mode)[0]


def feasibility_ratio(
    net: Network, y: ChannelAssignment, mode: str = "auto"
) -> FeasibilityReport:
    """Compute the feasibility margins of assignment y (the second half of
    :func:`evaluate`, which needs no k)."""
    return evaluate(net, y, 1, mode)[1]


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
    busiest = float(net.node_demand.max())
    return max(float(net.demand_array.max()), frac * busiest)
