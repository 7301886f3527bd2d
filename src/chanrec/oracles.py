"""Exact solvers for small instances, by one pruned exhaustive search.

Three problems over all |W|^|E| channel assignments:

* ``solve_whiterec_exact``: minimize recovery capacity among feasible
  assignments (every node and odd-set capacity constraint holds);
* ``solve_whiterecinf_exact``: minimize recovery capacity, capacities
  ignored;
* ``solve_feasi_exact``: maximize the feasibility margin ``beta``.

All three run the same branch and bound, ``_search``, which minimizes a leaf
value: the recovery capacity, or ``-beta`` for feasi (negation is exact, so
the search takes the same decisions as one maximizing ``beta``).  A
``_Problem`` supplies the work of one (edge, channel) step and the value of a
leaf.

The search assigns edges in descending demand order (ties by index) and
channels in ascending order.  Capacity searches bound a partial assignment by
its node term and a static floor: every node eventually spreads its demand
over the channels, so its top-k channels carry at least k/|W| of its incident
total.  Feasi bounds it by ``-z1``, the negated node margin, which only grows
as edges are added.  Whiterec is the capacity search with feasi's margin
search as its constraint: the margin problem tracks the weighted node loads,
the capacity search prunes as soon as a node constraint is violated, and
odd-set constraints are checked at leaves only, and only at leaves whose
capacity would replace the incumbent (any other leaf is discarded whether
feasible or not, so the check cannot change the result).  All tie-breaks are
deterministic: the incumbent is seeded with the interference-free, greedy,
and seed-0 random assignments (in that order), replayed through ``place`` in
edge-index order, and only strictly better leaves replace it, so the result
is the first optimum in that fixed order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .assign import greedy_assign, ifa_assign, random_assign
from .metrics import ODDSET_EXACT_CAP, TOL, _topk_sum, capacity_floor
from .netmodel import ChannelAssignment, Network

DEFAULT_LEAF_BUDGET = 10_000_000


@dataclass(frozen=True)
class OracleResult:
    """Outcome of an exact solve.

    ``objective`` is ``inf`` and ``best_assignment`` is None when a
    constrained search proves there is no feasible assignment.  When the leaf
    budget runs out, ``proven_optimal`` is False and the incumbent (possibly
    None) is returned.
    """

    problem: str
    objective: float
    best_assignment: ChannelAssignment | None
    explored: int
    proven_optimal: bool

    @property
    def infeasible(self) -> bool:
        return (
            self.proven_optimal
            and self.best_assignment is None
            and math.isinf(self.objective)
        )

    def to_json_dict(self, net: Network) -> dict:
        if self.best_assignment is None:
            amap = None
        else:
            amap = {
                str(e): net.channel_names[w]
                for e, w in enumerate(self.best_assignment.channel_of)
            }
        return {
            "objective": None if math.isinf(self.objective) else self.objective,
            "proven_optimal": self.proven_optimal,
            "explored": self.explored,
            "assignment": amap,
        }


# -- shared odd-set tables ------------------------------------------------


@lru_cache(maxsize=8)
def _odd_masks(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Bitmasks of all odd node subsets of size >= 3, with their sizes."""
    masks = np.arange(1 << n_nodes, dtype=np.int64)
    sizes = np.bitwise_count(masks)  # uint8
    keep = (sizes % 2 == 1) & (sizes >= 3)
    return masks[keep], sizes[keep]


def _odd_membership(net: Network) -> tuple[np.ndarray, np.ndarray]:
    """0/1 matrix (odd set, edge) of the edges induced by each odd set, C
    contiguous float64, and the odd sets' sizes."""
    masks, sizes = _odd_masks(net.n_nodes)
    has = ((masks[:, None] >> np.arange(net.n_nodes)) & 1).astype(bool)
    u, v = net.edge_array.T
    # in place, so one bool gather at a time sits beside the float matrix
    member = has[:, u].astype(np.float64, order="C")
    member *= has[:, v]
    return member, sizes


# -- problems -------------------------------------------------------------


class _Problem(NamedTuple):
    """One objective for :func:`_search`.

    A state is ``(bound, z1)``: a lower bound on every leaf value below it
    and the node margin of the placed edges.  ``place(e, w, state, best)``
    adds edge e on channel w to the load tables and returns the child's
    state, or undoes itself and returns None when the child's bound is not
    below ``best``; ``unplace(e, w)`` takes a placed edge back out.  A
    returned child is searched only if its ``z1 >= z1_min``.
    ``leaf(state, best)`` values the complete assignment in the load tables
    (``inf`` if it does not qualify); a leaf that cannot beat ``best`` may
    return any value ``>= best``, as the search ignores it.  The search stops
    early once the incumbent reaches ``floor``.
    """

    place: Callable
    unplace: Callable
    leaf: Callable
    floor: float
    z1_min: float


def _margin(net: Network, member: np.ndarray, limits: np.ndarray) -> _Problem:
    """Feasibility margin, as the leaf value ``-beta``, over the odd sets
    ``member`` (rows of :func:`_odd_membership`) with their ``limits``."""
    n, w = net.n_nodes, net.n_channels
    edges = net.edges
    rho_of = net.rho.tolist()
    wloads = [[0.0] * w for _ in range(n)]
    # (edge, channel): rho of each placed edge on its channel, else 0; the
    # steps write it through a flat view, cell e * w + channel
    table = np.zeros(net.rho.shape)
    flat = memoryview(table).cast("B").cast("d")

    def place(e, ww, state, best):
        u, v = edges[e]
        wu, wv = wloads[u], wloads[v]
        p = rho_of[e][ww]
        wu[ww] += p
        wv[ww] += p
        xu, xv = wu[ww], wv[ww]
        # not 1.0 / xu bare: undoing places in stack order can leave a load
        # a rounding residual below zero, and a tiny p then brings it to <= 0
        z1 = min(
            state[1],
            1.0 / xu if xu > 0.0 else math.inf,
            1.0 / xv if xv > 0.0 else math.inf,
        )
        if -z1 < best:
            flat[e * w + ww] = p
            return -z1, z1
        wu[ww] -= p
        wv[ww] -= p
        return None

    def unplace(e, ww):
        u, v = edges[e]
        p = rho_of[e][ww]
        wloads[u][ww] -= p
        wloads[v][ww] -= p
        flat[e * w + ww] = 0.0

    def leaf(state, best):
        # per cell; the smallest equals the metric's limit over the set's
        # largest load bit for bit.  limits >= 1, so an unloaded cell is inf
        # (the solve ignores the divide by zero)
        margins = limits[:, None] / (member @ table)
        return -min(state[1], float(margins.min(initial=math.inf)))

    return _Problem(place, unplace, leaf, -math.inf, -math.inf)


def _capacity(
    net: Network,
    k: int,
    member: np.ndarray,
    sizes: np.ndarray,
    feasible: _Problem | None,
) -> _Problem:
    """Recovery capacity at level k over the odd sets ``member`` of sizes
    ``sizes``.  With a ``feasible`` margin problem (whiterec) a child's
    ``z1`` comes from its ``place`` and a leaf qualifies only if its margin
    ``beta`` is at least ``1 - TOL``; the margin leaf runs only for leaves
    whose capacity is below ``best``."""
    n, w = net.n_nodes, net.n_channels
    k_eff = min(k, w)
    cut = w - k_eff
    edges, dem = net.edges, net.demands
    floor = capacity_floor(net, k)
    loads = [[0.0] * w for _ in range(n)]
    # a node's top-k channel load.  At k = 1 the top-1 sum 0.0 + max is max
    # bit for bit, as no load is -0.0: loads start at +0.0, and x - x is +0.0
    # (undoing in stack order can leave a residual below zero, never -0.0)
    topk = max if k_eff == 1 else (lambda l: sum(sorted(l)[cut:]))
    # (edge, channel): demand of each placed edge on its channel, else 0,
    # written through a flat view as in _margin
    table = np.zeros((net.n_edges, w))
    flat = memoryview(table).cast("B").cast("d")
    if feasible is not None:
        place_feasible, unplace_feasible = feasible.place, feasible.unplace

    # Odd sets whose best contribution cannot exceed the floor never raise
    # max(m1, m2) above m1, so the leaf ignores them.
    scale = 2.0 / (sizes - 1.0)
    keep = scale * (member @ net.demand_array) > floor * (1.0 + 1e-12)
    member_cap, scale_cap = member[keep], scale[keep]

    def place(e, ww, state, best):
        lb, z1 = state
        u, v = edges[e]
        lu, lv = loads[u], loads[v]
        r = dem[e]
        lu[ww] += r
        lv[ww] += r
        nb = max(lb, topk(lu), topk(lv))
        if nb >= best:
            lu[ww] -= r
            lv[ww] -= r
            return None
        flat[e * w + ww] = r
        if feasible is not None:
            z1 = place_feasible(e, ww, state, math.inf)[1]
        return nb, z1

    def unplace(e, ww):
        if feasible is not None:
            unplace_feasible(e, ww)
        u, v = edges[e]
        r = dem[e]
        loads[u][ww] -= r
        loads[v][ww] -= r
        flat[e * w + ww] = 0.0

    def leaf(state, best):
        m1 = max(map(topk, loads))
        oddset = scale_cap * _topk_sum((member_cap @ table).T, k_eff, len(member_cap))
        value = max(m1, float(oddset.max(initial=0.0)))
        # only a leaf that would replace the incumbent needs its margin
        if (
            value < best
            and feasible is not None
            and -feasible.leaf(state, math.inf) < 1.0 - TOL
        ):
            return math.inf
        return value

    z1_min = -math.inf if feasible is None else 1.0 - TOL
    return _Problem(place, unplace, leaf, floor, z1_min)


# -- search ---------------------------------------------------------------


def _search(
    net: Network, problem: _Problem, limit: int
) -> tuple[float, tuple[int, ...] | None, int, bool]:
    """Minimize ``problem.leaf`` over all assignments.

    Returns the best value (``inf`` if no leaf qualifies), its assignment,
    the number of leaves evaluated and whether the search ran to the end.
    """
    place, unplace, leaf, floor, z1_min = problem
    m, w = net.n_edges, net.n_channels
    dem = net.demands
    order = sorted(range(m), key=lambda e: (-dem[e], e))
    root = (floor, math.inf)
    a = [-1] * m  # the channel of each placed edge

    best = math.inf
    best_assignment: tuple[int, ...] | None = None
    explored = 0
    out_of_budget = False
    done = False  # the incumbent reached the floor: nothing can beat it

    def visit(y: Sequence[int], state: tuple[float, float]) -> None:
        nonlocal best, best_assignment, explored, out_of_budget, done
        if explored >= limit:
            out_of_budget = True
            return
        explored += 1
        val = leaf(state, best)
        if val < best:
            best, best_assignment = val, tuple(y)
            done = best <= floor

    # Seed the incumbent.  Demands have a finite total, so no bound reaches
    # inf and every replayed edge is placed.
    for cand in (ifa_assign(net), greedy_assign(net), random_assign(net, 0)):
        y = cand.channel_of
        state = root
        for e in range(m):
            state = place(e, y[e], state, math.inf)
        visit(y, state)
        for e in range(m):
            unplace(e, y[e])
        if out_of_budget:
            break

    def dfs(pos: int, state: tuple[float, float]) -> None:
        if pos == m:
            visit(a, state)
            return
        e = order[pos]
        for ww in range(w):
            child = place(e, ww, state, best)
            if child is not None:
                if child[1] >= z1_min:
                    a[e] = ww
                    dfs(pos + 1, child)
                unplace(e, ww)
            if done or out_of_budget:
                return

    if not done and not out_of_budget:
        dfs(0, root)
    return best, best_assignment, explored, not out_of_budget


def _check_size(n_nodes: int) -> None:
    """Refuse networks above the odd-set enumeration's ``ODDSET_EXACT_CAP``."""
    if n_nodes > ODDSET_EXACT_CAP:
        raise ValueError(
            f"exact solvers enumerate odd sets and stop at {ODDSET_EXACT_CAP} nodes"
        )


def _solve(name: str, net: Network, k: int, limit: int) -> OracleResult:
    feasi = name == "feasi"
    if not feasi and k < 1:
        raise ValueError("k must be >= 1")
    if limit < 1:
        raise ValueError("limit must be >= 1")
    _check_size(net.n_nodes)
    if net.n_edges == 0:
        return OracleResult(
            name, math.inf if feasi else 0.0, ChannelAssignment(()), 1, True
        )
    member, sizes = _odd_membership(net)
    margin = None
    if name != "whiterecinf":
        limits = (sizes - 1.0) / 2.0
        if feasi:  # the odd sets with an induced edge
            keep = member @ net.demand_array > 0.0
        else:  # the odd sets that some channel choice could overload
            keep = member @ net.rho.max(axis=1) > limits / (1.0 - TOL)
        margin = _margin(net, member[keep], limits[keep])
    problem = margin if feasi else _capacity(net, k, member, sizes, margin)
    with np.errstate(divide="ignore"):  # see _margin's leaf
        best, y, explored, proven = _search(net, problem, limit)
    return OracleResult(
        name,
        -best if feasi else best,
        None if y is None else ChannelAssignment(y),
        explored,
        proven,
    )


def solve_whiterec_exact(
    net: Network, k: int, limit: int = DEFAULT_LEAF_BUDGET
) -> OracleResult:
    """Minimum recovery capacity over feasible assignments."""
    return _solve("whiterec", net, k, limit)


def solve_whiterecinf_exact(
    net: Network, k: int, limit: int = DEFAULT_LEAF_BUDGET
) -> OracleResult:
    """Minimum recovery capacity over all assignments, capacities ignored."""
    return _solve("whiterecinf", net, k, limit)


def solve_feasi_exact(net: Network, limit: int = DEFAULT_LEAF_BUDGET) -> OracleResult:
    """Maximum feasibility margin beta over all assignments."""
    return _solve("feasi", net, 1, limit)
