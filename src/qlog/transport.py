"""Exact solvers for the discrete transportation problem.

Given supplies a_i, demands b_j (equal totals) and costs c_ij, find a
flow x >= 0 with row sums a and column sums b minimising sum x_ij c_ij.
This is the optimisation underlying the Kantorovich distance between
finite distributions; the optimal flow is the optimal coupling.

Two layers, each hiding one input format, and one oracle:

* :func:`solve_transport` -- rational masses and costs.  It validates
  them, drops zero rows and columns, scales masses and costs to ints
  over their common denominators, calls :func:`simplex` and divides
  the optimum and the flow back to ``Fraction``s.  Scaling by positive
  constants keeps every comparison, hence every pivot.

* :func:`simplex` -- the one pivot loop, on positive int masses and
  int costs.  Dantzig's entering rule switches to Bland's anti-cycling
  rule after a run of degenerate pivots, so it terminates and the
  optimum is exact.  Its final basis doubles as the coupling witness.
  ``processes.behavioral_distance`` calls it directly: its masses are
  ints over the one denominator of the query's process chain, and its
  costs one int scale per round.

* :func:`brute_force_transport` -- enumerates every basic feasible
  solution (spanning trees of the complete bipartite graph) and takes
  the cheapest.  Exponential, only for cross-checking small instances.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from typing import Dict, List, Sequence, Tuple

Flow = Dict[Tuple[int, int], Fraction]


class TransportError(ValueError):
    pass


def _validate(supplies, demands, costs) -> None:
    if not supplies or not demands:
        raise TransportError("empty transportation instance")
    if any(a < 0 for a in supplies) or any(b < 0 for b in demands):
        raise TransportError("negative supply or demand")
    if sum(supplies) != sum(demands):
        raise TransportError(
            f"unbalanced instance: supply {sum(supplies)} != demand {sum(demands)}"
        )
    if len(costs) != len(supplies) or any(len(row) != len(demands) for row in costs):
        raise TransportError("cost matrix shape mismatch")


def _ratios(values) -> List[Tuple[int, int]]:
    """Each value as an exact (numerator, positive denominator) pair."""
    try:  # int, float and Fraction convert without a Fraction object
        return [v.as_integer_ratio() for v in values]
    except AttributeError:
        return [Fraction(v).as_integer_ratio() for v in values]


def solve_transport(
    supplies: Sequence[Fraction],
    demands: Sequence[Fraction],
    costs: Sequence[Sequence[Fraction]],
) -> Tuple[Fraction, Flow]:
    """Exact minimum-cost transportation plan.

    Returns ``(optimal_cost, flow)`` where ``flow`` maps basic cells
    (i, j) to their positive shipped amount, in :func:`simplex`'s
    basis order.  Rows or columns with zero supply/demand are allowed
    and receive no flow.

    Masses are scaled by their common denominator ``ds`` and the kept
    costs by theirs, ``dc``; the results are divided back once.
    """
    sup, dem = _ratios(supplies), _ratios(demands)
    ds = lcm(*[d for _, d in sup], *[d for _, d in dem])
    a = [p * (ds // d) for p, d in sup]
    b = [p * (ds // d) for p, d in dem]
    cst = [_ratios(row) for row in costs]
    # _validate's checks on the scaled ints; _validate words the error
    if (not a or not b or min(a) < 0 or min(b) < 0 or sum(a) != sum(b)
            or len(cst) != len(a) or any(len(row) != len(b) for row in cst)):
        _validate([Fraction(p, d) for p, d in sup], [Fraction(p, d) for p, d in dem], cst)
    rows = [i for i, s in enumerate(a) if s > 0]
    cols = [j for j, s in enumerate(b) if s > 0]
    if not rows:
        return Fraction(0), {}
    kept = [[cst[i][j] for j in cols] for i in rows]
    dc = lcm(*{d for row in kept for _, d in row})
    total, x = simplex(
        [a[i] for i in rows],
        [b[j] for j in cols],
        [[p * (dc // d) for p, d in row] for row in kept],
    )
    flow: Flow = {
        (rows[i], cols[j]): Fraction(q, ds) for (i, j), q in x.items() if q > 0
    }
    return Fraction(total, ds * dc), flow


def simplex(
    a: List[int], b: List[int], c: List[List[int]]
) -> Tuple[int, Dict[Tuple[int, int], int]]:
    """The transportation simplex: the one pivot loop of every LP.

    Takes positive int supplies ``a`` and demands ``b`` with equal
    sums, and an m x n matrix ``c`` of int costs; nothing is checked.
    Returns the int optimum and the final basis: its m + n - 1 cells
    (i, j), zeros included, mapped to their int flow, in insertion
    order.  Multiplying every cost by one positive constant multiplies
    the optimum by it and keeps every pivot, so the basis is the same.
    """
    m, n = len(a), len(b)

    # Northwest-corner initial basis (m + n - 1 cells, zeros kept for
    # degeneracy).  The basis is a spanning tree on nodes 0..m-1 (rows)
    # and m..m+n-1 (columns); ``x`` keeps the cells in insertion order.
    x: Dict[Tuple[int, int], int] = {}
    adj: List[List[int]] = [[] for _ in range(m + n)]
    i = j = 0
    rem_a = a[:]
    rem_b = b[:]
    while i < m and j < n:
        q = min(rem_a[i], rem_b[j])
        x[(i, j)] = q
        adj[i].append(m + j)
        adj[m + j].append(i)
        rem_a[i] -= q
        rem_b[j] -= q
        if i == m - 1 and j == n - 1:
            break
        if rem_a[i] == 0 and i < m - 1:
            i += 1
        else:
            j += 1

    # Tree rooted at row 0: parent, depth and dual potential per node
    # (u_i = pot[i], v_j = pot[m + j], u_i + v_j = c_ij on basic cells).
    parent = [-1] * (m + n)
    depth = [0] * (m + n)
    pot = [0] * (m + n)

    def hang(top: int) -> None:
        # Re-derive parent, depth and potential below ``top`` from its own.
        stack = [top]
        while stack:
            k = stack.pop()
            for t in adj[k]:
                if t != parent[k]:
                    parent[t] = k
                    depth[t] = depth[k] + 1
                    pot[t] = (c[k][t - m] if k < m else c[t][k - m]) - pot[k]
                    stack.append(t)

    hang(0)

    guard = 0
    degenerate_streak = 0
    bland = False  # switch to Bland's rule if degeneracy threatens cycling
    while True:
        guard += 1
        if guard > 200000:
            raise TransportError("pivot limit exceeded (internal error)")
        # Reduced costs in row-major order; basic cells have exactly 0.
        v = pot[m:]
        rcs = [cij - ui - vj for ui, ci in zip(pot, c) for cij, vj in zip(ci, v)]
        if bland:
            k = next((k for k, rc in enumerate(rcs) if rc < 0), None)
        else:
            best = min(rcs)
            k = rcs.index(best) if best < 0 else None
        if k is None:
            break
        ei, ej = entering = divmod(k, n)

        # The cycle closed by the entering cell runs from row ei through
        # the tree to column ej; a tree edge is a "minus" cell when that
        # walk crosses it from its row to its column.
        plus: List[Tuple[int, int]] = []
        minus: List[Tuple[int, int]] = []
        up, down = ei, m + ej
        while up != down:
            if depth[up] >= depth[down]:
                k = up
                up = parent[k]
                if k < m:
                    minus.append((k, up - m))
                else:
                    plus.append((up, k - m))
            else:
                k = down
                down = parent[k]
                if k < m:
                    plus.append((k, down - m))
                else:
                    minus.append((down, k - m))
        theta = min(x[cell] for cell in minus)
        if theta == 0:
            degenerate_streak += 1
            if degenerate_streak > 2 * (m + n):
                bland = True
        else:
            degenerate_streak = 0
        leaving = min(cell for cell in minus if x[cell] == theta)
        x[entering] = theta
        for cell in plus:
            x[cell] += theta
        for cell in minus:
            x[cell] -= theta
        del x[leaving]

        # Swap the edges, then re-hang the subtree cut off by the leaving
        # edge from the endpoint of the entering edge that lies inside it.
        li, lj = leaving
        adj[li].remove(m + lj)
        adj[m + lj].remove(li)
        adj[ei].append(m + ej)
        adj[m + ej].append(ei)
        low = li if parent[li] == m + lj else m + lj
        inner, outer = ei, m + ej
        k = inner
        while k != low and k != -1:
            k = parent[k]
        if k == -1:
            inner, outer = outer, inner
        parent[inner] = outer
        depth[inner] = depth[outer] + 1
        pot[inner] = c[ei][ej] - pot[outer]
        hang(inner)

    return sum(q * c[i][j] for (i, j), q in x.items()), x


def brute_force_transport(
    supplies: Sequence[Fraction],
    demands: Sequence[Fraction],
    costs: Sequence[Sequence[Fraction]],
) -> Tuple[Fraction, Flow]:
    """Oracle: cheapest vertex of the transportation polytope.

    Every vertex is the flow of a spanning tree of the complete
    bipartite support graph, so enumerating trees and keeping the
    feasible ones finds the exact optimum.  Independent of the simplex
    code path.
    """
    supplies = [Fraction(a) for a in supplies]
    demands = [Fraction(b) for b in demands]
    costs = [[Fraction(c) for c in row] for row in costs]
    _validate(supplies, demands, costs)

    rows = [i for i, a in enumerate(supplies) if a > 0]
    cols = [j for j, b in enumerate(demands) if b > 0]
    if not rows:
        return Fraction(0), {}
    a = [supplies[i] for i in rows]
    b = [demands[j] for j in cols]
    m, n = len(a), len(b)
    cells = [(i, j) for i in range(m) for j in range(n)]

    best: Tuple[Fraction, Flow] | None = None
    for tree in itertools.combinations(cells, m + n - 1):
        # Solve flows by leaf elimination; infeasible trees are skipped.
        deg: Dict[object, int] = {}
        for (i, j) in tree:
            deg[("r", i)] = deg.get(("r", i), 0) + 1
            deg[("c", j)] = deg.get(("c", j), 0) + 1
        if len(deg) != m + n:
            continue
        rem_a = a[:]
        rem_b = b[:]
        remaining = set(tree)
        flow: Flow = {}
        ok = True
        while remaining:
            leaf = None
            for (i, j) in sorted(remaining):
                if deg[("r", i)] == 1 or deg[("c", j)] == 1:
                    leaf = (i, j)
                    break
            if leaf is None:
                ok = False  # cycle
                break
            i, j = leaf
            q = rem_a[i] if deg[("r", i)] == 1 else rem_b[j]
            if q < 0:
                ok = False
                break
            flow[leaf] = q
            rem_a[i] -= q
            rem_b[j] -= q
            deg[("r", i)] -= 1
            deg[("c", j)] -= 1
            remaining.remove(leaf)
        if not ok or any(q < 0 for q in flow.values()):
            continue
        if any(q != 0 for q in rem_a) or any(q != 0 for q in rem_b):
            continue
        cost = sum(
            (q * costs[rows[i]][cols[j]] for (i, j), q in flow.items()), Fraction(0)
        )
        if best is None or cost < best[0]:
            best = (
                cost,
                {(rows[i], cols[j]): q for (i, j), q in flow.items() if q > 0},
            )
    if best is None:
        raise TransportError("no feasible vertex found (internal error)")
    return best
