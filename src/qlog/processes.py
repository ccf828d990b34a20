"""Lazy Markov processes and behavioral/bisimilarity distances.

Process values are graphs of :class:`VProc` nodes whose step
distributions may contain lazy references back into their defining
fixed point; forcing is memoised, so object identity is a sound node
key and cyclic (coinductive) processes are finite graphs here.

``behavioral_distance`` runs value iteration

    D'(x, y) = min{ d_label(x, y) + c * Kantorovich(D)(step x, step y), 1 }

from D = 0 towards the distance in the final coalgebra, solving one
exact transport LP per distinct equal-label pair per round (a label
mismatch is 1 without one).  First the nodes reachable from the two
roots are split into probabilistic bisimilarity classes by partition
refinement (Larsen and Skou 1991; Derisavi, Hermanns and Sanders 2003).
A pair inside one class is at distance exactly 0, as a pair of
identical nodes is: it keeps D = 0, solves no LP, and its successor
pairs are not enumerated.  A node with no step, a residual or a
non-process successor, and every node that reaches one, is a class of
its own, so no pair left out would have raised when enumerated.  Each
pair's step weights, all positive, are read once as ints over their
lcm; each round puts every D on one power-of-two scale, so
``transport.simplex`` pivots on int costs.  The costs of live pairs
carry a 2^-50 tie-break that stays in the optimum, so the value is not
a lower bound: it lies within the radius of the distance on either
side.  The radius multiplies, per round, the worst contraction factor
``c * q`` where q is the optimal coupling's mass on live pairs: pairs
with D = 1 can no longer move, and a bisimilar pair (identical nodes
included) has D = 0 equal to its true distance, so its error is 0 in
every round and mass on it adds nothing to the error.  For discount
c < 1 this is at most c (Banach); at c = 1 convergence certification
relies on the recursion mass actually contracting, and the iteration
reports failure when its round budget runs out.

``bisimilarity_distance`` finds the same fixed point exactly for c < 1,
by policy iteration over couplings (Tang and van Breugel, CONCUR 2016)
as in :func:`_bisimilarity_exact`: an independent second route.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Dict, List, Optional, Tuple

from .grades import Grade
from .transport import simplex, solve_transport
from .values import Approx, VProc, VRef, deref


class ProcessError(ValueError):
    pass


def _node(v: Any) -> VProc:
    v = deref(v)
    if not isinstance(v, VProc):
        raise ProcessError(f"not a process value: {v!r}")
    return v


def _step_nodes(node: VProc) -> List[Tuple[VProc, Fraction]]:
    if node.step is None:
        raise ProcessError("process node has no step distribution")
    out = [(_node(v), w) for v, w in node.step.points]
    if node.step.residual != 0:
        raise ProcessError("process step carries residual mass")
    return out


def unfold_process(evaluator, proc: Any, depth: int) -> Tuple[dict, float]:
    """Finite unfolding tree plus residual recursion mass.

    The residual is the probability of still sitting, at the given
    depth, on a reference back into the root's own fixed point; mass
    that has escaped into other processes counts as absorbed.
    """
    root_thunk = proc.thunk if isinstance(proc, VRef) else None

    def walk(value: Any, d: int) -> Tuple[dict, float]:
        node = _node(value)
        tree: dict = {"label": node.label}
        if d == 0:
            return tree, 1.0
        steps = []
        residual = 0.0
        for child, w in node.step.points:
            recursive = isinstance(child, VRef) and child.thunk is root_thunk
            sub, sub_res = walk(child, d - 1)
            steps.append({"weight": float(w), "node": sub})
            if d == 1:
                residual += float(w) * (1.0 if recursive else 0.0)
            else:
                residual += float(w) * sub_res
        tree["steps"] = steps
        return tree, residual

    return walk(proc, depth)


def _bisimulation_blocks(a: VProc, b: VProc) -> Dict[int, int]:
    """Block number per id of each node reachable from a or b, in the
    coarsest probabilistic bisimulation (Larsen and Skou): blocks start
    by label and split by each node's exact step mass per block until
    the partition is stable.  A node that ``_step_nodes`` would reject,
    and every node that reaches one, is a block of its own, so no pair
    whose expansion could raise is ever put at distance 0."""
    nodes: List[VProc] = []
    index: Dict[int, int] = {}
    succ: List[Any] = []  # per node its (successor, w) list, or None if rejected
    stack = [a, b]
    while stack:
        x = stack.pop()
        if id(x) in index:
            continue
        index[id(x)] = len(nodes)
        nodes.append(x)
        try:
            succ.append(_step_nodes(x))
        except ProcessError:
            succ.append(None)
        stack.extend(u for u, _ in succ[-1] or ())
    succ = [out and [(index[id(u)], w) for u, w in out] for out in succ]
    own = {i for i, out in enumerate(succ) if out is None}
    while True:  # close ``own`` under predecessors
        more = {i for i, out in enumerate(succ)
                if i not in own and any(j in own for j, _ in out)}
        if not more:
            break
        own |= more
    keys = [("own", i) if i in own else x.label for i, x in enumerate(nodes)]
    count = 0
    while True:
        ids: Dict[Any, int] = {}
        block = [ids.setdefault(key, len(ids)) for key in keys]
        if len(ids) == count:
            return {id(x): k for x, k in zip(nodes, block)}
        count = len(ids)
        keys = []
        for i, out in enumerate(succ):
            mass: Dict[int, Fraction] = {}
            for j, w in out if i not in own else ():
                k = block[j]
                mass[k] = mass[k] + w if k in mass else w
            keys.append((block[i], frozenset(mass.items())))


def _reachable_pairs(
    p: VProc, q: VProc, block: Optional[Dict[int, int]] = None
) -> List[Tuple[VProc, VProc]]:
    """Pairs reachable from (p, q) through pairs not known to be at
    distance 0: not identical, and not in one block of ``block``."""
    seen = set()
    order: List[Tuple[VProc, VProc]] = []
    stack = [(p, q)]
    while stack:
        a, b = stack.pop()
        key = (id(a), id(b))
        if key in seen:
            continue
        seen.add(key)
        order.append((a, b))
        if a is b or block is not None and block[id(a)] == block[id(b)]:
            continue
        sa, sb = _step_nodes(a), _step_nodes(b)
        for x, _ in sa:
            for y, _ in sb:
                if (id(x), id(y)) not in seen:
                    stack.append((x, y))
    return order


_PERT = Fraction(1, 2**50)


def behavioral_distance(
    evaluator, p: Any, q: Any, c: Grade, tol: float, max_rounds: int = 100000
) -> Approx:
    """Distance between process behaviours, with certified radius."""
    a, b = _node(p), _node(q)
    if c.is_infinite or not Grade(0) < c:
        raise ProcessError(f"discount factor must lie in (0,1], got {c}")
    if not tol >= 0:  # NaN fails this too
        raise ProcessError(f"tol must be a non-negative number, got {tol}")
    if not isinstance(max_rounds, int) or max_rounds < 1:
        raise ProcessError(f"max_rounds must be a positive integer, got {max_rounds}")
    if a is b:
        return Approx(0.0, 0.0)
    cf = float(c)
    block = _bisimulation_blocks(a, b)
    pairs = _reachable_pairs(a, b, block)  # the root pair (a, b) first
    # distinct: not bisimilar, so not known to be at distance 0
    distinct = [block[id(x)] != block[id(y)] for x, y in pairs]
    if not distinct[0]:
        return Approx(0.0, 0.0)
    index = {(id(x), id(y)): k for k, (x, y) in enumerate(pairs)}
    # The process graph is fixed: per distinct pair its int masses over
    # their lcm ds and successor pair indices, built once.  A label mismatch
    # is at distance 1 whatever its transport costs, so it gets no LP (None).
    steps = []
    for k, (x, y) in enumerate(pairs):
        if not distinct[k]:
            continue
        if x.label != y.label:
            steps.append((k, None))
            continue
        sx, sy = _step_nodes(x), _step_nodes(y)
        ds = math.lcm(*[w.denominator for _, w in sx + sy])
        sa = [w.numerator * (ds // w.denominator) for _, w in sx]
        sb = [w.numerator * (ds // w.denominator) for _, w in sy]
        succ = [[index[(id(u), id(v))] for v, _ in sy] for u, _ in sx]
        steps.append((k, (sa, sb, ds, succ)))
    D = [0.0] * len(pairs)
    radius = 1.0
    rounds = 0
    slack = 0.0  # accumulated perturbation error
    while radius > tol:
        rounds += 1
        if rounds > max_rounds:
            raise ProcessError(
                "behavioral distance did not converge: recursion mass does "
                "not contract at this discount"
            )
        # live successor pairs: not bisimilar and not yet saturated.  A tiny
        # perturbation _PERT of their cost steers ties towards couplings
        # avoiding them, giving the sharpest certified factor.  Every cost
        # is an int on the one scale 2^E of this round (D is dyadic).
        live = [on and d < 1.0 for on, d in zip(distinct, D)]
        ratios = [d.as_integer_ratio() for d in D]
        e = max(50, max(den.bit_length() for _, den in ratios) - 1)
        pert = 1 << (e - 50)
        cost = [
            (num << (e + 1 - den.bit_length())) + (pert if on else 0)
            for (num, den), on in zip(ratios, live)
        ]
        fresh = [0.0] * len(pairs)  # bisimilar pairs: 0
        factor = 0.0
        any_active = False
        for k, lp in steps:
            if lp is None or D[k] >= 1.0:
                fresh[k] = 1.0
                continue
            sa, sb, ds, succ = lp
            total, flow = simplex(sa, sb, [[cost[t] for t in row] for row in succ])
            # int true division rounds correctly: float(Fraction(total, ds << e))
            value = min(cf * (total / (ds << e)), 1.0)
            fresh[k] = value
            if value >= 1.0:
                continue
            any_active = True
            q_mass = 0.0
            for (r, s), m in flow.items():
                if live[succ[r][s]]:  # a zero cell adds 0.0
                    q_mass += m / ds
            factor = max(factor, cf * min(q_mass, 1.0))
        converged_exactly = fresh == D
        D = fresh
        if not any_active:
            radius = 0.0
            break
        if converged_exactly:
            # monotone iteration hit a (numeric) fixed point
            radius = min(radius, 1e-12 + slack)
            break
        radius = radius * factor + cf * float(_PERT)
        slack += cf * float(_PERT)
    return Approx(D[0], min(radius, 1.0))


def _policy_values(steps, policy, c: Fraction) -> List[Fraction]:
    """Exact D with D_i = c * (coupling i's mass on unknowns j times D_j,
    plus its mass on label mismatches), by Gaussian elimination on sparse
    dict rows of I - cP, column -1 holding the constant.  Row i has
    diagonal 1 - c P_ii and off-diagonal sum at most c (1 - P_ii), so for
    c < 1 it is strictly diagonally dominant, stays so, needs no pivot."""
    rows = []
    for i, ((_, _, slots), flow) in enumerate(zip(steps, policy)):
        row = {i: Fraction(1), -1: Fraction(0)}
        for (r, s), m in flow.items():
            if slots[r][s] != -2:  # identical nodes add c * m * 0
                row[slots[r][s]] = row.get(slots[r][s], 0) - c * m
        rows.append(row)
    for i, pivot in enumerate(rows):
        for row in rows[i + 1:]:
            f = row.pop(i, 0)
            if f:
                f /= pivot[i]
                for k, v in pivot.items():
                    if k != i:
                        row[k] = row.get(k, 0) - f * v
    x = {-1: Fraction(1)}
    for i in reversed(range(len(rows))):
        x[i] = -sum(v * x[k] for k, v in rows[i].items() if k != i) / rows[i][i]
    return [x[i] for i in range(len(rows))]


def _bisimilarity_exact(p: Any, q: Any, c: Grade) -> Fraction:
    """The bisimilarity distance as an exact rational, for c < 1.

    Unknowns are the distinct equal-label pairs reachable from (p, q)
    through such pairs, in slots 0, 1, ...; slots -2 (identical nodes)
    and -1 (label mismatches) index the constants 0 and 1 at the end of
    D.  Each unknown keeps one vertex coupling, first the optimum with
    the unknowns at 0.  The couplings' system is solved exactly, and a
    coupling switches only on a strict improvement of its transport
    under that D; when none improves, D is the unique fixed point.
    """
    a, b = _node(p), _node(q)
    if a is b or a.label != b.label:
        return Fraction(0 if a is b else 1)
    slot = {(id(a), id(b)): 0}
    todo = [(a, b)]

    def slot_of(u: VProc, v: VProc) -> int:
        if u is v or u.label != v.label:
            return -2 if u is v else -1
        if (id(u), id(v)) not in slot:
            slot[(id(u), id(v))] = len(todo)
            todo.append((u, v))
        return slot[(id(u), id(v))]

    steps = []  # per unknown: supplies, demands, slot of each successor pair
    for x, y in todo:  # todo grows while it is read
        sx, sy = _step_nodes(x), _step_nodes(y)
        slots = [[slot_of(u, v) for v, _ in sy] for u, _ in sx]
        steps.append(([w for _, w in sx], [w for _, w in sy], slots))
    n, cr = len(steps), c.rational
    D = [Fraction(0)] * n + [Fraction(0), Fraction(1)]
    policy: List[Any] = [None] * n
    while True:
        improved = False
        for i, (sup, dem, slots) in enumerate(steps):
            costs = [[D[k] for k in row] for row in slots]
            opt, flow = solve_transport(sup, dem, costs)
            if policy[i] is None or cr * opt < D[i]:
                policy[i] = flow
                improved = True
        if not improved:
            return D[0]
        D[:n] = _policy_values(steps, policy, cr)


def bisimilarity_distance(evaluator, p: Any, q: Any, c: Grade, tol: float) -> Approx:
    """Exact distance by policy iteration over couplings (``tol`` unread):
    the float nearest the exact rational, with radius 0 when that float
    is exact and one ulp of it otherwise, which bounds the rounding."""
    if not c < Grade(1):
        raise ProcessError(f"bisimilarity distance needs discount < 1, got {c}")
    exact = _bisimilarity_exact(p, q, c)
    value = float(exact)
    return Approx(value, 0.0 if Fraction(value) == exact else math.ulp(value))
