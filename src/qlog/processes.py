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
its own, so no pair left out would have raised when enumerated.  Step
weights, all positive, are ints over the chain's one denominator
(below); each round puts every D on one power-of-two scale, so
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

Both routes run on one finite chain per query, read by :func:`_chain`,
the only reader of a node's step: the nodes reachable from the two
roots, indexed, with int weights over one denominator for the chain.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Dict, List, Tuple

from .grades import Grade
from .transport import simplex, solve_transport
from .values import Approx, VProc, deref


class ProcessError(ValueError):
    pass


def _node(v: Any) -> VProc:
    v = deref(v)
    if not isinstance(v, VProc):
        raise ProcessError(f"not a process value: {v!r}")
    return v


def _chain(a: VProc, b: VProc) -> Tuple[List[str], List[Any], int]:
    """The finite chain of the nodes reachable from a and b (not the
    same node), each step read once: a is node 0, b node 1, then the
    rest in breadth-first order.  Returns each node's label, its
    successors as (index, int weight) over the one denominator ``den``
    of all the chain's weights, and ``den``.  A node whose step is
    missing, reaches a non-process value or carries a residual has, in
    place of its successors, the text of that ``ProcessError`` (checked
    in this order), raised by :func:`_expanded` only when a route
    expands the node; its successors are not read."""
    nodes = [a, b]
    index = {id(a): 0, id(b): 1}
    read: List[Any] = []
    for x in nodes:  # nodes grows while it is read
        step = x.step
        try:
            if step is None:
                raise ProcessError("process node has no step distribution")
            out = [(_node(v), w) for v, w in step.points]
            if step.residual != 0:
                raise ProcessError("process step carries residual mass")
        except ProcessError as e:
            read.append(str(e))
            continue
        for u, _ in out:
            if id(u) not in index:
                index[id(u)] = len(nodes)
                nodes.append(u)
        read.append(out)
    den = math.lcm(*[w.denominator for out in read if type(out) is not str for _, w in out])
    succ = [out if type(out) is str else
            [(index[id(u)], w.numerator * (den // w.denominator)) for u, w in out]
            for out in read]
    return [x.label for x in nodes], succ, den


def _expanded(succ: List[Any], i: int) -> List[Tuple[int, int]]:
    """Node i's successors, or the ``ProcessError`` its step was rejected with."""
    if type(succ[i]) is str:
        raise ProcessError(succ[i])
    return succ[i]


def _bisimulation_blocks(labels: List[str], succ: List[Any]) -> List[int]:
    """Block number per node of a chain, in the coarsest probabilistic
    bisimulation (Larsen and Skou): blocks start by label and split by
    each node's exact step mass per block until the partition is
    stable.  A rejected node, and every node that reaches one, is a
    block of its own, so no pair whose expansion could raise is ever
    put at distance 0."""
    own = {i for i, out in enumerate(succ) if type(out) is str}
    while True:  # close ``own`` under predecessors
        more = {i for i, out in enumerate(succ)
                if i not in own and any(j in own for j, _ in out)}
        if not more:
            break
        own |= more
    keys = [("own", i) if i in own else label for i, label in enumerate(labels)]
    count = 0
    while True:
        ids: Dict[Any, int] = {}
        block = [ids.setdefault(key, len(ids)) for key in keys]
        if len(ids) == count:
            return block
        count = len(ids)
        keys = []
        for i, out in enumerate(succ):
            mass: Dict[int, int] = {}
            for j, w in out if i not in own else ():
                k = block[j]
                mass[k] = mass[k] + w if k in mass else w
            keys.append((block[i], frozenset(mass.items())))


def _reachable_pairs(succ: List[Any], block: List[int]) -> List[Tuple[int, int]]:
    """Node pairs of a chain reachable from the root pair (0, 1) through
    pairs not known to be at distance 0, that is not in one block
    (identical nodes are); the root pair first."""
    seen = set()
    order: List[Tuple[int, int]] = []
    stack = [(0, 1)]
    while stack:
        pair = stack.pop()
        if pair in seen:
            continue
        seen.add(pair)
        order.append(pair)
        i, j = pair
        if block[i] == block[j]:
            continue
        si, sj = _expanded(succ, i), _expanded(succ, j)
        for x, _ in si:
            for y, _ in sj:
                if (x, y) not in seen:
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
    labels, succ, den = _chain(a, b)
    block = _bisimulation_blocks(labels, succ)
    pairs = _reachable_pairs(succ, block)
    # distinct: not bisimilar, so not known to be at distance 0
    distinct = [block[i] != block[j] for i, j in pairs]
    if not distinct[0]:
        return Approx(0.0, 0.0)
    index = {pair: k for k, pair in enumerate(pairs)}
    # The chain is fixed: per distinct pair its int masses and successor
    # pair indices, built once (_reachable_pairs expanded it, so neither
    # node is rejected).  A label mismatch is at distance 1 whatever its
    # transport costs, so it gets no LP (None).
    steps = []
    for k, (i, j) in enumerate(pairs):
        if not distinct[k]:
            continue
        if labels[i] != labels[j]:
            steps.append((k, None))
            continue
        si, sj = succ[i], succ[j]
        sa, sb = [w for _, w in si], [w for _, w in sj]
        steps.append((k, (sa, sb, [[index[(u, v)] for v, _ in sj] for u, _ in si])))
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
        e = max(50, max(two.bit_length() for _, two in ratios) - 1)
        pert = 1 << (e - 50)
        cost = [
            (num << (e + 1 - two.bit_length())) + (pert if on else 0)
            for (num, two), on in zip(ratios, live)
        ]
        fresh = [0.0] * len(pairs)  # bisimilar pairs: 0
        factor = 0.0
        any_active = False
        for k, lp in steps:
            if lp is None or D[k] >= 1.0:
                fresh[k] = 1.0
                continue
            sa, sb, nxt = lp
            total, flow = simplex(sa, sb, [[cost[t] for t in row] for row in nxt])
            # int true division rounds correctly: float(Fraction(total, den << e))
            value = min(cf * (total / (den << e)), 1.0)
            fresh[k] = value
            if value >= 1.0:
                continue
            any_active = True
            q_mass = 0.0
            for (r, s), m in flow.items():
                if live[nxt[r][s]]:  # a zero cell adds 0.0
                    q_mass += m / den
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
    labels, succ, den = _chain(a, b)
    slot = {(0, 1): 0}
    todo = [(0, 1)]

    def slot_of(u: int, v: int) -> int:
        if u == v or labels[u] != labels[v]:
            return -2 if u == v else -1
        if (u, v) not in slot:
            slot[(u, v)] = len(todo)
            todo.append((u, v))
        return slot[(u, v)]

    steps = []  # per unknown: supplies, demands, slot of each successor pair
    for i, j in todo:  # todo grows while it is read
        si, sj = _expanded(succ, i), _expanded(succ, j)
        slots = [[slot_of(u, v) for v, _ in sj] for u, _ in si]
        steps.append(([w for _, w in si], [w for _, w in sj], slots))
    n, cr = len(steps), c.rational
    D = [Fraction(0)] * n + [Fraction(0), Fraction(1)]
    policy: List[Any] = [None] * n
    while True:
        improved = False
        for i, (sup, dem, slots) in enumerate(steps):
            costs = [[D[k] for k in row] for row in slots]
            opt, flow = solve_transport(sup, dem, costs)
            # opt and flow are den times their probability values
            if policy[i] is None or cr * opt < den * D[i]:
                policy[i] = flow
                improved = True
        if not improved:
            return D[0]
        D[:n] = _policy_values(steps, policy, cr / den)


def bisimilarity_distance(evaluator, p: Any, q: Any, c: Grade, tol: float) -> Approx:
    """Exact distance by policy iteration over couplings (``tol`` unread):
    the float nearest the exact rational, with radius 0 when that float
    is exact and one ulp of it otherwise, which bounds the rounding."""
    if not c < Grade(1):
        raise ProcessError(f"bisimilarity distance needs discount < 1, got {c}")
    exact = _bisimilarity_exact(p, q, c)
    value = float(exact)
    return Approx(value, 0.0 if Fraction(value) == exact else math.ulp(value))
