"""Lazy Markov processes and behavioral/bisimilarity distances.

Process values are graphs of :class:`VProc` nodes whose step
distributions may contain lazy references back into their defining
fixed point; forcing is memoised, so object identity is a sound node
key and cyclic (coinductive) processes are finite graphs here.

``behavioral_distance`` runs value iteration

    D'(x, y) = min{ d_label(x, y) + c * Kantorovich(D)(step x, step y), 1 }

from D = 0, solving one exact transport LP per node pair per round.
The iterates increase towards the distance in the final coalgebra.  A
certified radius multiplies, per round, the worst contraction factor
``c * q`` where q is the optimal coupling's mass on distinct,
unsaturated pairs: pairs with D = 1 can no longer move, identical
nodes never do.  For discount c < 1 this is at most c (Banach); at
c = 1 convergence certification relies on the recursion mass actually
contracting, and the iteration reports failure when it does not.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, List, Tuple

from .grades import Grade
from .measures import Dist, kantorovich
from .transport import solve_transport
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
    out = []
    for v, w in node.step.points:
        out.append((_node(v), w))
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


def _reachable_pairs(p: VProc, q: VProc) -> List[Tuple[VProc, VProc]]:
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
        if id(a) == id(b):
            continue
        for x, _ in _step_nodes(a):
            for y, _ in _step_nodes(b):
                if (id(x), id(y)) not in seen:
                    stack.append((x, y))
    return order


def _label_distance(a: VProc, b: VProc) -> float:
    return 0.0 if a.label == b.label else 1.0


_PERT = Fraction(1, 2**50)
_ROUNDING = 2.0**-50


def behavioral_distance(
    evaluator, p: Any, q: Any, c: Grade, tol: float, max_rounds: int = 100000
) -> Approx:
    """Distance between process behaviours, with certified radius."""
    a, b = _node(p), _node(q)
    if c.is_infinite or not Grade(0) < c:
        raise ProcessError(f"discount factor must lie in (0,1], got {c}")
    cf = float(c)
    pairs = _reachable_pairs(a, b)
    D: Dict[Tuple[int, int], float] = {(id(x), id(y)): 0.0 for x, y in pairs}
    radius = 1.0
    if all(id(x) == id(y) for x, y in pairs):
        return Approx(0.0, 0.0)
    # The process graph is fixed: step data per distinct pair, built once.
    steps = []
    for x, y in pairs:
        if id(x) != id(y):
            sx, sy = _step_nodes(x), _step_nodes(y)
            steps.append((
                (id(x), id(y)),
                _label_distance(x, y),
                [w for _, w in sx],
                [w for _, w in sy],
                [[(id(u), id(v)) for v, _ in sy] for u, _ in sx],
            ))
    rounds = 0
    slack = 0.0  # accumulated perturbation error
    while radius > tol:
        rounds += 1
        if rounds > max_rounds:
            raise ProcessError(
                "behavioral distance did not converge: recursion mass does "
                "not contract at this discount"
            )
        fresh: Dict[Tuple[int, int], float] = {key: 0.0 for key in D}  # diagonal: 0
        factor = 0.0
        any_active = False
        for key, label, supplies, demands, succ in steps:
            if D[key] >= 1.0:
                fresh[key] = 1.0
                continue
            # live successor pairs: distinct and not yet saturated
            live = [[k[0] != k[1] and D[k] < 1.0 for k in row] for row in succ]
            # tiny perturbation steers ties towards couplings avoiding
            # live pairs, giving the sharpest certified factor
            costs = [
                [Fraction(D[k]) + _PERT if on else D[k] for k, on in zip(row, live_row)]
                for row, live_row in zip(succ, live)
            ]
            opt, flow = solve_transport(supplies, demands, costs)
            value = min(label + cf * float(opt), 1.0)
            fresh[key] = value
            if value >= 1.0:
                continue
            any_active = True
            q_mass = 0.0
            for (i, j), wgt in flow.items():
                if live[i][j]:
                    q_mass += float(wgt)
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
    return Approx(D[(id(a), id(b))], min(radius, 1.0))


def bisimilarity_distance(evaluator, p: Any, q: Any, c: Grade, tol: float) -> Approx:
    """Greatest-fixed-point style distance through coupling goals.

    Defined only for contractive discounts; computed as the guarded
    fixed point of `label mismatch (+) c * (cheapest coupling of the
    step measures w.r.t. the current relation)`, which is the same
    functional as the behavioral distance.  Their agreement is therefore
    a consistency check between two code paths, not a comparison with
    an independent algorithm.
    """
    if not c < Grade(1):
        raise ProcessError(f"bisimilarity distance needs discount < 1, got {c}")
    a, b = _node(p), _node(q)
    cf = float(c)
    pairs = _reachable_pairs(a, b)
    rel: Dict[Tuple[int, int], float] = {(id(x), id(y)): 0.0 for x, y in pairs}
    # The process graph is fixed: step measures per distinct pair, built
    # once; the metric reads the current relation.
    steps = [
        (
            (id(x), id(y)),
            _label_distance(x, y),
            Dist.from_pairs(_step_nodes(x)),
            Dist.from_pairs(_step_nodes(y)),
        )
        for x, y in pairs
        if id(x) != id(y)
    ]

    def metric(u, v):
        return rel[(id(deref(u)), id(deref(v)))]

    # One round in floats is off by at most four roundings of 2^-53 (the
    # LP optimum, c, the product, the sum); at a numeric fixed point the
    # contraction turns that into an error of at most _ROUNDING / (1 - c).
    floor = _ROUNDING / float(1 - c.rational)
    radius = 1.0
    while radius > tol:
        fresh = {key: 0.0 for key in rel}
        for key, label, mu, nu in steps:
            fresh[key] = min(label + cf * kantorovich(metric, mu, nu), 1.0)
        settled = fresh == rel
        rel = fresh
        radius = max(radius * cf, floor)
        if settled:
            # The iterates rise monotonically through finitely many
            # floats, so this is reached whatever the tolerance.  More
            # rounds would repeat rel; only the radius moves on.
            while radius > max(tol, floor):
                radius = max(radius * cf, floor)
            break
    return Approx(rel[(id(a), id(b))], min(radius, 1.0))
