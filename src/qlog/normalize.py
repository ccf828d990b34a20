"""Bounded rewriting for judgmental equality of terms.

Normal forms decide the equations the evaluator also satisfies: beta
reduction, projections, case-on-injection, tensor-let on a pair,
sampling a point distribution, the homomorphism and associativity laws
of sampling lets, primitive-recursion unfolding on numerals, and a
canonical form for chains of probabilistic choices (flattening modulo
idempotence, commutativity and skewed associativity).  Scaling chains
collapse where that is an isometry (inner grade <= 1 or outer >= 1).

Fixed points are never unfolded implicitly; proof nodes that need an
unfolding request it with an explicit count via :func:`unfold_fixes`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .grades import ONE
from . import terms as T


class NormalizeBudget(Exception):
    pass


_BUDGET = 20000


def _flatten_mix(t: T.Term, weight: Fraction, acc: List[Tuple[Fraction, T.Term]]):
    if isinstance(t, T.Mix):
        _flatten_mix(t.left, weight * t.p, acc)
        _flatten_mix(t.right, weight * (1 - t.p), acc)
    else:
        acc.append((weight, t))


def _rebuild_mix(leaves: List[Tuple[Fraction, T.Term]]) -> T.Term:
    # canonical: merge alpha-equal leaves, sort, right-nest
    merged: Dict = {}
    for w, leaf in leaves:
        k = T.alpha_key(leaf)
        if k in merged:
            merged[k] = (merged[k][0] + w, merged[k][1])
        else:
            merged[k] = (w, leaf)
    items = sorted(merged.values(), key=lambda p: repr(T.alpha_key(p[1])))
    if len(items) == 1:
        return items[0][1]
    total = sum(w for w, _ in items)
    w0, leaf0 = items[0]
    rest = [(w, l) for w, l in items[1:]]
    p = w0 / total
    return T.Mix(p, leaf0, _rebuild_mix(rest))


def _step(t: T.Term) -> Optional[T.Term]:
    """One outermost rewrite at this node, or None."""
    if isinstance(t, T.App) and isinstance(t.fn, T.Lam):
        return T.substitute(t.fn.body, t.fn.name, t.arg)
    if isinstance(t, T.Proj) and isinstance(t.body, T.Pair):
        return t.body.left if t.index == 1 else t.body.right
    if isinstance(t, T.Case) and isinstance(t.scrut, T.Inj):
        if t.scrut.index == 1:
            return T.substitute(t.left_body, t.left_name, t.scrut.body)
        return T.substitute(t.right_body, t.right_name, t.scrut.body)
    if isinstance(t, T.LetTensor) and isinstance(t.bound, T.TensorPair):
        body = T.substitute(t.body, t.left_name, t.bound.left)
        return T.substitute(body, t.right_name, t.bound.right)
    if isinstance(t, T.LetSample):
        if isinstance(t.bound, T.DiracTerm):
            return T.substitute(t.body, t.name, t.bound.body)
        if isinstance(t.bound, T.Mix):
            m = t.bound
            return T.Mix(
                m.p,
                T.LetSample(t.name, m.left, t.body),
                T.LetSample(t.name, m.right, t.body),
            )
        if isinstance(t.bound, T.LetSample):
            inner = t.bound
            yname = inner.name
            if yname in T.free_vars(t.body):
                fresh = T.fresh_name(yname)
                inner = T.LetSample(
                    fresh,
                    inner.bound,
                    T.substitute(inner.body, yname, T.Var(fresh)),
                )
            return T.LetSample(
                inner.name,
                inner.bound,
                T.LetSample(t.name, inner.body, t.body),
            )
    if isinstance(t, T.NatRec):
        if isinstance(t.scrut, T.Zero):
            return t.zero_case
        if isinstance(t.scrut, T.Succ):
            prev = T.NatRec(
                t.zero_case, t.prev_name, t.index_name, t.succ_case, t.scrut.body
            )
            body = T.substitute(t.succ_case, t.prev_name, prev)
            return T.substitute(body, t.index_name, t.scrut.body)
    if isinstance(t, T.Scale):
        if t.r == ONE:
            return t.body
        if isinstance(t.body, T.Scale):
            inner = t.body
            if inner.r <= ONE or t.r >= ONE:  # isometric reassociation
                return T.Scale(t.r * inner.r, inner.body)
    if isinstance(t, T.Mix):
        leaves: List[Tuple[Fraction, T.Term]] = []
        _flatten_mix(t, Fraction(1), leaves)
        rebuilt = _rebuild_mix(leaves)
        if T.alpha_key(rebuilt) != T.alpha_key(t):
            return rebuilt
    return None


def _normalize(t: T.Term, budget: List[int]) -> T.Term:
    while True:
        budget[0] -= 1
        if budget[0] <= 0:
            raise NormalizeBudget("normalization budget exhausted")
        # normalize children first
        updates = {}
        for fname, child in T.children(t):
            nc = _normalize(child, budget)
            if nc is not child:
                updates[fname] = nc
        if updates:
            t = T.clone(t, **updates)
        stepped = _step(t)
        if stepped is None:
            return t
        t = stepped


def normal_form(t: T.Term) -> T.Term:
    return _normalize(t, [_BUDGET])


def unfold_fixes(t: T.Term, count: int) -> T.Term:
    """Unfold every fixed point `count` times (explicitly requested)."""
    for _ in range(count):
        t = _unfold_once(t)
    return t


def _unfold_once(t: T.Term) -> T.Term:
    if isinstance(t, T.Fix):
        return T.substitute(t.body, t.name, t)
    updates = {
        fname: _unfold_once(child) for fname, child in T.children(t)
    }
    if not updates:
        return t
    return T.clone(t, **updates)


def judgmental_equal(a: T.Term, b: T.Term, fix_unfolds: int = 0) -> bool:
    """Alpha equality modulo the bounded rewrite system.

    With a positive unfold budget the two sides may unfold their fixed
    points a different number of times (equality via a common reduct).
    """
    a_forms = [T.alpha_key(normal_form(a))]
    b_forms = [T.alpha_key(normal_form(b))]
    for _ in range(fix_unfolds):
        a = _unfold_once(a)
        b = _unfold_once(b)
        a_forms.append(T.alpha_key(normal_form(a)))
        b_forms.append(T.alpha_key(normal_form(b)))
    return bool(set(a_forms) & set(b_forms))
