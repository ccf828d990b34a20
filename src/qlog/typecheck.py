"""Algorithmic typing via minimal-usage synthesis.

Instead of guessing how a graded context splits across subterms,
``synthesize`` computes, bottom-up, the principal type together with
the pointwise-least usage vector U such that any context granting at
least U derives the judgment.  Checking against a declared context is
then a pointwise grade comparison; this is sound and complete for the
rules because raising context grades preserves derivability.

The pass also fills in the annotations later phases rely on: fix
binders learn their contraction grade, lambdas their Lipschitz factor,
injections their sum type.

Context surgery (splitting a sum of contexts, scaling one,
weakening, projecting a binding away) only ever rearranges grades:
the underlying value maps are identities or projections, so no
coercion nodes exist in terms and the evaluator never sees them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .grades import Grade, INF, ONE, ZERO
from . import terms as T

Usage = Dict[str, Grade]


class TypeCheckError(Exception):
    def __init__(self, rule: str, message: str, node: Optional[T.Term] = None):
        self.rule = rule
        self.message = message
        self.span = getattr(node, "span", None) if node is not None else None
        super().__init__(self.render_text())

    def render_text(self) -> str:
        loc = f"{self.span[0]}:{self.span[1]}: " if self.span else ""
        return f"{loc}[{self.rule}] {self.message}"

    def render_json(self) -> str:
        return json.dumps(
            {"rule": self.rule, "span": self.span, "message": self.message}
        )


def _u_add(a: Usage, b: Usage) -> Usage:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, ZERO) + v
    return out


def _u_scale(r: Grade, a: Usage) -> Usage:
    return {k: r * v for k, v in a.items()}


def _u_join(a: Usage, b: Usage) -> Usage:
    out = dict(a)
    for k, v in b.items():
        out[k] = v if k not in out or out[k] <= v else out[k]
    return out


def _u_drop(a: Usage, *names: str) -> Usage:
    return {k: v for k, v in a.items() if k not in names}


@dataclass
class Checker:
    """Typechecker parameterised by the declared label alphabets."""

    alphabets: Dict[str, list] = None

    def __post_init__(self):
        if self.alphabets is None:
            self.alphabets = {}

    def _alphabet_of_label(self, name: str) -> Optional[str]:
        for alph, labels in self.alphabets.items():
            if name in labels:
                return alph
        return None

    # -- public API ----------------------------------------------------

    def synthesize(
        self, types: Dict[str, T.Type], t: T.Term
    ) -> Tuple[T.Type, Usage]:
        """Principal type and minimal usage of t under the given types."""
        return self._syn(dict(types), t)

    def check(self, gamma: T.TypeCtx, t: T.Term, a: T.Type) -> None:
        """Judgment check: t has type a and fits gamma's grades."""
        self.elaborate(t, a, gamma.types())
        ty, usage = self.synthesize(gamma.types(), t)
        if ty != a:
            raise TypeCheckError(
                "check", f"synthesized type {ty} differs from declared {a}", t
            )
        names = gamma.names()
        for x, g in usage.items():
            if x not in names:
                raise TypeCheckError("var", f"unbound variable {x}", t)
            if not g <= gamma.grade_of(x):
                raise TypeCheckError(
                    "var",
                    f"variable {x} used at grade {g}, context grants only "
                    f"{gamma.grade_of(x)}",
                    t,
                )

    def check_predicate(self, delta: T.TypeCtx, phi: T.Term) -> None:
        """Well-formedness of a predicate under a discrete context."""
        if not delta.is_discrete():
            raise TypeCheckError(
                "ctx", "logical contexts must grade every variable at inf", phi
            )
        self.elaborate(phi, T.TProp(), delta.types())
        ty, _ = self.synthesize(delta.types(), phi)
        if ty != T.TProp():
            raise TypeCheckError("check", f"predicate has type {ty}, not Prop", phi)

    # -- annotation elaboration -----------------------------------------

    def elaborate(
        self,
        t: T.Term,
        expected: Optional[T.Type],
        types: Optional[Dict[str, T.Type]] = None,
    ) -> None:
        """Push an expected type into missing annotations, in place."""
        if expected is None:
            return
        if isinstance(t, T.Fix):
            if t.fix_type is None:
                t.fix_type = expected
            self.elaborate(t.body, t.fix_type, types)
        elif isinstance(t, T.Lam) and isinstance(expected, T.TLolli):
            if t.arg_type is None:
                t.arg_type = expected.left
                t.grade = expected.r
            self.elaborate(t.body, expected.right, types)
        elif isinstance(t, T.Inj) and isinstance(expected, T.TSum):
            if t.sum_type is None:
                t.sum_type = expected
            comp = expected.left if t.index == 1 else expected.right
            self.elaborate(t.body, comp, types)
        elif isinstance(t, T.TensorPair) and isinstance(expected, T.TTensor):
            if t.r is None:
                t.r, t.s = expected.r, expected.s
            self.elaborate(t.left, expected.left, types)
            self.elaborate(t.right, expected.right, types)
        elif isinstance(t, T.Pair) and isinstance(expected, T.TProd):
            self.elaborate(t.left, expected.left, types)
            self.elaborate(t.right, expected.right, types)
        elif isinstance(t, T.DiracTerm) and isinstance(expected, T.TDist):
            self.elaborate(t.body, expected.inner, types)
        elif isinstance(t, T.Mix):
            self.elaborate(t.left, expected, types)
            self.elaborate(t.right, expected, types)
        elif isinstance(t, (T.LetSample, T.LetTensor)):
            self.elaborate(t.body, expected, types)
        elif isinstance(t, T.Case):
            self.elaborate(t.left_body, expected, types)
            self.elaborate(t.right_body, expected, types)
        elif isinstance(t, T.NatRec):
            self.elaborate(t.zero_case, expected, types)
            self.elaborate(t.succ_case, expected, types)

    # -- the rules -------------------------------------------------------

    def _syn(self, types: Dict[str, T.Type], t: T.Term) -> Tuple[T.Type, Usage]:
        if isinstance(t, T.Var):
            if t.name not in types:
                alph = self._alphabet_of_label(t.name)
                if alph is not None:
                    return T.TAlpha(alph), {}
                raise TypeCheckError("var", f"unbound variable {t.name}", t)
            return types[t.name], {t.name: ONE}

        if isinstance(t, T.Label):
            alph = t.alphabet or self._alphabet_of_label(t.name)
            if alph is None:
                raise TypeCheckError("label", f"unknown label {t.name}", t)
            t.alphabet = alph
            return T.TAlpha(alph), {}

        if isinstance(t, T.Lam):
            if t.arg_type is None:
                raise TypeCheckError(
                    "abs", "lambda binder needs a type annotation here", t
                )
            inner = dict(types)
            inner[t.name] = t.arg_type
            bty, bu = self._syn(inner, t.body)
            used = bu.get(t.name, ZERO)
            if t.grade is None:
                t.grade = used
            elif not used <= t.grade:
                raise TypeCheckError(
                    "abs",
                    f"body uses {t.name} at grade {used}, above declared "
                    f"{t.grade}",
                    t,
                )
            return T.TLolli(t.arg_type, t.grade, bty), _u_drop(bu, t.name)

        if isinstance(t, T.App):
            fty, fu = self._syn(types, t.fn)
            if not isinstance(fty, T.TLolli):
                raise TypeCheckError("app", f"applied term has type {fty}", t)
            self.elaborate(t.arg, fty.left, types)
            aty, au = self._syn(types, t.arg)
            if aty != fty.left:
                raise TypeCheckError(
                    "app", f"argument has type {aty}, function wants {fty.left}", t
                )
            return fty.right, _u_add(fu, _u_scale(fty.r, au))

        if isinstance(t, T.Unit):
            return T.TUnit(), {}

        if isinstance(t, T.Pair):
            lty, lu = self._syn(types, t.left)
            rty, ru = self._syn(types, t.right)
            return T.TProd(lty, rty), _u_join(lu, ru)

        if isinstance(t, T.Proj):
            bty, bu = self._syn(types, t.body)
            if not isinstance(bty, T.TProd):
                raise TypeCheckError("proj", f"projection from type {bty}", t)
            return (bty.left if t.index == 1 else bty.right), bu

        if isinstance(t, T.Inj):
            if t.sum_type is None or not isinstance(t.sum_type, T.TSum):
                raise TypeCheckError(
                    "inj", "injection needs a sum-type annotation here", t
                )
            comp = t.sum_type.left if t.index == 1 else t.sum_type.right
            self.elaborate(t.body, comp, types)
            bty, bu = self._syn(types, t.body)
            if bty != comp:
                raise TypeCheckError(
                    "inj", f"injected term has type {bty}, expected {comp}", t
                )
            return t.sum_type, bu

        if isinstance(t, T.Case):
            sty, su = self._syn(types, t.scrut)
            if not isinstance(sty, T.TSum):
                raise TypeCheckError("case", f"case scrutinee has type {sty}", t)
            lenv = dict(types)
            lenv[t.left_name] = sty.left
            lty, lu = self._syn(lenv, t.left_body)
            renv = dict(types)
            renv[t.right_name] = sty.right
            rty, ru = self._syn(renv, t.right_body)
            if lty != rty:
                raise TypeCheckError(
                    "case", f"branch types differ: {lty} vs {rty}", t
                )
            r = ONE
            for g in (lu.get(t.left_name, ZERO), ru.get(t.right_name, ZERO)):
                if r <= g:
                    r = g
            if r.is_infinite:
                raise TypeCheckError(
                    "case", "case branches may not use the bound variable at inf", t
                )
            joined = _u_join(_u_drop(lu, t.left_name), _u_drop(ru, t.right_name))
            return lty, _u_add(joined, _u_scale(r, su))

        if isinstance(t, T.TensorPair):
            if t.r is None:
                t.r, t.s = ONE, ONE
            lty, lu = self._syn(types, t.left)
            rty, ru = self._syn(types, t.right)
            return (
                T.TTensor(lty, t.r, t.s, rty),
                _u_add(_u_scale(t.r, lu), _u_scale(t.s, ru)),
            )

        if isinstance(t, T.LetTensor):
            bty, bu = self._syn(types, t.bound)
            if not isinstance(bty, T.TTensor):
                raise TypeCheckError(
                    "let-tensor", f"bound term has type {bty}, not a tensor", t
                )
            inner = dict(types)
            inner[t.left_name] = bty.left
            inner[t.right_name] = bty.right
            ity, iu = self._syn(inner, t.body)
            ux = iu.get(t.left_name, ZERO)
            uy = iu.get(t.right_name, ZERO)
            if not ux <= bty.r:
                raise TypeCheckError(
                    "let-tensor",
                    f"{t.left_name} used at grade {ux}, tensor grants {bty.r}",
                    t,
                )
            if not uy <= bty.s:
                raise TypeCheckError(
                    "let-tensor",
                    f"{t.right_name} used at grade {uy}, tensor grants {bty.s}",
                    t,
                )
            return ity, _u_add(_u_drop(iu, t.left_name, t.right_name), bu)

        if isinstance(t, T.DiracTerm):
            bty, bu = self._syn(types, t.body)
            return T.TDist(bty), bu

        if isinstance(t, T.Mix):
            if not (0 < t.p < 1):
                raise TypeCheckError(
                    "mix", f"mixing weight must lie in (0,1), got {t.p}", t
                )
            lty, lu = self._syn(types, t.left)
            rty, ru = self._syn(types, t.right)
            if lty != rty:
                raise TypeCheckError("mix", f"mixed types differ: {lty} vs {rty}", t)
            if not T.is_mixture_type(lty):
                raise TypeCheckError(
                    "mix", f"type {lty} does not support convex mixing", t
                )
            p = Grade(t.p)
            q = Grade(1 - t.p)
            return lty, _u_add(_u_scale(p, lu), _u_scale(q, ru))

        if isinstance(t, T.LetSample):
            bty, bu = self._syn(types, t.bound)
            if not isinstance(bty, T.TDist):
                raise TypeCheckError(
                    "let", f"sampling from type {bty}, expected a distribution", t
                )
            inner = dict(types)
            inner[t.name] = bty.inner
            ity, iu = self._syn(inner, t.body)
            if not T.is_mixture_type(ity):
                raise TypeCheckError(
                    "let",
                    f"sampling target {ity} does not support convex mixing",
                    t,
                )
            r = iu.get(t.name, ZERO)
            if r.is_infinite:
                raise TypeCheckError(
                    "let",
                    f"sampled variable {t.name} must have finite grade",
                    t,
                )
            t.bind_grade = r
            t.body_type = ity
            return ity, _u_add(_u_drop(iu, t.name), _u_scale(r, bu))

        if isinstance(t, T.Zero):
            return T.TNat(), {}

        if isinstance(t, T.Succ):
            bty, bu = self._syn(types, t.body)
            if bty != T.TNat():
                raise TypeCheckError("succ", f"successor of type {bty}", t)
            return T.TNat(), bu

        if isinstance(t, T.NatRec):
            zty, zu = self._syn(types, t.zero_case)
            inner = dict(types)
            inner[t.prev_name] = zty
            inner[t.index_name] = T.TNat()
            sty, su = self._syn(inner, t.succ_case)
            if sty != zty:
                raise TypeCheckError(
                    "rec", f"recursion cases disagree: {zty} vs {sty}", t
                )
            for nm in (t.prev_name, t.index_name):
                g = su.get(nm, ZERO)
                if not g <= ONE:
                    raise TypeCheckError(
                        "rec", f"recursion binder {nm} used at grade {g} > 1", t
                    )
            nty, nu = self._syn(types, t.scrut)
            if nty != T.TNat():
                raise TypeCheckError("rec", f"recursion index has type {nty}", t)
            residual = _u_scale(INF, _u_drop(su, t.prev_name, t.index_name))
            return zty, _u_add(_u_add(zu, residual), nu)

        if isinstance(t, T.Fix):
            if t.fix_type is None:
                raise TypeCheckError(
                    "fix", "fixed point needs a type annotation here", t
                )
            inner = dict(types)
            inner[t.name] = t.fix_type
            bty, bu = self._syn(inner, t.body)
            if bty != t.fix_type:
                raise TypeCheckError(
                    "fix", f"body has type {bty}, expected {t.fix_type}", t
                )
            p = bu.get(t.name, ZERO)
            if not p < ONE:
                raise TypeCheckError(
                    "fix",
                    f"recursion is not contractive: {t.name} used at grade {p},"
                    " needs grade < 1",
                    t,
                )
            t.contraction = p
            scale = ONE / (ONE - p) if p != ZERO else ONE
            return t.fix_type, _u_scale(scale, _u_drop(bu, t.name))

        if isinstance(t, T.Fld):
            lty, lu = self._syn(types, t.label)
            if not isinstance(lty, T.TAlpha):
                raise TypeCheckError("fld", f"process label has type {lty}", t)
            sty, su = self._syn(types, t.step)
            if not (
                isinstance(sty, T.TDist)
                and isinstance(sty.inner, T.TProc)
                and sty.inner.label == lty.name
            ):
                raise TypeCheckError(
                    "fld",
                    f"process step has type {sty}, expected a distribution of "
                    f"processes over {lty}",
                    t,
                )
            c = sty.inner.c
            return sty.inner, _u_add(lu, _u_scale(c, su))

        if isinstance(t, T.Ufld):
            bty, bu = self._syn(types, t.body)
            if not isinstance(bty, T.TProc):
                raise TypeCheckError("ufld", f"unfolding a value of type {bty}", t)
            return (
                T.TTensor(T.TAlpha(bty.label), ONE, bty.c, T.TDist(bty)),
                bu,
            )

        # -- predicates ------------------------------------------------

        if isinstance(t, (T.TT, T.FF)):
            return T.TProp(), {}

        if isinstance(t, T.Eq):
            lty, lu = self._syn(types, t.left)
            self.elaborate(t.right, lty, types)
            rty, ru = self._syn(types, t.right)
            if lty != rty:
                raise TypeCheckError(
                    "eq", f"equated terms have types {lty} and {rty}", t
                )
            if t.at_type is None:
                t.at_type = lty
            elif t.at_type != lty:
                raise TypeCheckError(
                    "eq", f"equality annotated at {t.at_type} but terms have {lty}", t
                )
            return T.TProp(), _u_add(lu, ru)

        if isinstance(t, (T.Star, T.WandT)):
            lty, lu = self._syn(types, t.left)
            rty, ru = self._syn(types, t.right)
            if lty != T.TProp() or rty != T.TProp():
                raise TypeCheckError(
                    "star", f"connective applied to {lty} and {rty}", t
                )
            return T.TProp(), _u_add(lu, ru)

        if isinstance(t, T.Scale):
            if t.r == ZERO:
                raise TypeCheckError(
                    "scale", "predicate scaling requires grade > 0", t
                )
            bty, bu = self._syn(types, t.body)
            if bty != T.TProp():
                raise TypeCheckError("scale", f"scaling a term of type {bty}", t)
            return T.TProp(), _u_scale(t.r, bu)

        if isinstance(t, T.Neg):
            bty, bu = self._syn(types, t.body)
            if bty != T.TProp():
                raise TypeCheckError("neg", f"negating a term of type {bty}", t)
            return T.TProp(), bu

        if isinstance(t, (T.Conj, T.Disj)):
            lty, lu = self._syn(types, t.left)
            rty, ru = self._syn(types, t.right)
            if lty != T.TProp() or rty != T.TProp():
                raise TypeCheckError(
                    "conj", f"lattice connective applied to {lty} and {rty}", t
                )
            return T.TProp(), _u_join(lu, ru)

        if isinstance(t, (T.Exists, T.Forall)):
            if t.var_type is None:
                raise TypeCheckError(
                    "quant", "quantifier binder needs a type annotation", t
                )
            inner = dict(types)
            inner[t.name] = t.var_type
            bty, bu = self._syn(inner, t.body)
            if bty != T.TProp():
                raise TypeCheckError(
                    "quant", f"quantifier body has type {bty}, not Prop", t
                )
            return T.TProp(), _u_drop(bu, t.name)

        raise TypeCheckError(
            "internal", f"no typing rule for {type(t).__name__}", t
        )
