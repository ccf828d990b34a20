"""Denotational evaluation with certified error radii.

``Evaluator.eval`` maps a well-typed (annotated) term and an
environment of approximations to an :class:`Approx`: a semantic value
plus an upper bound on its distance to the true denotation.  Radii
enter only at fixed-point truncation and distribution tail cut-off and
are propagated through every construct with the same grade arithmetic
the typing rules use, so the usual beta/projection/sampling equations
hold exactly on radius-zero fragments.

Fixed points are evaluated in one of three modes:

* distribution types iterate on subdistributions starting from the
  empty measure; the leftover residual is both the truncation mass and
  the certified radius (this yields exact weights for examples like
  the geometric distribution);
* types with computable distances iterate from a canonical seed until
  the Banach a-posteriori bound ``p*d/(1-p)`` undercuts the tolerance;
* function and process types return a lazy thunk unfolding on demand,
  with radius ``p^fuel`` past the unfolding cap.

Quantifiers evaluate through declared enumerations; existentials over
coupling goals are special-cased to an exact transport LP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional, Tuple

from .grades import Grade, ONE, ZERO, oplus, scale_prop, wand
from .measures import (
    Dist, dirac, empty_subdist, expectation, key_of, lift_relation, transport
)
from . import terms as T
from .normalize import normal_form
from .parser import parse_term
from .processes import behavioral_distance
from .typecheck import Checker
from .values import (
    UNIT,
    Approx,
    VClosure,
    VInj,
    VNative,
    VProc,
    VRef,
    VThunk,
    deref,
)

Env = Dict[str, Approx]


class EvalError(Exception):
    pass


def _cap(x: float) -> float:
    return min(x, 1.0)


def _scaled(r: Grade, x: float) -> float:
    """min{r*x, 1} with the conventions for r = 0 and r = inf."""
    if r == ZERO:
        return 0.0
    if r.is_infinite:
        return 0.0 if x == 0.0 else 1.0
    return min(float(r.rational) * x, 1.0)


@dataclass
class EnumSpec:
    """Enumeration/sampling strategy for quantified types.

    ``entries`` maps pretty-printed types to either
    ``{"mode": "finite", "bound": n}`` (naturals up to n) or
    ``{"mode": "samples", "terms": [...]}`` (closed terms).  Types that
    are structurally finite (unit, alphabets, sums/products of such)
    never need an entry.
    """

    entries: Dict[str, dict] = field(default_factory=dict)

    def lookup(self, ty: T.Type) -> Optional[dict]:
        return self.entries.get(str(ty))


@dataclass
class EvalConfig:
    fuel: int = 30
    tol: float = 1e-6
    enums: EnumSpec = field(default_factory=EnumSpec)


class Evaluator:
    def __init__(
        self,
        checker: Optional[Checker] = None,
        config: Optional[EvalConfig] = None,
    ):
        self.checker = checker or Checker()
        self.config = config or EvalConfig()
        self._sample_cache: Dict[str, List[Any]] = {}

    # ------------------------------------------------------------------
    # seeds and enumeration
    # ------------------------------------------------------------------

    def canonical_seed(self, ty: T.Type) -> Any:
        """Deterministic inhabitant of a type (every type has one)."""
        if isinstance(ty, T.TNat):
            return 0
        if isinstance(ty, T.TUnit):
            return UNIT
        if isinstance(ty, T.TProp):
            return 0.0
        if isinstance(ty, T.TAlpha):
            labels = self.checker.alphabets.get(ty.name)
            if not labels:
                raise EvalError(f"alphabet {ty.name} has no declared labels")
            return labels[0]
        if isinstance(ty, (T.TProd, T.TTensor)):
            return (self.canonical_seed(ty.left), self.canonical_seed(ty.right))
        if isinstance(ty, T.TSum):
            return VInj(1, self.canonical_seed(ty.left))
        if isinstance(ty, T.TDist):
            return dirac(self.canonical_seed(ty.inner))
        if isinstance(ty, T.TLolli):
            seed = self.canonical_seed(ty.right)
            return VNative(lambda _arg: Approx(seed), name="const-seed")
        if isinstance(ty, T.TProc):
            labels = self.checker.alphabets.get(ty.label)
            if not labels:
                raise EvalError(f"alphabet {ty.label} has no declared labels")
            node = VProc(labels[0])
            node.step = dirac(node)  # canonical self-looping process
            return node
        raise EvalError(f"no canonical seed for type {ty}")

    def enumerate_type(self, ty: T.Type) -> Optional[List[Any]]:
        """All inhabitants of a structurally finite type, else None."""
        if isinstance(ty, T.TUnit):
            return [UNIT]
        if isinstance(ty, T.TAlpha):
            labels = self.checker.alphabets.get(ty.name)
            return list(labels) if labels else None
        if isinstance(ty, T.TSum):
            l = self.enumerate_type(ty.left)
            r = self.enumerate_type(ty.right)
            if l is None or r is None:
                return None
            return [VInj(1, v) for v in l] + [VInj(2, v) for v in r]
        if isinstance(ty, (T.TProd, T.TTensor)):
            l = self.enumerate_type(ty.left)
            r = self.enumerate_type(ty.right)
            if l is None or r is None:
                return None
            return [(a, b) for a in l for b in r]
        return None

    def quantifier_domain(self, ty: T.Type) -> Tuple[List[Any], bool]:
        """Values to range over and whether they are exhaustive."""
        entry = self.config.enums.lookup(ty)
        if entry is not None and entry.get("mode") == "finite":
            if isinstance(ty, T.TNat):
                bound = entry.get("bound")
                if bound is None:
                    raise EvalError("finite enumeration of Nat needs a bound")
                return list(range(int(bound) + 1)), True
            structural = self.enumerate_type(ty)
            if structural is None:
                raise EvalError(f"type {ty} is not finitely enumerable")
            return structural, True
        if entry is not None and entry.get("mode") == "samples":
            key = str(ty)
            if key not in self._sample_cache:
                vals = []
                for src in entry.get("terms", []):
                    term = parse_term(src)
                    self.checker.elaborate(term, ty)
                    self.checker.synthesize({}, term)
                    vals.append(self.eval({}, term).value)
                self._sample_cache[key] = vals
            return self._sample_cache[key], False
        structural = self.enumerate_type(ty)
        if structural is not None:
            return structural, True
        raise EvalError(
            f"cannot quantify over {ty}: no enumeration or samples declared"
        )

    # ------------------------------------------------------------------
    # distances
    # ------------------------------------------------------------------

    def distance_at(
        self,
        ty: T.Type,
        v1: Any,
        v2: Any,
        probes: Optional[List[Any]] = None,
    ) -> Approx:
        """The metric of a type, applied to two of its inhabitants."""
        v1 = deref(v1)
        v2 = deref(v2)
        if isinstance(ty, (T.TNat, T.TAlpha, T.TUnit)):
            return Approx(0.0 if key_of(v1) == key_of(v2) else 1.0)
        if isinstance(ty, T.TProp):
            return Approx(abs(float(v1) - float(v2)))
        if isinstance(ty, T.TProd):
            a = self.distance_at(ty.left, v1[0], v2[0], probes)
            b = self.distance_at(ty.right, v1[1], v2[1], probes)
            return Approx(
                max(a.value, b.value), max(a.radius, b.radius), a.sided or b.sided
            )
        if isinstance(ty, T.TSum):
            if v1.index != v2.index:
                return Approx(1.0)
            comp = ty.left if v1.index == 1 else ty.right
            return self.distance_at(comp, v1.value, v2.value, probes)
        if isinstance(ty, T.TTensor):
            a = self.distance_at(ty.left, v1[0], v2[0], probes)
            b = self.distance_at(ty.right, v1[1], v2[1], probes)
            return Approx(
                _cap(_scaled(ty.r, a.value) + _scaled(ty.s, b.value)),
                _cap(_scaled(ty.r, a.radius) + _scaled(ty.s, b.radius)),
                a.sided or b.sided,
            )
        if isinstance(ty, T.TDist):
            return self._dist_distance(ty.inner, v1, v2, probes)
        if isinstance(ty, T.TLolli):
            if probes is None:
                dom, exhaustive = self._probes_for(ty.left)
            else:
                dom, exhaustive = probes, False
            if dom is None:
                raise EvalError(
                    f"distance at function type {ty} needs a probe set"
                )
            worst = Approx(0.0)
            for p in dom:
                ra = self.apply(Approx(v1), Approx(p))
                rb = self.apply(Approx(v2), Approx(p))
                d = self.distance_at(ty.right, ra.value, rb.value)
                d = d.widen(ra.radius + rb.radius)
                if d.value > worst.value:
                    worst = d
            sided = None if exhaustive else "lower"
            return Approx(worst.value, worst.radius, sided or worst.sided)
        if isinstance(ty, T.TProc):
            return behavioral_distance(self, v1, v2, ty.c, self.config.tol)
        raise EvalError(f"no metric for type {ty}")

    def _probes_for(self, ty: T.Type):
        structural = self.enumerate_type(ty)
        if structural is not None:
            return structural, True
        entry = self.config.enums.lookup(ty)
        if entry is not None:
            return self.quantifier_domain(ty)
        return None, False

    def _dist_distance(
        self, inner: T.Type, mu: Dist, nu: Dist, probes=None
    ) -> Approx:
        """Kantorovich distance, with residual mass at the bottom point
        of :func:`transport`; approximation residuals widen the radius."""
        base = float(mu.residual_approx + nu.residual_approx)
        radius = base
        sided = None

        def point_distance(x, y) -> float:
            nonlocal radius, sided
            d = self.distance_at(inner, x, y, probes)
            radius = max(radius, base + d.radius)
            sided = sided or d.sided
            return d.value

        cost, _ = transport(lift_relation(point_distance, "eq"), mu, nu)
        return Approx(float(cost), _cap(radius), sided)

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------

    def apply(self, fn: Approx, arg: Approx) -> Approx:
        f = deref(fn.value)
        if isinstance(f, VClosure):
            env = dict(f.env)
            env[f.param] = arg
            out = self.eval(env, f.body)
            return out.widen(fn.radius)
        if isinstance(f, VNative):
            return f.fn(arg).widen(fn.radius)
        raise EvalError(f"cannot apply non-function value {f!r}")

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def eval(self, env: Env, t: T.Term) -> Approx:
        if isinstance(t, T.Var):
            if t.name not in env:
                alph = self.checker._alphabet_of_label(t.name)
                if alph is not None:
                    return Approx(t.name)
                raise EvalError(f"unbound variable {t.name}")
            return env[t.name]

        if isinstance(t, T.Label):
            return Approx(t.name)

        if isinstance(t, T.Lam):
            return Approx(VClosure(t.name, t.grade, t.body, dict(env)))

        if isinstance(t, T.App):
            fn = self.eval(env, t.fn)
            arg = self.eval(env, t.arg)
            return self.apply(fn, arg)

        if isinstance(t, T.Unit):
            return Approx(UNIT)

        if isinstance(t, T.Pair):
            a = self.eval(env, t.left)
            b = self.eval(env, t.right)
            return Approx(
                (a.value, b.value), max(a.radius, b.radius), a.sided or b.sided
            )

        if isinstance(t, T.Proj):
            body = self.eval(env, t.body)
            v = body.value
            if isinstance(v, VRef):
                return Approx(v.project(t.index), body.radius, body.sided)
            if not isinstance(v, tuple):
                raise EvalError(f"projection from non-pair {v!r}")
            return Approx(v[t.index - 1], body.radius, body.sided)

        if isinstance(t, T.Inj):
            body = self.eval(env, t.body)
            return Approx(VInj(t.index, body.value), body.radius, body.sided)

        if isinstance(t, T.Case):
            scrut = self.eval(env, t.scrut)
            v = deref(scrut.value)
            if not isinstance(v, VInj):
                raise EvalError(f"case on non-sum value {v!r}")
            # a radius below 1 certifies the tag (branches sit at
            # distance 1); otherwise all information is lost and the
            # chosen branch's value is returned at the top radius
            env2 = dict(env)
            if v.index == 1:
                env2[t.left_name] = Approx(v.value, scrut.radius)
                out = self.eval(env2, t.left_body)
            else:
                env2[t.right_name] = Approx(v.value, scrut.radius)
                out = self.eval(env2, t.right_body)
            if scrut.radius >= 1.0:
                return Approx(out.value, 1.0, out.sided)
            return out

        if isinstance(t, T.TensorPair):
            a = self.eval(env, t.left)
            b = self.eval(env, t.right)
            r = t.r if t.r is not None else ONE
            s = t.s if t.s is not None else ONE
            return Approx(
                (a.value, b.value),
                _cap(_scaled(r, a.radius) + _scaled(s, b.radius)),
                a.sided or b.sided,
            )

        if isinstance(t, T.LetTensor):
            bound = self.eval(env, t.bound)
            v = deref(bound.value)
            if not isinstance(v, tuple):
                raise EvalError(f"tensor let on non-pair {v!r}")
            env2 = dict(env)
            env2[t.left_name] = Approx(v[0], bound.radius)
            env2[t.right_name] = Approx(v[1], bound.radius)
            return self.eval(env2, t.body)

        if isinstance(t, T.DiracTerm):
            body = self.eval(env, t.body)
            return Approx(dirac(body.value), body.radius, body.sided)

        if isinstance(t, T.Mix):
            a = self.eval(env, t.left)
            b = self.eval(env, t.right)
            pf = float(t.p)
            return self._combine_branches(
                [(a.value, t.p), (b.value, 1 - t.p)],
                _cap(pf * a.radius + (1 - pf) * b.radius),
                a.sided or b.sided,
            )

        if isinstance(t, T.LetSample):
            return self._eval_let_sample(env, t)

        if isinstance(t, T.Zero):
            return Approx(0)

        if isinstance(t, T.Succ):
            body = self.eval(env, t.body)
            n = deref(body.value)
            return Approx(n + 1, body.radius, body.sided)

        if isinstance(t, T.NatRec):
            n = deref(self.eval(env, t.scrut).value)
            acc = self.eval(env, t.zero_case)
            for k in range(int(n)):
                env2 = dict(env)
                env2[t.prev_name] = acc
                env2[t.index_name] = Approx(k)
                acc = self.eval(env2, t.succ_case)
            return acc

        if isinstance(t, T.Fix):
            return self.fix_eval(env, t)

        if isinstance(t, T.Fld):
            lab = self.eval(env, t.label)
            step = self.eval(env, t.step)
            node = VProc(deref(lab.value), deref(step.value))
            return Approx(
                node,
                _cap(lab.radius + step.radius),
                lab.sided or step.sided,
            )

        if isinstance(t, T.Ufld):
            body = self.eval(env, t.body)
            node = deref(body.value)
            if not isinstance(node, VProc):
                raise EvalError(f"unfolding non-process {node!r}")
            return Approx((node.label, node.step), body.radius, body.sided)

        # -- predicates --------------------------------------------------

        if isinstance(t, T.TT):
            return Approx(0.0)
        if isinstance(t, T.FF):
            return Approx(1.0)

        if isinstance(t, T.Eq):
            a = self.eval(env, t.left)
            b = self.eval(env, t.right)
            if t.at_type is None:
                raise EvalError("equality lacks its type annotation")
            d = self.distance_at(t.at_type, a.value, b.value)
            return d.widen(a.radius + b.radius)

        if isinstance(t, T.Star):
            a = self.eval(env, t.left)
            b = self.eval(env, t.right)
            return Approx(
                oplus(float(a.value), float(b.value)),
                _cap(a.radius + b.radius),
                a.sided or b.sided,
            )

        if isinstance(t, T.WandT):
            a = self.eval(env, t.left)
            b = self.eval(env, t.right)
            sided = a.sided or b.sided
            if a.sided == "upper":  # antitone position flips the side
                sided = "lower" if b.sided in (None, "lower") else sided
            return Approx(
                wand(float(a.value), float(b.value)),
                _cap(a.radius + b.radius),
                sided,
            )

        if isinstance(t, T.Scale):
            body = self.eval(env, t.body)
            return Approx(
                scale_prop(t.r, float(body.value)),
                _scaled(t.r, body.radius),
                body.sided,
            )

        if isinstance(t, T.Neg):
            body = self.eval(env, t.body)
            sided = body.sided
            if sided == "upper":
                sided = "lower"
            elif sided == "lower":
                sided = "upper"
            return Approx(1.0 - float(body.value), body.radius, sided)

        if isinstance(t, T.Conj):
            a = self.eval(env, t.left)
            b = self.eval(env, t.right)
            return Approx(
                max(float(a.value), float(b.value)),
                max(a.radius, b.radius),
                a.sided or b.sided,
            )

        if isinstance(t, T.Disj):
            a = self.eval(env, t.left)
            b = self.eval(env, t.right)
            return Approx(
                min(float(a.value), float(b.value)),
                max(a.radius, b.radius),
                a.sided or b.sided,
            )

        if isinstance(t, T.Exists):
            special = self._eval_coupling_exists(env, t)
            if special is not None:
                return special
            return self._eval_quantifier(env, t, want_inf=True)

        if isinstance(t, T.Forall):
            return self._eval_quantifier(env, t, want_inf=False)

        raise EvalError(f"cannot evaluate {type(t).__name__}")

    # -- helpers ---------------------------------------------------------

    def _eval_let_sample(self, env: Env, t: T.LetSample) -> Approx:
        bound = self.eval(env, t.bound)
        mu = deref(bound.value)
        if not isinstance(mu, Dist):
            raise EvalError(f"sampling from non-distribution {mu!r}")
        grade = t.bind_grade if t.bind_grade is not None else ONE
        branch: List[Tuple[Any, Fraction]] = []
        worst_inner = 0.0
        sided = bound.sided
        for v, w in mu.points:
            env2 = dict(env)
            env2[t.name] = Approx(v)
            out = self.eval(env2, t.body)
            worst_inner = max(worst_inner, out.radius)
            sided = sided or out.sided
            branch.append((out.value, w))
        radius = _cap(worst_inner + _scaled(grade, bound.radius))
        if not branch and not isinstance(t.body_type, T.TDist):
            if t.body_type is None:
                raise EvalError("sampling lacks its body type annotation")
            # a point-free mu (residual 1) pins no value of the body's
            # type: any inhabitant is within the 1-bounded metric
            return Approx(self.canonical_seed(t.body_type), 1.0, sided)
        return self._combine_branches(
            branch, radius, sided, mu.residual_div, mu.residual_approx
        )

    def _combine_branches(
        self, branch: List[Tuple[Any, Fraction]], radius: float, sided,
        rdiv: Fraction = 0, rapp: Fraction = 0,
    ) -> Approx:
        """The sum of w * v over the ``(v, w)`` branches at a mixture
        type, with residual mass ``rdiv + rapp`` left over: `a (+ p) b`
        is the two branches (a, p) and (b, 1 - p), a let-sample one
        branch per support point of its measure."""
        if not branch or isinstance(branch[0][0], Dist):
            if not all(isinstance(d, Dist) for d, _ in branch):
                raise EvalError("cannot mix distributions with other values")
            return Approx(Dist.mix(branch, rdiv, rapp), radius, sided)
        first = deref(branch[0][0])  # a lazy fixed point is a VRef
        if isinstance(first, float):
            # mean: truncated weighted sum (never truncates in [0,1]);
            # unresolved residual mass is pure uncertainty
            val = expectation(branch)
            return Approx(val, _cap(radius + float(rdiv + rapp)), sided)
        if isinstance(first, tuple):
            lefts = [(deref(x)[0], w) for x, w in branch]
            rights = [(deref(x)[1], w) for x, w in branch]
            l = self._combine_branches(lefts, 0.0, None, rdiv, rapp)
            r = self._combine_branches(rights, 0.0, None, rdiv, rapp)
            return Approx((l.value, r.value), radius, sided)
        if isinstance(first, (VClosure, VNative)):
            fns = list(branch)

            def mixed(arg: Approx) -> Approx:
                applied = [(self.apply(Approx(f), arg), w) for f, w in fns]
                vals = [(a.value, w) for a, w in applied]
                rad = max(a.radius for a, _ in applied)
                return self._combine_branches(vals, rad, None, rdiv, rapp)

            return Approx(VNative(mixed, name="mixture"), radius, sided)
        raise EvalError(f"cannot mix values of type {type(first).__name__}")

    # -- quantifiers -------------------------------------------------------

    def _eval_quantifier(self, env: Env, t, want_inf: bool) -> Approx:
        domain, exhaustive = self.quantifier_domain(t.var_type)
        if not domain:
            raise EvalError(f"empty quantifier domain for {t.var_type}")
        best = None
        worst_rad = 0.0
        sided = None
        for v in domain:
            env2 = dict(env)
            env2[t.name] = Approx(v)
            out = self.eval(env2, t.body)
            worst_rad = max(worst_rad, out.radius)
            sided = sided or out.sided
            x = float(out.value)
            if best is None or (x < best if want_inf else x > best):
                best = x
        if not exhaustive:
            sided = "upper" if want_inf else "lower"
        return Approx(best, worst_rad, sided)

    # -- coupling special case ----------------------------------------------

    def _eval_coupling_exists(self, env: Env, t: T.Exists) -> Optional[Approx]:
        """Exact LP value for goals of the shape

            exists w : Dist (A *[1,1] B).
              (let z = w in R(z)) * (map fst w == mu) * (map snd w == nu)

        The infimum over all joints is attained at exact couplings
        because the cost is 1-bounded, so the transport optimum is the
        exact truth value.
        """
        if not (
            isinstance(t.var_type, T.TDist)
            and isinstance(t.var_type.inner, T.TTensor)
        ):
            return None
        rho = t.name
        try:
            body = normal_form(t.body)
        except Exception:
            return None
        conjuncts: List[T.Term] = []

        def flatten(u: T.Term):
            if isinstance(u, T.Star):
                flatten(u.left)
                flatten(u.right)
            else:
                conjuncts.append(u)

        flatten(body)
        mean_term = None
        marginals: Dict[int, T.Term] = {}
        for c in conjuncts:
            side = self._match_marginal(c, rho)
            if side is not None:
                idx, other = side
                if idx in marginals or rho in T.free_vars(other):
                    return None
                marginals[idx] = other
                continue
            if (
                isinstance(c, T.LetSample)
                and isinstance(c.bound, T.Var)
                and c.bound.name == rho
                and mean_term is None
            ):
                mean_term = c
                continue
            return None
        if mean_term is None or set(marginals.keys()) != {1, 2}:
            return None

        mu_a = self.eval(env, marginals[1])
        nu_a = self.eval(env, marginals[2])
        mu, nu = deref(mu_a.value), deref(nu_a.value)
        if not isinstance(mu, Dist) or not isinstance(nu, Dist):
            return None
        if mu.residual != 0 or nu.residual != 0:
            raise EvalError("coupling goals need full distributions")

        worst_rad = 0.0
        sided = None

        def cost(x, y) -> float:
            nonlocal worst_rad, sided
            env2 = dict(env)
            env2[mean_term.name] = Approx((x, y))
            out = self.eval(env2, mean_term.body)
            worst_rad = max(worst_rad, out.radius)
            sided = sided or out.sided
            return float(out.value)

        opt, _ = transport(cost, mu, nu)
        radius = _cap(worst_rad + mu_a.radius + nu_a.radius)
        return Approx(float(opt), radius, sided)

    @staticmethod
    def _match_marginal(c: T.Term, rho: str) -> Optional[Tuple[int, T.Term]]:
        """Recognise `map proj_i rho == other` (either orientation)."""
        if not isinstance(c, T.Eq):
            return None

        def proj_index(u: T.Term) -> Optional[int]:
            if (
                isinstance(u, T.LetSample)
                and isinstance(u.bound, T.Var)
                and u.bound.name == rho
                and isinstance(u.body, T.DiracTerm)
                and isinstance(u.body.body, T.LetTensor)
            ):
                lt = u.body.body
                if isinstance(lt.bound, T.Var) and lt.bound.name == u.name:
                    if isinstance(lt.body, T.Var):
                        if lt.body.name == lt.left_name:
                            return 1
                        if lt.body.name == lt.right_name:
                            return 2
            return None

        i = proj_index(c.left)
        if i is not None:
            return i, c.right
        i = proj_index(c.right)
        if i is not None:
            return i, c.left
        return None

    # ------------------------------------------------------------------
    # fixed points
    # ------------------------------------------------------------------

    def fix_eval(self, env: Env, t: T.Fix) -> Approx:
        if t.fix_type is None or t.contraction is None:
            raise EvalError("fixed point must be typechecked before evaluation")
        ty = t.fix_type
        p = t.contraction
        if not p < ONE:
            raise EvalError(f"fixed point grade {p} is not below 1")
        if isinstance(ty, T.TDist):
            return self._fix_subdist(env, t)
        if self._contains(ty, (T.TLolli, T.TProc)):
            return self._fix_lazy(env, t)
        return self._fix_banach(env, t)

    @staticmethod
    def _contains(ty: T.Type, leaves) -> bool:
        """Whether ``ty`` or a Prod, Tensor or Sum part of it is one of
        the types ``leaves``."""
        if isinstance(ty, leaves):
            return True
        if isinstance(ty, (T.TProd, T.TTensor, T.TSum)):
            return Evaluator._contains(ty.left, leaves) or Evaluator._contains(
                ty.right, leaves
            )
        return False

    def _fix_subdist(self, env: Env, t: T.Fix) -> Approx:
        """Ascending iteration on subdistributions from the empty one.

        Residual mass decays by the recursion grade per unfolding and
        is the certified distance to the true fixed point.
        """
        current = empty_subdist()
        inner = 0.0
        tol = self.config.tol
        for _ in range(max(1, self.config.fuel)):
            env2 = dict(env)
            env2[t.name] = Approx(current)
            out = self.eval(env2, t.body)
            nxt = deref(out.value)
            if not isinstance(nxt, Dist):
                raise EvalError("distribution fixed point produced a non-distribution")
            inner = out.radius
            current = nxt
            if float(current.residual_approx) <= tol:
                break
        return Approx(current, _cap(float(current.residual_approx) + inner))

    def _fix_banach(self, env: Env, t: T.Fix) -> Approx:
        p = t.contraction
        pf = float(p)
        x = self.canonical_seed(t.fix_type)
        inner = 0.0
        d_last = 1.0
        for _ in range(max(1, self.config.fuel)):
            env2 = dict(env)
            env2[t.name] = Approx(x)
            out = self.eval(env2, t.body)
            nxt = out.value
            inner = out.radius
            d_last = self.distance_at(t.fix_type, x, nxt).value
            x = nxt
            if pf == 0.0 or d_last * pf / (1.0 - pf) <= self.config.tol:
                break
        radius = 0.0 if pf == 0.0 else _cap(pf * d_last / (1.0 - pf))
        return Approx(x, _cap(radius + inner))

    def _fix_lazy(self, env: Env, t: T.Fix) -> Approx:
        pf = float(t.contraction) if t.contraction != ZERO else 0.0

        def make_body(thunk: VThunk) -> Approx:
            env2 = dict(env)
            env2[t.name] = Approx(VRef(thunk, ()))
            return self.eval(env2, t.body)

        thunk = VThunk(
            make_body=make_body,
            fix_type=t.fix_type,
            max_unfolds=max(1, self.config.fuel),
            fallback=self.canonical_seed,
        )
        radius = pf ** self.config.fuel if pf > 0 else 0.0
        if isinstance(t.fix_type, T.TProc) or (
            isinstance(t.fix_type, (T.TProd, T.TTensor))
            and not self._contains(t.fix_type, T.TLolli)
        ):
            # productive process definitions unfold exactly on demand
            radius = 0.0
        return Approx(VRef(thunk, ()), radius)

    def eval_defs(self, qfile) -> Env:
        """Check (or synthesize) and evaluate each definition of a parsed
        .qlog file in order, with every ctx binding at its type's
        canonical seed."""
        env = {nm: Approx(self.canonical_seed(ty)) for nm, _, ty in qfile.ctx.bindings}
        values = {}
        for nm, d in qfile.defs.items():
            if d.declared_type is not None:
                self.checker.check(qfile.ctx, d.term, d.declared_type)
            else:
                self.checker.synthesize(qfile.ctx.types(), d.term)
            values[nm] = self.eval(env, d.term)
        return values
