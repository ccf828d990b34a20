"""Denotational evaluation with certified error radii.

``Evaluator.eval`` maps a well-typed (annotated) term and an
environment of approximations to an :class:`Approx`: a semantic value
plus an upper bound on its distance to the true denotation.  Radii
enter only at fixed-point truncation and distribution tail cut-off and
are propagated through every construct with the same grade arithmetic
the typing rules use, so the usual beta/projection/sampling equations
hold exactly on radius-zero fragments.

Evaluation is staged: analyse once, run per environment.
``Evaluator.analyse`` dispatches on a term's class once and returns a
run ``(evaluator, env) -> Approx`` that holds its children's runs;
``eval`` runs it on an environment.  Likewise ``Evaluator.metric``
builds the metric of a type once, over its components' metrics, and
``distance_at`` runs it.  Both are kept per ``Evaluator``, so a
judgment checked on 200 sampled environments is analysed once.  At
``Dist A`` with ``A`` discrete (``Nat``, ``Unit`` or an alphabet) the
Kantorovich distance is computed as the exact total variation, the
same rational as the transport LP's optimum, without an LP.

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

from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from .grades import Grade, ONE, ZERO, oplus, scale_prop, wand
from .measures import (
    Dist,
    dirac,
    empty_subdist,
    expectation,
    key_of,
    lift_relation,
    total_variation,
    transport,
)
from . import terms as T
from .normalize import normal_form
from .parser import parse_term
from .processes import behavioral_distance
from .typecheck import Checker, TypeCheckError
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
# an analysed term, run as run(evaluator, env)
Run = Callable[["Evaluator", Env], Approx]
# a built metric, run as metric(evaluator, v1, v2, probes)
Metric = Callable[["Evaluator", Any, Any, Optional[List[Any]]], Approx]


class EvalError(Exception):
    pass


def _cap(x: float) -> float:
    return min(x, 1.0)


def _scaler(r: Grade) -> Callable[[float], float]:
    """x -> min{r*x, 1}, with the conventions for r = 0 and r = inf."""
    if r == ZERO:
        return lambda x: 0.0
    if r.is_infinite:
        return lambda x: 0.0 if x == 0.0 else 1.0
    rf = float(r.rational)
    return lambda x: min(rf * x, 1.0)


# a side marker under an antitone map
_FLIPPED = {"upper": "lower", "lower": "upper"}


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
        self._analysed: Dict[T.Term, Run] = {}
        self._metrics: Dict[T.Type, Metric] = {}

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
                    try:
                        self.checker.elaborate(term, ty)
                        got, _ = self.checker.synthesize({}, term)
                    except TypeCheckError as e:
                        raise EvalError(f"samples for {ty}: term {src!r}: {e}") from None
                    if got != ty:
                        raise EvalError(f"samples for {ty}: term {src!r} has type {got}")
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
        return self.metric(ty)(self, v1, v2, probes)

    def metric(self, ty: T.Type) -> Metric:
        """The metric of ``ty`` as a closure ``(evaluator, v1, v2, probes)
        -> Approx``, built on first use and kept for the life of this
        evaluator."""
        m = self._metrics.get(ty)
        if m is None:
            m = self._metrics[ty] = self._build_metric(ty)
        return m

    def _build_metric(self, ty: T.Type) -> Metric:
        if isinstance(ty, (T.TNat, T.TAlpha, T.TUnit)):
            return lambda ev, v1, v2, probes: Approx(
                0.0 if _value_key(v1) == _value_key(v2) else 1.0
            )
        if isinstance(ty, T.TProp):
            return lambda ev, v1, v2, probes: Approx(
                abs(float(deref(v1)) - float(deref(v2)))
            )
        if isinstance(ty, (T.TProd, T.TTensor)):
            left, right = self.metric(ty.left), self.metric(ty.right)
            if isinstance(ty, T.TProd):
                combine = lambda a, b: Approx(
                    max(a.value, b.value), max(a.radius, b.radius), a.sided or b.sided
                )
            else:
                r, s = _scaler(ty.r), _scaler(ty.s)
                combine = lambda a, b: Approx(
                    _cap(r(a.value) + s(b.value)),
                    _cap(r(a.radius) + s(b.radius)),
                    a.sided or b.sided,
                )

            def pair(ev, v1, v2, probes):
                v1, v2 = deref(v1), deref(v2)
                return combine(
                    left(ev, v1[0], v2[0], probes), right(ev, v1[1], v2[1], probes)
                )

            return pair
        if isinstance(ty, T.TSum):
            left, right = self.metric(ty.left), self.metric(ty.right)

            def tagged(ev, v1, v2, probes):
                v1, v2 = deref(v1), deref(v2)
                if v1.index != v2.index:
                    return Approx(1.0)
                comp = left if v1.index == 1 else right
                return comp(ev, v1.value, v2.value, probes)

            return tagged
        if isinstance(ty, T.TDist):
            return self._dist_metric(ty.inner)
        if isinstance(ty, T.TLolli):
            codomain = self.metric(ty.right)

            def function(ev, v1, v2, probes):
                v1, v2 = deref(v1), deref(v2)
                if probes is None:
                    dom, exhaustive = ev._probes_for(ty.left)
                else:
                    dom, exhaustive = probes, False
                if dom is None:
                    raise EvalError(
                        f"distance at function type {ty} needs a probe set"
                    )
                worst = Approx(0.0)
                for p in dom:
                    ra = ev.apply(Approx(v1), Approx(p))
                    rb = ev.apply(Approx(v2), Approx(p))
                    d = codomain(ev, ra.value, rb.value, None)
                    d = d.widen(ra.radius + rb.radius)
                    if d.value > worst.value:
                        worst = d
                sided = None if exhaustive else "lower"
                return Approx(worst.value, worst.radius, sided or worst.sided)

            return function
        if isinstance(ty, T.TProc):
            return lambda ev, v1, v2, probes: behavioral_distance(
                ev, deref(v1), deref(v2), ty.c, ev.config.tol
            )
        return _raising(f"no metric for type {ty}")

    def _probes_for(self, ty: T.Type):
        structural = self.enumerate_type(ty)
        if structural is not None:
            return structural, True
        entry = self.config.enums.lookup(ty)
        if entry is not None:
            return self.quantifier_domain(ty)
        return None, False

    def _dist_metric(self, inner: T.Type) -> Metric:
        """Kantorovich distance, with residual mass at the bottom point
        of :func:`transport`; approximation residuals widen the radius.
        Under a discrete point metric it is the total variation, which
        is the same rational as the LP optimum."""
        if isinstance(inner, (T.TNat, T.TAlpha, T.TUnit)):

            def discrete(ev, v1, v2, probes):
                mu, nu = deref(v1), deref(v2)
                base = float(mu.residual_approx + nu.residual_approx)
                tv = total_variation(mu, nu, _value_key)
                return Approx(float(tv), _cap(base), None)

            return discrete
        point = self.metric(inner)

        def kantorovich(ev, v1, v2, probes):
            mu, nu = deref(v1), deref(v2)
            base = float(mu.residual_approx + nu.residual_approx)
            radius = base
            sided = None

            def point_distance(x, y) -> float:
                nonlocal radius, sided
                d = point(ev, x, y, probes)
                radius = max(radius, base + d.radius)
                sided = sided or d.sided
                return d.value

            cost, _ = transport(lift_relation(point_distance, "eq"), mu, nu)
            return Approx(float(cost), _cap(radius), sided)

        return kantorovich

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------

    def apply(self, fn: Approx, arg: Approx) -> Approx:
        f = deref(fn.value)
        if isinstance(f, VClosure):
            env = dict(f.env)
            env[f.param] = arg
            out = self.analyse(f.body)(self, env)
            return out.widen(fn.radius)
        if isinstance(f, VNative):
            return f.fn(arg).widen(fn.radius)
        raise EvalError(f"cannot apply non-function value {f!r}")

    # ------------------------------------------------------------------
    # evaluation: analyse a term once, run it per environment
    # ------------------------------------------------------------------
    #
    # A node's run is ``partial(_run_<class>, *fields)``, called as
    # ``run(evaluator, env)``: the node's dataclass fields in order, each
    # child term replaced by the child's run, so ``_run_<class>`` takes
    # parameters named as the fields.  A form whose run needs more than
    # its fields (a metric, a precomputed scaling, the term itself) has
    # an ``_analyse_<class>`` instead.  A run holds no evaluator: the
    # evaluator's dict of runs is no reference cycle, so a dropped
    # evaluator and its analysis are freed at once.

    def eval(self, env: Env, t: T.Term) -> Approx:
        return self.analyse(t)(self, env)

    def analyse(self, t: T.Term) -> Run:
        """The run ``(evaluator, env) -> Approx`` that evaluates ``t``,
        built on its first use and kept for the life of this evaluator.
        Annotations are read here, so ``t`` must be typechecked before
        its first evaluation."""
        run = self._analysed.get(t)
        if run is None:
            form = type(t).__name__
            build = getattr(self, "_analyse_" + form, None)
            if build is not None:
                run = build(t)
            elif hasattr(self, "_run_" + form):
                run = partial(getattr(self, "_run_" + form), *[
                    self.analyse(v) if isinstance(v, T.Term) else v
                    for v in (getattr(t, f.name) for f in fields(t))
                ])
            else:
                raise EvalError(f"cannot evaluate {form}")
            self._analysed[t] = run
        return run

    @staticmethod
    def _run_Var(name, ev, env) -> Approx:
        try:
            return env[name]
        except KeyError:
            if ev.checker._alphabet_of_label(name) is not None:
                return Approx(name)
            raise EvalError(f"unbound variable {name}") from None

    @staticmethod
    def _run_Label(name, alphabet, ev, env) -> Approx:
        return Approx(name)

    @staticmethod
    def _run_Unit(ev, env) -> Approx:
        return Approx(UNIT)

    @staticmethod
    def _run_Zero(ev, env) -> Approx:
        return Approx(0)

    @staticmethod
    def _run_TT(ev, env) -> Approx:
        return Approx(0.0)

    @staticmethod
    def _run_FF(ev, env) -> Approx:
        return Approx(1.0)

    def _analyse_Lam(self, t: T.Lam) -> Run:
        self.analyse(t.body)  # run by apply
        return partial(self._run_Lam, t)

    @staticmethod
    def _run_Lam(t, ev, env) -> Approx:
        return Approx(VClosure(t.name, t.grade, t.body, dict(env)))

    @staticmethod
    def _run_App(fn, arg, ev, env) -> Approx:
        return ev.apply(fn(ev, env), arg(ev, env))

    @staticmethod
    def _run_Pair(left, right, ev, env) -> Approx:
        a = left(ev, env)
        b = right(ev, env)
        return Approx((a.value, b.value), max(a.radius, b.radius), a.sided or b.sided)

    @staticmethod
    def _run_Proj(index, body, ev, env) -> Approx:
        out = body(ev, env)
        v = out.value
        if isinstance(v, VRef):
            return Approx(v.project(index), out.radius, out.sided)
        if not isinstance(v, tuple):
            raise EvalError(f"projection from non-pair {v!r}")
        return Approx(v[index - 1], out.radius, out.sided)

    @staticmethod
    def _run_Inj(index, body, sum_type, ev, env) -> Approx:
        out = body(ev, env)
        return Approx(VInj(index, out.value), out.radius, out.sided)

    @staticmethod
    def _run_Case(scrut, left_name, left_body, right_name, right_body, ev, env):
        s = scrut(ev, env)
        v = deref(s.value)
        if not isinstance(v, VInj):
            raise EvalError(f"case on non-sum value {v!r}")
        # a radius below 1 certifies the tag (branches sit at distance
        # 1); otherwise all information is lost and the chosen branch's
        # value is returned at the top radius
        env2 = dict(env)
        if v.index == 1:
            env2[left_name] = Approx(v.value, s.radius)
            out = left_body(ev, env2)
        else:
            env2[right_name] = Approx(v.value, s.radius)
            out = right_body(ev, env2)
        if s.radius >= 1.0:
            return Approx(out.value, 1.0, out.sided)
        return out

    def _analyse_TensorPair(self, t: T.TensorPair) -> Run:
        return partial(
            self._run_TensorPair, self.analyse(t.left), self.analyse(t.right),
            _scaler(t.r if t.r is not None else ONE),
            _scaler(t.s if t.s is not None else ONE),
        )

    @staticmethod
    def _run_TensorPair(left, right, r, s, ev, env) -> Approx:
        a = left(ev, env)
        b = right(ev, env)
        return Approx(
            (a.value, b.value), _cap(r(a.radius) + s(b.radius)), a.sided or b.sided
        )

    @staticmethod
    def _run_LetTensor(left_name, right_name, bound, body, ev, env) -> Approx:
        b = bound(ev, env)
        v = deref(b.value)
        if not isinstance(v, tuple):
            raise EvalError(f"tensor let on non-pair {v!r}")
        env2 = dict(env)
        env2[left_name] = Approx(v[0], b.radius)
        env2[right_name] = Approx(v[1], b.radius)
        return body(ev, env2)

    @staticmethod
    def _run_DiracTerm(body, ev, env) -> Approx:
        out = body(ev, env)
        return Approx(dirac(out.value), out.radius, out.sided)

    @staticmethod
    def _run_Mix(p, left, right, ev, env) -> Approx:
        a = left(ev, env)
        b = right(ev, env)
        pf = float(p)
        return ev._combine_branches(
            [(a.value, p), (b.value, 1 - p)],
            _cap(pf * a.radius + (1 - pf) * b.radius),
            a.sided or b.sided,
        )

    def _analyse_LetSample(self, t: T.LetSample) -> Run:
        return partial(
            self._run_LetSample, t, self.analyse(t.bound), self.analyse(t.body),
            _scaler(t.bind_grade if t.bind_grade is not None else ONE),
        )

    @staticmethod
    def _run_LetSample(t, bound, body, scaled, ev, env) -> Approx:
        b = bound(ev, env)
        mu = deref(b.value)
        if not isinstance(mu, Dist):
            raise EvalError(f"sampling from non-distribution {mu!r}")
        branch: List[Tuple[Any, Fraction]] = []
        worst_inner = 0.0
        sided = b.sided
        for v, w in mu.points:
            env2 = dict(env)
            env2[t.name] = Approx(v)
            out = body(ev, env2)
            worst_inner = max(worst_inner, out.radius)
            sided = sided or out.sided
            branch.append((out.value, w))
        radius = _cap(worst_inner + scaled(b.radius))
        if not branch and not isinstance(t.body_type, T.TDist):
            if t.body_type is None:
                raise EvalError("sampling lacks its body type annotation")
            # a point-free mu (residual 1) pins no value of the body's
            # type: any inhabitant is within the 1-bounded metric
            return Approx(ev.canonical_seed(t.body_type), 1.0, sided)
        return ev._combine_branches(
            branch, radius, sided, mu.residual_div, mu.residual_approx
        )

    @staticmethod
    def _run_Succ(body, ev, env) -> Approx:
        out = body(ev, env)
        return Approx(deref(out.value) + 1, out.radius, out.sided)

    @staticmethod
    def _run_NatRec(zero_case, prev_name, index_name, succ_case, scrut, ev, env):
        n = deref(scrut(ev, env).value)
        acc = zero_case(ev, env)
        for k in range(int(n)):
            env2 = dict(env)
            env2[prev_name] = acc
            env2[index_name] = Approx(k)
            acc = succ_case(ev, env2)
        return acc

    @staticmethod
    def _run_Fld(label, step, ev, env) -> Approx:
        lab = label(ev, env)
        st = step(ev, env)
        node = VProc(deref(lab.value), deref(st.value))
        return Approx(node, _cap(lab.radius + st.radius), lab.sided or st.sided)

    @staticmethod
    def _run_Ufld(body, ev, env) -> Approx:
        out = body(ev, env)
        node = deref(out.value)
        if not isinstance(node, VProc):
            raise EvalError(f"unfolding non-process {node!r}")
        return Approx((node.label, node.step), out.radius, out.sided)

    # -- predicates --------------------------------------------------------

    def _analyse_Eq(self, t: T.Eq) -> Run:
        if t.at_type is None:
            metric = _raising("equality lacks its type annotation")
        else:
            metric = self.metric(t.at_type)
        return partial(
            self._run_Eq, self.analyse(t.left), self.analyse(t.right), metric
        )

    @staticmethod
    def _run_Eq(left, right, metric, ev, env) -> Approx:
        a = left(ev, env)
        b = right(ev, env)
        return metric(ev, a.value, b.value, None).widen(a.radius + b.radius)

    @staticmethod
    def _run_Star(left, right, ev, env) -> Approx:
        a = left(ev, env)
        b = right(ev, env)
        return Approx(
            oplus(float(a.value), float(b.value)),
            _cap(a.radius + b.radius),
            a.sided or b.sided,
        )

    @staticmethod
    def _run_WandT(left, right, ev, env) -> Approx:
        a = left(ev, env)
        b = right(ev, env)
        sided = a.sided or b.sided
        if a.sided == "upper":  # antitone position flips the side
            sided = "lower" if b.sided in (None, "lower") else sided
        return Approx(
            wand(float(a.value), float(b.value)), _cap(a.radius + b.radius), sided
        )

    def _analyse_Scale(self, t: T.Scale) -> Run:
        scaled = _scaler(t.r)
        # scale_prop rejects a zero grade; otherwise it is ``scaled``
        value = scaled if t.r != ZERO else partial(scale_prop, t.r)
        return partial(self._run_Scale, value, scaled, self.analyse(t.body))

    @staticmethod
    def _run_Scale(value, scaled, body, ev, env) -> Approx:
        out = body(ev, env)
        return Approx(value(float(out.value)), scaled(out.radius), out.sided)

    @staticmethod
    def _run_Neg(body, ev, env) -> Approx:
        out = body(ev, env)
        sided = _FLIPPED.get(out.sided, out.sided)
        return Approx(1.0 - float(out.value), out.radius, sided)

    @staticmethod
    def _run_Conj(left, right, ev, env) -> Approx:
        a = left(ev, env)
        b = right(ev, env)
        return Approx(
            max(float(a.value), float(b.value)),
            max(a.radius, b.radius),
            a.sided or b.sided,
        )

    @staticmethod
    def _run_Disj(left, right, ev, env) -> Approx:
        a = left(ev, env)
        b = right(ev, env)
        return Approx(
            min(float(a.value), float(b.value)),
            max(a.radius, b.radius),
            a.sided or b.sided,
        )

    def _analyse_Exists(self, t: T.Exists) -> Run:
        quantifier = self._quantifier(t, want_inf=True)
        coupling = self._coupling_exists(t)
        if coupling is None:
            return quantifier
        return partial(self._run_Exists, coupling, quantifier)

    @staticmethod
    def _run_Exists(coupling, quantifier, ev, env) -> Approx:
        special = coupling(ev, env)
        return quantifier(ev, env) if special is None else special

    def _analyse_Forall(self, t: T.Forall) -> Run:
        return self._quantifier(t, want_inf=False)

    # -- helpers ---------------------------------------------------------

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

    def _quantifier(self, t, want_inf: bool) -> Run:
        return partial(
            self._run_quantifier, self.analyse(t.body), t.name, t.var_type, want_inf
        )

    @staticmethod
    def _run_quantifier(body, name, var_type, want_inf, ev, env) -> Approx:
        domain, exhaustive = ev.quantifier_domain(var_type)
        if not domain:
            raise EvalError(f"empty quantifier domain for {var_type}")
        best = None
        worst_rad = 0.0
        sided = None
        for v in domain:
            env2 = dict(env)
            env2[name] = Approx(v)
            out = body(ev, env2)
            worst_rad = max(worst_rad, out.radius)
            sided = sided or out.sided
            x = float(out.value)
            if best is None or (x < best if want_inf else x > best):
                best = x
        if not exhaustive:
            sided = "upper" if want_inf else "lower"
        return Approx(best, worst_rad, sided)

    # -- coupling special case ----------------------------------------------

    def _coupling_exists(self, t: T.Exists) -> Optional[Run]:
        """Exact LP value for goals of the shape

            exists w : Dist (A *[1,1] B).
              (let z = w in R(z)) * (map fst w == mu) * (map snd w == nu)

        The infimum over all joints is attained at exact couplings
        because the cost is 1-bounded, so the transport optimum is the
        exact truth value.  Returns None for other goals, and its closure
        returns None when the marginals are not distributions.
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
        return partial(
            self._run_coupling, *[self.analyse(marginals[i]) for i in (1, 2)],
            self.analyse(mean_term.body), mean_term.name,
        )

    @staticmethod
    def _run_coupling(mu_run, nu_run, mean_run, mean_name, ev, env) -> Optional[Approx]:
        mu_a = mu_run(ev, env)
        nu_a = nu_run(ev, env)
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
            env2[mean_name] = Approx((x, y))
            out = mean_run(ev, env2)
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

    def _analyse_Fix(self, t: T.Fix) -> Run:
        if t.fix_type is None or t.contraction is None:
            return _raising("fixed point must be typechecked before evaluation")
        ty = t.fix_type
        p = t.contraction
        if not p < ONE:
            return _raising(f"fixed point grade {p} is not below 1")
        body = self.analyse(t.body)
        if isinstance(ty, T.TDist):
            return partial(self._run_fix_subdist, t.name, body)
        if self._contains(ty, (T.TLolli, T.TProc)):
            # productive process definitions unfold exactly on demand
            exact = isinstance(ty, T.TProc) or (
                isinstance(ty, (T.TProd, T.TTensor))
                and not self._contains(ty, T.TLolli)
            )
            pf = float(p) if p != ZERO and not exact else 0.0
            return partial(self._run_fix_lazy, t.name, ty, pf, body)
        return partial(
            self._run_fix_banach, t.name, ty, float(p), self.metric(ty), body
        )

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

    @staticmethod
    def _run_fix_subdist(name, body, ev, env) -> Approx:
        """Ascending iteration on subdistributions from the empty one.

        Residual mass decays by the recursion grade per unfolding and
        is the certified distance to the true fixed point.
        """
        current = empty_subdist()
        inner = 0.0
        tol = ev.config.tol
        for _ in range(max(1, ev.config.fuel)):
            env2 = dict(env)
            env2[name] = Approx(current)
            out = body(ev, env2)
            nxt = deref(out.value)
            if not isinstance(nxt, Dist):
                raise EvalError("distribution fixed point produced a non-distribution")
            inner = out.radius
            current = nxt
            if float(current.residual_approx) <= tol:
                break
        return Approx(current, _cap(float(current.residual_approx) + inner))

    @staticmethod
    def _run_fix_banach(name, ty, pf, metric, body, ev, env) -> Approx:
        x = ev.canonical_seed(ty)
        inner = 0.0
        d_last = 1.0
        for _ in range(max(1, ev.config.fuel)):
            env2 = dict(env)
            env2[name] = Approx(x)
            out = body(ev, env2)
            nxt = out.value
            inner = out.radius
            d_last = metric(ev, x, nxt, None).value
            x = nxt
            if pf == 0.0 or d_last * pf / (1.0 - pf) <= ev.config.tol:
                break
        radius = 0.0 if pf == 0.0 else _cap(pf * d_last / (1.0 - pf))
        return Approx(x, _cap(radius + inner))

    @staticmethod
    def _run_fix_lazy(name, ty, pf, body, ev, env) -> Approx:
        """A thunk that unfolds on demand; radius ``pf^fuel`` past the cap
        (``pf`` is 0 for an exact, productive definition)."""

        def make_body(thunk: VThunk) -> Approx:
            env2 = dict(env)
            env2[name] = Approx(VRef(thunk, ()))
            return body(ev, env2)

        thunk = VThunk(
            make_body=make_body,
            fix_type=ty,
            max_unfolds=max(1, ev.config.fuel),
            fallback=ev.canonical_seed,
        )
        radius = pf ** ev.config.fuel if pf > 0 else 0.0
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


def _value_key(v: Any) -> Any:
    """The key under which the discrete metric compares two values."""
    return key_of(deref(v) if isinstance(v, VRef) else v)


def _raising(message: str) -> Callable[..., Any]:
    """A closure that raises ``EvalError(message)`` when it is run."""

    def run(*_args):
        raise EvalError(message)

    return run
