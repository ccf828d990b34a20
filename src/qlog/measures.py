"""Finite-support (sub)distributions, couplings and optimal transport.

A :class:`Dist` is a finite weighted multiset of values in canonical
form (duplicates merged, deterministic order) plus an explicit residual
mass.  Residual mass not assigned to any support point models either

* genuine divergence (the bottom element of subdistributions), or
* truncation left over from approximating an infinite-support fixed
  point to finite depth.

The two are tracked separately because they enter error accounting
differently: approximation residual widens certified error radii,
divergence residual is part of the semantics.

Weights are exact ``Fraction``s so that canonical forms, convex
combinations and the transport LP below are exact.

Bottom rule.  :func:`transport` is the one entry point to the LP.  When
either side has residual mass, ``_with_bottom`` adjoins :data:`BOTTOM`
to both sides, each carrying that side's residual (a zero-mass row or
column carries no flow); the costs of ``BOTTOM`` come from
:func:`lift_relation`.  :func:`total_variation` reads the same points,
so on subdistributions it is the LP's optimum under the discrete
metric.

Support order.  :meth:`Dist.from_pairs` is the one constructor: it
merges points with equal :func:`key_of` keys, checks every weight and
both residuals for sign and the total for mass 1, and sorts the merged
points by the string ``key_token(key_of(v))`` of their first-seen
value, ties kept in first-seen order.  The mass check is one int sum
over the running lcm of the denominators, ``_int_sum``, which
:attr:`Dist.mass` shares.  One point of weight 1 with zero residuals,
as every :func:`dirac` and every deterministic ``imp`` step builds,
returns before the merge.  :meth:`Dist.mix` is the one weighted
mixture of distributions; :func:`convex` goes through it, and so do
the evaluator's `(+ p)` and let-sample at distribution type.  The sort is
the one helper ``_sort_support``.  A merged support of fewer than 2
points has one order and builds no token.  ``_order_token`` builds a
value's token from the value in one plain recursion, without building
its key and without a memo.  The token spells the key
structurally: a tuple is ``"("`` + its components' tokens joined by
``","`` + ``")"``, a non-bool int is zero-padded to 24 places,
anything else is its ``repr``.  A value with a ``sort_token()``
method hands over that token itself: :class:`qlog.imp.Store` builds
it from its layout's per-location heads and ``key_token`` of each
value.  Floats sort by their ``repr`` (``0.5`` before ``10.0`` before
``1e-05`` before ``2.0``), not numerically.  No float depends on that
order: a mean or cost over a support is :func:`expectation`, the exact
sum rounded once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, Iterable, List, Tuple, Union

from .grades import Grade
from .transport import brute_force_transport, solve_transport

WeightLike = Union[Fraction, int, float, str]

_ZERO = Fraction(0)


def _as_weight(w: WeightLike) -> Fraction:
    # a float converts to its exact binary expansion
    return w if isinstance(w, Fraction) else Fraction(w)


# ---------------------------------------------------------------------------
# Canonical keys: semantic-value equality for support merging
# ---------------------------------------------------------------------------


def key_of(v: Any) -> Any:
    """Hashable canonical key for a support value.

    First-order values get structural keys.  Values without a
    decidable equality (closures, process nodes) fall back to object
    identity; distributions over such values are therefore not merged,
    a documented limitation.
    """
    t = type(v)
    if t is float:
        return ("float", v)
    if t is tuple:
        # float elements inline: value tuples are mostly floats
        return (
            "tuple", *[("float", x) if type(x) is float else key_of(x) for x in v]
        )
    if t is int:
        return ("int", v)
    if t is str:
        return ("str", v)
    if t is bool:
        return ("bool", v)
    m = getattr(v, "dist_key", None)
    if m is not None:
        return m()
    if isinstance(v, bool):
        return ("bool", v)
    if isinstance(v, int):
        return ("int", v)
    if isinstance(v, float):
        return ("float", v)
    if isinstance(v, str):
        return ("str", v)
    if isinstance(v, tuple):
        return ("tuple",) + tuple(key_of(x) for x in v)
    if v is None:
        return ("none",)
    return ("id", id(v))


def key_token(key: Any) -> str:
    """The sort string of a :func:`key_of` key; ints zero-padded, so numeric."""
    t = type(key)
    if t is tuple:
        return "(" + ",".join([key_token(k) for k in key]) + ")"
    if t is int:
        return f"{key:024d}"
    if t is str:
        return repr(key)
    if isinstance(key, tuple):
        return "(" + ",".join(key_token(k) for k in key) + ")"
    if isinstance(key, int) and not isinstance(key, bool):
        return f"{key:024d}"
    return repr(key)


def _order_token(v: Any) -> str:
    """``key_token(key_of(v))``, built from ``v`` in one recursion."""
    t = type(v)
    if t is float:
        return "('float'," + repr(v) + ")"
    if t is tuple:
        return "(" + ",".join(["'tuple'", *[_order_token(x) for x in v]]) + ")"
    if t is int:
        return f"('int',{v:024d})"
    if t is str or t is bool:
        return "('" + t.__name__ + "'," + repr(v) + ")"
    m = getattr(v, "sort_token", None)
    if m is not None:
        return m()
    return key_token(key_of(v))


def _sort_support(points: List[Any]) -> None:
    """Sort merged ``(value, weight)`` points into support order, in
    place: by the token of each value, ties in their given order."""
    if len(points) > 1:
        points.sort(key=lambda p: _order_token(p[0]))


def _int_sum(weights: Iterable[Fraction]) -> Tuple[int, int]:
    """Exact sum as (numerator, denominator) ints over the running lcm
    of the denominators, not reduced: the sum is 1 when they are equal."""
    num, den = 0, 1
    for w in weights:
        d = w.denominator
        if den % d:
            common = math.lcm(den, d)
            num *= common // den
            den = common
        num += w.numerator * (den // d)
    return num, den


def expectation(pairs: Iterable[Tuple[Any, Any]], den: int = 1) -> float:
    """The float nearest the exact sum of w * x / den over ``(x, w)``
    pairs (w an int or a ``Fraction``, x made a float): one int
    over lcm(weight denominators) * den * 2**shift, in any order,
    rounded once by int true division."""
    num, scale, shift = 0, 1, 0
    for x, w in pairs:
        if type(x) is not float:
            x = float(x)
        n, p = x.as_integer_ratio()
        k = p.bit_length() - 1
        if type(w) is not int:
            d = w.denominator
            if scale % d:
                common = math.lcm(scale, d)
                num *= common // scale
                scale = common
            w = w.numerator * (scale // d)
        if k > shift:
            num <<= k - shift
            shift = k
        num += w * n << (shift - k)
    return num / (scale * den << shift)


@dataclass(frozen=True)
class Dist:
    """Canonical finite-support (sub)probability distribution."""

    points: Tuple[Tuple[Any, Fraction], ...]
    residual_div: Fraction = Fraction(0)
    residual_approx: Fraction = Fraction(0)

    # -- constructors --------------------------------------------------

    @staticmethod
    def from_pairs(
        pairs: Iterable[Tuple[Any, WeightLike]],
        residual_div: WeightLike = 0,
        residual_approx: WeightLike = 0,
    ) -> "Dist":
        if type(pairs) is not list:
            pairs = list(pairs)
        if len(pairs) == 1 and not residual_div and not residual_approx:
            # one point of weight 1: every deterministic step lands here
            v, w = pairs[0]
            if type(w) is not Fraction:
                w = _as_weight(w)
            if w == 1:
                return Dist(((v, w),), _ZERO, _ZERO)
        merged: Dict[Any, List[Any]] = {}
        for v, w in pairs:
            if type(w) is not Fraction:
                w = _as_weight(w)
            if w.numerator <= 0:
                if w.numerator < 0:
                    raise ValueError(f"negative weight {w}")
                continue
            k = key_of(v)
            entry = merged.get(k)
            if entry is None:
                merged[k] = [v, w]
            else:
                entry[1] += w
        entries = list(merged.values())
        _sort_support(entries)
        pts = tuple([(v, w) for v, w in entries])
        rdiv, rapp = _as_weight(residual_div), _as_weight(residual_approx)
        if rdiv.numerator < 0:
            raise ValueError(f"negative residual_div {rdiv}")
        if rapp.numerator < 0:
            raise ValueError(f"negative residual_approx {rapp}")
        num, den = _int_sum(itertools.chain((rdiv, rapp), [w for _, w in pts]))
        if num != den:
            raise ValueError(f"total mass {Fraction(num, den)} != 1")
        return Dist(pts, rdiv, rapp)

    @staticmethod
    def mix(
        parts: Iterable[Tuple["Dist", Fraction]],
        residual_div: WeightLike = 0,
        residual_approx: WeightLike = 0,
    ) -> "Dist":
        """The sum of w * d over the ``(d, w)`` parts, with the given
        residuals added to the parts' weighted residuals."""
        pairs: List[Tuple[Any, Fraction]] = []
        for d, w in parts:
            pairs.extend([(v, w * q) for v, q in d.points])
            residual_div += w * d.residual_div
            residual_approx += w * d.residual_approx
        return Dist.from_pairs(pairs, residual_div, residual_approx)

    # -- basic views ---------------------------------------------------

    @property
    def mass(self) -> Fraction:
        return Fraction(*_int_sum([w for _, w in self.points]))

    @property
    def residual(self) -> Fraction:
        return self.residual_div + self.residual_approx

    def support(self) -> List[Any]:
        return [v for v, _ in self.points]

    def weight(self, v: Any) -> Fraction:
        """Mass at v by a linear scan; kept as public API that tests read
        and the benchmark's prp workload description names."""
        k = key_of(v)
        for u, w in self.points:
            if key_of(u) == k:
                return w
        return Fraction(0)

    def dist_key(self) -> Any:
        return (
            tuple((key_of(v), w) for v, w in self.points),
            self.residual_div,
            self.residual_approx,
        )

    def __str__(self) -> str:
        parts = [f"{v}:{w}" for v, w in self.points]
        if self.residual:
            parts.append(f"residual:{self.residual}")
        return "{" + ", ".join(parts) + "}"


def dirac(v: Any) -> Dist:
    """Single-point distribution."""
    return Dist.from_pairs([(v, Fraction(1))])


def empty_subdist(divergent: bool = False) -> Dist:
    """All mass residual: bottom of the subdistribution order."""
    if divergent:
        return Dist.from_pairs([], residual_div=1)
    return Dist.from_pairs([], residual_approx=1)


def convex(p: Union[Grade, Fraction, WeightLike], mu: Dist, nu: Dist) -> Dist:
    """Pointwise convex combination p*mu + (1-p)*nu, canonicalised.

    Satisfies the barycentric-algebra laws (idempotence, commutativity
    with 1-p, the skewed associativity) exactly on canonical forms.
    """
    if isinstance(p, Grade):
        if p.is_infinite:
            raise ValueError("mixing weight must be finite")
        p = p.rational
    else:
        p = _as_weight(p)
    if not (0 < p < 1):
        raise ValueError(f"mixing weight must lie in (0,1), got {p}")
    return Dist.mix([(mu, p), (nu, 1 - p)])


def pushforward(f: Callable[[Any], Any], mu: Dist) -> Dist:
    """Image distribution along f, collisions merged."""
    return Dist.from_pairs(
        [(f(v), w) for v, w in mu.points],
        residual_div=mu.residual_div,
        residual_approx=mu.residual_approx,
    )


# ---------------------------------------------------------------------------
# Couplings and the Kantorovich distance
# ---------------------------------------------------------------------------

# Adjoined to both sides of a transport problem that has residual mass.
BOTTOM = ("_bottom",)


@dataclass(frozen=True)
class Coupling:
    """Joint distribution over pairs.

    :meth:`left` and :meth:`right` push the joint forward to a marginal
    afresh on every call; nothing is cached.
    """

    joint: Dist  # support values are 2-tuples (x, y)

    def left(self) -> Dist:
        return pushforward(lambda p: p[0], self.joint)

    def right(self) -> Dist:
        return pushforward(lambda p: p[1], self.joint)

    def cost(self, metric: Callable[[Any, Any], float]) -> float:
        return expectation([(metric(x, y), w) for (x, y), w in self.joint.points])


def lift_relation(post: Callable[[Any, Any], float], mode: str) -> Callable:
    """Extend a relation on points to points plus :data:`BOTTOM`.

    mode "eq":  (bot, bot) costs 0, a one-sided bottom costs 1;
    mode "leq": (bot, _) costs 0, (x, bot) costs 1.
    """
    if mode not in ("eq", "leq"):
        raise ValueError(f"unknown lifting mode {mode!r}")

    def lifted(x, y) -> float:
        xb = x is BOTTOM
        yb = y is BOTTOM
        if xb and yb:
            return 0.0
        if mode == "eq":
            if xb or yb:
                return 1.0
            return float(post(x, y))
        if xb:
            return 0.0
        if yb:
            return 1.0
        return float(post(x, y))

    return lifted


def _with_bottom(
    mu: Dist, nu: Dist
) -> Tuple[List[Tuple[Any, Fraction]], List[Tuple[Any, Fraction]]]:
    """The points of mu and nu; if either side has residual mass,
    :data:`BOTTOM` is adjoined to both, each carrying that side's
    residual."""
    xs, ys = list(mu.points), list(nu.points)
    if mu.residual_div or mu.residual_approx or nu.residual_div or nu.residual_approx:
        xs.append((BOTTOM, mu.residual_div + mu.residual_approx))
        ys.append((BOTTOM, nu.residual_div + nu.residual_approx))
    return xs, ys


def transport(
    cost: Callable[[Any, Any], Any], mu: Dist, nu: Dist
) -> Tuple[Fraction, List[Tuple[Tuple[Any, Any], Fraction]]]:
    """Exact optimal transport between two (sub)distributions.

    The points come from :func:`_with_bottom`.  ``cost`` is called row
    by row, ``BOTTOM`` last, and its values go to the solver as they
    are.  Returns the exact optimum and the plan as ``((x, y), mass)``
    pairs in the solver's flow order.
    """
    xs, ys = _with_bottom(mu, nu)
    costs = [[cost(x, y) for y, _ in ys] for x, _ in xs]
    opt, flow = solve_transport([w for _, w in xs], [w for _, w in ys], costs)
    return opt, [((xs[i][0], ys[j][0]), q) for (i, j), q in flow.items()]


def _require_full(mu: Dist, nu: Dist) -> None:
    if mu.residual_div or mu.residual_approx or nu.residual_div or nu.residual_approx:
        raise ValueError("needs full distributions; transport adjoins BOTTOM")


def kantorovich(metric: Callable[[Any, Any], float], mu: Dist, nu: Dist) -> float:
    """Least expected point distance over all couplings of mu and nu.

    ``metric`` must be 1-bounded on the union of the supports.  Its
    values go to the exact solver unconverted (every metric in qlog
    returns a float), so only the returned optimum is rounded.
    """
    _require_full(mu, nu)
    opt, _ = transport(metric, mu, nu)
    return float(opt)


def optimal_coupling(
    metric: Callable[[Any, Any], float], mu: Dist, nu: Dist
) -> Coupling:
    """A coupling witnessing the Kantorovich optimum."""
    _require_full(mu, nu)
    _, plan = transport(metric, mu, nu)
    return Coupling(Dist.from_pairs(plan))


def kantorovich_oracle(
    cost: Callable[[Any, Any], Fraction], mu: Dist, nu: Dist
) -> Fraction:
    """Vertex-enumeration oracle for the same optimum (small instances)."""
    _require_full(mu, nu)
    xs, ys = mu.points, nu.points
    supplies = [w for _, w in xs]
    demands = [w for _, w in ys]
    matrix = [[Fraction(cost(x, y)) for y, _ in ys] for x, _ in xs]
    opt, _ = brute_force_transport(supplies, demands, matrix)
    return opt


def total_variation(
    mu: Dist, nu: Dist, key: Callable[[Any], Any] = key_of
) -> Fraction:
    """Exact total-variation distance: half the sum over keys of
    ``|mu(k) - nu(k)|``, points grouped by ``key``.

    Residual mass sits at the :data:`BOTTOM` point of
    :func:`_with_bottom`, so on subdistributions this is the
    Kantorovich distance of :func:`transport` under the discrete metric
    lifted by ``lift_relation(_, "eq")``: (bot, bot) costs 0 and a
    one-sided bottom costs 1.  The transport tests check that identity
    exactly.
    """
    xs, ys = _with_bottom(mu, nu)
    # exact int masses over the lcm of the denominators
    den = math.lcm(*[w.denominator for _, w in xs], *[w.denominator for _, w in ys])
    diff: Dict[Any, int] = {}
    for pts, sign in ((xs, 1), (ys, -1)):
        for v, w in pts:
            k = BOTTOM if v is BOTTOM else key(v)
            diff[k] = diff.get(k, 0) + sign * w.numerator * (den // w.denominator)
    return Fraction(sum([abs(d) for d in diff.values()]), 2 * den)


# ---------------------------------------------------------------------------
# JSON serialisation
# ---------------------------------------------------------------------------


def dist_to_json(d: Dist, value_codec: Callable[[Any], Any] = lambda v: v) -> dict:
    out: dict = {
        "support": [
            {"v": value_codec(v), "w": float(w)} for v, w in d.points
        ],
        "residual": float(d.residual),
    }
    if d.residual_div:
        out["residual_divergent"] = float(d.residual_div)
    return out


def dist_from_json(obj: dict, value_codec: Callable[[Any], Any] = lambda v: v) -> Dist:
    pairs = [(value_codec(e["v"]), Fraction(e["w"])) for e in obj["support"]]
    residual = Fraction(obj.get("residual", 0))
    div = Fraction(obj.get("residual_divergent", 0))
    if div > residual:
        raise ValueError(f"residual_divergent {div} exceeds residual {residual}")
    return Dist.from_pairs(
        pairs, residual_div=div, residual_approx=residual - div
    )
