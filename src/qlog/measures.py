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
either side has residual mass it adjoins :data:`BOTTOM` to both sides,
each carrying that side's residual (a zero-mass row or column carries
no flow); the costs of ``BOTTOM`` come from :func:`lift_relation`.

Support order.  Points with equal :func:`key_of` keys are merged; the
merged points are sorted by the string ``_sort_token(key_of(v))`` of
their first-seen value, ties kept in first-seen order.  A merged
support of fewer than 2 points has one order and builds no token.  The
token spells the key structurally: a tuple is ``"("`` + its components'
tokens joined by ``","`` + ``")"``, a non-bool int is zero-padded to 24
places, anything else is its ``repr``.  Floats therefore sort by their
``repr`` (``0.5`` before ``10.0`` before ``1e-05`` before ``2.0``), not
numerically.  The order is part of the output: float sums over a
support (means, coupling costs) follow it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, Iterable, List, Tuple, Union

from .grades import Grade
from .transport import brute_force_transport, solve_transport

WeightLike = Union[Fraction, int, float, str]


def _as_weight(w: WeightLike) -> Fraction:
    if isinstance(w, Fraction):
        return w
    if isinstance(w, float):
        return Fraction(w)  # exact binary expansion
    return Fraction(w)


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


def _sort_token(key: Any) -> str:
    # zero-pad ints so support order is numeric, not lexicographic
    t = type(key)
    if t is tuple:
        return "(" + ",".join([_sort_token(k) for k in key]) + ")"
    if t is int:
        return f"{key:024d}"
    if t is str:
        return repr(key)
    if isinstance(key, tuple):
        return "(" + ",".join(_sort_token(k) for k in key) + ")"
    if isinstance(key, int) and not isinstance(key, bool):
        return f"{key:024d}"
    return repr(key)


def _order_token(v: Any, floats: Dict[float, str]) -> str:
    """``_sort_token(key_of(v))``, built from ``v`` in one recursion.

    ``floats`` memoises float tokens for one canonicalisation.  Zeros
    and NaNs stay out of it: ``0.0 == -0.0`` although their tokens
    differ, and a NaN equals nothing.
    """
    t = type(v)
    if t is float:
        s = floats.get(v)
        if s is None:
            s = "('float'," + repr(v) + ")"
            if v and v == v:
                floats[v] = s
        return s
    if t is tuple:
        if not v:
            return "('tuple')"
        parts = []
        for x in v:
            if type(x) is float:  # the branch above, inlined
                s = floats.get(x)
                if s is None:
                    s = "('float'," + repr(x) + ")"
                    if x and x == x:
                        floats[x] = s
            else:
                s = _order_token(x, floats)
            parts.append(s)
        return "('tuple'," + ",".join(parts) + ")"
    if t is int:
        return f"('int',{v:024d})"
    if t is str or t is bool:
        return "('" + t.__name__ + "'," + repr(v) + ")"
    return _sort_token(key_of(v))


def _exact_sum(weights: Iterable[Fraction]) -> Fraction:
    """Exact sum, accumulated as an integer over a common denominator."""
    num, den = 0, 1
    for w in weights:
        d = w.denominator
        if den % d:
            common = math.lcm(den, d)
            num *= common // den
            den = common
        num += w.numerator * (den // d)
    return Fraction(num, den)


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
        order = range(len(entries))
        if len(entries) > 1:
            floats: Dict[float, str] = {}
            tokens = [_order_token(v, floats) for v, _ in entries]
            order = sorted(order, key=tokens.__getitem__)
        pts = tuple([(entries[i][0], entries[i][1]) for i in order])
        d = Dist(pts, _as_weight(residual_div), _as_weight(residual_approx))
        total = d.mass + d.residual_div + d.residual_approx
        if total != 1:
            raise ValueError(f"total mass {total} != 1")
        return d

    # -- basic views ---------------------------------------------------

    @property
    def mass(self) -> Fraction:
        return _exact_sum(w for _, w in self.points)

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
        return Dist((), Fraction(1), Fraction(0))
    return Dist((), Fraction(0), Fraction(1))


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
    q = 1 - p
    pairs = [(v, w * p) for v, w in mu.points] + [(v, w * q) for v, w in nu.points]
    return Dist.from_pairs(
        pairs,
        residual_div=mu.residual_div * p + nu.residual_div * q,
        residual_approx=mu.residual_approx * p + nu.residual_approx * q,
    )


def pushforward(f: Callable[[Any], Any], mu: Dist) -> Dist:
    """Image distribution along f, collisions merged."""
    return Dist.from_pairs(
        [(f(v), w) for v, w in mu.points],
        residual_div=mu.residual_div,
        residual_approx=mu.residual_approx,
    )


def bind(mu: Dist, f: Callable[[Any], Any]) -> Any:
    """Homomorphic extension of f over the support of mu.

    The codomain must carry convex-mixture structure: distributions
    (monad bind), truth values in [0,1] (the mean, a truncated weighted
    sum that never actually truncates since weights sum to <= 1),
    or tuples of such, combined componentwise.
    """
    results = [(f(v), w) for v, w in mu.points]
    if not results:
        if mu.residual == 0:
            raise ValueError("cannot bind an empty distribution")
        return Dist((), mu.residual_div, mu.residual_approx)
    first = results[0][0]
    if isinstance(first, Dist):
        pairs: List[Tuple[Any, Fraction]] = []
        rdiv = mu.residual_div
        rapp = mu.residual_approx
        for d, w in results:
            pairs.extend((v, w * q) for v, q in d.points)
            rdiv += w * d.residual_div
            rapp += w * d.residual_approx
        return Dist.from_pairs(pairs, residual_div=rdiv, residual_approx=rapp)
    if isinstance(first, (int, float)):
        if mu.residual != 0:
            raise ValueError(
                "mean over a subdistribution needs explicit bottom handling"
            )
        return float(sum(float(w) * float(x) for x, w in results))
    if isinstance(first, tuple):
        if mu.residual != 0:
            raise ValueError("componentwise bind requires a full distribution")
        n = len(first)
        return tuple(
            bind(mu, lambda v, i=i: f(v)[i]) for i in range(n)
        )
    raise ValueError(f"codomain {type(first).__name__} is not a mixture algebra")


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
        return float(
            sum(float(w) * metric(x, y) for (x, y), w in self.joint.points)
        )


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


def transport(
    cost: Callable[[Any, Any], Any], mu: Dist, nu: Dist
) -> Tuple[Fraction, List[Tuple[Tuple[Any, Any], Fraction]]]:
    """Exact optimal transport between two (sub)distributions.

    If either side has residual mass, :data:`BOTTOM` is adjoined to both
    sides, each carrying that side's residual.  ``cost`` is called row
    by row, ``BOTTOM`` last, and its values go to the solver as they
    are.  Returns the exact optimum and the plan as ``((x, y), mass)``
    pairs in the solver's flow order.
    """
    xs = [v for v, _ in mu.points]
    ys = [v for v, _ in nu.points]
    supplies = [w for _, w in mu.points]
    demands = [w for _, w in nu.points]
    if mu.residual_div or mu.residual_approx or nu.residual_div or nu.residual_approx:
        xs.append(BOTTOM)
        ys.append(BOTTOM)
        supplies.append(mu.residual_div + mu.residual_approx)
        demands.append(nu.residual_div + nu.residual_approx)
    opt, flow = solve_transport(
        supplies, demands, [[cost(x, y) for y in ys] for x in xs]
    )
    return opt, [((xs[i], ys[j]), q) for (i, j), q in flow.items()]


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


def total_variation(mu: Dist, nu: Dist) -> Fraction:
    """Exact total-variation distance between full distributions.

    Coincides with the Kantorovich distance for the discrete metric;
    the transport tests exercise that identity.
    """
    if mu.residual != 0 or nu.residual != 0:
        raise ValueError("total variation needs full distributions")
    left: Dict[Any, Fraction] = {}
    for v, w in mu.points:
        left.setdefault(key_of(v), w)
    right: Dict[Any, Fraction] = {}
    for v, w in nu.points:
        right.setdefault(key_of(v), w)
    tv = sum(
        (abs(w - right.get(k, 0)) for k, w in left.items()), Fraction(0)
    )
    tv += sum((w for k, w in right.items() if k not in left), Fraction(0))
    return tv / 2


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
    return Dist.from_pairs(
        pairs, residual_div=div, residual_approx=residual - div
    )
