"""Distributions, couplings and the transport layer."""

import random
from fractions import Fraction as F

import pytest

from conftest import MU, let_sample, rand_dist
from qlog.evaluator import Evaluator
from qlog.measures import (
    BOTTOM,
    Coupling,
    Dist,
    convex,
    dirac,
    dist_from_json,
    dist_to_json,
    expectation,
    kantorovich,
    kantorovich_oracle,
    key_of,
    lift_relation,
    optimal_coupling,
    pushforward,
    total_variation,
    transport,
)
from qlog.measures import _as_weight, _order_token
from qlog.transport import TransportError, brute_force_transport, solve_transport

DISC = lambda a, b: 0.0 if a == b else 1.0

NU = Dist.from_pairs([(0, F(1, 4)), (1, F(3, 4))])


def test_dirac():
    d = dirac(3)
    assert d.points == ((3, F(1)),)
    assert kantorovich(DISC, dirac(7), dirac(7)) == 0.0
    assert kantorovich(DISC, dirac(7), dirac(8)) == 1.0


def test_convex_axioms():
    mu = rand_dist(random.Random(5))
    nu = rand_dist(random.Random(6))
    assert convex(F(1, 3), mu, mu) == mu  # idempotence
    assert convex(F(1, 3), mu, nu) == convex(F(2, 3), nu, mu)  # commutativity
    # skewed associativity
    rho = rand_dist(random.Random(7))
    p, q = F(1, 3), F(1, 2)
    lhs = convex(q, convex(p, mu, nu), rho)
    r = (q - p * q) / (1 - p * q)
    rhs = convex(p * q, mu, convex(r, nu, rho))
    assert lhs == rhs
    assert convex(F(1, 2), dirac(0), dirac(1)) == Dist.from_pairs(
        [(0, F(1, 2)), (1, F(1, 2))]
    )
    with pytest.raises(ValueError):
        convex(F(3, 2), mu, nu)


def test_pushforward():
    mu = Dist.from_pairs([(0, F(1, 4)), (1, F(1, 4)), (2, F(1, 2))])
    assert pushforward(lambda v: v, mu) == mu
    assert pushforward(lambda v: 9, mu) == dirac(9)
    assert pushforward(lambda v: v % 2, mu) == Dist.from_pairs(
        [(0, F(3, 4)), (1, F(1, 4))]
    )


def test_kantorovich_basics():
    assert kantorovich(DISC, MU, MU) == 0.0
    assert kantorovich(DISC, MU, NU) == pytest.approx(0.25)
    c = optimal_coupling(DISC, MU, NU)
    assert c.left() == MU and c.right() == NU
    assert c.cost(DISC) == pytest.approx(0.25)
    off_diag = sum(w for (x, y), w in c.joint.points if x != y)
    assert off_diag == F(1, 4)


def test_diagonal_coupling_on_equal_inputs():
    mu = rand_dist(random.Random(9))
    c = optimal_coupling(DISC, mu, mu)
    assert all(x == y for (x, y), _ in c.joint.points)
    assert c.cost(DISC) == 0.0


def test_kantorovich_metric_properties():
    rng = random.Random(10)
    metric = lambda a, b: abs(a - b) / 4.0  # 1-bounded on {0..4}
    for _ in range(60):
        a, b, c = (rand_dist(rng) for _ in range(3))
        dab = kantorovich(metric, a, b)
        dba = kantorovich(metric, b, a)
        assert dab == pytest.approx(dba, abs=1e-9)
        dac = kantorovich(metric, a, c)
        dcb = kantorovich(metric, c, b)
        assert dab <= dac + dcb + 3e-9


def test_convex_nonexpansive():
    rng = random.Random(11)
    for _ in range(60):
        a, b, a2, b2 = (rand_dist(rng) for _ in range(4))
        p = F(rng.randrange(1, 8), 8)
        lhs = kantorovich(DISC, convex(p, a, b), convex(p, a2, b2))
        rhs = float(p) * kantorovich(DISC, a, a2) + float(1 - p) * kantorovich(
            DISC, b, b2
        )
        assert lhs <= rhs + 1e-9


def test_convex_combination_of_couplings_cost():
    rng = random.Random(12)
    for _ in range(30):
        m1, m2, n1, n2 = (rand_dist(rng) for _ in range(4))
        p = F(rng.randrange(1, 8), 8)
        c1 = kantorovich(DISC, m1, n1)
        c2 = kantorovich(DISC, m2, n2)
        mixed = kantorovich(DISC, convex(p, m1, m2), convex(p, n1, n2))
        assert mixed <= float(p) * c1 + float(1 - p) * c2 + 1e-9


def test_lp_equals_vertex_enumeration_exactly():
    rng = random.Random(13)
    for _ in range(120):
        mu, nu = rand_dist(rng), rand_dist(rng)
        cost = lambda a, b: F(abs(a - b), 4)
        exact, plan = transport(cost, mu, nu)
        witness = Coupling(Dist.from_pairs(plan))
        oracle = kantorovich_oracle(cost, mu, nu)
        assert exact == oracle
        assert witness.left() == mu and witness.right() == nu


def test_total_variation_is_discrete_transport():
    """Exactly the LP optimum under the discrete metric, residual mass at
    BOTTOM lifted by "eq", on every combination of residual sides."""
    rng = random.Random(14)
    full = [(mu, rand_dist(rng)) for mu in (rand_dist(rng) for _ in range(60))]
    subdists = [(mu, nu) for _, mu, nu in _subdist_pairs(24, 300)]
    sides = {(mu.residual > 0, nu.residual > 0) for mu, nu in subdists}
    assert sides == {(False, False), (True, False), (False, True), (True, True)}
    for mu, nu in full + subdists:
        tv = total_variation(mu, nu)
        assert type(tv) is F
        assert tv == transport(lift_relation(DISC, "eq"), mu, nu)[0]


def test_unbalanced_rejected():
    with pytest.raises(TransportError):
        solve_transport([F(1)], [F(1, 2)], [[F(0)]])


def test_residual_bookkeeping():
    sub = Dist.from_pairs([(0, F(1, 2))], residual_approx=F(1, 2))
    assert sub.residual == F(1, 2)
    out = let_sample("let x = mu in delta(succ x)", mu=sub)
    assert out == Dist.from_pairs([(1, F(1, 2))], residual_approx=F(1, 2))
    mixed = convex(F(1, 2), sub, dirac(9))
    assert mixed.residual_approx == F(1, 4)


def test_json_round_trip():
    d = Dist.from_pairs([(0, F(1, 4)), (3, F(1, 2))], residual_div=F(1, 4))
    blob = dist_to_json(d)
    assert blob["residual"] == 0.25 and blob["residual_divergent"] == 0.25
    back = dist_from_json(blob)
    assert back.weight(0) == F(1, 4) and back.residual_div == F(1, 4)
    # a divergent part larger than the whole residual is rejected, even
    # though the masses still sum to 1
    blob["residual_divergent"] = 0.5
    with pytest.raises(
        ValueError, match=r"^residual_divergent 1/2 exceeds residual 1/4$"
    ):
        dist_from_json(blob)


# -- support order and merging ------------------------------------------------
#
# Reference: the support order as first defined, `key_token(key_of(v))`
# over the recursive `key_of`, copied here so the canonicalisation can be
# optimised without moving a single point.


def _ref_key(v):
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
        return ("tuple",) + tuple(_ref_key(x) for x in v)
    if v is None:
        return ("none",)
    return ("id", id(v))


def _ref_token(key):
    if isinstance(key, tuple):
        return "(" + ",".join(_ref_token(k) for k in key) + ")"
    if isinstance(key, int) and not isinstance(key, bool):
        return f"{key:024d}"
    return repr(key)


def _ref_points(values):
    """Merged points of equal weight in the reference order."""
    merged = {}
    for v in values:
        k = _ref_key(v)
        if k in merged:
            merged[k] = (merged[k][0], merged[k][1] + 1)
        else:
            merged[k] = (v, 1)
    keys = sorted(merged, key=_ref_token)
    return [(merged[k][0], F(merged[k][1], len(values))) for k in keys]


def _same_points(values):
    got = Dist.from_pairs([(v, F(1, len(values))) for v in values]).points
    want = _ref_points(values)
    # repr tells 0.0 from -0.0 and 1 from True, which == does not
    assert [(repr(v), w) for v, w in got] == [(repr(v), w) for v, w in want]


@pytest.mark.parametrize(
    "values",
    [
        [0.5, 1e-05, 10.0, 2.0, 0.25, 3e20, float("inf"), -1.5],
        [-5, -10, 3, 0, -1, 12, 100],
        [True, 1, False, 0, 1.0, "1", None],
        [(), (1,), ((),), (0.5, (1e-05, ())), (2.0, ()), ((1, 2), 3)],
        [0.0, (-0.0, 1), (-1.0, 1), (0.0, 1)],
        ["b", "a", "", "a,b", "ab"],
        [(0.0, -0.0), (-0.0, 0.0), (float("nan"), 5e-324), (float("-inf"), 1.0),
         (2.5e-310, -0.0, (float("inf"), -2.5e-310)), (0.0, -0.0)],
    ],
)
def test_support_order_matches_reference(values):
    _same_points(values)


def test_float_tuple_keys_and_tokens_match_reference():
    nan, inf = float("nan"), float("inf")
    atoms = [0.0, -0.0, nan, -nan, inf, -inf, 5e-324, -5e-324, 2.5e-310, 1.0, 0.5]
    values = [(x, y) for x in atoms for y in atoms]
    values += [(x, (y, (x,)), ()) for x, y in zip(atoms, reversed(atoms))]
    for v in values:
        # repr tells 0.0 from -0.0, which == does not
        assert repr(key_of(v)) == repr(_ref_key(v))
        assert _order_token(v) == _ref_token(_ref_key(v))


def test_store_support_order_matches_reference():
    from qlog.imp import Store

    stores = [
        Store.of({"x": x, ("a", 0): a, ("a", 1): 1 - a})
        for x in (3, -2, 10, 0)
        for a in (1, 0)
    ]
    _same_points(stores + [stores[0]])


def test_signed_zeros_merge():
    d = Dist.from_pairs([(0.0, F(1, 4)), (-0.0, F(1, 4)), ((0.0, -0.0), F(1, 2))])
    assert d.points == ((0.0, F(1, 2)), ((0.0, -0.0), F(1, 2)))
    assert repr(d.points[0][0]) == "0.0"
    d = Dist.from_pairs([((-0.0,), F(1, 2)), ((0.0,), F(1, 2))])
    assert len(d.points) == 1 and repr(d.points[0][0]) == "(-0.0,)"


def test_from_pairs_rejects_bad_mass():
    with pytest.raises(ValueError, match="negative weight -1/4"):
        Dist.from_pairs([(0, F(5, 4)), (1, F(-1, 4))])
    with pytest.raises(ValueError, match=r"total mass 5/6 != 1"):
        Dist.from_pairs([(0, F(1, 2)), (1, F(1, 3))])
    with pytest.raises(ValueError, match=r"total mass 3/2 != 1"):
        Dist.from_pairs([(0, F(1, 2))], residual_div=F(1, 2), residual_approx=0.5)
    with pytest.raises(ValueError, match=r"total mass 0 != 1"):
        Dist.from_pairs([(0, 0)])
    assert Dist.from_pairs([(0, 0), (1, 1)]) == dirac(1)
    # residuals are non-negative, even when the total is 1
    with pytest.raises(ValueError, match=r"^negative residual_div -1/2$"):
        Dist.from_pairs([(0, F(3, 2))], residual_div=F(-1, 2))
    with pytest.raises(ValueError, match=r"^negative residual_approx -1/2$"):
        Dist.from_pairs([(0, 1)], residual_div=F(1, 2), residual_approx=-0.5)
    with pytest.raises(ValueError, match=r"^negative residual_div -1$"):
        Dist.from_pairs([], residual_div=-1, residual_approx=2)


def test_from_pairs_small_supports_keep_point_weight_and_residuals():
    # supports of fewer than 2 points skip the sort, nothing else
    one = Dist.from_pairs(
        [((0.5, -0.0), F(1, 6)), ((0.5, 0.0), F(1, 6))],
        residual_div=F(1, 3), residual_approx=F(1, 3),
    )
    assert one.points == (((0.5, -0.0), F(1, 3)),)
    assert repr(one.points[0][0]) == "(0.5, -0.0)"  # the first-seen value
    assert (one.residual_div, one.residual_approx) == (F(1, 3), F(1, 3))
    assert type(one.residual_div) is F and type(one.residual_approx) is F
    assert Dist.from_pairs([("x", 0), ("y", 0.25)], residual_div="3/4").points == (
        ("y", F(1, 4)),
    )
    empty = Dist.from_pairs([(7, 0)], residual_div=F(1, 4), residual_approx=0.75)
    assert empty.points == () and empty.residual_div == F(1, 4)
    assert empty.residual_approx == F(3, 4) and type(empty.residual_approx) is F
    with pytest.raises(ValueError, match="negative weight -1/2"):
        Dist.from_pairs([(0, F(-1, 2))], residual_div=F(3, 2))
    with pytest.raises(ValueError, match=r"total mass 1/2 != 1"):
        Dist.from_pairs([(0, F(1, 2))])
    with pytest.raises(ValueError, match=r"total mass 1/2 != 1"):
        Dist.from_pairs([], residual_approx=F(1, 2))


def test_total_variation_linear_pass_is_exact():
    rng = random.Random(15)
    for _ in range(60):
        mu, nu = rand_dist(rng, size=5), rand_dist(rng, size=5)
        ref = sum(
            (abs(mu.weight(v) - nu.weight(v)) for v in set(mu.support() + nu.support())),
            F(0),
        ) / 2
        assert total_variation(mu, nu) == ref


def test_support_order_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    atoms = st.one_of(
        st.floats(allow_nan=True),
        st.sampled_from([0.0, -0.0, 0.5, 1e-05, 10.0, 2.0]),
        st.integers(min_value=-(10**30), max_value=10**30),
        st.booleans(),
        st.text(max_size=3),
        st.none(),
    )
    values = st.recursive(
        atoms, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=8
    )

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.lists(values, min_size=1, max_size=12))
    def check(vs):
        _same_points(vs)

    check()


def _dists_with_residuals(st):
    """Distributions whose residual_div and residual_approx are both
    non-zero, over a few ints and tuples so that supports overlap."""
    values = st.sampled_from([0, 1, 2, 3, (0, 1), (1, 0), "a"])
    parts = st.integers(min_value=1, max_value=9)

    def build(drawn):
        points, rdiv, rapp = drawn
        total = sum(m for _, m in points) + rdiv + rapp
        return Dist.from_pairs(
            [(v, F(m, total)) for v, m in points],
            residual_div=F(rdiv, total),
            residual_approx=F(rapp, total),
        )

    return st.tuples(
        st.lists(st.tuples(values, parts), max_size=5), parts, parts
    ).map(build)


def test_convex_barycentric_laws_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    dists = _dists_with_residuals(st)
    weights = st.fractions(min_value=F(1, 100), max_value=F(99, 100),
                           max_denominator=100)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(dists, dists, dists, weights, weights)
    def check(mu, nu, rho, p, q):
        assert mu.residual_div and mu.residual_approx
        assert convex(p, mu, mu) == mu  # idempotence
        assert convex(p, mu, nu) == convex(1 - p, nu, mu)  # commutativity
        r = (q - p * q) / (1 - p * q)  # skewed associativity
        assert convex(q, convex(p, mu, nu), rho) == convex(
            p * q, mu, convex(r, nu, rho)
        )

    check()


def _from_pairs_reference(pairs, residual_div=0, residual_approx=0):
    """``Dist.from_pairs`` as first written, on the test's own key and
    token: merge, sort stably by token, then check the total mass in
    Fractions.  It shares no code with ``from_pairs``."""
    merged = {}
    for v, w in pairs:
        w = F(w)
        if w.numerator <= 0:
            if w.numerator < 0:
                raise ValueError(f"negative weight {w}")
            continue
        k = _ref_key(v)
        if k in merged:
            merged[k][1] += w
        else:
            merged[k] = [v, w]
    entries = sorted(merged.values(), key=lambda e: _ref_token(_ref_key(e[0])))
    d = Dist(tuple((v, w) for v, w in entries), F(residual_div), F(residual_approx))
    total = sum((w for _, w in entries), F(0)) + d.residual_div + d.residual_approx
    if total != 1:
        raise ValueError(f"total mass {total} != 1")
    return d


def _outcome(build):
    try:
        d = build()
    except (ValueError, OverflowError, ZeroDivisionError) as e:
        return type(e), str(e)
    points = [(repr(v), w, type(w)) for v, w in d.points]
    return points, d.residual_div, d.residual_approx, type(d.residual_div), type(
        d.residual_approx
    )


def test_from_pairs_matches_reference_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    fractions = st.fractions(min_value=-1, max_value=2, max_denominator=12)
    weight = st.one_of(
        fractions,
        fractions.map(str),
        st.integers(min_value=-1, max_value=2),
        st.sampled_from([0.25, 0.5, -0.5, 0.0, float("nan"), float("inf")]),
    )
    values = st.sampled_from([0, 1, 0.0, -0.0, 0.5, (0.0,), (-0.0,), "x", True])

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(
        st.lists(st.tuples(values, weight), max_size=6),
        weight,
        weight,
        st.booleans(),
    )
    def check(pairs, rdiv, rapp, normalise):
        if normalise:  # a full-mass case: positive Fraction weights summing to 1
            pairs = [(v, abs(w)) for v, w in pairs if type(w) is F]
            total = sum((w for _, w in pairs), F(0))
            pairs = [(v, w / total) for v, w in pairs] if total else [(0, F(1))]
            rdiv = rapp = 0
        got = _outcome(lambda: Dist.from_pairs(pairs, rdiv, rapp))
        want = _outcome(lambda: _from_pairs_reference(pairs, rdiv, rapp))
        if not isinstance(want[0], type) or want[1].startswith("total mass"):
            # the one documented difference: a negative residual is now
            # rejected by name, before the total-mass check
            for name, r in (("residual_div", rdiv), ("residual_approx", rapp)):
                if _as_weight(r) < 0:
                    want = ValueError, f"negative {name} {_as_weight(r)}"
                    break
        assert got == want

    check()


@pytest.mark.parametrize("weight", [1, 1.0, "1", F(1)])
@pytest.mark.parametrize("residuals", [(), (0, 0), (0.0, "0"), (F(0), -0.0)])
def test_from_pairs_one_point_matches_reference(weight, residuals):
    """A single point of weight 1 with zero residuals returns before the
    merge: the same point, weight type and residual types as the
    reference, from a list or any other iterable."""
    for v in (0, -0.0, (0.5, -0.0), "x", True, None):
        want = _outcome(lambda: _from_pairs_reference([(v, weight)], *residuals))
        assert want[0] == [(repr(v), 1, F)]
        assert _outcome(lambda: Dist.from_pairs([(v, weight)], *residuals)) == want
        assert _outcome(lambda: Dist.from_pairs(iter([(v, weight)]), *residuals)) == want
        assert _outcome(lambda: Dist.from_pairs({v: weight}.items(), *residuals)) == want


def _exactly_rounded(pairs, den=1):
    """float(sum of w * x / den) in Fraction arithmetic: the reference
    for every float mean and cost over a support."""
    return float(sum((F(w) * F(x) for x, w in pairs), F(0)) / den)


def test_expectation_is_the_exact_sum_rounded_once_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    xs = st.one_of(
        st.floats(min_value=-1e300, max_value=1e300),  # subnormals included
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 0.1, 1 / 3, 1.0]),
    )
    weights = st.fractions(min_value=0, max_value=1, max_denominator=60)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        st.lists(st.tuples(xs, weights), max_size=8),
        st.lists(st.tuples(xs, st.integers(0, 2**70)), max_size=8),
        st.integers(1, 2**70),
        st.randoms(use_true_random=False),
    )
    def check(pairs, int_pairs, den, rng):
        den += sum(q for _, q in int_pairs)  # masses sum to at most 1
        # Fraction weights, as in Coupling.cost and the evaluator
        want = _exactly_rounded(pairs)
        assert expectation(pairs).hex() == want.hex()
        # int masses over one denominator, as in td
        want_int = _exactly_rounded(int_pairs, den)
        assert expectation(int_pairs, den).hex() == want_int.hex()
        for ps, d, w in ((pairs, 1, want), (int_pairs, den, want_int)):
            ps = list(ps)
            rng.shuffle(ps)
            assert expectation(ps, d).hex() == w.hex()
        # the sites: points merge on distinct keys, so index them
        total = sum((w for _, w in pairs), F(0))
        if not total:
            return
        points = [((i, x), w / total) for i, (x, w) in enumerate(pairs) if w]
        normal = [(x, w) for (_, x), w in points]
        mu = Dist.from_pairs(points)
        want = _exactly_rounded(normal)
        rho = Coupling(mu)
        assert rho.cost(lambda i, x: x).hex() == want.hex()
        rng.shuffle(normal)
        got = Evaluator()._combine_branches(normal, 0.0, None)
        assert got.value.hex() == want.hex()

    check()


# -- transport on subdistributions --------------------------------------------
# Test-local copies of the instances the evaluator and the hoare module built
# by hand before both went through ``transport``.

_REF_BOT = ("_bottom",)


def _ref_dist_distance(point_distance, mu, nu):
    """The evaluator's instance: bottom adjoined to both sides, Fraction costs."""
    xs, ys = list(mu.points), list(nu.points)
    if mu.residual > 0 or nu.residual > 0:
        xs.append((_REF_BOT, mu.residual))
        ys.append((_REF_BOT, nu.residual))
    matrix = []
    for x, _ in xs:
        row = []
        for y, _ in ys:
            if x is _REF_BOT and y is _REF_BOT:
                row.append(F(0))
            elif x is _REF_BOT or y is _REF_BOT:
                row.append(F(1))
            else:
                row.append(F(point_distance(x, y)))
        matrix.append(row)
    opt, flow = solve_transport([w for _, w in xs], [w for _, w in ys], matrix)
    return opt, [((xs[i][0], ys[j][0]), q) for (i, j), q in flow.items()]


def _ref_lift(post, mode):
    def lifted(x, y):
        xb, yb = x is _REF_BOT, y is _REF_BOT
        if xb and yb:
            return 0.0
        if mode == "eq":
            return 1.0 if xb or yb else float(post(x, y))
        if xb:
            return 0.0
        return 1.0 if yb else float(post(x, y))

    return lifted


def _ref_with_bottom(d):
    pts = list(d.points)
    if d.residual > 0:
        pts.append((_REF_BOT, d.residual))
    return pts


def _ref_coupling_cost(post_lifted, mu, nu):
    """The hoare instance: bottom adjoined per side, Fraction(float) costs."""
    xs, ys = _ref_with_bottom(mu), _ref_with_bottom(nu)
    costs = [[F(float(post_lifted(x, y))) for y, _ in ys] for x, _ in xs]
    opt, flow = solve_transport([w for _, w in xs], [w for _, w in ys], costs)
    return opt, [((xs[i][0], ys[j][0]), q) for (i, j), q in flow.items()]


def _rand_subdist(rng, div, approx, den=8):
    """Up to 5 grid weights on points 0..4; one of them becomes divergence
    residual if ``div``, another approximation residual if ``approx``."""
    cuts = sorted(rng.randrange(0, den + 1) for _ in range(4))
    parts = [F(b - a, den) for a, b in zip([0, *cuts], [*cuts, den])]
    rd = parts.pop() if div else F(0)
    ra = parts.pop() if approx else F(0)
    pairs = [(rng.randrange(0, 5), w) for w in parts]
    return Dist.from_pairs(pairs, residual_div=rd, residual_approx=ra)


def _rand_float_metric(rng):
    table = {}
    for a in range(5):
        for b in range(a, 5):
            d = 0.0 if a == b else rng.choice([0.25, 1.0, rng.random()])
            table[a, b] = table[b, a] = d
    return lambda a, b: table[a, b]


_RESIDUAL_KINDS = [(False, False), (True, False), (False, True), (True, True)]


def _subdist_pairs(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        left = rng.choice(_RESIDUAL_KINDS)
        right = rng.choice(_RESIDUAL_KINDS)
        yield (
            _rand_float_metric(rng),
            _rand_subdist(rng, *left),
            _rand_subdist(rng, *right),
        )


def test_transport_matches_evaluator_instance():
    sides = set()
    for metric, mu, nu in _subdist_pairs(21, 300):
        sides.add((mu.residual > 0, nu.residual > 0))
        got = transport(lift_relation(metric, "eq"), mu, nu)
        assert got == _ref_dist_distance(metric, mu, nu)
        assert type(got[0]) is F
    assert sides == {(False, False), (True, False), (False, True), (True, True)}


@pytest.mark.parametrize("mode", ["eq", "leq"])
def test_transport_matches_hoare_instance(mode):
    for metric, mu, nu in _subdist_pairs(22, 300):
        got = transport(lift_relation(metric, mode), mu, nu)
        assert got == _ref_coupling_cost(_ref_lift(metric, mode), mu, nu)


def test_transport_on_all_residual_sides():
    div, approx = Dist((), F(1), F(0)), Dist((), F(0), F(1))
    eq = lift_relation(DISC, "eq")
    assert transport(eq, div, approx) == (F(0), [((BOTTOM, BOTTOM), F(1))])
    assert transport(eq, div, MU) == _ref_dist_distance(DISC, div, MU)
    assert transport(eq, div, MU)[0] == 1
    assert transport(lift_relation(DISC, "leq"), div, MU)[0] == 0


def test_transport_calls_cost_row_major_bottom_last():
    for metric, mu, nu in _subdist_pairs(23, 60):
        calls = []

        def cost(x, y):
            calls.append((x, y))
            return lift_relation(metric, "eq")(x, y)

        transport(cost, mu, nu)
        xs, ys = mu.support(), nu.support()
        if mu.residual or nu.residual:
            xs, ys = xs + [BOTTOM], ys + [BOTTOM]
        assert calls == [(x, y) for x in xs for y in ys]
        if mu.residual or nu.residual:
            assert calls[-1][0] is BOTTOM and calls[-1][1] is BOTTOM


@pytest.mark.parametrize(
    "residual", [dict(residual_div=F(1, 4)), dict(residual_approx=F(1, 4))]
)
def test_full_distribution_routes_reject_residual_mass(residual):
    sub = Dist.from_pairs([(0, F(3, 4))], **residual)
    for mu, nu in ((sub, MU), (MU, sub)):
        with pytest.raises(ValueError):
            kantorovich(DISC, mu, nu)
        with pytest.raises(ValueError):
            optimal_coupling(DISC, mu, nu)
