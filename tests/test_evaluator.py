"""Denotational evaluation: values, radii, metrics, fixed points."""

import random
from fractions import Fraction as F

import pytest

from conftest import DNAT, MU, NAT, PROP, corpus, gen_term, let_sample, rand_dist
from qlog.evaluator import EnumSpec, EvalConfig, EvalError, Evaluator
from qlog.grades import Grade, ONE
from qlog.measures import Dist, convex, dirac, empty_subdist, pushforward
from qlog.parser import parse_file, parse_term, parse_type
from qlog.typecheck import Checker
from qlog.values import UNIT, Approx, VInj, VNative, VProc, deref


def make_eval(fuel=40, tol=1e-9, alphabets=None, enums=None):
    ck = Checker(alphabets or {"C": ["Hd", "Tl"]})
    return ck, Evaluator(ck, EvalConfig(fuel=fuel, tol=tol,
                                        enums=enums or EnumSpec()))


def run(src, types=None, env=None, expected=None, fuel=40, tol=1e-9):
    ck, ev = make_eval(fuel=fuel, tol=tol)
    t = parse_term(src)
    if expected is not None:
        ck.elaborate(t, parse_type(expected))
    ck.synthesize(types or {}, t)
    return ev.eval(env or {}, t)


def test_beta_is_exact():
    out = run("(fn x : Nat. succ (succ x)) 5")
    assert out.value == 7 and out.radius == 0.0


def test_structural_laws_exact():
    assert run("fst <1, 2>").value == 1
    assert deref(run("let (a, b) = (2, 3) in succ a").value) == 3
    assert run("case inj2[Nat+Nat] 4 { inj1 a => a | inj2 b => succ b }").value == 5
    assert run("rec(1; a k. succ a; 4)").value == 5


def test_predicate_connectives():
    assert run("tt").value == 0.0
    assert run("ff").value == 1.0
    assert run("[1/2] ff * [1/4] ff").value == pytest.approx(0.75)
    assert run("[1/2] ff -* [3/4] ff").value == pytest.approx(0.25)
    assert run("~([1/4] ff)").value == pytest.approx(0.75)
    assert run("([1/2] ff) /\\ ([1/4] ff)").value == pytest.approx(0.5)
    assert run("([1/2] ff) \\/ ([1/4] ff)").value == pytest.approx(0.25)


def test_geometric_fixed_point():
    out = run(
        "fix x : Dist Nat. delta(zero) (+ 1/2) map(succ, x)",
        fuel=30,
        tol=0.0,
    )
    d = deref(out.value)
    assert all(
        v == k and w == F(1, 2 ** (k + 1)) for k, (v, w) in enumerate(d.points)
    )
    assert d.residual_approx == F(1, 2**30)
    assert out.radius == pytest.approx(float(F(1, 2**30)))


def test_constant_fix_converges_immediately():
    out = run("fix x : Dist Nat. delta(3)", fuel=50)
    assert deref(out.value) == dirac(3)
    assert out.radius == 0.0


def test_fix_rerun_moves_at_most_radius():
    ck, ev = make_eval(fuel=12, tol=0.0)
    t = parse_term("fix x : Dist Nat. delta(zero) (+ 1/2) map(succ, x)")
    ck.elaborate(t, parse_type("Dist Nat"))
    ck.synthesize({}, t)
    out1 = ev.eval({}, t)
    ck2, ev2 = make_eval(fuel=22, tol=0.0)
    t2 = parse_term("fix x : Dist Nat. delta(zero) (+ 1/2) map(succ, x)")
    ck2.elaborate(t2, parse_type("Dist Nat"))
    ck2.synthesize({}, t2)
    out2 = ev2.eval({}, t2)
    moved = ev.distance_at(parse_type("Dist Nat"), out1.value, out2.value)
    assert moved.value <= out1.radius + 1e-12


def test_sampling_a_point_free_measure_into_a_non_dist_body():
    # the first unfolding samples the empty measure into Prop; the true
    # fixed point is delta(0.0), as its mean m satisfies m = m/2
    src = "fix x : Dist Prop. delta(let y = x in y) (+ 1/2) delta(tt)"
    for fuel in (1, 3):
        out = run(src, expected="Dist Prop", fuel=fuel)
        d = deref(out.value)
        assert [type(v) for v in d.support()] == [float]
        _, ev = make_eval()
        err = ev.distance_at(parse_type("Dist Prop"), d, dirac(0.0))
        assert err.value <= out.radius
    # any value of the body's type is within radius 1; a Dist body keeps
    # the sampled measure's residuals
    empty = {"x": Approx(Dist.from_pairs([], residual_approx=1))}
    for body, ty, want in [
        ("y", "Prop", 0.0),
        ("(y, [1/2] y)[1,1]", "Prop *[1,1] Prop", (0.0, 0.0)),
        ("delta(y)", "Dist Prop", empty["x"].value),
    ]:
        out = run(f"let y = x in {body}", types={"x": parse_type("Dist Prop")},
                  env=empty, expected=ty)
        assert out.value == want
        assert out.radius == (0.0 if ty == "Dist Prop" else 1.0)


def test_distance_at_base_types():
    ck, ev = make_eval()
    assert ev.distance_at(NAT, 3, 3).value == 0.0
    assert ev.distance_at(NAT, 3, 4).value == 1.0
    assert ev.distance_at(PROP, 0.25, 0.75).value == pytest.approx(0.5)
    prod = parse_type("Nat & Prop")
    assert ev.distance_at(prod, (3, 0.2), (3, 0.5)).value == pytest.approx(0.3)
    ten = parse_type("Prop *[1,1] Prop")
    assert ev.distance_at(ten, (0.5, 0.8), (0.0, 0.0)).value == 1.0  # truncated
    half = parse_type("Prop *[1/2,1/2] Prop")
    assert ev.distance_at(half, (0.5, 0.8), (0.0, 0.0)).value == pytest.approx(0.65)
    s = parse_type("Nat + Nat")
    assert ev.distance_at(s, VInj(1, 0), VInj(2, 0)).value == 1.0


def test_distance_at_distributions():
    ck, ev = make_eval()
    mu = Dist.from_pairs([(0, F(1, 2)), (1, F(1, 2))])
    nu = Dist.from_pairs([(0, F(1, 4)), (1, F(3, 4))])
    assert ev.distance_at(DNAT, mu, nu).value == pytest.approx(0.25)
    # residual mass sits at an adjoined bottom point
    sub = Dist.from_pairs([(0, F(1, 2))], residual_approx=F(1, 2))
    d = ev.distance_at(DNAT, sub, dirac(0))
    assert d.value == pytest.approx(0.5)
    assert d.radius >= 0.5  # truncation widens the radius


def test_discrete_dist_equality_solves_no_lp(monkeypatch):
    """`==` at Dist over Nat, Unit or an alphabet is the exact total
    variation, the LP's optimum, without an LP; at Dist Prop it is the LP."""
    from qlog import measures

    disc = lambda a, b: 0.0 if measures.key_of(a) == measures.key_of(b) else 1.0
    sub = Dist.from_pairs
    cases = [
        ("Dist Nat", sub([(0, F(1, 2)), (3, F(1, 4))], residual_approx=F(1, 4)),
         sub([(3, F(3, 4))], residual_div=F(1, 4))),
        ("Dist Unit", sub([(UNIT, F(1, 2))], residual_approx=F(1, 2)), dirac(UNIT)),
        ("Dist C", sub([("Hd", F(1, 3)), ("Tl", F(2, 3))]), dirac("Tl")),
    ]
    lp = [float(measures.transport(measures.lift_relation(disc, "eq"), mu, nu)[0])
          for _, mu, nu in cases]
    calls = []
    solve = measures.solve_transport
    monkeypatch.setattr(
        measures, "solve_transport", lambda *a: calls.append(a) or solve(*a)
    )
    for (ty, mu, nu), want in zip(cases, lp):
        out = run("x == y", types={"x": parse_type(ty), "y": parse_type(ty)},
                  env={"x": Approx(mu), "y": Approx(nu)})
        assert out.value == want
        assert out.radius == min(float(mu.residual_approx + nu.residual_approx), 1.0)
    assert calls == []
    dprop = parse_type("Dist Prop")
    out = run("x == y", types={"x": dprop, "y": dprop},
              env={"x": Approx(dirac(0.25)), "y": Approx(dirac(0.75))})
    assert out.value == 0.5 and len(calls) == 1


def test_distance_at_functions_needs_probes():
    ck, ev = make_eval()
    f = VNative(lambda a: Approx(deref(a.value) + 1))
    g = VNative(lambda a: Approx(deref(a.value) + 2))
    ty = parse_type("Nat -o Nat")
    with pytest.raises(EvalError):
        ev.distance_at(ty, f, g)
    d = ev.distance_at(ty, f, g, probes=[0, 3, 5])
    assert d.value == 1.0 and d.sided == "lower"


def test_canonical_seeds():
    ck, ev = make_eval()
    assert ev.canonical_seed(NAT) == 0
    assert ev.canonical_seed(parse_type("Dist Nat")) == dirac(0)
    assert ev.canonical_seed(parse_type("Nat & Prop")) == (0, 0.0)
    assert deref(ev.canonical_seed(parse_type("Nat + Unit"))).index == 1
    proc = ev.canonical_seed(parse_type("Proc[1/2] C"))
    assert isinstance(proc, VProc) and proc.label == "Hd"
    assert proc.step == dirac(proc)  # self-loop
    fn = ev.canonical_seed(parse_type("Nat -o Prop"))
    assert ev.apply(Approx(fn), Approx(9)).value == 0.0


def test_mixture_axioms_on_values():
    rng = random.Random(41)
    ck, ev = make_eval()
    for _ in range(40):
        ctx = {"mu": DNAT, "nu": DNAT}
        t1 = parse_term("mu (+ 1/3) nu")
        t2 = parse_term("nu (+ 2/3) mu")
        ck.synthesize(ctx, t1)
        ck.synthesize(ctx, t2)
        from qlog.sampling import sample_value

        env = {
            "mu": Approx(sample_value(ev, DNAT, rng)),
            "nu": Approx(sample_value(ev, DNAT, rng)),
        }
        assert deref(ev.eval(env, t1).value) == deref(ev.eval(env, t2).value)


def _exact(x):
    return float(F(x))


# `(+ 1/3)` at each kind of mixture type, with a lazy fixed point (a VRef)
# as a first branch, and a let-sample into a function type, against the
# exact mixture computed in Fraction arithmetic
@pytest.mark.parametrize(
    "src, ty, want",
    [
        ("[1/4] ff (+ 1/3) tt", "Prop", _exact(F(1, 3) * F(1, 4))),
        ("tt (+ 1/3) ff", "Prop", _exact(F(2, 3))),
        (
            "([1/4] ff, tt) (+ 1/3) (ff, [1/2] ff)",
            "Prop * Prop",
            (_exact(F(1, 3) * F(1, 4) + F(2, 3)), _exact(F(2, 3) * F(1, 2))),
        ),
        (
            "delta(0) (+ 1/3) (delta(1) (+ 1/2) delta(2))",
            "Dist Nat",
            Dist.from_pairs([(0, F(1, 3)), (1, F(1, 3)), (2, F(1, 3))]),
        ),
        (
            "((fn x : Prop. x) (+ 1/3) (fn x : Prop. ~x)) ([1/4] ff)",
            "Prop",
            _exact(F(1, 3) * F(1, 4) + F(2, 3) * F(3, 4)),
        ),
        (
            "((fix g : Prop -o Prop. fn x : Prop. x) (+ 1/3) (fn x : Prop. ~x)) ([1/4] ff)",
            "Prop",
            _exact(F(1, 3) * F(1, 4) + F(2, 3) * F(3, 4)),
        ),
        (
            "let (f, q) = (fix p : (Prop -o Prop) * Prop. (fn x : Prop. x, [1/2] ff))"
            " (+ 1/3) (fn x : Prop. ~x, ff) in f q",
            "Prop",
            _exact(F(1, 3) * F(_exact(F(5, 6))) + F(2, 3) * F(1 - _exact(F(5, 6)))),
        ),
        (
            "(let x = delta(tt) (+ 1/3) delta(ff) in fn y : Prop. x * y) ([1/4] ff)",
            "Prop",
            _exact(F(1, 3) * F(1, 4) + F(2, 3)),
        ),
    ],
)
def test_one_mixture_at_every_mixture_type(src, ty, want):
    out = run(src, expected=ty)
    assert deref(out.value) == want and out.radius == 0.0
    if isinstance(want, float):
        assert out.value.hex() == want.hex()


def test_prop_mix_is_the_exact_mean_rounded_once_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    ck, ev = make_eval()
    unit = st.floats(min_value=0.0, max_value=1.0)
    weights = st.fractions(min_value=0, max_value=1, max_denominator=100)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(weights.filter(lambda p: 0 < p < 1), unit, unit)
    @hypothesis.example(F(1, 3), 0.0, 1.0)
    def check(p, x, y):
        t = parse_term(f"x (+ {p}) y")
        ck.synthesize({"x": PROP, "y": PROP}, t)
        got = ev.eval({"x": Approx(x), "y": Approx(y)}, t).value
        want = float(p * F(x) + (1 - p) * F(y))
        assert got.hex() == want.hex()

    check()


PARITY = "delta(rec(zero; a k. rec(succ zero; b j. zero; a); x))"


def test_let_sample_monad_laws():
    # left unit
    assert let_sample("let x = mu in delta(succ x)", mu=dirac(4)) == dirac(5)
    out = let_sample("let x = mu in delta(succ x)", mu=MU)
    assert out == Dist.from_pairs([(1, F(1, 2)), (2, F(1, 2))])
    # mean into truth values
    mean = let_sample("let x = mu in rec([1/5] ff; a k. [2/5] ff; x)", mu=MU)
    assert mean == float(F(1, 2) * F(0.2) + F(1, 2) * F(0.4))
    # a point-free measure samples to its residuals, both kept
    for divergent in (True, False):
        bottom = empty_subdist(divergent)
        assert let_sample("let x = mu in delta(succ x)", mu=bottom) == bottom
    half = Dist.from_pairs([], residual_div=F(1, 4), residual_approx=F(3, 4))
    assert let_sample("let x = mu in delta(x)", mu=half) == half
    # homomorphism over (+ p), against pushforward and convex
    rng = random.Random(8)
    for _ in range(50):
        a, b = rand_dist(rng), rand_dist(rng)
        p = F(rng.randrange(1, 8), 8)
        lhs = let_sample(f"let x = a (+ {p}) b in {PARITY}", a=a, b=b)
        rhs = let_sample(
            f"(let x = a in {PARITY}) (+ {p}) (let x = b in {PARITY})", a=a, b=b
        )
        parity = lambda k: k % 2
        assert lhs == rhs == convex(p, pushforward(parity, a), pushforward(parity, b))


EQUALITY_LAWS = [
    # (lhs, rhs) closed instances of the judgmental equations
    ("(fn x : Nat. succ x) 2", "3"),
    ("fst <succ 0, 0>", "succ 0"),
    ("let (a, b) = (1, 2) in succ b", "3"),
    ("let x = delta(2) in delta(succ x)", "delta(3)"),
    (
        "let x = (delta(0) (+ 1/4) delta(1)) in delta(succ x)",
        "(let x = delta(0) in delta(succ x)) (+ 1/4) (let y = delta(1) in delta(succ y))",
    ),
    ("rec(0; a k. succ a; 5)", "5"),
    (
        "fix x : Dist Nat. delta(0) (+ 1/2) map(succ, x)",
        "delta(0) (+ 1/2) map(succ, fix x : Dist Nat. delta(0) (+ 1/2) map(succ, x))",
    ),
]


@pytest.mark.parametrize("lhs,rhs", EQUALITY_LAWS)
def test_equalities_hold_under_evaluation(lhs, rhs):
    ck, ev = make_eval(fuel=40, tol=0.0)
    tl, tr = parse_term(lhs), parse_term(rhs)
    for t in (tl, tr):
        ck.elaborate(t, None)
        try:
            ck.synthesize({}, t)
        except Exception:
            ck.elaborate(t, parse_type("Dist Nat"))
            ck.synthesize({}, t)
    a = ev.eval({}, tl)
    b = ev.eval({}, tr)
    ty, _ = ck.synthesize({}, tl)
    d = ev.distance_at(ty, a.value, b.value)
    assert d.value <= a.radius + b.radius + 1e-12


def test_random_beta_instances_evaluate_equal():
    rng = random.Random(42)
    ck, ev = make_eval(tol=0.0)
    from qlog import terms as T
    from qlog.normalize import normal_form

    ctx = {"a": NAT, "mu": DNAT}
    from qlog.sampling import sample_value

    for _ in range(40):
        ty = rng.choice([NAT, PROP, DNAT])
        t = gen_term(rng, ctx, ty, depth=3)
        ck.synthesize(ctx, t)
        n = normal_form(t)
        ck.synthesize(ctx, n)
        env = {
            "a": Approx(sample_value(ev, NAT, rng)),
            "mu": Approx(sample_value(ev, DNAT, rng)),
        }
        va = ev.eval(env, t)
        vb = ev.eval(env, n)
        d = ev.distance_at(ty, va.value, vb.value)
        assert d.value <= va.radius + vb.radius + 1e-9


def test_corpus_nonexpansiveness_audit():
    """Closed corpus functions respect their Lipschitz annotations."""
    rng = random.Random(43)
    with open(corpus("hwalk.qlog")) as fh:
        qfile = parse_file(fh.read())
    ck = Checker(qfile.alphabets)
    ev = Evaluator(ck, EvalConfig(fuel=40, tol=1e-9))
    d = qfile.defs["hwalk"]
    ck.check(qfile.ctx, d.term, d.declared_type)
    fn = ev.eval({}, d.term)
    pos_ty = d.declared_type.left
    out_ty = d.declared_type.right
    from qlog.sampling import sample_value

    for _ in range(30):
        v1 = sample_value(ev, pos_ty, rng)
        v2 = sample_value(ev, pos_ty, rng)
        din = ev.distance_at(pos_ty, v1, v2)
        o1 = ev.apply(fn, Approx(v1))
        o2 = ev.apply(fn, Approx(v2))
        dout = ev.distance_at(out_ty, o1.value, o2.value)
        lip = min(float(ONE.rational) * din.value, 1.0)
        assert dout.value <= lip + 2 * (o1.radius + o2.radius) + 1e-9


def test_quantifiers_and_sidedness():
    enums = EnumSpec({
        "Nat": {"mode": "finite", "bound": 5},
        "Dist Nat": {"mode": "samples", "terms": ["delta(0)", "delta(1)"]},
    })
    ck, ev = make_eval(enums=enums)
    t = parse_term("exists y : Nat. y == x")
    ck.synthesize({"x": NAT}, t)
    out = ev.eval({"x": Approx(3)}, t)
    assert out.value == 0.0 and out.sided is None  # finite mode is exact
    t2 = parse_term("forall y : Nat. y == x")
    ck.synthesize({"x": NAT}, t2)
    assert ev.eval({"x": Approx(3)}, t2).value == 1.0
    t3 = parse_term("exists m : Dist Nat. m == mu")
    ck.synthesize({"mu": DNAT}, t3)
    out3 = ev.eval({"mu": Approx(dirac(4))}, t3)
    assert out3.sided == "upper"  # sample mode is one-sided
    t4 = parse_term("forall m : Dist Nat. m == mu")
    ck.synthesize({"mu": DNAT}, t4)
    assert ev.eval({"mu": Approx(dirac(0))}, t4).sided == "lower"
    with pytest.raises(EvalError):
        t5 = parse_term("exists f : Nat -o Nat. tt")
        ck.synthesize({}, t5)
        ev.eval({}, t5)
