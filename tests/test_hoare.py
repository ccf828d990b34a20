"""Imperative language semantics, liftings, triples, error credits."""

import random
from fractions import Fraction as F

import pytest

from conftest import corpus
from qlog.hoare import (
    check_nth_unused,
    coupling_cost,
    eps_credit,
    lift_relation,
    make_programs,
    prp_prf_check,
    triple_value,
)
from qlog.imp import (
    CWhile,
    ImpError,
    Program,
    Store,
    eval_cmd,
    eval_expr,
    parse_imp,
)
from qlog.measures import BOTTOM, Dist, dirac, kantorovich, total_variation


def prog_of(src):
    return parse_imp(src)


AS_TERM = open(corpus("imp", "as_termination.imp")).read()


def test_expression_clauses():
    p = prog_of("locs l m\nskip")
    s = p.initial_store().set("l", 5)
    from qlog.imp import EBin, ENum, ERead, EUnif

    assert eval_expr(p, s, ERead("l")) == 5
    assert eval_expr(p, s, EBin("+", ERead("l"), ENum(2))) == 7
    assert eval_expr(p, s, EBin("-", ENum(2), ENum(5))) == 0  # monus
    assert eval_expr(p, s, EBin("==", ERead("l"), ENum(5))) is True
    u = eval_expr(p, s, EUnif(ENum(1)))
    assert u == Dist.from_pairs([(0, F(1, 2)), (1, F(1, 2))])


def test_skip_and_assign():
    p = prog_of("locs l\nskip")
    s = p.initial_store()
    assert eval_cmd(p, p.body, s) == dirac(s)
    p2 = prog_of("locs l\nl := 3 + 4")
    assert eval_cmd(p2, p2.body, p2.initial_store()) == dirac(
        p2.initial_store().set("l", 7)
    )


def test_as_termination_masses_exact():
    p = prog_of(AS_TERM)
    for n in range(1, 21):
        out = eval_cmd(p, p.body, p.initial_store(), max_iter=n)
        assert out.mass == 1 - F(1, 2**n)
        assert out.residual_approx == F(1, 2**n)
        assert out.residual_div == 0


def test_divergence_detected_exactly():
    p = prog_of("locs l\nwhile l <= l { skip }")
    out = eval_cmd(p, p.body, p.initial_store(), max_iter=4)
    assert out.mass == 0 and out.residual_div == 1


def test_tarski_iterates_monotone_and_metric_convergent():
    p = prog_of(AS_TERM)
    masses = []
    iterates = []
    for n in range(1, 10):
        out = eval_cmd(p, p.body, p.initial_store(), max_iter=n)
        masses.append(out.mass)
        iterates.append(out)
    assert all(a <= b for a, b in zip(masses, masses[1:]))
    # d(iterate n, iterate m) <= mass(m) - mass(n) for n <= m, with the
    # residual adjoined as a bottom point
    lifted = lift_relation(lambda a, b: 0.0 if a == b else 1.0, "eq")
    for i in range(len(iterates)):
        for j in range(i, len(iterates)):
            d = coupling_cost(lifted, iterates[i], iterates[j])
            assert d <= float(masses[j] - masses[i]) + 1e-12


def test_lifting_tables():
    phi = lambda a, b: 0.0 if a == b else 1.0
    eq = lift_relation(phi, "eq")
    le = lift_relation(phi, "leq")
    s = Store.of({"l": 0})
    assert eq(BOTTOM, BOTTOM) == 0.0 and le(BOTTOM, BOTTOM) == 0.0
    assert eq(BOTTOM, s) == 1.0 and le(BOTTOM, s) == 0.0
    assert eq(s, BOTTOM) == 1.0 and le(s, BOTTOM) == 1.0
    assert eq(s, s) == 0.0 and le(s, s) == 0.0


def test_triple_skip_skip():
    p = prog_of("locs l\nskip")
    tt = lambda a, b: 0.0
    res = triple_value(
        p, p.body, p, p.body, tt, tt, "eq",
        [(p.initial_store(), p.initial_store())],
    )
    assert res.value == 0.0 and res.radius == 0.0


def test_triple_termination_bound():
    p = prog_of(AS_TERM)
    skip = prog_of("locs l\nskip")
    tt = lambda a, b: 0.0
    for n in (1, 5, 12):
        res = triple_value(
            p, p.body, skip, skip.body, tt, tt, "eq",
            [(p.initial_store(), skip.initial_store())], max_iter=n,
        )
        assert res.value == pytest.approx(2.0 ** -n)
        assert res.radius == pytest.approx(2.0 ** -n)


def test_mode_eq_dominates_mode_leq():
    rng = random.Random(71)
    p = prog_of(AS_TERM)
    skip = prog_of("locs l\nskip")
    tt = lambda a, b: 0.0
    for n in (1, 3, 6):
        pairs = [(p.initial_store(), skip.initial_store())]
        eqv = triple_value(p, p.body, skip, skip.body, tt, tt, "eq", pairs, max_iter=n)
        lev = triple_value(p, p.body, skip, skip.body, tt, tt, "leq", pairs, max_iter=n)
        assert eqv.value >= lev.value - 1e-12
        assert lev.value == 0.0  # left divergence is free in mode leq


def test_store_nonexpansive_extension():
    """Commands built from reads, discrete branching, sampling and
    loops stay non-expansive when payload cells hold [0,1] values
    (the guard cell keeps the discrete metric)."""
    src = """
locs g a b c
if g == 0 { c := a } else { c := b };
sample g unif(1);
while g == 0 { sample g unif(1) }
"""
    p = prog_of(src)

    def store_metric(s, s2):
        if s.get("g") != s2.get("g"):
            return 1.0
        return min(
            max(abs(float(s.get(k)) - float(s2.get(k))) for k in ("a", "b", "c")),
            1.0,
        )

    rng = random.Random(72)
    for _ in range(25):
        g = rng.randrange(0, 2)
        s1 = Store.of({"g": g, "a": rng.random(), "b": rng.random(), "c": 0.0})
        s2 = Store.of({"g": g, "a": rng.random(), "b": rng.random(), "c": 0.0})
        din = store_metric(s1, s2)
        mu = eval_cmd(p, p.body, s1, max_iter=30)
        nu = eval_cmd(p, p.body, s2, max_iter=30)
        lifted = lift_relation(store_metric, "eq")
        dout = coupling_cost(lifted, mu, nu)
        assert dout <= din + 1e-6


def test_nth_unused_against_its_contract():
    assert check_nth_unused(3, 4)
    assert check_nth_unused(2, 5)


def test_prp_reports():
    for n in (4, 8):
        rep = prp_prf_check(3, n)
        assert rep.ok and rep.telescoping_ok and rep.nth_unused_ok
        eps3 = F(3 * 2, 2 * n)
        assert rep.rows[-1]["epsilon"] == float(eps3)
        assert rep.rows[-1]["tv"] <= float(eps3)
        # per-round value is exactly the credit for this pair of loops
        for row in rep.rows:
            assert row["per_loop_value"] <= row["per_loop_credit"] + 1e-9


def test_triple_sequencing_composition():
    """The value of {pre} c1;c2 ~ c1';c2' {post} is below the truncated
    sum of the values of the two stages through a midpoint relation."""
    from qlog.grades import oplus
    from qlog.hoare import ri_loop, rf_loop
    from qlog.imp import CSeq

    n = 4
    ri_prog, rf_prog = make_programs(2, n, 2)

    def phi(level):
        def pred(s, s2):
            same = s.array("arr") == s2.array("arr")
            return 0.0 if same and s.get("i") == s2.get("i") == level else 1.0

        return pred

    s0 = ri_prog.initial_store()
    pairs = [(s0, s0)]
    stage1 = triple_value(
        ri_prog, ri_loop(n), rf_prog, rf_loop(n),
        phi(0), phi(1), "eq", pairs,
    )
    mids = [
        (s.set("i", 1), s.set("i", 1))
        for s in (s0.set(("arr", 0), v) for v in range(n))
    ]
    stage2 = triple_value(
        ri_prog, ri_loop(n), rf_prog, rf_loop(n),
        phi(1), phi(2), "eq", mids,
    )
    seq = triple_value(
        ri_prog, CSeq(ri_loop(n), ri_loop(n)),
        rf_prog, CSeq(rf_loop(n), rf_loop(n)),
        phi(0), phi(2), "eq", pairs,
    )
    assert seq.value <= oplus(stage1.value, stage2.value) + 1e-9


def test_eps_credit_telescoping():
    for n in (4, 8, 16):
        for q in range(0, 6):
            assert eps_credit(q, n) + F(q, n) == eps_credit(q + 1, n)


def test_tv_equals_discrete_coupling_cost():
    """On discrete stores the lifted-equality optimum is total variation."""
    ri, rf = make_programs(2, 3, 2)
    s0 = ri.initial_store()
    mu = eval_cmd(ri, ri.body, s0, max_iter=4)
    nu = eval_cmd(rf, rf.body, s0, max_iter=4)
    lifted = lift_relation(lambda a, b: 0.0 if a == b else 1.0, "eq")
    lp = coupling_cost(lifted, mu, nu)
    tv = total_variation(mu, nu)
    assert lp == pytest.approx(float(tv))


def test_parse_errors():
    with pytest.raises(ImpError):
        parse_imp("locs l\nl := unif(3)")  # dist into nat assignment
    with pytest.raises(ImpError):
        parse_imp("locs l\nwhile 3 { skip }")  # non-boolean guard
    with pytest.raises(ImpError):
        parse_imp("locs l\nm := 3")  # undeclared location
