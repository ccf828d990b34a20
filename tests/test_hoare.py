"""Imperative language semantics, liftings, triples, error credits."""

import hashlib
import json
import random
import re
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
    parse_store_pred,
)
from qlog.measures import BOTTOM, Dist, dirac, kantorovich, key_of, total_variation
from qlog.measures import _order_token, key_token


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


def test_nth_unused_rejects_a_negative_index_in_the_store():
    # the CLI rejects a negative store value on reading; a store built
    # in code still reaches the scan
    prog = prog_of("locs i t v\narray a[2]\nnth_unused(a, i, t, v)\n")
    store = prog.initial_store().set("t", -1)
    with pytest.raises(ImpError, match=r"^nth_unused index t = -1 is negative$"):
        eval_cmd(prog, prog.body, store)


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


@pytest.mark.parametrize(
    "length, n, digest",
    [
        (1, 3, "15c786bebe831c375283ca3e4ce567de91e0f775089562241be0729b57f26f42"),
        (2, 4, "7a8b9f4268665d1e1f618fa2fc6aca12dec13c5d5241fcd2e989810d471f0c6c"),
        (3, 4, "3c353c9786e1fc00fec9f5d1bcf8097abdb8d2de501ee84427c4482c471e770e"),
    ],
)
def test_prp_report_bytes_are_pinned(length, n, digest):
    """Every float of the report, its rows and verdicts, byte for byte."""
    text = json.dumps(prp_prf_check(length, n).to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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


# -- unordered store maps: the same Dist as canonicalising every step ---------
# A test-local copy of the evaluator that built a canonical ``Dist`` after
# every command, bind and loop round.


def _ref_nth_unused(store, prog, c):
    i = store.get(c.i_loc)
    k = store.get(c.tmp_loc)
    used = {store.get((c.array, j)) for j in range(min(i, prog.arrays[c.array]))}
    v = seen = 0
    while True:
        if v not in used:
            if seen == k:
                return store.set(c.val_loc, v)
            seen += 1
        v += 1


def _ref_eval(prog, c, store, max_iter=64, tol=0.0, support_cap=100000):
    from qlog.imp import CAssign, CIf, CNthUnused, CSample, CSeq, CSkip

    def run(cmd, s):
        return _ref_eval(prog, cmd, s, max_iter, tol, support_cap)

    if isinstance(c, CSkip):
        return dirac(store)
    if isinstance(c, CAssign):
        if isinstance(c.target, tuple):
            name, idx_e = c.target
            idx = eval_expr(prog, store, idx_e)
            if not 0 <= idx < prog.arrays[name]:
                raise ImpError("out of bounds")
            key = (name, idx)
        else:
            key = c.target
        return dirac(store.set(key, eval_expr(prog, store, c.expr)))
    if isinstance(c, CSample):
        d = eval_expr(prog, store, c.dist)
        return Dist.from_pairs([(store.set(c.loc, v), w) for v, w in d.points])
    if isinstance(c, CSeq):
        first = run(c.first, store)
        pairs, rdiv, rapp = [], first.residual_div, first.residual_approx
        for s, w in first.points:
            out = run(c.second, s)
            pairs.extend((s2, w * w2) for s2, w2 in out.points)
            rdiv += w * out.residual_div
            rapp += w * out.residual_approx
        return Dist.from_pairs(pairs, residual_div=rdiv, residual_approx=rapp)
    if isinstance(c, CIf):
        return run(c.then if eval_expr(prog, store, c.guard) else c.other, store)
    if isinstance(c, CNthUnused):
        return dirac(_ref_nth_unused(store, prog, c))
    assert isinstance(c, CWhile)
    done, done_div = {}, F(0)

    def sweep(act):
        live = {}
        for s, w in act.items():
            if eval_expr(prog, s, c.guard):
                live[s] = live.get(s, F(0)) + w
            else:
                done[s] = done.get(s, F(0)) + w
        return live

    active = sweep({store: F(1)})
    stalled = False
    body_approx = F(0)
    for _ in range(max_iter):
        if not active:
            break
        nxt = {}
        for s, w in active.items():
            out = run(c.body, s)
            done_div += w * out.residual_div
            body_approx += w * out.residual_approx
            for s2, w2 in out.points:
                nxt[s2] = nxt.get(s2, F(0)) + w * w2
        before = dict(active)
        active = sweep(nxt)
        if len(done) + len(active) > support_cap:
            raise ImpError("store support blow-up in while loop")
        if active == before:
            stalled = True
            break
        if float(sum(active.values(), F(0))) <= tol:
            break
    live_mass = sum(active.values(), F(0))
    if stalled:
        done_div += live_mass
        live_mass = F(0)
    return Dist.from_pairs(
        list(done.items()), residual_div=done_div, residual_approx=live_mass + body_approx
    )


def _assert_same_run(prog, c, store, run=None, **kw):
    """``eval_cmd``, or the analysed ``run`` if given, against the
    stepwise reference on ``store``."""
    got = (run or (lambda s: eval_cmd(prog, c, s, **kw)))(store)
    ref = _ref_eval(prog, c, store, **kw)
    assert [(repr(s), w) for s, w in got.points] == [
        (repr(s), w) for s, w in ref.points
    ]
    assert got.points == ref.points
    assert (got.residual_div, got.residual_approx) == (
        ref.residual_div, ref.residual_approx,
    )
    return got


@pytest.mark.parametrize("name", ["as_termination.imp", "skip.imp"])
def test_corpus_programs_match_stepwise_canonical_form(name):
    p = parse_imp(open(corpus("imp", name)).read())
    for n in (0, 1, 3, 8, 64):
        _assert_same_run(p, p.body, p.initial_store(), max_iter=n)


def test_prp_programs_match_stepwise_canonical_form():
    from qlog.hoare import rf_loop, ri_loop

    for length in (1, 2, 3):
        for n in range(length, 5):
            for q in range(1, length + 1):
                ri, rf = make_programs(length, n, q)
                s0 = ri.initial_store()
                for prog in (ri, rf):
                    for it in (1, q + 1):
                        _assert_same_run(prog, prog.body, s0, max_iter=it)
                s1 = s0.set("i", q - 1)
                _assert_same_run(ri, ri_loop(n), s1)
                _assert_same_run(rf, rf_loop(n), s1)


def test_stalled_and_cut_off_loops_match_stepwise_canonical_form():
    # part of the mass stalls in `while l == 1 { skip }`: divergence
    p = prog_of("locs l m\nsample l unif(2);\nwhile l == 1 { skip }")
    out = _assert_same_run(p, p.body, p.initial_store(), max_iter=5)
    assert out.residual_div == F(1, 3) and out.residual_approx == 0
    # a geometric loop cut off by max_iter inside a sampled outer loop
    p = prog_of(
        "locs l m\nm := 0;\nwhile m <= 1 { l := 0; sample m unif(2);"
        " while l == 0 { sample l unif(1) } }"
    )
    out = _assert_same_run(p, p.body, p.initial_store(), max_iter=3)
    assert out.residual_approx > 0 and out.residual_div == 0


def test_one_analysed_run_serves_every_store():
    """One run per command, analysed once, gives on each store in turn
    what the stepwise reference gives on it; after an out-of-bounds
    index or a support blow-up it raises the same error again and stays
    correct, so it keeps nothing from one store to the next."""
    from qlog.hoare import _phi_stores, rf_loop, ri_loop
    from qlog.imp import CNthUnused, EBin, ENum, ERead, analyse_cmd

    length, n = 2, 3
    ri, rf = make_programs(length, n, length)
    phi = [s for q in range(length) for s in _phi_stores(ri, length, n, q)]
    scan = CNthUnused("arr", "i", "tmp", "val")
    scans = [
        ri.initial_store().set(("arr", 0), a).set(("arr", 1), b).set("i", i).set("tmp", k)
        for a in range(n) for b in range(n) for i in range(length)
        for k in range(n - len(set((a, b)[:i])))
    ]
    loop = CWhile(EBin("<=", ERead("i"), ENum(1)), ri_loop(n))
    runs = {
        "ri": (ri, ri_loop(n), analyse_cmd(ri, ri_loop(n)), {}),
        "rf": (rf, rf_loop(n), analyse_cmd(rf, rf_loop(n)), {}),
        "scan": (ri, scan, analyse_cmd(ri, scan), {}),
        "loop": (ri, loop, analyse_cmd(ri, loop, support_cap=4), {"support_cap": 4}),
    }

    def check_all():
        for s in phi:
            for name in ("ri", "rf"):
                prog, c, run, kw = runs[name]
                _assert_same_run(prog, c, s, run=run, **kw)
        prog, c, run, kw = runs["scan"]
        for s in scans:
            _assert_same_run(prog, c, s, run=run, **kw)
        # round two of the loop leaves six stores from i = 0: over the cap
        prog, c, run, kw = runs["loop"]
        for s in phi:
            if s.get("i") == 0:
                with pytest.raises(ImpError, match="^store support blow-up in while loop$"):
                    run(s)
            else:
                _assert_same_run(prog, c, s, run=run, **kw)

    past_end = phi[-1].set("i", length)
    for _ in range(2):
        check_all()
        for name in ("ri", "rf"):
            with pytest.raises(ImpError, match=r"^arr\[2\] out of bounds \(size 2\)$"):
                runs[name][2](past_end)
    check_all()


def test_random_programs_match_stepwise_canonical_form():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from qlog.imp import CAssign, CIf, CSample, CSeq, CSkip, EBin, ENum, ERead, EUnif

    locs = ["a", "b"]
    nat = st.recursive(
        st.one_of(st.builds(ENum, st.integers(0, 2)), st.sampled_from(locs).map(ERead)),
        lambda inner: st.builds(EBin, st.sampled_from(["+", "-"]), inner, inner),
        max_leaves=3,
    )
    guard = st.builds(EBin, st.sampled_from(["<=", "=="]), nat, nat)
    cmds = st.recursive(
        st.one_of(
            st.just(CSkip()),
            st.builds(CAssign, st.sampled_from(locs), nat),
            st.builds(
                CSample, st.sampled_from(locs),
                st.integers(0, 2).map(lambda k: EUnif(ENum(k))),
            ),
        ),
        lambda inner: st.one_of(
            st.builds(CSeq, inner, inner),
            st.builds(CIf, guard, inner, inner),
            st.builds(CWhile, guard, inner),
        ),
        max_leaves=6,
    )
    prog = Program(locs=locs, arrays={}, body=CSkip())

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(cmds, st.integers(0, 4))
    def check(c, max_iter):
        _assert_same_run(prog, c, prog.initial_store(), max_iter=max_iter)

    check()


def test_store_slots_leave_identity_unchanged():
    p = prog_of("locs i val\narray arr[3]\nskip")
    mapping = {"i": 2, "val": 7, ("arr", 0): 4, ("arr", 1): 0, ("arr", 2): 9}
    built = Store.of(mapping)
    derived = p.initial_store()
    for k, v in mapping.items():
        derived = derived.set(k, v)
    assert repr(derived) == repr(built) == "{i=2, val=7, ('arr', 0)=4, ('arr', 1)=0, ('arr', 2)=9}"
    assert derived.dist_key() == built.dist_key() == ("store", built.items)
    assert derived == built and hash(derived) == hash(built) == hash((built.items,))
    start = p.initial_store()
    assert start.set("i", 1).slots is start.slots  # one layout, shared
    # slots take part in none of repr, dist_key, == and hash
    other = Store(built.items, {})
    assert "slots" not in repr(built) and other == built
    assert hash(other) == hash(built) and repr(other) == repr(built)
    for key in ("zz", ("arr", 3), ("val",)):
        with pytest.raises(ImpError, match="undeclared location"):
            built.get(key)
        with pytest.raises(ImpError, match="undeclared location"):
            built.set(key, 1)
    # a store assigns each location once
    with pytest.raises(ImpError, match=r"^duplicate location \('arr', 0\)$"):
        Store(built.items + ((("arr", 0), 1),))


def _ref_array(store, name):
    """``Store.array`` as a sorted scan over the items."""
    slots = sorted(
        (k[1], v) for k, v in store.items if isinstance(k, tuple) and k[0] == name
    )
    return tuple(v for _, v in slots)


def _ref_order(stores):
    """Merged stores in support order: the first-seen store of each
    ``key_of`` key, sorted by ``key_token(key_of(s))``."""
    first = {}
    for s in stores:
        first.setdefault(key_of(s), s)
    return sorted(first.values(), key=lambda s: key_token(key_of(s)))


def _assert_store_order(stores, rng):
    for s in stores:
        want = key_token(key_of(s))
        assert s.sort_token() == want
        assert _order_token(s) == want
        for name in ("a", "arr", "b", "i", "zz"):
            assert s.array(name) == _ref_array(s, name)
    pairs = [(s, F(1, len(stores))) for s in stores]
    rng.shuffle(pairs)
    got = Dist.from_pairs(pairs).support()
    want = _ref_order([s for s, _ in pairs])
    assert [repr(s) for s in got] == [repr(s) for s in want]
    assert got == want


def test_store_tokens_arrays_and_order_property():
    """A store's sort token comes from its layout's heads and its arrays
    from the layout's slot indices; both must equal the generic rules,
    also where the layout was handed in from another store or empty."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    values = st.one_of(
        st.integers(0, 30), st.booleans(), st.integers(10**24, 10**30)
    )

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        st.dictionaries(st.sampled_from(["a", "arr", "b"]), st.integers(11, 13),
                        min_size=1),
        st.lists(st.sampled_from(["i", "tmp", "val"]), unique=True),
        st.data(),
    )
    def check(arrays, locs, data):
        keys = locs + [(a, j) for a, size in arrays.items() for j in range(size)]
        stores = [
            Store.of({k: data.draw(values) for k in keys})
            for _ in range(data.draw(st.integers(1, 3)))
        ]
        # repr order puts ('a', 10) before ('a', 2): not the index order
        assert [k for k, _ in stores[0].items if k in keys[len(locs):]] != keys[len(locs):]
        for _ in range(data.draw(st.integers(0, 4))):
            base = data.draw(st.sampled_from(stores))
            stores.append(base.set(data.draw(st.sampled_from(keys)), data.draw(values)))
        renamed = Store(tuple((("q", j), 0) for j in range(len(keys))))
        reordered = Store(tuple((k, 0) for k in keys))  # same keys, index order
        for layout in ({}, renamed.slots, reordered.slots, stores[0].slots):
            rebuilt = Store(stores[-1].items, layout)
            assert rebuilt == stores[-1]
            stores.append(rebuilt.set(keys[-1], data.draw(values)))
        _assert_store_order(stores, random.Random(data.draw(st.integers(0, 99))))

    check()


@pytest.mark.parametrize(
    "length, n, max_q, message",
    [
        (0, 3, None, "length must be at least 1, got 0"),
        (-1, 3, None, "length must be at least 1, got -1"),
        (3, 2, None, "need array length <= value range"),
        (2, 2, 3, r"max_q must lie in 1\.\.length = 1\.\.2, got 3"),
        (2, 2, 0, r"max_q must lie in 1\.\.length = 1\.\.2, got 0"),
        (2, 2, -1, r"max_q must lie in 1\.\.length = 1\.\.2, got -1"),
    ],
)
def test_prp_rejects_nonsense_parameters(length, n, max_q, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        prp_prf_check(length, n, max_q)


def test_array_size_must_be_a_number():
    with pytest.raises(ImpError, match="array size must be a number"):
        parse_imp("locs l\narray a[x]\nskip")


@pytest.mark.parametrize(
    "src, line, col, message",
    [
        ("locs l\nl := ;\n", 2, 6, "expected an expression, got ';'"),
        ("locs l\nl := 1 $\n", 2, 8, "bad character '$'"),
        ("locs l\nl := 1 +\n", 2, 9, "unexpected end of program"),
        ("locs l\nl := 1\nskip\n", 3, 1, "trailing input 'skip'"),
        ("locs l\narray a[x]\nskip", 2, 9, "array size must be a number, got 'x'"),
        ("locs l\n-- note\nif l == 0 { skip } ( { skip }", 3, 20, "expected 'else', got '('"),
        ("locs l\n  ; skip", 2, 3, "expected a command, got ';'"),
        ("array 5[2]\nskip", 1, 7, "expected an array name, got '5'"),
        ("array if[2]\nskip", 1, 7, "reserved word 'if' cannot name an array"),
        ("array a[2]\narray a[3]\nskip", 2, 7, "a is already declared"),
        ("locs l l\nskip", 1, 8, "l is already declared"),
        ("locs l\nlocs l\nskip", 2, 6, "l is already declared"),
        ("locs a\narray a[2]\nskip", 2, 7, "a is already declared"),
        ("array a[2]\nlocs a\nskip", 2, 6, "a is already declared"),
    ],
)
def test_parse_errors_carry_a_position(src, line, col, message):
    with pytest.raises(ImpError) as e:
        parse_imp(src)
    assert (e.value.line, e.value.col) == (line, col)
    assert str(e.value) == f"{line}:{col}: {message}"


@pytest.mark.parametrize(
    "src, line, col, message",
    [
        ("locs l\nm := 3", 2, 1, "undeclared location m"),
        ("locs l\nl := l + m", 2, 10, "undeclared location m"),
        ("locs l\nsample m unif(2)", 2, 8, "undeclared location m"),
        ("locs l\nb[0] := 1", 2, 1, "undeclared array b"),
        ("locs l\narray a[2]\nl := b[1]", 3, 6, "undeclared array b"),
        ("locs i t v\narray a[2]\nnth_unused(a, i, t, w)", 3, 21, "undeclared location w"),
        ("locs i t v\nnth_unused(a, i, t, v)", 2, 12, "undeclared array a"),
    ],
)
def test_undeclared_names_carry_a_position(src, line, col, message):
    with pytest.raises(ImpError) as e:
        parse_imp(src)
    assert str(e.value) == f"{line}:{col}: {message}"


@pytest.mark.parametrize(
    "src, line, col, message",
    [
        ("locs l\nif 3 { skip } else { skip }", 2, 4, "guard must be boolean"),
        ("locs i\nwhile i + 1 { i := 0 }", 2, 7, "guard must be boolean"),
        ("locs l\nl := unif(3)", 2, 6, "assignment needs a natural-valued expression"),
        ("locs l\narray a[2]\na[l <= 1] := 0", 3, 3, "array index must be a natural"),
        ("locs l\narray a[2]\nl := a[(l == 0)]", 3, 8, "array index must be a natural"),
        ("locs l\nsample l 1 + l", 2, 10, "sampling needs a distribution expression"),
        ("locs l\nsample l unif(l == 1)", 2, 15, "unif needs a natural bound"),
        ("locs l\nl := (l <= 1) * 2", 2, 15, "operator * needs natural operands"),
        ("locs l\nl := 1 + unif(2)", 2, 8, "operator + needs natural operands"),
    ],
)
def test_type_errors_carry_a_position(src, line, col, message):
    with pytest.raises(ImpError) as e:
        parse_imp(src)
    assert str(e.value) == f"{line}:{col}: {message}"


_OLD_PRED_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<sv>[st])\.(?P<loc>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>==|<=|&&|\|\||tt|ff|\(|\)))"
)


def _old_parse_store_pred(src: str):
    """The predicate parser the command line had before predicates shared
    the .imp grammar, kept unchanged as the reference for parity:
    atoms `s.loc`, `t.loc`, integers; comparisons ==, <=; && and ||;
    constants tt/ff.  `s` is the left store, `t` the right; an array
    name compares whole arrays."""
    toks = []
    pos = 0
    while pos < len(src):
        m = _OLD_PRED_TOKEN.match(src, pos)
        if not m:
            if src[pos:].strip():
                raise ValueError(f"bad predicate near {src[pos:]!r}")
            break
        pos = m.end()
        if m.group("num"):
            toks.append(("num", int(m.group("num"))))
        elif m.group("sv"):
            toks.append(("read", (m.group("sv"), m.group("loc"))))
        else:
            toks.append(("op", m.group("op")))

    def parse_or(i):
        lhs, i = parse_and(i)
        while i < len(toks) and toks[i] == ("op", "||"):
            rhs, i = parse_and(i + 1)
            l = lhs
            lhs = (lambda a, b, l=l, r=rhs: min(l(a, b), r(a, b)))
        return lhs, i

    def parse_and(i):
        lhs, i = parse_cmp(i)
        while i < len(toks) and toks[i] == ("op", "&&"):
            rhs, i = parse_cmp(i + 1)
            l = lhs
            lhs = (lambda a, b, l=l, r=rhs: max(l(a, b), r(a, b)))
        return lhs, i

    def tok(i):
        if i >= len(toks):
            raise ValueError("predicate ends too early")
        return toks[i]

    def atom(i):
        kind, val = tok(i)
        if kind == "num":
            return (lambda a, b, v=val: v), i + 1
        if kind == "read":
            side, loc = val

            def read(a, b, side=side, loc=loc):
                store = a if side == "s" else b
                if loc in store.slots:
                    return store.get(loc)
                arr = store.array(loc)
                if not arr:
                    raise ValueError(
                        f"{side}.{loc} is neither a location nor an array of the store"
                    )
                return arr

            return read, i + 1
        if val == "(":
            return group(i)
        raise ValueError(f"bad predicate atom {val!r}")

    def parse_cmp(i):
        kind, val = tok(i)
        if kind == "op" and val == "tt":
            return (lambda a, b: 0.0), i + 1
        if kind == "op" and val == "ff":
            return (lambda a, b: 1.0), i + 1
        if kind == "op" and val == "(":
            return group(i)
        lhs, i = atom(i)
        op = tok(i)[1]
        rhs, i = atom(i + 1)
        if op == "==":
            return (lambda a, b, l=lhs, r=rhs: 0.0 if l(a, b) == r(a, b) else 1.0), i
        if op == "<=":
            return (lambda a, b, l=lhs, r=rhs: 0.0 if l(a, b) <= r(a, b) else 1.0), i
        raise ValueError(f"bad comparison {op!r}")

    def group(i):
        # a parenthesised boolean group
        f, i = parse_or(i + 1)
        if tok(i) != ("op", ")"):
            raise ValueError("predicate is missing a ')'")
        return f, i + 1

    f, i = parse_or(0)
    if i != len(toks):
        raise ValueError("trailing predicate input")
    return f


def _pred_store_pairs():
    """36 pairs over one layout: locations l, m and an array arr[2]."""
    stores = [
        Store.of({"l": l, "m": 1, ("arr", 0): a, ("arr", 1): 1})
        for l in range(3) for a in range(2)
    ]
    return [(s, t) for s in stores for t in stores]


def _pred_outcome(pred, s, t):
    try:
        return pred(s, t)
    except (ValueError, TypeError) as e:  # ImpError is a ValueError
        return isinstance(e, TypeError), str(e)


def _assert_pred_parity(src, must_accept):
    """Where the reference parser accepts ``src``, the new one does too,
    with the same value or the same error on every store pair; where
    the new one rejects it, the error is an ImpError with a position."""
    try:
        old = _old_parse_store_pred(src)
    except ValueError:
        assert not must_accept, src
        old = None
    try:
        new = parse_store_pred(src)
    except ImpError as e:
        assert old is None and e.line is not None, (src, str(e))
        return
    if old is not None:
        for s, t in _pred_store_pairs():
            assert _pred_outcome(new, s, t) == _pred_outcome(old, s, t), (src, s, t)


@pytest.mark.parametrize(
    "src",
    ["s.l == (t.l == 1)", "s.arr <= (tt)", "s.arr == t.arr || s.zz == 0",
     "(s.l<=t.l)&&ff||tt", "s.l == 3tt", "((tt))", "s.arr <= 1"],
)
def test_predicates_keep_the_reference_semantics(src):
    _assert_pred_parity(src, must_accept=False)


def test_predicate_parity_property():
    """Strings of the reference grammar, and soups of its tokens."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    reads = st.sampled_from(["s.l", "t.l", "s.m", "t.arr", "s.arr", "t.zz"])
    nums = st.integers(0, 3).map(str)

    def compare(right):  # a group is an operand on the right only
        ops = st.sampled_from(["==", "<="])
        return st.tuples(st.one_of(nums, reads), ops, right).map(" ".join)

    preds = st.recursive(
        st.one_of(st.sampled_from(["tt", "ff"]), compare(st.one_of(nums, reads))),
        lambda inner: st.one_of(
            inner.map("( {} )".format),
            st.tuples(inner, st.sampled_from(["&&", "||"]), inner).map(" ".join),
            compare(inner.map("( {} )".format)),
        ),
        max_leaves=6,
    )
    gaps = st.sampled_from([" ", "", "  "])
    vocab = ["s.l", "t.arr", "s.zz", "0", "3", "==", "<=", "&&", "||", "tt", "ff",
             "(", ")"]

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(preds, gaps)
    def grammar(src, gap):
        _assert_pred_parity(src.replace(" ", gap), must_accept=True)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.lists(st.sampled_from(vocab), max_size=10), gaps)
    def soup(tokens, gap):
        _assert_pred_parity(gap.join(tokens), must_accept=False)

    grammar()
    soup()
