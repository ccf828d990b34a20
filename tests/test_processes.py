"""Process distances, unfolding, and markov-style case studies."""

import itertools
import random
from fractions import Fraction as F

import pytest

from conftest import corpus
from qlog.evaluator import EvalConfig, Evaluator
from qlog.grades import Grade
from qlog.measures import Dist, dirac, kantorovich
from qlog.parser import parse_file
from qlog.processes import (
    ProcessError,
    behavioral_distance,
    bisimilarity_distance,
    unfold_process,
)
from qlog.typecheck import Checker
from qlog.values import Approx, VProc, deref


def load(fname, fuel=400, tol=1e-4):
    with open(corpus(fname)) as fh:
        qfile = parse_file(fh.read())
    ck = Checker(qfile.alphabets)
    ev = Evaluator(ck, EvalConfig(fuel=fuel, tol=tol))
    env = {nm: Approx(ev.canonical_seed(ty)) for nm, _, ty in qfile.ctx.bindings}
    vals = {}
    for nm, d in qfile.defs.items():
        ck.check(qfile.ctx, d.term, d.declared_type)
        vals[nm] = ev.eval(env, d.term)
    return qfile, ev, vals


def test_unfold_depth_zero_is_label():
    _, ev, vals = load("markov.qlog")
    tree, res = unfold_process(ev, vals["m"].value, 0)
    assert tree == {"label": "Hd"} and res == 1.0


def test_unfold_residual_geometric():
    _, ev, vals = load("markov.qlog")
    for depth in (1, 2, 3, 5):
        _, res = unfold_process(ev, vals["m"].value, depth)
        assert res == pytest.approx((1 / 3) ** depth)


def test_unfold_residual_coin_is_one():
    _, ev, vals = load("coin_half.qlog")
    for depth in (1, 3):
        _, res = unfold_process(ev, vals["hd"].value, depth)
        assert res == 1.0  # every branch stays inside the recursion


def test_identical_processes_distance_zero():
    _, ev, vals = load("markov.qlog")
    d = behavioral_distance(ev, vals["m"].value, vals["m"].value, Grade(1), 1e-6)
    assert d.value == 0.0 and d.radius == 0.0


def test_markov_quarter():
    _, ev, vals = load("markov.qlog")
    d = behavioral_distance(ev, vals["m"].value, vals["n"].value, Grade(1), 1e-4)
    assert d.value <= 0.25 + 1e-4
    assert d.value >= 0.25 - 1e-3  # the bound is tight for this escape process


@pytest.mark.parametrize(
    "fname,c,eps",
    [
        ("coin_half.qlog", F(1, 2), F(1, 4)),
        ("coin_nine_tenths.qlog", F(9, 10), F(1, 10)),
    ],
)
def test_biased_coin_closed_form(fname, c, eps):
    _, ev, vals = load(fname)
    d = behavioral_distance(ev, vals["hd"].value, vals["hde"].value, Grade(c), 1e-4)
    expect = float(c * eps / (1 - c + c * eps))
    assert d.value == pytest.approx(expect, abs=1e-3)


def test_distinct_labels_force_distance_one():
    _, ev, vals = load("coin_half.qlog")
    d = behavioral_distance(ev, vals["hd"].value, vals["tle"].value, Grade(F(1, 2)), 1e-4)
    assert d.value == 1.0


def test_pseudometric_properties():
    _, ev, vals = load("coin_half.qlog")
    tol = 1e-4
    nodes = [vals[n].value for n in ("hd", "tl", "hde", "tle")]
    c = Grade(F(1, 2))
    d = {}
    for i, a in enumerate(nodes):
        for j, b in enumerate(nodes):
            d[(i, j)] = behavioral_distance(ev, a, b, c, tol).value
    for i, j in itertools.product(range(4), repeat=2):
        assert d[(i, j)] == pytest.approx(d[(j, i)], abs=3 * tol)
        for k in range(4):
            assert d[(i, j)] <= d[(i, k)] + d[(k, j)] + 3 * tol


def test_congruence_fold_isometry():
    """d(<a, mu>, <a, nu>) = min(c * K(mu, nu), 1)."""
    _, ev, vals = load("coin_half.qlog")
    hd = deref(vals["hd"].value)
    tl = deref(vals["tl"].value)
    c = F(1, 2)
    mu = Dist.from_pairs([(hd, F(1, 2)), (tl, F(1, 2))])
    nu = Dist.from_pairs([(hd, F(1, 8)), (tl, F(7, 8))])
    a = VProc("Hd", mu)
    b = VProc("Hd", nu)
    tol = 1e-6
    got = behavioral_distance(ev, a, b, Grade(c), tol)
    ground = lambda u, v: behavioral_distance(
        ev, u, v, Grade(c), tol
    ).value
    want = min(float(c) * kantorovich(ground, mu, nu), 1.0)
    assert got.value == pytest.approx(want, abs=1e-4)


def test_monotone_convergence_of_iterates():
    """Value iteration increases and its steps shrink with the factor."""
    from qlog.transport import solve_transport

    _, ev, vals = load("coin_half.qlog")
    a = deref(vals["hd"].value)
    b = deref(vals["hde"].value)
    cf = 0.5
    # replicate the iteration over the reachable pairs by hand
    from qlog.processes import _reachable_pairs, _step_nodes

    pairs = _reachable_pairs(a, b)
    D = {(id(x), id(y)): 0.0 for x, y in pairs}
    prev_delta = None
    for _ in range(12):
        fresh = {}
        for x, y in pairs:
            if id(x) == id(y):
                fresh[(id(x), id(y))] = 0.0
                continue
            sx, sy = _step_nodes(x), _step_nodes(y)
            costs = [
                [F(D[(id(u), id(v))]) for v, _ in sy] for u, _ in sx
            ]
            opt, _ = solve_transport(
                [w for _, w in sx], [w for _, w in sy], costs
            )
            lab = 0.0 if x.label == y.label else 1.0
            fresh[(id(x), id(y))] = min(lab + cf * float(opt), 1.0)
        delta = max(abs(fresh[k] - D[k]) for k in D)
        assert all(fresh[k] >= D[k] - 1e-12 for k in D)  # nondecreasing
        if prev_delta is not None:
            assert delta <= cf * prev_delta + 1e-12
        prev_delta = delta
        D = fresh


def test_bisimilarity_requires_contraction():
    _, ev, vals = load("markov.qlog")
    with pytest.raises(ProcessError):
        bisimilarity_distance(ev, vals["m"].value, vals["n"].value, Grade(1), 1e-4)


def test_bisimilarity_agrees_with_behavioral():
    tol = 1e-4
    for fname, c in (
        ("coin_half.qlog", F(1, 2)),
        ("coin_nine_tenths.qlog", F(9, 10)),
    ):
        _, ev, vals = load(fname)
        names = ["hd", "tl", "hde", "tle"]
        for i, x in enumerate(names):
            for y in names[i:]:
                bd = behavioral_distance(ev, vals[x].value, vals[y].value, Grade(c), tol)
                bs = bisimilarity_distance(ev, vals[x].value, vals[y].value, Grade(c), tol)
                assert abs(bd.value - bs.value) <= 2 * tol


# Both routes on the corpus pairs, as float.hex of (value, radius); the
# figures are those of the Fraction simplex and the per-round step
# rebuild that the integer simplex and the hoisted step data replaced.
PINNED = [
    ("coin_half.qlog", "hd", "hde", behavioral_distance, F(1, 2),
     "0x1.998a390000013p-3", "0x1.338c00000cccap-14"),
    ("coin_half.qlog", "hd", "hde", bisimilarity_distance, F(1, 2),
     "0x1.99994bc090000p-3", "0x1.0000000000000p-14"),
    ("coin_half.qlog", "hd", "hde", bisimilarity_distance, F(9, 10),
     "0x1.627627627626fp-1", "0x1.8a753d83eaa71p-14"),
    ("markov.qlog", "m", "n", behavioral_distance, F(1),
     "0x1.ffec05c654ac8p-3", "0x1.3fa39ab55f98ep-14"),
    ("markov.qlog", "m", "n", bisimilarity_distance, F(1, 2),
     "0x1.9999999912e78p-4", "0x1.0000000000000p-14"),
    ("markov.qlog", "m", "n", bisimilarity_distance, F(9, 10),
     "0x1.b6db6db6db6dbp-3", "0x1.8a753d83eaa71p-14"),
]


@pytest.mark.parametrize("fname,left,right,route,c,value,radius", PINNED)
def test_process_distances_pinned(fname, left, right, route, c, value, radius):
    _, ev, vals = load(fname)
    d = route(ev, vals[left].value, vals[right].value, Grade(c), 1e-4)
    assert (d.value.hex(), d.radius.hex()) == (value, radius)


@pytest.mark.parametrize("route", [behavioral_distance, bisimilarity_distance])
@pytest.mark.parametrize("c", [F(1, 2), F(9, 10)])
def test_radius_at_tol_zero_bounds_the_error(route, c):
    # iterating until the radius underflowed once reported radius 0.0
    # for the float value 0.19999999999999998 of the exact 1/5
    _, ev, vals = load("coin_half.qlog")
    d = route(ev, vals["hd"].value, vals["hde"].value, Grade(c), 0.0)
    eps = F(1, 4)
    assert d.radius > 0
    assert abs(F(d.value) - c * eps / (1 - c + c * eps)) <= F(d.radius)


@pytest.mark.parametrize("route", [behavioral_distance, bisimilarity_distance])
def test_residual_step_mass_rejected(route):
    _, ev, vals = load("coin_half.qlog")
    hd = deref(vals["hd"].value)
    leaky = VProc("Hd", Dist.from_pairs([(hd, F(1, 2))], residual_div=F(1, 2)))
    with pytest.raises(ProcessError, match="residual mass"):
        route(ev, leaky, hd, Grade(F(1, 2)), 1e-4)
