"""Derivation checking, semantic checking, couplings in the logic."""

import json
import os
import random
from fractions import Fraction as F

import pytest

from conftest import corpus
from qlog.evaluator import EnumSpec, EvalConfig, Evaluator
from qlog.grades import Grade, INF
from qlog.logic import (
    RULES,
    check_derivation,
    check_semantic,
    coupling_value,
    derivation_from_json,
    load_derivation_file,
)
from qlog.measures import Coupling, Dist, dirac, optimal_coupling
from qlog.parser import parse_term, parse_type
from qlog.sampling import sample_envs
from qlog import terms as T
from qlog.terms import TypeCtx
from qlog.typecheck import Checker
from qlog.values import Approx

DERIVS = corpus("derivs")
ENUMS = EnumSpec(json.load(open(corpus("enums", "default.json"))))


def _load(fname):
    with open(os.path.join(DERIVS, fname)) as fh:
        return load_derivation_file(fh.read(), base_dir=DERIVS)


def _tools(qfile):
    ck = Checker(qfile.alphabets if qfile else {})
    ev = Evaluator(ck, EvalConfig(fuel=60, tol=1e-4, enums=ENUMS))
    return ck, ev


@pytest.mark.parametrize("fname", sorted(os.listdir(DERIVS)))
def test_corpus_derivation(fname):
    qfile, deriv = _load(fname)
    ck, ev = _tools(qfile)
    rep = check_derivation(ck, deriv, qfile)
    assert rep.ok, rep.error
    envs = sample_envs(ev, deriv.judgment.delta, 20, seed=0)
    sem = check_semantic(ev, deriv.judgment, envs, tol=1e-3)
    assert sem.ok, sem.violations[:2]


def _term_nodes(terms):
    """Every term node under ``terms``, by identity."""
    nodes, todo = {}, list(terms)
    while todo:
        t = todo.pop()
        if id(t) not in nodes:
            nodes[id(t)] = t
            todo.extend(c for _, c in T.children(t))
    return nodes


def test_check_semantic_analyses_each_term_node_once():
    qfile, deriv = _load("30_congruence_mix.json")
    ck, ev = _tools(qfile)
    j = deriv.judgment
    envs = sample_envs(ev, j.delta, 200, seed=0)
    assert check_semantic(ev, j, envs, tol=1e-3).ok
    nodes = _term_nodes([*j.hyps, j.goal])
    assert {id(t) for t in ev._analysed} == set(nodes)
    assert len(ev._analysed) == len(nodes) < len(envs)


@pytest.mark.parametrize(
    "fname", ["24_exists_intro.json", "26_forall_intro.json", "30_congruence_mix.json",
              "31_ind_tensor.json", "34_ind_dist.json"],
)
def test_analysed_terms_match_a_fresh_evaluator(fname):
    qfile, deriv = _load(fname)
    ck, ev = _tools(qfile)
    j = deriv.judgment
    j.well_formed(ck)
    for env in sample_envs(ev, j.delta, 50, seed=7):
        for t in [*j.hyps, j.goal]:
            kept, fresh = ev.eval(env, t), _tools(qfile)[1].eval(env, t)
            assert repr(kept) == repr(fresh)


def test_rule_coverage_is_complete():
    seen = set()

    def visit(d):
        seen.add(d.rule)
        for c in d.children:
            visit(c)

    files = sorted(os.listdir(DERIVS))
    assert len(files) >= 25
    for fname in files:
        _, deriv = _load(fname)
        visit(deriv)
    assert seen == set(RULES)


def test_classical_rule_is_flagged():
    qfile, deriv = _load("17_classical_explosion.json")
    ck, _ = _tools(qfile)
    rep = check_derivation(ck, deriv, qfile)
    assert rep.ok and rep.classical_rules_used


def _simple(rule, hyps, goal, params=None, children=None, delta=None):
    return derivation_from_json(
        {
            "rule": rule,
            "judgment": {
                "delta": delta or [["x", "Nat"], ["y", "Nat"]],
                "hyps": hyps,
                "goal": goal,
            },
            **({"params": params} if params else {}),
            "children": children or [],
        }
    )


def test_bad_derivations_rejected():
    ck = Checker()
    # assumption must match the last hypothesis
    bad = _simple("ass", ["x == y"], "y == x")
    assert not check_derivation(ck, bad).ok
    # guarded recursion needs p in (0,1)
    inner = {
        "rule": "ass",
        "judgment": {
            "delta": [["x", "Nat"], ["y", "Nat"]],
            "hyps": ["[1] (x == y)"],
            "goal": "x == y",
        },
        "children": [],
    }
    bad2 = derivation_from_json(
        {
            "rule": "g-rec",
            "judgment": {
                "delta": [["x", "Nat"], ["y", "Nat"]],
                "hyps": [],
                "goal": "x == y",
            },
            "params": {"p": "1"},
            "children": [inner],
        }
    )
    rep = check_derivation(ck, bad2)
    assert not rep.ok and "(0,1)" in rep.error
    # eq-e with a hole used above its declared sensitivity
    bad3 = derivation_from_json(
        {
            "rule": "eq-e",
            "judgment": {
                "delta": [["x", "Nat"], ["y", "Nat"]],
                "hyps": ["[1/2] (x == y)"],
                "goal": "y == y",
            },
            "params": {
                "var": "w",
                "phi": "w == w",
                "r": "1/2",
                "type": "Nat",
                "t": "x",
                "u": "y",
            },
            "children": [
                {
                    "rule": "eq-i",
                    "judgment": {
                        "delta": [["x", "Nat"], ["y", "Nat"]],
                        "hyps": [],
                        "goal": "x == x",
                    },
                    "children": [],
                },
                {
                    "rule": "ass",
                    "judgment": {
                        "delta": [["x", "Nat"], ["y", "Nat"]],
                        "hyps": ["[1/2] (x == y)"],
                        "goal": "[1/2] (x == y)",
                    },
                    "children": [],
                },
            ],
        }
    )
    rep3 = check_derivation(ck, bad3)
    assert not rep3.ok and "grade" in rep3.error


def test_exists_elim_infinite_grade_rejected():
    bad = derivation_from_json(
        {
            "rule": "exists-e",
            "judgment": {
                "delta": [["y", "Nat"]],
                "hyps": ["[inf] (exists v : Nat. v == y)"],
                "goal": "tt",
            },
            "children": [
                {
                    "rule": "true",
                    "judgment": {
                        "delta": [["y", "Nat"], ["w", "Nat"]],
                        "hyps": ["[inf] (w == y)"],
                        "goal": "tt",
                    },
                    "children": [],
                }
            ],
        }
    )
    rep = check_derivation(Checker(), bad)
    assert not rep.ok and "finite" in rep.error


def test_semantic_check_catches_false_judgments():
    ck = Checker()
    ev = Evaluator(ck, EvalConfig(enums=ENUMS))
    bad = _simple("ass", [], "x == y").judgment
    bad.hyps = []
    envs = sample_envs(ev, bad.delta, 30, seed=3)
    rep = check_semantic(ev, bad, envs, tol=1e-6)
    assert not rep.ok and rep.violations


def test_semantic_margins_are_reported():
    qfile, deriv = _load("29_transitivity.json")
    ck, ev = _tools(qfile)
    envs = sample_envs(ev, deriv.judgment.delta, 20, seed=0)
    rep = check_semantic(ev, deriv.judgment, envs, tol=1e-3)
    assert len(rep.margins) == 20
    assert min(rep.margins) >= 0


DISC = lambda a, b: 0.0 if a == b else 1.0
MU = Dist.from_pairs([(0, F(1, 2)), (1, F(1, 2))])
NU = Dist.from_pairs([(0, F(1, 4)), (1, F(3, 4))])


def test_coupling_value_examples():
    ck = Checker()
    ev = Evaluator(ck, EvalConfig())
    eq_rel = DISC
    diag = Coupling(Dist.from_pairs([((0, 0), F(1, 2)), ((1, 1), F(1, 2))]))
    assert coupling_value(ev, eq_rel, diag, MU, MU, DISC).value == 0.0
    product = Coupling(
        Dist.from_pairs(
            [((x, y), wx * wy) for x, wx in MU.points for y, wy in NU.points]
        )
    )
    assert coupling_value(ev, eq_rel, product, MU, NU, DISC).value == pytest.approx(0.5)
    best = optimal_coupling(DISC, MU, NU)
    assert coupling_value(ev, eq_rel, best, MU, NU, DISC).value == pytest.approx(0.25)
    # marginal mismatch is charged
    off = Coupling(Dist.from_pairs([((0, 0), F(1))]))
    assert coupling_value(ev, eq_rel, off, MU, NU, DISC).value > 0.5


def test_convex_combination_of_couplings_lemma():
    rng = random.Random(51)
    ck = Checker()
    ev = Evaluator(ck, EvalConfig())
    from qlog.measures import convex
    from qlog.sampling import sample_value

    for _ in range(25):
        m1 = sample_value(ev, parse_type("Dist Nat"), rng)
        m2 = sample_value(ev, parse_type("Dist Nat"), rng)
        n1 = sample_value(ev, parse_type("Dist Nat"), rng)
        n2 = sample_value(ev, parse_type("Dist Nat"), rng)
        p = F(rng.randrange(1, 8), 8)
        r1 = optimal_coupling(DISC, m1, n1)
        r2 = optimal_coupling(DISC, m2, n2)
        v1 = coupling_value(ev, DISC, r1, m1, n1, DISC).value
        v2 = coupling_value(ev, DISC, r2, m2, n2, DISC).value
        mixed = Coupling(convex(p, r1.joint, r2.joint))
        vm = coupling_value(
            ev, DISC, mixed, convex(p, m1, m2), convex(p, n1, n2), DISC
        ).value
        assert vm <= float(p) * v1 + float(1 - p) * v2 + 1e-9


def test_leibniz_direction_on_probes():
    """sup over probe predicates of (phi(x) -* phi(y)) is below r*d(x,y)."""
    rng = random.Random(52)
    ck = Checker()
    ev = Evaluator(ck, EvalConfig())
    nat = parse_type("Nat")
    anchors = [0, 1, 2, 5]
    for _ in range(50):
        x = rng.randrange(0, 6)
        y = rng.randrange(0, 6)
        d = ev.distance_at(nat, x, y).value
        for a in anchors:  # probe predicates: distance to an anchor
            px = ev.distance_at(nat, x, a).value
            py = ev.distance_at(nat, y, a).value
            assert max(py - px, 0.0) <= d + 1e-12


def test_uniqueness_of_global_fixed_points():
    """A global fixed point coincides with the constructed one."""
    ck = Checker()
    ev = Evaluator(ck, EvalConfig(fuel=60, tol=1e-9))
    t = parse_term("fix x : Dist Nat. delta(zero) (+ 1/2) map(succ, x)")
    ck.elaborate(t, parse_type("Dist Nat"))
    ck.synthesize({}, t)
    constructed = ev.eval({}, t)
    # evaluate the body at the constructed point: it should not move
    body = parse_term("delta(zero) (+ 1/2) map(succ, x)")
    ck.synthesize({"x": parse_type("Dist Nat")}, body)
    moved = ev.eval({"x": constructed}, body)
    d = ev.distance_at(parse_type("Dist Nat"), constructed.value, moved.value)
    assert d.value <= constructed.radius + moved.radius + 1e-9


def test_every_rule_has_one_handler():
    """Each row of ``RULES`` is checked by a ``_rule_*`` method, and no
    handler is left without a row."""
    from qlog.logic import DerivationChecker

    handlers = {m for m in dir(DerivationChecker) if m.startswith("_rule_")}
    assert handlers == {"_rule_" + r.replace("-", "_") for r in RULES}


def _mutant(fname, edit):
    """Checks a corpus derivation after ``edit`` changes its root node."""
    with open(os.path.join(DERIVS, fname)) as fh:
        obj = json.load(fh)
    edit(obj["derivation"])
    qfile, deriv = load_derivation_file(json.dumps(obj), base_dir=DERIVS)
    return check_derivation(Checker(qfile.alphabets if qfile else {}), deriv, qfile)


@pytest.mark.parametrize("delta", [[["n0", "Dist Nat"], ["junk", "Unit"]], []])
def test_ind_nat_base_premise_keeps_the_conclusion_context(delta):
    rep = _mutant("33_ind_nat.json",
                  lambda n: n["children"][0]["judgment"].update(delta=delta))
    assert not rep.ok
    assert rep.error == "root [ind-nat]: premise context differs from conclusion context"


@pytest.mark.parametrize(
    "fname, edit, where",
    [
        ("09_scale_assoc_collapse.json",
         lambda n: n["judgment"]["hyps"].append("tt"), "root [assoc1]"),
        ("06_duplication.json",
         lambda n: n["children"][0].update(rule="assoc1"), "root.0 [assoc1]"),
        ("06_duplication.json",
         lambda n: n["children"][0].update(rule="inc"), "root.0 [inc]"),
    ],
)
def test_hypothesis_position_is_checked_against_every_list(fname, edit, where):
    rep = _mutant(fname, edit)
    assert not rep.ok and rep.error == f"{where}: position out of range"
