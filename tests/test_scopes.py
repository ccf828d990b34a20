"""The binding table ``terms.SCOPES`` and the traversals that read it.

``free_vars``, ``substitute`` and ``alpha_key`` are compared with
test-local copies of the per-binder versions they replaced: free sets,
substitution results (printed, keyed and by identity, with the same
fresh names) and alpha-key tuples, which ``normalize`` sorts Mix leaves
by, so they must stay the same byte for byte.  Label resolution must
leave names bound by a scope as variables.
"""

import dataclasses
import itertools
import json
import os
import typing
from fractions import Fraction

import pytest

from conftest import CORPUS, corpus
from qlog import terms as T
from qlog.cli import main
from qlog.grades import Grade, ONE
from qlog.logic import load_derivation_file
from qlog.parser import parse_file, parse_term
from qlog.printer import print_term


# -- the replaced functions, kept verbatim as the reference ------------------


def ref_free_vars(t):
    if isinstance(t, T.Var):
        return {t.name}
    if isinstance(t, (T.Lam, T.Fix, T.LetSample, T.Exists, T.Forall)):
        inner = ref_free_vars(t.body) - {t.name}
        if isinstance(t, T.LetSample):
            inner |= ref_free_vars(t.bound)
        return inner
    if isinstance(t, T.LetTensor):
        return ref_free_vars(t.bound) | (
            ref_free_vars(t.body) - {t.left_name, t.right_name}
        )
    if isinstance(t, T.Case):
        return (
            ref_free_vars(t.scrut)
            | (ref_free_vars(t.left_body) - {t.left_name})
            | (ref_free_vars(t.right_body) - {t.right_name})
        )
    if isinstance(t, T.NatRec):
        return (
            ref_free_vars(t.zero_case)
            | (ref_free_vars(t.succ_case) - {t.prev_name, t.index_name})
            | ref_free_vars(t.scrut)
        )
    out = set()
    for _, c in T._children(t):
        out |= ref_free_vars(c)
    return out


def ref_substitute(t, name, repl):
    if isinstance(t, T.Var):
        return repl if t.name == name else t
    fv_repl = None

    def sub(u):
        return ref_substitute(u, name, repl)

    def avoid(binder, body):
        nonlocal fv_repl
        if fv_repl is None:
            fv_repl = ref_free_vars(repl)
        if binder in fv_repl:
            newb = T.fresh_name(binder)
            body = ref_substitute(body, binder, T.Var(newb))
            return newb, body
        return binder, body

    if isinstance(t, (T.Lam, T.Fix, T.Exists, T.Forall)):
        if t.name == name:
            return t
        b, body = avoid(t.name, t.body)
        return T._clone(t, name=b, body=sub(body))
    if isinstance(t, T.LetSample):
        bound = sub(t.bound)
        if t.name == name:
            return T._clone(t, bound=bound)
        b, body = avoid(t.name, t.body)
        return T._clone(t, name=b, bound=bound, body=sub(body))
    if isinstance(t, T.LetTensor):
        bound = sub(t.bound)
        if name in (t.left_name, t.right_name):
            return T._clone(t, bound=bound)
        ln, body = avoid(t.left_name, t.body)
        rn, body = avoid(t.right_name, body)
        return T._clone(t, left_name=ln, right_name=rn, bound=bound, body=sub(body))
    if isinstance(t, T.Case):
        scrut = sub(t.scrut)
        lb = t.left_body
        rb = t.right_body
        ln, rn = t.left_name, t.right_name
        if name != ln:
            ln, lb = avoid(ln, lb)
            lb = sub(lb)
        if name != rn:
            rn, rb = avoid(rn, rb)
            rb = sub(rb)
        return T._clone(
            t, scrut=scrut, left_name=ln, left_body=lb, right_name=rn, right_body=rb
        )
    if isinstance(t, T.NatRec):
        z = sub(t.zero_case)
        n = sub(t.scrut)
        sc = t.succ_case
        pn, xn = t.prev_name, t.index_name
        if name not in (pn, xn):
            pn, sc = avoid(pn, sc)
            xn, sc = avoid(xn, sc)
            sc = sub(sc)
        return T._clone(
            t, zero_case=z, prev_name=pn, index_name=xn, succ_case=sc, scrut=n
        )
    updates = {fname: sub(c) for fname, c in T._children(t)}
    if not updates:
        return t
    return T._clone(t, **updates)


def ref_alpha_key(t, env=None, depth=0):
    if env is None:
        env = {}
    if isinstance(t, T.Var):
        if t.name in env:
            return ("bvar", env[t.name])
        return ("fvar", t.name)

    def under(names, body, d):
        e = dict(env)
        for i, n in enumerate(names):
            e[n] = d + i
        return ref_alpha_key(body, e, d + len(names))

    tag = type(t).__name__
    if isinstance(t, (T.Lam, T.Fix, T.Exists, T.Forall)):
        ann = ()
        if isinstance(t, T.Lam):
            ann = (str(t.arg_type), str(t.grade))
        if isinstance(t, T.Fix):
            ann = (str(t.fix_type),)
        if isinstance(t, (T.Exists, T.Forall)):
            ann = (str(t.var_type),)
        return (tag, ann, under([t.name], t.body, depth))
    if isinstance(t, T.LetSample):
        return (tag, ref_alpha_key(t.bound, env, depth), under([t.name], t.body, depth))
    if isinstance(t, T.LetTensor):
        return (
            tag,
            ref_alpha_key(t.bound, env, depth),
            under([t.left_name, t.right_name], t.body, depth),
        )
    if isinstance(t, T.Case):
        return (
            tag,
            ref_alpha_key(t.scrut, env, depth),
            under([t.left_name], t.left_body, depth),
            under([t.right_name], t.right_body, depth),
        )
    if isinstance(t, T.NatRec):
        return (
            tag,
            ref_alpha_key(t.zero_case, env, depth),
            under([t.prev_name, t.index_name], t.succ_case, depth),
            ref_alpha_key(t.scrut, env, depth),
        )
    derived = {"at_type", "bind_grade", "contraction"}
    parts = [tag]
    for f in dataclasses.fields(t):
        if f.name in derived:
            continue
        v = getattr(t, f.name)
        if isinstance(t, T.TensorPair) and f.name in ("r", "s") and v is None:
            v = ONE
        if isinstance(v, T.Term):
            parts.append(ref_alpha_key(v, env, depth))
        elif isinstance(v, (Grade, Fraction, int, str)) or v is None:
            parts.append(str(v))
        elif isinstance(v, T.Type):
            parts.append(str(v))
    return tuple(parts)


# -- inputs -------------------------------------------------------------------


def _subterms(t):
    yield t
    for _, c in T._children(t):
        yield from _subterms(c)


def _binder_names(t):
    return sorted(
        {getattr(u, b) for u in _subterms(t)
         for binders, _ in T.SCOPES.get(type(u), ()) for b in binders}
    )


def _corpus_terms():
    """Every definition of the corpus .qlog files (mutants included), and
    every hypothesis, goal and term parameter of the corpus derivations."""
    out = []
    for where in (CORPUS, corpus("mutants")):
        for fname in sorted(os.listdir(where)):
            if fname.endswith(".qlog"):
                with open(os.path.join(where, fname)) as fh:
                    out += [d.term for d in parse_file(fh.read()).defs.values()]
    derivs = corpus("derivs")
    for fname in sorted(os.listdir(derivs)):
        with open(os.path.join(derivs, fname)) as fh:
            qfile, root = load_derivation_file(fh.read(), base_dir=derivs)
        stack = [root]
        while stack:
            d = stack.pop()
            out += list(d.judgment.hyps) + [d.judgment.goal]
            for key in ("phi", "t", "u", "witness"):
                if key in d.params:
                    out.append(parse_term(str(d.params[key]), qfile))
            stack += d.children
    return out


CORPUS_TERMS = _corpus_terms()
SUBTERMS = [u for t in CORPUS_TERMS for u in _subterms(t)]


def _same_substitution(monkeypatch, t, name, repl):
    monkeypatch.setattr(T, "_fresh_counter", itertools.count())
    new = T.substitute(t, name, repl)
    monkeypatch.setattr(T, "_fresh_counter", itertools.count())
    old = ref_substitute(t, name, repl)
    assert print_term(new) == print_term(old)
    assert ref_alpha_key(new) == ref_alpha_key(old)
    assert (new is t) == (old is t)
    return new


def test_corpus_inputs_cover_every_binder_form():
    assert len(SUBTERMS) > 1000
    assert {type(u) for u in SUBTERMS} >= set(T.SCOPES)


def test_free_vars_and_alpha_keys_match_reference():
    for u in SUBTERMS:
        assert T.free_vars(u) == ref_free_vars(u)
        assert T.alpha_key(u) == ref_alpha_key(u)
        assert repr(T.alpha_key(u)) == repr(ref_alpha_key(u))


def test_substitution_matches_reference_on_corpus(monkeypatch):
    renamed = 0
    for u in SUBTERMS:
        names = _binder_names(u)
        # a replacement whose free variables are every binder name of u,
        # so each binder over an occurrence must be renamed
        capture = T.Var("zz")
        for n in names:
            capture = T.Pair(T.Var(n), capture)
        for name in sorted(T.free_vars(u)) + ["zz", *names[:1]]:
            for repl in (T.Zero(), capture):
                new = _same_substitution(monkeypatch, u, name, repl)
                renamed += print_term(new).count("_")
    assert renamed > 0


# -- capture under every binder form (property) --------------------------------

NAMES = ["a", "b", "x", "y"]


def _scope_fields(cls):
    scopes = T.SCOPES[cls]
    return {b for binders, _ in scopes for b in binders}, {body for _, body in scopes}


def _build(cls, names, bodies, outer):
    """cls with its binder fields from names, scope bodies from bodies
    and other Term fields from outer; annotations stay at their
    defaults (a required type becomes Nat)."""
    hints = typing.get_type_hints(cls)
    binder_fields, body_fields = _scope_fields(cls)
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in binder_fields:
            kwargs[f.name] = next(names)
        elif f.name in body_fields:
            kwargs[f.name] = next(bodies)
        elif hints[f.name] is T.Term:
            kwargs[f.name] = next(outer)
        elif f.default is dataclasses.MISSING:
            kwargs[f.name] = T.TNat()
    return cls(**kwargs)


def _strategies(st):
    """Random terms over NAMES (not necessarily well typed), and binder
    forms whose every scope binds a or b over a free x."""
    leaf = st.one_of(st.sampled_from(NAMES).map(T.Var), st.just(T.Zero()))

    def two(s):
        return st.tuples(s, s).map(iter)

    def extend(kids):
        binder = st.one_of(
            [st.builds(_build, st.just(cls), two(st.sampled_from(NAMES)), two(kids),
                       two(kids)) for cls in T.SCOPES]
        )
        return st.one_of(st.builds(T.App, kids, kids), st.builds(T.Succ, kids), binder)

    terms = st.recursive(leaf, extend, max_leaves=6)
    filler = st.sampled_from(
        [T.Zero(), T.Var("a"), T.Var("x"), T.App(T.Var("b"), T.Var("x")),
         T.Lam("x", T.Var("a")), T.Lam("a", T.Var("x"))]
    )

    def scoped_x(rest):
        return T.Pair(T.Var("x"), T.Pair(T.Var("a"), T.Pair(T.Var("b"), rest)))

    capturing = st.one_of(
        [st.builds(_build, st.just(cls), two(st.sampled_from(["a", "b"])),
                   two(filler.map(scoped_x)), two(filler)) for cls in T.SCOPES]
    )
    return terms, capturing


def test_substitution_renames_every_capturing_binder():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    _, capturing = _strategies(st)
    repl = T.Pair(T.Var("a"), T.Var("b"))

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(capturing)
    def check(t):
        with pytest.MonkeyPatch.context() as mp:
            new = _same_substitution(mp, t, "x", repl)
        assert T.free_vars(new) == (T.free_vars(t) - {"x"}) | {"a", "b"}
        binder_fields, _ = _scope_fields(type(t))
        for b in binder_fields:  # both names of LetTensor/NatRec, both Case arms
            assert getattr(new, b) not in ("a", "b")

    check()


def test_random_terms_match_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    terms, _ = _strategies(st)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(terms, st.sampled_from(NAMES), terms)
    def check(t, name, repl):
        assert T.free_vars(t) == ref_free_vars(t)
        assert T.alpha_key(t) == ref_alpha_key(t)
        with pytest.MonkeyPatch.context() as mp:
            _same_substitution(mp, t, name, repl)

    check()


# -- label resolution -----------------------------------------------------------

SHADOWING = """alphabet C = { Hd, Tl }
def f : Nat -o Nat = fn Hd : Nat. succ Hd
def g : Nat = let (Hd, y) = (1, 2) in Hd
def h : C + C = case inj1[C + C] Tl { inj1 Tl => inj1 Tl | inj2 Hd => inj2 Hd }
def k : C = Hd
"""


def test_bound_names_shadow_labels():
    qfile = parse_file(SHADOWING)
    f, g, h, k = (qfile.defs[n].term for n in "fghk")
    assert isinstance(f.body.body, T.Var)
    assert isinstance(g.body, T.Var) and g.body.name == "Hd"
    assert isinstance(h.scrut.body, T.Label)  # free: the scrutinee
    assert isinstance(h.left_body.body, T.Var)
    assert isinstance(h.right_body.body, T.Var)
    assert isinstance(k, T.Label) and k.alphabet == "C"


def test_shadowing_files_check(tmp_path, capsys):
    src = tmp_path / "shadow.qlog"
    src.write_text(SHADOWING)
    assert main(["check", str(src), "--format", "json"]) == 0
    defs = json.loads(capsys.readouterr().out)["files"][0]["defs"]
    assert [d["type"] for d in defs] == ["(Nat -o Nat)", "Nat", "(C + C)", "C"]
