"""The term parser: parity with the recursive-descent parser it replaced,
print/parse round trips, and the Python stack it needs per nesting level."""

import dataclasses
import itertools
import random
import sys
from fractions import Fraction

import pytest

from conftest import CORPUS, DNAT, NAT, PROP, gen_term
from qlog import parser as P
from qlog import terms as T
from qlog.grades import Grade, INF, ONE
from qlog.parser import KEYWORDS, Parser, QlogSyntaxError, make_kant, parse_term
from qlog.printer import print_term


class _ParentParser(Parser):
    """The term grammar as it was before ``terms.INFIX``, one method per
    precedence level, with the number and type readers it called, kept
    unchanged as the reference for parity."""

    # -- numbers -------------------------------------------------------

    def rational(self) -> Fraction:
        t = self.next()
        if t.kind != "num":
            raise QlogSyntaxError(f"expected number, got {t.text!r}", t.line, t.col)
        if self.at("/"):
            self.next()
            den = self.next()
            if den.kind != "num":
                raise QlogSyntaxError("expected denominator", den.line, den.col)
            return Fraction(int(t.text), int(den.text))
        if self.at(".") and self.peek(1) is not None and self.peek(1).kind == "num":
            self.next()
            frac = self.next()
            return Fraction(f"{t.text}.{frac.text}")
        return Fraction(int(t.text))

    def grade(self) -> Grade:
        if self.at("inf"):
            self.next()
            return INF
        return Grade(self.rational())

    # -- types -----------------------------------------------------------

    def type_(self) -> T.Type:
        left = self._type_sum()
        if self.at("-o"):
            self.next()
            r = ONE
            if self.at("["):
                self.next()
                r = self.grade()
                self.expect("]")
            right = self.type_()
            return T.TLolli(left, r, right)
        return left

    def _type_sum(self) -> T.Type:
        left = self._type_tensor()
        while self.at("+"):
            self.next()
            left = T.TSum(left, self._type_tensor())
        return left

    def _type_tensor(self) -> T.Type:
        left = self._type_prod()
        while self.at("*"):
            self.next()
            r = s = ONE
            if self.at("["):
                self.next()
                r = self.grade()
                self.expect(",")
                s = self.grade()
                self.expect("]")
            left = T.TTensor(left, r, s, self._type_prod())
        return left

    def _type_prod(self) -> T.Type:
        left = self._type_atom()
        while self.at("&"):
            self.next()
            left = T.TProd(left, self._type_atom())
        return left

    def _type_atom(self) -> T.Type:
        t = self.next()
        if t.text == "Nat":
            return T.TNat()
        if t.text == "Unit":
            return T.TUnit()
        if t.text == "Prop":
            return T.TProp()
        if t.text == "Dist":
            return T.TDist(self._type_atom())
        if t.text == "Proc":
            self.expect("[")
            c = self.grade()
            self.expect("]")
            lab = self.ident()
            return T.TProc(lab.text, c)
        if t.text == "(":
            ty = self.type_()
            self.expect(")")
            return ty
        if t.kind == "ident" and t.text not in KEYWORDS:
            return T.TAlpha(t.text)
        raise QlogSyntaxError(f"expected a type, got {t.text!r}", t.line, t.col)


    def term(self) -> T.Term:
        t = self.peek()
        if t is None:
            raise self.err("expected a term")
        if t.text == "fn":
            self.next()
            name = self.ident()
            grade = None
            ty = None
            if self.at(":"):
                self.next()
                if self.at("["):
                    self.next()
                    grade = self.grade()
                    self.expect("]")
                ty = self.type_()
            self.expect(".")
            body = self.term()
            return self._span(t, T.Lam(name.text, body, ty, grade))
        if t.text == "fix":
            self.next()
            name = self.ident()
            ty = None
            if self.at(":"):
                self.next()
                ty = self.type_()
            self.expect(".")
            body = self.term()
            return self._span(t, T.Fix(name.text, body, ty))
        if t.text == "let":
            self.next()
            if self.at("("):
                self.next()
                x = self.ident()
                self.expect(",")
                y = self.ident()
                self.expect(")")
                self.expect("=")
                bound = self.term()
                self.expect("in")
                body = self.term()
                return self._span(t, T.LetTensor(x.text, y.text, bound, body))
            x = self.ident()
            self.expect("=")
            bound = self.term()
            self.expect("in")
            body = self.term()
            return self._span(t, T.LetSample(x.text, bound, body))
        if t.text in ("exists", "forall"):
            self.next()
            name = self.ident()
            self.expect(":")
            ty = self.type_()
            self.expect(".")
            body = self.term()
            cls = T.Exists if t.text == "exists" else T.Forall
            return self._span(t, cls(name.text, ty, body))
        return self._mix()

    def _mix(self) -> T.Term:
        left = self._wand()
        while self.at("(") and self.at("+", 1):
            t = self.next()
            self.next()
            p = self.rational()
            self.expect(")")
            right = self._wand()
            left = self._span(t, T.Mix(p, left, right))
        return left

    def _wand(self) -> T.Term:
        left = self._star()
        if self.at("-*"):
            t = self.next()
            right = self._wand()
            return self._span(t, T.WandT(left, right))
        return left

    def _star(self) -> T.Term:
        left = self._disj()
        while self.at("*"):
            t = self.next()
            left = self._span(t, T.Star(left, self._disj()))
        return left

    def _disj(self) -> T.Term:
        left = self._conj()
        while self.at("\\/"):
            t = self.next()
            left = self._span(t, T.Disj(left, self._conj()))
        return left

    def _conj(self) -> T.Term:
        left = self._eq()
        while self.at("/\\"):
            t = self.next()
            left = self._span(t, T.Conj(left, self._eq()))
        return left

    def _eq(self) -> T.Term:
        left = self._app()
        if self.at("=="):
            t = self.next()
            ty = None
            if self.at("["):
                self.next()
                ty = self.type_()
                self.expect("]")
            right = self._app()
            return self._span(t, T.Eq(left, right, ty))
        return left

    def _app(self) -> T.Term:
        # Application is juxtaposition; arguments must be simple atoms
        # (identifiers, literals, parenthesised terms, pairs).
        head = self._atom()
        while self._starts_argument():
            t = self.peek()
            head = T.App(head, self._atom())
            head.span = (t.line, t.col)
        return head

    def _starts_argument(self) -> bool:
        t = self.peek()
        if t is None:
            return False
        if t.kind == "num":
            return True
        if t.kind == "ident":
            return t.text not in KEYWORDS or t.text in ("tt", "ff", "zero")
        if t.text == "(":
            return not self.at("+", 1)
        return t.text == "<"

    def _atom(self) -> T.Term:
        t = self.peek()
        if t is None:
            raise self.err("expected a term")
        if t.kind == "num":
            self.next()
            n = int(t.text)
            node: T.Term = T.Zero()
            for _ in range(n):
                node = T.Succ(node)
            return self._span(t, node)
        if t.text == "(":
            self.next()
            if self.at(")"):
                self.next()
                return self._span(t, T.Unit())
            first = self.term()
            if self.at(","):
                self.next()
                second = self.term()
                self.expect(")")
                r = s = None
                if self.at("["):
                    self.next()
                    r = self.grade()
                    self.expect(",")
                    s = self.grade()
                    self.expect("]")
                return self._span(t, T.TensorPair(first, second, r, s))
            self.expect(")")
            return first
        if t.text == "<":
            self.next()
            a = self.term()
            self.expect(",")
            b = self.term()
            self.expect(">")
            return self._span(t, T.Pair(a, b))
        if t.text == "[":
            self.next()
            r = self.grade()
            self.expect("]")
            return self._span(t, T.Scale(r, self._atom()))
        if t.text == "~":
            self.next()
            return self._span(t, T.Neg(self._atom()))
        if t.text == "tt":
            self.next()
            return self._span(t, T.TT())
        if t.text == "ff":
            self.next()
            return self._span(t, T.FF())
        if t.text == "zero":
            self.next()
            return self._span(t, T.Zero())
        if t.text == "succ":
            self.next()
            if not self._starts_argument():  # bare reference, eta-expand
                a = T.fresh_name("a")
                return self._span(t, T.Lam(a, T.Succ(T.Var(a)), T.TNat()))
            return self._span(t, T.Succ(self._atom()))
        if t.text == "delta":
            self.next()
            self.expect("(")
            body = self.term()
            self.expect(")")
            return self._span(t, T.DiracTerm(body))
        if t.text in ("fst", "snd"):
            self.next()
            idx = 1 if t.text == "fst" else 2
            if not self._starts_argument():  # bare reference, eta-expand
                a = T.fresh_name("a")
                return self._span(t, T.Lam(a, T.Proj(idx, T.Var(a))))
            return self._span(t, T.Proj(idx, self._atom()))
        if t.text in ("inj1", "inj2"):
            self.next()
            ty = None
            if self.at("["):
                self.next()
                ty = self.type_()
                self.expect("]")
            return self._span(
                t, T.Inj(1 if t.text == "inj1" else 2, self._atom(), ty)
            )
        if t.text == "case":
            self.next()
            scrut = self._mix()
            self.expect("{")
            self.expect("inj1")
            x = self.ident()
            self.expect("=>")
            u = self.term()
            self.expect("|")
            self.expect("inj2")
            y = self.ident()
            self.expect("=>")
            v = self.term()
            self.expect("}")
            return self._span(t, T.Case(scrut, x.text, u, y.text, v))
        if t.text == "rec":
            self.next()
            self.expect("(")
            z = self.term()
            self.expect(";")
            x = self.ident()
            y = self.ident()
            self.expect(".")
            s = self.term()
            self.expect(";")
            n = self.term()
            self.expect(")")
            return self._span(t, T.NatRec(z, x.text, y.text, s, n))
        if t.text == "proc":
            self.next()
            self.expect("(")
            lab = self.term()
            self.expect(",")
            step = self.term()
            self.expect(")")
            return self._span(t, T.Fld(lab, step))
        if t.text == "ufld":
            self.next()
            return self._span(t, T.Ufld(self._atom()))
        if t.text == "map":
            self.next()
            self.expect("(")
            f = self.term()
            self.expect(",")
            e = self.term()
            self.expect(")")
            a = T.fresh_name("a")
            node = T.LetSample(a, e, T.DiracTerm(T.App(f, T.Var(a))))
            return self._span(t, node)
        if t.text == "kant":
            self.next()
            ty = None
            if self.at("["):
                self.next()
                ty = self.type_()
                self.expect("]")
            self.expect("(")
            mu = self.term()
            self.expect(",")
            nu = self.term()
            self.expect(")")
            return self._span(t, make_kant(mu, nu, ty))
        if t.kind == "ident" and t.text not in KEYWORDS:
            self.next()
            return self._span(t, T.Var(t.text))
        raise QlogSyntaxError(f"unexpected token {t.text!r}", t.line, t.col)


def _parent_parse_term(src: str) -> T.Term:
    p = _ParentParser(src)
    t = P._guarded(p, p.term)
    if p.peek() is not None:
        tok = p.peek()
        raise QlogSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return t


def _shape(x):
    """What a parse built: node classes, every field, and the spans."""
    if isinstance(x, T.Term):
        fields = tuple((f.name, _shape(getattr(x, f.name))) for f in dataclasses.fields(x))
        return type(x).__name__, getattr(x, "span", None), fields
    return x


def _outcome(monkeypatch, parse, src):
    monkeypatch.setattr(T, "_fresh_counter", itertools.count())
    try:
        t = parse(src)
    except (ValueError, ZeroDivisionError) as e:  # the reference raises the latter on "1/0"
        return type(e).__name__, str(e)
    return _shape(t), T.alpha_key(t)


def _assert_parity(monkeypatch, src):
    new = _outcome(monkeypatch, parse_term, src)
    old = _outcome(monkeypatch, _parent_parse_term, src)
    if old[0] == "ZeroDivisionError":
        # the one documented difference: a zero denominator is now a
        # syntax error at the denominator's token
        assert new[0] == "QlogSyntaxError", src
        assert new[1].endswith(": zero denominator"), src
    else:
        assert new == old, src
    return not isinstance(new[0], str)


@pytest.mark.parametrize(
    "src, where", [("x (+ 1/0) y", "1:8"), ("[ 3 / 000 ] tt", "1:7")]
)
def test_a_zero_denominator_is_the_one_documented_difference(monkeypatch, src, where):
    assert not _assert_parity(monkeypatch, src)
    with pytest.raises(QlogSyntaxError, match=f"^{where}: zero denominator$"):
        parse_term(src)


_SAMPLE_TERMS = [
    "fix x : Dist Nat. delta(zero) (+ 1/2) map(succ, x)",
    "fn f : [2] Nat -o[2] Nat. fn x : Nat. f (f x)",
    "let (a, b) = p in (b, a)[1/2,1/2]",
    "case s (+ 0.5) t { inj1 x => inj2[Nat+Unit] () | inj2 y => inj1 zero }",
    "forall x : Nat. exists y : Nat. [2] (x == y) -* tt",
    "rec(0; acc k. succ acc; 5)",
    "proc(Hd, delta(m) (+ 1/3) delta(z))",
    "~(tt * ff) /\\ (tt \\/ ff) -* ff -* tt",
    "kant[Nat](mu, nu) == kant(mu, nu)",
    "a (+ 1/2) x == y == z",
    "<fst p, snd> ==[Nat & Nat] ufld q * [inf] ~ ~ tt",
    "f x y (+ 1/4) g () (z, w) <u, v>",
    "fn p : (Nat * Nat) *[1/2, 1] Prop -o[3] Dist Nat + Unit. p ==[Nat * Unit] q",
]

_VOCAB = sorted(set(P._PUNCT) | KEYWORDS - {"def", "ctx", "alphabet"}) + [
    "x", "y", "f", "Hd", "0", "1", "2", "3", "(+", "1/2",
]


def _bases():
    yield from _SAMPLE_TERMS
    rng = random.Random(5)
    for i in range(60):
        ty = (NAT, PROP, DNAT)[i % 3]
        yield print_term(gen_term(rng, {"x": NAT, "p": PROP, "d": DNAT}, ty, depth=3))


def _mutate(rng, toks):
    toks = list(toks)
    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(len(toks) + 1)
        how = rng.randrange(4)
        if how == 0 and i < len(toks):
            del toks[i]
        elif how == 1:
            toks.insert(i, rng.choice(_VOCAB))
        elif how == 2 and i < len(toks):
            toks[i] = rng.choice(_VOCAB)
        elif i + 1 < len(toks):
            toks[i], toks[i + 1] = toks[i + 1], toks[i]
    return toks


def test_parser_matches_the_reference_on_a_seeded_soup(monkeypatch):
    """24000 token strings: edits of well-formed terms, and soups of the
    grammar's tokens; each side yields the same tree, spans and alpha key,
    or the same error."""
    rng = random.Random(12)
    bases = [[tok.text for tok in P.tokenize(src)] for src in _bases()]
    sources = [" ".join(toks) for toks in bases]
    sources += [" ".join(_mutate(rng, rng.choice(bases))) for _ in range(12000)]
    sources += [" ".join(rng.choices(_VOCAB, k=rng.randrange(1, 15)))
                for _ in range(12000 - len(bases))]
    accepted = sum(_assert_parity(monkeypatch, src) for src in sources)
    assert len(sources) == 24000 and accepted > 1500


def test_parser_parity_property(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    bases = [[tok.text for tok in P.tokenize(src)] for src in _SAMPLE_TERMS]

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(st.lists(st.sampled_from(_VOCAB), max_size=14))
    def soup(tokens):
        _assert_parity(monkeypatch, " ".join(tokens))

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(st.sampled_from(bases), st.integers(0, 2**32))
    def edited(toks, seed):
        _assert_parity(monkeypatch, " ".join(_mutate(random.Random(seed), toks)))

    soup()
    edited()


# -- print . parse ----------------------------------------------------------------

def _term_strategy(st):
    """Terms of every form but labels, well-typed or not, with the
    annotations the printer writes out."""
    names = st.sampled_from(["x", "y", "f"])
    grades = st.one_of(st.fractions(0, 3, max_denominator=4).map(Grade), st.just(INF))
    probs = st.fractions(0, 1, max_denominator=8)
    types = st.sampled_from([T.TNat(), T.TProp(), T.TDist(T.TNat()),
                             T.TSum(T.TNat(), T.TUnit()), T.TLolli(T.TNat(), ONE, T.TProp())])
    leaves = st.one_of(names.map(T.Var), st.builds(T.Zero), st.builds(T.TT),
                       st.builds(T.FF), st.builds(T.Unit))

    def nodes(sub):
        binary = [st.builds(cls, sub, sub) for cls, _, _ in T.INFIX.values()
                  if cls not in (T.Mix, T.Eq)]
        return st.one_of(
            *binary,
            st.builds(T.Mix, probs, sub, sub),
            st.builds(T.Eq, sub, sub, st.none() | types),
            st.builds(T.App, sub, sub),
            st.builds(T.Pair, sub, sub),
            st.builds(T.TensorPair, sub, sub),
            st.builds(lambda a, b, r, s: T.TensorPair(a, b, r, s), sub, sub, grades, grades),
            st.builds(T.Succ, sub),
            st.builds(T.Proj, st.sampled_from([1, 2]), sub),
            st.builds(T.Inj, st.sampled_from([1, 2]), sub, st.none() | types),
            st.builds(T.Ufld, sub),
            st.builds(T.Neg, sub),
            st.builds(T.Scale, grades, sub),
            st.builds(T.DiracTerm, sub),
            st.builds(T.Fld, sub, sub),
            st.builds(T.Lam, names, sub),
            st.builds(T.Lam, names, sub, types, st.none() | grades),
            st.builds(T.Fix, names, sub, st.none() | types),
            st.builds(T.LetSample, names, sub, sub),
            st.builds(T.LetTensor, names, names, sub, sub),
            st.builds(T.Exists, names, types, sub),
            st.builds(T.Forall, names, types, sub),
            st.builds(T.Case, sub, names, sub, names, sub),
            st.builds(T.NatRec, sub, names, names, sub, sub),
        )

    return st.recursive(leaves, nodes, max_leaves=12)


def test_print_parse_round_trip_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=600, deadline=None)
    @hypothesis.given(_term_strategy(st))
    def check(t):
        src = print_term(t)
        again = parse_term(src)
        assert T.alpha_eq(t, again), src
        assert print_term(again) == src

    check()


# -- stack use per nesting level ---------------------------------------------------

_NESTINGS = {  # shape -> (source at depth n, frames per level)
    "paren": (lambda n: "(" * n + "tt" + ")" * n, 2),
    "succ": (lambda n: "succ(" * n + "zero" + ")" * n, 2),
    "delta": (lambda n: "delta(" * n + "zero" + ")" * n, 2),
    "pair": (lambda n: "<" * n + "x" + ", y>" * n, 2),
    "prefixed": (lambda n: "[1] ~ufld(" * n + "tt" + ")" * n, 2),
    # the right operand of an infix form is one more term() frame
    "operand": (lambda n: "x * (" * n + "tt" + ")" * n, 3),
}


def _frames() -> int:
    f, n = sys._getframe(), 0
    while f is not None:
        f, n = f.f_back, n + 1
    return n


@pytest.mark.parametrize("shape", sorted(_NESTINGS))
@pytest.mark.parametrize("depth", [100, 400])
def test_a_nesting_level_costs_two_frames(shape, depth):
    """Depth n parses under a recursion limit of 2n + C frames above the
    caller (3n + C inside infix operands), with C independent of n."""
    source, frames = _NESTINGS[shape]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames() + frames * depth + 25)
    try:
        parse_term(source(depth))
    finally:
        sys.setrecursionlimit(limit)


def test_a_long_nat_numeral_is_refused_at_its_token():
    src = "def x : Nat = 5\ndef y : Nat =  " + str(sys.getrecursionlimit() + 1)
    with pytest.raises(QlogSyntaxError) as e:
        P.parse_file(src)
    assert str(e.value) == "2:16: expression nested too deeply"
    assert isinstance(parse_term(str(sys.getrecursionlimit() // 4)), T.Succ)


@pytest.mark.parametrize("src", [
    "delta(0) (+ 1/{big}) delta(1)",
    "delta(0) (+ {big}/2) delta(1)",
    "[0.{big}] tt",
    "{big}",
    "00{big}",
])
def test_an_overlong_numeral_is_a_positioned_syntax_error(src):
    big = "7" * 5000
    with pytest.raises(QlogSyntaxError) as e:
        parse_term("tt /\\ " + src.format(big=big))
    assert e.value.line == 1 and e.value.col > 6
    assert "too long" in str(e.value) or "nested too deeply" in str(e.value)


def test_a_prefix_chain_costs_no_frames_but_label_resolution_is_guarded():
    deep = "~" * 3000 + "Hd"
    assert isinstance(parse_term(deep), T.Neg)
    with pytest.raises(QlogSyntaxError, match="nested too deeply"):
        parse_term(deep, P.parse_file("alphabet C = { Hd, Tl }"))
