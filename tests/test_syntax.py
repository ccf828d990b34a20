"""Surface syntax: parser, printer, contexts."""

import os

import pytest

from conftest import CORPUS
from qlog.grades import Grade, INF, ONE
from qlog.parser import QlogSyntaxError, parse_file, parse_term, parse_type
from qlog.printer import print_term, print_type
from qlog import terms as T
from qlog.terms import TypeCtx, alpha_eq, ctx_add, ctx_scale


CASES = [
    "fix x : Dist Nat. delta(zero) (+ 1/2) map(succ, x)",
    "fn f : Nat -o[2] Nat. fn x : Nat. f (f x)",
    "let (a, b) = p in (b, a)[1/2,1/2]",
    "case s { inj1 x => inj2[Nat+Unit] () | inj2 y => inj1 zero }",
    "forall x : Nat. exists y : Nat. [2] (x == y) -* tt",
    "rec(0; acc k. succ acc; 5)",
    "proc(Hd, delta(m) (+ 1/3) delta(z))",
    "~(tt * ff) /\\ (tt \\/ ff)",
    "kant[Nat](mu, nu)",
]


@pytest.mark.parametrize("src", CASES)
def test_round_trip_inline(src):
    t = parse_term(src)
    assert alpha_eq(t, parse_term(print_term(t)))


def test_round_trip_corpus():
    for fname in os.listdir(CORPUS):
        if not fname.endswith(".qlog"):
            continue
        with open(os.path.join(CORPUS, fname)) as fh:
            qfile = parse_file(fh.read())
        for d in qfile.defs.values():
            # reparse in the same file context so labels resolve
            again = parse_term(print_term(d.term), qfile)
            assert alpha_eq(d.term, again), fname


def test_types_round_trip():
    for src in (
        "Nat",
        "Dist (Nat * Nat)",
        "(Prop & Prop) -o[3/4] Dist (Prop & Prop)",
        "Proc[9/10] C",
        "(Unit+Unit) *[1/2,1/2] (Unit+Unit)",
    ):
        ty = parse_type(src)
        assert parse_type(print_type(ty)) == ty


def test_syntax_errors_carry_positions():
    with pytest.raises(QlogSyntaxError) as e:
        parse_term("")
    assert e.value.line == 1
    with pytest.raises(QlogSyntaxError) as e:
        parse_term("let x = in y")
    assert (e.value.line, e.value.col) == (1, 9)
    with pytest.raises(QlogSyntaxError):
        parse_file("def dup = tt\ndef dup = ff")


def test_comments_and_defs_splice():
    qfile = parse_file(
        "-- a comment\ndef a : Nat = 3\ndef b : Nat = succ a\n"
    )
    assert alpha_eq(qfile.defs["b"].term, parse_term("succ 3"))


def test_ctx_arithmetic():
    nat = parse_type("Nat")
    g1 = TypeCtx.of(("x", Grade(1), nat))
    g2 = TypeCtx.of(("x", Grade(2), nat))
    assert ctx_add(g1, g2).grade_of("x") == Grade(3)
    zero = ctx_scale(Grade(0), g1)
    assert ctx_add(g1, zero).grade_of("x") == Grade(1)
    assert ctx_scale(ONE, g1) == g1
    from fractions import Fraction

    half = TypeCtx.of(("x", Grade(Fraction(1, 2)), nat))
    assert ctx_scale(Grade(2), half).grade_of("x") == ONE
    assert ctx_scale(INF, zero).grade_of("x") == Grade(0)  # inf * 0 = 0
    # commutativity/associativity and scale distribution
    g3 = TypeCtx.of(("x", Grade(5), nat))
    assert ctx_add(g1, g2) == ctx_add(g2, g1)
    assert ctx_add(ctx_add(g1, g2), g3) == ctx_add(g1, ctx_add(g2, g3))
    assert ctx_scale(Grade(3), ctx_add(g1, g2)) == ctx_add(
        ctx_scale(Grade(3), g1), ctx_scale(Grade(3), g2)
    )


def test_ctx_add_incompatible():
    nat = parse_type("Nat")
    prop = parse_type("Prop")
    a = TypeCtx.of(("x", Grade(1), nat), ("y", Grade(1), prop))
    b = TypeCtx.of(("y", Grade(1), prop), ("x", Grade(1), nat))
    with pytest.raises(ValueError):
        ctx_add(a, b)  # order matters


def test_mixture_type_grammar():
    from qlog.terms import is_mixture_type

    assert is_mixture_type(parse_type("Dist Nat"))
    assert is_mixture_type(parse_type("Prop"))
    assert is_mixture_type(parse_type("Dist Nat *[1/2,1] Prop"))
    assert is_mixture_type(parse_type("Nat -o (Dist Nat)"))
    assert not is_mixture_type(parse_type("Nat"))
    assert not is_mixture_type(parse_type("Dist Nat *[2,1] Prop"))  # grade > 1


def test_deep_nesting_is_a_positioned_syntax_error():
    deep = "(" * 3000 + "zero" + ")" * 3000
    with pytest.raises(QlogSyntaxError, match="nested too deeply") as e:
        parse_file("def x = " + deep)
    assert e.value.line == 1 and e.value.col > 8
    with pytest.raises(QlogSyntaxError, match="nested too deeply"):
        parse_term(deep)
    with pytest.raises(QlogSyntaxError, match="nested too deeply"):
        parse_type("(" * 3000 + "Nat" + ")" * 3000)
    # the parser still works at ordinary depth afterwards
    assert isinstance(parse_term("(" * 20 + "zero" + ")" * 20), T.Zero)
