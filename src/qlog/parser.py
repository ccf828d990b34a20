"""Parser for the .qlog surface syntax.

A source file is a sequence of declarations:

    alphabet C = { Hd, Tl }        -- finite discrete label set
    ctx z :[1] Proc[1] C           -- ambient graded binding
    def m : Proc[1] C = fix m. proc(A, delta(m) (+ 1/3) delta(z))

Line comments start with ``--``.  The full grammar is documented in
docs/grammar.md.  References to earlier defs are spliced in at load
time so each definition typechecks on its own against the ambient
context.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional

from .grades import Grade, INF, ONE
from . import terms as T


class QlogSyntaxError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass
class Token:
    kind: str  # 'ident', 'num', 'punct'
    text: str
    line: int
    col: int


_PUNCT = [
    "==",
    "=>",
    "-o",
    "-*",
    "/\\",
    "\\/",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    "<",
    ">",
    ",",
    ".",
    ":",
    ";",
    "=",
    "*",
    "+",
    "&",
    "~",
    "|",
    "/",
]

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_NUM = re.compile(r"\d+")


def tokenize(src: str) -> List[Token]:
    toks: List[Token] = []
    line, col = 1, 1
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if src.startswith("--", i):
            while i < n and src[i] != "\n":
                i += 1
            continue
        m = _IDENT.match(src, i)
        if m:
            toks.append(Token("ident", m.group(0), line, col))
            col += len(m.group(0))
            i = m.end()
            continue
        m = _NUM.match(src, i)
        if m:
            toks.append(Token("num", m.group(0), line, col))
            col += len(m.group(0))
            i = m.end()
            continue
        for p in _PUNCT:
            if src.startswith(p, i):
                toks.append(Token("punct", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise QlogSyntaxError(f"unexpected character {ch!r}", line, col)
    return toks


KEYWORDS = {
    "fn",
    "fix",
    "let",
    "in",
    "case",
    "exists",
    "forall",
    "delta",
    "succ",
    "rec",
    "proc",
    "ufld",
    "map",
    "kant",
    "fst",
    "snd",
    "inj1",
    "inj2",
    "tt",
    "ff",
    "zero",
    "inf",
    "def",
    "ctx",
    "alphabet",
    "Nat",
    "Unit",
    "Prop",
    "Dist",
    "Proc",
}


class Parser:
    def __init__(self, src: str):
        self.toks = tokenize(src)
        self.pos = 0

    # -- token plumbing ------------------------------------------------

    def peek(self, k: int = 0) -> Optional[Token]:
        if self.pos + k < len(self.toks):
            return self.toks[self.pos + k]
        return None

    def at(self, text: str, k: int = 0) -> bool:
        t = self.peek(k)
        return t is not None and t.text == text

    def next(self) -> Token:
        t = self.peek()
        if t is None:
            last = self.toks[-1] if self.toks else Token("punct", "", 1, 1)
            raise QlogSyntaxError("unexpected end of input", last.line, last.col)
        self.pos += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.next()
        if t.text != text:
            raise QlogSyntaxError(f"expected {text!r}, got {t.text!r}", t.line, t.col)
        return t

    def ident(self) -> Token:
        t = self.next()
        if t.kind != "ident" or t.text in KEYWORDS:
            raise QlogSyntaxError(f"expected identifier, got {t.text!r}", t.line, t.col)
        return t

    def err(self, msg: str) -> QlogSyntaxError:
        t = self.peek() or (self.toks[-1] if self.toks else Token("punct", "", 1, 1))
        return QlogSyntaxError(msg, t.line, t.col)

    def _span(self, tok: Token, node: T.Term) -> T.Term:
        node.span = (tok.line, tok.col)
        return node

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

    # -- terms -----------------------------------------------------------

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


def make_kant(mu: T.Term, nu: T.Term, elem_type: Optional[T.Type]) -> T.Term:
    """Internalised Kantorovich distance between two distribution terms.

    Expands to: there exists a joint distribution over pairs whose
    componentwise images are mu and nu and whose mean pair distance is
    small.  The element type may be omitted when it can be inferred
    from mu; elaboration fills it in.
    """
    om = T.fresh_name("w")
    z = T.fresh_name("z")
    x = T.fresh_name("x")
    y = T.fresh_name("y")
    a1 = T.fresh_name("a")
    a2 = T.fresh_name("a")
    elem = elem_type if elem_type is not None else None
    pair_ty = (
        T.TTensor(elem, ONE, ONE, elem) if elem is not None else None
    )
    mean = T.LetSample(
        z,
        T.Var(om),
        T.LetTensor(x, y, T.Var(z), T.Eq(T.Var(x), T.Var(y), elem)),
    )
    proj1 = T.LetSample(
        a1,
        T.Var(om),
        T.DiracTerm(T.LetTensor(x, y, T.Var(a1), T.Var(x))),
    )
    proj2 = T.LetSample(
        a2,
        T.Var(om),
        T.DiracTerm(T.LetTensor(x, y, T.Var(a2), T.Var(y))),
    )
    body = T.Star(
        mean,
        T.Star(
            T.Eq(proj1, mu, T.TDist(elem) if elem is not None else None),
            T.Eq(proj2, nu, T.TDist(elem) if elem is not None else None),
        ),
    )
    return T.Exists(om, T.TDist(pair_ty) if pair_ty is not None else None, body)


# ---------------------------------------------------------------------------
# Source files
# ---------------------------------------------------------------------------


@dataclass
class Definition:
    name: str
    declared_type: Optional[T.Type]
    term: T.Term


@dataclass
class QlogFile:
    alphabets: Dict[str, List[str]] = field(default_factory=dict)
    ctx: T.TypeCtx = field(default_factory=T.TypeCtx)
    defs: Dict[str, Definition] = field(default_factory=dict)

    def label_alphabet(self, label: str) -> Optional[str]:
        for name, labels in self.alphabets.items():
            if label in labels:
                return name
        return None


def resolve_labels(term: T.Term, qfile: QlogFile) -> T.Term:
    """Turn free variables naming alphabet elements into label literals;
    a name bound by an enclosing scope (T.SCOPES) stays a variable."""

    def walk(t: T.Term, bound: frozenset) -> T.Term:
        if isinstance(t, T.Var) and t.name not in bound:
            alph = qfile.label_alphabet(t.name)
            if alph is not None:
                lab = T.Label(t.name, alph)
                if hasattr(t, "span"):
                    lab.span = t.span
                return lab
        over = T._bound_over(t)
        for fname, child in T._children(t):
            setattr(t, fname, walk(child, bound.union(over.get(fname, ()))))
        return t

    return walk(term, frozenset())


def _guarded(p: Parser, parse: Callable[[], Any]) -> Any:
    """Run ``parse``; input nested deeper than the Python stack allows
    becomes a syntax error at the token the parser had reached."""
    try:
        return parse()
    except RecursionError:
        raise p.err("expression nested too deeply") from None


def parse_term(src: str, qfile: Optional[QlogFile] = None) -> T.Term:
    p = Parser(src)
    t = _guarded(p, p.term)
    if p.peek() is not None:
        tok = p.peek()
        raise QlogSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.col)
    if qfile is not None:
        t = resolve_labels(t, qfile)
        for name in reversed(list(qfile.defs)):
            if name in T.free_vars(t):
                t = T.substitute(t, name, qfile.defs[name].term)
    return t


def parse_type(src: str) -> T.Type:
    p = Parser(src)
    ty = _guarded(p, p.type_)
    if p.peek() is not None:
        tok = p.peek()
        raise QlogSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return ty


def parse_file(src: str) -> QlogFile:
    p = Parser(src)
    return _guarded(p, lambda: _declarations(p))


def _declarations(p: Parser) -> QlogFile:
    out = QlogFile()
    while p.peek() is not None:
        t = p.peek()
        if t.text == "alphabet":
            p.next()
            name = p.ident().text
            p.expect("=")
            p.expect("{")
            labels = [p.ident().text]
            while p.at(","):
                p.next()
                labels.append(p.ident().text)
            p.expect("}")
            for lab in labels:
                if out.label_alphabet(lab) is not None:
                    raise QlogSyntaxError(
                        f"label {lab} already declared", t.line, t.col
                    )
            out.alphabets[name] = labels
        elif t.text == "ctx":
            p.next()
            name = p.ident().text
            p.expect(":")
            p.expect("[")
            g = p.grade()
            p.expect("]")
            ty = p.type_()
            out.ctx = out.ctx.extended(name, g, ty)
        elif t.text == "def":
            p.next()
            name = p.ident().text
            ty = None
            if p.at(":"):
                p.next()
                ty = p.type_()
            p.expect("=")
            body = p.term()
            body = resolve_labels(body, out)
            # splice earlier definitions so each def is self-contained
            for prev in reversed(list(out.defs)):
                if prev in T.free_vars(body):
                    body = T.substitute(body, prev, out.defs[prev].term)
            if name in out.defs or name in out.ctx.names():
                raise QlogSyntaxError(f"duplicate name {name}", t.line, t.col)
            if ty is not None:
                from .typecheck import Checker

                Checker(out.alphabets).elaborate(body, ty)
            out.defs[name] = Definition(name, ty, body)
        else:
            raise QlogSyntaxError(
                f"expected a declaration, got {t.text!r}", t.line, t.col
            )
    return out
