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
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Tuple

from .grades import Grade, INF, ONE
from . import terms as T
from .typecheck import Checker


class QlogSyntaxError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class InputError(Exception):
    """A malformed input file; the message names where in it."""


def located(where: str, e: Exception) -> str:
    """``where: message``, or ``where:line:col: message`` if ``e`` has a position."""
    return f"{where}{':' if getattr(e, 'line', None) else ': '}{e}"


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

    def _bracketed(self, read: Callable[[], Any]) -> Any:
        """``read()`` inside ``[...]`` if the next token opens one, else None."""
        if not self.at("["):
            return None
        self.next()
        out = read()
        self.expect("]")
        return out

    # -- numbers -------------------------------------------------------

    def _int(self, t: Token) -> int:
        try:
            return int(t.text)
        except ValueError:  # past sys.get_int_max_str_digits()
            msg = f"number too long ({len(t.text)} digits)"
            raise QlogSyntaxError(msg, t.line, t.col) from None

    def _nat(self, t: Token) -> int:
        """The numeral ``t`` as a Nat, a chain of that many ``Succ`` nodes,
        refused above the recursion limit since no pass could walk it."""
        limit = sys.getrecursionlimit()
        digits = t.text.lstrip("0")
        if len(digits) > len(str(limit)) or int(digits or "0") > limit:
            raise QlogSyntaxError("expression nested too deeply", t.line, t.col)
        return int(digits or "0")

    def rational(self) -> Fraction:
        t = self.next()
        if t.kind != "num":
            raise QlogSyntaxError(f"expected number, got {t.text!r}", t.line, t.col)
        if self.at("/"):
            self.next()
            den = self.next()
            if den.kind != "num":
                raise QlogSyntaxError("expected denominator", den.line, den.col)
            num, d = self._int(t), self._int(den)
            if not d:
                raise QlogSyntaxError("zero denominator", den.line, den.col)
            return Fraction(num, d)
        if self.at(".") and self.peek(1) is not None and self.peek(1).kind == "num":
            self.next()
            frac = self.next()
            scale = 10 ** len(frac.text)
            return Fraction(self._int(t) * scale + self._int(frac), scale)
        return Fraction(self._int(t))

    def grade(self) -> Grade:
        if self.at("inf"):
            self.next()
            return INF
        return Grade(self.rational())

    def _grade_pair(self) -> Tuple[Grade, Grade]:
        r = self.grade()
        self.expect(",")
        return r, self.grade()

    # -- types -----------------------------------------------------------

    def type_(self) -> T.Type:
        left = self._type_sum()
        if self.at("-o"):
            self.next()
            r = self._bracketed(self.grade)
            return T.TLolli(left, ONE if r is None else r, self.type_())
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
            r, s = self._bracketed(self._grade_pair) or (ONE, ONE)
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

    def term(self, prec: int = 0) -> T.Term:
        """A term whose infix operators bind at ``prec`` or tighter, by
        precedence climbing over ``terms.INFIX``; binders are read only at
        ``prec`` 0, where they extend as far right as possible."""
        t = self.peek()
        if t is None:
            raise self.err("expected a term")
        if prec == 0 and t.text in ("fn", "fix", "let", "exists", "forall"):
            return self._binder(t)
        left = self._atom()
        while self._starts_argument():  # application is juxtaposition
            t = self.peek()
            left = self._span(t, T.App(left, self._atom()))
        limit = float("inf")
        while (row := self._infix()) is not None and prec <= row[1] <= limit:
            cls, p, assoc = row
            t = self.next()
            ann = {}
            if cls is T.Mix:
                self.next()
                ann["p"] = self.rational()
                self.expect(")")
            elif cls is T.Eq:
                ann["at_type"] = self._bracketed(self.type_)
            right = self.term(p if assoc == "right" else p + 1)
            left = self._span(t, cls(left=left, right=right, **ann))
            # a right operand took every tighter operator; what follows
            # joins at this level only if left-associative
            limit = p if assoc == "left" else p - 1
        return left

    def _infix(self) -> Optional[tuple]:
        """The ``terms.INFIX`` row of the operator at the next token."""
        t = self.peek()
        if t is None or t.kind != "punct":
            return None
        if t.text == "(":
            return T.INFIX["(+"] if self.at("+", 1) else None
        return T.INFIX.get(t.text)

    def _binder(self, t: Token) -> T.Term:
        self.next()
        if t.text == "fn":
            name = self.ident()
            grade = None
            ty = None
            if self.at(":"):
                self.next()
                grade = self._bracketed(self.grade)
                ty = self.type_()
            self.expect(".")
            body = self.term()
            return self._span(t, T.Lam(name.text, body, ty, grade))
        if t.text == "fix":
            name = self.ident()
            ty = None
            if self.at(":"):
                self.next()
                ty = self.type_()
            self.expect(".")
            body = self.term()
            return self._span(t, T.Fix(name.text, body, ty))
        if t.text == "let":
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
        name = self.ident()
        self.expect(":")
        ty = self.type_()
        self.expect(".")
        body = self.term()
        cls = T.Exists if t.text == "exists" else T.Forall
        return self._span(t, cls(name.text, ty, body))

    def _starts_argument(self, k: int = 0) -> bool:
        t = self.peek(k)
        if t is None:
            return False
        if t.kind == "num":
            return True
        if t.kind == "ident":
            return t.text not in KEYWORDS or t.text in ("tt", "ff", "zero")
        if t.text == "(":
            return not self.at("+", k + 1)
        return t.text == "<"

    def _prefix(self, t: Token) -> Optional[Callable[[T.Term], T.Term]]:
        """Read the prefix form at ``t`` and return the node it wraps its
        operand in; None, reading nothing, if ``t`` starts none.  A bare
        ``succ``, ``fst`` or ``snd`` is no prefix but a primary."""
        if t.text in _PREFIX:
            if t.text in ("succ", "fst", "snd") and not self._starts_argument(1):
                return None
            self.next()
            return _PREFIX[t.text]
        if t.text == "[":
            r = self._bracketed(self.grade)
            return lambda body: T.Scale(r, body)
        if t.text in ("inj1", "inj2"):
            self.next()
            ty = self._bracketed(self.type_)
            return lambda body: T.Inj(1 if t.text == "inj1" else 2, body, ty)
        return None

    def _atom(self) -> T.Term:
        """A chain of prefix forms, read in a loop, around one primary:
        a nesting level costs two frames, this one and ``term``."""
        prefixes = []
        while True:
            t = self.peek()
            if t is None:
                raise self.err("expected a term")
            wrap = self._prefix(t)
            if wrap is None:
                break
            prefixes.append((t, wrap))
        if t.kind == "num":
            self.next()
            node: T.Term = T.Zero()
            for _ in range(self._nat(t)):
                node = T.Succ(node)
            node = self._span(t, node)
        elif t.text == "(":
            self.next()
            if self.at(")"):
                self.next()
                node = self._span(t, T.Unit())
            else:
                node = self.term()
                if self.at(","):
                    self.next()
                    second = self.term()
                    self.expect(")")
                    r, s = self._bracketed(self._grade_pair) or (None, None)
                    node = self._span(t, T.TensorPair(node, second, r, s))
                else:
                    self.expect(")")
        elif t.text == "<":
            self.next()
            a = self.term()
            self.expect(",")
            b = self.term()
            self.expect(">")
            node = self._span(t, T.Pair(a, b))
        elif t.text in ("tt", "ff", "zero"):
            self.next()
            node = self._span(t, {"tt": T.TT, "ff": T.FF, "zero": T.Zero}[t.text]())
        elif t.text in ("succ", "fst", "snd"):  # bare reference, eta-expand
            self.next()
            a = T.fresh_name("a")
            body = _PREFIX[t.text](T.Var(a))
            ty = T.TNat() if t.text == "succ" else None
            node = self._span(t, T.Lam(a, body, ty))
        elif t.text == "delta":
            self.next()
            self.expect("(")
            body = self.term()
            self.expect(")")
            node = self._span(t, T.DiracTerm(body))
        elif t.text == "case":
            self.next()
            scrut = self.term(1)
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
            node = self._span(t, T.Case(scrut, x.text, u, y.text, v))
        elif t.text == "rec":
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
            node = self._span(t, T.NatRec(z, x.text, y.text, s, n))
        elif t.text == "proc":
            self.next()
            self.expect("(")
            lab = self.term()
            self.expect(",")
            step = self.term()
            self.expect(")")
            node = self._span(t, T.Fld(lab, step))
        elif t.text == "map":
            self.next()
            self.expect("(")
            f = self.term()
            self.expect(",")
            e = self.term()
            self.expect(")")
            a = T.fresh_name("a")
            node = self._span(t, T.LetSample(a, e, T.DiracTerm(T.App(f, T.Var(a)))))
        elif t.text == "kant":
            self.next()
            ty = self._bracketed(self.type_)
            self.expect("(")
            mu = self.term()
            self.expect(",")
            nu = self.term()
            self.expect(")")
            node = self._span(t, make_kant(mu, nu, ty))
        elif t.kind == "ident" and t.text not in KEYWORDS:
            self.next()
            node = self._span(t, T.Var(t.text))
        else:
            raise QlogSyntaxError(f"unexpected token {t.text!r}", t.line, t.col)
        for t, wrap in reversed(prefixes):
            node = self._span(t, wrap(node))
        return node


# the prefix forms that take a bare operand
_PREFIX: Dict[str, Callable[[T.Term], T.Term]] = {
    "succ": T.Succ,
    "fst": lambda body: T.Proj(1, body),
    "snd": lambda body: T.Proj(2, body),
    "ufld": T.Ufld,
    "~": T.Neg,
}


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
    elem = elem_type
    pair_ty = T.TTensor(elem, ONE, ONE, elem) if elem is not None else None
    dist = T.TDist(elem) if elem is not None else None
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
    body = T.Star(mean, T.Star(T.Eq(proj1, mu, dist), T.Eq(proj2, nu, dist)))
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
        over = T.bound_over(t)
        for fname, child in T.children(t):
            setattr(t, fname, walk(child, bound.union(over.get(fname, ()))))
        return t

    return walk(term, frozenset())


def _in_file(t: T.Term, qfile: QlogFile) -> T.Term:
    """``t`` with its labels resolved and the file's defs spliced in, so
    that it stands on its own."""
    t = resolve_labels(t, qfile)
    for name in reversed(list(qfile.defs)):
        if name in T.free_vars(t):
            t = T.substitute(t, name, qfile.defs[name].term)
    return t


def _guarded(p: Parser, parse: Callable[[], Any]) -> Any:
    """Run ``parse``, which must read all of the input; input nested deeper
    than the Python stack allows becomes a syntax error at the token the
    parser had reached."""
    try:
        out = parse()
    except RecursionError:
        raise p.err("expression nested too deeply") from None
    tok = p.peek()
    if tok is not None:
        raise QlogSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return out


def parse_term(src: str, qfile: Optional[QlogFile] = None) -> T.Term:
    p = Parser(src)
    t = _guarded(p, p.term)
    return t if qfile is None else _guarded(p, lambda: _in_file(t, qfile))


def parse_type(src: str) -> T.Type:
    p = Parser(src)
    return _guarded(p, p.type_)


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
            body = _in_file(p.term(), out)
            if name in out.defs or name in out.ctx.names():
                raise QlogSyntaxError(f"duplicate name {name}", t.line, t.col)
            if ty is not None:
                Checker(out.alphabets).elaborate(body, ty)
            out.defs[name] = Definition(name, ty, body)
        else:
            raise QlogSyntaxError(
                f"expected a declaration, got {t.text!r}", t.line, t.col
            )
    return out
