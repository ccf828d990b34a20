"""A small imperative probabilistic language with exact semantics.

Programs manipulate natural-number locations and fixed-length arrays.
Expressions are nat-, bool- or distribution-valued; `unif(e)` is the
uniform distribution on {0..e}.  Commands are skip, assignment,
sampling, sequencing, branching and while loops, plus the auxiliary
`nth_unused` scan used by the random-permutation examples.

Commands denote subdistributions over stores, computed exactly with
rational weights.  While loops run an ascending iteration from the
empty subdistribution: after the configured number of loop unfoldings
the still-running mass becomes residual.  If one more unfolding
changes nothing the chain has hit its fixed point and the residual is
genuine divergence; otherwise it is truncation and is flagged as
approximation (entering error radii downstream).

Commands are linear maps on measures (Kozen, *Semantics of
Probabilistic Programs*, JCSS 1981) and weights are exact, so no
intermediate order can change a weight or the final order: commands
run on unordered store -> weight maps, merged on store equality (the
equivalence of ``key_of``), and :func:`eval_cmd` canonicalises once.

Surface syntax (.imp files)::

    locs i val tmp
    array arr[3]
    i := 0;
    while i <= 2 {
      sample val unif(7);
      arr[i] := val;
      i := i + 1
    }

Note `e1 - e2` is truncated subtraction on naturals; bare location
names in expressions denote reads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import count, islice
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from .measures import Dist, _sort_token


class ImpError(ValueError):
    """A malformed, ill-typed or failing program.  Every static error in
    a source (a parse error, an undeclared name, an expression of the
    wrong kind) is given the source and its token's offset, and sets
    1-based ``line``/``col``; run-time errors carry no position."""

    line: Optional[int] = None

    def __init__(self, message: str, src: str = "", at: Optional[int] = None):
        if at is not None:
            self.line = src.count("\n", 0, at) + 1
            self.col = at - src.rfind("\n", 0, at)
            message = f"{self.line}:{self.col}: {message}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# Stores
# ---------------------------------------------------------------------------


class Layout(dict):
    """Where each location of a store sits: a dict from location to its
    index in ``items``.  It also carries each location's token head,
    ``"(" + _sort_token(location) + ","``, and for each array the
    indices of its slots in slot order.  Built once from the locations
    of a store and shared by every store :meth:`Store.set` derives."""

    __slots__ = ("heads", "arrays")

    def __init__(self, keys):
        super().__init__((k, i) for i, k in enumerate(keys))
        if len(self) < len(keys):
            dup = next(k for i, k in enumerate(keys) if self[k] != i)
            raise ImpError(f"duplicate location {dup}")
        self.heads = tuple("(" + _sort_token(k) + "," for k in keys)
        arrays: Dict[str, List[Tuple[int, int]]] = {}
        for i, k in enumerate(keys):
            if isinstance(k, tuple) and len(k) > 1:
                arrays.setdefault(k[0], []).append((k[1], i))
        self.arrays = {a: tuple(i for _, i in sorted(s)) for a, s in arrays.items()}


@dataclass(frozen=True)
class Store:
    """Total assignment of naturals to the declared locations.

    Array slots are addressed as ("arr", index).  Immutable and usable
    as a distribution support point.  ``slots`` is the store's
    :class:`Layout`: each location's index in ``items``, its sort token
    head and each array's slot indices.  A store built directly gets a
    layout of its own unless it is handed the layout of the same
    locations; :meth:`set` shares its layout with the store it derives.
    Equality, hashing and ``repr`` ignore it.
    """

    items: Tuple[Tuple[Union[str, Tuple[str, int]], int], ...]
    slots: Layout = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        keys = [k for k, _ in self.items]
        layout = self.slots
        if not (
            isinstance(layout, Layout) and len(layout) == len(keys)
            and all(layout.get(k) == i for i, k in enumerate(keys))
        ):
            object.__setattr__(self, "slots", Layout(keys))

    @staticmethod
    def of(mapping: Dict) -> "Store":
        return Store(tuple(sorted(mapping.items(), key=lambda kv: repr(kv[0]))))

    def get(self, key) -> int:
        i = self.slots.get(key)
        if i is None:
            raise ImpError(f"undeclared location {key}")
        return self.items[i][1]

    def set(self, key, value: int) -> "Store":
        layout = self.slots
        i = layout.get(key)
        if i is None:
            raise ImpError(f"undeclared location {key}")
        items = self.items
        # the same locations: skip __init__, whose __post_init__ checks the layout
        out = object.__new__(Store)
        fields = out.__dict__
        fields["items"] = items[:i] + ((items[i][0], value),) + items[i + 1 :]
        fields["slots"] = layout
        return out

    def array(self, name: str) -> Tuple[int, ...]:
        items = self.items
        return tuple([items[i][1] for i in self.slots.arrays.get(name, ())])

    def dist_key(self):
        return ("store", self.items)

    def sort_token(self) -> str:
        """``_sort_token(key_of(self))``, from the layout's heads."""
        heads = self.slots.heads
        tokens = [h + _sort_token(v) + ")" for h, (_, v) in zip(heads, self.items)]
        return "('store',(" + ",".join(tokens) + "))"

    def __repr__(self):
        return "{" + ", ".join(f"{k}={v}" for k, v in self.items) + "}"


# ---------------------------------------------------------------------------
# Syntax
# ---------------------------------------------------------------------------


class Expr:
    pass


@dataclass
class ENum(Expr):
    value: int


@dataclass
class ERead(Expr):
    loc: str


@dataclass
class EIndex(Expr):
    array: str
    index: Expr


@dataclass
class EBin(Expr):
    op: str  # + * - <= == && ||
    left: Expr
    right: Expr


@dataclass
class EUnif(Expr):
    bound: Expr


class Cmd:
    pass


@dataclass
class CSkip(Cmd):
    pass


@dataclass
class CAssign(Cmd):
    target: Union[str, Tuple[str, Expr]]  # location or (array, index expr)
    expr: Expr


@dataclass
class CSample(Cmd):
    loc: str
    dist: Expr


@dataclass
class CSeq(Cmd):
    first: Cmd
    second: Cmd


@dataclass
class CIf(Cmd):
    guard: Expr
    then: Cmd
    other: Cmd


@dataclass
class CWhile(Cmd):
    guard: Expr
    body: Cmd


@dataclass
class CNthUnused(Cmd):
    """val := the (tmp)-th natural not among arr[0..i-1] (0-indexed)."""

    array: str = "arr"
    i_loc: str = "i"
    tmp_loc: str = "tmp"
    val_loc: str = "val"


@dataclass
class Program:
    locs: List[str]
    arrays: Dict[str, int]
    body: Cmd

    def initial_store(self) -> Store:
        mapping: Dict = {l: 0 for l in self.locs}
        for name, size in self.arrays.items():
            for i in range(size):
                mapping[(name, i)] = 0
        return Store.of(mapping)


# ---------------------------------------------------------------------------
# Semantics
# ---------------------------------------------------------------------------


def eval_expr(prog: Program, store: Store, e: Expr):
    if isinstance(e, ENum):
        return e.value
    if isinstance(e, ERead):
        return store.get(e.loc)
    if isinstance(e, EIndex):
        idx = eval_expr(prog, store, e.index)
        size = prog.arrays[e.array]
        if not 0 <= idx < size:
            raise ImpError(f"{e.array}[{idx}] out of bounds (size {size})")
        return store.get((e.array, idx))
    if isinstance(e, EBin):
        a = eval_expr(prog, store, e.left)
        b = eval_expr(prog, store, e.right)
        if e.op == "+":
            return a + b
        if e.op == "*":
            return a * b
        if e.op == "-":
            return max(a - b, 0)
        if e.op == "<=":
            return a <= b
        if e.op == "==":
            return a == b
        if e.op == "&&":
            return a and b
        if e.op == "||":
            return a or b
    if isinstance(e, EUnif):
        hi = eval_expr(prog, store, e.bound)
        w = Fraction(1, hi + 1)
        return Dist.from_pairs([(k, w) for k in range(hi + 1)])
    raise ImpError(f"cannot evaluate {e!r}")


def _nth_unused(store: Store, prog: Program, c: CNthUnused) -> Store:
    i = store.get(c.i_loc)
    k = store.get(c.tmp_loc)
    used = {store.get((c.array, j)) for j in range(min(i, prog.arrays[c.array]))}
    unused = (v for v in count() if v not in used)
    return store.set(c.val_loc, next(islice(unused, k, None)))


def eval_cmd(
    prog: Program,
    c: Cmd,
    store: Store,
    max_iter: int = 64,
    tol: float = 0.0,
    support_cap: int = 100000,
) -> Dist:
    """Exact subdistribution over final stores.

    ``max_iter`` bounds loop unfoldings; leftover loop mass becomes
    residual (divergence when the chain provably stalled, otherwise
    approximation).
    """
    out, rdiv, rapp = _run(prog, c, store, max_iter, tol, support_cap)
    return Dist.from_pairs(out.items(), residual_div=rdiv, residual_approx=rapp)


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _run(prog: Program, c: Cmd, store: Store, max_iter, tol, support_cap):
    """``c`` run from ``store`` as (store -> weight, divergent residual,
    approximation residual), the weights merged but not ordered."""
    if isinstance(c, CSkip):
        return {store: _ONE}, _ZERO, _ZERO
    if isinstance(c, CAssign):
        if isinstance(c.target, tuple):
            name, idx_e = c.target
            idx = eval_expr(prog, store, idx_e)
            size = prog.arrays[name]
            if not 0 <= idx < size:
                raise ImpError(f"{name}[{idx}] out of bounds (size {size})")
            key = (name, idx)
        else:
            key = c.target
        return {store.set(key, eval_expr(prog, store, c.expr)): _ONE}, _ZERO, _ZERO
    if isinstance(c, CSample):
        d = eval_expr(prog, store, c.dist)
        if not isinstance(d, Dist):
            raise ImpError("sampling from a non-distribution")
        return {store.set(c.loc, v): w for v, w in d.points}, _ZERO, _ZERO
    if isinstance(c, CSeq):
        first = _run(prog, c.first, store, max_iter, tol, support_cap)
        return _run_from(prog, c.second, *first, max_iter, tol, support_cap)
    if isinstance(c, CIf):
        branch = c.then if eval_expr(prog, store, c.guard) else c.other
        return _run(prog, branch, store, max_iter, tol, support_cap)
    if isinstance(c, CWhile):
        return _eval_while(prog, c, store, max_iter, tol, support_cap)
    if isinstance(c, CNthUnused):
        return {_nth_unused(store, prog, c): _ONE}, _ZERO, _ZERO
    raise ImpError(f"cannot run {c!r}")


def _run_from(prog, c: Cmd, stores: Dict, rdiv, rapp, max_iter, tol, support_cap):
    """``c`` run from each of the weighted ``stores`` and mixed, on top
    of the residuals ``rdiv`` and ``rapp``; the same triple as :func:`_run`."""
    out: Dict[Store, Fraction] = {}
    for s, w in stores.items():
        mid, mdiv, mapp = _run(prog, c, s, max_iter, tol, support_cap)
        for s2, w2 in mid.items():
            w2 *= w
            out[s2] = out[s2] + w2 if s2 in out else w2
        if mdiv:
            rdiv += w * mdiv
        if mapp:
            rapp += w * mapp
    return out, rdiv, rapp


def _eval_while(prog, c: CWhile, store: Store, max_iter, tol, support_cap):
    done: Dict = {}

    def sweep(act: Dict) -> Dict:
        live = {}
        for s, w in act.items():
            if eval_expr(prog, store=s, e=c.guard):
                live[s] = w
            else:
                done[s] = done[s] + w if s in done else w
        return live

    active = sweep({store: _ONE})
    done_div = body_approx = _ZERO
    for _ in range(max_iter):
        nxt, done_div, body_approx = _run_from(
            prog, c.body, active, done_div, body_approx, max_iter, tol, support_cap
        )
        before, active = active, sweep(nxt)
        if len(done) + len(active) > support_cap:
            raise ImpError("store support blow-up in while loop")
        if active == before:
            # chain hit its fixed point: the live mass provably diverges
            done_div += sum(active.values(), _ZERO)
            active = {}
            break
        if float(sum(active.values(), _ZERO)) <= tol:
            break
    return done, done_div, sum(active.values(), _ZERO) + body_approx


# ---------------------------------------------------------------------------
# Parsers for .imp files and for predicates over store pairs
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<comment>--[^\n]*)|(?P<num>\d+)|(?P<id>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>:=|<=|==|&&|\|\||[-+*;{}()\[\],~.]))"
)


def _tokenize_imp(src: str) -> List[Tuple[str, str, int]]:
    """(kind, text, offset) triples, then (None, None, end of the input)."""
    toks = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if not m:
            if src[pos:].strip() == "":
                break
            pos = len(src) - len(src[pos:].lstrip())  # past the blanks
            raise ImpError(f"bad character {src[pos]!r}", src, pos)
        pos = m.end()
        if m.lastgroup == "comment" or m.group(0).strip() == "":
            continue
        toks.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
    return toks + [(None, None, len(src.rstrip()))]


def _kind(e: Expr) -> str:
    """nat, bool or dist, for an expression the parser has built (and so
    checked part by part)."""
    if isinstance(e, EUnif):
        return "dist"
    return "bool" if isinstance(e, EBin) and e.op in ("<=", "==") else "nat"


class ImpParser:
    """The one static pass over a source: it checks each name against the
    declarations and each expression's kind as it builds them."""

    END = "unexpected end of program"

    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize_imp(src)
        self.pos = 0
        self.locs: List[str] = []  # the declarations, read before the body
        self.arrays: Dict[str, int] = {}

    def error(self, message: str, tok: Optional[int] = None) -> ImpError:
        """At token ``tok``, by default the one just read."""
        tok = self.pos - 1 if tok is None else tok
        return ImpError(message, self.src, self.toks[tok][2])

    def peek(self):
        return self.toks[self.pos][:2]

    def next(self):
        t = self.peek()
        if t[0] is None:
            raise self.error(self.END, self.pos)
        self.pos += 1
        return t

    def expect(self, text):
        kind, val = self.next()
        if val != text:
            raise self.error(f"expected {text!r}, got {val!r}")

    def at(self, text):
        return self.peek()[1] == text

    def number(self) -> int:
        """The numeral token just read, as an int."""
        val = self.toks[self.pos - 1][1]
        try:
            return int(val)
        except ValueError:  # past sys.get_int_max_str_digits()
            raise self.error(f"number too long ({len(val)} digits)") from None

    def end(self):
        if self.peek()[0] is not None:
            raise self.error(f"trailing input {self.peek()[1]!r}", self.pos)

    def declared(self, name: str, table, what: str) -> str:
        """``name``, the token just read, if the declarations name it."""
        if name not in table:
            raise self.error(f"undeclared {what} {name}")
        return name

    def declare(self) -> str:
        """The token just read, as a name that no declaration has taken."""
        kind, name = self.toks[self.pos - 1][:2]
        if kind != "id":
            raise self.error(f"expected an array name, got {name!r}")
        if name in self.RESERVED:
            raise self.error(f"reserved word {name!r} cannot name an array")
        if name in self.locs or name in self.arrays:
            raise self.error(f"{name} is already declared")
        return name

    RESERVED = {
        "skip",
        "if",
        "else",
        "while",
        "sample",
        "unif",
        "nth_unused",
        "locs",
        "array",
    }

    def _peek2(self):
        return self.toks[min(self.pos + 1, len(self.toks) - 1)][1]

    # declarations then one command
    def program(self) -> Program:
        locs, arrays = self.locs, self.arrays
        while self.at("locs") or self.at("array"):
            kind, val = self.next()
            if val == "locs":
                while (
                    self.peek()[0] == "id"
                    and self.peek()[1] not in self.RESERVED
                    and self._peek2() not in (":=", "[")
                ):
                    self.next()
                    locs.append(self.declare())
            else:
                self.next()
                name = self.declare()
                self.expect("[")
                kind, size = self.next()
                if kind != "num":
                    raise self.error(f"array size must be a number, got {size!r}")
                size = self.number()
                self.expect("]")
                arrays[name] = size
        body = self.command()
        self.end()
        return Program(locs, arrays, body)

    def command(self) -> Cmd:
        cmd = self.simple()
        while self.at(";"):
            self.next()
            if self.peek()[0] is None or self.at("}"):
                break  # tolerate a trailing separator
            cmd = CSeq(cmd, self.simple())
        return cmd

    def block(self) -> Cmd:
        self.expect("{")
        c = self.command()
        self.expect("}")
        return c

    def simple(self) -> Cmd:
        kind, val = self.peek()
        if val == "skip":
            self.next()
            return CSkip()
        if val in ("if", "while"):
            self.next()
            g = self.expr_of("bool", "guard must be boolean")
            if val == "while":
                return CWhile(g, self.block())
            then = self.block()
            self.expect("else")
            return CIf(g, then, self.block())
        if val == "sample":
            self.next()
            loc = self.declared(self.next()[1], self.locs, "location")
            dist = self.expr_of("dist", "sampling needs a distribution expression")
            return CSample(loc, dist)
        if val == "nth_unused":
            self.next()
            self.expect("(")
            names = [self.declared(self.next()[1], self.arrays, "array")]
            for _ in range(3):
                self.expect(",")
                names.append(self.declared(self.next()[1], self.locs, "location"))
            self.expect(")")
            return CNthUnused(*names)
        if kind == "id":
            target = name = self.next()[1]
            if self.at("["):
                target = (self.declared(name, self.arrays, "array"), self.index())
            else:
                self.declared(name, self.locs, "location")
            self.expect(":=")
            e = self.expr_of("nat", "assignment needs a natural-valued expression")
            return CAssign(target, e)
        raise self.error(f"expected a command, got {val!r}", self.pos)

    def expr_of(self, kind: str, message: str) -> Expr:
        """An expression of ``kind``, else ``message`` at its first token."""
        start = self.pos
        e = self.expr()
        if _kind(e) != kind:
            raise self.error(message, start)
        return e

    def index(self) -> Expr:
        """``[e]`` after an array name, ``e`` a natural."""
        self.expect("[")
        e = self.expr_of("nat", "array index must be a natural")
        self.expect("]")
        return e

    # binary operators, loosest first; a comparison does not chain
    LEVELS = (("<=", "=="), ("+", "-"), ("*",))

    def expr(self, level: int = 0) -> Expr:
        if level == len(self.LEVELS):
            return self.atom()
        left = self.expr(level + 1)
        while self.peek()[1] in self.LEVELS[level]:
            op = self.next()[1]
            at = self.pos - 1
            # a left operand of the wrong kind is reported before the right is read
            if _kind(left) != "nat" or _kind(right := self.expr(level + 1)) != "nat":
                raise self.error(f"operator {op} needs natural operands", at)
            left = EBin(op, left, right)
            if level == 0:
                break
        return left

    def atom(self) -> Expr:
        kind, val = self.next()
        if kind == "num":
            return ENum(self.number())
        if val == "(":
            e = self.expr()
            self.expect(")")
            return e
        if val == "unif":
            self.expect("(")
            e = self.expr_of("nat", "unif needs a natural bound")
            self.expect(")")
            return EUnif(e)
        if kind == "id":
            if self.at("["):
                return EIndex(self.declared(val, self.arrays, "array"), self.index())
            return ERead(self.declared(val, self.locs, "location"))
        raise self.error(f"expected an expression, got {val!r}")


def parse_imp(src: str) -> Program:
    return ImpParser(src).program()


class _PredParser(ImpParser):
    """Comparisons of ``expr`` over the reads ``s.name`` (left store) and
    ``t.name`` (right store), ``tt``, ``ff``, ``&&`` (binding tighter),
    ``||`` and parenthesised groups."""

    END = "predicate ends too early"

    def fail(self, what: str) -> ImpError:
        got = self.peek()[1]
        message = f"{self.END}: {what}" if got is None else f"{what}, got {got!r}"
        return self.error(message, self.pos)

    def disj(self) -> Expr:
        e = self.conj()
        while self.at("||"):
            self.next()
            e = EBin("||", e, self.conj())
        return e

    def conj(self) -> Expr:
        e = self.cmp()
        while self.at("&&"):
            self.next()
            e = EBin("&&", e, self.cmp())
        return e

    def cmp(self) -> Expr:
        if self.at("("):
            return self.group()
        if self.at("tt") or self.at("ff"):
            return ENum(self.next()[1] == "tt")
        e = self.expr()
        if isinstance(e, EBin) and e.op in ("<=", "=="):
            return e
        raise self.fail("expected '<=' or '=='")

    def group(self) -> Expr:
        self.next()
        e = self.disj()
        if not self.at(")"):
            raise self.fail("missing a ')'")
        self.next()
        return e

    def atom(self) -> Expr:
        kind, val = self.peek()
        if val == "(":  # as a number, a group is its predicate value
            return EBin("-", ENum(1.0), self.group())
        if kind == "num":
            self.next()
            return ENum(self.number())
        if val in ("s", "t") and self._peek2() == ".":
            self.pos += 2
            kind, name = self.next()
            if kind != "id":
                raise self.error(f"expected a name after {val}., got {name!r}")
            return ERead(f"{val}.{name}")
        raise self.fail("expected s.name, t.name, a number or '('")


class _StorePair:
    """The reader a predicate is evaluated on: ``get("s.x")`` is location
    x of the left store, or its whole array x; ``t.x`` reads the right."""

    def __init__(self, s: Store, t: Store):
        self.s, self.t = s, t

    def get(self, key: str):
        store = self.s if key[0] == "s" else self.t
        name = key[2:]
        if name in store.slots:
            return store.get(name)
        arr = store.array(name)
        if not arr:
            raise ImpError(f"{key} is neither a location nor an array of the store")
        return arr


def parse_store_pred(src: str):
    """A predicate over store pairs as ``(s, t) -> 0.0`` where it holds,
    else 1.0.  Names resolve against the stores when it is evaluated."""
    parser = _PredParser(src)
    e = parser.disj()
    parser.end()
    return lambda s, t: 0.0 if eval_expr(None, _StorePair(s, t), e) else 1.0
