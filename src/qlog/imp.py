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
intermediate order can change a weight or the final order.
:func:`analyse_cmd` analyses each command, and each expression in it,
once into a run (closure generation, as in Feeley and Lapalme, *Using
closures for code generation*, 1987).  A run maps a store to an
unordered store -> weight map, merged on store equality (the
equivalence of ``key_of``), whose int weights and residuals share one
denominator.  :func:`eval_cmd` analyses and runs, and canonicalises
once, building one ``Fraction`` per final store.

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

import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, Dict, List, Optional, Tuple, Union

from .measures import Dist, key_token


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
    ``"(" + key_token(location) + ","``, and for each array the
    indices of its slots in slot order.  Built once from the locations
    of a store and shared by every store :meth:`Store.set` derives."""

    __slots__ = ("heads", "arrays")

    def __init__(self, keys):
        super().__init__((k, i) for i, k in enumerate(keys))
        if len(self) < len(keys):
            dup = next(k for i, k in enumerate(keys) if self[k] != i)
            raise ImpError(f"duplicate location {dup}")
        self.heads = tuple("(" + key_token(k) + "," for k in keys)
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
        """``key_token(key_of(self))``, from the layout's heads."""
        heads = self.slots.heads
        tokens = [h + key_token(v) + ")" for h, (_, v) in zip(heads, self.items)]
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


_BINARY = {
    "+": operator.add,
    "*": operator.mul,
    "-": lambda a, b: max(a - b, 0),
    "<=": operator.le,
    "==": operator.eq,
    "&&": lambda a, b: a and b,
    "||": lambda a, b: a or b,
}


def _analyse_expr(prog: Optional[Program], e: Expr) -> Callable:
    """``e`` as a run from a store (anything with ``get``) to its value.
    Both operands of a binary operator are evaluated before it applies."""
    if isinstance(e, ENum):
        value = e.value
        return lambda store: value
    if isinstance(e, ERead):
        loc = e.loc
        return lambda store: store.get(loc)
    if isinstance(e, EIndex):
        slot = _analyse_slot(prog, e.array, e.index)
        return lambda store: store.get(slot(store))
    if isinstance(e, EBin) and e.op in _BINARY:
        op = _BINARY[e.op]
        left, right = _analyse_expr(prog, e.left), _analyse_expr(prog, e.right)
        return lambda store: op(left(store), right(store))
    if isinstance(e, EUnif):
        bound = _analyse_expr(prog, e.bound)

        def unif(store):
            hi = bound(store)
            w = Fraction(1, hi + 1)
            return Dist.from_pairs([(k, w) for k in range(hi + 1)])

        return unif

    def fail(store):
        raise ImpError(f"cannot evaluate {e!r}")

    return fail


def _analyse_slot(prog: Program, name: str, index: Expr) -> Callable:
    """The slot ``name[index]`` as a run from a store to its location."""
    index, size = _analyse_expr(prog, index), prog.arrays[name]

    def slot(store):
        idx = index(store)
        if not 0 <= idx < size:
            raise ImpError(f"{name}[{idx}] out of bounds (size {size})")
        return name, idx

    return slot


def eval_expr(prog: Program, store: Store, e: Expr):
    """The value of ``e`` on ``store``: analysed, then applied."""
    return _analyse_expr(prog, e)(store)


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
    return analyse_cmd(prog, c, max_iter, tol, support_cap)(store)


_ZERO = Fraction(0)
_ONE = Fraction(1)


def analyse_cmd(
    prog: Program,
    c: Cmd,
    max_iter: int = 64,
    tol: float = 0.0,
    support_cap: int = 100000,
) -> Callable[[Store], Dist]:
    """``c`` analysed once into a run ``store -> eval_cmd(prog, c, store,
    ...)``.  A run keeps nothing from one store to the next."""
    run = _analyse(prog, c, (max_iter, tol, support_cap))

    def run_dist(store: Store) -> Dist:
        out, den, rdiv, rapp = run(store)
        pairs = [(s, _ONE if w == den else Fraction(w, den)) for s, w in out.items()]
        return Dist.from_pairs(
            pairs,
            residual_div=Fraction(rdiv, den) if rdiv else _ZERO,
            residual_approx=Fraction(rapp, den) if rapp else _ZERO,
        )

    return run_dist


def _analyse(prog: Program, c: Cmd, limits: Tuple[int, float, int]) -> Callable:
    """``c`` as a run from a store to ``(out, den, rdiv, rapp)``: ``out``
    maps each final store to an int weight, and the weights and the
    divergent and approximation residuals are all over ``den``."""
    if isinstance(c, CSkip):
        return lambda store: ({store: 1}, 1, 0, 0)
    if isinstance(c, CAssign):
        expr = _analyse_expr(prog, c.expr)
        if not isinstance(c.target, tuple):
            key = c.target
            return lambda store: ({store.set(key, expr(store)): 1}, 1, 0, 0)
        slot = _analyse_slot(prog, *c.target)
        # the slot is found before the value is evaluated
        return lambda store: ({store.set(slot(store), expr(store)): 1}, 1, 0, 0)
    if isinstance(c, CSample) and not isinstance(c.dist, EUnif):
        dist = _analyse_expr(prog, c.dist)

        def fail(store):
            dist(store)
            raise ImpError("sampling from a non-distribution")

        return fail
    if isinstance(c, CSample):
        loc, bound = c.loc, _analyse_expr(prog, c.dist.bound)

        def sample(store):
            hi = bound(store)
            return {store.set(loc, v): 1 for v in range(hi + 1)}, hi + 1, 0, 0

        return sample
    if isinstance(c, CSeq):
        first, second = _analyse(prog, c.first, limits), _analyse(prog, c.second, limits)
        return lambda store: _mix(second, *first(store))
    if isinstance(c, CIf):
        guard = _analyse_expr(prog, c.guard)
        then, other = _analyse(prog, c.then, limits), _analyse(prog, c.other, limits)
        return lambda store: (then if guard(store) else other)(store)
    if isinstance(c, CWhile):
        guard, body = _analyse_expr(prog, c.guard), _analyse(prog, c.body, limits)
        return _analyse_while(guard, body, *limits)
    if isinstance(c, CNthUnused):
        return _analyse_nth_unused(c)

    def fail(store):
        raise ImpError(f"cannot run {c!r}")

    return fail


def _mix(run: Callable, stores: Dict, den: int, rdiv: int, rapp: int):
    """``run`` from each of the weighted ``stores`` and mixed, on top of
    the residuals ``rdiv`` and ``rapp``, all over ``den``; the same
    quadruple as a run, over a multiple of ``den``."""
    out: Dict[Store, int] = {}
    common = den
    for s, w in stores.items():
        mid, mden, mdiv, mapp = run(s)
        part = den * mden
        if part != common:
            grown = lcm(common, part)
            if grown != common:
                k = grown // common
                for s2 in out:
                    out[s2] *= k
                rdiv, rapp, common = rdiv * k, rapp * k, grown
            w *= common // part
        for s2, w2 in mid.items():
            w2 *= w
            out[s2] = out[s2] + w2 if s2 in out else w2
        if mdiv:
            rdiv += w * mdiv
        if mapp:
            rapp += w * mapp
    return out, common, rdiv, rapp


def _analyse_while(guard: Callable, body: Callable, max_iter, tol, support_cap):
    """The ascending iteration of the module docstring, as a run."""

    def loop(store):
        # ``done``, ``active`` and both residuals are over ``den``
        done: Dict[Store, int] = {}
        active: Dict[Store, int] = {}
        if guard(store):
            active[store] = 1
        else:
            done[store] = 1
        den, rdiv, rapp = 1, 0, 0
        for _ in range(max_iter):
            before = active
            nxt, grown, rdiv, rapp = _mix(body, before, den, rdiv, rapp)
            k = grown // den
            if k != 1:
                for s in done:
                    done[s] *= k
            den = grown
            active = {}
            for s, w in nxt.items():
                if guard(s):
                    active[s] = w
                else:
                    done[s] = done[s] + w if s in done else w
            if len(done) + len(active) > support_cap:
                raise ImpError("store support blow-up in while loop")
            if len(active) == len(before) and active == (
                before if k == 1 else {s: w * k for s, w in before.items()}
            ):
                # chain hit its fixed point: the live mass provably diverges
                rdiv += sum(active.values())
                active = {}
                break
            if float(Fraction(sum(active.values()), den)) <= tol:
                break
        return done, den, rdiv, sum(active.values()) + rapp

    return loop


def _analyse_nth_unused(c: CNthUnused) -> Callable:
    name, i_loc, tmp_loc, val_loc = c.array, c.i_loc, c.tmp_loc, c.val_loc

    def scan(store):
        items, prefix, k = store.items, max(store.get(i_loc), 0), store.get(tmp_loc)
        if k < 0:
            raise ImpError(f"nth_unused index {tmp_loc} = {k} is negative")
        used = {items[j][1] for j in store.slots.arrays[name][:prefix]}
        # the k-th value outside ``used`` is at most k + len(used)
        val = [v for v in range(k + len(used) + 1) if v not in used][k]
        return {store.set(val_loc, val): 1}, 1, 0, 0

    return scan


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
    holds = _analyse_expr(None, e)
    return lambda s, t: 0.0 if holds(_StorePair(s, t)) else 1.0
