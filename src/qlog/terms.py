"""Abstract syntax for types, terms and predicates, plus graded contexts.

Terms carry the annotations needed to make typing derivation-independent
(fix binders know their type and contraction grade, injections their sum
type, tensor pairs their scaling grades).  The parser fills what it can;
the typechecker's elaboration pass infers the rest where unambiguous.

Alpha-equivalence is decided by canonical keys with de Bruijn-style
binder numbering; substitution is capture-avoiding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .grades import Grade, INF, ONE


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


class Type:
    def __str__(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


@dataclass(frozen=True)
class TNat(Type):
    def __str__(self):
        return "Nat"


@dataclass(frozen=True)
class TUnit(Type):
    def __str__(self):
        return "Unit"


@dataclass(frozen=True)
class TProp(Type):
    def __str__(self):
        return "Prop"


@dataclass(frozen=True)
class TAlpha(Type):
    """A declared finite alphabet, used discretely."""

    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class TProd(Type):
    left: Type
    right: Type

    def __str__(self):
        return f"({self.left} & {self.right})"


@dataclass(frozen=True)
class TSum(Type):
    left: Type
    right: Type

    def __str__(self):
        return f"({self.left} + {self.right})"


@dataclass(frozen=True)
class TTensor(Type):
    left: Type
    r: Grade
    s: Grade
    right: Type

    def __str__(self):
        if self.r == ONE and self.s == ONE:
            return f"({self.left} * {self.right})"
        return f"({self.left} *[{self.r},{self.s}] {self.right})"


@dataclass(frozen=True)
class TLolli(Type):
    left: Type
    r: Grade
    right: Type

    def __str__(self):
        if self.r == ONE:
            return f"({self.left} -o {self.right})"
        return f"({self.left} -o[{self.r}] {self.right})"


@dataclass(frozen=True)
class TDist(Type):
    inner: Type

    def __str__(self):
        return f"Dist {self.inner}"


@dataclass(frozen=True)
class TProc(Type):
    """Processes over a label alphabet with discount factor in (0,1]."""

    label: str
    c: Grade

    def __str__(self):
        return f"Proc[{self.c}] {self.label}"


def is_mixture_type(t: Type) -> bool:
    """Whether values of t support probabilistic mixing.

    Grammar: distributions, Prop, tensors of mixture types with grades
    <= 1, and functions into a mixture type.  These are the admissible
    targets of sampling lets.
    """
    if isinstance(t, (TDist, TProp)):
        return True
    if isinstance(t, TTensor):
        return (
            t.r <= ONE
            and t.s <= ONE
            and is_mixture_type(t.left)
            and is_mixture_type(t.right)
        )
    if isinstance(t, TLolli):
        return is_mixture_type(t.right)
    return False


# ---------------------------------------------------------------------------
# Terms (predicates are Prop-typed terms)
# ---------------------------------------------------------------------------


class Term:
    pass


@dataclass(eq=False)
class Var(Term):
    name: str


@dataclass(eq=False)
class Lam(Term):
    name: str
    body: Term
    arg_type: Optional[Type] = None
    grade: Optional[Grade] = None  # declared Lipschitz factor; minimal if None


@dataclass(eq=False)
class App(Term):
    fn: Term
    arg: Term


@dataclass(eq=False)
class Unit(Term):
    pass


@dataclass(eq=False)
class Pair(Term):  # cartesian pair, eliminated by projections
    left: Term
    right: Term


@dataclass(eq=False)
class Proj(Term):
    index: int  # 1 or 2
    body: Term


@dataclass(eq=False)
class Inj(Term):
    index: int  # 1 or 2
    body: Term
    sum_type: Optional[Type] = None


@dataclass(eq=False)
class Case(Term):
    scrut: Term
    left_name: str
    left_body: Term
    right_name: str
    right_body: Term


@dataclass(eq=False)
class TensorPair(Term):  # monoidal pair, eliminated by let-(x,y)
    left: Term
    right: Term
    r: Optional[Grade] = None
    s: Optional[Grade] = None


@dataclass(eq=False)
class LetTensor(Term):
    left_name: str
    right_name: str
    bound: Term
    body: Term


@dataclass(eq=False)
class DiracTerm(Term):
    body: Term


@dataclass(eq=False)
class Mix(Term):  # probabilistic choice between distributions
    p: Fraction
    left: Term
    right: Term


@dataclass(eq=False)
class LetSample(Term):  # sample from a distribution into a mixture type
    name: str
    bound: Term
    body: Term
    bind_grade: Optional[Grade] = None  # filled by the typechecker


@dataclass(eq=False)
class Zero(Term):
    pass


@dataclass(eq=False)
class Succ(Term):
    body: Term


@dataclass(eq=False)
class NatRec(Term):
    zero_case: Term
    prev_name: str  # result for the predecessor
    index_name: str  # the predecessor itself
    succ_case: Term
    scrut: Term


@dataclass(eq=False)
class Fix(Term):
    name: str
    body: Term
    fix_type: Optional[Type] = None
    contraction: Optional[Grade] = None  # filled by the typechecker


@dataclass(eq=False)
class Label(Term):
    name: str
    alphabet: Optional[str] = None  # resolved by the typechecker


@dataclass(eq=False)
class Fld(Term):  # build a process node from label and step distribution
    label: Term
    step: Term


@dataclass(eq=False)
class Ufld(Term):  # observe a process node as (label, step) tensor
    body: Term


# -- predicate formers -------------------------------------------------------


@dataclass(eq=False)
class TT(Term):
    pass


@dataclass(eq=False)
class FF(Term):
    pass


@dataclass(eq=False)
class Eq(Term):
    left: Term
    right: Term
    at_type: Optional[Type] = None


@dataclass(eq=False)
class Star(Term):
    left: Term
    right: Term


@dataclass(eq=False)
class WandT(Term):
    left: Term
    right: Term


@dataclass(eq=False)
class Scale(Term):
    r: Grade
    body: Term


@dataclass(eq=False)
class Neg(Term):
    body: Term


@dataclass(eq=False)
class Conj(Term):
    left: Term
    right: Term


@dataclass(eq=False)
class Disj(Term):
    left: Term
    right: Term


@dataclass(eq=False)
class Exists(Term):
    name: str
    var_type: Type
    body: Term


@dataclass(eq=False)
class Forall(Term):
    name: str
    var_type: Type
    body: Term


BINDERS = {
    Lam: ("name", ["body"]),
    Fix: ("name", ["body"]),
    LetSample: ("name", ["body"]),
    Exists: ("name", ["body"]),
    Forall: ("name", ["body"]),
}


def _children(t: Term) -> List[Tuple[str, Term]]:
    out = []
    for f in fields(t):
        v = getattr(t, f.name)
        if isinstance(v, Term):
            out.append((f.name, v))
    return out


# ---------------------------------------------------------------------------
# Free variables, substitution, alpha-equivalence
# ---------------------------------------------------------------------------


def free_vars(t: Term) -> set:
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, (Lam, Fix, LetSample, Exists, Forall)):
        inner = free_vars(t.body) - {t.name}
        if isinstance(t, LetSample):
            inner |= free_vars(t.bound)
        return inner
    if isinstance(t, LetTensor):
        return free_vars(t.bound) | (
            free_vars(t.body) - {t.left_name, t.right_name}
        )
    if isinstance(t, Case):
        return (
            free_vars(t.scrut)
            | (free_vars(t.left_body) - {t.left_name})
            | (free_vars(t.right_body) - {t.right_name})
        )
    if isinstance(t, NatRec):
        return (
            free_vars(t.zero_case)
            | (free_vars(t.succ_case) - {t.prev_name, t.index_name})
            | free_vars(t.scrut)
        )
    out: set = set()
    for _, c in _children(t):
        out |= free_vars(c)
    return out


_fresh_counter = itertools.count()


def fresh_name(base: str) -> str:
    base = base.lstrip("_").rstrip("0123456789") or "v"
    return f"_{base}{next(_fresh_counter)}"


def _clone(t: Term, **updates) -> Term:
    kwargs = {}
    for f in fields(t):
        kwargs[f.name] = updates.get(f.name, getattr(t, f.name))
    node = type(t)(**kwargs)
    if hasattr(t, "span"):
        node.span = t.span
    return node


def substitute(t: Term, name: str, repl: Term) -> Term:
    """Capture-avoiding substitution of repl for the free variable."""
    if isinstance(t, Var):
        return repl if t.name == name else t
    fv_repl = None

    def sub(u: Term) -> Term:
        return substitute(u, name, repl)

    def avoid(binder: str, body: Term) -> Tuple[str, Term]:
        nonlocal fv_repl
        if fv_repl is None:
            fv_repl = free_vars(repl)
        if binder in fv_repl:
            newb = fresh_name(binder)
            body = substitute(body, binder, Var(newb))
            return newb, body
        return binder, body

    if isinstance(t, (Lam, Fix, Exists, Forall)):
        if t.name == name:
            return t
        b, body = avoid(t.name, t.body)
        return _clone(t, name=b, body=sub(body))
    if isinstance(t, LetSample):
        bound = sub(t.bound)
        if t.name == name:
            return _clone(t, bound=bound)
        b, body = avoid(t.name, t.body)
        return _clone(t, name=b, bound=bound, body=sub(body))
    if isinstance(t, LetTensor):
        bound = sub(t.bound)
        if name in (t.left_name, t.right_name):
            return _clone(t, bound=bound)
        ln, body = avoid(t.left_name, t.body)
        rn, body = avoid(t.right_name, body)
        return _clone(t, left_name=ln, right_name=rn, bound=bound, body=sub(body))
    if isinstance(t, Case):
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
        return _clone(
            t, scrut=scrut, left_name=ln, left_body=lb, right_name=rn, right_body=rb
        )
    if isinstance(t, NatRec):
        z = sub(t.zero_case)
        n = sub(t.scrut)
        sc = t.succ_case
        pn, xn = t.prev_name, t.index_name
        if name not in (pn, xn):
            pn, sc = avoid(pn, sc)
            xn, sc = avoid(xn, sc)
            sc = sub(sc)
        return _clone(
            t, zero_case=z, prev_name=pn, index_name=xn, succ_case=sc, scrut=n
        )
    updates = {fname: sub(c) for fname, c in _children(t)}
    if not updates:
        return t
    return _clone(t, **updates)


def alpha_key(t: Term, env: Optional[Dict[str, int]] = None, depth: int = 0):
    """Canonical hashable key; equal keys iff alpha-equivalent terms."""
    if env is None:
        env = {}
    if isinstance(t, Var):
        if t.name in env:
            return ("bvar", env[t.name])
        return ("fvar", t.name)

    def under(names: List[str], body: Term, d: int):
        e = dict(env)
        for i, n in enumerate(names):
            e[n] = d + i
        return alpha_key(body, e, d + len(names))

    tag = type(t).__name__
    if isinstance(t, (Lam, Fix, Exists, Forall)):
        ann: tuple = ()
        if isinstance(t, Lam):
            ann = (str(t.arg_type), str(t.grade))
        if isinstance(t, Fix):
            ann = (str(t.fix_type),)
        if isinstance(t, (Exists, Forall)):
            ann = (str(t.var_type),)
        return (tag, ann, under([t.name], t.body, depth))
    if isinstance(t, LetSample):
        return (
            tag,
            alpha_key(t.bound, env, depth),
            under([t.name], t.body, depth),
        )
    if isinstance(t, LetTensor):
        return (
            tag,
            alpha_key(t.bound, env, depth),
            under([t.left_name, t.right_name], t.body, depth),
        )
    if isinstance(t, Case):
        return (
            tag,
            alpha_key(t.scrut, env, depth),
            under([t.left_name], t.left_body, depth),
            under([t.right_name], t.right_body, depth),
        )
    if isinstance(t, NatRec):
        return (
            tag,
            alpha_key(t.zero_case, env, depth),
            under([t.prev_name, t.index_name], t.succ_case, depth),
            alpha_key(t.scrut, env, depth),
        )
    # annotations the typechecker derives (rather than the user writes)
    # are excluded so elaborated and freshly-built terms compare equal
    derived = {"at_type", "bind_grade", "contraction"}
    parts: list = [tag]
    for f in fields(t):
        if f.name in derived:
            continue
        v = getattr(t, f.name)
        if isinstance(t, TensorPair) and f.name in ("r", "s") and v is None:
            v = ONE  # unannotated tensor pairs default to grades (1,1)
        if isinstance(v, Term):
            parts.append(alpha_key(v, env, depth))
        elif isinstance(v, (Grade, Fraction, int, str)) or v is None:
            parts.append(str(v))
        elif isinstance(v, Type):
            parts.append(str(v))
    return tuple(parts)


def alpha_eq(a: Term, b: Term) -> bool:
    return alpha_key(a) == alpha_key(b)


# ---------------------------------------------------------------------------
# Graded typing contexts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TypeCtx:
    """Ordered list of graded bindings (name, grade, type)."""

    bindings: Tuple[Tuple[str, Grade, Type], ...] = ()

    @staticmethod
    def of(*items: Tuple[str, Grade, Type]) -> "TypeCtx":
        names = [n for n, _, _ in items]
        if len(set(names)) != len(names):
            raise ValueError("duplicate names in context")
        return TypeCtx(tuple(items))

    def names(self) -> List[str]:
        return [n for n, _, _ in self.bindings]

    def grade_of(self, name: str) -> Grade:
        for n, g, _ in self.bindings:
            if n == name:
                return g
        raise KeyError(name)

    def types(self) -> Dict[str, Type]:
        return {n: ty for n, _, ty in self.bindings}

    def extended(self, name: str, grade: Grade, ty: Type) -> "TypeCtx":
        if name in self.names():
            raise ValueError(f"variable {name} already bound")
        return TypeCtx(self.bindings + ((name, grade, ty),))

    def is_discrete(self) -> bool:
        return all(g == INF for _, g, _ in self.bindings)

    def __str__(self):
        return ", ".join(f"{n} :[{g}] {ty}" for n, g, ty in self.bindings)


def ctx_add(g1: TypeCtx, g2: TypeCtx) -> TypeCtx:
    """Pointwise grade sum; defined only for compatible contexts."""
    if [(n, ty) for n, _, ty in g1.bindings] != [
        (n, ty) for n, _, ty in g2.bindings
    ]:
        raise ValueError(
            "incompatible contexts: sums need identical names, types and order"
        )
    return TypeCtx(
        tuple(
            (n, ga + gb, ty)
            for (n, ga, ty), (_, gb, _) in zip(g1.bindings, g2.bindings)
        )
    )


def ctx_scale(r: Grade, g: TypeCtx) -> TypeCtx:
    """Pointwise grade multiplication (with inf * 0 = 0)."""
    return TypeCtx(tuple((n, r * gr, ty) for n, gr, ty in g.bindings))
