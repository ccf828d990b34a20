"""Abstract syntax for types, terms and predicates, plus graded contexts.

Terms carry the annotations needed to make typing derivation-independent
(fix binders know their type and contraction grade, injections their sum
type, tensor pairs their scaling grades).  The parser fills what it can;
the typechecker's elaboration pass infers the rest where unambiguous.

The binding structure lives in one table, ``SCOPES``: for every binder
form, which name fields bind over which body field.  Free variables,
capture-avoiding substitution, alpha-equivalence keys (de Bruijn-style
binder numbering) and the parser's label resolution each read it, so a
new binder form needs one row there.
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


# binder form -> its scopes, each (fields naming the bound variables,
# the body field they scope over); other fields see only outer binders
SCOPES: Dict[type, Tuple[Tuple[Tuple[str, ...], str], ...]] = {
    Lam: ((("name",), "body"),),
    Fix: ((("name",), "body"),),
    LetSample: ((("name",), "body"),),
    Exists: ((("name",), "body"),),
    Forall: ((("name",), "body"),),
    LetTensor: ((("left_name", "right_name"), "body"),),
    Case: ((("left_name",), "left_body"), (("right_name",), "right_body")),
    NatRec: ((("prev_name", "index_name"), "succ_case"),),
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


def _bound_over(t: Term) -> Dict[str, Tuple[str, ...]]:
    """Body field -> the names t binds over it (see SCOPES)."""
    return {
        body: tuple(getattr(t, b) for b in binders)
        for binders, body in SCOPES.get(type(t), ())
    }


def free_vars(t: Term) -> set:
    if isinstance(t, Var):
        return {t.name}
    bound = _bound_over(t)
    out: set = set()
    for fname, c in _children(t):
        out |= free_vars(c).difference(bound.get(fname, ()))
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
    """Capture-avoiding substitution of repl for the free variable.

    Children outside every scope go first, in field order, then each
    scope, renaming (fresh_name) each binder that would capture repl.
    """
    if isinstance(t, Var):
        return repl if t.name == name else t
    scopes = SCOPES.get(type(t), ())
    bodies = {body for _, body in scopes}
    updates = {
        fname: substitute(c, name, repl)
        for fname, c in _children(t)
        if fname not in bodies
    }
    fv_repl = None
    for binders, body_field in scopes:
        if name in [getattr(t, b) for b in binders]:
            continue  # shadowed: the body keeps its bound occurrences
        if fv_repl is None:
            fv_repl = free_vars(repl)
        body = getattr(t, body_field)
        for b in binders:
            old = getattr(t, b)
            if old in fv_repl:
                updates[b] = fresh_name(old)
                body = substitute(body, old, Var(updates[b]))
        updates[body_field] = substitute(body, name, repl)
    return _clone(t, **updates) if updates else t


# annotations the typechecker derives (rather than the user writes) are
# excluded so elaborated and freshly-built terms compare equal
_DERIVED = {"at_type", "bind_grade", "contraction"}


def alpha_key(t: Term, env: Optional[Dict[str, int]] = None, depth: int = 0):
    """Canonical hashable key; equal keys iff alpha-equivalent terms.

    Bound variables become de Bruijn levels.  A binder form puts its
    annotations, if any, in one tuple ahead of its children.
    """
    if env is None:
        env = {}
    if isinstance(t, Var):
        if t.name in env:
            return ("bvar", env[t.name])
        return ("fvar", t.name)
    bound = _bound_over(t)
    skip = _DERIVED.union(*(binders for binders, _ in SCOPES.get(type(t), ())))
    parts: list = [type(t).__name__]
    ann: list = []
    for f in fields(t):
        if f.name in skip:
            continue
        v = getattr(t, f.name)
        if f.name in bound:
            inner = dict(env)
            for i, n in enumerate(bound[f.name]):
                inner[n] = depth + i
            parts.append(alpha_key(v, inner, depth + len(bound[f.name])))
        elif isinstance(v, Term):
            parts.append(alpha_key(v, env, depth))
        elif bound:
            ann.append(str(v))
        else:
            if isinstance(t, TensorPair) and v is None:
                v = ONE  # unannotated tensor pairs default to grades (1,1)
            if isinstance(v, (Grade, Fraction, int, str, Type)) or v is None:
                parts.append(str(v))
    if ann:
        parts.insert(1, tuple(ann))
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
