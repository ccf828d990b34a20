"""Pretty-printer for the surface syntax; inverse of the parser."""

from __future__ import annotations

from .grades import ONE
from . import terms as T

# precedence levels, loose to tight: binders at 0, the infix forms at
# their terms.INFIX precedence from 1, then application; a keyword-led
# primary (case, delta, rec, proc) may head an application but only an
# _ARG may be its argument, or the operand of succ, fst and snd
_OPS = {cls: (tok, prec, assoc) for tok, (cls, prec, assoc) in T.INFIX.items()}
_APP = 1 + max(prec for _, prec, _ in _OPS.values())
_ATOM = _APP + 1
_ARG = _ATOM + 1


def print_type(ty: T.Type) -> str:
    return str(ty)


def _p(t: T.Term, level: int) -> str:
    s, lv = _render(t)
    if lv < level:
        return f"({s})"
    return s


def _render(t: T.Term):
    if type(t) in _OPS:
        tok, prec, assoc = _OPS[type(t)]
        if isinstance(t, T.Mix):
            tok = f"(+ {t.p})"
        elif isinstance(t, T.Eq) and t.at_type is not None:
            tok = f"==[{t.at_type}]"
        left = _p(t.left, prec if assoc == "left" else prec + 1)
        right = _p(t.right, prec if assoc == "right" else prec + 1)
        if tok == "==" and right.startswith("["):  # not "==[type]"
            right = f"({right})"
        return f"{left} {tok} {right}", prec
    if isinstance(t, (T.Var, T.Label)):
        return t.name, _ARG
    if isinstance(t, T.Unit):
        return "()", _ARG
    if isinstance(t, T.Zero):
        return "0", _ARG
    if isinstance(t, T.Succ):
        # compress literal numerals
        n, body = 0, t
        while isinstance(body, T.Succ):
            n, body = n + 1, body.body
        if isinstance(body, T.Zero):
            return str(n), _ARG
        return f"succ {_p(t.body, _ARG)}", _APP
    if isinstance(t, T.TT):
        return "tt", _ARG
    if isinstance(t, T.FF):
        return "ff", _ARG
    if isinstance(t, T.Lam):
        ann = ""
        if t.arg_type is not None:
            g = f"[{t.grade}] " if t.grade is not None else ""
            ann = f" : {g}{t.arg_type}"
        return f"fn {t.name}{ann}. {_p(t.body, 0)}", 0
    if isinstance(t, T.Fix):
        ann = f" : {t.fix_type}" if t.fix_type is not None else ""
        return f"fix {t.name}{ann}. {_p(t.body, 0)}", 0
    if isinstance(t, T.LetSample):
        return f"let {t.name} = {_p(t.bound, 1)} in {_p(t.body, 0)}", 0
    if isinstance(t, T.LetTensor):
        return (
            f"let ({t.left_name}, {t.right_name}) = {_p(t.bound, 1)} "
            f"in {_p(t.body, 0)}",
            0,
        )
    if isinstance(t, T.Exists):
        return f"exists {t.name} : {t.var_type}. {_p(t.body, 0)}", 0
    if isinstance(t, T.Forall):
        return f"forall {t.name} : {t.var_type}. {_p(t.body, 0)}", 0
    if isinstance(t, T.App):
        return f"{_p(t.fn, _APP)} {_p(t.arg, _ARG)}", _APP
    if isinstance(t, T.Pair):
        return f"<{_p(t.left, 0)}, {_p(t.right, 0)}>", _ARG
    if isinstance(t, T.TensorPair):
        g = ""
        if t.r is not None and not (t.r == ONE and t.s == ONE):
            g = f"[{t.r},{t.s}]"
        return f"({_p(t.left, 0)}, {_p(t.right, 0)}){g}", _ARG
    if isinstance(t, T.Proj):
        kw = "fst" if t.index == 1 else "snd"
        return f"{kw} {_p(t.body, _ARG)}", _APP
    if isinstance(t, T.Inj):
        ann = f"[{t.sum_type}]" if t.sum_type is not None else ""
        return f"inj{t.index}{ann} {_p(t.body, _ATOM)}", _APP
    if isinstance(t, T.Case):
        return (
            f"case {_p(t.scrut, 1)} {{ inj1 {t.left_name} => {_p(t.left_body, 0)}"
            f" | inj2 {t.right_name} => {_p(t.right_body, 0)} }}",
            _ATOM,
        )
    if isinstance(t, T.DiracTerm):
        return f"delta({_p(t.body, 0)})", _ATOM
    if isinstance(t, T.NatRec):
        return (
            f"rec({_p(t.zero_case, 0)}; {t.prev_name} {t.index_name}."
            f" {_p(t.succ_case, 0)}; {_p(t.scrut, 0)})",
            _ATOM,
        )
    if isinstance(t, T.Fld):
        return f"proc({_p(t.label, 0)}, {_p(t.step, 0)})", _ATOM
    if isinstance(t, T.Ufld):
        return f"ufld {_p(t.body, _ATOM)}", _APP
    if isinstance(t, T.Scale):
        return f"[{t.r}] {_p(t.body, _ATOM)}", _APP
    if isinstance(t, T.Neg):
        return f"~{_p(t.body, _ATOM)}", _APP
    raise ValueError(f"unprintable term {type(t).__name__}")


def print_term(t: T.Term) -> str:
    return _p(t, 0)
