"""Coupling-valued relational triples over the imperative language.

A triple `{pre} c ~ c' {post}` is valued, on a set of input store
pairs, as

    sup over pairs of: pre(s,s') -* (cheapest coupling cost)

where the cost couples the two output subdistributions, with
nontermination adjoined as an explicit bottom point so the relation
liftings apply literally:

    mode "eq":  post_=(bot,bot)=true, one-sided bottoms false
    mode "leq": post_<=(bot, _)=true, (a, bot)=false

Since all costs are 1-bounded, the infimum over arbitrary joints is
attained at exact couplings, so one transport LP per store pair yields
the exact value.  Truncation residual from cut-off loops sits at the
bottom point for the value (conservative) and additionally widens the
reported radius.

The random-permutation/random-function pair (`ri`/`rf`) and their
error-credit accounting are built and checked in
:func:`prp_prf_check`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from .grades import wand
from .imp import (
    CAssign,
    CNthUnused,
    CSample,
    CSeq,
    CWhile,
    Cmd,
    EBin,
    ENum,
    ERead,
    EUnif,
    Program,
    Store,
    analyse_cmd,
    eval_cmd,
)
from .measures import Dist, lift_relation, pushforward, total_variation, transport

StorePred = Callable[[Store, Store], float]


def coupling_cost(post_lifted, mu: Dist, nu: Dist) -> float:
    """Exact infimum over couplings of the lifted-post mean."""
    opt, _ = transport(post_lifted, mu, nu)
    return float(opt)


@dataclass
class TripleResult:
    value: float
    radius: float
    per_pair: List[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "radius": self.radius,
            "pairs": self.per_pair,
        }


def triple_value(
    prog_left: Program,
    cmd_left: Cmd,
    prog_right: Program,
    cmd_right: Cmd,
    pre: StorePred,
    post: StorePred,
    mode: str,
    store_pairs: List[Tuple[Store, Store]],
    max_iter: int = 64,
    tol: float = 0.0,
) -> TripleResult:
    """Triple truth value over a declared finite set of store pairs.

    0 means the triple holds on every listed pair; a positive value is
    the worst shortfall (the error credit needed).
    """
    lifted = lift_relation(post, mode)
    run_left = analyse_cmd(prog_left, cmd_left, max_iter=max_iter, tol=tol)
    run_right = analyse_cmd(prog_right, cmd_right, max_iter=max_iter, tol=tol)
    worst = 0.0
    radius = 0.0
    rows = []
    for s, s2 in store_pairs:
        mu = run_left(s)
        nu = run_right(s2)
        cost = coupling_cost(lifted, mu, nu)
        val = wand(float(pre(s, s2)), cost)
        rows.append({"value": val, "cost": cost})
        worst = max(worst, val)
        radius = max(
            radius, float(mu.residual_approx + nu.residual_approx)
        )
    return TripleResult(worst, min(radius, 1.0), rows)


# ---------------------------------------------------------------------------
# Random injection vs random function, with error credits
# ---------------------------------------------------------------------------


def rf_loop(n: int) -> Cmd:
    return CSeq(
        CSeq(
            CSample("val", EUnif(ENum(n - 1))),
            CAssign(("arr", ERead("i")), ERead("val")),
        ),
        CAssign("i", EBin("+", ERead("i"), ENum(1))),
    )


def ri_loop(n: int) -> Cmd:
    return CSeq(
        CSeq(
            CSeq(
                CSample("tmp", EUnif(EBin("-", ENum(n - 1), ERead("i")))),
                CNthUnused("arr", "i", "tmp", "val"),
            ),
            CAssign(("arr", ERead("i")), ERead("val")),
        ),
        CAssign("i", EBin("+", ERead("i"), ENum(1))),
    )


def make_programs(length: int, n: int, q: int) -> Tuple[Program, Program]:
    """`ri(q)` and `rf(q)`: fill the first q array slots with random
    values, injectively on the left, independently on the right."""
    guard = EBin("<=", ERead("i"), ENum(q - 1))
    rf_body = CSeq(CAssign("i", ENum(0)), CWhile(guard, rf_loop(n)))
    ri_body = CSeq(CAssign("i", ENum(0)), CWhile(guard, ri_loop(n)))
    decls = dict(locs=["i", "val", "tmp"], arrays={"arr": length})
    return (
        Program(body=ri_body, **decls),
        Program(body=rf_body, **decls),
    )


def eps_credit(q: int, n: int) -> Fraction:
    return Fraction(q * (q - 1), 2 * n)


def _phi_stores(prog: Program, length: int, n: int, q: int) -> List[Store]:
    """All stores satisfying the loop invariant at round q: the first q
    array slots hold pairwise distinct values, i = q."""
    base = prog.initial_store().set("i", q)
    out = []
    for combo in itertools.permutations(range(n), q):
        s = base
        for slot, v in enumerate(combo):
            s = s.set(("arr", slot), v)
        out.append(s)
    return out


@dataclass
class PrpReport:
    length: int
    n: int
    rows: List[dict] = field(default_factory=list)
    nth_unused_ok: bool = True
    telescoping_ok: bool = True
    ok: bool = True

    def to_json(self) -> dict:
        return {
            "L": self.length,
            "N": self.n,
            "rows": self.rows,
            "nth_unused": "ok" if self.nth_unused_ok else "violated",
            "telescoping": "ok" if self.telescoping_ok else "violated",
            "status": "ok" if self.ok else "violated",
        }


def check_nth_unused(length: int, n: int) -> bool:
    """Validate the deterministic scan against its contract: from
    any array contents f, position i0 and index k, it lands on the
    k-th value outside the image of the filled prefix; for fixed
    (f, i0) the map k -> val is injective into the unused values."""
    prog, _ = make_programs(length, n, length)
    run = analyse_cmd(prog, CNthUnused("arr", "i", "tmp", "val"))
    blank = prog.initial_store()
    for fvals in itertools.product(range(n), repeat=length):
        filled = blank
        for slot, v in enumerate(fvals):
            filled = filled.set(("arr", slot), v)
        for i0 in range(length):
            used = set(fvals[:i0])
            unused = [v for v in range(n) if v not in used]
            seen = set()
            at_i0 = filled.set("i", i0)
            for k in range(n - len(used)):
                s = at_i0.set("tmp", k)
                out = run(s)
                (final, w), = out.points
                val = final.get("val")
                if w != 1 or val != unused[k] or val in seen:
                    return False
                seen.add(val)
                # only the target location moved
                if final.set("val", s.get("val")) != s:
                    return False
    return True


def prp_prf_check(
    length: int, n: int, max_q: Optional[int] = None, tol: float = 1e-9
) -> PrpReport:
    """Error-credit accounting for random injection vs random function.

    Per q: the single-round triple needs at most q/n credit; the
    cumulative total-variation distance between the array outputs
    stays below q(q-1)/2n; and credits telescope exactly.
    """
    if length < 1:
        raise ValueError(f"length must be at least 1, got {length}")
    if length > n:
        raise ValueError("need array length <= value range")
    max_q = length if max_q is None else max_q
    if not 1 <= max_q <= length:
        raise ValueError(f"max_q must lie in 1..length = 1..{length}, got {max_q}")
    report = PrpReport(length=length, n=n)
    report.nth_unused_ok = check_nth_unused(length, n)
    report.ok = report.nth_unused_ok

    for q in range(0, max_q + 1):
        if eps_credit(q, n) + Fraction(q, n) != eps_credit(q + 1, n):
            report.telescoping_ok = False
            report.ok = False

    for q in range(1, max_q + 1):
        ri_prog, rf_prog = make_programs(length, n, q)
        # cumulative: exact TV between array projections
        s0 = ri_prog.initial_store()
        out_ri = eval_cmd(ri_prog, ri_prog.body, s0, max_iter=q + 1)
        out_rf = eval_cmd(rf_prog, rf_prog.body, s0, max_iter=q + 1)
        if out_ri.residual or out_rf.residual:
            raise RuntimeError(f"Q={q}: residual mass left after q + 1 unfoldings")
        tv = total_variation(
            pushforward(lambda s: s.array("arr"), out_ri),
            pushforward(lambda s: s.array("arr"), out_rf),
        )
        eps = eps_credit(q, n)
        cumulative_ok = tv <= eps

        # per-round: {phi(q-1)} ri_loop ~ rf_loop {phi(q)} needs (q-1)/n
        qq = q - 1
        stores = _phi_stores(ri_prog, length, n, qq)
        pairs = [(s, s) for s in stores]

        def phi_at(level):
            def pred(s, s2):
                same = s.array("arr") == s2.array("arr")
                return 0.0 if same and s.get("i") == s2.get("i") == level else 1.0

            return pred

        tri = triple_value(
            ri_prog,
            ri_loop(n),
            rf_prog,
            rf_loop(n),
            pre=phi_at(qq),
            post=phi_at(qq + 1),
            mode="eq",
            store_pairs=pairs,
        )
        credit = float(Fraction(qq, n))
        per_loop_ok = tri.value <= credit + tol
        report.rows.append(
            {
                "Q": q,
                "tv": float(tv),
                "epsilon": float(eps),
                "cumulative_ok": bool(cumulative_ok),
                "per_loop_value": tri.value,
                "per_loop_credit": credit,
                "per_loop_ok": bool(per_loop_ok),
            }
        )
        report.ok = report.ok and cumulative_ok and per_loop_ok
    return report
