"""Judgments, derivation checking and semantic checking.

A logic judgment `delta | hyps |- goal` pairs a discrete typing
context with hypothesis predicates and a conclusion predicate.  Two
independent checkers operate on them:

* :func:`check_derivation` verifies a proof tree structurally: every
  node names an inference rule, stores its conclusion judgment, and
  must match the rule schema against its children's conclusions up to
  judgmental normalization (with fixed points unfolded only on an
  explicit per-node request).

* :func:`check_semantic` evaluates both sides on sampled environments
  and verifies `value(hyps) + radii + tol >= value(goal)`.

Their agreement on the bundled corpus is the heart of the test suite.

Derivation files are JSON trees ``{rule, judgment, params, children}``
with terms and types in surface syntax; grades are strings such as
"1/3" or "inf".
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Tuple

from .grades import Grade, INF, ONE, ZERO, oplus
from .measures import Coupling, Dist, kantorovich
from . import terms as T
from .normalize import judgmental_equal, normal_form
from .parser import QlogFile, parse_file, parse_term, parse_type
from .typecheck import Checker, TypeCheckError
from .values import Approx
from .evaluator import Evaluator


class DerivationError(Exception):
    def __init__(self, path: str, rule: str, message: str):
        self.path = path
        self.rule = rule
        self.message = message
        super().__init__(f"{path} [{rule}]: {message}")


@dataclass
class LogicJudgment:
    delta: T.TypeCtx  # every grade is inf
    hyps: List[T.Term]
    goal: T.Term

    def well_formed(self, checker: Checker) -> None:
        if not self.delta.is_discrete():
            raise TypeCheckError("ctx", "judgment context must be discrete")
        for phi in list(self.hyps) + [self.goal]:
            checker.check_predicate(self.delta, phi)


@dataclass
class Derivation:
    rule: str
    judgment: LogicJudgment
    params: Dict[str, Any] = field(default_factory=dict)
    children: List["Derivation"] = field(default_factory=list)


# ---------------------------------------------------------------------------
# JSON loading
# ---------------------------------------------------------------------------


def judgment_from_json(obj: dict, qfile: Optional[QlogFile] = None) -> LogicJudgment:
    bindings = []
    for name, tystr in obj.get("delta", []):
        bindings.append((name, INF, parse_type(tystr)))
    delta = T.TypeCtx(tuple(bindings))
    hyps = [parse_term(src, qfile) for src in obj.get("hyps", [])]
    goal = parse_term(obj["goal"], qfile)
    return LogicJudgment(delta, hyps, goal)


def derivation_from_json(obj: dict, qfile: Optional[QlogFile] = None) -> Derivation:
    return Derivation(
        rule=obj["rule"],
        judgment=judgment_from_json(obj["judgment"], qfile),
        params=obj.get("params", {}),
        children=[derivation_from_json(c, qfile) for c in obj.get("children", [])],
    )


def load_derivation_file(text: str, base_dir: Optional[str] = None):
    """Returns (qfile, derivation). The file may inline a `source`
    .qlog preamble or point at one with `source_file`."""
    obj = json.loads(text)
    qfile = load_source(obj, base_dir)
    return qfile, derivation_from_json(obj["derivation"], qfile)


def load_source(obj: dict, base_dir: Optional[str] = None):
    """The parsed .qlog preamble of a derivation or judgment file: its
    inline ``source``, or its ``source_file`` (relative to ``base_dir``
    if given); None if it has neither."""
    if "source" in obj:
        return parse_file(obj["source"])
    if "source_file" in obj:
        path = obj["source_file"]
        if base_dir is not None:
            path = os.path.join(base_dir, path)
        with open(path, "r", encoding="utf-8") as fh:
            return parse_file(fh.read())
    return None


# ---------------------------------------------------------------------------
# Structural checking
# ---------------------------------------------------------------------------

CLASSICAL_RULES = {"neg-e"}

RULES = [
    "true",
    "false",
    "ass",
    "ex",
    "pr",
    "dup-up",
    "dup-down",
    "der-up",
    "der-down",
    "inc",
    "assoc1",
    "assoc2",
    "g-rec",
    "star-i",
    "star-e",
    "wand-i",
    "wand-e",
    "neg-i",
    "conj-i",
    "conj-el",
    "conj-er",
    "neg-e",
    "disj-il",
    "disj-ir",
    "disj-e",
    "exists-i",
    "exists-e",
    "forall-i",
    "forall-e",
    "eq-i",
    "eq-e",
    "ind-tensor",
    "ind-plus",
    "ind-nat",
    "ind-dist",
]


@dataclass
class DerivationReport:
    ok: bool
    nodes: int = 0
    classical_rules_used: List[str] = field(default_factory=list)
    error: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "status": "ok" if self.ok else "error",
            "nodes": self.nodes,
            "classical_rules_used": self.classical_rules_used,
            "violations": [] if self.ok else [self.error],
        }


class DerivationChecker:
    def __init__(self, checker: Checker, qfile: Optional[QlogFile] = None):
        self.checker = checker
        self.qfile = qfile

    # -- entry point -----------------------------------------------------

    def check(self, d: Derivation) -> DerivationReport:
        report = DerivationReport(ok=True)
        try:
            self._check_node(d, "root", report)
        except (DerivationError, TypeCheckError) as e:
            return DerivationReport(
                ok=False,
                nodes=report.nodes,
                classical_rules_used=report.classical_rules_used,
                error=str(e),
            )
        return report

    def _check_node(self, d: Derivation, path: str, report: DerivationReport):
        report.nodes += 1
        if d.rule not in RULES:
            raise DerivationError(path, d.rule, "unknown rule")
        if d.rule in CLASSICAL_RULES:
            report.classical_rules_used.append(path)
        d.judgment.well_formed(self.checker)
        for i, c in enumerate(d.children):
            self._check_node(c, f"{path}.{i}", report)
        handler = getattr(self, "_rule_" + d.rule.replace("-", "_"))
        handler(d, path)

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _unfolds(d: Derivation) -> int:
        return int(d.params.get("unfold_fix", 0))

    def _eq(self, d: Derivation, a: T.Term, b: T.Term) -> bool:
        return judgmental_equal(a, b, fix_unfolds=self._unfolds(d))

    def _eq_list(self, d, xs: List[T.Term], ys: List[T.Term]) -> bool:
        return len(xs) == len(ys) and all(
            self._eq(d, a, b) for a, b in zip(xs, ys)
        )

    @staticmethod
    def _same_ctx(a: T.TypeCtx, b: T.TypeCtx) -> bool:
        return [(n, str(t)) for n, _, t in a.bindings] == [
            (n, str(t)) for n, _, t in b.bindings
        ]

    def _require(self, cond: bool, path: str, rule: str, msg: str):
        if not cond:
            raise DerivationError(path, rule, msg)

    def _kids(self, d: Derivation, n: int, path: str) -> List[LogicJudgment]:
        self._require(
            len(d.children) == n, path, d.rule, f"expected {n} premises"
        )
        for c in d.children:
            if d.rule not in (
                "exists-e",
                "forall-i",
                "ind-tensor",
                "ind-plus",
                "ind-nat",
                "ind-dist",
            ):
                self._require(
                    self._same_ctx(c.judgment.delta, d.judgment.delta),
                    path,
                    d.rule,
                    "premise context differs from conclusion context",
                )
        return [c.judgment for c in d.children]

    def _grade(self, d: Derivation, key: str, path: str) -> Grade:
        self._require(key in d.params, path, d.rule, f"missing grade param {key}")
        return Grade.of(str(d.params[key]))

    def _term(self, d: Derivation, key: str, path: str) -> T.Term:
        self._require(key in d.params, path, d.rule, f"missing term param {key}")
        return parse_term(str(d.params[key]), self.qfile)

    def _type(self, d: Derivation, key: str, path: str) -> T.Type:
        self._require(key in d.params, path, d.rule, f"missing type param {key}")
        return parse_type(str(d.params[key]))

    def _at(self, d: Derivation, hyps: List[T.Term], path: str) -> int:
        at = int(d.params.get("at", len(hyps) - 1))
        self._require(0 <= at < len(hyps), path, d.rule, "position out of range")
        return at

    def _typecheck(self, d, delta: T.TypeCtx, term: T.Term, ty: T.Type, path):
        try:
            self.checker.check(delta, term, ty)
        except TypeCheckError as e:
            raise DerivationError(path, d.rule, f"side condition failed: {e}")

    def _strip_scale(self, phi: T.Term) -> Tuple[Grade, T.Term]:
        phi = normal_form(phi)
        if isinstance(phi, T.Scale):
            return phi.r, phi.body
        return ONE, phi

    # -- structural rules -------------------------------------------------

    def _rule_true(self, d, path):
        self._kids(d, 0, path)
        self._require(self._eq(d, d.judgment.goal, T.TT()), path, d.rule,
                      "conclusion is not tt")

    def _rule_false(self, d, path):
        self._kids(d, 0, path)
        h = d.judgment.hyps
        self._require(bool(h) and self._eq(d, h[-1], T.FF()), path, d.rule,
                      "last hypothesis is not ff")

    def _rule_ass(self, d, path):
        self._kids(d, 0, path)
        h = d.judgment.hyps
        self._require(bool(h) and self._eq(d, h[-1], d.judgment.goal),
                      path, d.rule, "conclusion is not the last hypothesis")

    def _rule_ex(self, d, path):
        (kid,) = self._kids(d, 1, path)
        h = list(d.judgment.hyps)
        at = int(d.params.get("at", 0))
        self._require(0 <= at < len(h) - 1, path, d.rule, "bad swap position")
        h[at], h[at + 1] = h[at + 1], h[at]
        self._require(self._eq_list(d, kid.hyps, h), path, d.rule,
                      "premise hypotheses are not the swapped conclusion ones")
        self._require(self._eq(d, kid.goal, d.judgment.goal), path, d.rule,
                      "premise goal differs")

    def _rule_pr(self, d, path):
        (kid,) = self._kids(d, 1, path)
        r = self._grade(d, "r", path)
        self._require(r > ZERO, path, d.rule, "scaling grade must be positive")
        want_h = [T.Scale(r, h) for h in kid.hyps]
        self._require(self._eq_list(d, d.judgment.hyps, want_h), path, d.rule,
                      "hypotheses are not the scaled premises")
        self._require(
            self._eq(d, d.judgment.goal, T.Scale(r, kid.goal)),
            path, d.rule, "goal is not the scaled premise goal")

    def _dup(self, d, path, up: bool):
        (kid,) = self._kids(d, 1, path)
        r = self._grade(d, "r", path)
        s = self._grade(d, "s", path)
        phi = self._term(d, "phi", path)
        # upper judgment: Psi, (r+s)phi |- psi ; lower: Psi, r phi, s phi |- psi
        upper = d.judgment if up else kid
        lower = kid if up else d.judgment
        self._require(len(upper.hyps) >= 1 and len(lower.hyps) >= 2,
                      path, d.rule, "hypothesis lists too short")
        self._require(
            self._eq(d, upper.hyps[-1], T.Scale(r + s, phi)), path, d.rule,
            "joined hypothesis mismatch")
        self._require(
            self._eq(d, lower.hyps[-2], T.Scale(r, phi))
            and self._eq(d, lower.hyps[-1], T.Scale(s, phi)),
            path, d.rule, "split hypotheses mismatch")
        self._require(
            self._eq_list(d, upper.hyps[:-1], lower.hyps[:-2]),
            path, d.rule, "remaining hypotheses differ")
        self._require(self._eq(d, upper.goal, lower.goal), path, d.rule,
                      "goals differ")

    def _rule_dup_up(self, d, path):
        self._dup(d, path, up=True)

    def _rule_dup_down(self, d, path):
        self._dup(d, path, up=False)

    def _der(self, d, path, up: bool):
        (kid,) = self._kids(d, 1, path)
        phi = self._term(d, "phi", path)
        plain = d.judgment if up else kid
        scaled = kid if up else d.judgment
        self._require(bool(plain.hyps) and bool(scaled.hyps), path, d.rule,
                      "missing hypothesis")
        self._require(self._eq(d, plain.hyps[-1], phi), path, d.rule,
                      "plain hypothesis mismatch")
        self._require(self._eq(d, scaled.hyps[-1], T.Scale(ONE, phi)),
                      path, d.rule, "scaled hypothesis mismatch")
        self._require(self._eq_list(d, plain.hyps[:-1], scaled.hyps[:-1]),
                      path, d.rule, "remaining hypotheses differ")
        self._require(self._eq(d, plain.goal, scaled.goal), path, d.rule,
                      "goals differ")

    def _rule_der_up(self, d, path):
        self._der(d, path, up=True)

    def _rule_der_down(self, d, path):
        self._der(d, path, up=False)

    def _rule_inc(self, d, path):
        (kid,) = self._kids(d, 1, path)
        r = self._grade(d, "r", path)
        s = self._grade(d, "s", path)
        phi = self._term(d, "phi", path)
        self._require(r <= s, path, d.rule, f"needs r <= s, got {r} > {s}")
        at = self._at(d, d.judgment.hyps, path)
        self._require(self._eq(d, d.judgment.hyps[at], T.Scale(s, phi)),
                      path, d.rule, "conclusion hypothesis mismatch")
        self._require(self._eq(d, kid.hyps[at], T.Scale(r, phi)),
                      path, d.rule, "premise hypothesis mismatch")
        rest_c = d.judgment.hyps[:at] + d.judgment.hyps[at + 1:]
        rest_k = kid.hyps[:at] + kid.hyps[at + 1:]
        self._require(self._eq_list(d, rest_c, rest_k), path, d.rule,
                      "remaining hypotheses differ")
        self._require(self._eq(d, kid.goal, d.judgment.goal), path, d.rule,
                      "goals differ")

    def _rule_assoc1(self, d, path):
        (kid,) = self._kids(d, 1, path)
        r = self._grade(d, "r", path)
        s = self._grade(d, "s", path)
        phi = self._term(d, "phi", path)
        at = self._at(d, d.judgment.hyps, path)
        self._require(self._eq(d, kid.hyps[at], T.Scale(r, T.Scale(s, phi))),
                      path, d.rule, "premise hypothesis mismatch")
        self._require(self._eq(d, d.judgment.hyps[at], T.Scale(r * s, phi)),
                      path, d.rule, "conclusion hypothesis mismatch")
        self._require(
            self._eq_list(
                d,
                kid.hyps[:at] + kid.hyps[at + 1:],
                d.judgment.hyps[:at] + d.judgment.hyps[at + 1:],
            ),
            path, d.rule, "remaining hypotheses differ")
        self._require(self._eq(d, kid.goal, d.judgment.goal), path, d.rule,
                      "goals differ")

    def _rule_assoc2(self, d, path):
        (kid,) = self._kids(d, 1, path)
        r = self._grade(d, "r", path)
        p = self._grade(d, "p", path)
        phi = self._term(d, "phi", path)
        self._require(p <= ONE or r >= ONE, path, d.rule,
                      "needs p <= 1 or r >= 1")
        at = self._at(d, d.judgment.hyps, path)
        self._require(self._eq(d, kid.hyps[at], T.Scale(r * p, phi)),
                      path, d.rule, "premise hypothesis mismatch")
        self._require(
            self._eq(d, d.judgment.hyps[at], T.Scale(r, T.Scale(p, phi))),
            path, d.rule, "conclusion hypothesis mismatch")
        self._require(self._eq(d, kid.goal, d.judgment.goal), path, d.rule,
                      "goals differ")

    def _rule_g_rec(self, d, path):
        (kid,) = self._kids(d, 1, path)
        p = self._grade(d, "p", path)
        self._require(ZERO < p < ONE, path, d.rule,
                      f"guard must lie in (0,1), got {p}")
        q = ONE - p
        want = [T.Scale(q, h) for h in d.judgment.hyps] + [
            T.Scale(p, d.judgment.goal)
        ]
        self._require(self._eq_list(d, kid.hyps, want), path, d.rule,
                      "premise is not (1-p)Psi, p*goal")
        self._require(self._eq(d, kid.goal, d.judgment.goal), path, d.rule,
                      "premise goal differs")

    def _rule_star_i(self, d, path):
        k1, k2 = self._kids(d, 2, path)
        goal = normal_form(d.judgment.goal)
        self._require(isinstance(goal, T.Star), path, d.rule,
                      "goal is not a separating conjunction")
        self._require(self._eq(d, goal.left, k1.goal)
                      and self._eq(d, goal.right, k2.goal),
                      path, d.rule, "goal parts differ from premises")
        self._require(
            self._eq_list(d, d.judgment.hyps, k1.hyps + k2.hyps),
            path, d.rule, "hypotheses are not the concatenated premises")

    def _rule_star_e(self, d, path):
        (kid,) = self._kids(d, 1, path)
        at = self._at(d, d.judgment.hyps, path)
        self._require(len(kid.hyps) == len(d.judgment.hyps) + 1,
                      path, d.rule, "premise must split one hypothesis")
        alpha, beta = kid.hyps[at], kid.hyps[at + 1]
        self._require(
            self._eq(d, d.judgment.hyps[at], T.Star(alpha, beta)),
            path, d.rule, "hypothesis is not the star of the premise pair")
        rest_k = kid.hyps[:at] + kid.hyps[at + 2:]
        rest_c = d.judgment.hyps[:at] + d.judgment.hyps[at + 1:]
        self._require(self._eq_list(d, rest_k, rest_c), path, d.rule,
                      "remaining hypotheses differ")
        self._require(self._eq(d, kid.goal, d.judgment.goal), path, d.rule,
                      "goals differ")

    def _rule_wand_i(self, d, path):
        (kid,) = self._kids(d, 1, path)
        goal = normal_form(d.judgment.goal)
        self._require(isinstance(goal, T.WandT), path, d.rule,
                      "goal is not a magic wand")
        self._require(
            self._eq_list(d, kid.hyps, d.judgment.hyps + [goal.left]),
            path, d.rule, "premise hypotheses mismatch")
        self._require(self._eq(d, kid.goal, goal.right), path, d.rule,
                      "premise goal mismatch")

    def _rule_wand_e(self, d, path):
        k1, k2 = self._kids(d, 2, path)
        g1 = normal_form(k1.goal)
        self._require(isinstance(g1, T.WandT), path, d.rule,
                      "first premise goal is not a magic wand")
        self._require(self._eq(d, k2.goal, g1.left), path, d.rule,
                      "second premise does not prove the antecedent")
        self._require(self._eq(d, d.judgment.goal, g1.right), path, d.rule,
                      "conclusion is not the consequent")
        self._require(
            self._eq_list(d, d.judgment.hyps, k1.hyps + k2.hyps),
            path, d.rule, "hypotheses are not the concatenated premises")

    def _rule_neg_i(self, d, path):
        (kid,) = self._kids(d, 1, path)
        goal = normal_form(d.judgment.goal)
        self._require(isinstance(goal, T.Neg), path, d.rule,
                      "goal is not a negation")
        self._require(
            self._eq_list(d, kid.hyps, d.judgment.hyps + [goal.body]),
            path, d.rule, "premise hypotheses mismatch")
        self._require(self._eq(d, kid.goal, T.FF()), path, d.rule,
                      "premise goal must be ff")

    def _rule_neg_e(self, d, path):
        (kid,) = self._kids(d, 1, path)
        self._require(
            self._eq_list(
                d, kid.hyps, d.judgment.hyps + [T.Neg(d.judgment.goal)]
            ),
            path, d.rule, "premise hypotheses mismatch")
        self._require(self._eq(d, kid.goal, T.FF()), path, d.rule,
                      "premise goal must be ff")

    def _rule_conj_i(self, d, path):
        k1, k2 = self._kids(d, 2, path)
        goal = normal_form(d.judgment.goal)
        self._require(isinstance(goal, T.Conj), path, d.rule,
                      "goal is not a conjunction")
        self._require(self._eq(d, goal.left, k1.goal)
                      and self._eq(d, goal.right, k2.goal),
                      path, d.rule, "goal parts differ from premises")
        self._require(self._eq_list(d, k1.hyps, d.judgment.hyps)
                      and self._eq_list(d, k2.hyps, d.judgment.hyps),
                      path, d.rule, "premises must share the hypotheses")

    def _conj_e(self, d, path, left: bool):
        (kid,) = self._kids(d, 1, path)
        g = normal_form(kid.goal)
        self._require(isinstance(g, T.Conj), path, d.rule,
                      "premise goal is not a conjunction")
        part = g.left if left else g.right
        self._require(self._eq(d, d.judgment.goal, part), path, d.rule,
                      "conclusion is not the selected component")
        self._require(self._eq_list(d, kid.hyps, d.judgment.hyps),
                      path, d.rule, "hypotheses differ")

    def _rule_conj_el(self, d, path):
        self._conj_e(d, path, left=True)

    def _rule_conj_er(self, d, path):
        self._conj_e(d, path, left=False)

    def _disj_i(self, d, path, left: bool):
        (kid,) = self._kids(d, 1, path)
        goal = normal_form(d.judgment.goal)
        self._require(isinstance(goal, T.Disj), path, d.rule,
                      "goal is not a disjunction")
        part = goal.left if left else goal.right
        self._require(self._eq(d, kid.goal, part), path, d.rule,
                      "premise does not prove the selected component")
        self._require(self._eq_list(d, kid.hyps, d.judgment.hyps),
                      path, d.rule, "hypotheses differ")

    def _rule_disj_il(self, d, path):
        self._disj_i(d, path, left=True)

    def _rule_disj_ir(self, d, path):
        self._disj_i(d, path, left=False)

    def _rule_disj_e(self, d, path):
        k1, k2 = self._kids(d, 2, path)
        h = d.judgment.hyps
        self._require(bool(h), path, d.rule, "missing disjunctive hypothesis")
        dis = normal_form(h[-1])
        self._require(isinstance(dis, T.Disj), path, d.rule,
                      "last hypothesis is not a disjunction")
        self._require(
            self._eq_list(d, k1.hyps, h[:-1] + [dis.left])
            and self._eq_list(d, k2.hyps, h[:-1] + [dis.right]),
            path, d.rule, "premise hypotheses mismatch")
        self._require(self._eq(d, k1.goal, d.judgment.goal)
                      and self._eq(d, k2.goal, d.judgment.goal),
                      path, d.rule, "premise goals differ from conclusion")

    def _rule_exists_i(self, d, path):
        (kid,) = self._kids(d, 1, path)
        goal = normal_form(d.judgment.goal)
        self._require(isinstance(goal, T.Exists), path, d.rule,
                      "goal is not an existential")
        t = self._term(d, "witness", path)
        self._typecheck(d, d.judgment.delta, t, goal.var_type, path)
        self._require(
            self._eq(d, kid.goal, T.substitute(goal.body, goal.name, t)),
            path, d.rule, "premise is not the instantiated body")
        self._require(self._eq_list(d, kid.hyps, d.judgment.hyps),
                      path, d.rule, "hypotheses differ")

    def _rule_exists_e(self, d, path):
        (kid,) = self._kids(d, 1, path)
        h = d.judgment.hyps
        self._require(bool(h), path, d.rule, "missing existential hypothesis")
        r, ex = self._strip_scale(h[-1])
        self._require(isinstance(ex, T.Exists), path, d.rule,
                      "last hypothesis is not a (scaled) existential")
        self._require(not r.is_infinite, path, d.rule,
                      "elimination needs a finite scaling grade")
        kd = kid.delta.bindings
        dd = d.judgment.delta.bindings
        self._require(
            len(kd) == len(dd) + 1
            and [(n, str(t)) for n, _, t in kd[:-1]]
            == [(n, str(t)) for n, _, t in dd]
            and str(kd[-1][2]) == str(ex.var_type),
            path, d.rule, "premise context must extend with the witness")
        fresh = kd[-1][0]
        body = T.substitute(ex.body, ex.name, T.Var(fresh))
        self._require(
            self._eq_list(d, kid.hyps, h[:-1] + [T.Scale(r, body)]),
            path, d.rule, "premise hypotheses mismatch")
        self._require(self._eq(d, kid.goal, d.judgment.goal), path, d.rule,
                      "goals differ")
        used = set()
        for phi in h[:-1] + [d.judgment.goal]:
            used |= T.free_vars(phi)
        self._require(fresh not in used, path, d.rule,
                      "witness variable escapes into the conclusion")

    def _rule_forall_i(self, d, path):
        (kid,) = self._kids(d, 1, path)
        r, fa = self._strip_scale(d.judgment.goal)
        self._require(isinstance(fa, T.Forall), path, d.rule,
                      "goal is not a (scaled) universal")
        kd = kid.delta.bindings
        dd = d.judgment.delta.bindings
        self._require(
            len(kd) == len(dd) + 1
            and [(n, str(t)) for n, _, t in kd[:-1]]
            == [(n, str(t)) for n, _, t in dd]
            and str(kd[-1][2]) == str(fa.var_type),
            path, d.rule, "premise context must extend with the variable")
        fresh = kd[-1][0]
        body = T.substitute(fa.body, fa.name, T.Var(fresh))
        self._require(self._eq(d, kid.goal, T.Scale(r, body)), path, d.rule,
                      "premise goal mismatch")
        self._require(self._eq_list(d, kid.hyps, d.judgment.hyps),
                      path, d.rule, "hypotheses differ")
        used = set()
        for phi in d.judgment.hyps:
            used |= T.free_vars(phi)
        self._require(fresh not in used, path, d.rule,
                      "variable escapes into the hypotheses")

    def _rule_forall_e(self, d, path):
        (kid,) = self._kids(d, 1, path)
        fa = normal_form(kid.goal)
        self._require(isinstance(fa, T.Forall), path, d.rule,
                      "premise goal is not a universal")
        t = self._term(d, "witness", path)
        self._typecheck(d, d.judgment.delta, t, fa.var_type, path)
        self._require(
            self._eq(d, d.judgment.goal, T.substitute(fa.body, fa.name, t)),
            path, d.rule, "conclusion is not the instantiated body")
        self._require(self._eq_list(d, kid.hyps, d.judgment.hyps),
                      path, d.rule, "hypotheses differ")

    def _rule_eq_i(self, d, path):
        self._kids(d, 0, path)
        goal = normal_form(d.judgment.goal)
        self._require(isinstance(goal, T.Eq), path, d.rule,
                      "goal is not an equality")
        self._require(self._eq(d, goal.left, goal.right), path, d.rule,
                      "the two sides are not judgmentally equal")

    def _rule_eq_e(self, d, path):
        k1, k2 = self._kids(d, 2, path)
        var = str(d.params.get("var", "_hole"))
        phi = self._term(d, "phi", path)
        r = self._grade(d, "r", path)
        ty = self._type(d, "type", path)
        t = self._term(d, "t", path)
        u = self._term(d, "u", path)
        delta = d.judgment.delta
        self._typecheck(d, delta, t, ty, path)
        self._typecheck(d, delta, u, ty, path)
        # sensitivity premise: phi is r-sensitive in the hole variable
        try:
            types = dict(delta.types())
            types[var] = ty
            pty, usage = self.checker.synthesize(types, phi)
        except TypeCheckError as e:
            raise DerivationError(path, d.rule, f"predicate ill-typed: {e}")
        self._require(str(pty) == "Prop", path, d.rule,
                      "substitution target is not a predicate")
        used = usage.get(var, ZERO)
        self._require(used <= r, path, d.rule,
                      f"hole used at grade {used}, above declared {r}")
        self._require(
            self._eq(d, k1.goal, T.substitute(phi, var, t)),
            path, d.rule, "first premise is not phi[t]")
        self._require(
            self._eq(d, k2.goal, T.Scale(r, T.Eq(t, u, ty))),
            path, d.rule, "second premise is not r(t = u)")
        self._require(
            self._eq(d, d.judgment.goal, T.substitute(phi, var, u)),
            path, d.rule, "conclusion is not phi[u]")
        self._require(
            self._eq_list(d, d.judgment.hyps, k1.hyps + k2.hyps),
            path, d.rule, "hypotheses are not the concatenated premises")

    def _ind_ctx_extend(self, d, kid, names_types, path):
        kd = kid.delta.bindings
        dd = d.judgment.delta.bindings
        self._require(
            len(kd) == len(dd) + len(names_types)
            and [(n, str(t)) for n, _, t in kd[: len(dd)]]
            == [(n, str(t)) for n, _, t in dd],
            path, d.rule, "premise context must extend the conclusion's")
        tail = kd[len(dd):]
        for (n, _, t), want_ty in zip(tail, names_types):
            self._require(str(t) == str(want_ty), path, d.rule,
                          f"induction binder has type {t}, wanted {want_ty}")
        return [n for n, _, _ in tail]

    def _rule_ind_tensor(self, d, path):
        (kid,) = self._kids(d, 1, path)
        var = str(d.params.get("var", "_hole"))
        phi = self._term(d, "phi", path)
        t = self._term(d, "t", path)
        ty = self._type(d, "type", path)
        self._require(isinstance(ty, T.TTensor), path, d.rule,
                      "induction type must be a tensor")
        self._typecheck(d, d.judgment.delta, t, ty, path)
        x, y = self._ind_ctx_extend(d, kid, [ty.left, ty.right], path)
        pair = T.TensorPair(T.Var(x), T.Var(y), ty.r, ty.s)
        self._require(
            self._eq(d, kid.goal, T.substitute(phi, var, pair)),
            path, d.rule, "premise is not phi[(x,y)]")
        self._require(self._eq_list(d, kid.hyps, d.judgment.hyps),
                      path, d.rule, "hypotheses differ")
        self._require(
            self._eq(d, d.judgment.goal, T.substitute(phi, var, t)),
            path, d.rule, "conclusion is not phi[t]")

    def _rule_ind_plus(self, d, path):
        k1, k2 = self._kids(d, 2, path)
        var = str(d.params.get("var", "_hole"))
        phi = self._term(d, "phi", path)
        t = self._term(d, "t", path)
        ty = self._type(d, "type", path)
        self._require(isinstance(ty, T.TSum), path, d.rule,
                      "induction type must be a sum")
        self._typecheck(d, d.judgment.delta, t, ty, path)
        (x,) = self._ind_ctx_extend(d, d.children[0].judgment, [ty.left], path)
        (y,) = self._ind_ctx_extend(d, d.children[1].judgment, [ty.right], path)
        self._require(
            self._eq(d, k1.goal,
                     T.substitute(phi, var, T.Inj(1, T.Var(x), ty))),
            path, d.rule, "left premise is not phi[inj1 x]")
        self._require(
            self._eq(d, k2.goal,
                     T.substitute(phi, var, T.Inj(2, T.Var(y), ty))),
            path, d.rule, "right premise is not phi[inj2 y]")
        self._require(self._eq_list(d, k1.hyps, d.judgment.hyps)
                      and self._eq_list(d, k2.hyps, d.judgment.hyps),
                      path, d.rule, "hypotheses differ")
        self._require(
            self._eq(d, d.judgment.goal, T.substitute(phi, var, t)),
            path, d.rule, "conclusion is not phi[t]")

    def _rule_ind_nat(self, d, path):
        k1, k2 = self._kids(d, 2, path)
        var = str(d.params.get("var", "_hole"))
        phi = self._term(d, "phi", path)
        t = self._term(d, "t", path)
        self._typecheck(d, d.judgment.delta, t, T.TNat(), path)
        self._require(
            self._eq(d, k1.goal, T.substitute(phi, var, T.Zero())),
            path, d.rule, "base premise is not phi[0]")
        self._require(self._eq_list(d, k1.hyps, d.judgment.hyps),
                      path, d.rule, "base hypotheses differ")
        (n,) = self._ind_ctx_extend(d, k2, [T.TNat()], path)
        self._require(
            self._eq_list(d, k2.hyps, [T.substitute(phi, var, T.Var(n))]),
            path, d.rule,
            "step premise must use exactly the induction hypothesis")
        self._require(
            self._eq(d, k2.goal,
                     T.substitute(phi, var, T.Succ(T.Var(n)))),
            path, d.rule, "step premise is not phi[n+1]")
        self._require(
            self._eq(d, d.judgment.goal, T.substitute(phi, var, t)),
            path, d.rule, "conclusion is not phi[t]")

    def _rule_ind_dist(self, d, path):
        k1, k2 = self._kids(d, 2, path)
        var = str(d.params.get("var", "_hole"))
        phi = self._term(d, "phi", path)
        t = self._term(d, "t", path)
        elem = self._type(d, "type", path)
        r = self._grade(d, "r", path)
        p = Fraction(str(d.params.get("p", "1/2")))
        self._require(0 < p < 1, path, d.rule, "mixing weight must be in (0,1)")
        self._require(not r.is_infinite, path, d.rule,
                      "induction needs finite sensitivity")
        dty = T.TDist(elem)
        self._typecheck(d, d.judgment.delta, t, dty, path)
        try:
            types = dict(d.judgment.delta.types())
            types[var] = dty
            pty, usage = self.checker.synthesize(types, phi)
        except TypeCheckError as e:
            raise DerivationError(path, d.rule, f"predicate ill-typed: {e}")
        self._require(usage.get(var, ZERO) <= r, path, d.rule,
                      f"hole used above declared grade {r}")
        (y,) = self._ind_ctx_extend(d, k1, [elem], path)
        self._require(
            self._eq(d, k1.goal,
                     T.substitute(phi, var, T.DiracTerm(T.Var(y)))),
            path, d.rule, "point premise is not phi[dirac y]")
        self._require(self._eq_list(d, k1.hyps, d.judgment.hyps),
                      path, d.rule, "point premise hypotheses differ")
        mu, nu = self._ind_ctx_extend(d, k2, [dty, dty], path)
        want_h = [
            T.Scale(Grade(p), T.substitute(phi, var, T.Var(mu))),
            T.Scale(Grade(1 - p), T.substitute(phi, var, T.Var(nu))),
        ]
        self._require(self._eq_list(d, k2.hyps, want_h), path, d.rule,
                      "mixing premise hypotheses mismatch")
        self._require(
            self._eq(d, k2.goal,
                     T.substitute(phi, var, T.Mix(p, T.Var(mu), T.Var(nu)))),
            path, d.rule, "mixing premise goal mismatch")
        self._require(
            self._eq(d, d.judgment.goal, T.substitute(phi, var, t)),
            path, d.rule, "conclusion is not phi[t]")


def check_derivation(
    checker: Checker, d: Derivation, qfile: Optional[QlogFile] = None
) -> DerivationReport:
    return DerivationChecker(checker, qfile).check(d)


# ---------------------------------------------------------------------------
# Semantic checking
# ---------------------------------------------------------------------------


@dataclass
class SemanticReport:
    ok: bool
    margins: List[float]
    violations: List[str]

    def to_json(self) -> dict:
        return {
            "status": "ok" if self.ok else "violated",
            "margins": self.margins,
            "violations": self.violations,
        }


def check_semantic(
    evaluator: Evaluator,
    j: LogicJudgment,
    envs: List[Dict[str, Approx]],
    tol: float = 1e-6,
) -> SemanticReport:
    """Evaluate both sides on each environment.

    Truth values are ordered downwards (0 is true), so the judgment
    holds when the hypotheses' combined value dominates the goal:
    value(hyps) + radii + tol >= value(goal).
    """
    j.well_formed(evaluator.checker)
    margins: List[float] = []
    violations: List[str] = []
    for i, env in enumerate(envs):
        lhs = 0.0
        rad = 0.0
        for h in j.hyps:
            out = evaluator.eval(env, h)
            lhs = oplus(lhs, float(out.value))
            rad += out.radius
        goal = evaluator.eval(env, j.goal)
        margin = lhs + rad + goal.radius + tol - float(goal.value)
        margins.append(margin)
        if margin < 0:
            violations.append(
                f"env {i}: hypotheses give {lhs:.6g}, goal needs "
                f"{float(goal.value):.6g} (radii {rad + goal.radius:.3g})"
            )
    return SemanticReport(ok=not violations, margins=margins, violations=violations)


# ---------------------------------------------------------------------------
# Couplings expressed in the logic
# ---------------------------------------------------------------------------


def coupling_value(
    evaluator: Evaluator,
    relation: Callable[[Any, Any], float],
    rho: Coupling,
    mu: Dist,
    nu: Dist,
    ground: Callable[[Any, Any], float],
) -> Approx:
    """Truth value of `rho is an R-coupling of mu and nu`:

    mean of R over rho (+) d(left marginal, mu) (+) d(right marginal, nu)

    where the marginal mismatches are Kantorovich distances for the
    ground metric.  0 means rho really couples mu and nu with zero
    mean; couplings with slack get a positive value.
    """
    mean = sum(float(w) * relation(x, y) for (x, y), w in rho.joint.points)
    left = kantorovich(ground, rho.left(), mu)
    right = kantorovich(ground, rho.right(), nu)
    return Approx(oplus(oplus(min(mean, 1.0), left), right))
