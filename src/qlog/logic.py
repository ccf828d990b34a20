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
"1/3" or "inf".  A file that is not JSON, a node without a field, or a
field or param that does not parse raises :class:`InputError`.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partialmethod
from typing import Any, Callable, Dict, List, Optional, Tuple

from .grades import Grade, INF, ONE, ZERO, oplus
from .measures import Coupling, Dist, kantorovich
from . import terms as T
from .normalize import judgmental_equal, normal_form
from .parser import InputError, QlogFile, located, parse_file, parse_term, parse_type
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


@contextmanager
def _malformed(where: str):
    """Re-raises a missing or unparseable field as an InputError at ``where``."""
    try:
        yield
    except KeyError as e:
        raise InputError(f"{where}: missing {e}") from None
    except ZeroDivisionError:
        raise InputError(f"{where}: zero denominator") from None
    except (AttributeError, TypeError, ValueError) as e:
        raise InputError(located(where, e)) from None


def _json_object(text: str) -> dict:
    with _malformed("not JSON"):
        obj = json.loads(text)
    if not isinstance(obj, dict):
        raise InputError("not a JSON object")
    return obj


_KINDS = {str: "a string", list: "a list", dict: "an object"}


def _field(obj: dict, key: str, kind: type, default: Any = None) -> Any:
    """``obj[key]``, or ``default`` if one is given and the key is absent;
    a value that is not of JSON kind ``kind`` is a TypeError naming the key."""
    value = obj[key] if default is None else obj.get(key, default)
    if not isinstance(value, kind):
        raise TypeError(f"{key!r} is not {_KINDS[kind]}")
    return value


def _object(obj: Any) -> dict:
    if not isinstance(obj, dict):
        raise TypeError("not an object")
    return obj


def judgment_from_json(obj: dict, qfile: Optional[QlogFile] = None) -> LogicJudgment:
    obj = _object(obj)
    bindings = []
    for entry in _field(obj, "delta", list, []):
        if not (isinstance(entry, list) and len(entry) == 2
                and all(isinstance(x, str) for x in entry)):
            raise TypeError("'delta' entry is not a [name, type] pair of strings")
        bindings.append((entry[0], INF, parse_type(entry[1])))
    delta = T.TypeCtx(tuple(bindings))
    hyps = _field(obj, "hyps", list, [])
    if not all(isinstance(h, str) for h in hyps):
        raise TypeError("'hyps' is not a list of strings")
    hyps = [parse_term(src, qfile) for src in hyps]
    goal = parse_term(_field(obj, "goal", str), qfile)
    return LogicJudgment(delta, hyps, goal)


def derivation_from_json(
    obj: dict, qfile: Optional[QlogFile] = None, path: str = "root"
) -> Derivation:
    with _malformed(path):
        rule = _field(_object(obj), "rule", str)
    with _malformed(f"{path} [{rule}]"):
        jobj = obj["judgment"]
        params = _field(obj, "params", dict, {})
        kids = _field(obj, "children", list, [])
    with _malformed(f"{path} [{rule}] judgment"):
        judgment = judgment_from_json(jobj, qfile)
    return Derivation(
        rule=rule,
        judgment=judgment,
        params=params,
        children=[derivation_from_json(c, qfile, f"{path}.{i}")
                  for i, c in enumerate(kids)],
    )


def load_derivation_file(text: str, base_dir: Optional[str] = None):
    """Returns (qfile, derivation). The file may inline a `source`
    .qlog preamble or point at one with `source_file`."""
    obj = _json_object(text)
    if "derivation" not in obj:
        raise InputError("no derivation")
    qfile = load_source(obj, base_dir)
    return qfile, derivation_from_json(obj["derivation"], qfile)


def load_judgment_file(text: str, base_dir: Optional[str] = None):
    """Returns (qfile, judgment): the file's ``judgment``, or the
    conclusion of its ``derivation``."""
    obj = _json_object(text)
    qfile = load_source(obj, base_dir)
    with _malformed("judgment"):
        if "judgment" in obj:
            jobj = obj["judgment"]
        else:
            jobj = _field(obj, "derivation", dict, {}).get("judgment")
        if jobj is None:
            raise InputError("no judgment")
        judgment = judgment_from_json(jobj, qfile)
        # checked here, so that sampling an env never meets an unknown type
        alphabets = qfile.alphabets if qfile else {}
        for name, _, ty in judgment.delta.bindings:
            for alpha in _alphabets_of(ty):
                if alpha not in alphabets:
                    raise ValueError(f"'delta' variable {name} has unknown type {alpha}")
        return qfile, judgment


def _alphabets_of(ty: T.Type):
    """Each alphabet name ``ty`` mentions: ``TAlpha`` names and ``TProc`` labels."""
    if isinstance(ty, T.TAlpha):
        yield ty.name
    elif isinstance(ty, T.TProc):
        yield ty.label
    for part in vars(ty).values():
        if isinstance(part, T.Type):
            yield from _alphabets_of(part)


def load_source(obj: dict, base_dir: Optional[str] = None):
    """The parsed .qlog preamble of a derivation or judgment file: its
    inline ``source``, or its ``source_file`` (relative to ``base_dir``
    if given); None if it has neither."""
    if "source" in obj:
        with _malformed("source"):
            return parse_file(obj["source"])
    if "source_file" in obj:
        path = obj["source_file"]
        if base_dir is not None:
            path = os.path.join(base_dir, path)
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        with _malformed(obj["source_file"]):
            return parse_file(text)
    return None


# ---------------------------------------------------------------------------
# Structural checking
# ---------------------------------------------------------------------------

CLASSICAL_RULES = {"neg-e"}

# rule -> how many variables each premise binds on top of the conclusion's
# context; the row's length is the rule's premise count.
RULES: Dict[str, Tuple[int, ...]] = {
    "true": (),
    "false": (),
    "ass": (),
    "ex": (0,),
    "pr": (0,),
    "dup-up": (0,),
    "dup-down": (0,),
    "der-up": (0,),
    "der-down": (0,),
    "inc": (0,),
    "assoc1": (0,),
    "assoc2": (0,),
    "g-rec": (0,),
    "star-i": (0, 0),
    "star-e": (0,),
    "wand-i": (0,),
    "wand-e": (0, 0),
    "neg-i": (0,),
    "conj-i": (0, 0),
    "conj-el": (0,),
    "conj-er": (0,),
    "neg-e": (0,),
    "disj-il": (0,),
    "disj-ir": (0,),
    "disj-e": (0, 0),
    "exists-i": (0,),
    "exists-e": (1,),
    "forall-i": (1,),
    "forall-e": (0,),
    "eq-i": (),
    "eq-e": (0, 0),
    "ind-tensor": (2,),
    "ind-plus": (1, 1),
    "ind-nat": (0, 1),
    "ind-dist": (1, 2),
}


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


def _ctx_key(bindings) -> List[Tuple[str, str]]:
    return [(n, str(t)) for n, _, t in bindings]


class DerivationChecker:
    def __init__(self, checker: Checker, qfile: Optional[QlogFile] = None):
        self.checker = checker
        self.qfile = qfile
        self._unfolds = 0  # the unfold_fix param of the node being checked

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
        binds = RULES.get(d.rule)
        if binds is None:
            raise DerivationError(path, d.rule, "unknown rule")
        if d.rule in CLASSICAL_RULES:
            report.classical_rules_used.append(path)
        d.judgment.well_formed(self.checker)
        for i, c in enumerate(d.children):
            self._check_node(c, f"{path}.{i}", report)
        self._require(len(d.children) == len(binds), path, d.rule,
                      f"expected {len(binds)} premises")
        outer = d.judgment.delta.bindings
        for c, k in zip(d.children, binds):
            inner = c.judgment.delta.bindings
            self._require(
                len(inner) == len(outer) + k
                and _ctx_key(inner[:len(outer)]) == _ctx_key(outer),
                path, d.rule,
                f"premise context must extend the conclusion's by {k}" if k
                else "premise context differs from conclusion context")
        self._unfolds = self._param(d, "unfold_fix", path, int, 0)
        handler = getattr(self, "_rule_" + d.rule.replace("-", "_"))
        handler(d, path, *[c.judgment for c in d.children])

    # -- helpers -----------------------------------------------------------

    def _param(self, d: Derivation, key: str, path: str,
               parse: Callable[[str], Any], default: Any = None) -> Any:
        """``parse`` of the node's ``key`` param, or ``default`` if absent;
        a required param (no default) that is absent fails the rule."""
        if key not in d.params:
            self._require(default is not None, path, d.rule, f"missing param {key}")
            return default
        with _malformed(f"{path} [{d.rule}] {key}"):
            return parse(str(d.params[key]))

    def _term(self, text: str) -> T.Term:
        return parse_term(text, self.qfile)

    def _eq(self, a: T.Term, b: T.Term) -> bool:
        return judgmental_equal(a, b, fix_unfolds=self._unfolds)

    def _eq_list(self, xs: List[T.Term], ys: List[T.Term]) -> bool:
        return len(xs) == len(ys) and all(self._eq(a, b) for a, b in zip(xs, ys))

    def _require(self, cond: bool, path: str, rule: str, msg: str):
        if not cond:
            raise DerivationError(path, rule, msg)

    def _at(self, d: Derivation, path: str, *hyp_lists: List[T.Term]) -> int:
        """The ``at`` param (default: the last hypothesis), checked
        against every hypothesis list the rule indexes with it."""
        at = self._param(d, "at", path, int, len(d.judgment.hyps) - 1)
        self._require(all(0 <= at < len(h) for h in hyp_lists), path, d.rule,
                      "position out of range")
        return at

    def _binders(self, d, kid: LogicJudgment, types: List[T.Type], path) -> List[str]:
        """The names ``kid`` binds on top of the conclusion's context,
        checked against ``types``."""
        tail = kid.delta.bindings[len(d.judgment.delta.bindings):]
        for (n, _, t), want in zip(tail, types):
            self._require(str(t) == str(want), path, d.rule,
                          f"bound variable {n} has type {t}, wanted {want}")
        return [n for n, _, _ in tail]

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
        self._require(self._eq(d.judgment.goal, T.TT()), path, d.rule,
                      "conclusion is not tt")

    def _rule_false(self, d, path):
        h = d.judgment.hyps
        self._require(bool(h) and self._eq(h[-1], T.FF()), path, d.rule,
                      "last hypothesis is not ff")

    def _rule_ass(self, d, path):
        h = d.judgment.hyps
        self._require(bool(h) and self._eq(h[-1], d.judgment.goal),
                      path, d.rule, "conclusion is not the last hypothesis")

    def _rule_ex(self, d, path, kid):
        h = list(d.judgment.hyps)
        at = self._param(d, "at", path, int, 0)
        self._require(0 <= at < len(h) - 1, path, d.rule, "bad swap position")
        h[at], h[at + 1] = h[at + 1], h[at]
        self._require(self._eq_list(kid.hyps, h), path, d.rule,
                      "premise hypotheses are not the swapped conclusion ones")
        self._require(self._eq(kid.goal, d.judgment.goal), path, d.rule,
                      "premise goal differs")

    def _rule_pr(self, d, path, kid):
        r = self._param(d, "r", path, Grade.of)
        self._require(r > ZERO, path, d.rule, "scaling grade must be positive")
        want_h = [T.Scale(r, h) for h in kid.hyps]
        self._require(self._eq_list(d.judgment.hyps, want_h), path, d.rule,
                      "hypotheses are not the scaled premises")
        self._require(
            self._eq(d.judgment.goal, T.Scale(r, kid.goal)),
            path, d.rule, "goal is not the scaled premise goal")

    def _dup(self, d, path, kid, up: bool):
        r = self._param(d, "r", path, Grade.of)
        s = self._param(d, "s", path, Grade.of)
        phi = self._param(d, "phi", path, self._term)
        # upper judgment: Psi, (r+s)phi |- psi ; lower: Psi, r phi, s phi |- psi
        upper = d.judgment if up else kid
        lower = kid if up else d.judgment
        self._require(len(upper.hyps) >= 1 and len(lower.hyps) >= 2,
                      path, d.rule, "hypothesis lists too short")
        self._require(
            self._eq(upper.hyps[-1], T.Scale(r + s, phi)), path, d.rule,
            "joined hypothesis mismatch")
        self._require(
            self._eq(lower.hyps[-2], T.Scale(r, phi))
            and self._eq(lower.hyps[-1], T.Scale(s, phi)),
            path, d.rule, "split hypotheses mismatch")
        self._require(
            self._eq_list(upper.hyps[:-1], lower.hyps[:-2]),
            path, d.rule, "remaining hypotheses differ")
        self._require(self._eq(upper.goal, lower.goal), path, d.rule,
                      "goals differ")

    _rule_dup_up = partialmethod(_dup, up=True)
    _rule_dup_down = partialmethod(_dup, up=False)

    def _der(self, d, path, kid, up: bool):
        phi = self._param(d, "phi", path, self._term)
        plain = d.judgment if up else kid
        scaled = kid if up else d.judgment
        self._require(bool(plain.hyps) and bool(scaled.hyps), path, d.rule,
                      "missing hypothesis")
        self._require(self._eq(plain.hyps[-1], phi), path, d.rule,
                      "plain hypothesis mismatch")
        self._require(self._eq(scaled.hyps[-1], T.Scale(ONE, phi)),
                      path, d.rule, "scaled hypothesis mismatch")
        self._require(self._eq_list(plain.hyps[:-1], scaled.hyps[:-1]),
                      path, d.rule, "remaining hypotheses differ")
        self._require(self._eq(plain.goal, scaled.goal), path, d.rule,
                      "goals differ")

    _rule_der_up = partialmethod(_der, up=True)
    _rule_der_down = partialmethod(_der, up=False)

    def _rule_inc(self, d, path, kid):
        r = self._param(d, "r", path, Grade.of)
        s = self._param(d, "s", path, Grade.of)
        phi = self._param(d, "phi", path, self._term)
        self._require(r <= s, path, d.rule, f"needs r <= s, got {r} > {s}")
        at = self._at(d, path, d.judgment.hyps, kid.hyps)
        self._require(self._eq(d.judgment.hyps[at], T.Scale(s, phi)),
                      path, d.rule, "conclusion hypothesis mismatch")
        self._require(self._eq(kid.hyps[at], T.Scale(r, phi)),
                      path, d.rule, "premise hypothesis mismatch")
        rest_c = d.judgment.hyps[:at] + d.judgment.hyps[at + 1:]
        rest_k = kid.hyps[:at] + kid.hyps[at + 1:]
        self._require(self._eq_list(rest_c, rest_k), path, d.rule,
                      "remaining hypotheses differ")
        self._require(self._eq(kid.goal, d.judgment.goal), path, d.rule,
                      "goals differ")

    def _rule_assoc1(self, d, path, kid):
        r = self._param(d, "r", path, Grade.of)
        s = self._param(d, "s", path, Grade.of)
        phi = self._param(d, "phi", path, self._term)
        at = self._at(d, path, d.judgment.hyps, kid.hyps)
        self._require(self._eq(kid.hyps[at], T.Scale(r, T.Scale(s, phi))),
                      path, d.rule, "premise hypothesis mismatch")
        self._require(self._eq(d.judgment.hyps[at], T.Scale(r * s, phi)),
                      path, d.rule, "conclusion hypothesis mismatch")
        self._require(
            self._eq_list(
                kid.hyps[:at] + kid.hyps[at + 1:],
                d.judgment.hyps[:at] + d.judgment.hyps[at + 1:],
            ),
            path, d.rule, "remaining hypotheses differ")
        self._require(self._eq(kid.goal, d.judgment.goal), path, d.rule,
                      "goals differ")

    def _rule_assoc2(self, d, path, kid):
        r = self._param(d, "r", path, Grade.of)
        p = self._param(d, "p", path, Grade.of)
        phi = self._param(d, "phi", path, self._term)
        self._require(p <= ONE or r >= ONE, path, d.rule,
                      "needs p <= 1 or r >= 1")
        at = self._at(d, path, d.judgment.hyps, kid.hyps)
        self._require(self._eq(kid.hyps[at], T.Scale(r * p, phi)),
                      path, d.rule, "premise hypothesis mismatch")
        self._require(
            self._eq(d.judgment.hyps[at], T.Scale(r, T.Scale(p, phi))),
            path, d.rule, "conclusion hypothesis mismatch")
        self._require(self._eq(kid.goal, d.judgment.goal), path, d.rule,
                      "goals differ")

    def _rule_g_rec(self, d, path, kid):
        p = self._param(d, "p", path, Grade.of)
        self._require(ZERO < p < ONE, path, d.rule,
                      f"guard must lie in (0,1), got {p}")
        q = ONE - p
        want = [T.Scale(q, h) for h in d.judgment.hyps] + [
            T.Scale(p, d.judgment.goal)
        ]
        self._require(self._eq_list(kid.hyps, want), path, d.rule,
                      "premise is not (1-p)Psi, p*goal")
        self._require(self._eq(kid.goal, d.judgment.goal), path, d.rule,
                      "premise goal differs")

    def _rule_star_i(self, d, path, k1, k2):
        goal = normal_form(d.judgment.goal)
        self._require(isinstance(goal, T.Star), path, d.rule,
                      "goal is not a separating conjunction")
        self._require(self._eq(goal.left, k1.goal)
                      and self._eq(goal.right, k2.goal),
                      path, d.rule, "goal parts differ from premises")
        self._require(
            self._eq_list(d.judgment.hyps, k1.hyps + k2.hyps),
            path, d.rule, "hypotheses are not the concatenated premises")

    def _rule_star_e(self, d, path, kid):
        at = self._at(d, path, d.judgment.hyps)
        self._require(len(kid.hyps) == len(d.judgment.hyps) + 1,
                      path, d.rule, "premise must split one hypothesis")
        alpha, beta = kid.hyps[at], kid.hyps[at + 1]
        self._require(
            self._eq(d.judgment.hyps[at], T.Star(alpha, beta)),
            path, d.rule, "hypothesis is not the star of the premise pair")
        rest_k = kid.hyps[:at] + kid.hyps[at + 2:]
        rest_c = d.judgment.hyps[:at] + d.judgment.hyps[at + 1:]
        self._require(self._eq_list(rest_k, rest_c), path, d.rule,
                      "remaining hypotheses differ")
        self._require(self._eq(kid.goal, d.judgment.goal), path, d.rule,
                      "goals differ")

    def _rule_wand_i(self, d, path, kid):
        goal = normal_form(d.judgment.goal)
        self._require(isinstance(goal, T.WandT), path, d.rule,
                      "goal is not a magic wand")
        self._require(
            self._eq_list(kid.hyps, d.judgment.hyps + [goal.left]),
            path, d.rule, "premise hypotheses mismatch")
        self._require(self._eq(kid.goal, goal.right), path, d.rule,
                      "premise goal mismatch")

    def _rule_wand_e(self, d, path, k1, k2):
        g1 = normal_form(k1.goal)
        self._require(isinstance(g1, T.WandT), path, d.rule,
                      "first premise goal is not a magic wand")
        self._require(self._eq(k2.goal, g1.left), path, d.rule,
                      "second premise does not prove the antecedent")
        self._require(self._eq(d.judgment.goal, g1.right), path, d.rule,
                      "conclusion is not the consequent")
        self._require(
            self._eq_list(d.judgment.hyps, k1.hyps + k2.hyps),
            path, d.rule, "hypotheses are not the concatenated premises")

    def _rule_neg_i(self, d, path, kid):
        goal = normal_form(d.judgment.goal)
        self._require(isinstance(goal, T.Neg), path, d.rule,
                      "goal is not a negation")
        self._require(
            self._eq_list(kid.hyps, d.judgment.hyps + [goal.body]),
            path, d.rule, "premise hypotheses mismatch")
        self._require(self._eq(kid.goal, T.FF()), path, d.rule,
                      "premise goal must be ff")

    def _rule_neg_e(self, d, path, kid):
        self._require(
            self._eq_list(kid.hyps, d.judgment.hyps + [T.Neg(d.judgment.goal)]),
            path, d.rule, "premise hypotheses mismatch")
        self._require(self._eq(kid.goal, T.FF()), path, d.rule,
                      "premise goal must be ff")

    def _rule_conj_i(self, d, path, k1, k2):
        goal = normal_form(d.judgment.goal)
        self._require(isinstance(goal, T.Conj), path, d.rule,
                      "goal is not a conjunction")
        self._require(self._eq(goal.left, k1.goal)
                      and self._eq(goal.right, k2.goal),
                      path, d.rule, "goal parts differ from premises")
        self._require(self._eq_list(k1.hyps, d.judgment.hyps)
                      and self._eq_list(k2.hyps, d.judgment.hyps),
                      path, d.rule, "premises must share the hypotheses")

    def _conj_e(self, d, path, kid, left: bool):
        g = normal_form(kid.goal)
        self._require(isinstance(g, T.Conj), path, d.rule,
                      "premise goal is not a conjunction")
        part = g.left if left else g.right
        self._require(self._eq(d.judgment.goal, part), path, d.rule,
                      "conclusion is not the selected component")
        self._require(self._eq_list(kid.hyps, d.judgment.hyps),
                      path, d.rule, "hypotheses differ")

    _rule_conj_el = partialmethod(_conj_e, left=True)
    _rule_conj_er = partialmethod(_conj_e, left=False)

    def _disj_i(self, d, path, kid, left: bool):
        goal = normal_form(d.judgment.goal)
        self._require(isinstance(goal, T.Disj), path, d.rule,
                      "goal is not a disjunction")
        part = goal.left if left else goal.right
        self._require(self._eq(kid.goal, part), path, d.rule,
                      "premise does not prove the selected component")
        self._require(self._eq_list(kid.hyps, d.judgment.hyps),
                      path, d.rule, "hypotheses differ")

    _rule_disj_il = partialmethod(_disj_i, left=True)
    _rule_disj_ir = partialmethod(_disj_i, left=False)

    def _rule_disj_e(self, d, path, k1, k2):
        h = d.judgment.hyps
        self._require(bool(h), path, d.rule, "missing disjunctive hypothesis")
        dis = normal_form(h[-1])
        self._require(isinstance(dis, T.Disj), path, d.rule,
                      "last hypothesis is not a disjunction")
        self._require(
            self._eq_list(k1.hyps, h[:-1] + [dis.left])
            and self._eq_list(k2.hyps, h[:-1] + [dis.right]),
            path, d.rule, "premise hypotheses mismatch")
        self._require(self._eq(k1.goal, d.judgment.goal)
                      and self._eq(k2.goal, d.judgment.goal),
                      path, d.rule, "premise goals differ from conclusion")

    def _rule_exists_i(self, d, path, kid):
        goal = normal_form(d.judgment.goal)
        self._require(isinstance(goal, T.Exists), path, d.rule,
                      "goal is not an existential")
        t = self._param(d, "witness", path, self._term)
        self._typecheck(d, d.judgment.delta, t, goal.var_type, path)
        self._require(
            self._eq(kid.goal, T.substitute(goal.body, goal.name, t)),
            path, d.rule, "premise is not the instantiated body")
        self._require(self._eq_list(kid.hyps, d.judgment.hyps),
                      path, d.rule, "hypotheses differ")

    def _rule_exists_e(self, d, path, kid):
        h = d.judgment.hyps
        self._require(bool(h), path, d.rule, "missing existential hypothesis")
        r, ex = self._strip_scale(h[-1])
        self._require(isinstance(ex, T.Exists), path, d.rule,
                      "last hypothesis is not a (scaled) existential")
        self._require(not r.is_infinite, path, d.rule,
                      "elimination needs a finite scaling grade")
        (fresh,) = self._binders(d, kid, [ex.var_type], path)
        body = T.substitute(ex.body, ex.name, T.Var(fresh))
        self._require(
            self._eq_list(kid.hyps, h[:-1] + [T.Scale(r, body)]),
            path, d.rule, "premise hypotheses mismatch")
        self._require(self._eq(kid.goal, d.judgment.goal), path, d.rule,
                      "goals differ")
        used = set()
        for phi in h[:-1] + [d.judgment.goal]:
            used |= T.free_vars(phi)
        self._require(fresh not in used, path, d.rule,
                      "witness variable escapes into the conclusion")

    def _rule_forall_i(self, d, path, kid):
        r, fa = self._strip_scale(d.judgment.goal)
        self._require(isinstance(fa, T.Forall), path, d.rule,
                      "goal is not a (scaled) universal")
        (fresh,) = self._binders(d, kid, [fa.var_type], path)
        body = T.substitute(fa.body, fa.name, T.Var(fresh))
        self._require(self._eq(kid.goal, T.Scale(r, body)), path, d.rule,
                      "premise goal mismatch")
        self._require(self._eq_list(kid.hyps, d.judgment.hyps),
                      path, d.rule, "hypotheses differ")
        used = set()
        for phi in d.judgment.hyps:
            used |= T.free_vars(phi)
        self._require(fresh not in used, path, d.rule,
                      "variable escapes into the hypotheses")

    def _rule_forall_e(self, d, path, kid):
        fa = normal_form(kid.goal)
        self._require(isinstance(fa, T.Forall), path, d.rule,
                      "premise goal is not a universal")
        t = self._param(d, "witness", path, self._term)
        self._typecheck(d, d.judgment.delta, t, fa.var_type, path)
        self._require(
            self._eq(d.judgment.goal, T.substitute(fa.body, fa.name, t)),
            path, d.rule, "conclusion is not the instantiated body")
        self._require(self._eq_list(kid.hyps, d.judgment.hyps),
                      path, d.rule, "hypotheses differ")

    def _rule_eq_i(self, d, path):
        goal = normal_form(d.judgment.goal)
        self._require(isinstance(goal, T.Eq), path, d.rule,
                      "goal is not an equality")
        self._require(self._eq(goal.left, goal.right), path, d.rule,
                      "the two sides are not judgmentally equal")

    def _rule_eq_e(self, d, path, k1, k2):
        var = self._param(d, "var", path, str, "_hole")
        phi = self._param(d, "phi", path, self._term)
        r = self._param(d, "r", path, Grade.of)
        ty = self._param(d, "type", path, parse_type)
        t = self._param(d, "t", path, self._term)
        u = self._param(d, "u", path, self._term)
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
            self._eq(k1.goal, T.substitute(phi, var, t)),
            path, d.rule, "first premise is not phi[t]")
        self._require(
            self._eq(k2.goal, T.Scale(r, T.Eq(t, u, ty))),
            path, d.rule, "second premise is not r(t = u)")
        self._require(
            self._eq(d.judgment.goal, T.substitute(phi, var, u)),
            path, d.rule, "conclusion is not phi[u]")
        self._require(
            self._eq_list(d.judgment.hyps, k1.hyps + k2.hyps),
            path, d.rule, "hypotheses are not the concatenated premises")

    def _rule_ind_tensor(self, d, path, kid):
        var = self._param(d, "var", path, str, "_hole")
        phi = self._param(d, "phi", path, self._term)
        t = self._param(d, "t", path, self._term)
        ty = self._param(d, "type", path, parse_type)
        self._require(isinstance(ty, T.TTensor), path, d.rule,
                      "induction type must be a tensor")
        self._typecheck(d, d.judgment.delta, t, ty, path)
        x, y = self._binders(d, kid, [ty.left, ty.right], path)
        pair = T.TensorPair(T.Var(x), T.Var(y), ty.r, ty.s)
        self._require(
            self._eq(kid.goal, T.substitute(phi, var, pair)),
            path, d.rule, "premise is not phi[(x,y)]")
        self._require(self._eq_list(kid.hyps, d.judgment.hyps),
                      path, d.rule, "hypotheses differ")
        self._require(
            self._eq(d.judgment.goal, T.substitute(phi, var, t)),
            path, d.rule, "conclusion is not phi[t]")

    def _rule_ind_plus(self, d, path, k1, k2):
        var = self._param(d, "var", path, str, "_hole")
        phi = self._param(d, "phi", path, self._term)
        t = self._param(d, "t", path, self._term)
        ty = self._param(d, "type", path, parse_type)
        self._require(isinstance(ty, T.TSum), path, d.rule,
                      "induction type must be a sum")
        self._typecheck(d, d.judgment.delta, t, ty, path)
        (x,) = self._binders(d, k1, [ty.left], path)
        (y,) = self._binders(d, k2, [ty.right], path)
        self._require(
            self._eq(k1.goal,
                     T.substitute(phi, var, T.Inj(1, T.Var(x), ty))),
            path, d.rule, "left premise is not phi[inj1 x]")
        self._require(
            self._eq(k2.goal,
                     T.substitute(phi, var, T.Inj(2, T.Var(y), ty))),
            path, d.rule, "right premise is not phi[inj2 y]")
        self._require(self._eq_list(k1.hyps, d.judgment.hyps)
                      and self._eq_list(k2.hyps, d.judgment.hyps),
                      path, d.rule, "hypotheses differ")
        self._require(
            self._eq(d.judgment.goal, T.substitute(phi, var, t)),
            path, d.rule, "conclusion is not phi[t]")

    def _rule_ind_nat(self, d, path, k1, k2):
        var = self._param(d, "var", path, str, "_hole")
        phi = self._param(d, "phi", path, self._term)
        t = self._param(d, "t", path, self._term)
        self._typecheck(d, d.judgment.delta, t, T.TNat(), path)
        self._require(
            self._eq(k1.goal, T.substitute(phi, var, T.Zero())),
            path, d.rule, "base premise is not phi[0]")
        self._require(self._eq_list(k1.hyps, d.judgment.hyps),
                      path, d.rule, "base hypotheses differ")
        (n,) = self._binders(d, k2, [T.TNat()], path)
        self._require(
            self._eq_list(k2.hyps, [T.substitute(phi, var, T.Var(n))]),
            path, d.rule,
            "step premise must use exactly the induction hypothesis")
        self._require(
            self._eq(k2.goal,
                     T.substitute(phi, var, T.Succ(T.Var(n)))),
            path, d.rule, "step premise is not phi[n+1]")
        self._require(
            self._eq(d.judgment.goal, T.substitute(phi, var, t)),
            path, d.rule, "conclusion is not phi[t]")

    def _rule_ind_dist(self, d, path, k1, k2):
        var = self._param(d, "var", path, str, "_hole")
        phi = self._param(d, "phi", path, self._term)
        t = self._param(d, "t", path, self._term)
        elem = self._param(d, "type", path, parse_type)
        r = self._param(d, "r", path, Grade.of)
        p = self._param(d, "p", path, Fraction, Fraction(1, 2))
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
        (y,) = self._binders(d, k1, [elem], path)
        self._require(
            self._eq(k1.goal,
                     T.substitute(phi, var, T.DiracTerm(T.Var(y)))),
            path, d.rule, "point premise is not phi[dirac y]")
        self._require(self._eq_list(k1.hyps, d.judgment.hyps),
                      path, d.rule, "point premise hypotheses differ")
        mu, nu = self._binders(d, k2, [dty, dty], path)
        want_h = [
            T.Scale(Grade(p), T.substitute(phi, var, T.Var(mu))),
            T.Scale(Grade(1 - p), T.substitute(phi, var, T.Var(nu))),
        ]
        self._require(self._eq_list(k2.hyps, want_h), path, d.rule,
                      "mixing premise hypotheses mismatch")
        self._require(
            self._eq(k2.goal,
                     T.substitute(phi, var, T.Mix(p, T.Var(mu), T.Var(nu)))),
            path, d.rule, "mixing premise goal mismatch")
        self._require(
            self._eq(d.judgment.goal, T.substitute(phi, var, t)),
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
    mean = rho.cost(relation)
    left = kantorovich(ground, rho.left(), mu)
    right = kantorovich(ground, rho.right(), nu)
    return Approx(oplus(oplus(min(mean, 1.0), left), right))
