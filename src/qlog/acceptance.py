"""The acceptance suite: one callable check per criterion.

Each check returns (name, ok, detail).  ``run_all`` executes them in
order and is shared by the command line (`qlog suite`) and the test
module, so the shipped binary and CI verify the same thing.
"""

from __future__ import annotations

import json
import os
import random
import time
from fractions import Fraction
from typing import Callable, List

from .evaluator import EnumSpec, EvalConfig, Evaluator
from .grades import Grade, INF
from .hoare import prp_prf_check, triple_value
from .hypercube import hypercube_contraction_check
from .imp import eval_cmd, parse_imp
from .logic import check_derivation, check_semantic, load_derivation_file, RULES
from .measures import kantorovich
from .parser import parse_file, parse_term, parse_type
from .processes import behavioral_distance, bisimilarity_distance
from .sampling import sample_envs, sample_value
from .td import random_mdp, random_vector, td_contraction_check
from .terms import TypeCtx
from .transport import brute_force_transport, solve_transport
from .typecheck import Checker, TypeCheckError
from .values import Approx, deref

CORPUS = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "corpus")


def corpus_path(*parts: str) -> str:
    return os.path.join(CORPUS, *parts)


def _default_enums() -> EnumSpec:
    with open(corpus_path("enums", "default.json")) as fh:
        return EnumSpec(json.load(fh))


def load_corpus_evaluator(name: str, fuel=60, tol=1e-4):
    with open(corpus_path(name), "r", encoding="utf-8") as fh:
        qfile = parse_file(fh.read())
    ck = Checker(qfile.alphabets)
    ev = Evaluator(ck, EvalConfig(fuel=fuel, tol=tol, enums=_default_enums()))
    return qfile, ck, ev, ev.eval_defs(qfile)


# -- 1 ---------------------------------------------------------------------


def _weight_vectors(max_support: int = 3, den: int = 8):
    """Every weight vector with at most max_support positive entries
    and denominator dividing den."""
    out = []

    def go(remaining, parts, acc):
        if parts == 1:
            out.append(acc + [Fraction(remaining, den)])
            return
        for first in range(1, remaining - parts + 2):
            go(remaining - first, parts - 1, acc + [Fraction(first, den)])

    for k in range(1, max_support + 1):
        go(den, k, [])
    return out


def check_transport_oracle(seed: int = 0, metrics_per_pair: int = 1):
    """Simplex optimum == vertex-enumeration optimum, exactly, for
    every pair of weight vectors with support <= 3 and denominator
    <= 8, under random 1-bounded metrics."""
    rng = random.Random(seed)

    def random_metric(n):
        d = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                d[i][j] = d[j][i] = Fraction(rng.randint(1, 16), 16)
        for k in range(n):  # metric repair: shortest paths, capped at 1
            for i in range(n):
                for j in range(n):
                    d[i][j] = min(d[i][j], d[i][k] + d[k][j], Fraction(1))
        return d

    vectors = _weight_vectors()
    worst_float = 0.0
    instances = 0
    for a in vectors:
        for b in vectors:
            for _ in range(metrics_per_pair):
                pts = len(a) + len(b)
                metric = random_metric(pts)
                cost = [
                    [metric[i][len(a) + j] for j in range(len(b))]
                    for i in range(len(a))
                ]
                exact, _ = solve_transport(a, b, cost)
                oracle, _ = brute_force_transport(a, b, cost)
                if exact != oracle:
                    return ("transport-oracle", False,
                            f"rational mode mismatch: {exact} vs {oracle}")
                fcost = [[float(c) for c in row] for row in cost]
                fexact, _ = solve_transport(a, b, fcost)
                worst_float = max(
                    worst_float, abs(float(fexact) - float(oracle))
                )
                instances += 1
    ok = worst_float <= 1e-7
    return ("transport-oracle", ok,
            f"{instances} instances (all weight pairs, support<=3, den<=8) "
            f"exact; float-mode deviation {worst_float:.2e}")


# -- 2 ---------------------------------------------------------------------


def check_geometric():
    qfile, ck, ev, values = load_corpus_evaluator("geo.qlog", fuel=30, tol=0.0)
    d = deref(values["geo"].value)
    ok = d.residual_approx == Fraction(1, 2**30)
    weights_ok = all(
        v == k and w == Fraction(1, 2 ** (k + 1))
        for k, (v, w) in enumerate(d.points)
    )
    ok = ok and weights_ok and len(d.points) == 30
    return ("geometric-distribution", ok,
            f"30 exact weights; residual 2^-30: {d.residual_approx == Fraction(1, 2**30)}")


# -- 3 ---------------------------------------------------------------------


def check_markov_quarter():
    qfile, ck, ev, values = load_corpus_evaluator("markov.qlog")
    d = behavioral_distance(
        ev, values["m"].value, values["n"].value, Grade(1), 1e-4
    )
    ok = d.value <= 0.25 + 1e-4
    return ("markov-quarter-bound", ok,
            f"distance {d.value:.6f} (radius {d.radius:.1e}) <= 0.25 + 1e-4")


# -- 4 ---------------------------------------------------------------------


def check_biased_coin():
    results = []
    ok = True
    for fname, c, eps in (
        ("coin_half.qlog", Fraction(1, 2), Fraction(1, 4)),
        ("coin_nine_tenths.qlog", Fraction(9, 10), Fraction(1, 10)),
    ):
        t0 = time.time()
        qfile, ck, ev, values = load_corpus_evaluator(fname, fuel=400)
        d = behavioral_distance(
            ev, values["hd"].value, values["hde"].value, Grade(c), 1e-4
        )
        expect = float(c * eps / (1 - c + c * eps))
        slow = time.time() - t0 >= 10
        ok = ok and abs(d.value - expect) <= 1e-3 and not slow
        results.append(f"c={c}: {d.value:.6f} vs {expect:.6f}"
                       + (" (over 10s)" if slow else ""))
    return ("biased-coin-tightness", ok, "; ".join(results))


# -- 5 ---------------------------------------------------------------------


def check_bisimilarity_agreement():
    tol = 1e-4
    worst = 0.0
    for fname, c in (
        ("coin_half.qlog", Fraction(1, 2)),
        ("coin_nine_tenths.qlog", Fraction(9, 10)),
    ):
        qfile, ck, ev, values = load_corpus_evaluator(fname, fuel=400)
        names = ["hd", "tl", "hde", "tle"]
        for i, a in enumerate(names):
            for b in names[i:]:
                x = behavioral_distance(
                    ev, values[a].value, values[b].value, Grade(c), tol
                )
                y = bisimilarity_distance(
                    ev, values[a].value, values[b].value, Grade(c), tol
                )
                worst = max(worst, abs(x.value - y.value))
    ok = worst <= 2 * tol
    return ("bisimilarity-equals-behavioral", ok,
            f"max disagreement {worst:.2e} over corpus pairs (2*tol = {2*tol:.0e})")


# -- 6 ---------------------------------------------------------------------


def check_td_contraction(seeds: int = 50):
    ok = True
    worst = 0.0
    for seed in range(seeds):
        for a, g in ((Fraction(1, 2), Fraction(1, 2)),
                     (Fraction(1, 2), Fraction(4, 5))):
            mdp = random_mdp(seed)
            mdp.alpha, mdp.gamma = a, g
            v = random_vector(seed * 2 + 1, 3)
            w = random_vector(seed * 2 + 2, 3)
            rep = td_contraction_check(mdp, v, w, 6, tol=1e-6)
            ok = ok and rep.ok
            for row in rep.rows:
                if row["bound"] > 0:
                    worst = max(worst, row["measured"] / row["bound"])
    return ("td-contraction", ok,
            f"{seeds} seeds x 2 parameter sets, n<=6; worst measured/bound {worst:.4f}")


# -- 7 ---------------------------------------------------------------------


def check_hypercube():
    ok = True
    details = []
    for n in (2, 3, 4):
        rep = hypercube_contraction_check(n)
        good = rep.ok and rep.worst_ratio <= float(rep.factor) + 1e-9
        ok = ok and good
        details.append(f"N={n}: ratio {rep.worst_ratio:.4f} <= {float(rep.factor):.4f}")
    return ("hypercube-contraction", ok, "; ".join(details))


# -- 8 ---------------------------------------------------------------------


def check_internal_kantorovich(trials: int = 100, seed: int = 0):
    ck = Checker()
    ev = Evaluator(ck, EvalConfig())
    t = parse_term("kant[Nat](mu, nu)")
    delta = TypeCtx.of(
        ("mu", INF, parse_type("Dist Nat")), ("nu", INF, parse_type("Dist Nat"))
    )
    ck.check_predicate(delta, t)
    rng = random.Random(seed)
    disc = lambda a, b: 0.0 if a == b else 1.0
    worst = 0.0
    for _ in range(trials):
        mu = sample_value(ev, parse_type("Dist Nat"), rng)
        nu = sample_value(ev, parse_type("Dist Nat"), rng)
        got = ev.eval({"mu": Approx(mu), "nu": Approx(nu)}, t).value
        want = kantorovich(disc, mu, nu)
        worst = max(worst, abs(got - want))
    ok = worst <= 1e-7
    return ("internal-kantorovich", ok,
            f"{trials} random pairs, max deviation {worst:.2e}")


# -- 9 ---------------------------------------------------------------------


def check_hoare_termination():
    with open(corpus_path("imp", "as_termination.imp")) as fh:
        prog = parse_imp(fh.read())
    with open(corpus_path("imp", "skip.imp")) as fh:
        skip_prog = parse_imp(fh.read())
    tt = lambda s, s2: 0.0
    ok = True
    for n in range(1, 21):
        out = eval_cmd(prog, prog.body, prog.initial_store(), max_iter=n)
        if out.mass != 1 - Fraction(1, 2**n):
            ok = False
        tri = triple_value(
            prog, prog.body, skip_prog, skip_prog.body, tt, tt, "eq",
            [(prog.initial_store(), skip_prog.initial_store())], max_iter=n,
        )
        if tri.value > 2.0 ** -n + 1e-12:
            ok = False
    return ("hoare-termination", ok,
            "termination mass exactly 1 - 2^-n and triple value <= 2^-n for n=1..20")


# -- 10 --------------------------------------------------------------------


def check_prp_prf():
    ok = True
    details = []
    t0 = time.time()
    for n in (4, 8):
        rep = prp_prf_check(3, n)
        ok = ok and rep.ok
        eps3 = rep.rows[-1]["epsilon"]
        details.append(f"N={n}: eps_3={eps3} tv={rep.rows[-1]['tv']:.5f}")
    if time.time() - t0 >= 120:
        ok = False
        details.append("over 120s")
    return ("prp-prf-switching", ok, "; ".join(details))


# -- 11 --------------------------------------------------------------------


def check_logic_suite(env_count: int = 20, seed: int = 0):
    deriv_dir = corpus_path("derivs")
    enums = _default_enums()
    files = sorted(f for f in os.listdir(deriv_dir) if f.endswith(".json"))
    covered = set()
    failures = []
    for fname in files:
        with open(os.path.join(deriv_dir, fname)) as fh:
            qfile, deriv = load_derivation_file(fh.read(), base_dir=deriv_dir)
        ck = Checker(qfile.alphabets if qfile else {})
        ev = Evaluator(ck, EvalConfig(fuel=60, tol=1e-4, enums=enums))
        rep = check_derivation(ck, deriv, qfile)
        if not rep.ok:
            failures.append(f"{fname}: {rep.error}")
            continue

        def rules_of(d):
            covered.add(d.rule)
            for c in d.children:
                rules_of(c)

        rules_of(deriv)
        envs = sample_envs(ev, deriv.judgment.delta, env_count, seed=seed)
        sem = check_semantic(ev, deriv.judgment, envs, tol=1e-3)
        if not sem.ok:
            failures.append(f"{fname}: semantic {sem.violations[:1]}")
    missing = sorted(set(RULES) - covered)
    ok = not failures and not missing and len(files) >= 25
    detail = (
        f"{len(files)} derivations, all rules covered"
        if not missing
        else f"missing rules: {missing}"
    )
    if failures:
        detail += f"; failures: {failures[:3]}"
    return ("logic-suite", ok, detail)


# -- 12 --------------------------------------------------------------------

EXPECTED_MUTANT_RULES = {
    "m01_fix_identity.qlog": "fix",
    "m02_fix_self_loop.qlog": "fix",
    "m03_var_below_usage.qlog": "var",
    "m04_let_infinite.qlog": "let",
    "m05_case_infinite.qlog": "case",
    "m06_mix_weight.qlog": "mix",
    "m07_unbound.qlog": "var",
    "m08_tensor_overuse.qlog": "let-tensor",
    "m09_scale_zero.qlog": "scale",
    "m10_eq_mismatch.qlog": "eq",
}


def check_typechecker_corpus():
    failures = []
    # well-graded artifacts, with their key sensitivities
    expectations = [
        ("geo.qlog", "geo", {"": None}),
        ("markov.qlog", "m", {"z": Grade(1)}),
        ("markov.qlog", "n", {"z": Grade(1)}),
        ("coin_half.qlog", "fair", {}),
        ("tdstep.qlog", "tdstep", {}),
        ("hwalk.qlog", "hwalk", {}),
    ]
    for fname, defname, graded in expectations:
        with open(corpus_path(fname)) as fh:
            qfile = parse_file(fh.read())
        ck = Checker(qfile.alphabets)
        d = qfile.defs[defname]
        try:
            ck.check(qfile.ctx, d.term, d.declared_type)
            _, usage = ck.synthesize(qfile.ctx.types(), d.term)
        except TypeCheckError as e:
            failures.append(f"{fname}:{defname} rejected: {e}")
            continue
        for var, grade in graded.items():
            if var and usage.get(var) != grade:
                failures.append(
                    f"{fname}:{defname} uses {var} at {usage.get(var)}, "
                    f"expected {grade}"
                )
    # contraction grades stated in the sources
    with open(corpus_path("geo.qlog")) as fh:
        qfile = parse_file(fh.read())
    geo = qfile.defs["geo"].term
    Checker(qfile.alphabets).synthesize({}, geo)
    if geo.contraction != Grade(Fraction(1, 2)):
        failures.append(f"geo contraction {geo.contraction} != 1/2")

    for fname, rule in EXPECTED_MUTANT_RULES.items():
        with open(corpus_path("mutants", fname)) as fh:
            try:
                qfile = parse_file(fh.read())
            except Exception as e:
                failures.append(f"{fname} failed to parse: {e}")
                continue
        ck = Checker(qfile.alphabets)
        try:
            for nm, d in qfile.defs.items():
                if d.declared_type is not None:
                    ck.check(qfile.ctx, d.term, d.declared_type)
                else:
                    ck.synthesize(qfile.ctx.types(), d.term)
            failures.append(f"{fname} unexpectedly accepted")
        except TypeCheckError as e:
            if e.rule != rule:
                failures.append(
                    f"{fname} rejected by rule {e.rule!r}, expected {rule!r}"
                )
    ok = not failures
    detail = "corpus accepted, 10 mutants rejected by the right rules"
    if failures:
        detail = "; ".join(failures[:4])
    return ("typechecker-corpus", ok, detail)


ALL_CHECKS: List[Callable] = [
    check_transport_oracle,
    check_geometric,
    check_markov_quarter,
    check_biased_coin,
    check_bisimilarity_agreement,
    check_td_contraction,
    check_hypercube,
    check_internal_kantorovich,
    check_hoare_termination,
    check_prp_prf,
    check_logic_suite,
    check_typechecker_corpus,
]


def run_all(emit: Callable[[str], None] = print) -> bool:
    ok = True
    for i, check in enumerate(ALL_CHECKS, 1):
        name, good, detail = check()
        ok = ok and good
        emit(f"[{i:2d}] {'PASS' if good else 'FAIL'} {name}: {detail}")
    return ok
