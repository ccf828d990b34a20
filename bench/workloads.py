"""The four benchmark workloads: seeded input generators, items and
reference verdicts.

A workload's ``setup(q, seed, root)`` receives the freshly imported
``qlog`` package and returns the pool of items one pass runs.  The seed
draws every input; the pool's *composition* (how many items of each size
class) is fixed, so that runs on different seeds measure the same mix
of work and their figures can be compared.

Why each workload was chosen is recorded in ``BENCHMARK.json`` and
``bench/README.md``.  Every item calls only the public API of ``qlog``
and hands back a JSON-serialisable verdict payload.  ``Item.check`` compares that payload
with a reference the benchmark computes itself, never with a value the
code under test produced.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional

@dataclass
class Item:
    """One verdict.  ``run(pass_index)`` calls the program; ``check``
    returns ``None`` when the payload matches the reference, else why
    not."""

    label: str
    run: Callable[[int], Any]
    check: Callable[[Any], Optional[str]]


# Float slack for comparisons against exact references: covers rounding
# in the program's float conversions, nothing more.
FLOAT_SLACK = 1e-9


# ---------------------------------------------------------------------------
# td: the temporal-difference contraction bound
# ---------------------------------------------------------------------------

# The suite's most expensive criterion: Dist canonicalisation over large
# float-tuple supports, plus a few exact transport LPs each solved once.

TD_STEPS = 6
TD_TOL = 1e-6
TD_ALPHA = Fraction(1, 2)
TD_GAMMAS = [Fraction(1, 2), Fraction(4, 5)]
# One block of the pool, as branching per step: the support after m steps
# has b^m points.  Sorted by cost: one b=2 (the cheap 1/5), three b=3
# (1/5 to 4/5, holding the median) and one b=4 (the top 1/5, holding the
# p90).  Items of one branching do the same work whatever the seed draws;
# gamma alternates from block to block.
TD_BLOCK = [2, 3, 3, 3, 4]
TD_BLOCKS = 3
# Values and rewards live on a 2^-20 grid, and rewards stay below
# 1 - gamma, so no update clips at 1 and no two paths coincide.  On the
# coarse 1/16 grid of the acceptance test, coincidences make the support
# (and the item's cost) vary a hundredfold between seeds.
TD_GRID = 2**20


def _td_mdp(q, rng: random.Random, branching: int, gamma: Fraction):
    """A 3-state, 2-action MDP in the shape of ``qlog.td.random_mdp``:
    one state with a stochastic policy and, for branching 3 or 4, one
    stochastic transition: under one of that state's actions (3) or under
    the action of another state (4)."""
    n_states, actions = 3, ["a0", "a1"]
    coin_state = rng.randrange(n_states)
    policy = {}
    for i in range(n_states):
        if i == coin_state:
            a1, a2 = rng.sample(actions, 2)
            p = Fraction(rng.randrange(1, 8), 8)
            policy[i] = q.Dist.from_pairs([(a1, p), (a2, 1 - p)])
        else:
            policy[i] = q.dirac(rng.choice(actions))
    coin_cell = None
    if branching == 3:
        coin_cell = (rng.choice(actions), coin_state)
    elif branching == 4:
        other = rng.choice([i for i in range(n_states) if i != coin_state])
        coin_cell = (policy[other].points[0][0], other)
    max_reward = int(TD_GRID * (1 - gamma))
    transition, reward = {}, {}
    for i in range(n_states):
        for a in actions:
            if (a, i) == coin_cell:
                j1, j2 = rng.sample(range(n_states), 2)
                p = Fraction(rng.randrange(1, 8), 8)
                transition[(a, i)] = q.Dist.from_pairs([(j1, p), (j2, 1 - p)])
            else:
                transition[(a, i)] = q.dirac(rng.randrange(n_states))
            reward[(i, a)] = q.dirac(rng.randrange(0, max_reward + 1) / TD_GRID)
    return q.MDP(
        n_states=n_states,
        actions=actions,
        transition=transition,
        reward=reward,
        policy=policy,
        alpha=TD_ALPHA,
        gamma=gamma,
    )


def _td_vector(rng: random.Random) -> tuple:
    return tuple(rng.randrange(0, TD_GRID + 1) / TD_GRID for _ in range(3))


def _td_item(q, label, mdp, v, w) -> Item:
    k = float(1 - mdp.alpha + mdp.gamma * mdp.alpha)
    d0 = max(abs(a - b) for a, b in zip(v, w))

    def run(_pass):
        rep = q.td_contraction_check(mdp, v, w, TD_STEPS, tol=TD_TOL)
        return {"ok": rep.ok, "k": rep.k, "d0": rep.d0, "rows": rep.rows}

    def check(p):
        if not p["ok"]:
            return "verdict: bound violated"
        rows = p["rows"]
        if [r["n"] for r in rows] != list(range(1, TD_STEPS + 1)):
            return f"rows cover steps {[r['n'] for r in rows]}"
        for r in rows:
            bound = k ** r["n"] * d0
            if not r["measured"] <= bound + TD_TOL:
                return f"step {r['n']}: measured {r['measured']} > k^m d0 {bound}"
        return None

    return Item(label, run, check)


def setup_td(q, seed: int, root: str) -> List[Item]:
    rng = random.Random(seed)
    items = []
    for block in range(TD_BLOCKS):
        for slot, branching in enumerate(TD_BLOCK):
            gamma = TD_GAMMAS[block % 2]
            mdp = _td_mdp(q, rng, branching, gamma)
            v, w = _td_vector(rng), _td_vector(rng)
            label = f"td/{block}.{slot}/b{branching}/g{gamma}"
            items.append(_td_item(q, label, mdp, v, w))
    return items


# ---------------------------------------------------------------------------
# procdist: behavioral and bisimilarity distances of labelled chains
# ---------------------------------------------------------------------------

# Thousands of tiny transport LPs whose supplies and demands repeat every
# round while the costs change; little Dist work.

PD_TOL = 1e-4
PD_FUEL = 60
HALF, NINE_TENTHS = Fraction(1, 2), Fraction(9, 10)
# One block of the pool, as (kind, states, branching, discount).  Sorted
# by cost: a diagonal pair, a coin at 1/2, a small chain and a coin at
# 9/10 (the cheap 1/4), nine k=4 b=3 chains (1/4 to 13/16, holding the
# median) and three c=9/10 chains (the top 3/16, holding the p90).  With
# a ring edge and balanced labels, a chain's cost varies little between
# seeds inside its class.
PD_BLOCK = [
    ("diag", 3, 2, HALF),
    ("coin", 2, 2, HALF),
    ("pair", 3, 2, HALF),
    ("coin", 2, 2, NINE_TENTHS),
] + [("pair", 4, 3, HALF)] * 9 + [("pair", 3, 2, NINE_TENTHS)] * 3
PD_BLOCKS = 2


def _proj(i: int, k: int, x: str) -> str:
    """Component i of a right-nested k-fold & pair."""
    t = x
    for _ in range(i):
        t = f"(snd {t})"
    return t if i == k - 1 else f"(fst {t})"


def _mixture(succ: List[int], weights: List[Fraction], k: int) -> str:
    """Nested binary (+ p) mixtures of deltas over the successors."""
    head = f"delta({_proj(succ[0], k, 'x')})"
    if len(succ) == 1:
        return head
    p = weights[0] / sum(weights)
    return f"{head} (+ {p}) ({_mixture(succ[1:], weights[1:], k)})"


def chain_source(rng: random.Random, k: int, b: int, c: Fraction):
    """A random labelled Markov chain as .qlog text: one fixed point over
    nested & pairs of processes.  Returns (source, labels)."""
    labels = ["A", "B"] * (k // 2) + ["A"] * (k % 2)
    rng.shuffle(labels)
    comps = []
    for i in range(k):
        # a ring edge keeps every state reachable from every other
        succ = [(i + 1) % k] + rng.sample([j for j in range(k) if j != (i + 1) % k], b - 1)
        rng.shuffle(succ)
        weights = [Fraction(rng.randrange(1, 8)) for _ in range(b)]
        comps.append(f"proc({labels[i]}, {_mixture(succ, weights, k)})")
    body = comps[-1]
    for comp in reversed(comps[:-1]):
        body = f"< {comp}, {body} >"
    ty = f"Proc[{c}] L"
    for _ in range(k - 1):
        ty = f"Proc[{c}] L & ({ty})"
    lines = [
        "alphabet L = { A, B }",
        f"def chain : {ty} =",
        f"  fix x : {ty}.",
        f"    {body}",
    ]
    lines += [f"def s{i} : Proc[{c}] L = {_proj(i, k, 'chain')}" for i in range(k)]
    return "\n".join(lines) + "\n", labels


def coin_source(c: Fraction, eps: Fraction) -> str:
    """Fair vs biased coin processes: the biased one flips with weight
    1/2 - eps."""
    flip = Fraction(1, 2) - eps
    pair = f"Proc[{c}] C & Proc[{c}] C"
    return (
        "alphabet C = { Hd, Tl }\n"
        f"def fair : {pair} = fix x : {pair}.\n"
        f"  < proc(Hd, delta(fst x) (+ 1/2) delta(snd x)),\n"
        f"    proc(Tl, delta(fst x) (+ 1/2) delta(snd x)) >\n"
        f"def biased : {pair} = fix x : {pair}.\n"
        f"  < proc(Hd, delta(fst x) (+ {flip}) delta(snd x)),\n"
        f"    proc(Tl, delta(fst x) (+ {flip}) delta(snd x)) >\n"
        f"def hd : Proc[{c}] C = fst fair\n"
        f"def hde : Proc[{c}] C = fst biased\n"
    )


def _load_processes(q, source: str):
    """Parse, typecheck and evaluate every definition, then force the
    lazy process graph so that items measure distances, not unfolding."""
    qfile = q.parse_file(source)
    ck = q.Checker(qfile.alphabets)
    ev = q.Evaluator(ck, q.EvalConfig(fuel=PD_FUEL, tol=PD_TOL))
    values = {}
    for name, d in qfile.defs.items():
        ck.check(qfile.ctx, d.term, d.declared_type)
        values[name] = ev.eval({}, d.term).value
    deref = q.values.deref
    stack = [deref(v) for v in values.values()]
    seen = set()
    while stack:
        node = stack.pop()
        if id(node) in seen or not isinstance(node, q.values.VProc):
            continue
        seen.add(id(node))
        stack.extend(deref(v) for v, _ in node.step.points)
    return ev, values


def _approx(a) -> dict:
    return {"value": a.value, "radius": a.radius}


def _pd_item(q, label, ev, left, right, c: Fraction, check_one) -> Item:
    grade = q.Grade(c)

    def run(_pass):
        beh = q.behavioral_distance(ev, left, right, grade, PD_TOL)
        bis = q.bisimilarity_distance(ev, left, right, grade, PD_TOL)
        return {"behavioral": _approx(beh), "bisimilarity": _approx(bis)}

    def check(p):
        beh, bis = p["behavioral"], p["bisimilarity"]
        gap = abs(beh["value"] - bis["value"])
        if gap > 2 * PD_TOL:
            return f"routes disagree by {gap}"
        for route in (beh, bis):
            why = check_one(route)
            if why:
                return why
        return None

    return Item(label, run, check)


def _exactly(target: float) -> Callable[[dict], Optional[str]]:
    def check_one(route):
        if route["value"] != target:
            return f"value {route['value']} != {target}"
        return None

    return check_one


def _unit_interval(route) -> Optional[str]:
    if not 0.0 <= route["value"] <= 1.0:
        return f"value {route['value']} outside [0, 1]"
    return None


def _closed_form(c: Fraction, eps: Fraction) -> Callable[[dict], Optional[str]]:
    expect = float(c * eps / (1 - c + c * eps))

    def check_one(route):
        err = abs(route["value"] - expect)
        if err > route["radius"] + FLOAT_SLACK:
            return f"value {route['value']} is {err} from {expect}, radius {route['radius']}"
        return None

    return check_one


def setup_procdist(q, seed: int, root: str) -> List[Item]:
    rng = random.Random(seed)
    items = []
    for block in range(PD_BLOCKS):
        for slot, (kind, k, b, c) in enumerate(PD_BLOCK):
            label = f"procdist/{block}.{slot}/{kind}/k{k}b{b}c{c}"
            if kind == "coin":
                eps = Fraction(rng.randrange(1, 8), 16)
                ev, values = _load_processes(q, coin_source(c, eps))
                left, right = values["hd"], values["hde"]
                check_one = _closed_form(c, eps)
                label += f"/eps{eps}"
            else:
                source, labels = chain_source(rng, k, b, c)
                ev, values = _load_processes(q, source)
                if kind == "diag":
                    i = j = rng.randrange(k)
                    check_one = _exactly(0.0)
                else:
                    i, j = rng.sample(range(k), 2)
                    mismatch = labels[i] != labels[j]
                    check_one = _exactly(1.0) if mismatch else _unit_interval
                left, right = values[f"s{i}"], values[f"s{j}"]
                label += f"/s{i}-s{j}"
            items.append(_pd_item(q, label, ev, left, right, c, check_one))
    return items


# ---------------------------------------------------------------------------
# logic: the derivation corpus both ways, and the ill-graded mutants
# ---------------------------------------------------------------------------

# The evaluator, typecheck and logic path, with no Dist- or imp-heavy work.

LOGIC_ENVS = 200
LOGIC_TOL = 1e-3
# Its process-distance judgment takes over 90% of the corpus time; that
# layer is measured by procdist instead.
LOGIC_EXCLUDED = {"11_markov_quarter_bound.json"}

# The typing rule that must reject each mutant.
MUTANT_RULES = {
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


def _derivation_item(q, name, text, base_dir, enums, seed) -> Item:
    def run(pass_index):
        qfile, deriv = q.logic.load_derivation_file(text, base_dir=base_dir)
        ck = q.Checker(qfile.alphabets if qfile else {})
        ev = q.Evaluator(ck, q.EvalConfig(fuel=60, tol=1e-4, enums=enums))
        rep = q.check_derivation(ck, deriv, qfile)
        env_seed = random.Random(f"{seed}/{pass_index}").randrange(2**31)
        envs = q.sampling.sample_envs(ev, deriv.judgment.delta, LOGIC_ENVS, seed=env_seed)
        sem = q.check_semantic(ev, deriv.judgment, envs, tol=LOGIC_TOL)
        return {
            "structural": rep.ok,
            "semantic": sem.ok,
            "envs": len(envs),
            "margins": sem.margins,
        }

    def check(p):
        if not p["structural"]:
            return "proof checker rejected the derivation"
        if not p["semantic"]:
            return "semantic check found a violation"
        if p["envs"] != LOGIC_ENVS:
            return f"{p['envs']} envs sampled, wanted {LOGIC_ENVS}"
        return None

    return Item(f"logic/{name}", run, check)


def _mutant_item(q, name, text) -> Item:
    def run(_pass):
        qfile = q.parse_file(text)
        ck = q.Checker(qfile.alphabets)
        try:
            for d in qfile.defs.values():
                if d.declared_type is not None:
                    ck.check(qfile.ctx, d.term, d.declared_type)
                else:
                    ck.synthesize(qfile.ctx.types(), d.term)
        except q.TypeCheckError as e:
            return {"rejected_by": e.rule}
        return {"rejected_by": None}

    def check(p):
        if p["rejected_by"] != MUTANT_RULES[name]:
            return f"rejected by {p['rejected_by']!r}, expected {MUTANT_RULES[name]!r}"
        return None

    return Item(f"logic/{name}", run, check)


def setup_logic(q, seed: int, root: str) -> List[Item]:
    corpus = os.path.join(root, "corpus")
    deriv_dir = os.path.join(corpus, "derivs")
    with open(os.path.join(corpus, "enums", "default.json"), encoding="utf-8") as fh:
        enums = q.EnumSpec(json.load(fh))
    items = []
    for name in sorted(os.listdir(deriv_dir)):
        if name.endswith(".json") and name not in LOGIC_EXCLUDED:
            with open(os.path.join(deriv_dir, name), encoding="utf-8") as fh:
                text = fh.read()
            items.append(_derivation_item(q, name, text, deriv_dir, enums, seed))
    for name in sorted(MUTANT_RULES):
        with open(os.path.join(corpus, "mutants", name), encoding="utf-8") as fh:
            items.append(_mutant_item(q, name, fh.read()))
    return items


# ---------------------------------------------------------------------------
# prp: random injection vs random function, error-credit accounting
# ---------------------------------------------------------------------------

# The only imp loop evaluation and hoare triples: Store-keyed supports,
# weight() lookups and total_variation.

# Array length L and value range N, L <= N <= 6.
PRP_GRID = [(length, n) for length in (1, 2, 3) for n in range(length, 7)]


def _prp_item(q, length: int, n: int) -> Item:
    def run(_pass):
        rep = q.prp_prf_check(length, n)
        return {"ok": rep.ok, "rows": rep.rows}

    def check(p):
        if not p["ok"]:
            return "verdict: credit accounting failed"
        qs = [r["Q"] for r in p["rows"]]
        if qs != list(range(1, length + 1)):
            return f"rows cover Q = {qs}"
        for r in p["rows"]:
            eps = float(Fraction(r["Q"] * (r["Q"] - 1), 2 * n))
            if r["epsilon"] != eps:
                return f"Q={r['Q']}: epsilon {r['epsilon']} != {eps}"
            if not r["tv"] <= eps:
                return f"Q={r['Q']}: tv {r['tv']} > epsilon {eps}"
        return None

    return Item(f"prp/L{length}/N{n}", run, check)


def setup_prp(q, seed: int, root: str) -> List[Item]:
    # The grid is small: one pass visits every cell once, in seeded order.
    cells = list(PRP_GRID)
    random.Random(seed).shuffle(cells)
    return [_prp_item(q, length, n) for length, n in cells]


WORKLOADS: Dict[str, Callable[[Any, int, str], List[Item]]] = {
    "td": setup_td,
    "procdist": setup_procdist,
    "logic": setup_logic,
    "prp": setup_prp,
}
