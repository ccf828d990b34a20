"""Shared test helpers: corpus paths, random distributions, let-sample
evaluation over bound measures, and a random well-typed term generator
used by the substitution/equality property tests."""

import os
import random
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from qlog import terms as T
from qlog.evaluator import Evaluator
from qlog.grades import Grade
from qlog.measures import Dist, dirac
from qlog.parser import parse_term
from qlog.typecheck import Checker
from qlog.values import Approx, deref

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


def corpus(*parts):
    return os.path.join(CORPUS, *parts)


NAT = T.TNat()
PROP = T.TProp()
DNAT = T.TDist(NAT)

MU = Dist.from_pairs([(0, Fraction(1, 2)), (1, Fraction(1, 2))])


def rand_dist(rng, size=3, den=8):
    cuts = sorted(rng.randrange(0, den + 1) for _ in range(size - 1))
    ws, prev = [], 0
    for c in list(cuts) + [den]:
        ws.append(Fraction(c - prev, den))
        prev = c
    pairs = [(rng.randrange(0, 5), w) for w in ws if w > 0]
    return Dist.from_pairs(pairs) if pairs else dirac(rng.randrange(0, 5))


def let_sample(src, **measures):
    """Evaluate ``src`` with each keyword bound to its ``Dist Nat`` in
    both the typing context and the environment."""
    t = parse_term(src)
    ck = Checker()
    ck.synthesize({name: DNAT for name in measures}, t)
    env = {name: Approx(mu) for name, mu in measures.items()}
    return deref(Evaluator(ck).eval(env, t).value)


def gen_term(rng: random.Random, ctx: dict, ty: T.Type, depth: int = 3) -> T.Term:
    """A random well-typed term of the given type over ctx.

    Every production synthesizes; grades are left to inference.
    """
    leaf = depth <= 0
    vars_of = [n for n, t in ctx.items() if t == ty]

    def sub(t, d=None):
        return gen_term(rng, ctx, t, depth - 1 if d is None else d)

    if ty == NAT:
        opts = ["zero", "lit"]
        if not leaf:
            opts += ["succ", "rec"]
        if vars_of:
            opts += ["var"] * 2
        pick = rng.choice(opts)
        if pick == "var":
            return T.Var(rng.choice(vars_of))
        if pick == "zero":
            return T.Zero()
        if pick == "lit":
            n = rng.randrange(0, 4)
            t: T.Term = T.Zero()
            for _ in range(n):
                t = T.Succ(t)
            return t
        if pick == "succ":
            return T.Succ(sub(NAT))
        prev = T.fresh_name("p")
        idx = T.fresh_name("q")
        return T.NatRec(sub(NAT), prev, idx, T.Succ(T.Var(prev)), sub(NAT))
    if ty == PROP:
        opts = ["tt", "ff"]
        if not leaf:
            opts += ["eq", "star", "scale", "wand", "conj", "disj", "mean"]
        if vars_of:
            opts += ["var"]
        pick = rng.choice(opts)
        if pick == "var":
            return T.Var(rng.choice(vars_of))
        if pick == "tt":
            return T.TT()
        if pick == "ff":
            return T.FF()
        if pick == "eq":
            return T.Eq(sub(NAT), sub(NAT))
        if pick == "star":
            return T.Star(sub(PROP), sub(PROP))
        if pick == "wand":
            return T.WandT(sub(PROP), sub(PROP))
        if pick == "conj":
            return T.Conj(sub(PROP), sub(PROP))
        if pick == "disj":
            return T.Disj(sub(PROP), sub(PROP))
        if pick == "scale":
            g = Grade(Fraction(rng.randrange(1, 5), rng.randrange(1, 4)))
            return T.Scale(g, sub(PROP))
        x = T.fresh_name("s")
        inner = dict(ctx)
        inner[x] = NAT
        body = gen_term(rng, inner, PROP, depth - 1)
        return T.LetSample(x, sub(DNAT), body)
    if ty == DNAT:
        opts = ["dirac"]
        if not leaf:
            opts += ["mix", "bindmap"]
        if vars_of:
            opts += ["var"] * 2
        pick = rng.choice(opts)
        if pick == "var":
            return T.Var(rng.choice(vars_of))
        if pick == "dirac":
            return T.DiracTerm(sub(NAT))
        if pick == "mix":
            p = Fraction(rng.randrange(1, 8), 8)
            return T.Mix(p, sub(DNAT), sub(DNAT))
        x = T.fresh_name("b")
        inner = dict(ctx)
        inner[x] = NAT
        body = T.DiracTerm(
            gen_term(rng, inner, NAT, depth - 1)
        )
        return T.LetSample(x, sub(DNAT), body)
    raise ValueError(f"no generator for {ty}")
