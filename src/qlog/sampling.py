"""Seeded random values and environments for semantic checks.

Function-typed samples are built from a small library of shapes that
are non-expansive by construction (constants, the identity, distance
to an anchor point), since arbitrary random functions
would not inhabit the types.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Any, Dict, List

from .evaluator import Evaluator
from .measures import Dist, dirac
from . import terms as T
from .values import Approx, VInj, VNative, VProc, UNIT


def sample_value(ev: Evaluator, ty: T.Type, rng: random.Random, size: int = 3) -> Any:
    if isinstance(ty, T.TNat):
        return rng.randrange(0, 2 * size + 2)
    if isinstance(ty, T.TUnit):
        return UNIT
    if isinstance(ty, T.TProp):
        return rng.randrange(0, 17) / 16.0
    if isinstance(ty, T.TAlpha):
        labels = ev.checker.alphabets.get(ty.name)
        if not labels:
            raise ValueError(f"alphabet {ty.name} has no labels")
        return rng.choice(labels)
    if isinstance(ty, (T.TProd, T.TTensor)):
        return (
            sample_value(ev, ty.left, rng, size),
            sample_value(ev, ty.right, rng, size),
        )
    if isinstance(ty, T.TSum):
        if rng.random() < 0.5:
            return VInj(1, sample_value(ev, ty.left, rng, size))
        return VInj(2, sample_value(ev, ty.right, rng, size))
    if isinstance(ty, T.TDist):
        k = rng.randrange(1, size + 1)
        den = 16
        cuts = sorted(rng.randrange(0, den + 1) for _ in range(k - 1))
        weights = []
        prev = 0
        for c in list(cuts) + [den]:
            weights.append(Fraction(c - prev, den))
            prev = c
        # the weights sum to 16/16, so at least one is positive
        return Dist.from_pairs([
            (sample_value(ev, ty.inner, rng, size), w)
            for w in weights
            if w > 0
        ])
    if isinstance(ty, T.TLolli):
        return _sample_function(ev, ty, rng, size)
    if isinstance(ty, T.TProc):
        return _sample_process(ev, ty, rng, size)
    raise ValueError(f"cannot sample type {ty}")


def _sample_function(ev: Evaluator, ty: T.TLolli, rng: random.Random, size: int):
    choices = ["const"]
    if str(ty.left) == str(ty.right) and ty.r >= T.Grade(1):
        choices.append("identity")
    if isinstance(ty.right, T.TProp):
        choices.append("distance")
    kind = rng.choice(choices)
    if kind == "identity":
        return VNative(lambda a: a, name="identity")
    if kind == "distance":
        anchor = sample_value(ev, ty.left, rng, size)
        return VNative(
            lambda a: ev.distance_at(ty.left, a.value, anchor).widen(a.radius),
            name="distance-to-anchor",
        )
    out = sample_value(ev, ty.right, rng, size)
    return VNative(lambda _a, v=out: Approx(v), name="const")


def _sample_process(ev: Evaluator, ty: T.TProc, rng: random.Random, size: int):
    labels = ev.checker.alphabets.get(ty.label)
    if not labels:
        raise ValueError(f"alphabet {ty.label} has no labels")
    # small random chain ending in a self-loop
    tail = VProc(rng.choice(labels))
    tail.step = dirac(tail)
    node = tail
    for _ in range(rng.randrange(0, size)):
        nxt = VProc(rng.choice(labels))
        p = Fraction(rng.randrange(1, 8), 8)
        nxt.step = Dist.from_pairs([(node, p), (nxt, 1 - p)])
        node = nxt
    return node


def sample_env(
    ev: Evaluator, delta: T.TypeCtx, rng: random.Random, size: int = 3
) -> Dict[str, Approx]:
    return {
        name: Approx(sample_value(ev, ty, rng, size))
        for name, _, ty in delta.bindings
    }


def sample_envs(
    ev: Evaluator, delta: T.TypeCtx, count: int, seed: int = 0, size: int = 3
) -> List[Dict[str, Approx]]:
    rng = random.Random(seed)
    return [sample_env(ev, delta, rng, size) for _ in range(count)]
