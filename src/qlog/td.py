"""Temporal-difference value updates and their contraction bound.

One refinement step samples, independently for every state i, an
action from the policy, a reward (in [0,1]) and a successor state, and
updates

    V'(i) = (1 - alpha) * V(i) + alpha * min(r + gamma * V(j), 1)

The full step is the exact product distribution over updated value
vectors.  With k = 1 - alpha + gamma * alpha the step is k-Lipschitz
for the Kantorovich distance over the max-metric on vectors: coupling
the two runs on shared randomness bounds every path difference by
k * max_i |V(i) - W(i)| pointwise.

``td_contraction_check`` verifies the iterated bound
K(TD^n V, TD^n W) <= k^n * d(V, W).  It computes the exact transport
optimum while the support product stays small and otherwise falls
back to the shared-randomness coupling cost, which certifies an upper
bound on the same optimum (the report says which route each n took).

The route rule: step m takes the exact LP iff (distinct V) * (distinct
W) <= lp_cap**2, counted over the support of the paired distribution,
and only then are the marginal measures of V and W built, with one
``Fraction`` per point.  Each support point is a distinct (V, W) pair,
so a support larger than lp_cap**2 decides the coupling route without
counting.  The coupling cost is the exact sum of m * d / den over the
rows, rounded once (``measures.expectation``).

Masses.  Between steps the paired distribution is a list of rows
((V, W), m, d): m is a Python int over one denominator ``den``, the
input's denominator times the product of the branch tables'
denominators, and d is d_max(V, W).  A step builds no ``Dist`` and no
``Fraction``, and works by columns: each (state, branch) has one V,
one W and one gap |uv - uw| column over all of the step's rows, each
computed once.  A path zips its branches' columns into (V, W) keys,
and its d is the max of their gaps.  Rows are merged in a dict keyed
by the raw (V, W) tuple, whose equality on all-float tuples is
``key_of`` equality (so the route rule counts raw V and W tuples too).
The support cap is checked on the merged count.  The rows stay in
first-seen order (input row, then path), never sorted: nothing
reported depends on their order.  ``td_step`` is the V half of the
paired step from (v, v), built once into a ``Dist`` by ``Dist.from_pairs``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, product
from typing import Dict, List, Tuple

from .measures import Dist, dirac, expectation, kantorovich


@dataclass
class MDP:
    n_states: int
    actions: List[str]
    # (action, state) -> Dist over successor states
    transition: Dict[Tuple[str, int], Dist]
    # (state, action) -> Dist over rewards in [0, 1]
    reward: Dict[Tuple[int, str], Dist]
    # state -> Dist over actions
    policy: Dict[int, Dist]
    alpha: Fraction = Fraction(1, 2)
    gamma: Fraction = Fraction(1, 2)

    def __post_init__(self):
        # alpha = 0 degenerates to the identity update and is allowed
        if not (0 <= self.alpha < 1 and 0 < self.gamma < 1):
            raise ValueError("need 0 <= alpha < 1 and 0 < gamma < 1")
        for (i, a), rd in self.reward.items():
            for r, _ in rd.points:
                if not 0 <= float(r) <= 1:
                    raise ValueError("rewards must lie in [0,1]")

    @property
    def k(self) -> Fraction:
        return 1 - self.alpha + self.gamma * self.alpha


# ((V, W), m, d): a support pair, its int mass over the step's
# denominator, and d_max(V, W)
Row = Tuple[Tuple[tuple, tuple], int, float]


def _branch_table(mdp: MDP, i: int) -> Tuple[List[Tuple[float, int, int]], int]:
    """``(reward, successor, mass)`` for every branch at state i, in
    policy, reward, transition order, each mass an int over the
    returned denominator."""
    rows = [
        (float(r), j, wa.numerator * wr.numerator * wj.numerator,
         wa.denominator * wr.denominator * wj.denominator)
        for a, wa in mdp.policy[i].points
        for r, wr in mdp.reward[(i, a)].points
        for j, wj in mdp.transition[(a, i)].points
    ]
    den = math.lcm(*[d for _, _, _, d in rows])
    return [(r, j, q * (den // d)) for r, j, q, d in rows], den


def _check_vector(mdp: MDP, v: Tuple[float, ...]) -> None:
    if len(v) != mdp.n_states:
        raise ValueError(
            f"value vector has {len(v)} entries for {mdp.n_states} states"
        )
    if any(not 0 <= x <= 1 for x in v):
        raise ValueError("value entries must lie in [0,1]")


def _paired_masses(
    mdp: MDP, rows: List[Row], den: int
) -> Tuple[List[Row], int]:
    """Advance the rows of a distribution over (V, W) pairs, each mass
    an int over ``den``, on shared randomness: the merged updated rows
    in first-seen order, with int masses over the returned denominator
    (see Masses above).  A row's input distance is not read."""
    if not mdp.n_states:  # one empty path: every pair is ((), ())
        return ([[((), ()), sum(m for _, m, _ in rows), 0.0]] if rows else []), den
    alpha, gamma = float(mdp.alpha), float(mdp.gamma)
    keep = 1 - alpha
    masses = [m for _, m, _ in rows]
    sides = [[pair[side] for pair, _, _ in rows] for side in (0, 1)]
    # per (state, branch): V, W and gap columns; 1.0 if 1.0 < t else t is min(t, 1.0)
    states = []
    for i in range(mdp.n_states):
        table, d = _branch_table(mdp, i)
        den *= d
        states.append([])
        for r, j, q in table:
            uv, uw = (
                [keep * x[i] + alpha * (1.0 if 1.0 < (t := r + gamma * x[j]) else t)
                 for x in xs] for xs in sides
            )
            states[-1].append((uv, uw, [abs(a - b) for a, b in zip(uv, uw)], q))
    paths = []
    for path in product(*states):
        uvs, uws, gaps, qs = zip(*path)
        q = math.prod(qs)
        ds = map(max, *gaps) if len(gaps) > 1 else gaps[0]
        keys = zip(zip(*uvs), zip(*uws))
        paths.append(map(list, zip(keys, [m * q for m in masses], ds)))
    # rows [key, mass, d] by input row, then path; a key keeps its first row
    merged: Dict[Tuple[tuple, tuple], list] = {}
    for row in chain.from_iterable(zip(*paths)):
        first = merged.setdefault(row[0], row)
        if first is not row:
            first[1] += row[1]
    return list(merged.values()), den


def td_step(mdp: MDP, v: Tuple[float, ...]) -> Dist:
    """Exact one-step distribution over updated value vectors: the V
    half of the paired step from (v, v)."""
    _check_vector(mdp, v)
    rows, den = _paired_masses(mdp, [((v, v), 1, 0.0)], 1)
    return Dist.from_pairs([(pv, Fraction(m, den)) for (pv, _), m, _ in rows])


def d_max(v: Tuple[float, ...], w: Tuple[float, ...]) -> float:
    return max((abs(a - b) for a, b in zip(v, w)), default=0.0)


@dataclass
class TDReport:
    k: float
    d0: float
    rows: List[dict] = field(default_factory=list)
    ok: bool = True

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "initial_distance": self.d0,
            "rows": self.rows,
            "status": "ok" if self.ok else "violated",
        }


def td_contraction_check(
    mdp: MDP,
    v: Tuple[float, ...],
    w: Tuple[float, ...],
    n: int,
    tol: float = 1e-6,
    lp_cap: int = 25,
    support_cap: int = 200000,
) -> TDReport:
    """Verify K(TD^m V, TD^m W) <= k^m d(V,W) for every m <= n."""
    _check_vector(mdp, v)
    _check_vector(mdp, w)
    if n < 0:
        raise ValueError(f"step count must be >= 0, got {n}")
    if not 0 <= tol < math.inf:  # NaN fails this too
        raise ValueError(f"tol must be a finite number >= 0, got {tol}")
    if lp_cap < 0:
        raise ValueError(f"lp_cap must be >= 0, got {lp_cap}")
    if support_cap < 1:
        raise ValueError(f"support_cap must be >= 1, got {support_cap}")
    cap = lp_cap * lp_cap
    kf = float(mdp.k)
    report = TDReport(k=kf, d0=d_max(v, w))
    rows: List[Row] = [((tuple(v), tuple(w)), 1, report.d0)]
    den = 1
    bound = report.d0
    for m in range(1, n + 1):
        rows, den = _paired_masses(mdp, rows, den)
        if len(rows) > support_cap:
            raise ValueError(f"support blow-up: {len(rows)} pairs at step {m}")
        bound *= kf
        coupling_cost = expectation([(d, q) for _, q, d in rows], den)
        if len(rows) <= cap and (
            len({pv for (pv, _), _, _ in rows}) * len({pw for (_, pw), _, _ in rows})
            <= cap
        ):
            mu = Dist.from_pairs([(pv, Fraction(q, den)) for (pv, _), q, _ in rows])
            nu = Dist.from_pairs([(pw, Fraction(q, den)) for (_, pw), q, _ in rows])
            measured = kantorovich(d_max, mu, nu)
            mode = "exact-lp"
        else:
            measured = coupling_cost
            mode = "coupling-upper-bound"
        ok = measured <= bound + tol
        report.rows.append(
            {
                "n": m,
                "mode": mode,
                "measured": measured,
                "coupling_cost": coupling_cost,
                "bound": bound,
                "ok": ok,
            }
        )
        report.ok = report.ok and ok
    return report


def random_mdp(seed: int, n_states: int = 3, n_actions: int = 2) -> MDP:
    """A random sparse MDP: deterministic except one stochastic policy
    state and one stochastic transition, keeping exact enumeration
    small while varying across seeds."""
    rng = random.Random(seed)
    actions = [f"a{i}" for i in range(n_actions)]
    coin_state = rng.randrange(n_states)
    coin_cell = (rng.choice(actions), rng.randrange(n_states))
    transition = {}
    reward = {}
    policy = {}
    for i in range(n_states):
        if i == coin_state:
            a1, a2 = rng.sample(actions, 2) if n_actions > 1 else (actions[0],) * 2
            p = Fraction(rng.randrange(1, 8), 8)
            policy[i] = Dist.from_pairs([(a1, p), (a2, 1 - p)])
        else:
            policy[i] = dirac(rng.choice(actions))
        for a in actions:
            if (a, i) == coin_cell:
                j1, j2 = rng.randrange(n_states), rng.randrange(n_states)
                if j1 == j2:
                    transition[(a, i)] = dirac(j1)
                else:
                    q = Fraction(rng.randrange(1, 8), 8)
                    transition[(a, i)] = Dist.from_pairs([(j1, q), (j2, 1 - q)])
            else:
                transition[(a, i)] = dirac(rng.randrange(n_states))
            reward[(i, a)] = dirac(rng.randrange(0, 17) / 16.0)
    return MDP(
        n_states=n_states,
        actions=actions,
        transition=transition,
        reward=reward,
        policy=policy,
    )


def random_vector(seed: int, n_states: int) -> Tuple[float, ...]:
    rng = random.Random(seed)
    return tuple(rng.randrange(0, 17) / 16.0 for _ in range(n_states))
