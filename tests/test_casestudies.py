"""Temporal-difference contraction and the hypercube walk."""

import hashlib
import json
import math
import random
from fractions import Fraction as F

import pytest

from qlog.hypercube import (
    flip,
    hamming,
    hamming_cost,
    hwalk,
    hypercube_contraction_check,
    hypercube_sigma,
    sigma_coupling,
)
from qlog.measures import Dist, dirac, kantorovich
from qlog.td import (
    MDP,
    _paired_masses,
    d_max,
    random_mdp,
    random_vector,
    td_contraction_check,
    td_step,
)


def test_hwalk_support():
    p = (0,)
    d = hwalk(1, p)
    assert d == Dist.from_pairs([((0,), F(1, 2)), ((1,), F(1, 2))])
    for n in (2, 3, 4):
        q = tuple([0] * n)
        assert len(hwalk(n, q).points) <= n + 1
        assert len(hwalk(n, q).points) == n + 1  # all flips distinct here


def test_hwalk_identity_on_equal_inputs():
    p = (0, 1, 0)
    assert kantorovich(
        lambda a, b: float(hamming(a, b)), hwalk(3, p), hwalk(3, p)
    ) == 0.0


def test_sigma_cases():
    p = (0, 1, 0)
    assert hypercube_sigma(p, p) == [0, 1, 2, 3]  # identity
    q = (0, 0, 0)  # differs at position 2 only
    sig = hypercube_sigma(p, q)
    assert sig[0] == 2 and sig[2] == 0  # transposition (0 2)
    r = (1, 0, 1)  # differs everywhere: 3-cycle on {1,2,3}
    sig = hypercube_sigma(p, r)
    assert sig[0] == 0
    assert sorted([sig[1], sig[2], sig[3]]) == [1, 2, 3]
    assert sig[1] != 1 and sig[2] != 2 and sig[3] != 3


def test_sigma_coupling_marginals_exact():
    for n in (2, 3):
        from itertools import product

        for p in product((0, 1), repeat=n):
            for q in product((0, 1), repeat=n):
                c = sigma_coupling(n, p, q)
                assert c.left() == hwalk(n, p)
                assert c.right() == hwalk(n, q)


def test_appendix_cost_formula():
    n = 3
    p = (0, 0, 0)
    q = (1, 1, 0)  # two differing bits
    c = sigma_coupling(n, p, q)
    cost = sum((w * hamming(a, b) for (a, b), w in c.joint.points), F(0))
    assert cost == F(1, 3)  # ((N-1)*k/N)/(N+1) with N=3, k=2
    assert hamming(p, q) == F(2, 3)
    assert cost / hamming(p, q) == F(1, 2)  # the contraction factor


def test_lp_below_sigma_everywhere():
    rep = hypercube_contraction_check(3)
    assert rep.ok
    for row in rep.rows:
        assert row["lp"] <= row["sigma_cost"] + 1e-15


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hypercube_contraction(n):
    rep = hypercube_contraction_check(n)
    assert rep.ok
    assert rep.worst_ratio <= float(rep.factor) + 1e-9


def test_hypercube_cap():
    with pytest.raises(ValueError):
        hypercube_contraction_check(9)


# -- temporal difference -----------------------------------------------------


def test_td_step_deterministic_is_point():
    mdp = random_mdp(7)  # sparse; make it fully deterministic
    for k in list(mdp.policy):
        mdp.policy[k] = dirac(mdp.policy[k].points[0][0])
    for k in list(mdp.transition):
        mdp.transition[k] = dirac(mdp.transition[k].points[0][0])
    out = td_step(mdp, (0.5, 0.25, 1.0))
    assert len(out.points) == 1


def test_td_step_zero_learning_rate_is_identity():
    mdp = random_mdp(3)
    mdp.alpha = F(0)
    v = (0.5, 0.25, 0.75)
    assert td_step(mdp, v) == dirac(v)


def test_td_step_branch_product():
    # two-state chain with a fair-coin transition in state 0
    a = "a0"
    mdp = MDP(
        n_states=2,
        actions=[a],
        transition={
            (a, 0): Dist.from_pairs([(0, F(1, 2)), (1, F(1, 2))]),
            (a, 1): dirac(0),
        },
        reward={(0, a): dirac(0.25), (1, a): dirac(0.5)},
        policy={0: dirac(a), 1: dirac(a)},
        alpha=F(1, 2),
        gamma=F(1, 2),
    )
    out = td_step(mdp, (0.0, 1.0))
    # state 0 branches over two successors, state 1 is deterministic
    assert len(out.points) == 2


def test_td_single_step_lipschitz():
    rng = random.Random(61)
    for seed in range(20):
        mdp = random_mdp(seed)
        v = random_vector(seed, 3)
        w = random_vector(seed + 1000, 3)
        lhs = kantorovich(d_max, td_step(mdp, v), td_step(mdp, w))
        assert lhs <= float(mdp.k) * d_max(v, w) + 1e-9


def test_td_contraction_iterated():
    for seed in (0, 1, 2):
        for a, g in ((F(1, 2), F(1, 2)), (F(1, 2), F(4, 5))):
            mdp = random_mdp(seed)
            mdp.alpha, mdp.gamma = a, g
            rep = td_contraction_check(
                mdp, random_vector(seed, 3), random_vector(seed + 99, 3), 6
            )
            assert rep.ok
            assert rep.rows[0]["n"] == 1
            # step zero distance equals the plain vector distance
            assert rep.d0 == d_max(
                random_vector(seed, 3), random_vector(seed + 99, 3)
            )


def test_td_rejects_bad_vectors():
    mdp = random_mdp(0)
    with pytest.raises(ValueError):
        td_step(mdp, (0.5, 0.5))  # wrong arity
    with pytest.raises(ValueError):
        td_step(mdp, (2.0, 0.0, 0.0))  # outside [0,1]


@pytest.mark.parametrize(
    "args, message",
    [
        (((0.5, 0.5), (0.0, 0.0, 0.0), 3), "value vector has 2 entries for 3 states"),
        (((0.0,) * 3, (0.0,) * 4, 3), "value vector has 4 entries for 3 states"),
        (((5.0, 0.0, 0.0), (0.0,) * 3, 3), r"value entries must lie in \[0,1\]"),
        (((0.0,) * 3, (0.0, -0.5, 0.0), 3), r"value entries must lie in \[0,1\]"),
        (((0.0,) * 3, (0.0, float("nan"), 0.0), 3), r"must lie in \[0,1\]"),
        (((0.0,) * 3, (1.0,) * 3, -1), "step count must be >= 0, got -1"),
        (((0.0,) * 3, (1.0,) * 3, 2, 1e-6, -1), "lp_cap must be >= 0, got -1"),
        (((0.0,) * 3, (1.0,) * 3, 2, float("nan")),
         "tol must be a finite number >= 0, got nan"),
        (((0.0,) * 3, (1.0,) * 3, 2, -1e-6),
         "tol must be a finite number >= 0, got -1e-06"),
        (((0.0,) * 3, (1.0,) * 3, 2, float("inf")),
         "tol must be a finite number >= 0, got inf"),
        (((0.0,) * 3, (1.0,) * 3, 2, 1e-6, 25, 0), "support_cap must be >= 1, got 0"),
        (((0.0,) * 3, (1.0,) * 3, 2, 1e-6, 25, -3),
         "support_cap must be >= 1, got -3"),
    ],
)
def test_td_contraction_rejects_bad_input(args, message):
    with pytest.raises(ValueError, match=message):
        td_contraction_check(random_mdp(0), *args)


def test_td_zero_state_mdp():
    """No state means one empty path per step: the steps stay dirac at
    (), every distance is the empty max 0.0, and the LP route is taken."""
    mdp = MDP(n_states=0, actions=[], transition={}, reward={}, policy={})
    assert td_step(mdp, ()) == dirac(())
    rep = td_contraction_check(mdp, (), (), 2)
    assert rep.ok and rep.d0 == 0.0
    assert rep.rows == [
        {"n": m, "mode": "exact-lp", "measured": 0.0, "coupling_cost": 0.0,
         "bound": 0.0, "ok": True}
        for m in (1, 2)
    ]


def _td_rows_reference(mdp, v, w, n, lp_cap, routes):
    """The rows of td_contraction_check as first written: both marginals
    built at every step.  Records (N, |V|, |W|) per step in ``routes``."""
    kf = float(mdp.k)
    pairs = dirac((tuple(v), tuple(w)))
    bound = d_max(v, w)
    rows = []
    for m in range(1, n + 1):
        pairs = _paired_step(mdp, pairs)
        bound *= kf
        mu = Dist.from_pairs([(pv, q) for (pv, _), q in pairs.points])
        nu = Dist.from_pairs([(pw, q) for (_, pw), q in pairs.points])
        # the exact expected distance, rounded once
        coupling_cost = float(
            sum(F(q) * F(d_max(pv, pw)) for (pv, pw), q in pairs.points)
        )
        routes.append((len(pairs.points), len(mu.points), len(nu.points)))
        if len(mu.points) * len(nu.points) <= lp_cap * lp_cap:
            measured = kantorovich(d_max, mu, nu)
            mode = "exact-lp"
        else:
            measured = coupling_cost
            mode = "coupling-upper-bound"
        rows.append({"n": m, "mode": mode, "measured": measured,
                     "coupling_cost": coupling_cost, "bound": bound,
                     "ok": measured <= bound + 1e-6})
    return rows


def _hex_rows(rows):
    return [
        {k: x.hex() if type(x) is float else x for k, x in row.items()}
        for row in rows
    ]


def test_td_contraction_rows_match_reference():
    routes = {"lp": 0, "pigeonhole": 0, "counted": 0, "merged": 0}
    for seed in range(20):
        mdp = random_mdp(seed)
        if seed % 2:
            mdp.gamma = F(4, 5)
        v, w = random_vector(seed, 3), random_vector(seed + 99, 3)
        for lp_cap in (0, 1, 2, 3, 5, 25):
            seen = []
            want = _td_rows_reference(mdp, v, w, 5, lp_cap, seen)
            got = td_contraction_check(mdp, v, w, 5, lp_cap=lp_cap).rows
            assert _hex_rows(got) == _hex_rows(want), (seed, lp_cap)
            for size, nx, ny in seen:
                cap = lp_cap * lp_cap
                routes["lp"] += nx * ny <= cap
                routes["pigeonhole"] += size > cap
                routes["counted"] += size <= cap < nx * ny
                routes["merged"] += nx < size
    # every route of the rule is taken, and the 1/16 grid merges points
    assert all(routes.values()), routes


def _paired_rows(mdp, pair_dist):
    """One paired step's rows in the order returned, as (pair, Fraction)
    through the int-mass rows; every row's distance must be d_max of its
    pair."""
    den = math.lcm(*[q.denominator for _, q in pair_dist.points])
    rows, den = _paired_masses(
        mdp,
        [(vw, q.numerator * (den // q.denominator), None)
         for vw, q in pair_dist.points],
        den,
    )
    assert [d for _, _, d in rows] == [d_max(*vw) for vw, _, _ in rows]
    return [(vw, F(m, den)) for vw, m, _ in rows]


def _paired_step(mdp, pair_dist):
    """One paired step from Dist to Dist, through the int-mass rows."""
    return Dist.from_pairs(_paired_rows(mdp, pair_dist))


def _paired_rows_reference(mdp, pair_dist):
    """The paired step as first written, one triple loop per branch: its
    (pair, mass) list before canonicalisation."""
    out = []
    alpha = float(mdp.alpha)
    gamma = float(mdp.gamma)
    for (v, w), mass in pair_dist.points:
        branches = [(((), ()), mass)]
        for i in range(mdp.n_states):
            nxt = []
            for (pv, pw), m0 in branches:
                for a, wa in mdp.policy[i].points:
                    for r, wr in mdp.reward[(i, a)].points:
                        for j, wj in mdp.transition[(a, i)].points:
                            uv = (1 - alpha) * v[i] + alpha * min(
                                float(r) + gamma * v[j], 1.0
                            )
                            uw = (1 - alpha) * w[i] + alpha * min(
                                float(r) + gamma * w[j], 1.0
                            )
                            nxt.append(
                                ((pv + (uv,), pw + (uw,)), m0 * wa * wr * wj)
                            )
            branches = nxt
        out.extend(branches)
    return out


def _paired_step_reference(mdp, pair_dist):
    return Dist.from_pairs(_paired_rows_reference(mdp, pair_dist))


def _bits(d):
    return [
        (tuple(x.hex() for x in pv), tuple(x.hex() for x in pw), q)
        for (pv, pw), q in d.points
    ]


@pytest.mark.parametrize("seed", [0, 1, 2, 5, 11])
def test_paired_step_matches_reference(seed):
    mdp = random_mdp(seed)
    mdp.gamma = F(4, 5) if seed % 2 else F(1, 2)
    mdp.alpha = (F(1, 2), F(3, 10), F(2, 3))[seed % 3]  # 1/2 scales exactly
    # a stochastic reward, so every branch level is exercised
    i, a = sorted(mdp.reward)[seed % len(mdp.reward)]
    mdp.reward[(i, a)] = Dist.from_pairs([(0.125, F(1, 3)), (0.9, F(2, 3))])
    rng = random.Random(seed)
    v = tuple(rng.random() for _ in range(3))
    w = tuple(rng.random() for _ in range(3))
    new = old = dirac((v, w))
    for _ in range(3):
        new = _paired_step(mdp, new)
        old = _paired_step_reference(mdp, old)
        assert _bits(new) == _bits(old)
        assert new.residual == old.residual == 0


def _spelled(vw):
    return tuple(tuple(x.hex() for x in side) for side in vw)


def _one_state_mdp():
    a0, a1 = "a0", "a1"
    mdp = MDP(
        n_states=1,
        actions=[a0, a1],
        transition={(a0, 0): dirac(0), (a1, 0): dirac(0)},
        reward={(0, a0): Dist.from_pairs([(0.25, F(1, 3)), (0.75, F(2, 3))]),
                (0, a1): dirac(0.5)},
        policy={0: Dist.from_pairs([(a0, F(3, 8)), (a1, F(5, 8))])},
    )
    return mdp, (0.9,), (0.1,)  # 0.75 + 0.9 / 2 clips at 1


def _clipping_mdp():
    mdp = random_mdp(4)
    mdp.gamma = F(4, 5)
    mdp.reward[(0, "a0")] = Dist.from_pairs([(0.05, F(3, 4)), (0.9, F(1, 4))])
    mdp.reward[(1, "a1")] = dirac(0.875)
    return mdp, (0.95, 0.9, 0.85), (0.2, 0.6, 1.0)  # 0.9 + 4/5 * 0.2 clips


@pytest.mark.parametrize("make", [_one_state_mdp, _clipping_mdp])
def test_paired_rows_come_in_the_reference_order(make):
    """Before Dist.from_pairs sorts them, the rows come input row first,
    then branch product: the reference's list merged by float equality
    in first-seen order, each key spelled as first seen."""
    mdp, v, w = make()
    pairs = dirac((v, w))
    for _ in range(3):
        want = {}
        for vw, q in _paired_rows_reference(mdp, pairs):
            want.setdefault(vw, [_spelled(vw), 0])[1] += q
        got = [(_spelled(vw), q) for vw, q in _paired_rows(mdp, pairs)]
        assert got == [tuple(row) for row in want.values()]
        pairs = _paired_step(mdp, pairs)
    assert len(pairs.points) > 3  # the later steps start from several rows


def _bench_shaped_mdp():
    """The bench's td input at branching 4: a coin policy at state 0 and
    a coin transition under state 1's action, with values and rewards on
    the 2^-20 grid and rewards below 1 - gamma, so no update clips and no
    two paths meet: the support has 4^m points after m steps."""
    g = 2**20
    a0, a1 = "a0", "a1"
    mdp = MDP(
        n_states=3,
        actions=[a0, a1],
        transition={
            (a0, 0): dirac(1), (a1, 0): dirac(2),
            (a0, 1): dirac(0), (a1, 1): Dist.from_pairs([(0, F(5, 8)), (2, F(3, 8))]),
            (a0, 2): dirac(1), (a1, 2): dirac(0),
        },
        reward={
            (0, a0): dirac(123457 / g), (0, a1): dirac(200001 / g),
            (1, a0): dirac(77777 / g), (1, a1): dirac(150003 / g),
            (2, a0): dirac(31111 / g), (2, a1): dirac(9999 / g),
        },
        policy={0: Dist.from_pairs([(a0, F(3, 8)), (a1, F(5, 8))]),
                1: dirac(a1), 2: dirac(a0)},
        alpha=F(1, 2),
        gamma=F(4, 5),
    )
    v = (654321 / g, 111111 / g, 987654 / g)
    w = (222222 / g, 876543 / g, 333333 / g)
    return mdp, v, w


def test_td_report_bytes_are_pinned_on_the_coupling_route():
    """No merges: the support reaches 4096 points at n = 6, and steps 3
    to 6 take the coupling route."""
    mdp, v, w = _bench_shaped_mdp()
    rep = td_contraction_check(mdp, v, w, 6, tol=1e-6)
    assert [r["mode"] for r in rep.rows] == (
        ["exact-lp"] * 2 + ["coupling-upper-bound"] * 4
    )
    blob = json.dumps(rep.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "affbcfbeb78742a674de4c04295ee58b7952fdb9ddd60a2a8f7a908b514ffaea"
    )
    with pytest.raises(ValueError, match="^support blow-up: 4096 pairs at step 6$"):
        td_contraction_check(mdp, v, w, 6, support_cap=4095)


# The TD steps as they were before int masses: a Fraction product per
# branch, canonicalised by Dist.from_pairs; kept as the parity reference.


def _fraction_branch_table(mdp, i):
    return [
        (float(r), j, wa * wr * wj)
        for a, wa in mdp.policy[i].points
        for r, wr in mdp.reward[(i, a)].points
        for j, wj in mdp.transition[(a, i)].points
    ]


def _fraction_td_step(mdp, v):
    alpha = float(mdp.alpha)
    gamma = float(mdp.gamma)
    acc = dirac(())
    for i in range(mdp.n_states):
        branch = Dist.from_pairs(
            [
                ((1 - alpha) * v[i] + alpha * min(r + gamma * v[j], 1.0), q)
                for r, j, q in _fraction_branch_table(mdp, i)
            ]
        )
        acc = Dist.from_pairs(
            [
                (vec + (x,), w1 * w2)
                for vec, w1 in acc.points
                for x, w2 in branch.points
            ]
        )
    return acc


def _fraction_paired_step(mdp, pair_dist):
    alpha = float(mdp.alpha)
    gamma = float(mdp.gamma)
    tables = [_fraction_branch_table(mdp, i) for i in range(mdp.n_states)]
    out = []
    for (v, w), mass in pair_dist.points:
        branches = [((), (), mass)]
        for i, table in enumerate(tables):
            keep_v = (1 - alpha) * v[i]
            keep_w = (1 - alpha) * w[i]
            updates = [
                (
                    keep_v + alpha * min(r + gamma * v[j], 1.0),
                    keep_w + alpha * min(r + gamma * w[j], 1.0),
                    q,
                )
                for r, j, q in table
            ]
            branches = [
                (pv + (uv,), pw + (uw,), m0 * q)
                for pv, pw, m0 in branches
                for uv, uw, q in updates
            ]
        out.extend(((pv, pw), m) for pv, pw, m in branches)
    return Dist.from_pairs(out)


def _exact_points(d):
    """Points with every float spelled exactly, so -0.0 != 0.0."""
    def spell(v):
        if type(v) is tuple:
            return tuple(spell(x) for x in v)
        return v.hex()
    return [(spell(v), q) for v, q in d.points]


def test_int_mass_steps_match_the_fraction_steps():
    """The coarse 1/16 grid of random_mdp makes paths coincide, so
    points really merge; equal points means equal values, masses and
    support order."""
    merges = 0
    for seed in range(20):
        for a, g in ((F(1, 2), F(1, 2)), (F(1, 2), F(4, 5)), (F(0), F(1, 2))):
            mdp = random_mdp(seed)
            mdp.alpha, mdp.gamma = a, g
            v, w = random_vector(seed, 3), random_vector(seed + 99, 3)
            assert _exact_points(td_step(mdp, v)) == _exact_points(
                _fraction_td_step(mdp, v)
            )
            paths = 1
            for i in range(3):
                paths *= len(_fraction_branch_table(mdp, i))
            new = old = dirac((v, w))
            for _ in range(4):
                new = _paired_step(mdp, new)
                want = _fraction_paired_step(mdp, old)
                assert _exact_points(new) == _exact_points(want), (seed, a, g)
                merges += len(want.points) < len(old.points) * paths
                old = want
    assert merges >= 100  # of 240 steps
    # signed zeros: paths through -0.0 and 0.0 merge, first-seen kept
    signed = 0
    for seed in range(10):
        mdp = random_mdp(seed)
        mdp.alpha = (F(0), F(1, 2))[seed % 2]
        for key in mdp.reward:
            mdp.reward[key] = dirac(-0.0)
        v, w = (-0.0, 0.0, -0.0), (0.0, -0.0, 0.5)
        want = _exact_points(_fraction_td_step(mdp, v))
        assert _exact_points(td_step(mdp, v)) == want
        signed += "-0x0.0p+0" in str(want)
        new = old = dirac((v, w))
        for _ in range(3):
            new, old = _paired_step(mdp, new), _fraction_paired_step(mdp, old)
            assert _exact_points(new) == _exact_points(old), seed
    assert signed >= 5


@pytest.mark.parametrize(
    "seed, gamma, digest",
    [
        (0, F(1, 2), "49b088c10558f825c8ae8a97e0175191c24fdcbbe590366ea58efd5944387324"),
        (0, F(4, 5), "047d10944bb894697285b6f8a2dc0f2686988b215e882ece0ed12b8a9254657d"),
        (1, F(1, 2), "b36bf819c6b54963700abc9fe0c8dd0dd9a647df8e6c746cedbfb818266eedbe"),
        (1, F(4, 5), "5fcdf01df0400cd026f024198d90f5d2114251ad5add1e919890d17ed074c02c"),
        (2, F(1, 2), "6da3d248ca38a2ac588b2721cd9acd6b8ccc191bb6bd35506e786b8ed91e7d4f"),
        (2, F(4, 5), "6aa01ae446ca08a4e3faf35afc8d4488f348b6d3cfde12b4d4d6946d472fbd48"),
    ],
)
def test_td_report_bytes_are_pinned(seed, gamma, digest):
    """The acceptance inputs; every reported float is rounded once from
    an exact value, so the bytes pin the values, not an order of
    summation."""
    mdp = random_mdp(seed)
    mdp.alpha, mdp.gamma = F(1, 2), gamma
    v, w = random_vector(seed * 2 + 1, 3), random_vector(seed * 2 + 2, 3)
    rep = td_contraction_check(mdp, v, w, 6, tol=1e-6)
    blob = json.dumps(rep.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


def test_td_support_cap_is_checked_on_the_merged_count():
    mdp = random_mdp(2)
    v, w = random_vector(5, 3), random_vector(6, 3)
    sizes = []
    pairs = dirac((v, w))
    for _ in range(3):
        pairs = _fraction_paired_step(mdp, pairs)
        sizes.append(len(pairs.points))
    assert sizes[0] < sizes[1] < sizes[2]
    td_contraction_check(mdp, v, w, 3, support_cap=sizes[2])
    message = f"^support blow-up: {sizes[2]} pairs at step 3$"
    with pytest.raises(ValueError, match=message):
        td_contraction_check(mdp, v, w, 3, support_cap=sizes[2] - 1)


# -- the calculus terms agree with the native implementations ----------------


def _inj_of_index(i):
    from qlog.values import UNIT, VInj

    return VInj(1, UNIT) if i == 0 else VInj(2, UNIT)


def _index_of_inj(v):
    from qlog.values import deref

    return 0 if deref(v).index == 1 else 1


def test_corpus_td_term_matches_native_step():
    """Evaluating the bundled refinement term against a concrete MDP
    gives exactly the distribution the native implementation builds."""
    from conftest import corpus
    from qlog.evaluator import EvalConfig, Evaluator
    from qlog.measures import pushforward
    from qlog.parser import parse_file
    from qlog.typecheck import Checker
    from qlog.values import Approx, VNative, deref

    with open(corpus("tdstep.qlog")) as fh:
        qfile = parse_file(fh.read())
    ck = Checker(qfile.alphabets)
    ev = Evaluator(ck, EvalConfig())
    d = qfile.defs["tdstep"]
    ck.check(qfile.ctx, d.term, d.declared_type)

    a0, a1 = "a0", "a1"
    mdp = MDP(
        n_states=2,
        actions=[a0, a1],
        transition={
            (a0, 0): Dist.from_pairs([(0, F(1, 4)), (1, F(3, 4))]),
            (a1, 0): dirac(1),
            (a0, 1): dirac(0),
            (a1, 1): Dist.from_pairs([(0, F(1, 2)), (1, F(1, 2))]),
        },
        reward={
            (0, a0): dirac(0.25),
            (0, a1): dirac(0.5),
            (1, a0): dirac(0.0),
            (1, a1): dirac(0.75),
        },
        policy={
            0: Dist.from_pairs([(a0, F(1, 2)), (a1, F(1, 2))]),
            1: dirac(a1),
        },
        alpha=F(1, 2),
        gamma=F(1, 2),
    )
    act_inj = {a0: _inj_of_index(0), a1: _inj_of_index(1)}

    def pol(arg):
        i = _index_of_inj(arg.value)
        return Approx(pushforward(lambda a: act_inj[a], mdp.policy[i]))

    def unbridge(pair):
        a_v, i_v = deref(pair.value)
        a = mdp.actions[_index_of_inj(a_v)]
        i = _index_of_inj(i_v)
        return a, i

    def rew(pair):
        a, i = unbridge(pair)
        return Approx(mdp.reward[(i, a)])

    def trans(pair):
        a, i = unbridge(pair)
        return Approx(pushforward(_inj_of_index, mdp.transition[(a, i)]))

    env = {
        "pol": Approx(VNative(pol, "policy")),
        "rew": Approx(VNative(rew, "reward")),
        "trans": Approx(VNative(trans, "transition")),
    }
    fn = ev.eval(env, d.term)
    for v in ((0.0, 1.0), (0.5, 0.25), (1.0, 1.0)):
        got = deref(ev.apply(fn, Approx(v)).value)
        want = td_step(mdp, v)
        assert len(got.points) == len(want.points)
        for (gv, gw), (wv, ww) in zip(got.points, want.points):
            assert gw == ww
            assert gv[0] == pytest.approx(wv[0], abs=1e-12)
            assert gv[1] == pytest.approx(wv[1], abs=1e-12)


def test_corpus_td_term_lipschitz_audit():
    """The refinement term respects its declared 3/4 Lipschitz factor."""
    from conftest import corpus
    from qlog.evaluator import EvalConfig, Evaluator
    from qlog.parser import parse_file, parse_type
    from qlog.typecheck import Checker
    from qlog.values import Approx, VNative

    with open(corpus("tdstep.qlog")) as fh:
        qfile = parse_file(fh.read())
    ck = Checker(qfile.alphabets)
    ev = Evaluator(ck, EvalConfig())
    d = qfile.defs["tdstep"]
    ck.check(qfile.ctx, d.term, d.declared_type)
    env = {nm: Approx(ev.canonical_seed(ty)) for nm, _, ty in qfile.ctx.bindings}
    # a non-constant reward to make the audit informative
    env["rew"] = Approx(
        VNative(
            lambda pair: Approx(Dist.from_pairs([(0.25, F(1, 2)), (0.75, F(1, 2))])),
            "reward",
        )
    )
    fn = ev.eval(env, d.term)
    vec_ty = parse_type("Prop & Prop")
    out_ty = parse_type("Dist (Prop & Prop)")
    rng = random.Random(77)
    for _ in range(20):
        v = (rng.randrange(0, 17) / 16, rng.randrange(0, 17) / 16)
        w = (rng.randrange(0, 17) / 16, rng.randrange(0, 17) / 16)
        din = ev.distance_at(vec_ty, v, w).value
        a = ev.apply(fn, Approx(v))
        b = ev.apply(fn, Approx(w))
        dout = ev.distance_at(out_ty, a.value, b.value)
        assert dout.value <= min(0.75 * din, 1.0) + 2 * (a.radius + b.radius) + 1e-9


def test_corpus_hwalk_term_matches_native_walk():
    from conftest import corpus
    from qlog.evaluator import EvalConfig, Evaluator
    from qlog.parser import parse_file
    from qlog.typecheck import Checker
    from qlog.values import Approx, deref

    with open(corpus("hwalk.qlog")) as fh:
        qfile = parse_file(fh.read())
    ck = Checker(qfile.alphabets)
    ev = Evaluator(ck, EvalConfig())
    d = qfile.defs["hwalk"]
    ck.check(qfile.ctx, d.term, d.declared_type)
    fn = ev.eval({}, d.term)

    def to_bits(v):
        x, y = deref(v)
        return (0 if deref(x).index == 1 else 1, 0 if deref(y).index == 1 else 1)

    for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
        pos_val = (_inj_of_index(bits[0]), _inj_of_index(bits[1]))
        got = deref(ev.apply(fn, Approx(pos_val)).value)
        from qlog.measures import pushforward

        assert pushforward(to_bits, got) == hwalk(2, bits)
