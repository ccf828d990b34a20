"""Process distances, the chain they read, and markov-style case studies."""

import collections
import itertools
import math
import random
from fractions import Fraction as F

import pytest

from conftest import corpus
from qlog.evaluator import EvalConfig, Evaluator
from qlog.grades import Grade
from qlog.measures import Dist, dirac, kantorovich, kantorovich_oracle
from qlog.parser import parse_file
from qlog.processes import (
    ProcessError,
    _bisimilarity_exact,
    _bisimulation_blocks,
    _chain,
    behavioral_distance,
    bisimilarity_distance,
)
from qlog.typecheck import Checker
from qlog.values import Approx, VProc, deref


def load(fname, fuel=400, tol=1e-4):
    with open(corpus(fname)) as fh:
        return load_text(fh.read(), fuel, tol)


def load_text(source, fuel=400, tol=1e-4):
    qfile = parse_file(source)
    ck = Checker(qfile.alphabets)
    ev = Evaluator(ck, EvalConfig(fuel=fuel, tol=tol))
    env = {nm: Approx(ev.canonical_seed(ty)) for nm, _, ty in qfile.ctx.bindings}
    vals = {}
    for nm, d in qfile.defs.items():
        ck.check(qfile.ctx, d.term, d.declared_type)
        vals[nm] = ev.eval(env, d.term)
    return qfile, ev, vals


# The references below read the lazy graph themselves, through these
# helpers, and share no code with the chain the routes run on.


def _lazy_read(x):
    """x's step read off the lazy graph as [(node, weight)], or the text
    of the ProcessError that a route raises when it expands x."""
    if x.step is None:
        return "process node has no step distribution"
    out = []
    for v, w in x.step.points:
        u = deref(v)
        if not isinstance(u, VProc):
            return f"not a process value: {u!r}"
        out.append((u, w))
    return "process step carries residual mass" if x.step.residual else out


def _pair_walk(a, b):
    """The node pairs reachable from (a, b) on the lazy graph, a pair of
    identical nodes not expanded; (a, b) first."""
    seen, order, stack = set(), [], [(a, b)]
    while stack:
        x, y = stack.pop()
        if (id(x), id(y)) in seen:
            continue
        seen.add((id(x), id(y)))
        order.append((x, y))
        if x is not y:
            stack.extend((u, v) for u, _ in _lazy_read(x) for v, _ in _lazy_read(y))
    return order


def test_identical_processes_distance_zero():
    _, ev, vals = load("markov.qlog")
    d = behavioral_distance(ev, vals["m"].value, vals["m"].value, Grade(1), 1e-6)
    assert d.value == 0.0 and d.radius == 0.0


def test_markov_quarter():
    _, ev, vals = load("markov.qlog")
    d = behavioral_distance(ev, vals["m"].value, vals["n"].value, Grade(1), 1e-4)
    assert d.value <= 0.25 + 1e-4
    assert d.value >= 0.25 - 1e-3  # the bound is tight for this escape process


@pytest.mark.parametrize(
    "fname,c,eps",
    [
        ("coin_half.qlog", F(1, 2), F(1, 4)),
        ("coin_nine_tenths.qlog", F(9, 10), F(1, 10)),
    ],
)
def test_biased_coin_closed_form(fname, c, eps):
    _, ev, vals = load(fname)
    d = behavioral_distance(ev, vals["hd"].value, vals["hde"].value, Grade(c), 1e-4)
    expect = float(c * eps / (1 - c + c * eps))
    assert d.value == pytest.approx(expect, abs=1e-3)


def test_distinct_labels_force_distance_one():
    _, ev, vals = load("coin_half.qlog")
    d = behavioral_distance(ev, vals["hd"].value, vals["tle"].value, Grade(F(1, 2)), 1e-4)
    assert d.value == 1.0


def test_pseudometric_properties():
    _, ev, vals = load("coin_half.qlog")
    tol = 1e-4
    nodes = [vals[n].value for n in ("hd", "tl", "hde", "tle")]
    c = Grade(F(1, 2))
    d = {}
    for i, a in enumerate(nodes):
        for j, b in enumerate(nodes):
            d[(i, j)] = behavioral_distance(ev, a, b, c, tol).value
    for i, j in itertools.product(range(4), repeat=2):
        assert d[(i, j)] == pytest.approx(d[(j, i)], abs=3 * tol)
        for k in range(4):
            assert d[(i, j)] <= d[(i, k)] + d[(k, j)] + 3 * tol


def test_congruence_fold_isometry():
    """d(<a, mu>, <a, nu>) = min(c * K(mu, nu), 1)."""
    _, ev, vals = load("coin_half.qlog")
    hd = deref(vals["hd"].value)
    tl = deref(vals["tl"].value)
    c = F(1, 2)
    mu = Dist.from_pairs([(hd, F(1, 2)), (tl, F(1, 2))])
    nu = Dist.from_pairs([(hd, F(1, 8)), (tl, F(7, 8))])
    a = VProc("Hd", mu)
    b = VProc("Hd", nu)
    tol = 1e-6
    got = behavioral_distance(ev, a, b, Grade(c), tol)
    ground = lambda u, v: behavioral_distance(
        ev, u, v, Grade(c), tol
    ).value
    want = min(float(c) * kantorovich(ground, mu, nu), 1.0)
    assert got.value == pytest.approx(want, abs=1e-4)


def test_monotone_convergence_of_iterates():
    """Value iteration increases and its steps shrink with the factor."""
    from qlog.transport import solve_transport

    _, ev, vals = load("coin_half.qlog")
    a = deref(vals["hd"].value)
    b = deref(vals["hde"].value)
    cf = 0.5
    # replicate the iteration over the reachable pairs by hand
    pairs = _pair_walk(a, b)
    D = {(id(x), id(y)): 0.0 for x, y in pairs}
    prev_delta = None
    for _ in range(12):
        fresh = {}
        for x, y in pairs:
            if id(x) == id(y):
                fresh[(id(x), id(y))] = 0.0
                continue
            sx, sy = _lazy_read(x), _lazy_read(y)
            costs = [
                [F(D[(id(u), id(v))]) for v, _ in sy] for u, _ in sx
            ]
            opt, _ = solve_transport(
                [w for _, w in sx], [w for _, w in sy], costs
            )
            lab = 0.0 if x.label == y.label else 1.0
            fresh[(id(x), id(y))] = min(lab + cf * float(opt), 1.0)
        delta = max(abs(fresh[k] - D[k]) for k in D)
        assert all(fresh[k] >= D[k] - 1e-12 for k in D)  # nondecreasing
        if prev_delta is not None:
            assert delta <= cf * prev_delta + 1e-12
        prev_delta = delta
        D = fresh


def test_bisimilarity_requires_contraction():
    _, ev, vals = load("markov.qlog")
    with pytest.raises(ProcessError):
        bisimilarity_distance(ev, vals["m"].value, vals["n"].value, Grade(1), 1e-4)


def test_bisimilarity_agrees_with_behavioral():
    tol = 1e-4
    for fname, c in (
        ("coin_half.qlog", F(1, 2)),
        ("coin_nine_tenths.qlog", F(9, 10)),
    ):
        _, ev, vals = load(fname)
        names = ["hd", "tl", "hde", "tle"]
        for i, x in enumerate(names):
            for y in names[i:]:
                bd = behavioral_distance(ev, vals[x].value, vals[y].value, Grade(c), tol)
                bs = bisimilarity_distance(ev, vals[x].value, vals[y].value, Grade(c), tol)
                assert abs(bd.value - bs.value) <= 2 * tol


# Exact bisimilarity distances of corpus pairs, as (file, left, right,
# discount, distance); the coins are c*eps/(1 - c + c*eps).
BISIMILARITY_EXACT = [
    ("coin_half.qlog", "hd", "hde", F(1, 2), F(1, 5)),
    ("coin_half.qlog", "hd", "hde", F(9, 10), F(9, 13)),
    ("coin_nine_tenths.qlog", "hd", "hde", F(9, 10), F(9, 19)),
    ("coin_nine_tenths.qlog", "tl", "tle", F(9, 10), F(9, 19)),
    ("coin_nine_tenths.qlog", "hd", "tle", F(9, 10), F(1)),
    ("coin_half.qlog", "tl", "hde", F(1, 2), F(1)),
    ("coin_half.qlog", "hd", "hd", F(1, 2), F(0)),
    ("markov.qlog", "m", "n", F(1, 2), F(1, 10)),
    ("markov.qlog", "m", "n", F(9, 10), F(3, 14)),
]


def _bisimilarity_row(fname, left, right, c, exact):
    """A PINNED row from the exact distance: the nearest float, and a
    radius of 0 if that float is exact, else one ulp of it."""
    value = float(exact)
    radius = 0.0 if F(value) == exact else math.ulp(value)
    return (fname, left, right, bisimilarity_distance, c, value.hex(), radius.hex())


@pytest.mark.parametrize("fname,left,right,c,exact", BISIMILARITY_EXACT)
def test_bisimilarity_exact_pinned(fname, left, right, c, exact):
    _, ev, vals = load(fname)
    assert _bisimilarity_exact(vals[left].value, vals[right].value, Grade(c)) == exact


# Both routes on the corpus pairs, as float.hex of (value, radius).  The
# behavioral figures are those of the Fraction simplex and the per-round
# step rebuild that the integer simplex and the hoisted step data
# replaced; the bisimilarity rows derive from BISIMILARITY_EXACT.
PINNED = [
    ("coin_half.qlog", "hd", "hde", behavioral_distance, F(1, 2),
     "0x1.998a390000013p-3", "0x1.338c00000cccap-14"),
    _bisimilarity_row(*BISIMILARITY_EXACT[0]),
    _bisimilarity_row(*BISIMILARITY_EXACT[1]),
    ("markov.qlog", "m", "n", behavioral_distance, F(1),
     "0x1.ffec05c654ac8p-3", "0x1.3fa39ab55f98ep-14"),
    _bisimilarity_row(*BISIMILARITY_EXACT[7]),
    _bisimilarity_row(*BISIMILARITY_EXACT[8]),
]


@pytest.mark.parametrize("fname,left,right,route,c,value,radius", PINNED)
def test_process_distances_pinned(fname, left, right, route, c, value, radius):
    _, ev, vals = load(fname)
    d = route(ev, vals[left].value, vals[right].value, Grade(c), 1e-4)
    assert (d.value.hex(), d.radius.hex()) == (value, radius)


@pytest.mark.parametrize("route", [behavioral_distance, bisimilarity_distance])
@pytest.mark.parametrize("c", [F(1, 2), F(9, 10)])
def test_radius_at_tol_zero_bounds_the_error(route, c):
    # iterating until the radius underflowed once reported radius 0.0
    # for the float value 0.19999999999999998 of the exact 1/5
    _, ev, vals = load("coin_half.qlog")
    d = route(ev, vals["hd"].value, vals["hde"].value, Grade(c), 0.0)
    eps = F(1, 4)
    assert d.radius > 0
    assert abs(F(d.value) - c * eps / (1 - c + c * eps)) <= F(d.radius)


@pytest.mark.parametrize("route", [behavioral_distance, bisimilarity_distance])
def test_residual_step_mass_rejected(route):
    _, ev, vals = load("coin_half.qlog")
    hd = deref(vals["hd"].value)
    leaky = VProc("Hd", Dist.from_pairs([(hd, F(1, 2))], residual_div=F(1, 2)))
    with pytest.raises(ProcessError, match="residual mass"):
        route(ev, leaky, hd, Grade(F(1, 2)), 1e-4)


def random_chain(rng, k, b):
    """k labelled process nodes, each stepping to b of them (repeats
    allowed) with random weights; a finite cyclic process graph."""
    nodes = [VProc(rng.choice("AB")) for _ in range(k)]
    for node in nodes:
        pairs = [(rng.choice(nodes), F(rng.randrange(1, 8))) for _ in range(b)]
        total = sum(w for _, w in pairs)
        node.step = Dist.from_pairs([(v, w / total) for v, w in pairs])
    return nodes


def _corpus_pairs():
    for fname, c in (
        ("coin_half.qlog", F(1, 2)),
        ("coin_half.qlog", F(9, 10)),
        ("coin_nine_tenths.qlog", F(9, 10)),
    ):
        _, _, vals = load(fname)
        names = ["hd", "tl", "hde", "tle"]
        for i, x in enumerate(names):
            for y in names[i:]:
                yield vals[x].value, vals[y].value, c
    _, _, vals = load("markov.qlog")
    for c in (F(1, 2), F(9, 10)):
        yield vals["m"].value, vals["n"].value, c


def _chain_pairs():
    rng = random.Random(8)
    for c in (F(1, 2), F(9, 10)):
        for k in (2, 3, 4):
            for _ in range(4):
                nodes = random_chain(rng, k, rng.randrange(1, 4))
                yield nodes[0], rng.choice(nodes), c


@pytest.mark.parametrize("tol", [1e-4, 0.0])
def test_behavioral_radius_bounds_the_exact_error(tol):
    # Two-sided: the float iterates may overshoot the exact value by
    # about 1e-15, inside the radius floor at a numeric fixed point.
    for p, q, c in itertools.chain(_corpus_pairs(), _chain_pairs()):
        exact = _bisimilarity_exact(p, q, Grade(c))
        beh = behavioral_distance(None, p, q, Grade(c), tol)
        assert abs(exact - F(beh.value)) <= F(beh.radius)


def test_exact_distance_is_a_fixed_point_property():
    """At every reachable pair, D = min(d_label + c * K(D), 1) with K the
    brute-force vertex enumeration, not the simplex that the policy
    iteration uses; the fixed point is unique for c < 1."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=3),
        st.sampled_from([F(1, 2), F(9, 10), F(1, 3)]),
        st.randoms(use_true_random=False),
    )
    def check(k, b, c, rng):
        nodes = random_chain(rng, k, b)
        pairs = _pair_walk(rng.choice(nodes), rng.choice(nodes))
        D = {(id(x), id(y)): _bisimilarity_exact(x, y, Grade(c)) for x, y in pairs}

        def cost(u, v):
            return D[(id(deref(u)), id(deref(v)))]

        for x, y in pairs:
            if x is y:  # not expanded: its successor pairs are not in D
                assert D[(id(x), id(y))] == 0
                continue
            label = 0 if x.label == y.label else 1
            step = kantorovich_oracle(cost, x.step, y.step)
            assert D[(id(x), id(y))] == min(label + c * step, 1)

    check()


def _fraction_costs_behavioral(p, q, c, tol, max_rounds=100000):
    """behavioral_distance as it was before costs went on one int scale
    per round: Fraction costs through solve_transport, one LP per
    distinct pair per round, label mismatches included.  A pair is at
    distance 0, and not expanded, when its nodes are identical or their
    exact distance at discount 1/2 is 0 (the kernel of the distance does
    not depend on the discount, so this decides bisimilarity at c = 1
    too); the pairs come from this function's own search."""
    from qlog.processes import _PERT
    from qlog.transport import solve_transport

    a, b = deref(p), deref(q)
    cf = float(c)
    zero = {}
    pairs = []
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if (id(x), id(y)) in zero:
            continue
        zero[(id(x), id(y))] = x is y or _bisimilarity_exact(x, y, Grade(F(1, 2))) == 0
        pairs.append((x, y))
        if not zero[(id(x), id(y))]:
            stack.extend((u, v) for u, _ in _lazy_read(x) for v, _ in _lazy_read(y))
    D = {(id(x), id(y)): 0.0 for x, y in pairs}
    radius = 1.0
    if all(zero.values()):
        return Approx(0.0, 0.0)
    steps = []
    for x, y in pairs:
        if not zero[(id(x), id(y))]:
            sx, sy = _lazy_read(x), _lazy_read(y)
            steps.append((
                (id(x), id(y)),
                0.0 if x.label == y.label else 1.0,
                [w for _, w in sx],
                [w for _, w in sy],
                [[(id(u), id(v)) for v, _ in sy] for u, _ in sx],
            ))
    rounds = 0
    slack = 0.0
    while radius > tol:
        rounds += 1
        assert rounds <= max_rounds
        fresh = {key: 0.0 for key in D}
        factor = 0.0
        any_active = False
        for key, label, supplies, demands, succ in steps:
            if D[key] >= 1.0:
                fresh[key] = 1.0
                continue
            live = [[not zero[k] and D[k] < 1.0 for k in row] for row in succ]
            costs = [
                [F(D[k]) + _PERT if on else D[k] for k, on in zip(row, live_row)]
                for row, live_row in zip(succ, live)
            ]
            opt, flow = solve_transport(supplies, demands, costs)
            value = min(label + cf * float(opt), 1.0)
            fresh[key] = value
            if value >= 1.0:
                continue
            any_active = True
            q_mass = 0.0
            for (i, j), wgt in flow.items():
                if live[i][j]:
                    q_mass += float(wgt)
            factor = max(factor, cf * min(q_mass, 1.0))
        converged_exactly = fresh == D
        D = fresh
        if not any_active:
            radius = 0.0
            break
        if converged_exactly:
            radius = min(radius, 1e-12 + slack)
            break
        radius = radius * factor + cf * float(_PERT)
        slack += cf * float(_PERT)
    return Approx(D[(id(a), id(b))], min(radius, 1.0))


def _parity_cases():
    for p, q, c in _corpus_pairs():
        yield p, q, c, 1e-4
    rng = random.Random(24)
    for _ in range(24):
        nodes = random_chain(rng, rng.randrange(1, 5), rng.randrange(1, 4))
        p, q = nodes[0], rng.choice(nodes)
        for c, tol in itertools.product((F(1, 2), F(9, 10)), (1e-4, 0.0)):
            yield p, q, c, tol
    _, _, vals = load("markov.qlog")
    for tol in (1e-4, 0.0):
        yield vals["m"].value, vals["n"].value, F(1), tol


def test_behavioral_distance_matches_the_fraction_cost_iteration():
    # One int scale per round, masses scaled once per pair and no LP for
    # label mismatches change no pivot: value and radius are bit-identical.
    for p, q, c, tol in _parity_cases():
        got = behavioral_distance(None, p, q, Grade(c), tol)
        want = _fraction_costs_behavioral(p, q, c, tol)
        assert (got.value.hex(), got.radius.hex()) == (want.value.hex(), want.radius.hex())


def test_label_mismatch_solves_no_lp(monkeypatch):
    import qlog.processes as processes

    calls = []

    def counting(a, b, c):
        calls.append(len(a) * len(b))
        return real(a, b, c)

    real = processes.simplex
    monkeypatch.setattr(processes, "simplex", counting)
    a, b = VProc("A"), VProc("B")
    a.step, b.step = dirac(a), dirac(b)
    assert behavioral_distance(None, a, b, Grade(F(1, 2)), 0.0) == Approx(1.0, 0.0)
    assert calls == []
    # the counter does see LPs: an equal-label pair stepping to (a, b)
    u, v = VProc("A", dirac(a)), VProc("A", dirac(b))
    assert behavioral_distance(None, u, v, Grade(F(1, 2)), 0.0).value == 0.5
    assert calls


@pytest.mark.parametrize(
    "tol, max_rounds, message",
    [
        (math.nan, 100, "tol must be a non-negative number, got nan"),
        (-1e-4, 100, "tol must be a non-negative number, got -0.0001"),
        (1e-4, 0, "max_rounds must be a positive integer, got 0"),
        (1e-4, -1, "max_rounds must be a positive integer, got -1"),
        (1e-4, 2.5, "max_rounds must be a positive integer, got 2.5"),
    ],
)
def test_behavioral_distance_rejects_nonsense_parameters(
    monkeypatch, tol, max_rounds, message
):
    import qlog.processes as processes

    def no_lp(a, b, c):
        raise AssertionError("an LP ran before the parameters were checked")

    monkeypatch.setattr(processes, "simplex", no_lp)
    _, ev, vals = load("coin_half.qlog")
    with pytest.raises(ProcessError) as e:
        behavioral_distance(
            ev, vals["hd"].value, vals["hde"].value, Grade(F(1, 2)), tol, max_rounds
        )
    assert str(e.value) == message


def test_behavioral_distance_at_tol_zero_terminates():
    # max_rounds 10000 is far more than the numeric fixed point needs, so
    # a run out of rounds would be a failure to stop, not a slow pass
    _, ev, vals = load("coin_half.qlog")
    for c in (F(1, 2), F(9, 10)):
        d = behavioral_distance(
            ev, vals["hd"].value, vals["hde"].value, Grade(c), 0.0, 10000
        )
        assert 0 < d.radius < 1e-9


def test_exhausted_round_budget_keeps_its_message():
    _, ev, vals = load("markov.qlog")
    with pytest.raises(ProcessError, match="did not converge"):
        behavioral_distance(ev, vals["m"].value, vals["n"].value, Grade(1), 0.0, 3)


def _set_partitions(items):
    """Every partition of ``items`` into non-empty blocks, as lists."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[head]] + part
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]


def _reachable_nodes(roots):
    seen, stack = {}, list(roots)
    while stack:
        x = stack.pop()
        if id(x) not in seen:
            seen[id(x)] = x
            stack.extend(deref(v) for v, _ in x.step.points)
    return list(seen.values())


def _is_bisimulation(part):
    """One label per block, and per block equal step masses into every
    block."""
    block_of = {id(x): i for i, blk in enumerate(part) for x in blk}

    def masses(x):
        out = {}
        for v, w in x.step.points:
            k = block_of[id(deref(v))]
            out[k] = out.get(k, 0) + w
        return out

    return all(
        x.label == blk[0].label and masses(x) == masses(blk[0])
        for blk in part
        for x in blk
    )


def _chain_nodes(a, b, chain):
    """The node at each index of ``chain``, found by walking the lazy
    graph from a and b beside the chain's successor lists.  On the way it
    checks that each index stands for one node, with that node's label,
    its weights as Fraction(w, den) and its rejection, and that the chain
    holds no node the walk does not reach."""
    labels, succ, den = chain
    node_of, todo = {0: a, 1: b}, [0, 1]
    while todo:
        i = todo.pop()
        x = node_of[i]
        want = _lazy_read(x)
        assert labels[i] == x.label
        if isinstance(want, str):
            assert succ[i] == want
            continue
        assert [F(w, den) for _, w in succ[i]] == [w for _, w in want]
        for (j, _), (u, _) in zip(succ[i], want):
            if j not in node_of:
                node_of[j] = u
                todo.append(j)
            assert node_of[j] is u
    assert len(succ) == len(labels) == len(node_of)
    nodes = [node_of[i] for i in range(len(labels))]
    assert len({id(x) for x in nodes}) == len(nodes)
    return nodes


def test_bisimulation_blocks_are_the_coarsest_bisimulation():
    # Brute force: of all set partitions of the reachable nodes (Bell(6)
    # = 203 for six), the bisimulations, and of those the coarsest.
    rng = random.Random(30)
    checked = 0
    while checked < 150:
        nodes = random_chain(rng, rng.randrange(2, 7), rng.randrange(1, 4))
        a, b = nodes[0], rng.choice(nodes)
        reach = _reachable_nodes([a, b])
        if len(reach) > 6 or a is b:  # a chain has two distinct roots
            continue
        checked += 1
        chain = _chain(a, b)
        nodes = _chain_nodes(a, b, chain)
        assert sorted(id(x) for x in nodes) == sorted(id(x) for x in reach)
        block = _bisimulation_blocks(*chain[:2])
        coarsest = min(
            (p for p in _set_partitions(reach) if _is_bisimulation(p)), key=len
        )
        want = {frozenset(id(x) for x in blk) for blk in coarsest}
        got = {}
        for x, k in zip(nodes, block):
            got.setdefault(k, set()).add(id(x))
        assert {frozenset(ids) for ids in got.values()} == want


def _rejecting_pairs():
    """Root pairs whose chain holds a rejected node of each kind."""
    _, _, vals = load("coin_half.qlog")
    hd = deref(vals["hd"].value)
    for bad in (
        _leaky_root(hd),
        VProc("Hd"),
        VProc("Hd", dirac(0)),
        VProc("Hd", Dist.from_pairs([(hd, F(1, 4)), (0, F(1, 4))], residual_div=F(1, 2))),
    ):
        yield VProc("Hd", Dist.from_pairs([(bad, F(1, 3)), (hd, F(2, 3))])), hd
        yield bad, VProc("Tl", dirac(bad))


def test_chain_is_the_lazy_graph():
    pairs = [(deref(p), deref(q)) for p, q, _ in itertools.chain(
        _corpus_pairs(), _chain_pairs())]
    pairs += list(_rejecting_pairs())
    for a, b in pairs:
        if a is not b:
            _chain_nodes(a, b, _chain(a, b))


@pytest.mark.parametrize("route", [behavioral_distance, bisimilarity_distance])
def test_each_step_is_read_once_per_call(monkeypatch, route):
    # every successor is forced through deref: the roots once each, then
    # each point of each reachable node's step once, or none when the
    # route answers from the roots alone
    import qlog.processes as processes

    calls = []

    def counting(v):
        calls.append(id(v))
        return deref(v)

    monkeypatch.setattr(processes, "deref", counting)
    for p, q, c in itertools.chain(_corpus_pairs(), _chain_pairs()):
        a, b = deref(p), deref(q)
        calls.clear()
        route(None, p, q, Grade(c), 1e-4)
        want = [id(p), id(q)]
        if a is not b and (route is behavioral_distance or a.label == b.label):
            want += [id(v) for x in _reachable_nodes([a, b]) for v, _ in x.step.points]
        assert collections.Counter(calls) == collections.Counter(want)


def test_a_copy_of_the_same_fixed_point_solves_no_lp(monkeypatch):
    # every def evaluates its own fixed point, so s0 and t0 share no node
    import qlog.processes as processes

    _, _, vals = load_text(
        "alphabet L = { A, B }\n"
        "def chain : Proc[1/2] L & Proc[1/2] L = fix x : Proc[1/2] L & Proc[1/2] L.\n"
        "  < proc(A, delta(fst x) (+ 1/3) delta(snd x)),\n"
        "    proc(B, delta(fst x) (+ 3/4) delta(snd x)) >\n"
        "def s0 : Proc[1/2] L = fst chain\n"
        "def t0 : Proc[1/2] L = fst chain\n"
    )
    s0, t0 = deref(vals["s0"].value), deref(vals["t0"].value)
    assert not {id(x) for x in _reachable_nodes([s0])} & {
        id(x) for x in _reachable_nodes([t0])
    }

    def no_lp(a, b, c):
        raise AssertionError("an LP ran on a bisimilar pair")

    monkeypatch.setattr(processes, "simplex", no_lp)
    for c in (F(1, 2), F(1)):
        assert behavioral_distance(None, s0, t0, Grade(c), 1e-4) == Approx(0.0, 0.0)


def test_bisimilar_pairs_cut_the_lp_count(monkeypatch):
    # A pair of the benchmark's shape: two states of one 4-state chain
    # with 3 successors each and c = 1/2, each from its own def.
    import qlog.processes as processes

    x0, x1, x2, x3 = "fst x", "fst (snd x)", "fst (snd (snd x))", "snd (snd (snd x))"
    states = [
        f"proc(A, delta({x0}) (+ 1/4) (delta({x1}) (+ 2/3) delta({x3})))",
        f"proc(B, delta({x2}) (+ 1/2) (delta({x0}) (+ 1/5) delta({x3})))",
        f"proc(A, delta({x3}) (+ 3/7) (delta({x1}) (+ 1/2) delta({x0})))",
        f"proc(B, delta({x0}) (+ 5/6) (delta({x1}) (+ 1/3) delta({x2})))",
    ]
    ty = "Proc[1/2] L & (Proc[1/2] L & (Proc[1/2] L & Proc[1/2] L))"
    _, _, vals = load_text(
        f"alphabet L = {{ A, B }}\n"
        f"def chain : {ty} = fix x : {ty}.\n"
        f"  < {states[0]}, < {states[1]}, < {states[2]}, {states[3]} > > >\n"
        "def s0 : Proc[1/2] L = fst chain\n"
        "def s2 : Proc[1/2] L = fst (snd (snd chain))\n"
    )
    calls = []

    def counting(a, b, c):
        calls.append(None)
        return real(a, b, c)

    real = processes.simplex
    monkeypatch.setattr(processes, "simplex", counting)
    p, q, c = vals["s0"].value, vals["s2"].value, Grade(F(1, 2))
    got = behavioral_distance(None, p, q, c, 1e-4)
    lps = len(calls)
    # every node a block of its own: the rule before partition refinement
    monkeypatch.setattr(processes, "_bisimulation_blocks",
                        lambda labels, succ: list(range(len(labels))))
    before = behavioral_distance(None, p, q, c, 1e-4)
    assert 0 < lps < len(calls) - lps
    exact = _bisimilarity_exact(p, q, c)
    assert abs(exact - F(got.value)) <= F(got.radius)
    assert abs(got.value - before.value) <= got.radius + before.radius


def _leaky_root(hd):
    return VProc("Hd", Dist.from_pairs([(hd, F(1, 2))], residual_div=F(1, 2)))


@pytest.mark.parametrize("route", [behavioral_distance, bisimilarity_distance])
@pytest.mark.parametrize(
    "make_bad, message",
    [
        (_leaky_root, "residual mass"),
        (lambda hd: VProc("Hd"), "no step distribution"),
        (lambda hd: VProc("Hd", dirac(0)), "not a process value"),
        # a non-process successor is reported before residual mass
        (lambda hd: VProc("Hd", Dist.from_pairs([(0, F(1, 2))], residual_div=F(1, 2))),
         "not a process value"),
    ],
)
def test_a_rejected_node_raises_where_it_did_before(route, make_bad, message):
    _, _, vals = load("coin_half.qlog")
    hd = deref(vals["hd"].value)
    bad = make_bad(hd)
    c = Grade(F(1, 2))
    # reached only through the identical pair (bad, bad): never expanded
    x, y = VProc("Hd", dirac(bad)), VProc("Hd", dirac(bad))
    assert route(None, x, y, c, 1e-4).value == 0.0
    # x and y step alike into the same nodes, but the pair (bad, hd) of
    # their successors is distinct, and enumerating it raises
    step = Dist.from_pairs([(bad, F(1, 2)), (hd, F(1, 2))])
    x, y = VProc("Hd", step), VProc("Hd", step)
    with pytest.raises(ProcessError, match=message):
        route(None, x, y, c, 1e-4)
