"""The transportation simplex: exact optimum, pivot-for-pivot equality
with the Fraction simplex it replaced, and unchanged errors."""

import itertools
import random
from fractions import Fraction
from math import lcm
from typing import Dict, List, Sequence, Tuple

import pytest

from qlog.measures import Dist
from qlog.transport import (
    Flow,
    TransportError,
    _validate,
    brute_force_transport,
    simplex,
    solve_transport,
)


def _fraction_simplex(
    supplies: Sequence[Fraction],
    demands: Sequence[Fraction],
    costs: Sequence[Sequence[Fraction]],
) -> Tuple[Fraction, Flow]:
    """The simplex as it was before the integer scaling, in Fraction
    arithmetic throughout; every result must equal it."""
    supplies = [Fraction(a) for a in supplies]
    demands = [Fraction(b) for b in demands]
    costs = [[Fraction(c) for c in row] for row in costs]
    _validate(supplies, demands, costs)

    # Drop zero rows/columns; they carry no mass.
    rows = [i for i, a in enumerate(supplies) if a > 0]
    cols = [j for j, b in enumerate(demands) if b > 0]
    if not rows:
        return Fraction(0), {}
    a = [supplies[i] for i in rows]
    b = [demands[j] for j in cols]
    c = [[costs[i][j] for j in cols] for i in rows]
    m, n = len(a), len(b)

    # Northwest-corner initial basis (m + n - 1 cells, zeros kept for
    # degeneracy).
    x: Flow = {}
    basis: List[Tuple[int, int]] = []
    i = j = 0
    rem_a = a[:]
    rem_b = b[:]
    while i < m and j < n:
        q = min(rem_a[i], rem_b[j])
        x[(i, j)] = q
        basis.append((i, j))
        rem_a[i] -= q
        rem_b[j] -= q
        if i == m - 1 and j == n - 1:
            break
        if rem_a[i] == 0 and i < m - 1:
            i += 1
        else:
            j += 1

    def duals() -> Tuple[List[Fraction], List[Fraction]]:
        u: List = [None] * m
        v: List = [None] * n
        u[0] = Fraction(0)
        by_row: Dict[int, List[int]] = {}
        by_col: Dict[int, List[int]] = {}
        for (bi, bj) in basis:
            by_row.setdefault(bi, []).append(bj)
            by_col.setdefault(bj, []).append(bi)
        stack = [("r", 0)]
        while stack:
            kind, k = stack.pop()
            if kind == "r":
                for bj in by_row.get(k, []):
                    if v[bj] is None:
                        v[bj] = c[k][bj] - u[k]
                        stack.append(("c", bj))
            else:
                for bi in by_col.get(k, []):
                    if u[bi] is None:
                        u[bi] = c[bi][k] - v[k]
                        stack.append(("r", bi))
        if any(ui is None for ui in u) or any(vj is None for vj in v):
            raise TransportError("disconnected basis (internal error)")
        return u, v

    def cycle_from(cell: Tuple[int, int]) -> List[Tuple[int, int]]:
        # Unique alternating cycle in basis + {cell}: path in the basis
        # tree from row node cell[0] to column node cell[1].
        adj: Dict[object, List[Tuple[object, Tuple[int, int]]]] = {}
        for (bi, bj) in basis:
            adj.setdefault(("r", bi), []).append((("c", bj), (bi, bj)))
            adj.setdefault(("c", bj), []).append((("r", bi), (bi, bj)))
        start, goal = ("r", cell[0]), ("c", cell[1])
        prev: Dict[object, Tuple[object, Tuple[int, int]]] = {start: (None, None)}
        stack = [start]
        while stack:
            node = stack.pop()
            if node == goal:
                break
            for nxt, edge in adj.get(node, []):
                if nxt not in prev:
                    prev[nxt] = (node, edge)
                    stack.append(nxt)
        path_cells = []
        node = goal
        while node != start:
            node, edge = prev[node]
            path_cells.append(edge)
        path_cells.reverse()
        return [cell] + path_cells

    guard = 0
    degenerate_streak = 0
    bland = False  # switch to Bland's rule if degeneracy threatens cycling
    while True:
        guard += 1
        if guard > 200000:
            raise TransportError("pivot limit exceeded (internal error)")
        u, v = duals()
        entering = None
        best = Fraction(0)
        for bi in range(m):
            ui = u[bi]
            row = c[bi]
            for bj in range(n):
                if (bi, bj) in x:
                    continue
                rc = row[bj] - ui - v[bj]
                if rc < 0:
                    if bland:
                        entering = (bi, bj)
                        break
                    if rc < best:
                        best = rc
                        entering = (bi, bj)
            if bland and entering:
                break
        if entering is None:
            break
        cyc = cycle_from(entering)
        minus = cyc[1::2]
        theta = min(x[cell] for cell in minus)
        if theta == 0:
            degenerate_streak += 1
            if degenerate_streak > 2 * (m + n):
                bland = True
        else:
            degenerate_streak = 0
        leaving = min(cell for cell in minus if x[cell] == theta)
        x[entering] = Fraction(0)
        basis.append(entering)
        for k, cell in enumerate(cyc):
            x[cell] = x[cell] + theta if k % 2 == 0 else x[cell] - theta
        del x[leaving]
        basis.remove(leaving)

    cost = sum((x[cell] * c[cell[0]][cell[1]] for cell in x), Fraction(0))
    flow: Flow = {}
    for (bi, bj), q in x.items():
        if q > 0:
            flow[(rows[bi], cols[bj])] = q
    return cost, flow


MIXED_FLOATS = [1e-300, 0.5, 0.5 + 2**-50, 2**-50, 0.1, 1.0, 0.0, 1 / 3]


def _masses(rng, k, zeros):
    w = [rng.choice([0, 0, 1, 2, 3]) if zeros else rng.randint(1, 9) for _ in range(k)]
    if not any(w):
        w[rng.randrange(k)] = 1
    return [Fraction(x, sum(w)) for x in w]


def _costs(rng, m, n, kind):
    if kind == "ties":
        return [[rng.randint(0, 2) for _ in range(n)] for _ in range(m)]
    if kind == "negative":
        return [
            [Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n)]
            for _ in range(m)
        ]
    if kind == "mixed-floats":
        return [[rng.choice(MIXED_FLOATS) for _ in range(n)] for _ in range(m)]
    return [[rng.random() for _ in range(n)] for _ in range(m)]


def _same(got, want):
    assert type(got[0]) is Fraction and got[0] == want[0]
    # equal as dicts, and in the same order: callers sum over the flow
    assert list(got[1].items()) == list(want[1].items())
    assert all(type(q) is Fraction for q in got[1].values())


@pytest.mark.parametrize("kind", ["ties", "negative", "mixed-floats", "random"])
@pytest.mark.parametrize("zeros", [False, True])
def test_matches_fraction_simplex(kind, zeros):
    rng = random.Random(f"{kind}/{zeros}")
    for _ in range(150):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a, b = _masses(rng, m, zeros), _masses(rng, n, zeros)
        c = _costs(rng, m, n, kind)
        _same(solve_transport(a, b, c), _fraction_simplex(a, b, c))


def test_degenerate_assignments_match():
    # equal masses make the northwest corner (and most pivots) degenerate
    rng = random.Random(7)
    for n in range(2, 7):
        a = [Fraction(1, n)] * n
        for _ in range(20):
            c = [[rng.choice([0, 1, 0.5, 0.25]) for _ in range(n)] for _ in range(n)]
            _same(solve_transport(a, a, c), _fraction_simplex(a, a, c))


def test_zero_rows_and_columns_get_no_flow():
    a = [Fraction(0), Fraction(1, 2), Fraction(0), Fraction(1, 2)]
    b = [Fraction(1, 3), Fraction(0), Fraction(2, 3)]
    c = [[1, 2, 3], [0.5, 9, 0.25], [4, 5, 6], [1e-300, 7, 1]]
    opt, flow = solve_transport(a, b, c)
    _same((opt, flow), _fraction_simplex(a, b, c))
    assert all(i in (1, 3) and j in (0, 2) for i, j in flow)
    assert solve_transport([0, 0], [0], [[1], [2]]) == (Fraction(0), {})


def test_mixed_exponent_costs_are_exact():
    a = [Fraction(1, 3), Fraction(2, 3)]
    b = [Fraction(1, 2), Fraction(1, 2)]
    c = [[1e-300, 0.5], [0.5 + 2**-50, 1e-300]]
    opt, flow = solve_transport(a, b, c)
    want = brute_force_transport(a, b, c)
    assert opt == want[0]
    assert opt == Fraction(1, 3) * Fraction(1e-300) + Fraction(1, 6) * Fraction(
        0.5 + 2**-50
    ) + Fraction(1, 2) * Fraction(1e-300)
    _same((opt, flow), _fraction_simplex(a, b, c))


def test_flow_is_a_coupling():
    rng = random.Random(11)
    for _ in range(50):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a, b = _masses(rng, m, True), _masses(rng, n, True)
        _, flow = solve_transport(a, b, _costs(rng, m, n, "random"))
        assert [sum(q for (i, _), q in flow.items() if i == r) for r in range(m)] == a
        assert [sum(q for (_, j), q in flow.items() if j == s) for s in range(n)] == b
        assert len(flow) <= m + n - 1


def test_optimum_equals_vertex_enumeration_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    weights = st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=3)
    cost = st.one_of(
        st.fractions(min_value=-2, max_value=2, max_denominator=12),
        st.sampled_from(MIXED_FLOATS),
    )

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(weights, weights, st.data())
    def check(wa, wb, data):
        hypothesis.assume(sum(wa) > 0 and sum(wb) > 0)
        a = [Fraction(w, sum(wa)) for w in wa]
        b = [Fraction(w, sum(wb)) for w in wb]
        c = [[data.draw(cost) for _ in b] for _ in a]
        assert solve_transport(a, b, c)[0] == brute_force_transport(a, b, c)[0]

    check()


@pytest.mark.parametrize(
    "a, b, c, message",
    [
        ([], [1], [], "empty transportation instance"),
        ([1], [], [[]], "empty transportation instance"),
        ([Fraction(-1, 2), Fraction(3, 2)], [1], [[0], [0]], "negative supply or demand"),
        ([1], [Fraction(1, 2), Fraction(1, 2), 0], [[0, 0, 0]], None),
        ([1], [Fraction(3, 2)], [[0]], "unbalanced instance: supply 1 != demand 3/2"),
        ([0.25, 0.5], [1], [[0], [0]], "unbalanced instance: supply 3/4 != demand 1"),
        ([1], [1], [[0], [0]], "cost matrix shape mismatch"),
        ([1], [1], [[0, 1]], "cost matrix shape mismatch"),
    ],
)
def test_errors_unchanged(a, b, c, message):
    if message is None:
        _same(solve_transport(a, b, c), _fraction_simplex(a, b, c))
        return
    with pytest.raises(TransportError) as got:
        solve_transport(a, b, c)
    with pytest.raises(TransportError) as want:
        _fraction_simplex(a, b, c)
    assert str(got.value) == str(want.value) == message


def test_kernel_on_scaled_masses_reproduces_solve_transport():
    # the costs go on a scale of their own (every cell's denominator,
    # dropped rows and columns included, times a power of two): a common
    # positive factor changes no pivot, only the optimum by that factor
    rng = random.Random(300)
    for t in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        zeros = t % 2 == 1
        a, b = _masses(rng, m, zeros), _masses(rng, n, zeros)
        c = [[Fraction(x) for x in row]
             for row in _costs(rng, m, n, ["ties", "negative", "random"][t % 3])]
        opt, flow = solve_transport(a, b, c)
        rows = [i for i, w in enumerate(a) if w]
        cols = [j for j, w in enumerate(b) if w]
        ds = lcm(*(w.denominator for w in a + b))
        sa, sb = [int(a[i] * ds) for i in rows], [int(b[j] * ds) for j in cols]
        assert ds * sum(a) == sum(sa) == sum(sb) and min(sa + sb) > 0
        assert sa == [a[i] * ds for i in rows] and sb == [b[j] * ds for j in cols]
        scale = lcm(*(x.denominator for row in c for x in row)) << rng.randrange(8)
        ic = [[int(c[i][j] * scale) for j in cols] for i in rows]
        total, x = simplex(sa, sb, ic)
        assert len(x) == len(rows) + len(cols) - 1
        assert Fraction(total, ds * scale) == opt
        got = [((rows[i], cols[j]), Fraction(q, ds)) for (i, j), q in x.items() if q > 0]
        assert got == list(flow.items())


def test_kernel_on_dist_weights_over_their_lcm():
    # behavioral_distance's read: the weights of two step distributions,
    # all positive, as ints over their lcm, with int costs
    rng = random.Random(301)
    for _ in range(300):
        mu, nu = (
            Dist.from_pairs([(rng.randrange(5), w) for w in _masses(rng, k, False)])
            for k in (rng.randint(1, 6), rng.randint(1, 6))
        )
        wa, wb = [w for _, w in mu.points], [w for _, w in nu.points]
        ds = lcm(*(w.denominator for w in wa + wb))
        c = [[rng.randint(-3, 9) << rng.randrange(3) for _ in wb] for _ in wa]
        total, x = simplex(
            [w.numerator * (ds // w.denominator) for w in wa],
            [w.numerator * (ds // w.denominator) for w in wb],
            c,
        )
        opt, flow = solve_transport(wa, wb, c)
        assert Fraction(total, ds) == opt
        got = [(cell, Fraction(q, ds)) for cell, q in x.items() if q > 0]
        assert got == list(flow.items())


def test_doubly_invalid_instances_fail_as_the_fraction_simplex():
    # with a non-finite cost and bad masses, the cost error comes first,
    # because the Fraction simplex converts the costs before it validates
    masses = [[], [1], [Fraction(-1, 2), Fraction(3, 2)], [0.25, 0.5], [0, 0]]
    costs = [[], [[0, 1]], [[0], [0]], [[float("nan")]], [[float("inf"), 0]]]
    for a, b, c in itertools.product(masses, masses, costs):
        outcomes = []
        for solve in (solve_transport, _fraction_simplex):
            try:
                outcomes.append(solve(a, b, c))
            except (ValueError, OverflowError) as e:
                outcomes.append((type(e), str(e)))
        assert outcomes[0] == outcomes[1]


def test_non_finite_costs_rejected_as_before():
    for bad, error in ((float("nan"), ValueError), (float("inf"), OverflowError)):
        with pytest.raises(error) as got:
            solve_transport([1], [1], [[bad]])
        with pytest.raises(error) as want:
            _fraction_simplex([1], [1], [[bad]])
        assert str(got.value) == str(want.value)
