"""Random walk on the hypercube and its coupling-based contraction.

Positions are bit vectors with the normalised Hamming distance.  One
step of the walk picks i uniformly from {0..N} and flips bit i (i = 0
flips nothing).  For any two positions the explicit index bijection

* identity when the positions agree,
* the transposition (0 i) when they differ exactly at i,
* the cycle on the differing positions otherwise

induces a coupling of the two walks whose cost comes out at exactly
(N-1)/(N+1) times the distance; in the many-difference case the cost
is ((N-1) * n / N) / (N + 1) for n differing bits.  The transport LP
can only do better, which gives the contraction factor (N-1)/(N+1).
All checks run in exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import List, Tuple

from .measures import Coupling, Dist, transport

Pos = Tuple[int, ...]


def flip(p: Pos, i: int) -> Pos:
    """Flip bit i (1-based); i = 0 leaves the position unchanged."""
    if i == 0:
        return p
    return p[: i - 1] + (1 - p[i - 1],) + p[i:]


def hamming(p: Pos, q: Pos) -> Fraction:
    if len(p) != len(q):
        raise ValueError("positions have different dimensions")
    n = sum(1 for a, b in zip(p, q) if a != b)
    return Fraction(n, len(p))


def hwalk(n: int, p: Pos) -> Dist:
    """One walk step: uniform over {flip_0 p, ..., flip_N p}."""
    if len(p) != n:
        raise ValueError(f"position has {len(p)} bits, expected {n}")
    w = Fraction(1, n + 1)
    return Dist.from_pairs([(flip(p, i), w) for i in range(n + 1)])


def hypercube_sigma(p: Pos, q: Pos) -> List[int]:
    """The index bijection of {0..N} used to couple the two walks."""
    if len(p) != len(q):
        raise ValueError("positions have different dimensions")
    n = len(p)
    diff = [i + 1 for i in range(n) if p[i] != q[i]]
    sigma = list(range(n + 1))
    if len(diff) == 1:
        i = diff[0]
        sigma[0], sigma[i] = i, 0
    elif len(diff) > 1:
        for a, b in zip(diff, diff[1:] + diff[:1]):
            sigma[a] = b
    return sigma


def sigma_coupling(n: int, p: Pos, q: Pos) -> Coupling:
    sigma = hypercube_sigma(p, q)
    w = Fraction(1, n + 1)
    return Coupling(
        Dist.from_pairs(
            [((flip(p, i), flip(q, sigma[i])), w) for i in range(n + 1)]
        )
    )


@dataclass
class HypercubeReport:
    n: int
    factor: Fraction
    rows: List[dict] = field(default_factory=list)
    worst_ratio: float = 0.0
    ok: bool = True

    def to_json(self) -> dict:
        return {
            "dimension": self.n,
            "contraction_factor": float(self.factor),
            "worst_ratio": self.worst_ratio,
            "pairs": len(self.rows),
            "status": "ok" if self.ok else "violated",
            "violations": [r for r in self.rows if not r["ok"]],
        }


def hypercube_contraction_check(n: int, cap: int = 6) -> HypercubeReport:
    """Exhaustive check over all position pairs of dimension n.

    Verifies, in exact arithmetic: the transport optimum is below
    (N-1)/(N+1) times the distance; the sigma coupling has the walks
    as exact marginals; and its cost matches the closed form
    ((N-1)*k/N)/(N+1) when the positions differ at k > 1 bits.
    """
    if n > cap:
        raise ValueError(f"dimension {n} above the exhaustive cap {cap}")
    factor = Fraction(n - 1, n + 1)
    report = HypercubeReport(n=n, factor=factor)
    for p in product((0, 1), repeat=n):
        for q in product((0, 1), repeat=n):
            d = hamming(p, q)
            mu = hwalk(n, p)
            nu = hwalk(n, q)
            opt, _ = transport(hamming_cost, mu, nu)
            coup = sigma_coupling(n, p, q)
            cost = sum(
                (w * hamming(a, b) for (a, b), w in coup.joint.points),
                Fraction(0),
            )
            k_diff = sum(1 for a, b in zip(p, q) if a != b)
            marg_ok = coup.left() == mu and coup.right() == nu
            lp_ok = opt <= factor * d
            cost_ok = opt <= cost
            closed_ok = True
            if k_diff > 1:
                closed_ok = cost == Fraction((n - 1) * k_diff, n) / (n + 1)
            ratio = float(opt / d) if d > 0 else 0.0
            report.worst_ratio = max(report.worst_ratio, ratio)
            ok = marg_ok and lp_ok and cost_ok and closed_ok
            report.ok = report.ok and ok
            report.rows.append(
                {
                    "p": "".join(map(str, p)),
                    "q": "".join(map(str, q)),
                    "distance": float(d),
                    "lp": float(opt),
                    "sigma_cost": float(cost),
                    "ratio": ratio,
                    "ok": ok,
                }
            )
    return report


def hamming_cost(a: Pos, b: Pos) -> Fraction:
    return hamming(a, b)
