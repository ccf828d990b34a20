"""Arithmetic of sensitivity grades and truth values.

Two numeric domains underpin everything else:

* ``Grade`` -- sensitivities in [0, oo].  These are exact rationals
  extended with infinity, forming an ordered semiring with the
  conventions ``oo * 0 = 0 * oo = 0``.  All typing side conditions
  (r >= 1, p < 1, r < oo) are decided exactly, never on floats.

* truth values -- floats in [0, 1] with 0 meaning true and 1 meaning
  false.  The connectives are truncated sum ``oplus``, its residual
  ``wand`` (truncated reversed subtraction) and bounded scaling
  ``scale_prop``.  No tolerance is built in: a semantic comparison
  takes its tolerance from the caller.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

GradeLike = Union["Grade", Fraction, int, str]


class Grade:
    """Exact sensitivity value: a nonnegative rational or infinity.

    Immutable and hashable.  Arithmetic follows the ordered semiring
    on [0, oo]; in particular ``INF * ZERO == ZERO``.
    """

    __slots__ = ("_num",)  # Fraction, or None for infinity

    def __init__(self, value: Union[Fraction, int, str, None]):
        if value is None:
            self._num = None
            return
        q = Fraction(value)
        if q < 0:
            raise ValueError(f"grade must be nonnegative, got {q}")
        self._num = q

    # -- constructors ------------------------------------------------

    @staticmethod
    def of(value: GradeLike) -> "Grade":
        if isinstance(value, Grade):
            return value
        if isinstance(value, str) and value.strip() in ("inf", "oo", "∞"):
            return INF
        return Grade(value)

    # -- predicates --------------------------------------------------

    @property
    def is_infinite(self) -> bool:
        return self._num is None

    @property
    def rational(self) -> Fraction:
        if self._num is None:
            raise ValueError("infinite grade has no rational value")
        return self._num

    def __float__(self) -> float:
        if self._num is None:
            return float("inf")
        return float(self._num)

    # -- semiring ops ------------------------------------------------

    def __add__(self, other: GradeLike) -> "Grade":
        other = Grade.of(other)
        if self.is_infinite or other.is_infinite:
            return INF
        return Grade(self._num + other._num)

    def __mul__(self, other: GradeLike) -> "Grade":
        other = Grade.of(other)
        # oo * 0 = 0 * oo = 0
        if self == ZERO or other == ZERO:
            return ZERO
        if self.is_infinite or other.is_infinite:
            return INF
        return Grade(self._num * other._num)

    def __sub__(self, other: GradeLike) -> "Grade":
        other = Grade.of(other)
        if other.is_infinite:
            raise ValueError("cannot subtract an infinite grade")
        if self.is_infinite:
            return INF
        return Grade(self._num - other._num)

    def __truediv__(self, other: GradeLike) -> "Grade":
        other = Grade.of(other)
        if other.is_infinite or other == ZERO:
            raise ValueError(f"cannot divide a grade by {other}")
        if self.is_infinite:
            return INF
        return Grade(self._num / other._num)

    # -- total order -------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Grade, Fraction, int)):
            return NotImplemented
        other = Grade.of(other)
        return self._num == other._num

    def __le__(self, other: GradeLike) -> bool:
        other = Grade.of(other)
        if other.is_infinite:
            return True
        if self.is_infinite:
            return False
        return self._num <= other._num

    def __lt__(self, other: GradeLike) -> bool:
        other = Grade.of(other)
        return self <= other and self != other

    def __ge__(self, other: GradeLike) -> bool:
        return Grade.of(other) <= self

    def __gt__(self, other: GradeLike) -> bool:
        return Grade.of(other) < self

    def __hash__(self) -> int:
        return hash(("Grade", self._num))

    def __repr__(self) -> str:
        return f"Grade({self})"

    def __str__(self) -> str:
        if self._num is None:
            return "inf"
        if self._num.denominator == 1:
            return str(self._num.numerator)
        return f"{self._num.numerator}/{self._num.denominator}"


ZERO = Grade(0)
ONE = Grade(1)
INF = Grade(None)


# ---------------------------------------------------------------------------
# Truth-value connectives on [0, 1] (0 = true, 1 = false)
# ---------------------------------------------------------------------------


def oplus(a: float, b: float) -> float:
    """Truncated sum min{a + b, 1}: the tensor of the truth quantale."""
    return min(a + b, 1.0)


def wand(a: float, b: float) -> float:
    """Truncated reversed subtraction max{b - a, 0}, residual of oplus."""
    return max(b - a, 0.0)


def scale_prop(r: GradeLike, a: float) -> float:
    """Bounded scaling min{r * a, 1}.

    Requires r > 0 (scaling a predicate by 0 is ill-formed).  For
    r = inf the semiring convention gives 0 when a = 0 and 1 otherwise.
    """
    r = Grade.of(r)
    if r == ZERO:
        raise ValueError("predicate scaling requires a strictly positive grade")
    if r.is_infinite:
        return 0.0 if a == 0.0 else 1.0
    return min(float(r.rational) * a, 1.0)
