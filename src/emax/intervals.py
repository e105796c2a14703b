"""Exact interval arithmetic with rational endpoints.

Everything downstream that touches an irrational quantity (log 2, the tail of
an infinite series) goes through the small `Interval` type defined here: a
closed interval [lo, hi] with `Fraction` endpoints that is guaranteed to
contain the true real value.  All interval arithmetic is exact; outward
rounding happens only once, at series truncation, where an explicit tail
enclosure is added.  This is what makes ceilings of near-integer quantities
certifiable: either the whole interval sits strictly on one side of an
integer, or we report that the requested precision cannot separate them.

No floating point is used anywhere in this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Union

Rat = Union[int, Fraction]


class PrecisionError(ArithmeticError):
    """An enclosure straddles a decision boundary even at maximum precision."""


class Interval:
    """Closed interval [lo, hi] with Fraction endpoints, lo <= hi."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Rat, hi: Rat | None = None):
        lo = Fraction(lo)
        hi = lo if hi is None else Fraction(hi)
        if hi < lo:
            raise ValueError(f"empty interval: [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError("Interval is immutable")

    def __repr__(self):
        return f"Interval({self.lo}, {self.hi})"

    def __eq__(self, other):
        return (
            isinstance(other, Interval)
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __hash__(self):
        return hash((self.lo, self.hi))

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __add__(self, other) -> "Interval":
        if isinstance(other, Interval):
            return Interval(self.lo + other.lo, self.hi + other.hi)
        return Interval(self.lo + Fraction(other), self.hi + Fraction(other))

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other) -> "Interval":
        return self + (-other if isinstance(other, Interval) else -Fraction(other))

    def __rsub__(self, other) -> "Interval":
        return (-self) + Fraction(other)

    def __mul__(self, other) -> "Interval":
        # Scalar multiplication only; interval*interval is not needed here.
        if isinstance(other, Interval):
            raise TypeError("interval*interval products are not supported")
        c = Fraction(other)
        if c >= 0:
            return Interval(self.lo * c, self.hi * c)
        return Interval(self.hi * c, self.lo * c)

    __rmul__ = __mul__

    def contains(self, x: Rat) -> bool:
        x = Fraction(x)
        return self.lo <= x <= self.hi

    # Certified order predicates against a rational threshold.  Each returns
    # True/False only when the whole interval decides the comparison, and
    # None when the threshold falls inside (caller must widen precision).

    def surely_le(self, x: Rat):
        x = Fraction(x)
        if self.hi <= x:
            return True
        if self.lo > x:
            return False
        return None

    def surely_lt(self, x: Rat):
        x = Fraction(x)
        if self.hi < x:
            return True
        if self.lo >= x:
            return False
        return None

    def surely_ge(self, x: Rat):
        r = self.surely_lt(x)
        return None if r is None else not r

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


def certified_ceil(iv: Interval):
    """Ceiling of the real number enclosed by iv, or None if iv straddles an
    integer boundary (i.e. ceil(lo) != ceil(hi))."""
    c_lo = -((-iv.lo) // 1)  # ceil for Fractions
    c_hi = -((-iv.hi) // 1)
    if c_lo == c_hi:
        return int(c_lo)
    return None


def ceil_sqrt(num: int, den: int = 1) -> int:
    """Smallest integer t with t*t >= num/den, for num >= 0 (exact)."""
    if num < 0 or den <= 0:
        raise ValueError("ceil_sqrt needs num >= 0 and den > 0")
    if num == 0:
        return 0
    # t^2 >= num/den  <=>  den*t^2 >= num
    t = math.isqrt(num // den)
    while den * t * t < num:
        t += 1
    return t


@lru_cache(maxsize=None)
def ln2_interval(bits: int = 256) -> Interval:
    """Enclosure of log 2 with width below 2^-bits.

    Uses log 2 = sum_{j>=1} 1/(j*2^j).  Terms are accumulated in fixed point
    with `bits + 16` fractional bits (floor and ceil per term), and the series
    tail after J terms is enclosed in [0, 2^-J] since
    sum_{j>J} 1/(j*2^j) < (1/(J+1)) * sum_{j>J} 2^-j = 2^-J/(J+1).
    """
    if bits < 1:
        raise ValueError("bits must be positive")
    p = bits + 16
    J = bits + 4
    one = 1 << p
    lo_acc = 0
    hi_acc = 0
    for j in range(1, J + 1):
        d = j << j  # j * 2^j
        q, r = divmod(one, d)
        lo_acc += q
        hi_acc += q + (1 if r else 0)
    scale = Fraction(1, one)
    tail_hi = Fraction(1, (J + 1) << J)
    return Interval(lo_acc * scale, hi_acc * scale + tail_hi)


def series_term(j: int) -> Fraction:
    """Term of the interference series: 12/((j-7)(j-6)(2j-3)), j >= 8."""
    if j < 8:
        raise ValueError("series terms start at j = 8")
    return Fraction(12, (j - 7) * (j - 6) * (2 * j - 3))


def _tail_interval(K: int) -> Interval:
    """Enclosure of sum_{j>K} series_term(j) for K >= 8.

    Upper bound 3/(K-7)^2: each term is at most the telescoping difference
    3/(j-8)^2 - 3/(j-7)^2 ... the standard quadratic tail estimate.  Lower
    bound 3/(K-3)^2: term(j) > 3/(j-4)^2 - 3/(j-3)^2 for every j >= 8
    (cross-multiplication; checked exhaustively in the test suite), and the
    right side telescopes to 3/(K-3)^2.
    """
    return Interval(Fraction(3, (K - 3) ** 2), Fraction(3, (K - 7) ** 2))


def _tail_cutoff_start(tail_bits: int) -> int:
    """First guess at the series cutoff K for alpha7_interval.

    The tail width 3/(K-7)^2 - 3/(K-3)^2 is at most 24(K-5)/((K-7)^2 (K-3)^2),
    roughly 24/K^3, so K starts at the nearest integer to cbrt(24 * 2^bits)
    plus 8; the caller nudges K up until the width is certified.
    """
    n = 24 << tail_bits
    r = 1 << -(-n.bit_length() // 3)  # >= cbrt(n); Newton descends to floor
    while True:
        nxt = (2 * r + n // (r * r)) // 3
        if nxt >= r:
            break
        r = nxt
    if 8 * n >= (2 * r + 1) ** 3:  # cbrt(n) >= r + 1/2
        r += 1
    return max(16, r + 8)


@lru_cache(maxsize=8)
def alpha7_interval(tail_bits: int = 48) -> Interval:
    """Enclosure of alpha_7 = sum_{j>=8} 12/((j-7)(j-6)(2j-3)).

    The first K-7 terms are summed in fixed point (floor/ceil per term) and
    the tail is enclosed by `_tail_interval`.  K is chosen so the tail
    enclosure is narrower than 2^-tail_bits; the fixed-point grid uses
    tail_bits + 24 fractional bits so per-term rounding is negligible.
    """
    if tail_bits < 8:
        raise ValueError("tail_bits must be at least 8")
    if tail_bits > 66:
        # 2^66 width needs ~ 6e6^... K grows like cbrt(24 * 2^bits); past
        # this the term count exceeds ~2e7 and the sum stops being cheap.
        raise PrecisionError(
            f"series tail cannot be certified below 2^-{tail_bits} "
            "(term count infeasible)"
        )
    K = _tail_cutoff_start(tail_bits)
    while _tail_interval(K).width > Fraction(1, 1 << tail_bits):
        K += K // 8 + 1
    p = tail_bits + 24
    one = 1 << p
    lo_acc = 0
    hi_acc = 0
    for j in range(8, K + 1):
        d = (j - 7) * (j - 6) * (2 * j - 3)
        q, r = divmod(12 * one, d)
        lo_acc += q
        hi_acc += q + (1 if r else 0)
    scale = Fraction(1, one)
    partial = Interval(lo_acc * scale, hi_acc * scale)
    return partial + _tail_interval(K)
