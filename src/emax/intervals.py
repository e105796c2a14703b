"""Certified enclosures of the irrational constants.

Everything downstream that touches an irrational quantity (log 2, the tail of
an infinite series) starts from the small `Interval` type defined here: a
closed interval [lo, hi] with `Fraction` endpoints that is guaranteed to
contain the true real value.  The series are summed on a dyadic grid, each
term rounded outward (floor into the low sum, ceiling into the high sum),
and an explicit enclosure of the truncated tail is added.
`Interval.outward` moves an enclosure onto a grid 2^-p, rounding outward
again; the analytic engine in emax.bounds runs on such integer
endpoints.  This is what makes ceilings of near-integer quantities
certifiable: either the whole interval sits strictly on one side of an
integer, or we report that the requested precision cannot separate them.

No floating point is used anywhere in this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


class PrecisionError(ArithmeticError):
    """An enclosure straddles a decision boundary even at maximum precision."""


class Interval:
    """Closed interval [lo, hi] with Fraction endpoints, lo <= hi."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int | Fraction, hi: int | Fraction | None = None):
        lo = Fraction(lo)
        hi = lo if hi is None else Fraction(hi)
        if hi < lo:
            raise ValueError(f"empty interval: [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError("Interval is immutable")

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

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def outward(self, p: int) -> tuple:
        """(floor(lo 2^p), ceil(hi 2^p)): the integer endpoints, at scale
        2^-p, of the narrowest grid interval containing this one.  Floor
        division rounds toward minus infinity and -((-x) // d) toward plus
        infinity, so the low end can only move down and the high end only
        up."""
        lo, hi = self.lo, self.hi
        return (
            (lo.numerator << p) // lo.denominator,
            -((-hi.numerator << p) // hi.denominator),
        )


def certified_ceil(lo: int, hi: int, p: int):
    """Ceiling of the real number enclosed by [lo / 2^p, hi / 2^p], or None
    if the enclosure straddles an integer boundary.  -((-x) >> p) is
    ceil(x / 2^p), since >> floors."""
    c = -(-hi >> p)
    return c if -(-lo >> p) == c else None


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

    No term lies on the grid: the odd part of 12 * 2^p is 3, while the
    odd factor 2j-3 >= 13 of the denominator does not divide 3.  So every
    ceiling is its floor plus one, and the high sum is the low sum plus
    K-7.
    """
    if tail_bits < 8:
        raise ValueError("tail_bits must be at least 8")
    if tail_bits > 66:
        # K grows like cbrt(24 * 2^bits); past 66 bits the term count
        # exceeds ~2e7 and the sum stops being cheap.
        raise PrecisionError(
            f"series tail cannot be certified below 2^-{tail_bits} "
            "(term count infeasible)"
        )
    K = _tail_cutoff_start(tail_bits)
    while _tail_interval(K).width > Fraction(1, 1 << tail_bits):
        K += K // 8 + 1
    p = tail_bits + 24
    twelve = 12 << p
    lo_acc = sum(
        twelve // ((j - 7) * (j - 6) * (2 * j - 3)) for j in range(8, K + 1)
    )
    scale = Fraction(1, 1 << p)
    tail = _tail_interval(K)
    return Interval(lo_acc * scale + tail.lo, (lo_acc + K - 7) * scale + tail.hi)
