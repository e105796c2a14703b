"""Certified enclosures of the irrational constants.

Everything downstream that touches an irrational quantity starts from the
small `Interval` type defined here: a closed interval [lo, hi] with
`Fraction` endpoints that is guaranteed to contain the true real value.
log 2 is the one series: it is summed on a dyadic grid, each term rounded
outward (floor into the low sum, ceiling into the high sum), and an
explicit enclosure of the truncated tail is added.  alpha_7 is an exact
affine image of log 2 (see `alpha7_interval`).  `Interval.outward` moves
an enclosure onto a grid 2^-p, rounding outward again; the analytic
engine in emax.bounds runs on such integer endpoints.  This is what makes
ceilings of near-integer quantities certifiable: either the whole interval
sits strictly on one side of an integer, or we report that the requested
precision cannot separate them.

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


@lru_cache(maxsize=8)
def alpha7_interval(tail_bits: int = 48) -> Interval:
    """Enclosure of alpha_7 = sum_{j>=8} 12/((j-7)(j-6)(2j-3)) with width
    below 2^-tail_bits, from the closed form 48332/114345 + (16/33) log 2.

    With k = j-7 each term is 12/(k(k+1)(2k+11)) = (12/11)/k - (4/3)/(k+1)
    + (16/33)/(2k+11).  The weights of 1/k, 1/(k+1) and 1/(k+11/2) sum to
    zero, so the series is 4/3 - (8/33) H_{11/2}, with the harmonic number
    H_{11/2} = sum_{k>=1} (1/k - 1/(k+11/2)) = 2(1 + 1/3 + ... + 1/11)
    - 2 log 2.  That is R + (16/33) log 2 with R = 4/3 - (16/33)(1 + 1/3 +
    ... + 1/11) = 48332/114345.  The map x -> R + (16/33) x increases, so
    it carries the ends of the log 2 enclosure to ends of an alpha_7 one,
    of width (16/33) width(log 2) < 2^-tail_bits.
    """
    if tail_bits < 8:
        raise ValueError("tail_bits must be at least 8")
    ln2 = ln2_interval(tail_bits)
    r, c = Fraction(48332, 114345), Fraction(16, 33)
    return Interval(r + c * ln2.lo, r + c * ln2.hi)
