"""Certified interval arithmetic.

The headline constant alpha_7 gets an independent oracle here: the library
computes it from the closed form 48332/114345 + (16/33) log 2, while
`reference_alpha7` in conftest sums the series itself with a proved tail.
The closed-form enclosure must lie inside the series one; neither
implementation borrows from the other.
"""

from fractions import Fraction

import pytest

from conftest import (
    _tail_cutoff_start,
    _tail_interval,
    reference_alpha7,
    series_term,
)

from emax.intervals import (
    Interval,
    alpha7_interval,
    ceil_sqrt,
    certified_ceil,
    ln2_interval,
)

ALPHA7_CLOSED_FORM_RATIONAL = Fraction(48332, 114345)
ALPHA7_CLOSED_FORM_LOG_COEFF = Fraction(16, 33)


class TestInterval:
    def test_point_interval(self):
        iv = Interval(3)
        assert iv.lo == iv.hi == 3
        assert iv.width == 0

    def test_reversed_endpoints_rejected(self):
        with pytest.raises(ValueError):
            Interval(2, 1)

    def test_immutable(self):
        iv = Interval(1, 2)
        with pytest.raises(AttributeError):
            iv.lo = 0

    def test_midpoint(self):
        assert Interval(1, 2).midpoint() == Fraction(3, 2)

    def test_outward_rounds_onto_the_grid(self):
        # 16/3 = 5.33.. floors to 5 and 32/3 = 10.67.. ceils to 11
        assert Interval(Fraction(1, 3), Fraction(2, 3)).outward(4) == (5, 11)
        # grid points stay put
        assert Interval(Fraction(1, 4), Fraction(3, 4)).outward(4) == (4, 12)
        # negative ends still round down and up: -16/3 -> -6, -16/5 -> -3
        assert Interval(Fraction(-1, 3), Fraction(-1, 5)).outward(4) == (-6, -3)
        assert Interval(2).outward(0) == (2, 2)


class TestCeilings:
    # enclosures [lo, hi] / 2^4, rounded outward from the rational ones
    def test_certified_ceil_decides_when_interval_is_clean(self):
        assert certified_ceil(40, 42, 4) == 3  # [5/2, 13/5]
        assert certified_ceil(48, 48, 4) == 3  # [3, 3]
        assert certified_ceil(-56, -49, 4) == -3  # [-7/2, -31/10]

    def test_certified_ceil_refuses_straddles(self):
        # ceil jumps inside [1.9, 2.1], so no certified answer exists
        assert certified_ceil(30, 34, 4) is None

    def test_ceil_sqrt_exact_values(self):
        assert ceil_sqrt(0) == 0
        assert ceil_sqrt(1) == 1
        assert ceil_sqrt(2) == 2
        assert ceil_sqrt(4) == 2
        assert ceil_sqrt(5) == 3
        assert ceil_sqrt(3, 2) == 2  # sqrt(1.5) = 1.22..
        assert ceil_sqrt(9, 4) == 2  # exactly 3/2 rounds up to 2

    def test_ceil_sqrt_brute_range(self):
        for num in range(0, 400):
            t = ceil_sqrt(num)
            assert t * t >= num
            assert t == 0 or (t - 1) * (t - 1) < num

    def test_ceil_sqrt_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ceil_sqrt(-1)
        with pytest.raises(ValueError):
            ceil_sqrt(1, 0)


def ln2_oracle() -> Interval:
    """Independent enclosure of log 2 from a different series.

    log 2 = 2 atanh(1/3) = 2 sum_{k>=0} (1/3)^(2k+1) / (2k+1).  The tail
    past k = K is below (9/8) (1/3)^(2K+3) / (2K+3); with K = 150 that is
    around 10^-145, far tighter than any enclosure under test.
    """
    K = 150
    s = Fraction(0)
    for k in range(K + 1):
        s += Fraction(1, (2 * k + 1) * 3 ** (2 * k + 1))
    tail_hi = Fraction(9, 8 * (2 * K + 3) * 3 ** (2 * K + 3))
    return Interval(2 * s, 2 * (s + tail_hi))


class TestLn2:
    def test_agrees_with_independent_series(self):
        oracle = ln2_oracle()
        for bits in (8, 64, 256):
            iv = ln2_interval(bits)
            # overlap is required; at high precision both are so narrow
            # that overlap pins 77 decimal digits
            assert iv.lo <= oracle.hi and oracle.lo <= iv.hi
            assert iv.width <= Fraction(1, 2**bits)
        iv = ln2_interval(256)
        assert iv.lo <= oracle.midpoint() <= iv.hi

    def test_frozen_leading_digits(self):
        iv = ln2_interval(64)
        assert iv.lo >= Fraction("0.6931471805599453094")
        assert iv.hi <= Fraction("0.6931471805599453095")

    def test_narrows_with_precision(self):
        assert ln2_interval(128).width < ln2_interval(32).width

    def test_cached(self):
        assert ln2_interval(64) is ln2_interval(64)

    def test_rejects_nonpositive_bits(self):
        with pytest.raises(ValueError):
            ln2_interval(0)


class TestSeries:
    def test_term_values(self):
        assert series_term(8) == Fraction(12, 1 * 2 * 13)
        assert series_term(9) == Fraction(12, 2 * 3 * 15)

    def test_term_rejects_small_j(self):
        with pytest.raises(ValueError):
            series_term(7)

    def test_tail_lower_bound_term_inequality_exhaustively(self):
        """term(j) > 3/(j-4)^2 - 3/(j-3)^2 for every j >= 8.

        This is the inequality the tail enclosure's lower bound rests on;
        the telescoping sum of the right side over j > K equals 3/(K-3)^2.
        Checked exactly over a range far beyond any K the code can select.
        """
        for j in range(8, 50_001):
            rhs = Fraction(3, (j - 4) ** 2) - Fraction(3, (j - 3) ** 2)
            assert series_term(j) > rhs, j

    def test_tail_enclosure_one_step_consistency(self):
        """tail(K) absorbs term(K+1) plus tail(K+1) on both sides.

        Chaining this from K to any M > K bounds every finite partial sum,
        and tail(M) shrinks to zero, so the two inequalities pin the
        enclosure of the infinite tail by induction.
        """
        for K in range(8, 5001):
            t = series_term(K + 1)
            cur = _tail_interval(K)
            nxt = _tail_interval(K + 1)
            assert cur.hi >= t + nxt.hi, K
            assert cur.lo <= t + nxt.lo, K
        assert _tail_interval(10**6).hi < Fraction(1, 10**11)

    def test_tail_interval_ordering(self):
        for K in range(8, 200):
            iv = _tail_interval(K)
            assert 0 < iv.lo < iv.hi


class TestAlpha7:
    def test_rational_part_of_the_closed_form(self):
        # 4/3 - (16/33)(1 + 1/3 + ... + 1/11), from the partial fractions
        odd = sum(Fraction(1, 2 * m + 1) for m in range(6))
        assert Fraction(4, 3) - ALPHA7_CLOSED_FORM_LOG_COEFF * odd == (
            ALPHA7_CLOSED_FORM_RATIONAL)

    def test_series_and_closed_form_enclosures_overlap(self):
        lo, hi = reference_alpha7(56)
        closed = alpha7_interval(256)
        assert closed.lo <= hi and lo <= closed.hi
        assert hi - lo <= Fraction(1, 2**48)
        assert closed.width <= Fraction(1, 2**256)

    def test_frozen_decimal_window(self):
        iv = alpha7_interval()
        # alpha_7 = 0.75875709204812950241...
        assert Fraction("0.75875709204812949") <= iv.lo
        assert iv.hi <= Fraction("0.75875709204812951")
        assert iv.lo >= Fraction("0.758757092")
        assert iv.hi <= Fraction("0.758757093")

    def test_closed_form_lies_inside_the_series_enclosure(self):
        for bits in range(8, 41):
            iv = alpha7_interval(bits)
            lo, hi = reference_alpha7(bits)
            assert lo <= iv.lo and iv.hi <= hi, bits
            assert iv.width < Fraction(1, 2**bits), bits

    def test_cached(self):
        assert alpha7_interval(48) is alpha7_interval(48)
        assert alpha7_interval() == alpha7_interval(48)

    def test_exact_cutoff_matches_float_estimate(self):
        # the cutoff is an exact nearest cube root; it must pick the same K
        # as the float estimate it replaced, so enclosures stay unchanged
        for bits in range(8, 67):
            rough = int(round(24 ** (1 / 3) * 2 ** (bits / 3)))
            assert _tail_cutoff_start(bits) == max(16, rough + 8), bits

    def test_precision_limits(self):
        with pytest.raises(ValueError):
            alpha7_interval(7)

    def test_width_tracks_requested_tail_bits(self):
        wide = alpha7_interval(16)
        tight = alpha7_interval(48)
        assert tight.width < wide.width <= Fraction(1, 2**15)
        # both still enclose the same number
        assert wide.lo <= tight.hi and tight.lo <= wide.hi
