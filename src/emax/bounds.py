"""Exact-arithmetic engine for ordered-sequence size bounds.

The central quantity, written f(g, s) here, is the least b such that every
bipartite graph of Euler genus at most g whose B side has degrees at most 4
and |B| > b contains an ordered sequence of s vertices in B.  This module
computes the working upper bound f'(g, s):

    f'(g, 2)  =  3 if g = 0 else 2g + 2           (exact anchor)
    f'(g, s)  =  min over c >= 7 of
                 max{ 2c/(c-6) * (g-2),  2c - 3 + f'(g, s-1) }

The first branch is strictly decreasing in c, the second strictly
increasing, so the minimum sits at the two candidates straddling the first
crossing; the scan is provably complete.  Ties go to the smaller c.

Each step's value is floored to an integer.  f(g, s) is a minimum
cardinality, hence integer-valued, so the floor of any valid upper bound is
still an upper bound, and since the recurrence is monotone in f'(g, s-1)
the floored table remains valid inductively.  Without this floor several
reported values would be non-integral rationals (first at g=13, s=3, where
the raw minimum is 242/5); the steps where flooring strictly reduced the
value are reported, never silent.  The recurrence therefore runs on plain
integers: f' values are ints, and a Fraction appears only where a step
computed without the floor is non-integral.

The analytic side replaces the c-scan with a fixed schedule driven by the
series alpha_i = sum_{j>i} 12/((j-7)(j-6)(2j-3)): with beta_i =
ceil(alpha_i (g-2)), the schedule uses c_s = i exactly for s in
L_i = (beta_i + 1 .. beta_{i-1}).  An error term E_i, a recursion over the
rows with nonempty L_i, certifies how far the closed form
2i/(i-6) (g-2) + (z-1)(2i-3) can undershoot the recurrence.  All of this
runs on integer endpoints at one scale 2^-p, rounded outward, in one pass
up the rows i = 7 .. 2g+2 and one down them for E (see
`_context_at_precision`); `claim1_consistency` then checks the recurrence
in one pass over s.  Every reported comparison is a comparison of
interval endpoints, never of floats.
"""

from __future__ import annotations

import os
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .intervals import (
    Interval,
    PrecisionError,
    alpha7_interval,
    ceil_sqrt,
    certified_ceil,
    ln2_interval,
)

DEFAULT_PRECISION_BITS = 256
# printed numerators have about 0.3 digits per bit: 1250 at this cap, while
# CPython's 4300-digit limit on int-to-str is passed near 14300 bits.  A
# bounds verify sweep to VERIFY_GMAX_CAP takes about 0.05 s at this cap,
# 0.2 s at 8192 bits and 0.9 s at 14000, most of it the lambda enclosure
PRECISION_BITS_CAP = 4096
C_SCAN_CAP_FACTOR = 14
# bounds f prints one c per step: at this cap 7-9 MB of output, written
# from the runs 4096 items at a time in 0.01-0.05 s and 16-17 MB, never
# holding the 10^6 c values, while an unbounded s_max prints until killed
SCHEDULE_STEP_CAP = 10**6
# every crossing comes from the root of a quadratic, so the loop makes one
# pass per run or single step, at most min(s_max, about 2 sqrt(6g)): bounds f
# at this cap takes under 0.1 ms with --s 3 and 0.03-0.05 s at the step cap
# (0.06 s at g = 10^12 and 1.3 s at 10^16, with 414,029 runs; 2-core
# machine, Python 3.11.7)
SCHEDULE_GENUS_CAP = 10**10
# a table row at Euler genus g prints a g-1 entry schedule, so a table up
# to genus G costs output quadratic in G: G = 3000 takes 0.19-0.23 s in
# csv or json, which write each row as it is made, in 16 MB, and
# 0.24-0.3 s and 23 MB in the padded format, which keeps its rows (a few
# runs each) to take the column widths first
TABLE_GENUS_CAP = 3000
# verify_theorem evaluates the closed form once per run of constant
# ceil(sqrt(3(g-2)/2)), in constant memory: 367 runs for theorem 84 at this
# cap and 357 for 67 take 5 and 11 ms, most of it the direct range, where
# one evaluation per genus took 0.42-0.44 s (2-core machine, Python 3.11.7)
VERIFY_GMAX_CAP = 10**5
TAIL_BITS_START = 48
GRID_GUARD_BITS = 40  # the analytic grid is 2^-(tail_bits + 40)

# (factor, bound per unit of Euler genus, end of the direct range) per kind:
# factor f'(g, g+1) - 1 <= bound g, by the recurrence up to the range's end;
# the factor is also the Lemma 5 chord period and the deficit bound's factor
SURFACES = {"nonorientable": (5, 84, 299), "orientable": (4, 67, 670)}
SURFACE_KINDS = tuple(SURFACES)
# verify_theorem's names, each bound alone and after its kind, to the kind
THEOREMS = {**{str(b): k for k, (_, b, _) in SURFACES.items()},
            **{f"{k}-{b}": k for k, (_, b, _) in SURFACES.items()}}


class BoundsError(ValueError):
    pass


def _precision_bits(precision: int | None) -> int:
    """The precision argument, else EMAX_PRECISION_BITS, else the default;
    either source must give an integer of 8 to PRECISION_BITS_CAP bits."""
    name = "precision"
    if precision is None:
        env = os.environ.get("EMAX_PRECISION_BITS")
        if not env:
            return DEFAULT_PRECISION_BITS
        name = "EMAX_PRECISION_BITS"
        try:
            precision = int(env)
        except ValueError:
            raise BoundsError(f"{name} must be an integer, got {env!r}") from None
    if precision < 8:
        raise BoundsError(f"{name} must be at least 8 bits")
    if precision > PRECISION_BITS_CAP:
        raise BoundsError(
            f"{name} {precision} is above the cap of {PRECISION_BITS_CAP} bits"
        )
    return int(precision)


def f_exact_s2(g: int) -> int:
    """Exact value for sequences of length 2: 3 on the sphere, 2g+2 else."""
    if g < 0:
        raise BoundsError("g must be nonnegative")
    return 3 if g == 0 else 2 * g + 2


class ScheduleResult(namedtuple("ScheduleResult", (
    "runs",  # ((c, count), ...) for s = 3 .. s_max, adjacent c distinct
    "f",  # f'(g, s_max): int, Fraction if non-integral
    "floored_steps",  # s values where flooring strictly reduced
))):
    __slots__ = ()

    @property
    def c_schedule(self) -> tuple:
        """The chosen c for s = 3 .. s_max, the runs expanded."""
        return tuple(c for c, count in self.runs for _ in range(count))


def optimal_schedule(
    g: int, s_max: int, *, floor_steps: bool = True, anchor_delta: int = 0
) -> ScheduleResult:
    """Optimal c per step, as runs of constant c, and f'(g, s_max).

    f'(g, s-1) is carried as an integer ratio p/q (q = 1 while flooring)
    and every test below is cross-multiplied into integers.  The first
    branch of the recurrence decreases in c and the second increases, so
    the minimum is one of the two candidates straddling the first crossing
    c, the least c >= 7 with crossed(c): 2c(g-2)q <= (c-6)((2c-3)q + p)
    (smaller c on ties), that is h(c) = Ac^2 + Bc + C >= 0 with A = 2q,
    B = p - 15q - 2(g-2)q and C = 18q - 6p.  h is convex with h(6) =
    -12(g-2)q, and for g = 1 it is positive on c >= 6, so in every case the
    crossing is max(7, ceil(r)) for the larger root r of h, or 7 when h has
    no root (D = B^2 - 4AC < 0).  Each search starts at floor((isqrt(D) -
    B) / 2A), which is at most r and at most two below the crossing, and
    the exact test settles it.  anchor_delta shifts the s=2 anchor, which
    must stay nonnegative; it exists for sensitivity testing only.

    The loop moves a whole run of constant c at once.  With d = (2c-3)q,
    branch 2 at c wins a step from p when (c-7)(p+d) < 2(c-1)(g-2)q, and
    moves p to p+d with q unchanged (and gcd(p+d, q) = gcd(p, q)).  Then
    crossed(c) still holds, as crossed only grows with p, and crossed(c-1)
    fails as long as branch 2 at c keeps winning, since (c-7)((2c-5)q + p)
    < (c-7)(p+d).  So the crossing stays at c, and the run is every j >= 1
    with (c-7)(p + jd) < 2(c-1)(g-2)q: one integer division.  At c = 7
    there is no c-1 and the run takes every remaining step.  A step that
    branch 1 at c-1 wins stays a single step, floored as before, and leaves
    the crossing at c-1 or below.  f' grows with s, so the crossing never
    rises: the loop makes at most c_3 - 6 runs and as many single steps,
    each in O(1) integer operations (the g+1 step schedule has 23 runs of
    constant c at g = 670, 38 at g = 3000).
    """
    if g < 1:
        raise BoundsError("g must be >= 1")
    if g > SCHEDULE_GENUS_CAP:
        raise BoundsError(f"g {g} is above the cap of {SCHEDULE_GENUS_CAP}")
    if s_max < 2:
        raise BoundsError("s_max must be >= 2")
    if s_max > SCHEDULE_STEP_CAP:
        raise BoundsError(f"s_max {s_max} is above the cap of {SCHEDULE_STEP_CAP}")
    p, q = f_exact_s2(g) + anchor_delta, 1
    if p < 0:
        raise BoundsError("the shifted anchor f'(g, 2) must be nonnegative")
    runs = []
    floored = []
    cap = 6 + C_SCAN_CAP_FACTOR * g
    gm2 = g - 2
    k = 15 + 2 * gm2  # B = p - kq
    s = 3
    while s <= s_max:
        # from the larger root of h up to the least crossed c
        b = p - k * q
        disc = b * b - 8 * q * (18 * q - 6 * p)
        c = 7
        if disc >= 0:
            c = (isqrt(disc) - b) // (4 * q)
            if c < 7:
                c = 7
        while 2 * c * gm2 * q > (c - 6) * ((2 * c - 3) * q + p):
            c += 1
        if c > cap:
            raise RuntimeError("c scan exceeded its hard cap")
        d = (2 * c - 3) * q
        t = s_max - s + 1
        if c > 7:
            w = (2 * (c - 1) * gm2 * q - (c - 7) * p - 1) // ((c - 7) * d)
            if w < t:
                t = w
        if t > 0:
            # a run of branch 2 at c
            p += t * d
            s += t
        else:
            # branch1 at c-1 is no larger: ties go to the smaller c
            num, den = 2 * (c - 1) * gm2, c - 7
            if floor_steps:
                if num % den:
                    floored.append(s)
                p, q = num // den, 1
            else:
                p, q = Fraction(num, den).as_integer_ratio()
            c, t = c - 1, 1
            s += 1
        if runs and runs[-1][0] == c:
            runs[-1] = (c, runs[-1][1] + t)
        else:
            runs.append((c, t))
    return ScheduleResult(tuple(runs), p if q == 1 else Fraction(p, q),
                          tuple(floored))


class BoundsTableRow(namedtuple("BoundsTableRow", (
    "g",
    "surface_kind",
    "runs",  # (c, count) runs of c_3 .. c_{g+1}
    "impurity",
    "edge_bound_offset",  # X in |E| >= 3n - X
))):
    __slots__ = ()

    c_schedule = ScheduleResult.c_schedule


def generate_table(
    surface_kind: str, g_range, *, anchor_delta: int = 0
) -> list:
    """Table rows for the given Euler genus values.

    Orientable rows require even g (the surface with h handles has Euler
    genus 2h).  edge_bound_offset is impurity - 3(g-2), the X in the
    edge-count statement |E| >= 3n - X.
    """
    return list(table_rows(surface_kind, g_range, anchor_delta=anchor_delta))


def table_rows(surface_kind: str, g_range, *, anchor_delta: int = 0):
    """The rows of `generate_table` one at a time, each genus checked first."""
    if surface_kind not in SURFACE_KINDS:
        raise BoundsError(f"surface_kind must be one of {SURFACE_KINDS}")
    g_range = list(g_range)
    if g_range and max(g_range) > TABLE_GENUS_CAP:
        raise BoundsError(
            f"table row at Euler genus {max(g_range)} is above the cap of "
            f"{TABLE_GENUS_CAP}"
        )
    for g in g_range:
        if g < 1:
            raise BoundsError("table rows need g >= 1")
        if surface_kind == "orientable" and g % 2 != 0:
            raise BoundsError("orientable surfaces have even Euler genus")
    factor = SURFACES[surface_kind][0]

    def rows():
        for g in g_range:
            res = optimal_schedule(g, g + 1, anchor_delta=anchor_delta)
            imp = factor * res.f - 1
            yield BoundsTableRow(g, surface_kind, res.runs, imp,
                                 imp - 3 * (g - 2))

    return rows()


# Analytic side


# alpha, gamma and E map a row i to (lo, hi): [lo, hi] / 2^scale_bits
class AnalyticContext(namedtuple("AnalyticContext", (
    "g",
    "lam",  # 25 - 11(48332/114345 + (16/33) log 2)
    "alpha",  # i -> (lo, hi), alpha_i
    "k",  # least i >= 7 with alpha_i (g-2) <= 2
    "beta",  # i -> int
    "gamma",  # i -> (lo, hi), beta_i - alpha_i (g-2)
    "E",  # i -> (lo, hi), the error recursion
    "L_lists",  # i -> tuple of s values using c_s = i
    "ell",  # i -> row length
    "precision_bits",
    "tail_bits",
    "scale_bits",  # p = tail_bits + GRID_GUARD_BITS
))):
    __slots__ = ()


@lru_cache(maxsize=None)
def _lambda_at(bits: int) -> Interval:
    # lambda decreases in log 2, so its low end comes from log 2's high end
    ln2 = ln2_interval(bits)
    lam = [25 - 11 * (Fraction(48332, 114345) + Fraction(16, 33) * x)
           for x in (ln2.hi, ln2.lo)]
    return Interval(*lam)


def lambda_interval(precision: int | None = None) -> Interval:
    return _lambda_at(_precision_bits(precision))


def analytic_context(g: int, precision: int | None = None) -> AnalyticContext:
    """All quantities of the analytic schedule for genus g, certified.

    The alpha_7 enclosure starts at 2^-min(precision, TAIL_BITS_START) and
    narrows by 8 bits (the grid with it) whenever a ceiling or a threshold
    test straddles an integer, up to 2^-precision; if that cannot separate
    alpha_i (g-2) from an integer the failure names the index.
    """
    if g < 2:
        raise BoundsError("analytic context needs g >= 2")
    bits = _precision_bits(precision)
    lam = lambda_interval(bits)
    gm2 = g - 2
    tail_bits = min(bits, TAIL_BITS_START)
    while True:
        try:
            return _context_at_precision(g, gm2, lam, bits, tail_bits)
        except _Straddle as st:
            if tail_bits >= bits:
                raise PrecisionError(
                    f"cannot separate alpha_{st.index}(g-2) from an integer "
                    f"for g={g} even at tail precision 2^-{bits}"
                )
            tail_bits = min(tail_bits + 8, bits)


class _Straddle(Exception):
    def __init__(self, index):
        self.index = index


def _context_at_precision(g, gm2, lam, bits, tail_bits) -> AnalyticContext:
    """The context on integer endpoints at the scale 2^-p.

    Each rounding only widens an enclosure.  alpha_7: `Interval.outward`
    floors the low end and ceils the high end.  alpha_i = alpha_7 - S_i,
    S_i = sum_{j=8..i} 12/((j-7)(j-6)(2j-3)): each term goes into S_lo as
    its floor and into S_hi as its ceiling, the floor plus one since no
    term lies on the grid (the odd part of 12 2^p is 3, and the odd factor
    2i-3 >= 13 of the denominator does not divide 3), so alpha_i is in
    [A_lo - S_hi, A_hi - S_lo].  Scaling by g-2 >= 0, subtracting from an
    integer and the sums and positive multiples of the E recursion are
    exact, and max{0, x} is monotone, so each E_i encloses the exact one.
    A decision reads endpoints only (alpha_i (g-2) <= 2 holds when hi <=
    2^(p+1), fails when lo > 2^(p+1)); anything else is a straddle, and
    the caller widens.

    One loop up the rows builds each from the one below: alpha_i, the k
    test and beta_i = certified ceiling up to k, the anchor beta_i above
    k, ell_i and L_i, and the prefix sums of gamma.  The first straddling
    ceiling is held until k is found, so a straddle of the k test at any
    row up to k is reported ahead of it.  E then runs down the rows.
    """
    p = tail_bits + GRID_GUARD_BITS
    a7_lo, a7_hi = alpha7_interval(tail_bits).outward(p)
    top = max(7, 2 * g + 2)
    twelve, two, one = 12 << p, 2 << p, 1 << p
    alpha, beta, gamma, ell, L_lists = {}, {}, {}, {}, {}
    # prefix sums: sum_{7<=j<=i} gamma_j is (c_lo[i-6], c_hi[i-6])
    c_lo, c_hi = [0], [0]
    s_lo = 0
    k = held = None
    b_below = g + 1  # L_7 ends at s = g+1
    for i in range(7, top + 1):
        if i > 7:
            s_lo += twelve // ((i - 7) * (i - 6) * (2 * i - 3))
        alpha[i] = a_lo, a_hi = a7_lo - s_lo - (i - 7), a7_hi - s_lo
        lo, hi = a_lo * gm2, a_hi * gm2
        if k is None:
            if hi <= two:
                k = i
            elif lo <= two:
                raise _Straddle(i)
            b = None if held else certified_ceil(lo, hi, p)
            if b is None:
                held = held or i
                if k is not None:
                    raise _Straddle(held)
                continue
            if not hi <= b << p < lo + one:
                raise RuntimeError(f"gamma_{i} escaped [0,1) despite certified ceil")
        else:
            b = 1 if i == top else beta[k]
        beta[i] = b
        gamma[i] = g_lo, g_hi = (b << p) - hi, (b << p) - lo
        ell[i] = b_below - b
        L_lists[i] = tuple(range(b + 1, b_below + 1))
        b_below = b
        c_lo.append(c_lo[-1] + g_lo)
        c_hi.append(c_hi[-1] + g_hi)
    if k is None:
        raise RuntimeError("k exceeded 2g+2; series evaluation is broken")

    # E_k and the anchor row's E_top are zero (one row when top = k)
    E = dict.fromkeys((k, top), (0, 0))
    # one downward sweep; nxt is the lowest nonempty row above i
    nxt = None
    for i in range(top, 6, -1):
        if ell[i] <= 0:
            continue
        if i < k:
            # with every row above empty (only possible when beta_k < 2)
            # the chain ends at the zero anchor E_k
            j = k if nxt is None else nxt
            (g_lo, g_hi), (gj_lo, gj_hi), (e_lo, e_hi) = gamma[i], gamma[j], E[j]
            lo = (2 * (c_lo[j - 7] - c_lo[i - 6]) + (2 * i - 1) * g_lo
                  - (2 * j - 3) * gj_hi + e_lo)
            hi = (2 * (c_hi[j - 7] - c_hi[i - 6]) + (2 * i - 1) * g_hi
                  - (2 * j - 3) * gj_lo + e_hi)
            E[i] = (max(0, lo), max(0, hi))
        nxt = i
    return AnalyticContext(g, lam, alpha, k, beta, gamma, E, L_lists, ell,
                           bits, tail_bits, p)


def analytic_upper_bound(g: int, precision: int | None = None) -> Fraction:
    """Certified upper endpoint of lambda (g-2) + 2 ceil(sqrt(3/2 (g-2))) + 33."""
    if g < 2:
        raise BoundsError("analytic bound needs g >= 2")
    lam_hi = lambda_interval(precision).hi
    t = ceil_sqrt(3 * (g - 2), 2)
    q = lam_hi.denominator
    return Fraction(lam_hi.numerator * (g - 2) + (2 * t + 33) * q, q)


def verify_theorem(which: str, g_max: int = 2000) -> dict:
    """Direct-calculation sweep of the impurity theorems.

    nonorientable-84: 5 f'(g, g+1) - 1 <= 84 g for g in [1, 299] by the
    recurrence, then 5*analytic - 1 <= 84 g up to g_max by the certified
    closed form.  orientable-67: the same with factor 4, bound 67 g, and
    direct range [1, 670].  Reports the minimum slack and every violation
    (there must be none).  Both read their constants from SURFACES.

    The analytic range goes a run of constant t = ceil(sqrt(3(g-2)/2)) at
    a time, the g with 2(t-1)^2 < 3(g-2) <= 2t^2, which ends at
    2 + 2t^2 // 3.  Along a run the slack's numerator over Q moves by
    exactly per_g Q - factor L per genus, L/Q lambda's upper end in lowest
    terms, so `analytic_upper_bound` is called once per run, at its first
    genus.  The least slack is at that genus when the step is >= 0 (ties go
    to the earlier genus), else at the last, and the negatives are a prefix
    or a suffix of the run, each listed with its own slack.
    """
    if which not in THEOREMS:
        raise BoundsError(f"unknown theorem {which!r}; use "
                          + " or ".join(str(b) for _, b, _ in SURFACES.values()))
    if g_max < 1:
        raise BoundsError("g_max must be >= 1")
    if g_max > VERIFY_GMAX_CAP:
        raise BoundsError(f"g_max {g_max} is above the cap of {VERIFY_GMAX_CAP}")
    kind = THEOREMS[which]
    factor, per_g, dp_top = SURFACES[kind]
    dp_top = min(dp_top, g_max)
    # each slack is carried as its integer numerator over Q, the
    # denominator of lambda's upper end, which every analytic bound's
    # divides; EMAX_PRECISION_BITS is read once, for the whole sweep
    bits = _precision_bits(None) if g_max > dp_top else None
    L, Q = lambda_interval(bits).hi.as_integer_ratio() if bits else (0, 1)
    violations = []
    min_slack = None

    def note(g, num):
        nonlocal min_slack
        if num < 0:
            violations.append({"g": g, "slack": str(Fraction(num, Q))})
        if min_slack is None or num < min_slack[1]:
            min_slack = (g, num)

    for g in range(1, dp_top + 1):
        fin = optimal_schedule(g, g + 1).f
        note(g, (per_g * g - factor * fin + 1) * Q)
    step = per_g * Q - factor * L
    g = dp_top + 1
    while g <= g_max:
        t = ceil_sqrt(3 * (g - 2), 2)
        end = min(2 + 2 * t * t // 3, g_max)
        ub = analytic_upper_bound(g, bits)
        num = (per_g * g + 1) * Q - factor * ub.numerator * (Q // ub.denominator)
        # the slack at h is num + (h - g) step, negative for the h with
        # (h - g) step < -num
        if step > 0:
            low, negs = g, range(g, min(end + 1, g - num // step))
        elif step < 0:
            low, negs = end, range(max(g, g + 1 + num // -step), end + 1)
        else:
            low, negs = g, range(g, end + 1 if num < 0 else g)
        for h in negs or (low,):
            note(h, num + (h - g) * step)
        g = end + 1
    return {
        "theorem": f"{kind}-{per_g}",
        "ok": not violations,
        "direct_range": [1, dp_top],
        "analytic_range": [dp_top + 1, g_max] if g_max > dp_top else None,
        "checked": g_max,
        "min_slack": {"g": min_slack[0], "slack": str(Fraction(min_slack[1], Q))},
        "violations": violations,
    }


def claim1_consistency(g: int, precision: int | None = None) -> dict:
    """Recompute f' under the analytic schedule (c_s = i for s in L_i; no
    flooring) and certify, for every s in [2, g+1]:

        f'(s) <= 2i/(i-6) (g-2) + (z-1)(2i-3) + E_i,   s = beta_i + z.

    beta falls as i rises, so the rows read from the top list s = 2, 3,
    ..., g+1 in order, and one loop steps f' with c_s = i and checks the
    bound at each s; the report lists by row, then s.  The comparison is
    against the lower endpoint of E_i's enclosure, so a pass is a proof.
    f'(s) is an integer ratio fp/fq (the first branch at row i has
    denominator i-6, so fq never grows), and the test is cross-multiplied
    by the positive fq (i-6) 2^p into integers.  At s=2 the two sides agree
    exactly (the anchor row), except for g=2 where the right side's row
    index degenerates and the anchor is checked directly.
    """
    ctx = analytic_context(g, precision)
    gm2 = g - 2
    p = ctx.scale_bits
    fp, fq = f_exact_s2(g), 1  # f'(last)
    last = 2
    failures = []
    undecided = []  # (i, s)
    checked = 0
    for i, L in reversed(ctx.L_lists.items()):
        Ei = ctx.E.get(i)
        for s in L:
            if s < 2:
                continue
            if s > 2:
                if s != last + 1:
                    raise RuntimeError(f"the rows skip or repeat s={last + 1}")
                num = (2 * i - 3) * fq + fp
                if 2 * i * gm2 * fq >= num * (i - 6):
                    fp, fq = 2 * i * gm2, i - 6
                else:
                    fp = num
                last = s
            checked += 1
            if g == 2 and s == 2:
                # degenerate anchor: no valid row index; the anchor is exact
                continue
            if Ei is None:
                raise RuntimeError(f"row {i} has no error term but s={s} uses it")
            z = s - ctx.beta[i]
            den = fq * (i - 6)
            num = fp * (i - 6) - 2 * i * gm2 * fq - (z - 1) * (2 * i - 3) * den
            if num << p <= Ei[0] * den:
                continue
            if num << p > Ei[1] * den:
                rhs_hi = (Fraction(2 * i * gm2, i - 6) + (z - 1) * (2 * i - 3)
                          + Fraction(Ei[1], 1 << p))
                failures.append({"s": s, "i": i, "f": str(Fraction(fp, fq)),
                                 "rhs_hi": str(rhs_hi)})
            else:
                undecided.append((i, s))
    if last != g + 1:
        raise RuntimeError(f"the rows end at s={last}, not at g+1={g + 1}")
    e7_hi = ctx.E.get(7, (0, 0))[1]
    return {
        "g": g,
        "ok": not failures and not undecided,
        "k": ctx.k,
        "checked": checked,
        "failures": sorted(failures, key=lambda r: r["i"]),
        "indeterminate": [s for _, s in sorted(undecided)],
        "E7_hi": str(Fraction(e7_hi, 1 << p)),
        "E7_le_2k_minus_3": e7_hi <= (2 * ctx.k - 3) << p,
    }
