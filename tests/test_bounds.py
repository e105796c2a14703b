"""Recurrence engine, schedule tables, analytic certification.

Two oracle layers anchor this file.  The published tables (nonorientable
g = 1..20, orientable g = 2..40) are frozen below as data and compared
field by field.  Independently of that, `oracle_schedule` re-derives the
whole dynamic program from the recurrence definition with a naive scan
over c (no crossing shortcut, no integer fast path) and must reproduce
optimal_schedule exactly over a wide sweep.  `reference_schedule`, the
per-step loop that the run jumps replaced, must match it with the types
of the values.
"""

import random
from fractions import Fraction
from functools import lru_cache

import conftest
import pytest
from conftest import (
    assert_frozen_record,
    f_closed_form,
    f_lower,
    impurity_bound,
    recurrence_step,
    reference_analytic_context,
    reference_claim1,
    reference_schedule,
    reference_upper_bound,
    reference_verify,
)

import emax.bounds as bounds
from emax import (
    BoundsError,
    PrecisionError,
    analytic_context,
    analytic_upper_bound,
    ceil_sqrt,
    claim1_consistency,
    f_exact_s2,
    generate_table,
    lambda_interval,
    optimal_schedule,
    verify_theorem,
)
from emax.bounds import SCHEDULE_GENUS_CAP, SCHEDULE_STEP_CAP, VERIFY_GMAX_CAP
from emax.cli import main

# Published nonorientable table, g -> (schedule csv, impurity, offset)
TABLE_N = {
    1: ("", 19, 22),
    2: ("7", 84, 84),
    3: ("7,7", 149, 146),
    4: ("8,7,7", 224, 218),
    5: ("8,8,7,7", 299, 290),
    6: ("9,8,8,7,7", 384, 372),
    7: ("9,8,8,7,7,7", 459, 444),
    8: ("10,8,8,8,7,7,7", 534, 516),
    9: ("10,9,8,8,8,7,7,7", 619, 598),
    10: ("10,9,8,8,8,8,7,7,7", 699, 675),
    11: ("11,9,8,8,8,8,8,7,7,7", 784, 757),
    12: ("11,9,9,8,8,8,8,7,7,7,7", 864, 834),
    13: ("11,10,9,8,8,8,8,8,7,7,7,7", 944, 911),
    14: ("12,10,9,8,8,8,8,8,8,7,7,7,7", 1024, 988),
    15: ("12,10,9,9,8,8,8,8,8,8,7,7,7,7", 1109, 1070),
    16: ("12,10,9,9,8,8,8,8,8,8,8,7,7,7,7", 1189, 1147),
    17: ("13,10,9,9,8,8,8,8,8,8,8,7,7,7,7,7", 1269, 1224),
    18: ("13,10,9,9,9,8,8,8,8,8,8,8,7,7,7,7,7", 1359, 1311),
    19: ("13,11,10,9,9,8,8,8,8,8,8,8,8,7,7,7,7,7", 1439, 1388),
    20: ("13,11,10,9,9,8,8,8,8,8,8,8,8,8,7,7,7,7,7", 1519, 1465),
}

# Published orientable table, g -> (impurity, offset)
TABLE_S = {
    2: (67, 67), 4: (179, 173), 6: (307, 295), 8: (427, 409),
    10: (559, 535), 12: (691, 661), 14: (819, 783), 16: (951, 909),
    18: (1087, 1039), 20: (1215, 1161), 22: (1339, 1279),
    24: (1483, 1417), 26: (1607, 1535), 28: (1743, 1665),
    30: (1875, 1791), 32: (2007, 1917), 34: (2139, 2043),
    36: (2275, 2173), 38: (2411, 2303), 40: (2539, 2425),
}

LAMBDA_DIGITS = Fraction("16.653671987470574")


def oracle_schedule(g, s_max, floor_steps=True, anchor_delta=0):
    """Naive re-derivation of the schedule DP.

    Scans every c from 7 up; since the second recurrence branch 2c-3+f
    grows strictly with c and lower-bounds the step value, the scan can
    stop once that branch alone exceeds the best value seen.  Ties keep
    the smallest c.  No other structure of the recurrence is assumed.
    """
    f_prev = Fraction(f_exact_s2(g) + anchor_delta)
    f_values = [f_prev]
    schedule = []
    floored = []
    for s in range(3, s_max + 1):
        best_c = best_val = None
        c = 7
        while True:
            growing = Fraction(2 * c - 3) + f_prev
            if best_val is not None and growing > best_val:
                break
            val = max(Fraction(2 * c * (g - 2), c - 6), growing)
            if best_val is None or val < best_val:
                best_c, best_val = c, val
            c += 1
        if floor_steps and best_val.denominator != 1:
            best_val = Fraction(best_val.numerator // best_val.denominator)
            floored.append(s)
        schedule.append(best_c)
        f_values.append(best_val)
        f_prev = best_val
    return tuple(schedule), tuple(f_values), tuple(floored)


class TestAnchorsAndSimpleForms:
    def test_f_exact_s2(self):
        assert f_exact_s2(0) == 3
        assert [f_exact_s2(g) for g in (1, 2, 3, 10)] == [4, 6, 8, 22]
        with pytest.raises(BoundsError):
            f_exact_s2(-1)

    def test_f_lower(self):
        assert f_lower(1, 2) == 4
        assert f_lower(5, 3) == 15
        with pytest.raises(BoundsError):
            f_lower(1, 1)

    def test_recurrence_step_branches(self):
        # branch1 dominates for big g, branch2 for big f_prev
        assert recurrence_step(50, 7, 0) == Fraction(2 * 7 * 48, 1)
        assert recurrence_step(1, 7, 100) == Fraction(111)
        with pytest.raises(BoundsError):
            recurrence_step(0, 7, 0)
        with pytest.raises(BoundsError):
            recurrence_step(3, 6, 0)

    def test_closed_form_values(self):
        # c=8 for g >= 4: 13(s-2) + 8(g-2)
        assert f_closed_form(10, 11, 8) == 13 * 9 + 8 * 8
        # sphere-ish head: the 2c-3 branch takes over for small g
        assert f_closed_form(2, 2, 7) == 11
        with pytest.raises(BoundsError):
            f_closed_form(3, 0, 7)
        with pytest.raises(BoundsError):
            f_closed_form(3, 3, 5)


def assert_matches_oracle(g, s_max, every_step=False, **kw):
    """optimal_schedule(g, s_max) gives the oracle's schedule, last value and
    floored steps; with every_step, each f'(g, s) for s <= s_max is also the
    oracle's, an int when integral and a Fraction otherwise."""
    sched, values, floored = oracle_schedule(g, s_max, **kw)
    res = optimal_schedule(g, s_max, **kw)
    assert (res.c_schedule, res.f, res.floored_steps) == \
        (sched, values[-1], floored), (g, s_max, kw)
    if every_step:
        for s, want in enumerate(values, start=2):
            f = optimal_schedule(g, s, **kw).f
            assert f == want, (g, s, kw)
            assert type(f) is int or f.denominator > 1


class TestScheduleAgainstNaiveOracle:
    def test_full_sweep_small_genus(self):
        for g in range(1, 61):
            assert_matches_oracle(g, g + 1, every_step=True)

    @pytest.mark.parametrize("g", [80, 100, 150])
    def test_spot_checks_larger_genus(self, g):
        assert_matches_oracle(g, g + 1)

    def test_unfloored_sweep(self):
        # s_max g/2 + 2 ends inside a run, 3g+5 runs far past g+1
        for g in [*range(1, 41), 150]:
            for s_max in (g // 2 + 2, g + 1, 3 * g + 5):
                assert_matches_oracle(g, s_max, every_step=g <= 40,
                                      floor_steps=False)

    def test_anchor_delta_sweep(self):
        # delta 50 pulls the crossing down to c = 7; g = 1, 2 have g-2 <= 0
        for g in (1, 2, 3, 9, 40):
            for delta in (-3, -1, 1, 3, 50):
                for s_max in (g // 2 + 2, g + 1, 3 * g + 5):
                    assert_matches_oracle(g, s_max, every_step=True,
                                          anchor_delta=delta)

    def test_validation(self):
        with pytest.raises(BoundsError):
            optimal_schedule(0, 3)
        with pytest.raises(BoundsError):
            optimal_schedule(3, 1)
        with pytest.raises(BoundsError, match="anchor"):
            optimal_schedule(3, 4, anchor_delta=-9)
        with pytest.raises(BoundsError, match="cap"):
            optimal_schedule(13, SCHEDULE_STEP_CAP + 1)
        assert optimal_schedule(SCHEDULE_GENUS_CAP, 3).c_schedule
        with pytest.raises(BoundsError, match="above the cap"):
            optimal_schedule(SCHEDULE_GENUS_CAP + 1, 3)


def assert_same_schedule(res, ref):
    assert res.c_schedule == ref.c_schedule
    assert (res.f, res.floored_steps) == (ref.f, ref.floored_steps)
    # == alone would let an integral Fraction stand in for an int
    assert type(res.f) is type(ref.f)
    assert type(res.f) is int or res.f.denominator > 1


class TestRunJump:
    """`optimal_schedule` jumps whole runs of constant c and finds each
    crossing from the root of a quadratic; the per-step loop it replaced,
    `reference_schedule`, must give the same result."""

    def test_equals_the_per_step_loop(self):
        for g in [*range(1, 701), 1000, 3000]:
            assert_same_schedule(optimal_schedule(g, g + 1),
                                 reference_schedule(g, g + 1))

    @pytest.mark.parametrize("g", [10**6, 10**8, SCHEDULE_GENUS_CAP])
    def test_equals_the_per_step_loop_at_large_genus(self, g):
        # at s = 3 the crossing, near sqrt(6g), comes from the root of a
        # quadratic with discriminant 96g + 33
        for s_max in (3, 50):
            for floor_steps in (True, False):
                assert_same_schedule(
                    optimal_schedule(g, s_max, floor_steps=floor_steps),
                    reference_schedule(g, s_max, floor_steps=floor_steps),
                )

    def test_runs_shape(self):
        # runs of at least one step, adjacent c distinct, s_max - 2 steps
        cases = [(g, s_max, floor_steps, delta)
                 for g in (*range(1, 61), 150, 670, 3000, 10**6)
                 for s_max in (2, 3, g // 2 + 2, g + 1, 3 * g + 5)
                 if s_max <= 10**4
                 for floor_steps in (True, False) for delta in (0, 3)]
        for g, s_max, floor_steps, delta in cases:
            kw = {"floor_steps": floor_steps, "anchor_delta": delta}
            res = optimal_schedule(g, s_max, **kw)
            runs = res.runs
            assert all(count >= 1 for _, count in runs), (g, s_max, kw)
            assert all(a[0] != b[0] for a, b in zip(runs, runs[1:])), (g, s_max, kw)
            assert sum(count for _, count in runs) == s_max - 2, (g, s_max, kw)
            assert res.c_schedule == \
                reference_schedule(g, s_max, **kw).c_schedule, (g, s_max, kw)

    def test_equals_the_per_step_loop_off_the_diagonal(self):
        for g in range(1, 121):
            for s_max in (2, 3, 5, 50, g + 1, 3 * g + 5):
                for floor_steps in (True, False):
                    for delta in (0, 1, 3, 50):
                        kw = {"floor_steps": floor_steps, "anchor_delta": delta}
                        assert_same_schedule(
                            optimal_schedule(g, s_max, **kw),
                            reference_schedule(g, s_max, **kw),
                        )

    def test_c_never_increases_in_s(self):
        # the crossing only moves down, which is what lets a run be jumped
        for g in range(1, 400):
            for floor_steps in (True, False):
                for delta in (0, 1, 3, 50):
                    sched = optimal_schedule(g, 3 * g + 5, floor_steps=floor_steps,
                                             anchor_delta=delta).c_schedule
                    assert all(a >= b for a, b in zip(sched, sched[1:])), \
                        (g, floor_steps, delta)


class TestRises:
    """The two lower bounds on the floored recurrence that let
    `verify_theorem` skip blocks of its direct range: f' rises by at least
    11 per step and by at least 2 per unit of genus."""

    def test_the_diagonal_rises_by_at_least_13(self):
        f = [optimal_schedule(g, g + 1).f for g in range(1, 3002)]
        rises = [b - a for a, b in zip(f, f[1:])]
        assert min(rises) == 13

    def test_step_and_genus_rises_on_a_seeded_grid(self):
        rng = random.Random(37)
        for _ in range(300):
            g = rng.randint(1, 3000)
            s = rng.randint(3, 3 * g + 5)
            here = optimal_schedule(g, s).f
            assert here - optimal_schedule(g, s - 1).f >= 11, (g, s)
            assert optimal_schedule(g + 1, s).f - here >= 2, (g, s)
            assert optimal_schedule(g + 1, 2).f - optimal_schedule(g, 2).f == 2


class TestFlooring:
    def test_first_flooring_is_g13_s3(self):
        for g in range(1, 13):
            assert optimal_schedule(g, g + 1).floored_steps == ()
        res = optimal_schedule(13, 13 + 1)
        assert res.floored_steps[0] == 3

    def test_g13_s3_value(self):
        raw = optimal_schedule(13, 3, floor_steps=False)
        assert raw.f == Fraction(242, 5)
        floored = optimal_schedule(13, 3)
        assert floored.f == 48
        assert floored.floored_steps == (3,)

    def test_flooring_never_raises_values(self):
        for g in (13, 17, 20):
            for s in range(2, g + 2):
                assert optimal_schedule(g, s).f <= \
                    optimal_schedule(g, s, floor_steps=False).f, (g, s)


class TestPublishedTables:
    def test_nonorientable_rows(self):
        rows = generate_table("nonorientable", range(1, 21))
        assert [r.g for r in rows] == list(range(1, 21))
        for r in rows:
            sched, impurity, offset = TABLE_N[r.g]
            assert ",".join(str(c) for c in r.c_schedule) == sched, r.g
            assert r.impurity == impurity, r.g
            assert r.edge_bound_offset == offset, r.g
            assert r.surface_kind == "nonorientable"

    def test_orientable_rows(self):
        rows = generate_table("orientable", range(2, 41, 2))
        for r in rows:
            impurity, offset = TABLE_S[r.g]
            assert (r.impurity, r.edge_bound_offset) == (impurity, offset), r.g

    def test_impurity_bound_matches_tables(self):
        assert impurity_bound(1, "nonorientable") == 19
        assert impurity_bound(10, "nonorientable") == 699
        assert impurity_bound(10, "orientable") == 559

    def test_offset_is_impurity_minus_3g_minus_6(self):
        for r in generate_table("nonorientable", range(1, 21)):
            assert r.edge_bound_offset == r.impurity - 3 * (r.g - 2)

    def test_validation(self):
        with pytest.raises(BoundsError):
            generate_table("nonorientable", [0])
        with pytest.raises(BoundsError, match="even"):
            generate_table("orientable", [3])
        with pytest.raises(BoundsError):
            generate_table("moebius", [2])
        with pytest.raises(BoundsError):
            impurity_bound(3, "orientable")


class TestRecords:
    def test_schedule_result(self):
        res = optimal_schedule(13, 4)
        assert_frozen_record(
            res, ("runs", "f", "floored_steps"),
            "ScheduleResult(runs=((11, 1), (10, 1)), f=65, floored_steps=(3,))",
        )
        assert (res.c_schedule, res.f) == ((11, 10), 65)
        res = optimal_schedule(13, 14)
        assert res.runs == ((11, 1), (10, 1), (9, 1), (8, 5), (7, 4))
        assert res.c_schedule == (11, 10, 9, 8, 8, 8, 8, 8, 7, 7, 7, 7)
        with pytest.raises(AttributeError):
            res.c_schedule = ()

    def test_table_row(self):
        row = generate_table("nonorientable", [3])[0]
        assert_frozen_record(
            row,
            ("g", "surface_kind", "runs", "impurity", "edge_bound_offset"),
            "BoundsTableRow(g=3, surface_kind='nonorientable', "
            "runs=((7, 2),), impurity=149, edge_bound_offset=146)",
        )
        assert row.c_schedule == (7, 7)
        assert row != generate_table("nonorientable", [4])[0]
        assert row == (3, "nonorientable", ((7, 2),), 149, 146)
        with pytest.raises(AttributeError):
            row.c_schedule = ()

    def test_analytic_context(self):
        # its dict fields make it unhashable, as they did the dataclass
        ctx = analytic_context(9)
        fields = ("g", "lam", "alpha", "k", "beta", "gamma", "E", "L_lists",
                  "precision_bits", "tail_bits", "scale_bits")
        text = ", ".join(f"{f}={getattr(ctx, f)!r}" for f in fields)
        assert_frozen_record(ctx, fields, f"AnalyticContext({text})",
                             hashable=False)
        assert text.startswith("g=9, lam=<emax.intervals.Interval object")
        with pytest.raises(TypeError):
            hash(ctx)
        assert ctx != analytic_context(10)


class TestAnchorSensitivity:
    def test_delta_shifts_the_anchor(self):
        assert optimal_schedule(1, 2, anchor_delta=1).f == 5

    def test_tables_respond_to_delta(self):
        base = generate_table("nonorientable", range(1, 6))
        for delta in (-1, 1):
            moved = generate_table("nonorientable", range(1, 6),
                                   anchor_delta=delta)
            assert any(
                a.impurity != b.impurity for a, b in zip(base, moved)
            ), delta


class TestLambda:
    def test_frozen_digits(self):
        lam = lambda_interval()
        assert lam.lo >= Fraction("16.6536719874705")
        assert lam.hi <= Fraction("16.6536719874706")
        assert lam.width < Fraction(1, 10**70)

    def test_decimal_shorthand_misses_by_four_ulp_of_its_precision(self):
        # the value is 16.65367..., so a 16.6533 +/- 5e-5 window excludes
        # it; the acceptance gate records this as a faithful failure
        lam = lambda_interval()
        assert lam.lo >= Fraction("16.6533") + Fraction(5, 10**5)

    def test_precision_parameter(self):
        wide = lambda_interval(precision=48)
        tight = lambda_interval(precision=256)
        assert tight.width < wide.width
        assert wide.lo <= tight.hi and tight.lo <= wide.hi

    def test_env_variable_controls_default(self, monkeypatch):
        monkeypatch.setenv("EMAX_PRECISION_BITS", "64")
        lam = lambda_interval()
        assert lam.width <= Fraction(11 * 16, 33 * 2**64)
        assert lam.width > Fraction(1, 2**200)
        monkeypatch.delenv("EMAX_PRECISION_BITS")
        assert lambda_interval().width < Fraction(1, 2**200)

    def test_precision_floor(self):
        with pytest.raises(BoundsError):
            lambda_interval(precision=4)


class TestAnalyticContext:
    def test_small_genus_structure(self):
        ctx = analytic_context(3)
        assert ctx.k == 7
        assert ctx.beta[7] == 1  # k rows start at beta_k = 1 here
        # row 7 and the anchor row 8, which is empty as beta_k = 1
        assert ctx.L_lists == {7: range(2, 5), 8: range(2, 2)}
        assert ctx.beta == {7: 1, 8: 1}
        covered = sorted(s for L in ctx.L_lists.values() for s in L)
        assert covered == list(range(2, 3 + 2))

    def test_beta_k_is_two_for_most_genera(self):
        for g in (4, 6, 7, 20, 100):
            ctx = analytic_context(g)
            assert ctx.beta[ctx.k] == 2, g

    def test_beta_k_one_exceptions(self):
        exceptions = [
            g for g in range(3, 201)
            if analytic_context(g).beta[analytic_context(g).k] == 1
        ]
        assert exceptions == [3, 5]

    def test_k_growth_bound(self):
        for g in range(2, 200, 7):
            ctx = analytic_context(g)
            assert 7 <= ctx.k <= ceil_sqrt(3 * (g - 2), 2) + 7

    @pytest.mark.parametrize("g", [2, 50, 1000, 20000, 10**6, 10**8])
    def test_big_integer_rows_stop_at_k(self, g):
        # rows 7..k and the anchor row 2g+2 are stored, as ranges; at g = 2
        # the anchor would sit below row 7, so k = 7 is the only row
        ctx = analytic_context(g)
        k = ctx.k
        assert len(ctx.alpha) == k - 6
        assert list(ctx.alpha) == list(ctx.gamma) == list(range(7, k + 1))
        rows = [*range(7, k + 1), 2 * g + 2] if g > 2 else [7]
        assert list(ctx.beta) == list(ctx.L_lists) == rows
        assert all(type(L) is range for L in ctx.L_lists.values())

    def test_validation(self):
        with pytest.raises(BoundsError):
            analytic_context(1)


class TestAnalyticUpperBound:
    def test_frozen_small_values(self):
        assert analytic_upper_bound(2) == 33
        val = analytic_upper_bound(3)
        assert abs(val - (LAMBDA_DIGITS + 37)) < Fraction(1, 10**9)

    def test_dominates_the_recurrence(self):
        for g in range(2, 120):
            fin = optimal_schedule(g, g + 1).f
            assert fin <= analytic_upper_bound(g), g

    def test_validation(self):
        with pytest.raises(BoundsError):
            analytic_upper_bound(1)


class TestClaim1:
    @pytest.mark.parametrize("g", [2, 3, 5, 13, 50])
    def test_consistent_at_spot_genera(self, g):
        rep = claim1_consistency(g)
        assert rep["ok"], rep
        assert rep["failures"] == [] and rep["indeterminate"] == []
        assert rep["checked"] == g
        assert rep["E7_le_2k_minus_3"] is True

    def test_error_term_reported(self):
        # g=10 accumulates a nonzero error on row 7; g=9 happens not to
        assert Fraction(claim1_consistency(10)["E7_hi"]) > 0
        assert Fraction(claim1_consistency(9)["E7_hi"]) == 0

    @pytest.mark.parametrize("sign", [-1, 1])
    def test_misses_are_listed_by_row_then_s(self, monkeypatch, sign):
        # E_i far below every closed form fails each s, and an enclosure
        # around it leaves each s undecided; either list runs by row, then s
        ctx = analytic_context(50)
        big = 1 << (ctx.scale_bits + 20)
        E = {i: (-big, sign * big) for i in ctx.E}
        monkeypatch.setattr(bounds, "analytic_context",
                            lambda g, precision=None: ctx._replace(E=E))
        rep = claim1_consistency(50)
        rows = [(i, s) for i, L in sorted(ctx.L_lists.items()) for s in L]
        assert len(rows) == rep["checked"] == 50 and rep["ok"] is False
        if sign < 0:
            assert [(r["i"], r["s"]) for r in rep["failures"]] == rows
            assert rep["indeterminate"] == []
        else:
            assert rep["failures"] == []
            assert rep["indeterminate"] == [s for _, s in rows]


def claim1_per_s(ctx):
    """Claim 1's report on a given integer context, one test per s on
    Fraction values, and each row's branch at its first step (True for
    branch 1): the per-s loop that one test per row replaced, an oracle
    for `claim1_consistency` on doctored contexts."""
    g, gm2, unit = ctx.g, ctx.g - 2, Fraction(1, 1 << ctx.scale_bits)
    f, last, checked = Fraction(f_exact_s2(g)), 1, 0
    failures, undecided, first_branch = [], [], {}
    for i, L in sorted(ctx.L_lists.items(), reverse=True):
        for s in L:
            if s < 2:
                continue
            if s != last + 1:
                raise RuntimeError(f"the rows skip or repeat s={last + 1}")
            one = Fraction(2 * i * gm2, i - 6)
            if s > 2:
                first_branch.setdefault(i, one >= 2 * i - 3 + f)
                f = max(one, 2 * i - 3 + f)
            last, checked = s, checked + 1
            rhs = one + (s - ctx.beta[i] - 1) * (2 * i - 3)
            lo, hi = ctx.E[i]
            if f > rhs + lo * unit and f > rhs + hi * unit:
                failures.append({"s": s, "i": i, "f": str(f),
                                 "rhs_hi": str(rhs + hi * unit)})
            elif f > rhs + lo * unit:
                undecided.append((i, s))
    e7_hi = ctx.E.get(7, (0, 0))[1]
    return {
        "g": g,
        "ok": not failures and not undecided,
        "k": ctx.k,
        "checked": checked,
        "failures": sorted(failures, key=lambda r: r["i"]),
        "indeterminate": [s for _, s in sorted(undecided)],
        "E7_hi": str(e7_hi * unit),
        "E7_le_2k_minus_3": e7_hi * unit <= 2 * ctx.k - 3,
    }, first_branch


class TestClaim1Rows:
    """One test per row against `claim1_per_s`."""

    def test_true_contexts(self):
        for g in list(range(2, 80)) + [1000]:
            assert claim1_consistency(g) == claim1_per_s(analytic_context(g))[0], g

    @pytest.mark.parametrize("g", [2, 200, 1000])
    def test_rows_that_pass_fail_and_stay_undecided(self, g, monkeypatch):
        # the rows that open with a branch 1 step and those that open with
        # a branch 2 step each take turns: the true E (a pass), E far below
        # every closed form (a failure) and an enclosure around it (undecided)
        ctx = analytic_context(g)
        first_branch = claim1_per_s(ctx)[1]
        big = 1 << (ctx.scale_bits + 40)
        E = dict(ctx.E)
        for branch in (True, False):
            rows = sorted(i for i, b in first_branch.items() if b is branch)
            for n, i in enumerate(rows):
                E[i] = (E[i], (-big, -big), (-big, big))[(n + 1) % 3]
        doctored = ctx._replace(E=E)
        monkeypatch.setattr(bounds, "analytic_context",
                            lambda g, precision=None: doctored)
        rep, want = claim1_consistency(g), claim1_per_s(doctored)[0]
        assert rep == want
        if g == 2:
            # the anchor s = 2 is tested on its own, in row 7 with z = 2
            assert [r["s"] for r in rep["failures"]] == [2, 3]
            return
        row_of = {s: i for i, L in ctx.L_lists.items() for s in L}
        failed = {r["i"] for r in rep["failures"]}
        undecided = {row_of[s] for s in rep["indeterminate"]}
        for branch in (True, False):
            rows = {i for i, b in first_branch.items() if b is branch}
            assert rows & failed and rows & undecided and rows - failed - undecided
        assert any("/" in r["f"] for r in rep["failures"])

    def test_the_anchor_is_tested_on_its_own(self, monkeypatch):
        # s = 2 moved to the front of row k, whose first step takes branch 1
        # at g = 50: with E_k = -1 the anchor passes and every later s fails
        ctx = analytic_context(50)
        k, top = ctx.k, 2 * 50 + 2
        assert ctx.L_lists[top] == range(2, 3) and claim1_per_s(ctx)[1][k] is True
        L = {**ctx.L_lists, top: (), k: (2, *ctx.L_lists[k])}
        E = {**ctx.E, k: (-(1 << ctx.scale_bits),) * 2}
        doctored = ctx._replace(L_lists=L, E=E)
        monkeypatch.setattr(bounds, "analytic_context",
                            lambda g, precision=None: doctored)
        rep = claim1_consistency(50)
        assert rep == claim1_per_s(doctored)[0]
        assert [r["s"] for r in rep["failures"]] == list(ctx.L_lists[k])

    @pytest.mark.parametrize("g", [2, 3, 50, 1000])
    def test_rows_held_as_tuples_give_the_same_report(self, g, monkeypatch):
        # a row that is not a range is audited entry by entry, and a right
        # one passes
        ctx = analytic_context(g)
        want = claim1_consistency(g)
        rows = {i: tuple(L) for i, L in ctx.L_lists.items()}
        monkeypatch.setattr(bounds, "analytic_context",
                            lambda g, precision=None: ctx._replace(L_lists=rows))
        assert claim1_consistency(g) == want

    @pytest.mark.parametrize("doctor", ["gap", "repeat"])
    def test_a_fault_inside_a_row_names_its_first_s(self, doctor, monkeypatch):
        ctx = analytic_context(200)
        i, L = next((i, L) for i, L in ctx.L_lists.items() if len(L) >= 4)
        row = (*L[:2], L[1], *L[3:]) if doctor == "repeat" else (*L[:2], *L[3:])
        doctored = ctx._replace(L_lists={**ctx.L_lists, i: row})
        message = f"the rows skip or repeat s={L[2]}"
        with pytest.raises(RuntimeError, match=f"^{message}$"):
            claim1_per_s(doctored)
        monkeypatch.setattr(bounds, "analytic_context",
                            lambda g, precision=None: doctored)
        with pytest.raises(RuntimeError, match=f"^{message}$"):
            claim1_consistency(200)


ORACLE_GENERA = list(range(2, 151)) + [250, 600, 1000]
DECIDED = ("g", "ok", "k", "checked", "failures", "indeterminate",
           "E7_le_2k_minus_3")


@lru_cache(maxsize=None)
def fraction_engine(g, precision=None):
    return reference_analytic_context(g, precision), reference_claim1(g, precision)


@lru_cache(maxsize=None)
def straddling_at_tail_8() -> dict:
    """g -> PrecisionError message, for the g in 2..1000 whose context
    cannot be decided on the 2^-8 alpha_7 enclosure."""
    failed = {}
    for g in range(2, 1001):
        try:
            analytic_context(g, precision=8)
        except PrecisionError as err:
            failed[g] = str(err)
    return failed


def assert_rows_equal(ctx, ref):
    """k, the tail precision and rows 7..k and 2g+2 equal the reference's,
    which keeps every row, and each reference row left out is empty at
    beta_k."""
    g, k = ref.g, ref.k
    assert (ctx.k, ctx.tail_bits) == (k, ref.tail_bits), g
    kept = [i for i in ref.L_lists if i <= k or i == 2 * g + 2]
    assert list(ctx.beta) == list(ctx.L_lists) == kept, g
    assert all(type(L) is range for L in ctx.L_lists.values()), g
    assert {i: (ctx.beta[i], tuple(L), len(L)) for i, L in ctx.L_lists.items()} == {
        i: (ref.beta[i], ref.L_lists[i], ref.ell[i]) for i in kept}, g
    for i in ref.L_lists.keys() - kept:  # rows k+1..2g+1
        assert (ref.beta[i], ref.L_lists[i], ref.ell[i]) == (ref.beta[k], (), 0), (g, i)


def encloses(pair, p, ref) -> bool:
    """[lo, hi] / 2^p contains the Fraction interval ref."""
    lo, hi = pair
    return (lo * ref.lo.denominator <= ref.lo.numerator << p
            and ref.hi.numerator << p <= hi * ref.hi.denominator)


class TestIntegerEngine:
    """The integer engine against the exact Fraction engine in conftest."""

    @pytest.mark.parametrize("precision", [None, 8])
    def test_decided_values_equal_the_fraction_engine(self, precision):
        # at precision 8 the tail starts and ends at 2^-8, so a genus that
        # straddles there must fail with the reference's message
        genera = ORACLE_GENERA if precision is None else range(2, 151)
        for g in genera:
            try:
                ref, want = fraction_engine(g, precision)
            except PrecisionError as err:
                with pytest.raises(PrecisionError) as got:
                    analytic_context(g, precision)
                assert str(got.value) == str(err), g
                continue
            ctx = analytic_context(g, precision)
            assert_rows_equal(ctx, ref)
            rep = claim1_consistency(g, precision)
            assert {key: rep[key] for key in DECIDED} == {
                key: want[key] for key in DECIDED}, g

    def test_enclosures_contain_the_fraction_ones(self):
        # alpha and gamma hold rows 7..k only, as no row above k reads them;
        # the reference keeps every row, so each of ours encloses its row
        for g in ORACLE_GENERA:
            ctx = analytic_context(g)
            ref, want = fraction_engine(g)
            p = ctx.scale_bits
            assert p == ctx.tail_bits + bounds.GRID_GUARD_BITS
            for name in ("alpha", "gamma", "E"):
                new, old = getattr(ctx, name), getattr(ref, name)
                rows = set(old) if name == "E" else set(range(7, ctx.k + 1))
                assert set(new) == rows, (g, name)
                for i in rows:
                    assert encloses(new[i], p, old[i]), (g, name, i)
            assert Fraction(claim1_consistency(g)["E7_hi"]) >= Fraction(want["E7_hi"])

    def test_the_ladder_gives_up_where_the_fraction_engine_does(self):
        # at precision 8 the ladder has no room to widen, so every straddle
        # is final and the error names the first straddling row of the
        # same scan order
        failed = straddling_at_tail_8()
        assert len(failed) > 50
        for g in sorted(failed)[:12]:
            with pytest.raises(PrecisionError) as want:
                reference_analytic_context(g, precision=8)
            assert failed[g] == str(want.value), g
            assert f"for g={g} even at tail precision 2^-8" in failed[g]

    @pytest.mark.parametrize("g, row", [(628, 35), (802, 39), (849, 40), (896, 41)])
    def test_a_k_test_straddle_comes_before_an_earlier_ceiling_straddle(self, g, row):
        # at these genera a ceiling below k straddles too, at a lower row
        # than the k test's straddle, which the error must still name
        with pytest.raises(PrecisionError) as want:
            reference_analytic_context(g, precision=8)
        with pytest.raises(PrecisionError) as got:
            analytic_context(g, precision=8)
        assert str(got.value) == str(want.value)
        assert f"alpha_{row}(g-2)" in str(got.value)

    def test_the_ladder_climbs_like_the_fraction_engine(self, monkeypatch):
        # started at 2^-8 below the default precision, the genera that
        # straddle there widen instead of failing, and decide as the
        # reference does after the same climb
        monkeypatch.setattr(bounds, "TAIL_BITS_START", 8)
        climbed = {g: analytic_context(g) for g in straddling_at_tail_8()}
        assert all(ctx.tail_bits > 8 for ctx in climbed.values())
        for g in sorted(climbed)[:12]:
            ctx, ref = climbed[g], reference_analytic_context(g)
            assert_rows_equal(ctx, ref)
            rep, want = claim1_consistency(g), reference_claim1(g)
            assert {key: rep[key] for key in DECIDED} == {
                key: want[key] for key in DECIDED}, g

    def test_upper_bound_equals_the_fraction_engine(self):
        for g in range(2, 3001):
            assert analytic_upper_bound(g) == reference_upper_bound(g), g

    @pytest.mark.parametrize("which", ["84", "67"])
    def test_verify_reports_equal_the_fraction_engine(self, which, monkeypatch):
        got = verify_theorem(which, 2000)
        monkeypatch.setattr(bounds, "analytic_upper_bound", reference_upper_bound)
        assert got == verify_theorem(which, 2000)


class TestVerifyTheorem:
    def test_aliases(self):
        a = verify_theorem("84", g_max=50)
        b = verify_theorem("nonorientable-84", g_max=50)
        assert a == b
        assert a["theorem"] == "nonorientable-84"

    @pytest.mark.parametrize("names, theorem, top", [
        (("84", "nonorientable-84"), "nonorientable-84", 299),
        (("67", "orientable-67"), "orientable-67", 670),
    ])
    def test_each_name_reads_its_surface_row(self, names, theorem, top):
        # the direct range ends at 299 or 670, then the analytic one starts
        for which in names:
            rep = verify_theorem(which, g_max=top + 1)
            assert rep["theorem"] == theorem
            assert rep["direct_range"] == [1, top]
            assert rep["analytic_range"] == [top + 1, top + 1]

    def test_direct_only_report_shape(self):
        rep = verify_theorem("67", g_max=100)
        assert rep["ok"] is True
        assert rep["direct_range"] == [1, 100]
        assert rep["analytic_range"] is None
        assert rep["violations"] == []
        assert rep["min_slack"]["g"] >= 1

    def test_analytic_range_engages_past_the_direct_top(self):
        rep = verify_theorem("84", g_max=320)
        assert rep["direct_range"] == [1, 299]
        assert rep["analytic_range"] == [300, 320]
        assert rep["ok"] is True

    def test_unknown_theorem(self):
        with pytest.raises(BoundsError, match="84 or 67"):
            verify_theorem("109")
        with pytest.raises(BoundsError) as info:
            verify_theorem("orientable-84")
        assert str(info.value) == "unknown theorem 'orientable-84'; use 84 or 67"
        with pytest.raises(BoundsError, match="g_max"):
            verify_theorem("84", g_max=0)


def run_ends(dp_top, count=10):
    """The last genus of each of the first `count` runs of constant
    t = ceil(sqrt(3(g-2)/2)) past dp_top."""
    t = ceil_sqrt(3 * (dp_top - 1), 2)
    return [2 + 2 * u * u // 3 for u in range(t, t + count)]


def verify_sizes(dp_top):
    """The g_max at which a run walk can slip: the direct range's end and
    the genus after it, each of the first 10 run ends and the genus after
    it, and 2000."""
    ends = run_ends(dp_top)
    return sorted({dp_top, dp_top + 1, 2000, *ends, *(e + 1 for e in ends)})


class TestVerifyRuns:
    """The analytic range, walked one run of constant t at a time, against
    the per-genus oracle `reference_verify`."""

    @pytest.mark.parametrize("which", ["84", "67"])
    @pytest.mark.parametrize("mode", ["default", "negative step", "8 bits"])
    def test_reports_equal_the_per_genus_oracle(self, which, mode, monkeypatch):
        # a negative step takes one off the bound per unit of genus, which
        # puts it under factor * lambda: the slack falls along every run and
        # every analytic genus fails
        kind = bounds.THEOREMS[which]
        factor, per_g, dp_top = bounds.SURFACES[kind]
        if mode == "negative step":
            monkeypatch.setitem(bounds.SURFACES, kind, (factor, per_g - 1, dp_top))
        if mode == "8 bits":
            monkeypatch.setenv("EMAX_PRECISION_BITS", "8")
        for g_max in verify_sizes(dp_top):
            got = verify_theorem(which, g_max)
            assert got == reference_verify(which, g_max), g_max
            if mode == "negative step" and g_max > dp_top:
                assert len(got["violations"]) >= g_max - dp_top
                assert got["min_slack"]["g"] == g_max

    @pytest.mark.parametrize("which", ["84", "67"])
    def test_violations_that_open_a_run(self, which, monkeypatch):
        # with the direct range cut to 100 the closed form fails the first
        # genera of many runs and holds on the rest of each
        kind = bounds.THEOREMS[which]
        factor, per_g, _ = bounds.SURFACES[kind]
        monkeypatch.setitem(bounds.SURFACES, kind, (factor, per_g, 100))
        got = verify_theorem(which, 2000)
        assert got == reference_verify(which, 2000)
        failed = {v["g"] for v in got["violations"]}
        assert any(e not in failed and e + 1 in failed for e in run_ends(100, 30))

    @pytest.mark.parametrize("lift", [0, 30])
    def test_violations_that_close_a_run(self, lift, monkeypatch):
        # a slack that falls along each run: the closed form's t term
        # swapped for a constant per run that puts the zero crossing near
        # the run's middle, or with lift 30 lifts every slack above zero,
        # where the least one ends a run; the direct range stops at g = 2
        monkeypatch.setitem(bounds.SURFACES, "nonorientable", (5, 80, 2))
        lam = bounds.lambda_interval().hi

        def skewed(g, precision=None):
            t = ceil_sqrt(3 * (g - 2), 2)
            mid = 2 + (2 * t * t - 2 * t + 1) // 3
            shift = ((80 - 5 * lam) * mid + 10 * lam + 1) // 5 - lift
            return reference_upper_bound(g, precision) - 2 * t - 33 + shift

        want = reference_verify("84", 2000, skewed)
        monkeypatch.setattr(bounds, "analytic_upper_bound", skewed)
        got = verify_theorem("84", 2000)
        assert got == want
        failed = {v["g"] for v in got["violations"]}
        ends = run_ends(2, 60)
        if lift:
            assert not failed and got["min_slack"]["g"] in ends
        else:
            assert all(e in failed and e + 1 not in failed for e in ends[10:] if e < 2000)

    @pytest.mark.parametrize("which", ["84", "67"])
    def test_flat_runs(self, which, monkeypatch):
        # lambda's upper end set to bound / factor leaves the slack constant
        # along each run, and below zero: every analytic genus fails
        factor, per_g, dp_top = bounds.SURFACES[bounds.THEOREMS[which]]
        monkeypatch.setattr(bounds, "lambda_interval", lambda precision=None:
                            bounds.Interval(Fraction(per_g, factor)))
        got = verify_theorem(which, 2000)
        assert got == reference_verify(which, 2000, bounds.analytic_upper_bound)
        assert [v["g"] for v in got["violations"]][-(2000 - dp_top):] == list(
            range(dp_top + 1, 2001))

    @pytest.mark.parametrize("which, calls", [("84", 367), ("67", 357)])
    def test_one_closed_form_per_run(self, which, calls, monkeypatch):
        # at the cap, one call per distinct t of the analytic range, where
        # a call per genus made 99,701 and 99,330
        seen = []
        closed_form = bounds.analytic_upper_bound
        monkeypatch.setattr(bounds, "analytic_upper_bound",
                            lambda g, bits: seen.append(g) or closed_form(g, bits))
        rep = verify_theorem(which, VERIFY_GMAX_CAP)
        assert rep["ok"] is True
        dp_top = rep["direct_range"][1]
        ts = {ceil_sqrt(3 * (g - 2), 2) for g in range(dp_top + 1, VERIFY_GMAX_CAP + 1)}
        assert len(seen) == len(ts) == calls
        assert seen[0] == dp_top + 1 and seen == sorted(seen)


class TestDirectWalk:
    """The direct range, walked down from its top in blocks that the rises
    of `TestRises` bound, against the per-genus oracle `reference_verify`."""

    @staticmethod
    def sizes(dp_top):
        return [*range(1, 41), dp_top - 1, dp_top]

    @pytest.mark.parametrize("which", ["84", "67"])
    def test_reports_equal_the_per_genus_oracle(self, which):
        dp_top = bounds.SURFACES[bounds.THEOREMS[which]][2]
        for g_max in self.sizes(dp_top):
            assert verify_theorem(which, g_max) == reference_verify(which, g_max), g_max

    @pytest.mark.parametrize("which", ["84", "67"])
    @pytest.mark.parametrize("offset", [0, -2])
    def test_a_bound_that_never_falls_going_down(self, which, offset, monkeypatch):
        # per_g = 13 factor + offset: the slack's lower bound holds or rises
        # going down, so the first nonnegative slack above the least skips
        # every genus below it, here the last few; every larger genus fails
        kind = bounds.THEOREMS[which]
        factor, _, dp_top = bounds.SURFACES[kind]
        monkeypatch.setitem(bounds.SURFACES, kind,
                            (factor, 13 * factor + offset, dp_top))
        seen = []
        real = bounds.optimal_schedule
        monkeypatch.setattr(bounds, "optimal_schedule",
                            lambda g, s_max: seen.append(g) or real(g, s_max))
        for g_max in self.sizes(dp_top):
            seen.clear()
            got = verify_theorem(which, g_max)
            assert got == reference_verify(which, g_max)
        assert got["violations"] and len(seen) < dp_top

    def test_seeded_profiles_that_meet_the_bound_and_tie(self, monkeypatch):
        # made-up f'(g, g+1) that rise by 13 to 13 + e per genus, the slack
        # moving by d - factor e with d = per_g - 13 factor: the lower bound
        # is often met exactly, slacks often tie and cross zero, and every
        # report equals the oracle's on the same profile
        rng = random.Random(37)
        for _ in range(400):
            which = rng.choice(("84", "67"))
            kind = bounds.THEOREMS[which]
            factor = bounds.SURFACES[kind][0]
            d = rng.choice((-2, 0, 1, 3, 19))
            f = [rng.randint(0, 40)]
            for _ in range(59):
                f.append(f[-1] + 13 + rng.randrange(max(d, 0) // factor + 2))

            def sched(g, s_max, f=f):
                return bounds.ScheduleResult((), f[g - 1], ())

            monkeypatch.setitem(bounds.SURFACES, kind, (factor, 13 * factor + d, 60))
            monkeypatch.setattr(bounds, "optimal_schedule", sched)
            monkeypatch.setattr(conftest, "optimal_schedule", sched)
            g_max = rng.randint(1, 60)
            got = verify_theorem(which, g_max)
            assert got == reference_verify(which, g_max), (f, d)

    @pytest.mark.parametrize("which, most", [("84", 30), ("67", 50)])
    def test_few_recurrence_evaluations(self, which, most, monkeypatch):
        # 22 and 40 here, where one per genus of the direct range made 299
        # and 670
        seen = []
        real = bounds.optimal_schedule
        monkeypatch.setattr(bounds, "optimal_schedule",
                            lambda g, s_max: seen.append(g) or real(g, s_max))
        assert verify_theorem(which, 2000)["ok"] is True
        assert len(seen) <= most
        assert seen[:2] == [1, bounds.SURFACES[bounds.THEOREMS[which]][2]]


class TestAudits:
    """Each `raise RuntimeError` audit in emax.bounds, tripped through a
    seam of the module."""

    def test_c_scan_cap(self, monkeypatch, capsys):
        monkeypatch.setattr(bounds, "C_SCAN_CAP_FACTOR", 0)
        with pytest.raises(RuntimeError, match="^c scan exceeded its hard cap$"):
            optimal_schedule(13, 3)
        assert main(["bounds", "f", "--g", "13", "--s", "3"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "verification failed: c scan exceeded its hard cap\n"

    def test_gamma_escapes(self, monkeypatch):
        ceil = bounds.certified_ceil

        def skewed(lo, hi, p):
            b = ceil(lo, hi, p)
            return None if b is None else b + 1

        monkeypatch.setattr(bounds, "certified_ceil", skewed)
        with pytest.raises(RuntimeError, match=r"^gamma_7 escaped \[0,1\) despite "
                                               r"certified ceil$"):
            analytic_context(50)

    def test_k_beyond_its_last_row(self, monkeypatch):
        # alpha_7 raised by 1000 keeps alpha_i (g-2) above 2 on every row
        alpha7 = bounds.alpha7_interval

        def inflated(tail_bits):
            iv = alpha7(tail_bits)
            return bounds.Interval(iv.lo + 1000, iv.hi + 1000)

        monkeypatch.setattr(bounds, "alpha7_interval", inflated)
        with pytest.raises(RuntimeError, match="^k exceeded 2g\\+2; series "
                                               "evaluation is broken$"):
            analytic_context(50)

    @pytest.mark.parametrize("doctor, message", [
        ("skip", "^the rows skip or repeat s=3$"),
        ("no E", r"^row 7 has no error term but s=\d+ uses it$"),
        ("short", "^the rows end at s=50, not at g\\+1=51$"),
    ])
    def test_claim1_row_audits(self, doctor, message, monkeypatch):
        ctx = analytic_context(50)
        L, E = dict(ctx.L_lists), dict(ctx.E)
        if doctor == "skip":
            i = next(i for i, row in L.items() if 3 in row)
            L[i] = tuple(s for s in L[i] if s != 3)
        elif doctor == "no E":
            del E[7]
        else:
            assert L[7][-1] == 51
            L[7] = L[7][:-1]
        monkeypatch.setattr(bounds, "analytic_context",
                            lambda g, precision=None: ctx._replace(L_lists=L, E=E))
        with pytest.raises(RuntimeError, match=message):
            claim1_consistency(50)


class TestPrecisionKnob:
    def test_explicit_precision_beats_env(self, monkeypatch):
        monkeypatch.setenv("EMAX_PRECISION_BITS", "32")
        lam = lambda_interval(precision=256)
        assert lam.width < Fraction(1, 2**200)

    def test_precision_at_the_cap(self, monkeypatch):
        lam = lambda_interval(precision=bounds.PRECISION_BITS_CAP)
        assert lam.width < Fraction(1, 2 ** (bounds.PRECISION_BITS_CAP - 8))
        monkeypatch.setenv("EMAX_PRECISION_BITS", str(bounds.PRECISION_BITS_CAP))
        assert lambda_interval() == lam

    def test_precision_above_the_cap(self, monkeypatch):
        above = bounds.PRECISION_BITS_CAP + 1
        with pytest.raises(BoundsError, match=f"precision {above} is above"):
            lambda_interval(precision=above)
        monkeypatch.setenv("EMAX_PRECISION_BITS", str(above))
        with pytest.raises(BoundsError,
                           match=f"EMAX_PRECISION_BITS {above} is above"):
            analytic_context(5)

    def test_analytic_context_precision_error_path(self):
        # the precision ladder caps out; a straddle that survives every
        # widening must raise PrecisionError rather than guess.  No known
        # g straddles, so exercise the validation arm instead.
        with pytest.raises(BoundsError):
            analytic_context(5, precision=4)
