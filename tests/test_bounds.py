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

from fractions import Fraction
from functools import lru_cache

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
from emax.bounds import SCHEDULE_STEP_CAP

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


def assert_same_schedule(res, ref):
    # == alone would let an integral Fraction stand in for an int
    assert res == ref
    assert type(res.f) is type(ref.f)
    assert type(res.f) is int or res.f.denominator > 1


class TestRunJump:
    """`optimal_schedule` jumps whole runs of constant c; the per-step loop
    it replaced, `reference_schedule`, must give the same result."""

    def test_equals_the_per_step_loop(self):
        for g in [*range(1, 701), 1000, 3000]:
            assert_same_schedule(optimal_schedule(g, g + 1),
                                 reference_schedule(g, g + 1))

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
            res, ("c_schedule", "f", "floored_steps"),
            "ScheduleResult(c_schedule=(11, 10), f=65, floored_steps=(3,))",
        )

    def test_table_row(self):
        row = generate_table("nonorientable", [3])[0]
        assert_frozen_record(
            row,
            ("g", "surface_kind", "c_schedule", "impurity", "edge_bound_offset"),
            "BoundsTableRow(g=3, surface_kind='nonorientable', "
            "c_schedule=(7, 7), impurity=149, edge_bound_offset=146)",
        )
        assert row != generate_table("nonorientable", [4])[0]
        assert row == (3, "nonorientable", (7, 7), 149, 146)

    def test_analytic_context(self):
        # its dict fields make it unhashable, as they did the dataclass
        ctx = analytic_context(9)
        fields = ("g", "lam", "alpha", "k", "beta", "gamma", "E", "L_lists",
                  "ell", "precision_bits", "tail_bits", "scale_bits")
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
        assert set(ctx.L_lists) == set(ctx.ell)
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

    def test_row_lengths_match_lists(self):
        ctx = analytic_context(12)
        for i, L in ctx.L_lists.items():
            assert ctx.ell[i] == len(L)

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
            assert (ctx.k, ctx.beta, ctx.L_lists, ctx.ell, ctx.tail_bits) == (
                ref.k, ref.beta, ref.L_lists, ref.ell, ref.tail_bits), g
            rep = claim1_consistency(g, precision)
            assert {key: rep[key] for key in DECIDED} == {
                key: want[key] for key in DECIDED}, g

    def test_enclosures_contain_the_fraction_ones(self):
        for g in ORACLE_GENERA:
            ctx = analytic_context(g)
            ref, want = fraction_engine(g)
            p = ctx.scale_bits
            assert p == ctx.tail_bits + bounds.GRID_GUARD_BITS
            for name in ("alpha", "gamma", "E"):
                new, old = getattr(ctx, name), getattr(ref, name)
                assert set(new) == set(old), (g, name)
                for i, iv in old.items():
                    assert encloses(new[i], p, iv), (g, name, i)
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

    def test_the_ladder_climbs_like_the_fraction_engine(self, monkeypatch):
        # started at 2^-8 below the default precision, the genera that
        # straddle there widen instead of failing, and decide as the
        # reference does after the same climb
        monkeypatch.setattr(bounds, "TAIL_BITS_START", 8)
        climbed = {g: analytic_context(g) for g in straddling_at_tail_8()}
        assert all(ctx.tail_bits > 8 for ctx in climbed.values())
        for g in sorted(climbed)[:12]:
            ctx, ref = climbed[g], reference_analytic_context(g)
            assert (ctx.k, ctx.beta, ctx.L_lists, ctx.ell, ctx.tail_bits) == (
                ref.k, ref.beta, ref.L_lists, ref.ell, ref.tail_bits), g
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
        with pytest.raises(BoundsError, match="g_max"):
            verify_theorem("84", g_max=0)


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
