"""Certified enclosures: every decimal here comes with a proof.

The analytic bound engine never touches floats.  log 2 is summed in
integer fixed point with an explicit tail bound, and alpha_7 and lambda
are exact affine images of it (alpha_7 = 48332/114345 + (16/33) log 2),
so each constant is a rational interval guaranteed to contain the true
value, and ceilings are only extracted when the enclosure does not
straddle an integer.
"""

from fractions import Fraction

from emax import (
    alpha7_interval,
    analytic_context,
    analytic_upper_bound,
    claim1_consistency,
    lambda_interval,
    ln2_interval,
    optimal_schedule,
    verify_theorem,
)


def show(name, iv):
    width = float(iv.hi - iv.lo)
    print(f"{name} = {float(iv.midpoint()):.18f}  (width ~ {width:.1e})")


show("ln 2   ", ln2_interval())
show("alpha_7", alpha7_interval())
show("lambda ", lambda_interval())

# The analytic schedule behind the closed-form bound: row i covers the
# sequence lengths in L_i; k is where alpha_i (g-2) drops to 2.
for g in (9, 50):
    ctx = analytic_context(g)
    rows = {i: list(L) for i, L in sorted(ctx.L_lists.items()) if L}
    print(f"\ng={g}: k={ctx.k}, beta_k={ctx.beta[ctx.k]}, rows {rows}")
    rep = claim1_consistency(g)
    print(f"  claim consistency: ok={rep['ok']} over {rep['checked']} "
          f"lengths; E7 <= 2k-3: {rep['E7_le_2k_minus_3']}")
    final = optimal_schedule(g, g + 1).f
    print(f"  f'({g},{g + 1}) = {final} by the recurrence, below the "
          f"certified analytic ceiling {float(analytic_upper_bound(g)):.2f}")

# The global statements, swept exactly where the recurrence runs and by
# certified enclosure beyond.
for which in ("84", "67"):
    rep = verify_theorem(which, g_max=800)
    lo, hi = rep["direct_range"]
    slack = float(Fraction(rep["min_slack"]["slack"]))
    print(f"\n{rep['theorem']}: ok={rep['ok']} for g <= {rep['checked']} "
          f"(recurrence on [{lo},{hi}], enclosures beyond); "
          f"min slack {slack:.3f} at g={rep['min_slack']['g']}")
