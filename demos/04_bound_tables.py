"""The impurity tables: exact dynamic programming over c-schedules.

f'(g, 2) = 2g+2 anchors a recurrence
    f'(g, s) = min over c >= 7 of max{2c(g-2)/(c-6), 2c-3 + f'(g, s-1)},
floored to an integer at each step (the flooring points are reported).
The impurity of the edge-maximal class on the surface is 5 f'(g, g+1) - 1
(nonorientable) or 4 f'(g, g+1) - 1 (orientable), and the edge count of
every edge-maximal n-vertex member is at least 3n - offset.
"""

from emax import generate_table, optimal_schedule

print("nonorientable surfaces N_1..N_10:")
print(f"  {'g':>2} {'c-schedule':<28} {'impurity':>8} {'offset':>6}")
for row in generate_table("nonorientable", range(1, 11)):
    sched = ",".join(str(c) for c in row.c_schedule)
    print(f"  {row.g:>2} {sched:<28} {row.impurity:>8} "
          f"{row.edge_bound_offset:>6}")

print("\norientable surfaces S_1..S_10 (Euler genus 2h):")
print(f"  {'g':>2} {'surface':>7} {'impurity':>8} {'offset':>6}")
for row in generate_table("orientable", range(2, 21, 2)):
    print(f"  {row.g:>2} {'S_' + str(row.g // 2):>7} {row.impurity:>8} "
          f"{row.edge_bound_offset:>6}")

# Where the flooring first matters: at g=13, s=3 the exact minimum is
# 242/5 and the DP continues from floor(242/5) = 48.
res = optimal_schedule(13, 14)
raw = optimal_schedule(13, 14, floor_steps=False)
print(f"\ng=13: floored steps at s={list(res.floored_steps)}")
print(f"  exact value at s=3: {optimal_schedule(13, 3, floor_steps=False).f}  "
      f"floored: {optimal_schedule(13, 3).f}")
print(f"  final f'(13, 14): floored {res.f} vs unfloored {raw.f}")
