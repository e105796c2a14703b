"""Face surgery: from an edge-maximal scheme to a bipartite question.

Long faces are chorded into short ones, every non-triangular face gets
a degree-4 apex, and the apexes with their neighbourhoods form a
bipartite graph whose size controls how far the original scheme was
from a triangulation: edges_short <= 5|B|-1 (nonorientable chording)
or 4|B|-1 (orientable).
"""

from emax import (
    chord_positions,
    construct_proposition2,
    edges_short,
    face_split_count,
    run_lemma5_pipeline,
    surface_info,
    trace_faces,
)

# The chord spacing is pure arithmetic on the face length.
print("chords laid across a single face of length t:")
for t in (8, 13, 21, 40):
    for mode in ("nonorientable", "orientable"):
        pos = chord_positions(t, mode)
        print(f"  t={t:3d} {mode:13s}: chords at {pos} "
              f"-> {face_split_count(t, mode)} faces")

E = construct_proposition2(6, orientable=True)
info = surface_info(E)
print(f"\ninput: edge-maximal scheme, genus {info.euler_genus} orientable, "
      f"n={E.n} m={E.m}, {edges_short(E)} edges short")
print(f"  face lengths {sorted(w.length for w in trace_faces(E))}")

report = run_lemma5_pipeline(E, "orientable")
chorded, apexed = report.chorded_scheme, report.apexed_scheme
print(f"after chording: m={chorded.m} "
      f"({chorded.m - E.m} chords), "
      f"{len(trace_faces(chorded))} faces")
print(f"after apexing:  n={apexed.n} m={apexed.m}, "
      f"apexes B = {list(report.apex_set)}")

H, P = report.bipartite_extract
b = len(report.apex_set)
print(f"bipartite extract: {H.n} vertices, {H.m} edges, |B| = {b}")
print(f"deficit law: edges_short = {edges_short(E)} <= 4|B|-1 = {4 * b - 1}")
print(f"(completing the original to a triangulation needs "
      f"{report.edges_added_to_triangulate} parallel-chord edges)")
