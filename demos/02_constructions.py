"""The committed schemes and the edge-maximal construction family.

Three reusable builds: the genus-2 orientable scheme of K8 minus a
5-cycle (found once by seeded search, committed as data), the planar
quadrilateral scheme of the graph Q, and edge-maximal schemes that are
exactly 3g edges short of a triangulation for any surface.
"""

from emax import (
    complete_graph,
    construct_proposition2,
    edges_short,
    graph_q_scheme,
    is_edge_maximal_embedding,
    scheme_census,
    surface_info,
    toroidal_embedding_k8_minus_c5,
    trace_faces,
)


def describe(name, E):
    info = surface_info(E)
    lengths = sorted(w.length for w in trace_faces(E))
    maximal, witness = is_edge_maximal_embedding(E)
    print(f"{name}:")
    print(f"  n={E.n} m={E.m} genus={info.euler_genus} "
          f"orientable={info.orientable}")
    print(f"  faces={lengths}")
    print(f"  edge-maximal={maximal} edges_short={edges_short(E)}")


describe("K8 - E(C5), double torus", toroidal_embedding_k8_minus_c5())
print("  (the single 4-face induces a 4-clique: no chord can be added,"
      " yet the scheme is 1 edge short of a triangulation)\n")

describe("graph Q, plane", graph_q_scheme())
print("  (all six faces are quadrilaterals; any two degree-4 vertices"
      " of the small side share three neighbours)\n")

# Edge-maximal but far from triangulated, on every surface: each pasted
# block trades a triangle for one long face whose vertices are already
# pairwise adjacent.
for g, orientable in [(1, False), (3, False), (5, False), (2, True),
                      (6, True)]:
    E = construct_proposition2(g, orientable)
    kind = "orientable" if orientable else "nonorientable"
    print(f"genus {g} ({kind}): n={E.n} m={E.m} "
          f"edges_short={edges_short(E)} (= 3g = {3 * g})")

# Exhaustive census at desk scale: all 1024 signed schemes of K4, grouped
# by surface, traced once per switching class.
print("\nall signed schemes of K4:")
census = scheme_census(complete_graph(4), signature_mode="all")
for (g, orientable, lengths), count in sorted(
    census.items(), key=lambda kv: (kv[0][0], not kv[0][1], kv[0][2])
):
    kind = "orientable" if orientable else "nonorientable"
    print(f"  genus {g} ({kind:13s}) faces {list(lengths)}: {count} schemes")
