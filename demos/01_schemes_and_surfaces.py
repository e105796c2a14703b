"""Embedding schemes from scratch: rotations, signatures, face tracing.

A scheme is a cyclic order of edge-ends (darts) at every vertex plus a
+-1 signature per edge.  Everything about the surface -- faces, Euler
genus, orientability -- falls out of tracing the walks.
"""

from emax import PseudoEmbedding, orientability, surface_info, trace_faces


def show(name, E):
    info = surface_info(E)
    lengths = sorted(w.length for w in trace_faces(E))
    kind = "orientable" if info.orientable else "nonorientable"
    print(f"{name}: n={E.n} m={E.m} faces={lengths} "
          f"genus={info.euler_genus} ({kind})")
    return E


# K4 drawn in the plane: each rotation lists the other three vertices
# in a consistent clockwise order, all signatures +1.
k4 = PseudoEmbedding(
    4,
    [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1)],
    [
        [(0, 0), (1, 0), (2, 0)],
        [(0, 1), (4, 0), (3, 0)],
        [(1, 1), (3, 1), (5, 0)],
        [(2, 1), (5, 1), (4, 1)],
    ],
)
show("planar K4", k4)
for fi, walk in enumerate(trace_faces(k4)):
    print(f"  face {fi}: vertices {list(walk.vertices)}")

# One vertex, one loop.  With signature +1 the loop bounds two monogons
# (a sphere); with signature -1 the walk goes around twice and the
# surface is the projective plane.
flat = PseudoEmbedding(1, [(0, 0, 1)], [[(0, 0), (0, 1)]])
show("\nloop, signature +1", flat)
cross = PseudoEmbedding(1, [(0, 0, -1)], [[(0, 0), (0, 1)]])
show("loop, signature -1", cross)

# A triangle with one twisted edge: a single 6-walk, genus 1.  The
# orientability test reports the edge no vertex-switching can fix.
twisted = PseudoEmbedding(
    3,
    [(0, 1, 1), (1, 2, 1), (0, 2, -1)],
    [[(0, 0), (2, 0)], [(0, 1), (1, 0)], [(1, 1), (2, 1)]],
)
show("\ntwisted triangle", twisted)
orient, conflict = orientability(twisted)
print(f"  orientable: {orient}; conflicting edge under switching: {conflict}")
