"""Reference graphs, embedded schemes, and the block-pasting construction.

Two schemes here are committed data rather than code: the all-quadrilateral
planar scheme for the gadget graph Q and the toroidal scheme for K8 minus a
5-cycle.  Both were found by search (exhaustive over the 864 rotations of Q;
randomized hill-climbing on face count for K8-C5, seed 11) and every claimed
property of them is re-verified by the test suite from the data alone, so
the provenance of the search does not matter for correctness.  The K8-C5
search is kept runnable as regenerate_k8_c5_fixture for anyone who wants to
rediscover a fixture from a fresh seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, permutations
from math import factorial
from typing import Optional

from .graphs import Bipartition, Graph, GraphError
from .embedding import (
    PseudoEmbedding,
    SchemeError,
    SurfaceInfo,
    _link,
    _state_orbits,
    surface_info,
    trace_faces,
    walk_corners,
    insert_dart_at_corner,
)

ENUMERATION_CAP = 10**7


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete graph needs n >= 1")
    return Graph(n, list(combinations(range(n), 2)))


def complete_bipartite(a: int, b: int) -> tuple:
    """K_{a,b} with part_a = 0..a-1 and part_b = a..a+b-1."""
    if a < 1 or b < 1:
        raise GraphError("complete bipartite graph needs a, b >= 1")
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    G = Graph(a + b, edges)
    P = Bipartition(frozenset(range(a)), frozenset(range(a, a + b)))
    return G, P


# K8 minus a 5-cycle on vertices 0..4.  Edge ids are the lexicographic
# (u < v) pairs of K8 with the cycle edges removed; the toroidal scheme
# below indexes edges by that order, so it is fixed.

_C5_REMOVED = frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)})


def _k8_c5_pairs() -> list:
    return [p for p in combinations(range(8), 2) if p not in _C5_REMOVED]


def k8_minus_c5() -> Graph:
    return Graph(8, _k8_c5_pairs())


# Genus-2 orientable (torus) scheme for K8-C5: 14 triangles and one
# quadrilateral, edge-maximal.  Found by hill-climbing with seed 11.
_K8_C5_ROTATION = (
    ((3, 0), (1, 0), (2, 0), (0, 0), (4, 0)),
    ((5, 0), (7, 0), (6, 0), (8, 0), (9, 0)),
    ((11, 0), (12, 0), (10, 0), (13, 0), (0, 1)),
    ((5, 1), (16, 0), (14, 0), (1, 1), (15, 0)),
    ((18, 0), (6, 1), (17, 0), (19, 0), (10, 1)),
    ((11, 1), (2, 1), (14, 1), (21, 0), (17, 1), (7, 1), (20, 0)),
    ((15, 1), (3, 1), (22, 0), (8, 1), (18, 1), (12, 1), (20, 1)),
    ((22, 1), (4, 1), (13, 1), (19, 1), (21, 1), (16, 1), (9, 1)),
)


def toroidal_embedding_k8_minus_c5() -> PseudoEmbedding:
    edges = [(u, v, 1) for u, v in _k8_c5_pairs()]
    return PseudoEmbedding(8, edges, _K8_C5_ROTATION)


def regenerate_k8_c5_fixture(
    seed: int, restarts: int = 40, iters: int = 30000
) -> Optional[PseudoEmbedding]:
    """Hill-climb for a 15-face (genus 2) orientable scheme of K8-C5.

    Moves swap two darts in one vertex's rotation and are kept when the
    face count does not drop.  15 faces is optimal: 2m/3 = 15.33 caps the
    face count, so f = 15 means Euler genus 2.  Returns None if every
    restart stalls.

    The climb runs on integer darts 2e + end held in successor and
    predecessor arrays, as a scheme keeps them: a move swaps two darts in
    place, counts faces as half the state-map cycles, and swaps back when
    rejected.  Only the result is built as a scheme, and it is audited by
    a full trace.
    """
    pairs = _k8_c5_pairs()
    m = len(pairs)
    darts_at = [[] for _ in range(8)]
    for e, (u, v) in enumerate(pairs):
        darts_at[u].append(2 * e)
        darts_at[v].append(2 * e + 1)
    neg = [0] * m
    succ = [0] * (2 * m)
    pred = [0] * (2 * m)
    rng = random.Random(seed)
    for _ in range(max(1, restarts)):
        rot = [list(ds) for ds in darts_at]
        for r in rot:
            rng.shuffle(r)
            _link(r, succ, pred)
        best = len(_state_orbits(succ, pred, neg)[0]) // 2
        for _ in range(iters):
            if best == 15:
                break
            r = rot[rng.randrange(8)]
            i, j = rng.randrange(len(r)), rng.randrange(len(r))
            if i == j:
                continue
            r[i], r[j] = r[j], r[i]
            _link(r, succ, pred)
            f = len(_state_orbits(succ, pred, neg)[0]) // 2
            if f >= best:
                best = f
            else:
                r[i], r[j] = r[j], r[i]
                _link(r, succ, pred)
        if best == 15:
            E = PseudoEmbedding(
                8,
                [(u, v, 1) for u, v in pairs],
                [[(d >> 1, d & 1) for d in r] for r in rot],
            )
            info = surface_info(E)
            if trace_faces(E).face_count != 15 or info != SurfaceInfo(2, True):
                raise RuntimeError("hill-climb result is not a 15-face torus scheme")
            return E
    return None


# The gadget graph Q: three degree-4 vertices b1, b2, b3 (ids 0, 1, 2) all
# joined to x (3) and y (4), and each pair {bi, bj} joined through its own
# private vertex z_ij (ids 5, 6, 7).  Any two of the b's share the three
# vertices x, y, z_ij, so no ordered pair exists inside a copy of Q.

_Q_EDGES = (
    (0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4),
    (0, 5), (0, 6), (1, 5), (1, 7), (2, 6), (2, 7),
)

_Q_ROTATION = (
    ((0, 0), (6, 0), (1, 0), (7, 0)),
    ((2, 0), (9, 0), (3, 0), (8, 0)),
    ((4, 0), (10, 0), (5, 0), (11, 0)),
    ((0, 1), (4, 1), (2, 1)),
    ((1, 1), (3, 1), (5, 1)),
    ((6, 1), (8, 1)),
    ((7, 1), (10, 1)),
    ((9, 1), (11, 1)),
)


def graph_q() -> tuple:
    G = Graph(8, _Q_EDGES)
    P = Bipartition(frozenset({3, 4, 5, 6, 7}), frozenset({0, 1, 2}))
    return G, P


def graph_q_scheme() -> PseudoEmbedding:
    """Planar scheme of Q whose six faces are all quadrilaterals (found by
    exhaustive search over the 864 rotation systems)."""
    edges = [(u, v, 1) for u, v in _Q_EDGES]
    return PseudoEmbedding(8, edges, _Q_ROTATION)


@dataclass(frozen=True)
class LowerBoundFamily:
    graph: Graph
    bipartition: Bipartition
    g: int
    s: int


def lower_bound_family(g: int, s: int) -> LowerBoundFamily:
    """Witness that no bound below 2g + 3s - 4 can force an ordered
    s-sequence: K_{3, 2g+2} plus s-2 disjoint copies of Q.

    The B side has 2g + 2 + 3(s-2) vertices of degree 3 or 4.  Any two
    B-vertices inside one component share at least three vertices, so an
    ordered sequence takes at most one vertex per Q copy and at most one
    from the K_{3, 2g+2} core: no ordered s-sequence exists.  The Euler
    genus is at most g (the core embeds in the genus-g nonorientable
    surface; Q copies are planar and disjoint).
    """
    if g < 1:
        raise GraphError("lower bound family needs g >= 1")
    if s < 2:
        raise GraphError("lower bound family needs s >= 2")
    edges = [(i, 3 + j) for i in range(3) for j in range(2 * g + 2)]
    part_a = set(range(3))
    part_b = set(range(3, 2 * g + 5))
    offset = 2 * g + 5
    for _ in range(s - 2):
        edges.extend((offset + u, offset + v) for u, v in _Q_EDGES)
        part_b.update(offset + b for b in (0, 1, 2))
        part_a.update(offset + a for a in (3, 4, 5, 6, 7))
        offset += 8
    G = Graph(offset, edges)
    return LowerBoundFamily(
        graph=G,
        bipartition=Bipartition(frozenset(part_a), frozenset(part_b)),
        g=g,
        s=s,
    )


def enumerate_small_schemes(
    G: Graph, signature_mode: str = "orientable-only", cap: int = ENUMERATION_CAP
):
    """Yield every rotation system of G, first dart per vertex fixed.

    Fixing each vertex's first dart removes none of the face structures
    (cyclic orders are what matter) while cutting the count to
    prod_v (deg(v)-1)!.  Mode "all" additionally runs through every
    signature vector, all-positive first.  Refuses to start if the total
    exceeds cap.
    """
    if signature_mode not in ("orientable-only", "all"):
        raise GraphError("signature_mode must be 'orientable-only' or 'all'")
    if G.m == 0:
        raise GraphError("scheme enumeration needs at least one edge")
    from .graphs import is_connected

    if not is_connected(G):
        raise GraphError("scheme enumeration needs a connected graph")
    pairs = sorted(G.edges)
    darts_at = [[] for _ in range(G.n)]
    for e, (u, v) in enumerate(pairs):
        darts_at[u].append((e, 0))
        darts_at[v].append((e, 1))
    total = 1
    for ds in darts_at:
        total *= factorial(max(0, len(ds) - 1))
    if signature_mode == "all":
        total *= 2 ** G.m
    if total > cap:
        raise GraphError(
            f"enumeration would visit {total} schemes, above the cap of {cap}"
        )
    masks = range(2 ** G.m if signature_mode == "all" else 1)

    def rotations(v):
        ds = darts_at[v]
        if len(ds) <= 1:
            yield tuple(ds)
            return
        head, rest = ds[0], ds[1:]
        for perm in permutations(rest):
            yield (head,) + perm

    def rec(v, acc):
        if v == G.n:
            yield tuple(acc)
            return
        for rot in rotations(v):
            acc.append(rot)
            yield from rec(v + 1, acc)
            acc.pop()

    for rotation in rec(0, []):
        for mask in masks:
            edges = [
                (u, v, -1 if mask >> e & 1 else 1)
                for e, (u, v) in enumerate(pairs)
            ]
            yield PseudoEmbedding(G.n, edges, rotation)


# Block pasting: join a new vertex w to the three corners of a triangular
# face, choosing w's rotation order and the three new signatures so that the
# local face structure hits a requested target:
#
#   planar    adds no genus, splits the triangle into three triangles
#   crosscap  adds one to the Euler genus, leaves faces {3, 6} at w
#   handle    adds two, stays orientable, leaves one 9-gon at w
#
# Only 16 variants exist (2 orders x 8 signature masks) and each candidate
# is fully retraced, so the search is its own proof.

_PASTE_TARGETS = {
    "planar": (0, (3, 3, 3)),
    "crosscap": (1, (3, 6)),
    "handle": (2, (9,)),
}


def paste_block(E: PseudoEmbedding, face_index: int, target: str) -> PseudoEmbedding:
    if target not in _PASTE_TARGETS:
        raise SchemeError(f"unknown paste target {target!r}")
    dg_want, faces_want = _PASTE_TARGETS[target]
    faces = trace_faces(E)
    if not (0 <= face_index < faces.face_count):
        raise SchemeError(f"face index {face_index} out of range")
    walk = faces.walks[face_index]
    if walk.length != 3 or len(walk.distinct_vertices()) != 3:
        raise SchemeError("paste_block needs a triangular face on three vertices")
    info0 = surface_info(E)
    corners = walk_corners(E, walk)
    w = E.n
    m0 = E.m
    for reverse in (False, True):
        for mask in range(8):
            rot_lists = [list(r) for r in E.rotation] + [[]]
            new_edges = []
            for j, corner in enumerate(corners):
                sig = -1 if mask >> j & 1 else 1
                new_edges.append((corner.vertex, w, sig))
                insert_dart_at_corner(rot_lists, corner, (m0 + j, 0))
            w_rot = [(m0 + j, 1) for j in range(3)]
            if reverse:
                w_rot.reverse()
            rot_lists[w] = w_rot
            cand = PseudoEmbedding(
                E.n + 1, list(E.edges) + new_edges, rot_lists
            )
            cfaces = trace_faces(cand)
            got = tuple(
                sorted(wk.length for wk in cfaces.walks if w in wk.distinct_vertices())
            )
            if got != faces_want:
                continue
            cinfo = surface_info(cand)
            if cinfo.euler_genus - info0.euler_genus != dg_want:
                continue
            if target in ("planar", "handle") and cinfo.orientable != info0.orientable:
                continue
            return cand
    raise RuntimeError(
        f"no paste variant achieves target {target!r} on face {face_index}"
    )


def _k3_scheme() -> PseudoEmbedding:
    edges = [(0, 1, 1), (0, 2, 1), (1, 2, 1)]
    rotation = (((0, 0), (1, 0)), ((0, 1), (2, 0)), ((1, 1), (2, 1)))
    return PseudoEmbedding(3, edges, rotation)


def construct_proposition2(
    g: int, orientable: bool, base_faces: Optional[int] = None
) -> PseudoEmbedding:
    """Edge-maximal embedding of a planar graph in the surface of Euler
    genus g, exactly 3g edges short of a triangulation.

    A planar triangulation is grown from K3 by planar pastes until it has
    at least max(g, base_faces) faces; then g crosscap blocks (or g/2
    handle blocks) are pasted onto faces whose vertices all predate the
    block phase.  Each block trades a triangle for one face that cannot be
    chorded (every pair on it is already adjacent), which is what keeps the
    result edge-maximal while staying short of a triangulation.
    """
    if g < 1:
        raise SchemeError("construction needs Euler genus g >= 1")
    if orientable and g % 2 != 0:
        raise SchemeError("orientable surfaces have even Euler genus")
    if base_faces is not None and base_faces < g:
        raise SchemeError("base_faces must be at least g")
    target_f = max(g, base_faces or 0)
    E = _k3_scheme()
    while trace_faces(E).face_count < target_f:
        E = paste_block(E, 0, "planar")
    n0 = E.n
    blocks = g if not orientable else g // 2
    kind = "crosscap" if not orientable else "handle"
    for _ in range(blocks):
        faces = trace_faces(E)
        idx = next(
            (
                i
                for i, wk in enumerate(faces.walks)
                if wk.length == 3
                and len(wk.distinct_vertices()) == 3
                and all(v < n0 for v in wk.vertices)
            ),
            None,
        )
        if idx is None:
            raise RuntimeError("ran out of pristine triangles for block pasting")
        E = paste_block(E, idx, kind)
    info = surface_info(E)
    if info.euler_genus != g or info.orientable != orientable:
        raise RuntimeError("pasting produced the wrong surface")
    return E
