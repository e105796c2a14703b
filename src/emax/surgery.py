"""Face surgeries and the ordered-sequence machinery.

The reduction pipeline runs in three steps.  chord_faces subdivides every
long face with chords fanned out from one corner (a pseudograph operation:
chords may duplicate existing edges or even close into loops), leaving all
faces short but never touching the surface.  insert_apexes then plants one
degree-4 vertex in every non-triangular face.  bipartite_extract finally
pulls out the bipartite graph between the apexes and their neighborhoods,
which is where ordered sequences live.

Every surgery lays its edges on the scheme editor of embedding.py, at face
corners by its one splice rule, and builds a single scheme at the end.
complete_to_triangulation reads each chord's corners off the editor's live
table and keeps each long face as a sorted list of its states, so no face
is walked twice and the completion costs O(m + sum of L log L) over the
long faces' lengths L, where re-walking the face each chord splits cost
quadratic time in a long face.

Ordered sequences: v_1..v_s is ordered when each closed neighborhood N[v_i]
meets the union of the earlier closed neighborhoods in at most 2 vertices.
find_ordered_sequence implements the greedy recursion over a c-schedule:
pick a low-interference vertex, discard the neighborhoods of all its
neighbors except the two of highest degree, recurse.  The greedy re-checks
its output against the definition in the full graph and reports failure
rather than returning an unverified sequence; the brute-force comparison in
the test suite relies on success implying existence, never the reverse.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from collections.abc import Iterable

from .bounds import SURFACE_KINDS, SURFACES, optimal_schedule
from .graphs import (
    Bipartition,
    Graph,
    GraphError,
    bipartite_genus_lower_bound,
    check_bipartition,
    closed_neighborhood,
)
from .embedding import (
    SCHEME_SIZE_CAP,
    PseudoEmbedding,
    SchemeError,
    trace_faces,
    surface_info,
    is_edge_maximal_embedding,
    is_triangulation,
    edges_short,
    four_distinct_window,
    _SchemeEditor,
)

def _period(mode: str) -> int:
    """The chord period of a surgery mode, its surface kind's factor."""
    if mode not in SURFACE_KINDS:
        raise SchemeError(f"mode must be one of {SURFACE_KINDS}")
    return SURFACES[mode][0]


def chord_positions(t: int, mode: str) -> list:
    """Chord targets for a length-t face: i = 3 (mod k) with 3 <= i <= t-k
    for the period k, 5 in nonorientable mode and 4 in orientable mode."""
    k = _period(mode)
    return list(range(3, t - k + 1, k))


def face_split_count(t: int, mode: str) -> int:
    """How many faces a length-t face becomes: floor((t+k-3)/k) for the
    period k, that is floor((t+2)/5) or floor((t+1)/4)."""
    k = _period(mode)
    return (t + k - 3) // k


def chord_faces(E: PseudoEmbedding, mode: str) -> PseudoEmbedding:
    """Chord every face from a corner with four distinct vertices ahead.

    Each face of length >= 4 is rotated so the walk starts at four distinct
    vertices, then chords v0-vi are laid across the face at the residues in
    chord_positions.  Chord signatures are the product of the two corner
    sides, which is what keeps both new walks consistent; chords that
    duplicate existing adjacencies (or hit the same vertex twice) are kept
    as parallel edges and loops, so the result is a pseudograph scheme.

    The rebuild is fully audited: the editor's freeze checks that genus
    and orientability are unchanged (with n fixed, the genus check is the
    face count: one more face per chord), each original face splits into
    exactly face_split_count pieces, and every non-triangular face of the
    result has at least four distinct vertices.
    """
    _period(mode)  # refuses an unknown mode up front
    if not E.is_simple_graph():
        raise SchemeError("chord_faces expects a scheme of a simple graph")
    if E.n < 4:
        raise SchemeError("chord_faces needs at least 4 vertices")
    surface = surface_info(E)
    if mode == "orientable" and not surface.orientable:
        raise SchemeError("orientable mode needs an orientable scheme")
    faces = trace_faces(E)
    editor = _SchemeEditor(E)
    for fi, walk in enumerate(faces):
        t = walk.length
        if t < 4:
            continue
        try:
            r = four_distinct_window(walk.vertices)
        except SchemeError:
            raise SchemeError(
                f"face {fi} (length {t}) has no four distinct consecutive "
                "vertices; cannot anchor chords"
            )
        anchor = editor.corner(walk.states[r])
        spots = chord_positions(t, mode)
        # the count identity below plus the surface audit of the rebuild
        # pin the per-face splits: a chord lives inside its own face, a
        # single added edge splits at most one face, and the genus staying
        # flat forces every chord to realize that +1
        if len(spots) + 1 != face_split_count(t, mode):
            raise RuntimeError(
                f"chord count {len(spots)} inconsistent with split count "
                f"{face_split_count(t, mode)} for face length {t}"
            )
        for i in spots:
            target = editor.corner(walk.states[(r + i) % t])
            editor.add_edge(anchor, target, anchor[2] ^ target[2])
    result = editor.freeze(surface)
    for ri, rwalk in enumerate(trace_faces(result)):
        if rwalk.length > 3 and len(rwalk.distinct_vertices()) < 4:
            raise SchemeError(
                f"chorded face {ri} has fewer than four distinct vertices; "
                "the input violated the consecutive-distinctness guarantee"
            )
    return result


def _first_four_distinct(walk) -> list:
    """Positions of the first occurrences of the first four distinct
    vertices along the walk, or None if the walk has fewer than four."""
    seen = {}
    for i, v in enumerate(walk.vertices):
        if v not in seen:
            seen[v] = i
            if len(seen) == 4:
                return sorted(seen.values())
    return None


def insert_apexes(Gp: PseudoEmbedding) -> tuple:
    """One new degree-4 vertex inside every non-triangular face.

    The apex is joined to the first four distinct vertices along the face
    walk; its rotation lists the four edges against walk order and each edge
    carries the side of the corner it lands in, which makes every apex
    face close up correctly (the face of length t gains 4 edges, 1 vertex
    and splits into 4 faces, so the surface is untouched).  The editor's
    freeze audits that surface, which for these n and m is the face count.

    Returns (scheme, apex vertex ids).
    """
    faces = trace_faces(Gp)
    editor = _SchemeEditor(Gp)
    apexes = []
    for fi, walk in enumerate(faces):
        if walk.length == 3:
            continue
        spots = _first_four_distinct(walk)
        if spots is None:
            raise SchemeError(
                f"face {fi} (length {walk.length}) is non-triangular but has "
                "fewer than four distinct vertices; cannot place an apex"
            )
        # each edge goes just before the last one at w, so the wedge
        # arriving on edge j finds edge j-1 next by rotation successor, as
        # face tracing leaves a positive-side vertex, and each apex triangle
        # closes
        corners = [editor.corner(walk.states[pj]) for pj in spots]
        w = editor.add_star(corners, [c[2] for c in corners], 1)
        apexes.append(w)
    if not apexes:
        return Gp, ()
    result = editor.freeze(surface_info(Gp))
    deg = [0] * result.n
    for u, v, _ in result.edges:
        deg[u] += 1
        deg[v] += 1
    if any(deg[w] != 4 for w in apexes):
        raise RuntimeError("some apex does not have degree 4")
    return result, tuple(apexes)


def bipartite_extract(Gpp: PseudoEmbedding, B: Iterable[int]) -> tuple:
    """The bipartite graph between B and the union of its neighborhoods.

    Vertices are renumbered densely: sorted neighborhood side first, then
    sorted B.  Parallel edges of the scheme collapse; B must be an
    independent set whose members have exactly four distinct neighbors
    (the apexes of insert_apexes do).
    """
    B = sorted(set(B))
    for b in B:
        if not (0 <= b < Gpp.n):
            raise GraphError(f"B vertex {b} out of range 0..{Gpp.n - 1}")
    bset = set(B)
    nbrs = {b: set() for b in B}
    for u, v, _ in Gpp.edges:
        if u in bset and v in bset:
            raise GraphError(f"B is not independent: edge ({u},{v})")
        if u in bset:
            if u == v:
                raise GraphError(f"loop at B vertex {u}")
            nbrs[u].add(v)
        elif v in bset:
            nbrs[v].add(u)
    for b in B:
        if len(nbrs[b]) != 4:
            raise GraphError(
                f"B vertex {b} has {len(nbrs[b])} distinct neighbors, not 4"
            )
    a_side = sorted(set().union(*nbrs.values()) if B else set())
    relabel = {v: i for i, v in enumerate(a_side)}
    relabel.update({b: len(a_side) + i for i, b in enumerate(B)})
    edges = [(relabel[x], relabel[b]) for b in B for x in nbrs[b]]
    H = Graph(len(a_side) + len(B), edges)
    P = Bipartition(
        frozenset(range(len(a_side))),
        frozenset(range(len(a_side), len(a_side) + len(B))),
    )
    return H, P


def complete_to_triangulation(E: PseudoEmbedding) -> tuple:
    """Chord faces between walk positions 0 and 2 until only triangles
    remain.  Parallel edges and loops are fine (pseudograph completion);
    the final scheme has exactly 3(n+g-2) edges on the same surface.

    The chords go in face order: each one crosses the face with the
    smallest key, the smallest state of its mirror pair of cycles, that
    still has length >= 4, from the corner of the key's state s0 to that of
    s2 = step(step(s0)), and cuts off the ear (s0, s1, new state), which is
    checked to close as a triangle.  So each long face keeps its states and
    their mirrors in ascending order: an ear's states drop out, and the two
    new states of the rest of the face, above every old state, go on the
    end, so the face's key is its first state not yet cut off.  A heap of
    the keys picks each chord, no face is walked again, and the result is
    built and traced once: the cost is O(m + sum of L log L) over the long
    faces' lengths L.  A scheme that is already a triangulation is
    returned as it is.

    Raises SchemeError when n + g < 3 or a face is shorter than 3, since
    neither scheme has a completion, and when the completion would have
    more than SCHEME_SIZE_CAP edges, since its scheme file would not read
    back.  Returns (scheme, number of edges added).
    """
    info0 = surface_info(E)
    if E.n + info0.euler_genus < 3:
        raise SchemeError("completion needs n + g >= 3")
    size = 3 * (E.n + info0.euler_genus - 2)
    if size > SCHEME_SIZE_CAP:
        raise SchemeError(f"the triangulation would have {size} edges, above "
                          f"the cap of {SCHEME_SIZE_CAP}")
    walks = trace_faces(E)
    shortest = min((w.length for w in walks), default=3)
    if shortest < 3:  # no chord splits a face of length 1 or 2
        raise SchemeError("completion needs every face to have length at least "
                          f"3; the scheme has a face of length {shortest}")
    if is_triangulation(E):  # already validated and on its own surface
        return E, 0
    budget = edges_short(E)
    editor = _SchemeEditor(E)
    step, mirror = editor.step, editor.mirror
    faces = [sorted([*w.states, *map(mirror, w.states)])
             for w in walks if w.length >= 4]
    length = [len(face) >> 1 for face in faces]
    at = [0] * len(faces)  # where each face's key sits in its list
    heap = [(face[0], i) for i, face in enumerate(faces)]  # sorted, so a heap
    cut = bytearray(4 * size)
    added = 0
    while heap:
        s0, i = heap[0]
        if added >= budget:
            raise RuntimeError("completion exceeded its edge budget")
        s1 = step(s0)
        s2 = step(s1)
        e = editor.add_edge(editor.corner(s0), editor.corner(s2), (s0 ^ s2) & 1)
        added += 1
        x = step(s1)
        if x >> 2 != e or step(x) != s0 or step(s0) != s1:
            raise RuntimeError(f"the chord from state {s0} cut off no triangle")
        cut[s0] = cut[s1] = cut[mirror(s0)] = cut[mirror(s1)] = 1
        length[i] -= 1
        if length[i] == 3:
            heapq.heappop(heap)
            continue
        face = faces[i]
        face += (mirror(x) ^ 1, x ^ 1)  # the new edge's other two states
        k = at[i]
        while cut[face[k]]:
            k += 1
        at[i] = k
        heapq.heapreplace(heap, (face[k], i))
    cur = editor.freeze(info0)
    if not is_triangulation(cur):
        raise RuntimeError("completion finished with a non-triangle left")
    if cur.m != size:
        raise RuntimeError("completed scheme has a wrong edge count")
    return cur, added


def is_ordered_sequence(G: Graph, seq: Iterable[int]) -> bool:
    """Each vertex's closed neighborhood may meet the union of the earlier
    closed neighborhoods in at most 2 vertices."""
    seq = list(seq)
    if len(set(seq)) != len(seq):
        raise GraphError("ordered sequences must not repeat vertices")
    acc = set()
    for v in seq:
        cn = closed_neighborhood(G, v)
        if len(cn & acc) > 2:
            return False
        acc |= cn
    return True


def find_ordered_sequence(
    G: Graph, P: Bipartition, s: int, c_schedule: Iterable[int] | None = None
):
    """Greedy search for an ordered sequence of s part_b vertices.

    Level l of the recursion (l vertices still needed) picks the lowest
    live, unpicked part_b vertex with at most two live neighbors of live
    degree >= c, for c = c_schedule[l-2]; the level-1 pick is just the
    lowest live, unpicked part_b vertex.  A live degree counts live
    neighbors only.  After a pick, every live neighbor except the two of
    highest live degree (ties to the lower index, degrees as before the
    pick's deletions) has its closed neighborhood deleted.  The default
    schedule is c = 7 for level 2 plus the optimal recurrence schedule for
    the genus lower bound of (G, P).

    Live degrees sit in a list, decremented once for each deleted vertex's
    neighbors, so the upkeep over all levels is O(n + m) and each level
    adds one scan of part_b, at most four neighbors per vertex.

    Returns the sequence v_1..v_s, or None when the greedy runs out of
    vertices or its result fails the ordered-sequence check in the full
    graph.  None is a "size hypothesis not met" answer, not an error: this
    greedy can miss sequences that exist (see the test suite for a sharp
    example), so only success carries information.
    """
    check_bipartition(G, P)
    if s < 1:
        raise GraphError("sequence length must be at least 1")
    order = sorted(P.part_b)
    for b in order:
        if G.degree(b) > 4:
            raise GraphError(f"part_b vertex {b} has degree {G.degree(b)} > 4")
    if c_schedule is None:
        if G.n >= 3:
            g_est = max(1, bipartite_genus_lower_bound(G, P))
        else:
            g_est = 1
        schedule = [7] + list(optimal_schedule(g_est, max(2, s)).c_schedule)
    else:
        schedule = list(c_schedule)
        if len(schedule) < s - 1:
            raise GraphError(
                f"c_schedule has {len(schedule)} entries; need {s - 1}"
            )
        if any(c < 7 for c in schedule):
            raise GraphError("every schedule entry must be at least 7")
    adj = [G.neighbors(v) for v in range(G.n)]
    deg = [len(a) for a in adj]
    alive = bytearray(b"\1") * G.n
    picked = bytearray(G.n)
    picks = []
    # no live degree reaches n, so the level-1 pick has no heavy neighbor
    for c in [*reversed(schedule[:s - 1]), G.n]:
        v = next((b for b in order if alive[b] and not picked[b]
                  and sum(alive[u] and deg[u] >= c for u in adj[b]) <= 2), None)
        if v is None:
            return None
        picks.append(v)
        picked[v] = 1
        nb = sorted((u for u in adj[v] if alive[u]), key=lambda u: (-deg[u], u))
        for u in nb[2:]:
            for x in (u, *adj[u]):
                if alive[x]:
                    alive[x] = 0
                    for y in adj[x]:
                        deg[y] -= 1
    seq = picks[::-1]
    if not is_ordered_sequence(G, seq):
        return None
    return seq


class SurgeryReport(namedtuple("SurgeryReport", (
    "input_scheme",
    "chorded_scheme",
    "apexed_scheme",
    "apex_set",
    "bipartite_extract",  # (Graph, Bipartition)
    "edges_added_to_triangulate",
    "mode",
))):
    __slots__ = ()


def run_lemma5_pipeline(E: PseudoEmbedding, mode: str) -> SurgeryReport:
    """chord_faces -> insert_apexes -> bipartite_extract, plus the
    triangulation deficit edges_short(E) of the original scheme (the number
    of edges complete_to_triangulation adds, read off the surface).

    Asserts the pipeline's accounting on the way out: apexes have degree 4
    and their closed neighborhoods induce K5 (the input being edge-maximal
    makes the four apex neighbors pairwise adjacent), and the deficit is at
    most 5|B|-1 (nonorientable) or 4|B|-1 (orientable) whenever any apex
    was needed at all.
    """
    factor = _period(mode)
    if E.n < 4:
        raise SchemeError("pipeline needs at least 4 vertices")
    ok, witness = is_edge_maximal_embedding(E)
    if not ok:
        fi, pair = witness
        raise SchemeError(
            f"input is not edge-maximal: face {fi} misses edge {pair}"
        )
    chorded = chord_faces(E, mode)
    apexed, apexes = insert_apexes(chorded)
    H, P = bipartite_extract(apexed, apexes)
    added = edges_short(E)
    adjacency = set()
    nbrs = {w: set() for w in apexes}
    for u, v, _ in apexed.edges:
        adjacency.add((u, v) if u < v else (v, u))
        if u in nbrs:
            nbrs[u].add(v)
        if v in nbrs:
            nbrs[v].add(u)
    for w in apexes:
        around = sorted(nbrs[w])
        for i, x in enumerate(around):
            for y in around[i + 1 :]:
                if (x, y) not in adjacency:
                    raise RuntimeError(
                        f"apex {w}: neighbors {x},{y} are not adjacent, "
                        "N[w] is not a K5"
                    )
    if apexes:
        if added > factor * len(apexes) - 1:
            raise RuntimeError(
                f"deficit {added} exceeds {factor}|B|-1 = "
                f"{factor * len(apexes) - 1}"
            )
    elif added != 0:
        raise RuntimeError("no apexes were placed yet the input was short")
    return SurgeryReport(
        input_scheme=E,
        chorded_scheme=chorded,
        apexed_scheme=apexed,
        apex_set=tuple(apexes),
        bipartite_extract=(H, P),
        edges_added_to_triangulate=added,
        mode=mode,
    )
