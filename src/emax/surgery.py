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
complete_to_triangulation also keeps the editor's face index: each chord
re-walks only the face it splits, and the result is traced once, so the
completion costs O(m + the sum of the split faces' lengths) where a
rebuild per edge cost O(m) per edge.

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

from collections import namedtuple
from collections.abc import Iterable

from .bounds import optimal_schedule
from .graphs import (
    Bipartition,
    Graph,
    GraphError,
    bipartite_genus_lower_bound,
    check_bipartition,
    closed_neighborhood,
)
from .embedding import (
    PseudoEmbedding,
    SchemeError,
    trace_faces,
    surface_info,
    orientability,
    is_edge_maximal_embedding,
    is_triangulation,
    edges_short,
    four_distinct_window,
    _SchemeEditor,
)

SURGERY_MODES = ("nonorientable", "orientable")


class HypothesisViolation(RuntimeError):
    """No qualifying vertex exists; the genus-size hypothesis was false."""


def chord_positions(t: int, mode: str) -> list:
    """Chord targets for a length-t face: i = 3 (mod 5) with 3 <= i <= t-5,
    or i = 3 (mod 4) with 3 <= i <= t-4 in orientable mode."""
    if mode == "nonorientable":
        return list(range(3, t - 4, 5))
    if mode == "orientable":
        return list(range(3, t - 3, 4))
    raise SchemeError(f"mode must be one of {SURGERY_MODES}")


def face_split_count(t: int, mode: str) -> int:
    """How many faces a length-t face becomes: floor((t+2)/5) or
    floor((t+1)/4)."""
    if mode == "nonorientable":
        return (t + 2) // 5
    if mode == "orientable":
        return (t + 1) // 4
    raise SchemeError(f"mode must be one of {SURGERY_MODES}")


def chord_faces(E: PseudoEmbedding, mode: str) -> PseudoEmbedding:
    """Chord every face from a corner with four distinct vertices ahead.

    Each face of length >= 4 is rotated so the walk starts at four distinct
    vertices, then chords v0-vi are laid across the face at the residues in
    chord_positions.  Chord signatures are the product of the two corner
    sides, which is what keeps both new walks consistent; chords that
    duplicate existing adjacencies (or hit the same vertex twice) are kept
    as parallel edges and loops, so the result is a pseudograph scheme.

    The rebuild is fully audited: genus and orientability unchanged, each
    original face splits into exactly face_split_count pieces, and every
    non-triangular face of the result has at least four distinct vertices.
    """
    if mode not in SURGERY_MODES:
        raise SchemeError(f"mode must be one of {SURGERY_MODES}")
    if not E.is_simple_graph():
        raise SchemeError("chord_faces expects a scheme of a simple graph")
    if E.n < 4:
        raise SchemeError("chord_faces needs at least 4 vertices")
    orient0, _ = orientability(E)
    if mode == "orientable" and not orient0:
        raise SchemeError("orientable mode needs an orientable scheme")
    faces = trace_faces(E)
    g0 = 2 - E.n + E.m - len(faces)
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
        # the count identity below plus the global face/genus audit after
        # the rebuild pin the per-face splits: a chord lives inside its own
        # face, a single added edge splits at most one face, and the genus
        # staying flat forces every chord to realize that +1
        if len(spots) + 1 != face_split_count(t, mode):
            raise RuntimeError(
                f"chord count {len(spots)} inconsistent with split count "
                f"{face_split_count(t, mode)} for face length {t}"
            )
        for i in spots:
            target = editor.corner(walk.states[(r + i) % t])
            editor.add_edge(anchor, target, anchor[2] ^ target[2])
    result = editor.freeze()
    rfaces = trace_faces(result)
    if len(rfaces) != len(faces) + result.m - E.m:
        raise RuntimeError("chording lost or gained an unexpected face")
    if 2 - result.n + result.m - len(rfaces) != g0:
        raise RuntimeError("chording changed the Euler genus")
    if orientability(result)[0] != orient0:
        raise RuntimeError("chording changed orientability")
    for ri, rwalk in enumerate(rfaces):
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
    and splits into 4 faces, so the surface is untouched).

    Returns (scheme, apex vertex ids).
    """
    faces = trace_faces(Gp)
    g0 = 2 - Gp.n + Gp.m - len(faces)
    orient0, _ = orientability(Gp)
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
        w, prev = editor.add_vertex(), -1
        for pj in spots:
            # each edge goes just before the last one at w, so the wedge
            # arriving on edge j finds edge j-1 next by rotation successor,
            # as face tracing leaves a positive-side vertex, and each apex
            # triangle closes
            corner = editor.corner(walk.states[pj])
            prev = 2 * editor.add_edge(corner, (w, prev, 1), corner[2]) + 1
        apexes.append(w)
    if not apexes:
        return Gp, ()
    result = editor.freeze()
    rfaces = trace_faces(result)
    if len(rfaces) != len(faces) + 3 * len(apexes):
        raise RuntimeError("apex insertion produced a wrong face count")
    if 2 - result.n + result.m - len(rfaces) != g0:
        raise RuntimeError("apex insertion changed the Euler genus")
    if orientability(result)[0] != orient0:
        raise RuntimeError("apex insertion changed orientability")
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
    smallest key that still has length >= 4.  They are laid on a scheme
    editor, which re-walks only the face each chord splits, and the result
    is built and traced once, so the cost is O(m + the sum of the split
    faces' lengths) rather than a build and a full trace per edge.

    Raises SchemeError when n + g < 3 or a face is shorter than 3, since
    neither scheme has a completion.  Returns (scheme, number of edges
    added).
    """
    info0 = surface_info(E)
    if E.n + info0.euler_genus < 3:
        raise SchemeError("completion needs n + g >= 3")
    shortest = min((w.length for w in trace_faces(E)), default=3)
    if shortest < 3:  # no chord splits a face of length 1 or 2
        raise SchemeError("completion needs every face to have length at least "
                          f"3; the scheme has a face of length {shortest}")
    budget = edges_short(E)
    editor = _SchemeEditor(E)
    editor.index_faces()
    added = 0
    while True:
        key = editor.long_face()
        if key is None:
            break
        if added >= budget:
            raise RuntimeError("completion exceeded its edge budget")
        walk = editor.faces[key]
        editor.insert_edge(walk[0], walk[2])
        added += 1
    cur = editor.freeze()
    if not is_triangulation(cur):
        raise RuntimeError("completion finished with a non-triangle left")
    info1 = surface_info(cur)
    if info1 != info0:
        raise RuntimeError("completion changed the surface")
    if cur.m != 3 * (cur.n + info0.euler_genus - 2):
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


def find_low_interference_vertex(
    G: Graph,
    P: Bipartition,
    c: int,
    *,
    alive: frozenset | None = None,
    exclude: Iterable[int] = (),
) -> int:
    """Lowest part_b vertex with at most two neighbors of degree >= c.

    Degrees count only vertices in `alive` when given (the greedy shrinks
    the graph this way without rebuilding it).  Raises HypothesisViolation
    when no vertex qualifies: with |B| large enough relative to the genus
    that cannot happen, so a violation signals a false hypothesis rather
    than bad luck.
    """
    if c < 7:
        raise GraphError("c must be at least 7 for the interference bound")
    check_bipartition(G, P)
    live = frozenset(range(G.n)) if alive is None else frozenset(alive)
    banned = set(exclude)

    def live_degree(u):
        return len(G.neighbors(u) & live)

    for b in sorted(P.part_b & live - banned):
        heavy = sum(1 for u in G.neighbors(b) & live if live_degree(u) >= c)
        if heavy <= 2:
            return b
    raise HypothesisViolation(
        f"every candidate B vertex has 3 or more neighbors of degree >= {c}"
    )


def find_ordered_sequence(
    G: Graph, P: Bipartition, s: int, c_schedule: Iterable[int] | None = None
):
    """Greedy search for an ordered sequence of s part_b vertices.

    Level l of the recursion (l vertices still needed) picks a
    low-interference vertex for c = c_schedule[l-2]; the level-1 pick is
    just the lowest surviving B vertex.  After a pick, every neighbor
    except the two of highest degree (ties to the lower index) has its
    closed neighborhood deleted.  The default schedule is c = 7 for level 2
    plus the optimal recurrence schedule for the genus lower bound of
    (G, P).

    Returns the sequence v_1..v_s, or None when the greedy runs out of
    vertices or its result fails the ordered-sequence check in the full
    graph.  None is a "size hypothesis not met" answer, not an error: this
    greedy can miss sequences that exist (see the test suite for a sharp
    example), so only success carries information.
    """
    check_bipartition(G, P)
    if s < 1:
        raise GraphError("sequence length must be at least 1")
    for b in sorted(P.part_b):
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
    alive = set(range(G.n))
    chosen = set()
    picks = []
    for level in range(s, 0, -1):
        pool = sorted((P.part_b & alive) - chosen)
        if not pool:
            return None
        if level == 1:
            v = pool[0]
        else:
            try:
                v = find_low_interference_vertex(
                    G,
                    P,
                    schedule[level - 2],
                    alive=frozenset(alive),
                    exclude=chosen,
                )
            except HypothesisViolation:
                return None
        picks.append(v)
        chosen.add(v)
        if level > 1:
            nb = G.neighbors(v) & alive
            if len(nb) > 2:
                by_weight = sorted(
                    nb, key=lambda u: (-len(G.neighbors(u) & alive), u)
                )
                for u in by_weight[2:]:
                    alive -= closed_neighborhood(G, u)
    seq = list(reversed(picks))
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
    if mode not in SURGERY_MODES:
        raise SchemeError(f"mode must be one of {SURGERY_MODES}")
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
    for u, v, _ in apexed.edges:
        adjacency.add((u, v) if u < v else (v, u))
    nbrs = {w: set() for w in apexes}
    for u, v, _ in apexed.edges:
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
    factor = 5 if mode == "nonorientable" else 4
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
