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
from collections import namedtuple
from itertools import combinations, permutations
from math import factorial, prod

from .graphs import (EDGE_LIST_VERTEX_CAP, Bipartition, Graph, GraphError,
                     is_connected)
from .embedding import (
    PseudoEmbedding,
    SchemeError,
    SurfaceInfo,
    _audited_genus,
    _cycles,
    _link,
    _SchemeEditor,
    surface_info,
    trace_faces,
)

# enumerate --census on 7,962,624 schemes, 16 MB either way: 0.9 s in mode all
# (K5, a prefix trace per 192 schemes), 16-19 s in orientable-only (K5, a fifth
# edge at each vertex, one per 48); in-process, 2-core, Python 3.11.7
ENUMERATION_CAP = 10**7
# construct kmn and construct family at this many edges take at most 0.6 s
# and 95 MB (ru_maxrss, 2-core machine, Python 3.11.7); 10^6 took 4.2 s and
# 370 MB for K_{1000,1000}
CONSTRUCT_EDGE_CAP = 10**5
# construct_proposition2 builds three schemes, in time and memory linear in
# g: at this cap `construct prop2` takes 1.2-1.4 s and 70-71 MB, 0.8-0.9 s
# and 52 MB with --orientable, writing to a file or to stdout, and the
# construction alone 1.0-1.1 s and 65 MB, 0.7-0.8 s and 49 MB orientable
# (in-process ru_maxrss, 2-core machine, Python 3.11.7)
PROP2_GENUS_CAP = 10**4
# a climb move costs 0.6-1.1 us and a restart's set-up 31-47 us, so a
# restart is priced at REGEN_SETUP_MOVES moves more than its climb, and
# regenerate_k8_c5_fixture stalls for at most about 11 s at this cap, the
# same in one restart as in 150,000 one-move restarts
REGEN_MOVE_CAP = 10**7
REGEN_SETUP_MOVES = 64


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete graph needs n >= 1")
    return Graph(n, list(combinations(range(n), 2)))


def _check_edge_count(m: int) -> None:
    if m > CONSTRUCT_EDGE_CAP:
        raise GraphError(
            f"graph would have {m} edges, above the cap of {CONSTRUCT_EDGE_CAP}"
        )


def complete_bipartite(a: int, b: int) -> tuple:
    """K_{a,b} with part_a = 0..a-1 and part_b = a..a+b-1."""
    if a < 1 or b < 1:
        raise GraphError("complete bipartite graph needs a, b >= 1")
    _check_edge_count(a * b)
    if a + b > EDGE_LIST_VERTEX_CAP:  # parse_edge_list would refuse its edge list
        raise GraphError(f"graph would have {a + b} vertices, above the cap "
                         f"of {EDGE_LIST_VERTEX_CAP}")
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


def _label_faces(phi: list, lab: list, at: list, face_len: list, darts) -> None:
    """Give each cycle of phi through the given darts a new face label, from
    len(face_len) on, and each of its darts its position along it.  Meeting
    a dart labelled in this pass means phi is not a permutation."""
    base = len(face_len)
    for start in darts:
        if lab[start] >= base:
            continue
        label, d, pos = len(face_len), start, 0
        while pos == 0 or d != start:
            if lab[d] >= base:
                raise RuntimeError("state map failed to close a cycle")
            lab[d], at[d] = label, pos
            d, pos = phi[d], pos + 1
        face_len.append(pos)


def _swap_gain(lab: list, at: list, face_len: list, a: int, b: int) -> int:
    """Face-count change, -2, 0 or 2, when distinct darts a and b trade places
    in one rotation (the rule is proved in regenerate_k8_c5_fixture)."""
    x, y = a ^ 1, b ^ 1
    cx, cy, ca, cb = lab[x], lab[y], lab[a], lab[b]
    if cx != cy:  # (x y) joins faces cx and cy
        return 0 if ca == cb or (ca in (cx, cy) and cb in (cx, cy)) else -2
    if ca != cb or ca != cx:  # (x y) splits cx, and a, b are not both on it
        return 0 if ca != cb else 2
    n, py = face_len[cx], at[y]
    span = (at[x] - py) % n
    same = (1 <= (at[a] - py) % n <= span) == (1 <= (at[b] - py) % n <= span)
    return 2 if same else 0


def regenerate_k8_c5_fixture(
    seed: int, restarts: int = 40, iters: int = 30000
) -> PseudoEmbedding | None:
    """Hill-climb for a 15-face (genus 2) orientable scheme of K8-C5.

    Moves swap two darts in one vertex's rotation and are kept when the
    face count does not drop.  15 faces is optimal: 2m/3 = 15.33 caps the
    face count, so f = 15 means Euler genus 2.  Returns None if every
    restart stalls.  Needs restarts, iters >= 1 and restarts * (iters +
    REGEN_SETUP_MOVES) at most REGEN_MOVE_CAP.

    The climb keeps, on integer darts 2e + end, the face map p = r x of
    the all-positive scheme (r the rotation successor, x(d) = d ^ 1), and
    for each dart its face's label and its place along it.  Swapping darts
    a and b turns r into t r t with t = (a b), so p into t p (xa xb),
    conjugate to p (xa xb) (a b), maps applied right to left (Mohar &
    Thomassen, Graphs on Surfaces, 3.2-3.3).  And q (u v) splits q's cycle
    through u and v into (u, q v, ...) and (v, q u, ...) if they share it,
    else joins their cycles: each transposition moves the count by 1.
    After face c splits at u = xa, v = xb, a dart z of c stays with u iff
    1 <= (pos z - pos v) mod |c| <= (pos u - pos v) mod |c|; after a join
    both labels name one cycle.  So _swap_gain prices a move from labels
    and places alone, and a rejected move touches nothing.  A kept move
    rewrites p at xa, xb, x pred(a) and x pred(b), the last two now sent
    to b and a, so only the faces through a, b, xa and xb are labelled
    again.  The result is built as a scheme and audited by a full trace.
    """
    if (restarts < 1 or iters < 1
            or restarts * (iters + REGEN_SETUP_MOVES) > REGEN_MOVE_CAP):
        raise SchemeError(
            f"regen-fixture needs restarts >= 1, iters >= 1 and restarts * "
            f"(iters + {REGEN_SETUP_MOVES}) at most {REGEN_MOVE_CAP}, got "
            f"{restarts} and {iters}"
        )
    pairs = _k8_c5_pairs()
    darts_at = [[] for _ in range(8)]
    for e, (u, v) in enumerate(pairs):
        darts_at[u].append(2 * e)
        darts_at[v].append(2 * e + 1)
    widths = [(len(ds), len(ds).bit_length()) for ds in darts_at]
    phi = [0] * (2 * len(pairs))
    rng = random.Random(seed)
    bits = rng.getrandbits
    for _ in range(restarts):
        rot = [list(ds) for ds in darts_at]
        for r in rot:
            rng.shuffle(r)
            for k in range(len(r)):
                phi[r[k - 1] ^ 1] = r[k]
        lab, at, face_len = [-1] * len(phi), [0] * len(phi), []
        _label_faces(phi, lab, at, face_len, range(len(phi)))
        best = len(face_len)
        for _ in range(iters):
            if best == 15:
                break
            # rng.randrange(n) as CPython draws it: k = n.bit_length() bits,
            # drawn again while they reach n
            v = bits(4)
            while v >= 8:
                v = bits(4)
            r = rot[v]
            size, k = widths[v]
            i = bits(k)
            while i >= size:
                i = bits(k)
            j = bits(k)
            while j >= size:
                j = bits(k)
            if i == j:
                continue
            a, b = r[i], r[j]
            gain = _swap_gain(lab, at, face_len, a, b)
            if gain < 0:
                continue
            best += gain
            r[i], r[j] = b, a
            for k in (i, i + 1, j, j + 1):
                phi[r[k - 1] ^ 1] = r[k % len(r)]
            _label_faces(phi, lab, at, face_len, (a, b, a ^ 1, b ^ 1))
        if best == 15:
            rotation = [[(d >> 1, d & 1) for d in r] for r in rot]
            E = PseudoEmbedding(8, [(u, v, 1) for u, v in pairs], rotation)
            if surface_info(E) != SurfaceInfo(2, True):  # n = 8, m = 23, f = 15
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


class LowerBoundFamily(namedtuple("LowerBoundFamily", "graph bipartition g s")):
    __slots__ = ()


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
    _check_edge_count(3 * (2 * g + 2) + len(_Q_EDGES) * (s - 2))
    edges = [(i, 3 + j) for i in range(3) for j in range(2 * g + 2)]
    part_a = set(range(3))
    part_b = set(range(3, 2 * g + 5))
    offset = 2 * g + 5
    for _ in range(s - 2):
        edges.extend((offset + u, offset + v) for u, v in _Q_EDGES)
        part_b.update(offset + b for b in (0, 1, 2))
        part_a.update(offset + a for a in (3, 4, 5, 6, 7))
        offset += 8
    return LowerBoundFamily(Graph(offset, edges), Bipartition(part_a, part_b), g, s)


def _enumeration_total(G: Graph, signature_mode: str) -> int:
    """How many schemes a census of G covers: prod_v (deg(v)-1)!
    rotation systems, times 2^m signature vectors in mode "all".  Checks
    the mode and that G is connected with an edge, and refuses a total
    above ENUMERATION_CAP."""
    if signature_mode not in ("orientable-only", "all"):
        raise GraphError("signature_mode must be 'orientable-only' or 'all'")
    if G.m == 0:
        raise GraphError("scheme enumeration needs at least one edge")
    if not is_connected(G):
        raise GraphError("scheme enumeration needs a connected graph")
    total = (prod(factorial(max(0, G.degree(v) - 1)) for v in range(G.n))
             * (2 ** G.m if signature_mode == "all" else 1))
    if total > ENUMERATION_CAP:
        raise GraphError(f"enumeration would visit {total} schemes, above the "
                         f"cap of {ENUMERATION_CAP}")
    return total


def _census_orders(G: Graph) -> tuple:
    """Each vertex's orders, its first dart (by edge id) and a permutation
    of the rest, and the composed vertex c, the last with the most.  The
    hub, the least vertex of degree at least 3, takes only (h, a1..ak) with
    a1 < ak, not its reverse (h, ak..a1): mirror images are left out."""
    darts_at = [[] for _ in range(G.n)]
    for e, (u, v) in enumerate(sorted(G.edges)):
        darts_at[u].append(2 * e)
        darts_at[v].append(2 * e + 1)
    hub = next((v for v in range(G.n) if len(darts_at[v]) >= 3), None)
    orders = [[(darts[0],) + perm for perm in permutations(darts[1:])
               if v != hub or perm[0] < perm[-1]]
              for v, darts in enumerate(darts_at)]
    return orders, max(range(G.n), key=lambda v: (len(orders[v]), v))


# public so that perfbench's tracer times it as constructions.enumerate_s
def enumerate_small_schemes(G: Graph):
    """Yield one live state table per prefix, a choice of orders at every
    vertex but c in the order of itertools.product, written one vertex at a
    time by a depth-first walk that lays c's first order as it passes c.
    So c always holds an order, and a walk leaving c ends on arriving at
    it.  G must be connected, with an edge, as scheme_census checks."""
    orders, c = _census_orders(G)
    orders[c] = orders[c][:1]  # the census lays the others
    leave = [-1] * (4 * G.m)

    def walk(v):
        for ids in orders[v]:
            _link(ids, leave)
            yield from walk(v + 1) if v + 1 < G.n else (leave,)

    yield from walk(0)


def _trace_prefix(leave: list, neg: list, exits: list, slot: list) -> tuple:
    """For each state exits[i] leaving c (slot[exits[i]] = i), the state
    arr[i] where its walk arrives at c and the arc's length alen[i], and the
    closed cycles' kept lengths.  An arc's twin, from a ^ 1, the mirror of
    its last state, is its mirror image reversed, as _cycles checks."""
    seen = [0] * len(leave)
    for s in exits:
        seen[s] = 2
    arr, alen = [0] * len(exits), [0] * len(exits)
    for arc in _cycles(leave, neg, seen, exits, slot):
        a = arc[-1] ^ (2 | neg[arc[-1] >> 2])
        arr[slot[arc[0]]], alen[slot[arc[0]]] = a, len(arc)
        arr[slot[a ^ 1]], alen[slot[a ^ 1]] = arc[0] ^ 1, len(arc)
    return arr, alen, [len(f) for f in _cycles(leave, neg, seen, range(len(leave)))]


def _faces_through(leave: list, exits: list, slot: list, arr: list,
                   alen: list, closed: list) -> list:
    """closed and the lengths of the kept faces through c, on c's order in
    the table: cycles of arcs, exits[j]'s and then leave[arr[j]]'s.  Raises
    RuntimeError unless each closes within the exits, its twin runs through
    the mirror exits in reverse and is not itself, and the sides sum to 2m."""
    lab, faces, q = [0] * len(exits) + [1], list(closed), 0  # lab[-1]: off c
    for i in range(len(exits)):
        if lab[i]:
            continue
        q, j, length = q + 2, i, 0  # q labels the face's exits, q + 1 its twin's
        while j != i or not length:  # every arc has a state
            lab[j], a = q, arr[j]  # the twin's arc from slot[a ^ 1] mirrors j's
            lab[slot[a ^ 1]], length, s = q + 1, length + alen[j], leave[a]
            j = slot[s]
            if j != i and lab[j]:
                raise RuntimeError(
                    "a face through c is its own mirror image" if lab[j] == q + 1
                    else f"a face through c fails to close within {len(exits)} exits")
            if leave[s ^ 1] != a ^ 1:
                raise RuntimeError(
                    "a face through c has a twin that is not its mirror image")
        faces.append(length)
    if sum(faces) != len(leave) // 2:
        raise RuntimeError(
            f"face sides sum to {sum(faces)}, expected {len(leave) // 2}")
    return faces


def _tree_positive_masks(G: Graph) -> list:
    """The signature vectors of connected G that are positive on its
    breadth-first spanning tree from vertex 0, as neg lists (neg[e] = 1
    for signature -1, edges in sorted order): 2^(m-n+1) of them, one per
    switching class."""
    pairs = sorted(G.edges)
    seen, queue, tree = {0}, [0], set()
    for x in queue:
        for y in sorted(G.neighbors(x)):
            if y not in seen:
                seen.add(y)
                queue.append(y)
                tree.add((min(x, y), max(x, y)))
    free = [e for e, p in enumerate(pairs) if p not in tree]
    masks = [[0] * len(pairs) for _ in range(2 ** len(free))]
    for bits, neg in enumerate(masks):
        for j, e in enumerate(free):
            neg[e] = bits >> j & 1
    return masks


def scheme_census(G: Graph, signature_mode: str = "orientable-only") -> dict:
    """{(Euler genus, orientable, sorted face lengths): count} over the
    schemes of G with each vertex's first dart fixed, every signature
    vector of each in mode "all" and the all-positive one in mode
    "orientable-only".

    Switching a vertex reverses its rotation and negates its signatures,
    and leaves every facial walk, the genus and the orientability as they
    were (Mohar & Thomassen, Graphs on Surfaces, 2001, ch. 3).  A reversed
    rotation with its first dart fixed is again a counted one, so the
    switchings of vertex sets S act on the counted schemes.  S and its
    complement give the same signature, and their rotation systems are
    mirror images: switching every vertex reverses every rotation and
    negates each signature twice.  The hub's order (h, a1..ak) reverses to
    (h, ak..a1), so each orbit of 2^n schemes holds exactly one pair (with
    a1 < ak, as _census_orders takes them, and signature positive on a
    fixed spanning tree), weighted 2^n in mode "all" and 2 in mode
    "orientable-only", where the one signature is all positive.  With no
    hub (G a path or a cycle) there is one rotation system, its own mirror
    image, and the weights are 2^(n-1) and 1.  A tree-positive signature is
    orientable exactly when it is all positive.

    Consecutive pairs differ in the order at c alone, so each prefix that
    enumerate_small_schemes yields is traced once per signature into arcs
    from c to c and closed cycles, and each order of c composes the faces
    through c from the arcs in time linear in deg(c), audited by _cycles
    and _faces_through.  The genus audits of surface_info run once per
    class, and the counts must sum to the total that ENUMERATION_CAP limits.
    """
    total = _enumeration_total(G, signature_mode)
    if signature_mode == "all":
        masks, weight = _tree_positive_masks(G), 2 ** (G.n - 1)
    else:
        masks, weight = [[0] * G.m], 1
    if any(G.degree(v) >= 3 for v in range(G.n)):
        weight *= 2
    orders, c = _census_orders(G)
    exits = sorted(s for x in orders[c][0] for s in (2 * x, 2 * x + 1))
    slot = [exits.index(s) if s in exits else -1  # slot[-1] = -1 for leave[t] = -1
            for s in range(4 * G.m + 1)]
    counts = {}
    for leave in enumerate_small_schemes(G):
        traced = [_trace_prefix(leave, neg, exits, slot) + (not any(neg),)
                  for neg in masks]
        for ids in orders[c]:
            _link(ids, leave)
            for arr, alen, closed, orientable in traced:
                key = (orientable, tuple(sorted(
                    _faces_through(leave, exits, slot, arr, alen, closed))))
                counts[key] = counts.get(key, 0) + 1
    classes = {(_audited_genus(G.n, G.m, len(lens), orientable), orientable, lens):
               k * weight for (orientable, lens), k in counts.items()}
    if sum(classes.values()) != total:
        raise RuntimeError(
            f"census counts {sum(classes.values())} schemes, expected {total}"
        )
    return classes


# Block pasting: join a new vertex w to the three corners of a triangular
# face so that the faces at w hit a target: planar (three triangles, genus
# unchanged), crosscap (faces {3, 6}, Euler genus +1) or handle (one 9-gon,
# +2, orientability kept).  Switching w leaves every face unchanged, so w's
# rotation is fixed and the faces at w depend only on the corner sides and
# the new signatures.  With P the mask of corners on side +1, edge j is
# negative when bit j of P ^ flip is set: flip 0 leaves three triangles, one
# bit {3, 6}, three bits a 9-gon, and two bits a 9-gon on a nonorientable
# surface, fit for a handle only when the input is nonorientable already.
# The smallest admissible mask is the first hit of an exhaustive search over
# both rotations of w and all 8 masks.  Each paste reads its face off the
# scheme editor's live table and walks the faces through its new edges to
# check their lengths, so every paste proves the rule again; the editor's
# freeze then audits the surface of its one build.

_PASTE_TARGETS = {
    # target: (Euler genus change, face lengths at w, admissible flips)
    "planar": (0, (3, 3, 3), (0,)),
    "crosscap": (1, (3, 6), (1, 2, 4)),
    "handle": (2, (9,), (7,)),
}


def _paste(editor: _SchemeEditor, s: int, target: str, orientable: bool) -> None:
    """Paste a block on the face through state s of an editor, whose
    scheme's orientability the flag gives.  The face must be a triangle on
    three vertices, and the faces the paste forms must have the target's
    lengths."""
    _, faces_want, flips = _PASTE_TARGETS[target]
    if target == "handle" and not orientable:
        flips = (7, 6, 5, 3)
    corners = [editor.corner(t) for t in editor.face(s)]
    if len(corners) != 3 or len({c[0] for c in corners}) != 3:
        raise SchemeError("paste_block needs a triangular face on three vertices")
    sides = sum(1 << j for j, c in enumerate(corners) if not c[2])
    mask = min(sides ^ f for f in flips)
    e0 = len(editor.edges)
    editor.add_star(corners, [mask >> j & 1 for j in range(3)], 0)
    lengths, walked = [], set()  # every face the paste forms runs through w
    for t in range(4 * e0, len(editor.leave)):
        if t not in walked:
            cycle = editor.face(t)
            walked.update(cycle, map(editor.mirror, cycle))
            lengths.append(len(cycle))
    got = tuple(sorted(lengths))
    if got != faces_want:
        raise RuntimeError(
            f"{target} paste on the face of state {s} formed faces {got}"
        )


def paste_block(E: PseudoEmbedding, faces, target: str) -> PseudoEmbedding:
    """E with a block pasted on each listed face (distinct indices into
    trace_faces(E), each a triangle on three vertices) on one scheme editor.
    Distinct faces have distinct corners, read from the live state table,
    so this equals pasting on them one at a time, in order.  One scheme is
    built, and freeze audits that the genus grew by the target's change
    per block and that the surface is orientable exactly when E is and no
    crosscap was pasted."""
    if target not in _PASTE_TARGETS:
        raise SchemeError(f"unknown paste target {target!r}")
    walks = trace_faces(E)
    faces = list(faces)
    for i in faces:
        if not 0 <= i < len(walks):
            raise SchemeError(f"face index {i} out of range")
    if len(set(faces)) != len(faces):
        raise SchemeError("paste_block got a face index more than once")
    g0, orientable = surface_info(E)
    editor = _SchemeEditor(E)
    for i in faces:
        _paste(editor, walks[i].states[0], target, orientable)
    return editor.freeze(SurfaceInfo(
        g0 + len(faces) * _PASTE_TARGETS[target][0],
        orientable and (target != "crosscap" or not faces),
    ))


def _k3_scheme() -> PseudoEmbedding:
    edges = [(0, 1, 1), (0, 2, 1), (1, 2, 1)]
    rotation = (((0, 0), (1, 0)), ((0, 1), (2, 0)), ((1, 1), (2, 1)))
    return PseudoEmbedding(3, edges, rotation)


def construct_proposition2(
    g: int, orientable: bool, base_faces: int | None = None
) -> PseudoEmbedding:
    """Edge-maximal embedding of a planar graph in the surface of Euler
    genus g, exactly 3g edges short of a triangulation.

    A planar triangulation is grown from K3 by planar pastes until it has
    at least max(g, base_faces) faces; then g crosscap blocks (or g/2
    handle blocks) are pasted onto faces whose vertices all predate the
    block phase.  Each block trades a triangle for one face that cannot be
    chorded (every pair on it is already adjacent), which is what keeps the
    result edge-maximal while staying short of a triangulation.

    The base grows on one scheme editor, by pastes on the face of state 0,
    the first in trace order.  A face pasted on holds its new vertex, so the
    blocks go on the base's first faces, by one paste_block call: three
    schemes are built (K3, the base, the result), in time linear in g, and
    that call's audit puts the result on the surface asked for.
    """
    if g < 1:
        raise SchemeError("construction needs Euler genus g >= 1")
    if orientable and g % 2 != 0:
        raise SchemeError("orientable surfaces have even Euler genus")
    if base_faces is not None and base_faces < g:
        raise SchemeError("base_faces must be at least g")
    for name, value in (("Euler genus", g), ("base_faces", base_faces or 0)):
        if value > PROP2_GENUS_CAP:
            raise SchemeError(
                f"{name} {value} is above the cap of {PROP2_GENUS_CAP}"
            )
    target_f = max(g, base_faces or 0)
    editor, faces = _SchemeEditor(_k3_scheme()), 2
    while faces < target_f:  # a planar paste makes one triangle three
        _paste(editor, 0, "planar", True)
        faces += 2
    base = editor.freeze(SurfaceInfo(0, True))
    if orientable:
        return paste_block(base, range(g // 2), "handle")
    return paste_block(base, range(g), "crosscap")
