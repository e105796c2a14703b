"""Shared test helpers and the acceptance-criteria reporting hook.

test_acceptance.py records one verdict per criterion through `record`;
the terminal-summary hook below prints them as a single block after the
normal pytest output, one line per criterion, so the gate can be read
off a full run at a glance.
"""

import itertools
import json
import random
from collections import namedtuple
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

import pytest

from emax import (
    Bipartition,
    Graph,
    GraphError,
    PseudoEmbedding,
    SchemeError,
    closed_neighborhood,
    edges_short,
    f_exact_s2,
    is_ordered_sequence,
    is_triangulation,
    optimal_schedule,
    surface_info,
    trace_faces,
)
import emax.bounds
from emax.bounds import (
    C_SCAN_CAP_FACTOR,
    SCHEDULE_STEP_CAP,
    SURFACE_KINDS,
    BoundsError,
    _precision_bits,
)
from emax.constructions import _k3_scheme, _k8_c5_pairs
from emax.graphs import _connected
from emax.intervals import (
    Interval,
    PrecisionError,
    alpha7_interval,
    ceil_sqrt,
    ln2_interval,
)

ACCEPTANCE: dict[int, tuple[bool, str]] = {}

CRITERIA = {
    1: "nonorientable schedule table g=1..20",
    2: "orientable schedule table g=2..40 (even)",
    3: "exact verification sweeps for both bound families",
    4: "analytic constants, beta/k structure, claim consistency",
    5: "growth sandwich and closed-form dominance",
    6: "small-scheme enumeration and the pinned fixture",
    7: "edge-maximal scheme constructions",
    8: "face surgery split identities and pipeline deficit law",
    9: "ordered-sequence search agreement with exhaustive search",
    10: "anchor sensitivity of the schedule table",
}


def record(num: int, passed: bool, detail: str) -> None:
    ACCEPTANCE[num] = (bool(passed), detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(CRITERIA):
        if num in ACCEPTANCE:
            passed, detail = ACCEPTANCE[num]
            verdict = "PASS" if passed else "FAIL"
        else:
            verdict, detail = "FAIL", "criterion test did not complete"
        terminalreporter.write_line(
            f"ACCEPTANCE {num}: {verdict} - {CRITERIA[num]}: {detail}"
        )


def assert_frozen_record(rec, fields, text, hashable=True):
    """rec is an immutable record with these fields in this order and repr
    text, equal to a copy rebuilt from its fields by keyword (and of the
    same hash, when hashable), and refusing to set any attribute."""
    cls = type(rec)
    assert cls._fields == fields
    assert repr(rec) == text
    copy = cls(**{f: getattr(rec, f) for f in fields})
    assert copy == rec and copy is not rec
    if hashable:
        assert hash(copy) == hash(rec)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)


# Graph predicates the paper's claims are checked with, brute force on
# desk-scale graphs where an obviously correct search beats a clever one;
# the caps make that scale explicit.

CONNECTIVITY_VERTEX_CAP = 64
HAMILTON_DEGREE_CAP = 10


def is_clique(G: Graph, S: Iterable[int]) -> bool:
    vs = list(set(S))
    for v in vs:
        G._check_vertex(v)
    for i, u in enumerate(vs):
        for v in vs[i + 1 :]:
            if not G.has_edge(u, v):
                return False
    return True


def min_degree(G: Graph) -> int:
    if G.n < 1:
        raise GraphError("min_degree needs at least one vertex")
    return min(G.degree(v) for v in range(G.n))


def is_k_connected(G: Graph, k: int) -> bool:
    """Vertex connectivity >= k for k in {1,2,3}, by removing every vertex
    subset of size < k and checking connectivity.  Brute force; capped at
    n <= 64 vertices."""
    if k not in (1, 2, 3):
        raise GraphError("k must be 1, 2 or 3")
    if G.n > CONNECTIVITY_VERTEX_CAP:
        raise GraphError(
            f"connectivity check capped at n <= {CONNECTIVITY_VERTEX_CAP}"
        )
    if G.n <= k:
        return False
    verts = range(G.n)
    for size in range(k):
        for removed in itertools.combinations(verts, size):
            alive = [v for v in verts if v not in removed]
            index = {v: i for i, v in enumerate(alive)}
            if not _connected([[index[y] for y in G._adj[v] if y in index]
                               for v in alive]):
                return False
    return True


def _has_hamilton_cycle(vertices: list, adj_ok) -> bool:
    """Backtracking Hamilton-cycle search on a small vertex set.

    adj_ok(u, v) tests adjacency.  Fixes the first vertex to kill cyclic
    symmetry; the path extends only along edges, so dead branches prune
    early.
    """
    k = len(vertices)
    if k < 3:
        return False
    first = vertices[0]
    rest = vertices[1:]
    used = [False] * len(rest)

    def extend(last, count):
        if count == k:
            return adj_ok(last, first)
        for i, w in enumerate(rest):
            if not used[i] and adj_ok(last, w):
                used[i] = True
                if extend(w, count + 1):
                    return True
                used[i] = False
        return False

    return extend(first, 1)


def is_locally_hamiltonian(G: Graph) -> bool:
    """True iff every open neighborhood induces a subgraph with a Hamilton
    cycle.  A vertex of degree < 3 makes this false outright (a cycle needs
    three vertices).  Degrees are capped at 10 for the permutation search."""
    for v in range(G.n):
        nb = sorted(G.neighbors(v))
        if len(nb) < 3:
            return False
        if len(nb) > HAMILTON_DEGREE_CAP:
            raise GraphError(
                f"local Hamilton search capped at degree <= {HAMILTON_DEGREE_CAP}"
            )
        if not _has_hamilton_cycle(nb, G.has_edge):
            return False
    return True


def is_planar(G: Graph) -> bool:
    import networkx as nx

    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(G.edges)
    ok, _ = nx.check_planarity(H)
    return ok


def brute_force_ordered(G: Graph, part_b, s: int):
    """Exhaustive search for an ordered sequence of length s inside part_b.

    Complete because the ordered property is prefix-monotone: dropping the
    last vertex of an ordered sequence leaves an ordered sequence, so
    depth-first extension visits a witness whenever one exists.
    """
    order = sorted(part_b)

    def extend(prefix, acc):
        if len(prefix) == s:
            return list(prefix)
        for b in order:
            if b in prefix:
                continue
            cn = closed_neighborhood(G, b)
            if len(cn & acc) > 2:
                continue
            hit = extend(prefix + [b], acc | cn)
            if hit is not None:
                return hit
        return None

    return extend([], set())


def genus_certificate(G: Graph, seq) -> int:
    """|seq| if seq is an ordered sequence whose closed neighborhoods all
    induce cliques on >= 5 vertices (each one forces a K5), else 0.  The
    value is a certified lower bound on the Euler genus of G."""
    seq = list(seq)
    try:
        if not is_ordered_sequence(G, seq):
            return 0
        for v in seq:
            cn = closed_neighborhood(G, v)
            if len(cn) < 5 or not is_clique(G, cn):
                return 0
    except GraphError:
        return 0
    return len(seq)


def random_bipartite_instance(rng):
    """One random small bipartite instance; part A first, then part B.

    Draw order matters: the agreement statistics in the acceptance gate are
    pinned to this exact consumption of the rng stream.
    """
    na = rng.randint(3, 8)
    nb = rng.randint(1, 4)
    n = na + nb
    edges = set()
    for b in range(na, n):
        deg = rng.randint(1, 4)
        for a in rng.sample(range(na), min(deg, na)):
            edges.add((a, b))
    G = Graph(n, sorted(edges))
    P = Bipartition(frozenset(range(na)), frozenset(range(na, n)))
    return G, P


def random_scheme(rng, n: int, extra: int) -> PseudoEmbedding:
    """Random connected scheme on n vertices with about `extra` extra edges."""
    edges = [(i - 1, i) for i in range(1, n)]
    seen = {(u, v) for u, v in edges}
    tries = 0
    while len(edges) < n - 1 + extra and tries < 100:
        u, v = rng.randrange(n), rng.randrange(n)
        tries += 1
        if u == v:
            continue
        e = (min(u, v), max(u, v))
        if e not in seen:
            seen.add(e)
            edges.append(e)
    darts = {u: [] for u in range(n)}
    for eid, (u, v) in enumerate(edges):
        darts[u].append((eid, 0))
        darts[v].append((eid, 1))
    rot = []
    for u in range(n):
        d = darts[u][:]
        rng.shuffle(d)
        rot.append(d)
    sigs = [rng.choice((1, -1)) for _ in edges]
    return PseudoEmbedding(n, [(u, v, s) for (u, v), s in zip(edges, sigs)], rot)


def scheme_dict(E: PseudoEmbedding) -> dict:
    """E as the object of the scheme file format, read off its edges and
    its rotation: a reference for the library's scheme template."""
    return {"n": E.n, "edges": [list(rec) for rec in E.edges],
            "rotation": [[list(d) for d in rot] for rot in E.rotation]}


def scheme_json(E: PseudoEmbedding) -> str:
    """The scheme file text of E, by json.dumps of `scheme_dict`."""
    return json.dumps(scheme_dict(E))


def reference_faces(E: PseudoEmbedding) -> list:
    """Face walks of E by the tuple-state tracer, as (steps, vertices) pairs.

    An oracle for `trace_faces` that reads only `E.edges` and `E.rotation`.
    The scheme derives `rotation` from its state table on each access, so
    it is read once here, and test_embedding's TestDerivedRotation checks
    that it equals the records the scheme was built from.  Darts are (edge,
    end) tuples found through a position dict, states are (dart, side)
    tuples visited in sorted (edge, end, side +1 first) order, and of each
    mirror pair of state cycles the one with the smaller first state is
    kept.
    """
    rotation = E.rotation
    pos = {}
    for v, rot in enumerate(rotation):
        for i, d in enumerate(rot):
            pos[d] = (v, i)

    def step(state):
        (e, end), side = state
        side2 = side * E.edges[e][2]
        v, i = pos[(e, 1 - end)]
        rot = rotation[v]
        return (rot[(i + (1 if side2 > 0 else -1)) % len(rot)], side2)

    def mirror(state):
        (e, end), side = state
        return ((e, 1 - end), -side * E.edges[e][2])

    states = sorted(
        (((e, end), side) for e in range(E.m) for end in (0, 1)
         for side in (1, -1)),
        key=lambda st: (st[0][0], st[0][1], 0 if st[1] > 0 else 1),
    )
    orbit_of, orbits = {}, []
    for s0 in states:
        if s0 in orbit_of:
            continue
        orbit, s = [], s0
        while s not in orbit_of:
            orbit_of[s] = len(orbits)
            orbit.append(s)
            s = step(s)
        assert s == s0
        orbits.append(orbit)
    return [
        (tuple(orbit), tuple(E.edges[e][end] for (e, end), _ in orbit))
        for idx, orbit in enumerate(orbits)
        if orbit_of[mirror(orbit[0])] > idx
    ]


# The list path, an oracle for the editor's splice: corners of a facial
# walk as tuple darts, and a new dart inserted into copied rotation lists.
# The walk enters the vertex at position i along in_dart (the arrival end of
# the previous step's edge) and leaves along out_dart; side is the local
# orientation there.  A new dart laid inside the face at this corner goes
# immediately after in_dart in the rotation when side is +1, immediately
# before it when side is -1.


@dataclass(frozen=True)
class Corner:
    pos: int
    vertex: int
    in_dart: tuple
    out_dart: tuple
    side: int


def walk_corners(E: PseudoEmbedding, walk) -> list:
    """The corners of a walk, decoded from its integer states: state s
    leaves along dart (s >> 2, s >> 1 & 1) on side -1 when s & 1 is set,
    and arrives along the opposite dart of the state before it."""
    corners = []
    states = walk.states
    for i, s in enumerate(states):
        p = states[i - 1]
        d = (s >> 2, s >> 1 & 1)
        corners.append(
            Corner(
                pos=i,
                vertex=E.edges[d[0]][d[1]],
                in_dart=(p >> 2, 1 - (p >> 1 & 1)),
                out_dart=d,
                side=-1 if s & 1 else 1,
            )
        )
    return corners


def insert_dart_at_corner(rot_lists: list, corner: Corner, dart: tuple) -> None:
    """Mutate rot_lists (lists of darts per vertex) to lay `dart` inside the
    face at `corner`.  Repeated insertions at one corner stack adjacent to
    in_dart, which is exactly the nesting chords need."""
    rot = rot_lists[corner.vertex]
    i = rot.index(corner.in_dart)
    if corner.side > 0:
        rot.insert(i + 1, dart)
    else:
        rot.insert(i, dart)


_REFERENCE_PASTE_TARGETS = {
    "planar": (0, (3, 3, 3)),
    "crosscap": (1, (3, 6)),
    "handle": (2, (9,)),
}


def reference_paste(E: PseudoEmbedding, face_index: int, target: str) -> PseudoEmbedding:
    """Block pasting by exhaustive search, an oracle for `paste_block`.

    Tries the 16 variants (w's rotation unreversed first, then reversed;
    signature masks ascending within each), builds and fully retraces each
    one, and returns the first whose faces at w, genus change and (for
    planar and handle) orientability meet the target.
    """
    if target not in _REFERENCE_PASTE_TARGETS:
        raise SchemeError(f"unknown paste target {target!r}")
    dg_want, faces_want = _REFERENCE_PASTE_TARGETS[target]
    faces = trace_faces(E)
    if not (0 <= face_index < len(faces)):
        raise SchemeError(f"face index {face_index} out of range")
    walk = faces[face_index]
    if walk.length != 3 or len(walk.distinct_vertices()) != 3:
        raise SchemeError("paste_block needs a triangular face on three vertices")
    info0 = surface_info(E)
    corners = walk_corners(E, walk)
    w = E.n
    m0 = E.m
    rotation = E.rotation
    for reverse in (False, True):
        for mask in range(8):
            rot_lists = [list(r) for r in rotation] + [[]]
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
                sorted(wk.length for wk in cfaces if w in wk.distinct_vertices())
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


def reference_proposition2(
    g: int, orientable: bool, base_faces: int | None = None
) -> PseudoEmbedding:
    """Proposition 2 by one `reference_paste` per block, an oracle for
    `construct_proposition2`: planar pastes on face 0 of K3 until there are
    max(g, base_faces) faces, then each crosscap (or handle) block on the
    first triangle in trace order whose three vertices all predate the
    blocks, found by scanning every face."""
    E = _k3_scheme()
    while len(trace_faces(E)) < max(g, base_faces or 0):
        E = reference_paste(E, 0, "planar")
    n0 = E.n
    blocks, kind = (g // 2, "handle") if orientable else (g, "crosscap")
    for _ in range(blocks):
        idx = next(
            i for i, wk in enumerate(trace_faces(E))
            if wk.length == 3 and len(wk.distinct_vertices()) == 3
            and all(v < n0 for v in wk.vertices)
        )
        E = reference_paste(E, idx, kind)
    return E

def reference_schemes(G: Graph, mode: str):
    """Every scheme `scheme_census(G, mode)` counts, one validated build
    each: the rotation systems in the order of the product over the
    vertices of their orders, each the vertex's first dart (by edge id)
    followed by a permutation of the rest, and for each rotation system
    every signature vector in mode "all", all-positive first, or the
    all-positive one in mode "orientable-only"."""
    pairs = sorted(G.edges)
    darts_at = [[] for _ in range(G.n)]
    for e, (u, v) in enumerate(pairs):
        darts_at[u].append((e, 0))
        darts_at[v].append((e, 1))
    orders = [
        [(darts[0],) + perm for perm in itertools.permutations(darts[1:])]
        for darts in darts_at
    ]
    masks = range(2 ** len(pairs)) if mode == "all" else [0]
    for rotation in itertools.product(*orders):
        for mask in masks:
            edges = [(u, v, -1 if mask >> e & 1 else 1)
                     for e, (u, v) in enumerate(pairs)]
            yield PseudoEmbedding(G.n, edges, rotation)


def reference_census(G: Graph, mode: str) -> dict:
    """Census by building every scheme, an oracle for `scheme_census`.

    Builds each scheme of `reference_schemes(G, mode)`, traces it in
    full, runs the orientability test, and counts it under (Euler genus,
    orientable, sorted face lengths).
    """
    classes = {}
    for E in reference_schemes(G, mode):
        info = surface_info(E)
        lens = tuple(sorted(w.length for w in trace_faces(E)))
        key = (info.euler_genus, info.orientable, lens)
        classes[key] = classes.get(key, 0) + 1
    return classes


def _relink_states(rot: list, nxt: list) -> None:
    """Write one vertex's cyclic dart order into the all-positive state map.

    State 2d + sidebit crosses to dart d ^ 1 and leaves by that dart's
    rotation successor (sidebit 0) or predecessor (sidebit 1), so a vertex's
    rotation fixes nxt at exactly the states whose opposite dart is there.
    """
    prev = rot[-1]
    for x in rot:
        nxt[2 * (prev ^ 1)] = 2 * x
        nxt[2 * (x ^ 1) + 1] = 2 * prev + 1
        prev = x


def _count_cycles(nxt: list) -> int:
    """Number of cycles of the state map nxt, which must be a permutation."""
    seen = bytearray(len(nxt))
    count = 0
    for s0 in range(len(nxt)):
        if seen[s0]:
            continue
        count += 1
        seen[s0] = 1
        s = nxt[s0]
        while s != s0:
            if seen[s]:
                raise RuntimeError("state map failed to close a cycle")
            seen[s] = 1
            s = nxt[s]
    return count


def reference_regen(seed: int, restarts: int, iters: int):
    """The K8-C5 hill-climb that recounts every state cycle after each
    move, an oracle for `regenerate_k8_c5_fixture`'s move pricing.

    Same RNG draws and accept rule: a move swaps two darts in place,
    rewrites the state map at that vertex, counts faces as half its
    cycles and swaps back when the count drops.  Returns the first
    15-face rotation as per-vertex lists of integer darts 2e + end, or
    None when every restart stalls.
    """
    pairs = _k8_c5_pairs()
    darts_at = [[] for _ in range(8)]
    for e, (u, v) in enumerate(pairs):
        darts_at[u].append(2 * e)
        darts_at[v].append(2 * e + 1)
    nxt = [0] * (4 * len(pairs))
    rng = random.Random(seed)
    for _ in range(restarts):
        rot = [list(ds) for ds in darts_at]
        for r in rot:
            rng.shuffle(r)
            _relink_states(r, nxt)
        best = _count_cycles(nxt) // 2
        for _ in range(iters):
            if best == 15:
                break
            r = rot[rng.randrange(8)]
            i, j = rng.randrange(len(r)), rng.randrange(len(r))
            if i == j:
                continue
            r[i], r[j] = r[j], r[i]
            _relink_states(r, nxt)
            f = _count_cycles(nxt) // 2
            if f >= best:
                best = f
            else:
                r[i], r[j] = r[j], r[i]
                _relink_states(r, nxt)
        if best == 15:
            return rot
    return None


def reference_completion(E: PseudoEmbedding) -> tuple:
    """Completion by rebuilding the scheme per edge, an oracle for
    `complete_to_triangulation`.

    Each round traces the current scheme in full, chords its first face of
    length >= 4 between walk positions 0 and 2 on copied rotation lists,
    and builds a new scheme, with the same input checks and audits as the
    library.
    """
    info0 = surface_info(E)
    if E.n + info0.euler_genus < 3:
        raise SchemeError("completion needs n + g >= 3")
    shortest = min((w.length for w in trace_faces(E)), default=3)
    if shortest < 3:
        raise SchemeError(
            f"completion needs every face to have length at least 3; "
            f"the scheme has a face of length {shortest}"
        )
    budget = edges_short(E)
    cur = E
    added = 0
    while True:
        faces = trace_faces(cur)
        walk = next((w for w in faces if w.length >= 4), None)
        if walk is None:
            break
        if added >= budget:
            raise RuntimeError("completion exceeded its edge budget")
        corners = walk_corners(cur, walk)
        c0, c2 = corners[0], corners[2]
        eid = cur.m
        rot_lists = [list(r) for r in cur.rotation]
        insert_dart_at_corner(rot_lists, c0, (eid, 0))
        insert_dart_at_corner(rot_lists, c2, (eid, 1))
        cur = PseudoEmbedding(
            cur.n,
            list(cur.edges) + [(c0.vertex, c2.vertex, c0.side * c2.side)],
            rot_lists,
        )
        added += 1
    if not is_triangulation(cur):
        raise RuntimeError("completion finished with a non-triangle left")
    info1 = surface_info(cur)
    if info1 != info0:
        raise RuntimeError("completion changed the surface")
    if cur.m != 3 * (cur.n + info0.euler_genus - 2):
        raise RuntimeError("completed scheme has a wrong edge count")
    return cur, added


class ReferenceInterval:
    """Closed interval [lo, hi] with Fraction endpoints and exact
    arithmetic: the operations the reference analytic engine runs on."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        self.lo = Fraction(lo)
        self.hi = self.lo if hi is None else Fraction(hi)
        if self.hi < self.lo:
            raise ValueError(f"empty interval: [{self.lo}, {self.hi}]")

    def __add__(self, other):
        if isinstance(other, ReferenceInterval):
            return ReferenceInterval(self.lo + other.lo, self.hi + other.hi)
        return ReferenceInterval(self.lo + Fraction(other), self.hi + Fraction(other))

    __radd__ = __add__

    def __neg__(self):
        return ReferenceInterval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-other if isinstance(other, ReferenceInterval) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + Fraction(other)

    def __mul__(self, other):
        c = Fraction(other)
        if c >= 0:
            return ReferenceInterval(self.lo * c, self.hi * c)
        return ReferenceInterval(self.hi * c, self.lo * c)

    __rmul__ = __mul__

    def surely_le(self, x):
        x = Fraction(x)
        if self.hi <= x:
            return True
        if self.lo > x:
            return False
        return None


def reference_certified_ceil(iv: ReferenceInterval):
    c_lo = -((-iv.lo) // 1)
    c_hi = -((-iv.hi) // 1)
    if c_lo == c_hi:
        return int(c_lo)
    return None


def series_term(j: int) -> Fraction:
    """Term of the interference series: 12/((j-7)(j-6)(2j-3)), j >= 8."""
    if j < 8:
        raise ValueError("series terms start at j = 8")
    return Fraction(12, (j - 7) * (j - 6) * (2 * j - 3))


def _tail_interval(K: int) -> Interval:
    """Enclosure of sum_{j>K} series_term(j) for K >= 8.

    Upper bound 3/(K-7)^2: each term is at most the telescoping difference
    3/(j-8)^2 - 3/(j-7)^2 ... the standard quadratic tail estimate.  Lower
    bound 3/(K-3)^2: term(j) > 3/(j-4)^2 - 3/(j-3)^2 for every j >= 8
    (cross-multiplication; checked exhaustively in the test suite), and the
    right side telescopes to 3/(K-3)^2.
    """
    return Interval(Fraction(3, (K - 3) ** 2), Fraction(3, (K - 7) ** 2))


def _tail_cutoff_start(tail_bits: int) -> int:
    """First guess at the series cutoff K for reference_alpha7.

    The tail width 3/(K-7)^2 - 3/(K-3)^2 is at most 24(K-5)/((K-7)^2 (K-3)^2),
    roughly 24/K^3, so K starts at the nearest integer to cbrt(24 * 2^bits)
    plus 8; the caller nudges K up until the width is certified.
    """
    n = 24 << tail_bits
    r = 1 << -(-n.bit_length() // 3)  # >= cbrt(n); Newton descends to floor
    while True:
        nxt = (2 * r + n // (r * r)) // 3
        if nxt >= r:
            break
        r = nxt
    if 8 * n >= (2 * r + 1) ** 3:  # cbrt(n) >= r + 1/2
        r += 1
    return max(16, r + 8)


@lru_cache(maxsize=None)
def reference_alpha7(tail_bits: int) -> tuple:
    """(lo, hi) of an alpha_7 enclosure by summing the series itself with a
    per-term floor/ceil loop and a proved tail, an oracle for the closed
    form in `alpha7_interval`.  The term count grows like cbrt(24 2^bits):
    about 0.8 s at 56 bits and 5 s at 64."""
    K = _tail_cutoff_start(tail_bits)
    while _tail_interval(K).width > Fraction(1, 1 << tail_bits):
        K += K // 8 + 1
    p = tail_bits + 24
    one = 1 << p
    lo_acc = 0
    hi_acc = 0
    for j in range(8, K + 1):
        d = (j - 7) * (j - 6) * (2 * j - 3)
        q, r = divmod(12 * one, d)
        lo_acc += q
        hi_acc += q + (1 if r else 0)
    scale = Fraction(1, one)
    tail = _tail_interval(K)
    return lo_acc * scale + tail.lo, hi_acc * scale + tail.hi


class _ReferenceStraddle(Exception):
    def __init__(self, index):
        self.index = index


def reference_analytic_context(g: int, precision=None) -> SimpleNamespace:
    """The analytic context on exact Fraction intervals, an oracle for
    `analytic_context`.

    alpha_7 is read from `alpha7_interval` (the constant has its own
    oracle, `reference_alpha7`), alpha_i is alpha_7 minus the exact partial
    sum of terms 8..i, every row's middle sum is re-added, and a straddle
    widens the tail by 8 bits, from emax.bounds.TAIL_BITS_START read at
    call time, up to the resolved precision.  Its alpha, gamma and E map
    rows to ReferenceInterval.
    """
    bits = _precision_bits(precision)
    gm2 = g - 2
    tail_bits = min(bits, emax.bounds.TAIL_BITS_START)
    while True:
        try:
            return _reference_context_at(g, gm2, tail_bits)
        except _ReferenceStraddle as st:
            if tail_bits >= bits:
                raise PrecisionError(
                    f"cannot separate alpha_{st.index}(g-2) from an integer "
                    f"for g={g} even at tail precision 2^-{bits}"
                )
            tail_bits = min(tail_bits + 8, bits)


def _reference_context_at(g, gm2, tail_bits) -> SimpleNamespace:
    a7 = alpha7_interval(tail_bits)
    alpha = {7: ReferenceInterval(a7.lo, a7.hi)}
    partial = Fraction(0)
    i = 7
    while True:
        if i > 7:
            partial += series_term(i)
            alpha[i] = alpha[7] - partial
        test = (alpha[i] * gm2).surely_le(2)
        if test is None:
            raise _ReferenceStraddle(i)
        if test:
            k = i
            break
        i += 1
        if i > 2 * g + 2 and g >= 3:
            raise RuntimeError("k exceeded 2g+2; series evaluation is broken")
    top = max(k, 2 * g + 2)
    for i in range(k + 1, top + 1):
        partial += series_term(i)
        alpha[i] = alpha[7] - partial

    beta = {}
    gamma = {}
    for i in range(7, k + 1):
        iv = alpha[i] * gm2
        b = reference_certified_ceil(iv)
        if b is None:
            raise _ReferenceStraddle(i)
        beta[i] = b
        gamma[i] = b - iv
        if not (gamma[i].lo >= 0 and gamma[i].hi < 1):
            raise RuntimeError(f"gamma_{i} escaped [0,1) despite certified ceil")
    has_anchor = 2 * g + 2 > k
    if has_anchor:
        for i in range(k + 1, 2 * g + 2):
            beta[i] = beta[k]
            gamma[i] = beta[i] - alpha[i] * gm2
        beta[2 * g + 2] = 1
        gamma[2 * g + 2] = 1 - alpha[2 * g + 2] * gm2

    ell = {7: g + 1 - beta[7]}
    L_lists = {7: tuple(range(beta[7] + 1, g + 2))}
    for i in range(8, top + 1):
        ell[i] = beta[i - 1] - beta[i]
        L_lists[i] = tuple(range(beta[i] + 1, beta[i - 1] + 1))

    E = {k: ReferenceInterval(0)}
    if has_anchor:
        E[2 * g + 2] = ReferenceInterval(0)
    for i in range(k - 1, 6, -1):
        if ell[i] <= 0:
            continue
        istar = next(
            (j for j in range(i + 1, top + 1) if ell.get(j, 0) > 0), None
        )
        if istar is None:
            istar = k
        mid = sum((2 * gamma[j] for j in range(i + 1, istar)), ReferenceInterval(0))
        expr = (
            mid
            + (2 * i - 1) * gamma[i]
            - (2 * istar - 3) * gamma[istar]
            + E[istar]
        )
        E[i] = ReferenceInterval(max(Fraction(0), expr.lo), max(Fraction(0), expr.hi))
    return SimpleNamespace(
        g=g, alpha=alpha, k=k, beta=beta, gamma=gamma, E=E,
        L_lists=L_lists, ell=ell, tail_bits=tail_bits,
    )


def reference_claim1(g: int, precision=None) -> dict:
    """Claim 1 on Fraction values and the reference context, an oracle
    for `claim1_consistency`."""
    ctx = reference_analytic_context(g, precision)
    gm2 = g - 2
    c_of = {}
    for i, L in ctx.L_lists.items():
        for s in L:
            if s >= 3:
                c_of[s] = i
    f = {2: Fraction(f_exact_s2(g))}
    for s in range(3, g + 2):
        i = c_of[s]
        f[s] = max(Fraction(2 * i * gm2, i - 6), Fraction(2 * i - 3) + f[s - 1])
    failures = []
    indeterminate = []
    checked = 0
    for i, L in sorted(ctx.L_lists.items()):
        Ei = ctx.E.get(i)
        for s in L:
            if not (2 <= s <= g + 1):
                continue
            z = s - ctx.beta[i]
            if g == 2 and s == 2:
                checked += 1
                continue
            if Ei is None:
                raise RuntimeError(f"row {i} has no error term but s={s} uses it")
            rhs = Fraction(2 * i * gm2, i - 6) + (z - 1) * (2 * i - 3) + Ei
            checked += 1
            if f[s] <= rhs.lo:
                continue
            if f[s] > rhs.hi:
                failures.append({"s": s, "i": i, "f": str(f[s]), "rhs_hi": str(rhs.hi)})
            else:
                indeterminate.append(s)
    e7 = ctx.E.get(7, ReferenceInterval(0))
    return {
        "g": g,
        "ok": not failures and not indeterminate,
        "k": ctx.k,
        "checked": checked,
        "failures": failures,
        "indeterminate": indeterminate,
        "E7_hi": str(e7.hi),
        "E7_le_2k_minus_3": bool(e7.surely_le(2 * ctx.k - 3)),
    }


def reference_upper_bound(g: int, precision=None) -> Fraction:
    """lambda (g-2) + 2 ceil(sqrt(3/2 (g-2))) + 33 on a lambda enclosure
    rebuilt per call, an oracle for `analytic_upper_bound`."""
    ln2 = ln2_interval(_precision_bits(precision))
    inner = Fraction(48332, 114345) + Fraction(16, 33) * ReferenceInterval(ln2.lo, ln2.hi)
    lam = 25 - 11 * inner
    t = ceil_sqrt(3 * (g - 2), 2)
    return (lam * (g - 2) + 2 * t + 33).hi


# the record optimal_schedule returned before it gave its schedule as runs
ReferenceSchedule = namedtuple("ReferenceSchedule", "c_schedule f floored_steps")


def reference_schedule(
    g: int, s_max: int, *, floor_steps: bool = True, anchor_delta: int = 0
) -> ReferenceSchedule:
    """The per-step loop that `optimal_schedule` replaced with run jumps:
    one c-scan and one branch test per step s, an oracle for the jump."""
    if g < 1:
        raise BoundsError("g must be >= 1")
    if s_max < 2:
        raise BoundsError("s_max must be >= 2")
    if s_max > SCHEDULE_STEP_CAP:
        raise BoundsError(f"s_max {s_max} is above the cap of {SCHEDULE_STEP_CAP}")
    p, q = f_exact_s2(g) + anchor_delta, 1
    if p < 0:
        raise BoundsError("the shifted anchor f'(g, 2) must be nonnegative")
    schedule = []
    floored = []
    cap = 6 + C_SCAN_CAP_FACTOR * g
    gm2 = g - 2

    def crossed(c):
        # branch1 <= branch2: 2c(g-2) q <= (c-6)((2c-3) q + p)
        return 2 * c * gm2 * q <= (c - 6) * ((2 * c - 3) * q + p)

    c = 7
    for s in range(3, s_max + 1):
        while c > 7 and crossed(c - 1):
            c -= 1
        while not crossed(c):
            c += 1
            if c > cap:
                raise RuntimeError("c scan exceeded its hard cap")
        best_c, num, den = c, (2 * c - 3) * q + p, q  # branch2 at c
        if c > 7 and 2 * (c - 1) * gm2 * den <= (c - 7) * num:
            # branch1 at c-1 is no larger: ties go to the smaller c
            best_c, num, den = c - 1, 2 * (c - 1) * gm2, c - 7
        if floor_steps:
            if num % den:
                floored.append(s)
            p, q = num // den, 1
        else:
            p, q = Fraction(num, den).as_integer_ratio()
        schedule.append(best_c)
    return ReferenceSchedule(tuple(schedule), p if q == 1 else Fraction(p, q),
                             tuple(floored))


# The one-step and one-c forms of the recurrence, and the impurity bound
# read off the c-schedule: small oracles for hand-checked values.


def f_lower(g: int, s: int) -> int:
    """Lower bound 2g + 3s - 4 (disjoint spine-plus-gadget family)."""
    if g < 0 or s < 2:
        raise BoundsError("f_lower needs g >= 0 and s >= 2")
    return 2 * g + 3 * s - 4


def recurrence_step(g: int, c: int, f_prev) -> Fraction:
    """One exact step: max{2c/(c-6) (g-2), 2c-3 + f_prev}."""
    if g < 1:
        raise BoundsError("g must be >= 1")
    if c < 7:
        raise BoundsError("c must be >= 7")
    branch1 = Fraction(2 * c * (g - 2), c - 6)
    branch2 = Fraction(2 * c - 3) + Fraction(f_prev)
    return max(branch1, branch2)


def f_closed_form(g: int, s: int, c: int) -> Fraction:
    """(2c-3)(s-2) + max{2c/(c-6) (g-2), 2c-3}: the one-c closed form."""
    if c < 7:
        raise BoundsError("c must be >= 7")
    if s < 1:
        raise BoundsError("s must be >= 1")
    head = max(Fraction(2 * c * (g - 2), c - 6), Fraction(2 * c - 3))
    return Fraction(2 * c - 3) * (s - 2) + head


def impurity_bound(g: int, surface_kind: str) -> int:
    """5 f'(g, g+1) - 1 (nonorientable) or 4 f'(g, g+1) - 1 (orientable)."""
    if surface_kind not in SURFACE_KINDS:
        raise BoundsError(f"surface_kind must be one of {SURFACE_KINDS}")
    if g < 1:
        raise BoundsError("g must be >= 1")
    if surface_kind == "orientable" and g % 2 != 0:
        raise BoundsError("orientable surfaces have even Euler genus")
    factor = 5 if surface_kind == "nonorientable" else 4
    return factor * optimal_schedule(g, g + 1).f - 1
