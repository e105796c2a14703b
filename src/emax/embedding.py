"""Embedding schemes for pseudographs on surfaces.

A scheme is a signed rotation system: every vertex carries a cyclic order of
its incident darts, and every edge carries a signature in {+1, -1}.  A dart
is an (edge_id, end) pair with end in {0, 1}; edge (u, v) puts dart (e, 0)
at u and dart (e, 1) at v, and a loop contributes both darts at its single
vertex.  Loops and parallel edges are allowed throughout.

Face tracing works on *states* (dart, side) with side in {+1, -1}.  From
state (d, side) the walk crosses d's edge to the opposite dart d', flips the
side by the edge signature, and leaves along the rotation successor of d'
(side +1) or predecessor (side -1).  The step map is a bijection on the 4m
states, so states split into cycles; the involution

    mirror(d, side) = (opposite dart, -side * signature)

conjugates the step map to its inverse and pairs every cycle with its
reversed twin.  Each pair is one face of the embedded pseudograph; the walk
length equals the cycle length and the total over faces is 2m.  This single
mechanism covers orientable and non-orientable schemes, loops, and parallel
edges uniformly.

The tracer runs on the permutation form of the scheme (Mohar & Thomassen,
Graphs on Surfaces, 2001, sections 3.2-3.3).  Dart (e, end) is the integer
2e + end, so its opposite is d ^ 1, and state (d, side) is the integer
2d + sidebit with sidebit 1 for side -1.  Each scheme keeps its rotation as
successor and predecessor arrays over the 2m darts, and ascending integer
order of states is the (edge, end, side +1 first) order that fixes the face
order.  A facial walk is its cycle of integer states, listed from its
smallest state, with the vertex each state leaves from.  The face set and
the orientability test are computed once per scheme and memoised on it,
since the scheme is immutable.

The public constructor validates every part and derives the dart arrays
from the rotation.  The private `PseudoEmbedding._from_arrays` takes
parts already in that normal form, arrays included, and skips the
checks: it serves only the scheme enumeration, which lays each vertex's
order onto shared arrays itself and so places every dart once by
construction.  Both fill the scheme's slots by one shared step.

Every surgery lays its edges on the private scheme editor, which holds
working copies of the dart arrays.  A new dart goes in at a corner of a
face, named by the dart the walk arrives along and the side it leaves on,
and `_splice` is the one rule that places it there.  The editor adds
vertices and edges and builds one scheme at the end, keeping the input's
rotation at every vertex that no edit touched.  The completion to a
triangulation also has the editor index the faces, each keyed by the
smallest state of its mirror pair of cycles, with the long faces in a heap
by key; then only the faces of an edge's two corners and its four new
states are walked again, in time linear in the faces' length.  `freeze`
traces an indexed editor's scheme in full and raises RuntimeError unless
the index equals that trace, walk for walk, so every edit is audited once,
at the end.

The Euler genus is g = 2 - n + m - f, and a scheme is orientable exactly
when its signature can be switched (vertex flips) to all-positive.
"""

from __future__ import annotations

import heapq
import json
from collections import namedtuple
from collections.abc import Iterable, Sequence

from .graphs import Graph

Dart = tuple  # (edge_id, end)


class SchemeError(ValueError):
    pass


class PseudoEmbedding:
    """Immutable signed rotation system for a pseudograph."""

    __slots__ = ("n", "edges", "rotation", "_succ", "_pred", "_faces", "_orient")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int, int]],
        rotation: Iterable[Iterable[Dart]],
    ):
        edges = tuple([(int(u), int(v), int(s)) for u, v, s in edges])
        rotation = tuple(
            [tuple([(int(e), int(t)) for e, t in rot]) for rot in rotation]
        )
        if n < 1:
            raise SchemeError("scheme needs at least one vertex")
        if len(rotation) != n:
            raise SchemeError(f"rotation has {len(rotation)} entries for n={n}")
        for i, (u, v, s) in enumerate(edges):
            if not (0 <= u < n and 0 <= v < n):
                raise SchemeError(f"edges[{i}]: endpoint out of range 0..{n-1}")
            if s not in (1, -1):
                raise SchemeError(f"edges[{i}]: signature must be +1 or -1, got {s}")
        m = len(edges)
        succ = [-1] * (2 * m)
        pred = [-1] * (2 * m)
        seen = bytearray(2 * m)
        for v, rot in enumerate(rotation):
            ids = []
            for i, d in enumerate(rot):
                e, end = d
                if not (0 <= e < m) or end not in (0, 1):
                    raise SchemeError(f"rotation[{v}][{i}]: invalid dart {d}")
                home = edges[e][end]
                if home != v:
                    raise SchemeError(
                        f"rotation[{v}][{i}]: dart {d} belongs at vertex {home}"
                    )
                x = 2 * e + end
                if seen[x]:
                    raise SchemeError(
                        f"rotation[{v}][{i}]: dart {d} appears more than once"
                    )
                seen[x] = 1
                ids.append(x)
            _link(ids, succ, pred)
        if seen.count(0):
            missing = [(x >> 1, x & 1) for x in range(2 * m) if not seen[x]]
            raise SchemeError(f"darts missing from rotations: {missing[:4]}")
        self._fill(n, edges, rotation, succ, pred)

    @classmethod
    def _from_arrays(cls, n, edges, rotation, succ, pred) -> PseudoEmbedding:
        """A scheme from parts already in its normal form, unvalidated:
        edges and rotation as tuples of int tuples, and succ and pred the
        dart arrays of that rotation, owned by the new scheme.  Only a
        caller that lays every dart once by construction may use it."""
        E = object.__new__(cls)
        E._fill(n, edges, rotation, succ, pred)
        return E

    def _fill(self, n, edges, rotation, succ, pred) -> None:
        for name, value in (("n", n), ("edges", edges), ("rotation", rotation),
                            ("_succ", succ), ("_pred", pred), ("_faces", None),
                            ("_orient", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("PseudoEmbedding is immutable")

    def __repr__(self):
        return f"PseudoEmbedding(n={self.n}, m={self.m})"

    @property
    def m(self) -> int:
        return len(self.edges)

    def is_connected(self) -> bool:
        adj = [[] for _ in range(self.n)]
        for u, v, _ in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == self.n

    def is_simple_graph(self) -> bool:
        pairs = {(u, v) if u < v else (v, u) for u, v, _ in self.edges if u != v}
        return len(pairs) == self.m

    def simple_graph(self) -> Graph:
        """Underlying graph; raises if the scheme has loops or parallels."""
        if not self.is_simple_graph():
            raise SchemeError("scheme is not a simple graph (loops or parallels)")
        return Graph(self.n, [(u, v) for u, v, _ in self.edges])


def _link(ids: list, succ: list, pred: list) -> None:
    """Write one vertex's cyclic dart order into the successor and
    predecessor arrays."""
    prev = ids[-1] if ids else None
    for x in ids:
        succ[prev] = x
        pred[x] = prev
        prev = x


class FacialWalk(namedtuple("FacialWalk", (
    "states",  # the integer state cycle, from its smallest state
    "vertices",  # vertex visited at each step
))):
    __slots__ = ()

    @property
    def length(self) -> int:
        return len(self.states)

    def distinct_vertices(self) -> frozenset:
        return frozenset(self.vertices)


class SurfaceInfo(namedtuple("SurfaceInfo", "euler_genus orientable")):
    __slots__ = ()


def _leave_table(succ: list, pred: list) -> list:
    """leave[t] is the state a walk leaves by after arriving at state t."""
    leave = [0] * (2 * len(succ))
    leave[0::2] = [2 * x for x in succ]
    leave[1::2] = [2 * x + 1 for x in pred]
    return leave


def _state_orbits(leave: list, neg: list) -> tuple:
    """Cycles of the step map on the integer states 0..4m-1.

    leave is the table of `_leave_table` and neg[e] is 1 for an edge of
    signature -1.  State s = 2d + sidebit steps across its edge to dart
    d ^ 1, takes the side bit xor neg[e], and leaves as the table says.
    One table serves every signature of a rotation system.  Returns
    (orbits, orbit_of): the cycles listed by their smallest state, each
    starting there, in ascending order, and the index of each state's cycle.
    """
    n_states = len(leave)
    # s ^ cross[e] is the arrival of state s at the far end of its edge e
    cross = [2 | b for b in neg]
    orbit_of = [-1] * n_states
    orbits = []
    for s0 in range(n_states):
        if orbit_of[s0] >= 0:
            continue
        idx = len(orbits)
        orbit_of[s0] = idx
        orbit = [s0]
        s = leave[s0 ^ cross[s0 >> 2]]
        while s != s0:
            if orbit_of[s] >= 0:
                raise RuntimeError("state map failed to close a cycle")
            orbit_of[s] = idx
            orbit.append(s)
            s = leave[s ^ cross[s >> 2]]
        orbits.append(orbit)
    return orbits, orbit_of


def _paired_faces(orbits: list, orbit_of: list, neg: list) -> list:
    """The state cycles that carry the faces, after auditing the pairing.

    Of each mirror pair of cycles from `_state_orbits` the one listed first
    is kept, so faces come in the order of their smallest state.  Raises
    RuntimeError on a self-mirrored cycle, a cycle whose mirror images do
    not fill its partner, sides that do not sum to 2m, or an edge not
    traversed exactly twice.
    """
    m = len(neg)
    # mirror(s) = s ^ flip[e]: the end bit flips, and the side bit too
    # unless edge e is negative
    flip = [3 - b for b in neg]
    per_edge = [0] * m
    faces = []
    for idx, orbit in enumerate(orbits):
        s0 = orbit[0]
        partner = orbit_of[s0 ^ flip[s0 >> 2]]
        if partner == idx:
            raise RuntimeError(
                "self-mirrored facial cycle; scheme invariants violated"
            )
        if partner < idx:
            continue  # the partner cycle carries this face
        # mirror is injective, so equal lengths and every image landing in
        # the partner cycle mean the two cycles mirror each other exactly
        if len(orbits[partner]) != len(orbit):
            raise RuntimeError("mirror pairing mismatch between facial cycles")
        for s in orbit:
            if orbit_of[s ^ flip[s >> 2]] != partner:
                raise RuntimeError("mirror pairing mismatch between facial cycles")
            per_edge[s >> 2] += 1
        faces.append(orbit)
    total = sum(per_edge)
    if total != 2 * m:
        raise RuntimeError(f"face sides sum to {total}, expected {2 * m}")
    if any(c != 2 for c in per_edge):
        raise RuntimeError("some edge is not traversed exactly twice")
    return faces


def trace_faces(E: PseudoEmbedding) -> tuple:
    """Deterministic complete face set of the scheme, a tuple of walks
    memoised on it.

    Faces are cycle pairs of the state map (see the module docstring).  Of
    each mirror pair we keep the cycle containing the smallest state; walks
    are listed by that smallest state, so face indices are reproducible and
    usable as witnesses.
    """
    if E._faces is not None:
        return E._faces
    if E.m == 0:
        raise SchemeError("face tracing needs at least one edge")
    if not E.is_connected():
        raise SchemeError("scheme is disconnected; faces would misreport genus")
    neg = [1 if s < 0 else 0 for _, _, s in E.edges]
    home = [x for u, v, _ in E.edges for x in (u, v)]
    orbits, orbit_of = _state_orbits(_leave_table(E._succ, E._pred), neg)
    faces = tuple([
        FacialWalk(tuple(orbit), tuple([home[s >> 1] for s in orbit]))
        for orbit in _paired_faces(orbits, orbit_of, neg)
    ])
    object.__setattr__(E, "_faces", faces)
    return faces


def orientability(E: PseudoEmbedding) -> tuple[bool, int | None]:
    """Switching test: breadth-first vertex flips; returns (orientable,
    conflicting edge id or None), memoised on the scheme."""
    if E._orient is None:
        object.__setattr__(E, "_orient", _switching_test(E))
    return E._orient


def _switching_test(E: PseudoEmbedding) -> tuple[bool, int | None]:
    flip = [None] * E.n
    adj = [[] for _ in range(E.n)]
    for e, (u, v, s) in enumerate(E.edges):
        if u == v:
            if s < 0:
                return (False, e)  # a negative loop cannot be switched away
            continue
        adj[u].append((v, e, s))
        adj[v].append((u, e, s))
    for root in range(E.n):
        if flip[root] is not None:
            continue
        flip[root] = 0
        queue = [root]
        for x in queue:  # the queue grows as the loop runs
            for y, e, s in adj[x]:
                want = flip[x] ^ (1 if s < 0 else 0)
                if flip[y] is None:
                    flip[y] = want
                    queue.append(y)
                elif flip[y] != want:
                    return (False, e)
    return (True, None)


def _audited_genus(n: int, m: int, face_count: int, orientable: bool) -> int:
    """Euler genus 2 - n + m - f, raising if it is negative, or odd on an
    orientable surface: either means the tracing is broken."""
    g = 2 - n + m - face_count
    if g < 0:
        raise RuntimeError(f"negative Euler genus {g}; tracing is broken")
    if orientable and g % 2 != 0:
        raise RuntimeError(f"orientable scheme with odd Euler genus {g}")
    return g


def surface_info(E: PseudoEmbedding) -> SurfaceInfo:
    faces = trace_faces(E)
    orient, _ = orientability(E)
    g = _audited_genus(E.n, E.m, len(faces), orient)
    return SurfaceInfo(euler_genus=g, orientable=orient)


def is_triangulation(E: PseudoEmbedding) -> bool:
    return all(w.length == 3 for w in trace_faces(E))


def is_edge_maximal_embedding(
    E: PseudoEmbedding,
) -> tuple[bool, tuple[int, tuple[int, int]] | None]:
    """True iff every face's distinct vertex set induces a clique in the
    underlying simple graph.  On failure returns (face index, nonadjacent
    pair) as a witness.  Defined only for schemes of simple graphs."""
    G = E.simple_graph()
    for fi, w in enumerate(trace_faces(E)):
        vs = sorted(w.distinct_vertices())
        for i, u in enumerate(vs):
            for v in vs[i + 1 :]:
                if not G.has_edge(u, v):
                    return (False, (fi, (u, v)))
    return (True, None)


def edges_short(E: PseudoEmbedding) -> int:
    """3(n+g-2) - m: how many edges the scheme lacks to be a triangulation
    of its surface."""
    info = surface_info(E)
    if E.n + info.euler_genus < 3:
        raise SchemeError("edges_short needs n + g >= 3")
    return 3 * (E.n + info.euler_genus - 2) - E.m


def four_distinct_window(verts: Sequence[int]) -> int:
    """First offset r such that walk vertices r..r+3 (cyclically) are four
    distinct vertices.  Errors when the walk is shorter than 4 or no window
    exists."""
    t = len(verts)
    if t < 4:
        raise SchemeError("window search needs walk length >= 4")
    for r in range(t):
        window = {verts[(r + i) % t] for i in range(4)}
        if len(window) == 4:
            return r
    raise SchemeError("no four distinct consecutive vertices on this walk")


def _splice(succ: list, pred: list, first: list, x: int, corner: tuple) -> None:
    """Lay dart x at a corner (w, a, bit) of vertex w: the corner where the
    face walk arrives at w along in-dart a and leaves on side +1 (bit 0) or
    -1 (bit 1).  Side +1 puts x just after a in the rotation, side -1 just
    before it, and then x becomes w's first dart if a was.  So repeated
    darts at one corner stack next to a, a later one nearer, which is the
    nesting a fan of chords needs.  With a = -1, x is w's only dart."""
    w, a, bit = corner
    if a < 0:
        first[w] = succ[x] = pred[x] = x
        return
    if bit:
        a, b = pred[a], a
        if first[w] == b:
            first[w] = x
    else:
        b = succ[a]
    succ[a], pred[x], succ[x], pred[b] = x, a, b, x


class _SchemeEditor:
    """A working copy of a scheme that adds vertices and edges, in the
    integer dart and state form of the tracer.

    It holds the dart arrays `succ`/`pred`, each vertex's first dart (so
    that `freeze` lists each rotation from the dart it starts with), and
    the vertices whose rotation an edit changed.  `index_faces` adds a face
    index for `insert_edge`: `faces` maps each face's key, the smallest
    state of its mirror pair of cycles, to the cycle through that state,
    listed from it, and `face_of[s]` is the key of the face of state s.
    Keys of faces of length >= 4 sit in the heap `long`, where a key that
    no longer names a long face is skipped.
    """

    def __init__(self, E: PseudoEmbedding):
        self.E = E
        self.n = E.n
        self.edges = list(E.edges)
        self.succ = list(E._succ)
        self.pred = list(E._pred)
        self.first = [2 * r[0][0] + r[0][1] if r else -1 for r in E.rotation]
        self.edited = set()
        self.faces = None

    def corner(self, s: int) -> tuple:
        """The corner (vertex, in-dart, side bit) where state s leaves."""
        d = s >> 1
        a = self.succ[d] if s & 1 else self.pred[d]
        return self.edges[d >> 1][d & 1], a, s & 1

    def add_vertex(self) -> int:
        """A new vertex, without darts until an edge reaches it."""
        self.first.append(-1)
        self.n += 1
        return self.n - 1

    def add_edge(self, c0: tuple, c1: tuple, neg: int) -> int:
        """Lay a new edge from corner c0 to corner c1, of signature -1 when
        neg is set, and return its id."""
        e = len(self.edges)
        self.edges.append((c0[0], c1[0], -1 if neg else 1))
        self.succ += (-1, -1)
        self.pred += (-1, -1)
        _splice(self.succ, self.pred, self.first, 2 * e, c0)
        _splice(self.succ, self.pred, self.first, 2 * e + 1, c1)
        self.edited.update((c0[0], c1[0]))
        return e

    def index_faces(self) -> None:
        """Index the faces of the input scheme; call it before any edit."""
        self.neg = [1 if s < 0 else 0 for _, _, s in self.edges]
        self.faces = {}
        self.face_of = [-1] * (4 * len(self.edges))
        self.long = []
        for w in trace_faces(self.E):
            self._store(w.states)

    def _store(self, cycle: Sequence[int]) -> None:
        key = cycle[0]
        self.faces[key] = cycle
        neg, face_of = self.neg, self.face_of
        for s in cycle:
            face_of[s] = face_of[s ^ (3 - neg[s >> 2])] = key
        if len(cycle) >= 4:
            heapq.heappush(self.long, key)

    def long_face(self) -> int | None:
        """Key of the first face of length >= 4 in face order, or None."""
        while self.long:
            face = self.faces.get(self.long[0])
            if face is not None and len(face) >= 4:
                return self.long[0]
            heapq.heappop(self.long)
        return None

    def insert_edge(self, s0: int, s1: int) -> None:
        """Add an edge from the corner of state s0 to that of s1, with the
        product of the two corner sides as its signature, on an indexed
        editor.  Only the faces of s0 and s1 and the four new states are
        walked again, in time linear in the faces' length.
        """
        neg = (s0 ^ s1) & 1
        e = self.add_edge(self.corner(s0), self.corner(s1), neg)
        self.neg.append(neg)
        states = [4 * e, 4 * e + 1, 4 * e + 2, 4 * e + 3]
        for key in {self.face_of[s0], self.face_of[s1]}:
            for s in self.faces.pop(key):
                states += (s, s ^ (3 - self.neg[s >> 2]))
        self.face_of += (-1, -1, -1, -1)
        self._retrace(states)

    def _retrace(self, states: list) -> None:
        """Index the faces of a mirror-closed union of whole state cycles,
        as `_state_orbits` and `_paired_faces` do for all states."""
        succ, pred, neg = self.succ, self.pred, self.neg
        cycle_of = {}
        cycles = []
        for s0 in sorted(states):
            if s0 in cycle_of:
                continue
            cycle = []
            s = s0
            while s not in cycle_of:
                cycle_of[s] = len(cycles)
                cycle.append(s)
                t = s ^ (2 | neg[s >> 2])
                s = 2 * pred[t >> 1] + 1 if t & 1 else 2 * succ[t >> 1]
            if s != s0:
                raise RuntimeError("state map failed to close a cycle")
            cycles.append(cycle)
        for idx, cycle in enumerate(cycles):
            s0 = cycle[0]
            if cycle_of[s0 ^ (3 - neg[s0 >> 2])] > idx:
                self._store(cycle)

    def freeze(self) -> PseudoEmbedding:
        """The edited scheme, built once, with the input's rotation kept at
        every vertex no edit touched.  On an indexed editor it is traced in
        full too, and RuntimeError is raised unless the editor's faces
        equal the trace, walk for walk."""
        rotation = list(self.E.rotation) + [()] * (self.n - self.E.n)
        for w in self.edited:
            rot, x = [], self.first[w]
            for _ in range(len(self.succ)):
                rot.append((x >> 1, x & 1))
                x = self.succ[x]
                if x == self.first[w]:
                    break
            rotation[w] = rot
        E = PseudoEmbedding(self.n, self.edges, rotation)
        if self.faces is not None and [w.states for w in trace_faces(E)] != [
            tuple(self.faces[key]) for key in sorted(self.faces)
        ]:
            raise RuntimeError("the editor's faces differ from the full trace")
        return E


# Scheme file format: {"n": int, "edges": [[u, v, sig], ...],
# "rotation": [[[edge_id, end], ...] per vertex]}.  The writer preserves
# rotation order (it is semantic); the reader validates everything and
# reports positions.


def scheme_to_dict(E: PseudoEmbedding) -> dict:
    return {
        "n": E.n,
        "edges": [[u, v, s] for u, v, s in E.edges],
        "rotation": [[[e, end] for e, end in rot] for rot in E.rotation],
    }


def _ints(rec, k: int) -> bool:
    """rec is a JSON list of k integers (bools and floats rejected)."""
    return (
        isinstance(rec, list)
        and len(rec) == k
        and all(isinstance(x, int) and not isinstance(x, bool) for x in rec)
    )


def scheme_from_dict(obj) -> PseudoEmbedding:
    if not isinstance(obj, dict):
        raise SchemeError("scheme document must be a JSON object")
    for key in ("n", "edges", "rotation"):
        if key not in obj:
            raise SchemeError(f"scheme document missing '{key}'")
    if not _ints([obj["n"]], 1):
        raise SchemeError("'n' must be an integer")
    for key in ("edges", "rotation"):
        if not isinstance(obj[key], list):
            raise SchemeError(f"'{key}' must be a list")
    for i, rec in enumerate(obj["edges"]):
        if not _ints(rec, 3):
            raise SchemeError(f"edges[{i}]: expected [u, v, sig] integers")
    for v, rot in enumerate(obj["rotation"]):
        if not isinstance(rot, list):
            raise SchemeError(f"rotation[{v}]: expected a list of darts")
        for i, d in enumerate(rot):
            if not _ints(d, 2):
                raise SchemeError(
                    f"rotation[{v}][{i}]: expected [edge_id, end] integers"
                )
    return PseudoEmbedding(obj["n"], obj["edges"], obj["rotation"])


def scheme_to_json(E: PseudoEmbedding) -> str:
    return json.dumps(scheme_to_dict(E))


def scheme_from_json(text: str) -> PseudoEmbedding:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemeError(f"invalid JSON at position {exc.pos}: {exc.msg}")
    return scheme_from_dict(obj)
