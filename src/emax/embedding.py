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
2d + sidebit with sidebit 1 for side -1.  Each scheme keeps its rotation
only as each vertex's first dart (-1 for none) and the state table `leave`
over the 4m states: a walk arriving at state t leaves by leave[t], so
leave[2x] = 2 succ(x) and leave[2x + 1] = 2 pred(x) + 1.  Ascending
integer order of states is the (edge, end, side +1 first) order that fixes
the face order.  A facial walk is its cycle of integer states, listed from
its smallest state, with the vertex each state leaves from.  The full
trace, `_faces`, walks the cycles through all 4m states in ascending order
and keeps the first of each mirror pair; it steps the mirror of each state
of a kept cycle to check that its twin is the reversed mirror image, and
raises if a cycle fails to close, the pairing fails or the face sides do
not cover each edge twice.  The face set and the orientability test are
computed once per scheme and memoised on it, since the scheme is
immutable.

The public constructor checks every record in the one pass that lays the
rotation onto the table: each edge must unpack to three and each dart to
two plain ints, as json.loads makes them, so a bool, float, str or int
subclass is refused with its record named, and no value is coerced.  One
bounded walker, `_darts`, lists a vertex's darts by successors from its
first for the `rotation` property, for `freeze` and for the scheme
template.

Every surgery lays its edges on the private scheme editor, which holds a
working copy of the table and the first darts.  A new dart goes in at a
corner of a face, named by the dart the walk arrives along and the side it
leaves on, and `_splice` is the one rule that places it there.  The editor
adds vertices and edges and builds one scheme at the end.  `add_star` joins
a new vertex to a list of corners, as a block paste and an apex insertion
do.  It keeps no face index: an edit reads the face it needs off the live
table by `face(s)`, the state cycle through s, which raises unless the
walk closes.  `freeze(surface)` is the one audit of a whole edit: it
raises RuntimeError unless every rotation closes and passes the
constructor's checks and the built scheme lies on the surface the caller
expects, which its full trace decides.

The Euler genus is g = 2 - n + m - f, and a scheme is orientable exactly
when its signature can be switched (vertex flips) to all-positive.
"""

from __future__ import annotations

import json
from collections import namedtuple
from collections.abc import Sequence

from .graphs import Graph, _connected

# a scheme file declares at most this many vertices and edges: the largest
# scheme emax writes (Proposition 2 at genus 10^4, triangulated) has 75000
# edges, and at the cap a double wheel, a triangulation already, takes
# `triangulate` 0.9 s and 118 MB and `analyze` 0.8-0.9 s and 86 MB; a long
# face costs `triangulate` linear time, 0.2 s for a 5000-edge cycle and
# 0.7-1.1 s for 20000 (in-process ru_maxrss, 2-core machine, Python 3.11.7)
SCHEME_SIZE_CAP = 10**5


class SchemeError(ValueError):
    pass


class PseudoEmbedding:
    """Immutable signed rotation system for a pseudograph."""

    __slots__ = ("n", "edges", "_first", "_leave", "_faces", "_orient")

    def __init__(
        self,
        n: int,
        edges: Sequence[tuple[int, int, int]],
        rotation: Sequence[Sequence[tuple[int, int]]],
    ):
        if type(n) is not int:
            raise SchemeError("'n' must be an integer")
        if n < 1:
            raise SchemeError("scheme needs at least one vertex")
        checked = []
        for i, rec in enumerate(edges):
            try:
                u, v, s = rec
            except (TypeError, ValueError):
                u = v = s = None
            if not (type(u) is type(v) is type(s) is int):
                raise SchemeError(f"edges[{i}]: expected [u, v, sig] integers")
            if not (0 <= u < n and 0 <= v < n):
                raise SchemeError(f"edges[{i}]: endpoint out of range 0..{n-1}")
            if s != 1 and s != -1:
                raise SchemeError(f"edges[{i}]: signature must be +1 or -1, got {s}")
            checked.append(rec if type(rec) is tuple else (u, v, s))
        edges = tuple(checked)
        if len(rotation) != n:
            raise SchemeError(f"rotation has {len(rotation)} entries for n={n}")
        m = len(edges)
        leave = [-1] * (4 * m)
        seen = bytearray(2 * m)
        first = []
        for v, rot in enumerate(rotation):
            if not isinstance(rot, (list, tuple)):
                raise SchemeError(f"rotation[{v}]: expected a list of darts")
            ids = []
            for i, d in enumerate(rot):
                try:
                    e, end = d
                except (TypeError, ValueError):
                    e = end = None
                if not (type(e) is type(end) is int):
                    raise SchemeError(
                        f"rotation[{v}][{i}]: expected [edge_id, end] integers"
                    )
                if not (0 <= e < m) or end not in (0, 1):
                    raise SchemeError(f"rotation[{v}][{i}]: invalid dart {(e, end)}")
                home = edges[e][end]
                if home != v:
                    raise SchemeError(
                        f"rotation[{v}][{i}]: dart {(e, end)} belongs at vertex {home}"
                    )
                x = 2 * e + end
                if seen[x]:
                    raise SchemeError(
                        f"rotation[{v}][{i}]: dart {(e, end)} appears more than once"
                    )
                seen[x] = 1
                ids.append(x)
            _link(ids, leave)
            first.append(ids[0] if ids else -1)
        if seen.count(0):
            missing = [(x >> 1, x & 1) for x in range(2 * m) if not seen[x]]
            raise SchemeError(f"darts missing from rotations: {missing[:4]}")
        for name, value in (("n", n), ("edges", edges), ("_first", first),
                            ("_leave", leave), ("_faces", None),
                            ("_orient", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("PseudoEmbedding is immutable")

    def __repr__(self):
        return f"PseudoEmbedding(n={self.n}, m={self.m})"

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def rotation(self) -> tuple:
        """Each vertex's (edge, end) darts from its first, on each access."""
        leave = self._leave
        return tuple([tuple([(d >> 1, d & 1) for d in _darts(leave, x, v)])
                      for v, x in enumerate(self._first)])

    def is_connected(self) -> bool:
        adj = [[] for _ in range(self.n)]
        for u, v, _ in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return _connected(adj)

    def is_simple_graph(self) -> bool:
        pairs = {(u, v) if u < v else (v, u) for u, v, _ in self.edges if u != v}
        return len(pairs) == self.m

    def simple_graph(self) -> Graph:
        """Underlying graph; raises if the scheme has loops or parallels."""
        if not self.is_simple_graph():
            raise SchemeError("scheme is not a simple graph (loops or parallels)")
        return Graph(self.n, [(u, v) for u, v, _ in self.edges])


def _darts(leave: list, x: int, v: int) -> list:
    """Vertex v's dart ids from its first dart x (-1 for none) by successors
    in the table; RuntimeError if they do not return to x within 2m darts."""
    ids = []
    if x < 0:
        return ids
    s0 = s = 2 * x
    for _ in range(len(leave) >> 1):
        ids.append(s >> 1)
        s = leave[s]
        if s == s0:
            return ids
    raise RuntimeError(f"the rotation at vertex {v} does not close")


def _link(ids: list, leave: list) -> None:
    """Write one vertex's cyclic dart order into the state table: a walk
    arriving at dart x on side +1 leaves by its successor, and on side -1
    by its predecessor."""
    prev = ids[-1] if ids else None
    for x in ids:
        leave[2 * prev] = 2 * x
        leave[2 * x + 1] = 2 * prev + 1
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


def _cycles(leave: list, neg: list, seen: list, starts, stops=None) -> list:
    """The kept cycle of each mirror pair walked from the states of starts
    not marked 1 in seen, each from its start; marks it and its twin 1.
    neg[e] is 1 for an edge of signature -1: state s = 2d + sidebit steps
    to dart d ^ 1, takes the side bit xor neg[e] and leaves by the table.
    With stops, -1 off the states of a vertex c, whose states are marked 2
    beforehand, each walk is an arc from c to c, and c's order makes its
    first step check.  Raises RuntimeError if a walk fails to close or pair."""
    kept = []
    for s0 in starts:
        if seen[s0] == 1:
            continue
        seen[s0], cycle = 1, [s0]
        s = leave[s0 ^ (2 | neg[s0 >> 2])]
        while not seen[s]:
            seen[s] = 1
            cycle.append(s)
            s = leave[s ^ (2 | neg[s >> 2])]
        a = cycle[-1] ^ (2 | neg[cycle[-1] >> 2])  # where the walk arrives
        if s != s0 if stops is None else stops[a] < 0:
            raise RuntimeError("state map failed to close "
                               + ("a cycle" if stops is None else "an arc"))
        prev = a ^ 1 if stops is None else leave[s0 ^ 1]
        # the twin is the mirror image, reversed: mirror(s) = s ^ (3 - neg[e])
        # conjugates the step map to its inverse, so the step of mirror(s),
        # leave[s ^ 1], must be the mirror of the state before s
        for s in cycle:
            t = s ^ (3 - neg[s >> 2])
            # a t marked before this walk was marked with its mirror s, where
            # no walk goes, so a marked t lies on this cycle
            if seen[t] == 1:
                raise RuntimeError(
                    "self-mirrored facial cycle; scheme invariants violated")
            if leave[s ^ 1] != prev:
                raise RuntimeError("mirror pairing mismatch between facial cycles")
            seen[t], prev = 1, t
        kept.append(cycle)
    return kept


def _faces(leave: list, neg: list) -> list:
    """The full trace: the kept cycle of each mirror pair from its smallest
    state, in the order of those states, each one face.  Raises
    RuntimeError as _cycles does, or unless the sides cover each edge twice."""
    m = len(neg)
    faces = _cycles(leave, neg, [0] * (4 * m), range(4 * m))
    per_edge = [0] * m
    for face in faces:
        for s in face:
            per_edge[s >> 2] += 1
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
    faces = tuple([
        FacialWalk(tuple(cycle), tuple([home[s >> 1] for s in cycle]))
        for cycle in _faces(E._leave, neg)
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
    n = E.n  # edge {u, v} with u < v is u * n + v
    adjacent = {u * n + v if u < v else v * n + u for u, v, _ in E.edges if u != v}
    if len(adjacent) != E.m:
        raise SchemeError("scheme is not a simple graph (loops or parallels)")
    for fi, w in enumerate(trace_faces(E)):
        vs = sorted(w.distinct_vertices())
        for i, u in enumerate(vs):
            for v in vs[i + 1 :]:
                if u * n + v not in adjacent:
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


def _splice(leave: list, first: list, x: int, corner: tuple) -> None:
    """Lay dart x at a corner (w, a, bit) of vertex w: the corner where the
    face walk arrives at w along in-dart a and leaves on side +1 (bit 0) or
    -1 (bit 1).  Side +1 puts x just after a in the rotation, side -1 just
    before it, and then x becomes w's first dart if a was.  So repeated
    darts at one corner stack next to a, a later one nearer, which is the
    nesting a fan of chords needs.  With a = -1, x is w's only dart."""
    w, a, bit = corner
    if a < 0:
        first[w] = x
        _link([x], leave)
        return
    if bit:
        a, b = leave[2 * a + 1] >> 1, a
        if first[w] == b:
            first[w] = x
    else:
        b = leave[2 * a] >> 1
    leave[2 * a], leave[2 * x + 1] = 2 * x, 2 * a + 1
    leave[2 * x], leave[2 * b + 1] = 2 * b, 2 * x + 1


class _SchemeEditor:
    """A working copy of a scheme that adds vertices and edges, in the
    integer dart and state form of the tracer.

    It holds the state table `leave` and each vertex's first dart, from
    which `freeze` lists each rotation, and keeps no faces: `step`,
    `mirror` and `face` read them off the live table.
    """

    def __init__(self, E: PseudoEmbedding):
        self.n = E.n
        self.edges = list(E.edges)
        self.leave = list(E._leave)
        self.first = list(E._first)

    def step(self, s: int) -> int:
        """The state after s on its face cycle."""
        return self.leave[s ^ 3 if self.edges[s >> 2][2] < 0 else s ^ 2]

    def mirror(self, s: int) -> int:
        """The state of the twin cycle that mirrors s."""
        return s ^ 2 if self.edges[s >> 2][2] < 0 else s ^ 3

    def face(self, s: int) -> list:
        """The state cycle through s, listed from it; RuntimeError if the
        walk does not return to s within len(leave) states."""
        cycle, t = [s], self.step(s)
        while t != s:
            if len(cycle) == len(self.leave):
                raise RuntimeError(f"face walk from state {s} does not close")
            cycle.append(t)
            t = self.step(t)
        return cycle

    def corner(self, s: int) -> tuple:
        """The corner (vertex, in-dart, side bit) where state s leaves: the
        in-dart is the one whose arrival on that side leaves by s."""
        d = s >> 1
        return self.edges[d >> 1][d & 1], self.leave[s ^ 1] >> 1, s & 1

    def add_vertex(self) -> int:
        """A new vertex, without darts until an edge reaches it."""
        self.first.append(-1)
        self.n += 1
        return self.n - 1

    def add_edge(self, c0: tuple, c1: tuple, neg: int) -> int:
        """Lay a new edge from corner c0 to corner c1, of signature -1 when
        neg is 1, and return its id."""
        e = len(self.edges)
        self.edges.append((c0[0], c1[0], -1 if neg else 1))
        self.leave += (-1, -1, -1, -1)
        _splice(self.leave, self.first, 2 * e, c0)
        _splice(self.leave, self.first, 2 * e + 1, c1)
        return e

    def add_star(self, corners: Sequence[tuple], negs: Sequence[int],
                 bit: int) -> int:
        """A new vertex joined to each corner in turn, the edge to corners[j]
        of signature -1 when negs[j] is 1 and laid at the new vertex on side
        `bit` of the one before; returns the vertex."""
        w, prev = self.add_vertex(), -1
        for corner, neg in zip(corners, negs):
            prev = 2 * self.add_edge(corner, (w, prev, bit), neg) + 1
        return w

    def freeze(self, surface: SurfaceInfo | None = None) -> PseudoEmbedding:
        """The edited scheme, built once by the public constructor from the
        table.  Raises RuntimeError unless every rotation closes and passes
        the record checks and unless it lies on `surface`, left out only
        for a scheme disconnected on purpose."""
        try:  # the rotation lists are dropped before the audits run
            E = PseudoEmbedding(self.n, self.edges, [
                [(d >> 1, d & 1) for d in _darts(self.leave, x, v)]
                for v, x in enumerate(self.first)])
        except SchemeError as exc:  # an internal fault, not a bad input
            raise RuntimeError(f"the editor's table is corrupt: {exc}") from None
        if surface is not None and surface_info(E) != surface:
            raise RuntimeError(
                f"the edited scheme lies on {surface_info(E)}, not {surface}"
            )
        return E


# Scheme file format: {"n": int, "edges": [[u, v, sig], ...],
# "rotation": [[[edge_id, end], ...] per vertex]}.  The writer,
# `_scheme_text`, lists each rotation from the vertex's first dart (the
# order is semantic); the reader validates everything and reports positions.


def scheme_from_dict(obj) -> PseudoEmbedding:
    if not isinstance(obj, dict):
        raise SchemeError("scheme document must be a JSON object")
    for key in ("n", "edges", "rotation"):
        if key not in obj:
            raise SchemeError(f"scheme document missing '{key}'")
    if type(obj["n"]) is not int:
        raise SchemeError("'n' must be an integer")
    for key in ("edges", "rotation"):
        if not isinstance(obj[key], list):
            raise SchemeError(f"'{key}' must be a list")
    for what, count in (("vertices", obj["n"]), ("edges", len(obj["edges"]))):
        if count > SCHEME_SIZE_CAP:
            raise SchemeError(
                f"scheme has {count} {what}, above the cap of {SCHEME_SIZE_CAP}"
            )
    # the constructor checks the records as it builds, naming the first bad one
    return PseudoEmbedding(obj["n"], obj["edges"], obj["rotation"])


_key = json.encoder.encode_basestring_ascii  # json.dumps of a str key


def _json_text(obj, nl: str) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), with the indent that nl, a
    newline and the indent's spaces, starts, built by str joins: given an
    indent, CPython's json runs only its pure-Python encoder.  obj is made
    of dicts with str keys, lists, tuples, JSON scalars and schemes, each
    written as its scheme file object."""
    if type(obj) is int:  # the C encoder's own text, without its set-up
        return int.__repr__(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        sep = nl + "  "
        return f"[{sep}{(',' + sep).join([_json_text(x, sep) for x in obj])}{nl}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        sep = nl + "  "
        return f"{{{sep}" + f",{sep}".join([
            f"{_key(k)}: {_json_text(v, sep)}" for k, v in sorted(obj.items())
        ]) + f"{nl}}}"
    if isinstance(obj, PseudoEmbedding):
        return _scheme_text(obj, nl)
    return json.dumps(obj)


def _scheme_text(E: PseudoEmbedding, nl: str) -> str:
    """_json_text of E's scheme file object, from a fixed template: one
    f-string per [u, v, sig] edge and one per [edge, end] dart."""
    i1, i2, i3, i4 = (nl + "  " * k for k in (1, 2, 3, 4))
    edges = f",{i2}".join([f"[{i3}{u},{i3}{v},{i3}{s}{i2}]" for u, v, s in E.edges])
    dart, leave = f",{i3}", E._leave
    rotation = f",{i2}".join([
        f"[{i3}" + dart.join([
            f"[{i4}{d >> 1},{i4}{d & 1}{i3}]" for d in _darts(leave, x, v)
        ]) + f"{i2}]" if x >= 0 else "[]" for v, x in enumerate(E._first)
    ])
    return (f'{{{i1}"edges": ' + (f"[{i2}{edges}{i1}]" if edges else "[]")
            + f',{i1}"n": {E.n},{i1}"rotation": [{i2}{rotation}{i1}]{nl}}}')


def _document(text: str):
    """The JSON document in text, or a SchemeError naming why it is none."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemeError(f"invalid JSON at position {exc.pos}: {exc.msg}")
    except RecursionError:  # a RuntimeError, which would read as a failed audit
        raise SchemeError("JSON nested too deeply to be a scheme") from None


def scheme_from_json(text: str) -> PseudoEmbedding:
    return scheme_from_dict(_document(text))
