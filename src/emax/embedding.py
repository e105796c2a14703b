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

Internally the tracer runs on the permutation form of the scheme (Mohar &
Thomassen, Graphs on Surfaces, 2001, sections 3.2-3.3).  Dart (e, end) is
the integer 2e + end, so its opposite is d ^ 1, and state (d, side) is the
integer 2d + sidebit with sidebit 1 for side -1.  Each scheme keeps its
rotation as successor and predecessor arrays over the 2m darts, and
ascending integer order of states is the (edge, end, side +1 first) order
that fixes the face order.  The face set is computed once per scheme and
memoised on it, since the scheme is immutable.

The Euler genus is g = 2 - n + m - f, and a scheme is orientable exactly
when its signature can be switched (vertex flips) to all-positive.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .graphs import Graph

Dart = tuple  # (edge_id, end)


class SchemeError(ValueError):
    pass


class PseudoEmbedding:
    """Immutable signed rotation system for a pseudograph."""

    __slots__ = ("n", "edges", "rotation", "_succ", "_pred", "_faces")

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
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "_succ", succ)
        object.__setattr__(self, "_pred", pred)
        object.__setattr__(self, "_faces", None)

    def __setattr__(self, name, value):
        raise AttributeError("PseudoEmbedding is immutable")

    def __repr__(self):
        return f"PseudoEmbedding(n={self.n}, m={self.m})"

    @property
    def m(self) -> int:
        return len(self.edges)

    def dart_vertex(self, d: Dart) -> int:
        e, end = d
        return self.edges[e][end]

    @staticmethod
    def opposite(d: Dart) -> Dart:
        e, end = d
        return (e, 1 - end)

    def is_connected(self) -> bool:
        if self.n == 0:
            return False
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
        pairs = set()
        for u, v, _ in self.edges:
            if u == v:
                return False
            key = (u, v) if u < v else (v, u)
            if key in pairs:
                return False
            pairs.add(key)
        return True

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


@dataclass(frozen=True)
class FacialWalk:
    steps: tuple  # ((edge_id, end), side) per step
    vertices: tuple  # vertex visited at each step

    @property
    def length(self) -> int:
        return len(self.steps)

    def distinct_vertices(self) -> frozenset:
        return frozenset(self.vertices)


@dataclass(frozen=True)
class FacialWalkSet:
    walks: tuple

    @property
    def face_count(self) -> int:
        return len(self.walks)

    @property
    def lengths(self) -> tuple:
        return tuple(w.length for w in self.walks)


@dataclass(frozen=True)
class SurfaceInfo:
    euler_genus: int
    orientable: bool


def _state_orbits(succ: list, pred: list, neg: list) -> tuple:
    """Cycles of the step map on the integer states 0..4m-1.

    succ and pred are the rotation arrays over darts and neg[e] is 1 for an
    edge of signature -1.  State s = 2d + sidebit steps across its edge to
    dart d ^ 1, takes the side bit xor neg[e], and leaves by the successor
    (sidebit 0) or predecessor (sidebit 1).  Returns (orbits, orbit_of):
    the cycles listed by their smallest state, each starting there, in
    ascending order, and the index of each state's cycle.
    """
    n_states = 2 * len(succ)
    # s ^ cross[e] is the arrival t of state s at the far end of its edge e
    # (dart t >> 1, side bit t & 1), and leave[t] is the state the walk
    # leaves by after that arrival
    leave = [0] * n_states
    leave[0::2] = [2 * x for x in succ]
    leave[1::2] = [2 * x + 1 for x in pred]
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


def trace_faces(E: PseudoEmbedding) -> FacialWalkSet:
    """Deterministic complete face set of the scheme, memoised on it.

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
    m = E.m
    neg = [1 if s < 0 else 0 for _, _, s in E.edges]
    orbits, orbit_of = _state_orbits(E._succ, E._pred, neg)
    # mirror(s) = s ^ flip[e]: the end bit flips, and the side bit too
    # unless edge e is negative
    flip = [3 - b for b in neg]
    darts = [(e, end) for e in range(m) for end in (0, 1)]
    home = [x for u, v, _ in E.edges for x in (u, v)]
    per_edge = [0] * m
    walks = []
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
        walks.append(
            FacialWalk(
                steps=tuple([(darts[s >> 1], -1 if s & 1 else 1) for s in orbit]),
                vertices=tuple([home[s >> 1] for s in orbit]),
            )
        )
    total = sum(per_edge)
    if total != 2 * m:
        raise RuntimeError(f"face sides sum to {total}, expected {2 * m}")
    if any(c != 2 for c in per_edge):
        raise RuntimeError("some edge is not traversed exactly twice")
    faces = FacialWalkSet(walks=tuple(walks))
    object.__setattr__(E, "_faces", faces)
    return faces


def orientability(E: PseudoEmbedding) -> tuple[bool, Optional[int]]:
    """Switching test: breadth-first vertex flips; returns (orientable,
    conflicting edge id or None)."""
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
        while queue:
            x = queue.pop(0)
            for y, e, s in adj[x]:
                want = flip[x] ^ (1 if s < 0 else 0)
                if flip[y] is None:
                    flip[y] = want
                    queue.append(y)
                elif flip[y] != want:
                    return (False, e)
    return (True, None)


def surface_info(E: PseudoEmbedding) -> SurfaceInfo:
    faces = trace_faces(E)
    g = 2 - E.n + E.m - faces.face_count
    if g < 0:
        raise RuntimeError(f"negative Euler genus {g}; tracing is broken")
    orient, _ = orientability(E)
    if orient and g % 2 != 0:
        raise RuntimeError(f"orientable scheme with odd Euler genus {g}")
    return SurfaceInfo(euler_genus=g, orientable=orient)


def is_triangulation(E: PseudoEmbedding) -> bool:
    return all(w.length == 3 for w in trace_faces(E).walks)


def is_edge_maximal_embedding(
    E: PseudoEmbedding,
) -> tuple[bool, Optional[tuple[int, tuple[int, int]]]]:
    """True iff every face's distinct vertex set induces a clique in the
    underlying simple graph.  On failure returns (face index, nonadjacent
    pair) as a witness.  Defined only for schemes of simple graphs."""
    G = E.simple_graph()
    for fi, w in enumerate(trace_faces(E).walks):
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


def four_distinct_window(walk: Union[FacialWalk, Sequence[int]]) -> int:
    """First offset r such that walk vertices r..r+3 (cyclically) are four
    distinct vertices.  Errors when the walk is shorter than 4 or no window
    exists."""
    verts = walk.vertices if isinstance(walk, FacialWalk) else tuple(walk)
    t = len(verts)
    if t < 4:
        raise SchemeError("window search needs walk length >= 4")
    for r in range(t):
        window = {verts[(r + i) % t] for i in range(4)}
        if len(window) == 4:
            return r
    raise SchemeError("no four distinct consecutive vertices on this walk")


# Corner bookkeeping shared by the surgery operations.  The walk enters the
# vertex at position i along in_dart (the arrival end of the previous step's
# edge) and leaves along out_dart; side is the local orientation there.  A
# new dart laid inside the face at this corner goes immediately after
# in_dart in the rotation when side is +1, immediately before it when side
# is -1.


@dataclass(frozen=True)
class Corner:
    pos: int
    vertex: int
    in_dart: Dart
    out_dart: Dart
    side: int


def walk_corners(E: PseudoEmbedding, walk: FacialWalk) -> list:
    corners = []
    steps = walk.steps
    t = len(steps)
    for i in range(t):
        d, side = steps[i]
        prev_d, _ = steps[(i - 1) % t]
        corners.append(
            Corner(
                pos=i,
                vertex=E.dart_vertex(d),
                in_dart=E.opposite(prev_d),
                out_dart=d,
                side=side,
            )
        )
    return corners


def insert_dart_at_corner(rot_lists: list, corner: Corner, dart: Dart) -> None:
    """Mutate rot_lists (lists of darts per vertex) to lay `dart` inside the
    face at `corner`.  Repeated insertions at one corner stack adjacent to
    in_dart, which is exactly the nesting chords need."""
    rot = rot_lists[corner.vertex]
    i = rot.index(corner.in_dart)
    if corner.side > 0:
        rot.insert(i + 1, dart)
    else:
        rot.insert(i, dart)


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
