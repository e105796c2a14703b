"""Simple graphs and bipartitions.

Vertices are dense integer indices 0..n-1.  Edges are unordered pairs stored
in canonical (min, max) form; loops and parallel edges are rejected (the
pseudograph machinery lives in `emax.embedding`).  Everything is immutable
after construction, so adjacency is built once and all queries are pure.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence

# An edge-list header "n m" makes Graph allocate n adjacency sets, about
# 450 bytes per vertex at peak: 10^5 vertices take 45 MB and 0.15 s.
EDGE_LIST_VERTEX_CAP = 10**5


class GraphError(ValueError):
    pass


class Graph:
    """Immutable simple graph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        canon = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) has an endpoint outside 0..{n-1}")
            if u == v:
                raise GraphError(f"loop at vertex {u} not allowed in a simple graph")
            canon.add((u, v) if u < v else (v, u))
        adj = [set() for _ in range(n)]
        for u, v in canon:
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(canon))
        object.__setattr__(self, "_adj", tuple(frozenset(s) for s in adj))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)})"

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    @property
    def m(self) -> int:
        return len(self.edges)

    def _check_vertex(self, v: int):
        if not (0 <= v < self.n):
            raise GraphError(f"vertex {v} out of range 0..{self.n - 1}")

    def neighbors(self, v: int) -> frozenset:
        self._check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adj[u]


class Bipartition(namedtuple("Bipartition", "part_a part_b")):
    __slots__ = ()

    def __new__(cls, part_a, part_b):
        return super().__new__(cls, frozenset(part_a), frozenset(part_b))


def check_bipartition(G: Graph, P: Bipartition) -> None:
    """Raise GraphError unless P is a valid bipartition of G."""
    if P.part_a & P.part_b:
        raise GraphError("bipartition parts are not disjoint")
    if P.part_a | P.part_b != frozenset(range(G.n)):
        raise GraphError("bipartition does not cover all vertices")
    for u, v in G.edges:
        if (u in P.part_a) == (v in P.part_a):
            raise GraphError(f"edge ({u},{v}) does not cross the bipartition")


def closed_neighborhood(G: Graph, v: int) -> frozenset:
    """N[v] = N(v) together with v itself."""
    return G.neighbors(v) | {v}


def _connected(adj: Sequence[Iterable[int]]) -> bool:
    """Whether a search from vertex 0 reaches all of vertices 0..n-1, n >= 1."""
    seen = {0}
    stack = [0]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(adj)


def is_connected(G: Graph) -> bool:
    return G.n > 0 and _connected(G._adj)


def bipartite_genus_lower_bound(G: Graph, P: Bipartition) -> int:
    """max(0, ceil(m/2) - n + 2): a lower bound on the Euler genus of a
    bipartite graph, from the bipartite edge bound m <= 2(n+g-2)."""
    if G.n < 3:
        raise GraphError("bipartite genus bound needs n >= 3")
    check_bipartition(G, P)
    return max(0, (G.m + 1) // 2 - G.n + 2)


# Edge-list text format: first line "n m", then m lines "u v" (0-based).
# Blank lines and '#' comments are ignored.  A writer may embed the B side
# of a bipartition as a "# part_b: ..." comment; the parser exposes it
# separately and plain readers can ignore it.  The parser refuses n above
# EDGE_LIST_VERTEX_CAP and an edge listed twice (in either orientation).


def parse_edge_list(text: str) -> tuple[Graph, frozenset | None]:
    header = None
    edges = []
    seen = set()
    part_b = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("part_b:"):
                try:
                    part_b = frozenset(int(t) for t in body[7:].split())
                except ValueError:
                    raise GraphError(f"line {lineno}: malformed part_b comment")
            continue
        if not line:
            continue
        fields = line.split()
        if header is None:
            if len(fields) != 2:
                raise GraphError(f"line {lineno}: expected header 'n m'")
            try:
                header = (int(fields[0]), int(fields[1]))
            except ValueError:
                raise GraphError(f"line {lineno}: non-integer header")
            if header[0] > EDGE_LIST_VERTEX_CAP:
                raise GraphError(
                    f"line {lineno}: {header[0]} vertices, above the cap of "
                    f"{EDGE_LIST_VERTEX_CAP}"
                )
            continue
        if len(fields) != 2:
            raise GraphError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphError(f"line {lineno}: non-integer endpoint")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphError(f"line {lineno}: duplicate edge {u} {v}")
        seen.add(key)
        edges.append((u, v))
    if header is None:
        raise GraphError("missing 'n m' header line")
    n, m = header
    if len(edges) != m:
        raise GraphError(f"header promises {m} edges, found {len(edges)}")
    return Graph(n, edges), part_b


def format_edge_list(G: Graph, part_b: Iterable[int] | None = None) -> str:
    lines = [f"{G.n} {G.m}"]
    if part_b is not None:
        lines.append("# part_b: " + " ".join(str(v) for v in sorted(part_b)))
    for u, v in sorted(G.edges):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"
