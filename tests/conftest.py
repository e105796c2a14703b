"""Shared test helpers and the acceptance-criteria reporting hook.

test_acceptance.py records one verdict per criterion through `record`;
the terminal-summary hook below prints them as a single block after the
normal pytest output, one line per criterion, so the gate can be read
off a full run at a glance.
"""

from emax import Bipartition, Graph, PseudoEmbedding, closed_neighborhood

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


def reference_faces(E: PseudoEmbedding) -> list:
    """Face walks of E by the tuple-state tracer, as (steps, vertices) pairs.

    An oracle for `trace_faces` that reads only `E.edges` and `E.rotation`:
    darts are (edge, end) tuples found through a position dict, states are
    (dart, side) tuples visited in sorted (edge, end, side +1 first) order,
    and of each mirror pair of state cycles the one with the smaller first
    state is kept.
    """
    pos = {}
    for v, rot in enumerate(E.rotation):
        for i, d in enumerate(rot):
            pos[d] = (v, i)

    def step(state):
        (e, end), side = state
        side2 = side * E.edges[e][2]
        v, i = pos[(e, 1 - end)]
        rot = E.rotation[v]
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
