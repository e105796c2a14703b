"""Reference computations the benchmark checks emax's outputs against.

Nothing here imports emax: every quantity is recomputed from its
definition (face orbits of a signed rotation system, the recurrence as a
plain minimum over c, log 2 from its own series) or compared with
published data copied below.
"""

from __future__ import annotations

from fractions import Fraction

# Published nonorientable table, g -> (schedule, impurity, edge offset).
TABLE_N = {
    1: ("", 19, 22),
    2: ("7", 84, 84),
    3: ("7,7", 149, 146),
    4: ("8,7,7", 224, 218),
    5: ("8,8,7,7", 299, 290),
    6: ("9,8,8,7,7", 384, 372),
    7: ("9,8,8,7,7,7", 459, 444),
    8: ("10,8,8,8,7,7,7", 534, 516),
    9: ("10,9,8,8,8,7,7,7", 619, 598),
    10: ("10,9,8,8,8,8,7,7,7", 699, 675),
    11: ("11,9,8,8,8,8,8,7,7,7", 784, 757),
    12: ("11,9,9,8,8,8,8,7,7,7,7", 864, 834),
    13: ("11,10,9,8,8,8,8,8,7,7,7,7", 944, 911),
    14: ("12,10,9,8,8,8,8,8,8,7,7,7,7", 1024, 988),
    15: ("12,10,9,9,8,8,8,8,8,8,7,7,7,7", 1109, 1070),
    16: ("12,10,9,9,8,8,8,8,8,8,8,7,7,7,7", 1189, 1147),
    17: ("13,10,9,9,8,8,8,8,8,8,8,7,7,7,7,7", 1269, 1224),
    18: ("13,10,9,9,9,8,8,8,8,8,8,8,7,7,7,7,7", 1359, 1311),
    19: ("13,11,10,9,9,8,8,8,8,8,8,8,8,7,7,7,7,7", 1439, 1388),
    20: ("13,11,10,9,9,8,8,8,8,8,8,8,8,8,7,7,7,7,7", 1519, 1465),
}

# Published orientable table, Euler genus g -> (impurity, edge offset).
TABLE_S = {
    2: (67, 67), 4: (179, 173), 6: (307, 295), 8: (427, 409),
    10: (559, 535), 12: (691, 661), 14: (819, 783), 16: (951, 909),
    18: (1087, 1039), 20: (1215, 1161), 22: (1339, 1279),
    24: (1483, 1417), 26: (1607, 1535), 28: (1743, 1665),
    30: (1875, 1791), 32: (2007, 1917), 34: (2139, 2043),
    36: (2275, 2173), 38: (2411, 2303), 40: (2539, 2425),
}

# Orientable genus distributions (rotation systems with each vertex's first
# dart fixed, counted by handles h = 0, 1, 2, ...): Gross & Furst 1987.
GENUS_DISTRIBUTION = {
    "K5": (0, 462, 4974, 2340),
    "K33": (0, 40, 24),
}

# The committed toroidal K8-E(C5) scheme, whose documented provenance is
# the hill-climb with seed 11.  Edges are the lexicographic pairs of K8
# minus the 5-cycle 0-1-2-3-4, all with signature +1.
K8_C5_ROTATION = (
    ((3, 0), (1, 0), (2, 0), (0, 0), (4, 0)),
    ((5, 0), (7, 0), (6, 0), (8, 0), (9, 0)),
    ((11, 0), (12, 0), (10, 0), (13, 0), (0, 1)),
    ((5, 1), (16, 0), (14, 0), (1, 1), (15, 0)),
    ((18, 0), (6, 1), (17, 0), (19, 0), (10, 1)),
    ((11, 1), (2, 1), (14, 1), (21, 0), (17, 1), (7, 1), (20, 0)),
    ((15, 1), (3, 1), (22, 0), (8, 1), (18, 1), (12, 1), (20, 1)),
    ((22, 1), (4, 1), (13, 1), (19, 1), (21, 1), (16, 1), (9, 1)),
)
K8_C5_CYCLE = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}


def k8_c5_edges() -> list:
    return [
        [u, v, 1]
        for u in range(8)
        for v in range(u + 1, 8)
        if (u, v) not in K8_C5_CYCLE
    ]


# Schemes: the JSON document emax reads and writes, {"n", "edges",
# "rotation"}, with a dart written [edge, end] and numbered 2*edge + end.


class Faces:
    """Face structure of a signed rotation system.

    A state is (dart, orientation).  From a state the walk crosses the
    dart's edge, multiplies the orientation by the edge's signature, and
    leaves by the rotation successor (orientation +1) or predecessor (-1)
    of the dart it arrived on.  Every face is a pair of mirrored state
    orbits of equal length, so the face count is half the orbit count.
    """

    def __init__(self, doc: dict):
        n, edges, rotation = doc["n"], doc["edges"], doc["rotation"]
        m = len(edges)
        succ = [0] * (2 * m)
        pred = [0] * (2 * m)
        home = [0] * (2 * m)
        for v, rot in enumerate(rotation):
            darts = [2 * e + end for e, end in rot]
            for i, d in enumerate(darts):
                succ[d] = darts[(i + 1) % len(darts)]
                pred[d] = darts[i - 1]
                home[d] = v
        sign = [s for _, _, s in edges]
        seen = set()
        orbits = []
        for d0 in range(2 * m):
            for o0 in (1, -1):
                if (d0, o0) in seen:
                    continue
                orbit = []
                d, o = d0, o0
                while (d, o) not in seen:
                    seen.add((d, o))
                    orbit.append(home[d])
                    back = d ^ 1
                    o *= sign[d >> 1]
                    d = succ[back] if o > 0 else pred[back]
                orbits.append(orbit)
        self.n = n
        self.m = m
        self.count = len(orbits) // 2
        self.lengths = sorted(len(w) for w in orbits)[::2]
        self.vertex_sets = [frozenset(w) for w in orbits]
        self.genus = 2 - n + m - self.count
        self.orientable = _switchable(n, edges)


def _switchable(n: int, edges: list) -> bool:
    """True when vertex switches can make every signature +1: union-find
    with the parity of negative edges along each tree path."""
    parent = list(range(n))
    parity = [0] * n

    def find(x):
        p = 0
        while parent[x] != x:
            p ^= parity[x]
            x = parent[x]
        return x, p

    for u, v, s in edges:
        want = 1 if s < 0 else 0
        ru, pu = find(u)
        rv, pv = find(v)
        if ru == rv:
            if pu ^ pv != want:
                return False
        else:
            parent[ru] = rv
            parity[ru] = pu ^ pv ^ want
    return True


def simple_pairs(doc: dict) -> set:
    return {(min(u, v), max(u, v)) for u, v, _ in doc["edges"]}


def is_simple(doc: dict) -> bool:
    return all(u != v for u, v, _ in doc["edges"]) and len(
        simple_pairs(doc)
    ) == len(doc["edges"])


def faces_are_cliques(doc: dict, faces: Faces) -> bool:
    adj = simple_pairs(doc)
    for vs in faces.vertex_sets:
        ordered = sorted(vs)
        for i, u in enumerate(ordered):
            for v in ordered[i + 1 :]:
                if (u, v) not in adj:
                    return False
    return True


# The bound recurrence, as a plain minimum over c.


def f_prime(g: int, s_max: int) -> tuple:
    """(schedule c_3..c_s_max, f'(g, 2..s_max)) with every step floored.

    f'(g, 2) = 3 if g = 0 else 2g + 2, and f'(g, s) is the floor of the
    minimum over c >= 7 of max{2c(g-2)/(c-6), 2c - 3 + f'(g, s-1)}, the
    smallest c on ties.  The scan stops once the second branch alone
    exceeds the best value, since that branch grows with c.
    """
    prev = 3 if g == 0 else 2 * g + 2
    values = [prev]
    schedule = []
    for _ in range(3, s_max + 1):
        best_c = best = None
        c = 7
        while best is None or 2 * c - 3 + prev <= best:
            val = max(Fraction(2 * c * (g - 2), c - 6), Fraction(2 * c - 3 + prev))
            if best is None or val < best:
                best_c, best = c, val
            c += 1
        prev = best.numerator // best.denominator
        schedule.append(best_c)
        values.append(prev)
    return schedule, values


def ceil_sqrt_ratio(num: int, den: int) -> int:
    """Least t >= 0 with den * t^2 >= num, by bisection."""
    lo, hi = 0, 1
    while den * hi * hi < num:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if den * mid * mid >= num:
            hi = mid
        else:
            lo = mid + 1
    return lo


def ln2_bounds(terms: int = 160) -> tuple:
    """log 2 = 2 atanh(1/3) = sum_k 2/((2k+1) 3^(2k+1)); the tail after
    `terms` terms is below 2/(3^(2 terms + 1)) * 9/8."""
    s = Fraction(0)
    for k in range(terms):
        s += Fraction(2, (2 * k + 1) * 3 ** (2 * k + 1))
    tail = Fraction(9, 4 * 3 ** (2 * terms + 1))
    return s, s + tail


def lambda_bounds() -> tuple:
    """Enclosure of 25 - 11 (48332/114345 + (16/33) ln 2), width < 2^-400."""
    lo2, hi2 = ln2_bounds()
    base = Fraction(48332, 114345)
    return (
        25 - 11 * (base + Fraction(16, 33) * hi2),
        25 - 11 * (base + Fraction(16, 33) * lo2),
    )


# Graphs and ordered sequences.


def is_ordered(n: int, edges, seq) -> bool:
    """Each N[v_i] meets the union of the earlier N[v_j] in at most two
    vertices."""
    nb = [{v} for v in range(n)]
    for u, v in edges:
        nb[u].add(v)
        nb[v].add(u)
    seen = set()
    for v in seq:
        if len(nb[v] & seen) > 2:
            return False
        seen |= nb[v]
    return True


def parse_edge_list(text: str) -> tuple:
    """(n, edges, part_b) from emax's edge-list text format."""
    part_b = None
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("# part_b:"):
            part_b = {int(t) for t in line[len("# part_b:"):].split()}
        elif line and not line.startswith("#"):
            rows.append(tuple(int(t) for t in line.split()))
    (n, m), edges = rows[0], rows[1:]
    if len(edges) != m:
        raise ValueError(f"edge list promises {m} edges, holds {len(edges)}")
    return n, edges, part_b


def format_edge_list(n: int, edges, part_b=None) -> str:
    lines = [f"{n} {len(edges)}"]
    if part_b is not None:
        lines.append("# part_b: " + " ".join(str(b) for b in sorted(part_b)))
    lines += [f"{u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"
