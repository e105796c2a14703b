"""Reference graphs, committed schemes, enumeration, block pasting.

The two committed schemes (Q's planar quadrangulation, the toroidal
K8-C5 scheme) are data; every property claimed for them is re-proved
here from the data alone.
"""

import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import emax.constructions
from emax import cli
from emax import (
    Graph,
    GraphError,
    PseudoEmbedding,
    SchemeError,
    SurfaceInfo,
    check_bipartition,
    complete_bipartite,
    complete_graph,
    construct_proposition2,
    edges_short,
    graph_q,
    graph_q_scheme,
    is_edge_maximal_embedding,
    is_triangulation,
    k8_minus_c5,
    lower_bound_family,
    orientability,
    paste_block,
    regenerate_k8_c5_fixture,
    scheme_census,
    surface_info,
    toroidal_embedding_k8_minus_c5,
    trace_faces,
)
from emax.constructions import (
    CONSTRUCT_EDGE_CAP,
    REGEN_MOVE_CAP,
    REGEN_SETUP_MOVES,
    _census_orders,
    _enumeration_total,
    _k3_scheme,
    _k8_c5_pairs,
    _label_faces,
    _swap_gain,
    _tree_positive_masks,
    enumerate_small_schemes,
)
from emax.embedding import _darts, _faces, _link
from emax.graphs import EDGE_LIST_VERTEX_CAP

from conftest import (
    assert_frozen_record,
    is_clique,
    is_planar,
    reference_census,
    reference_paste,
    reference_proposition2,
    reference_regen,
    reference_schemes,
    reference_total,
    walk_corners,
)

PASTE_TARGETS = ("planar", "crosscap", "handle")


def switched(E, vs):
    """E with every vertex in vs switched: rotation reversed and the
    signatures of edges with one end in vs negated.  Faces are unchanged."""
    vs = set(vs)
    edges = [(u, v, -s if (u in vs) != (v in vs) else s) for u, v, s in E.edges]
    rotation = [r[::-1] if v in vs else r for v, r in enumerate(E.rotation)]
    return PseudoEmbedding(E.n, edges, rotation)


def pasteable_faces(E):
    return [
        i for i, wk in enumerate(trace_faces(E))
        if wk.length == 3 and len(wk.distinct_vertices()) == 3
    ]


def side_pattern(E, face_index):
    corners = walk_corners(E, trace_faces(E)[face_index])
    return sum(1 << j for j, c in enumerate(corners) if c.side > 0)


def count_builds(monkeypatch):
    """A list that grows by one at each validated scheme build."""
    builds = []
    init = PseudoEmbedding.__init__

    def counting_init(self, *args):
        builds.append(1)
        init(self, *args)

    monkeypatch.setattr(PseudoEmbedding, "__init__", counting_init)
    return builds


def assert_paste_matches_reference(E, face_index, target):
    got = paste_block(E, [face_index], target)
    want = reference_paste(E, face_index, target)
    assert (got.edges, got.rotation) == (want.edges, want.rotation)
    return got


class TestBasicGraphFactories:
    def test_complete_graph(self):
        G = complete_graph(5)
        assert (G.n, G.m) == (5, 10)
        with pytest.raises(GraphError):
            complete_graph(0)

    def test_complete_bipartite(self):
        G, P = complete_bipartite(3, 4)
        assert (G.n, G.m) == (7, 12)
        check_bipartition(G, P)
        assert P.part_a == frozenset({0, 1, 2})
        with pytest.raises(GraphError):
            complete_bipartite(0, 3)
        G = complete_bipartite(2, CONSTRUCT_EDGE_CAP // 2)[0]
        assert G.m == CONSTRUCT_EDGE_CAP and G.n <= EDGE_LIST_VERTEX_CAP
        for a, b in ((1, CONSTRUCT_EDGE_CAP + 1), (CONSTRUCT_EDGE_CAP + 1, 1),
                     (10**9, 10**9)):
            with pytest.raises(GraphError, match=f"{a * b} edges, above the cap"):
                complete_bipartite(a, b)
        # under the edge cap, but one vertex more than an edge list may declare
        with pytest.raises(GraphError, match=f"{EDGE_LIST_VERTEX_CAP + 1} "
                                             "vertices, above the cap"):
            complete_bipartite(1, EDGE_LIST_VERTEX_CAP)


class TestK8MinusC5:
    def test_graph_shape(self):
        G = k8_minus_c5()
        assert (G.n, G.m) == (8, 23)
        # the removed 5-cycle lives on 0..4
        for u, v in [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]:
            assert not G.has_edge(u, v)
        assert all(G.degree(v) == 5 for v in range(5))
        assert all(G.degree(v) == 7 for v in range(5, 8))

    def test_committed_scheme_is_the_claimed_embedding(self):
        E = toroidal_embedding_k8_minus_c5()
        assert E.simple_graph() == k8_minus_c5()
        info = surface_info(E)
        assert (info.euler_genus, info.orientable) == (2, True)
        lengths = sorted(w.length for w in trace_faces(E))
        assert lengths == [3] * 14 + [4]
        assert is_edge_maximal_embedding(E) == (True, None)
        assert edges_short(E) == 1

    def test_quad_face_induces_k4(self):
        E = toroidal_embedding_k8_minus_c5()
        G = E.simple_graph()
        quad = next(w for w in trace_faces(E) if w.length == 4)
        assert len(quad.distinct_vertices()) == 4
        assert is_clique(G, quad.distinct_vertices())

    def test_regeneration_finds_an_equivalent_scheme(self):
        E = regenerate_k8_c5_fixture(seed=11)
        assert E is not None
        info = surface_info(E)
        assert (info.euler_genus, info.orientable) == (2, True)
        assert len(trace_faces(E)) == 15
        assert E.simple_graph() == k8_minus_c5()
        # the committed fixture's documented provenance is this very run
        F = toroidal_embedding_k8_minus_c5()
        assert (E.edges, E.rotation) == (F.edges, F.rotation)

    # Results of short searches, recorded from the tuple-state hill-climb
    # that the array version replaced.  Rotations are written as integer
    # darts 2 * edge + end, one list per vertex; None means every restart
    # stalled below 15 faces.
    PINNED_SEARCHES = [
        ((1, 3, 3000), None),
        ((2, 3, 3000), None),
        ((3, 3, 3000), None),
        ((4, 3, 3000), None),
        ((5, 3, 3000), None),
        ((17, 1, 20000), [
            [2, 6, 0, 4, 8], [18, 16, 12, 14, 10], [1, 24, 26, 20, 22],
            [3, 32, 11, 28, 30], [36, 21, 38, 34, 13],
            [35, 42, 5, 23, 40, 29, 15], [44, 25, 7, 31, 41, 37, 17],
            [19, 33, 9, 43, 39, 27, 45]]),
        ((25, 1, 20000), [
            [2, 6, 8, 0, 4], [12, 14, 16, 10, 18], [20, 24, 22, 1, 26],
            [3, 28, 32, 11, 30], [21, 34, 13, 38, 36],
            [35, 42, 29, 5, 23, 40, 15], [25, 37, 44, 7, 31, 17, 41],
            [9, 45, 39, 19, 33, 43, 27]]),
    ]

    @pytest.mark.parametrize(
        "args, darts", PINNED_SEARCHES,
        ids=[f"seed{args[0]}" for args, _ in PINNED_SEARCHES],
    )
    def test_regeneration_matches_pinned_searches(self, args, darts):
        seed, restarts, iters = args
        E = regenerate_k8_c5_fixture(seed, restarts=restarts, iters=iters)
        if darts is None:
            assert E is None
        else:
            assert E.rotation == tuple(
                tuple((d >> 1, d & 1) for d in r) for r in darts
            )

    def test_climb_result_audit(self, monkeypatch, capsys):
        # seed 11 finds 15 faces; a surface_info that disagrees trips the
        # audit of the built scheme, in the library and through the CLI
        monkeypatch.setattr(emax.constructions, "surface_info",
                            lambda E: SurfaceInfo(0, True))
        message = "hill-climb result is not a 15-face torus scheme"
        with pytest.raises(RuntimeError, match=f"^{message}$"):
            regenerate_k8_c5_fixture(seed=11)
        assert cli.main(["regen-fixture", "--seed", "11"]) == 1
        assert capsys.readouterr() == ("", f"verification failed: {message}\n")

    def test_regeneration_can_fail_cleanly(self):
        assert regenerate_k8_c5_fixture(seed=0, restarts=1, iters=1) is None

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 7, 17, 25])
    def test_regeneration_equals_the_recounting_climb(self, seed):
        # stalls, one-move runs and finds alike: the same RNG draws and
        # accept decisions as the climb that recounts every cycle per move
        for restarts, iters in ((1, 1), (1, 500), (3, 3000), (1, 20000)):
            E = regenerate_k8_c5_fixture(seed, restarts=restarts, iters=iters)
            want = reference_regen(seed, restarts, iters)
            got = None if E is None else [
                [2 * e + end for e, end in r] for r in E.rotation
            ]
            assert got == want, (seed, restarts, iters)

    @pytest.mark.parametrize("restarts, iters", [(0, 100), (-2, 100), (1, 0), (40, -3)])
    def test_nonpositive_budget_is_refused(self, restarts, iters):
        with pytest.raises(SchemeError, match=f"got {restarts} and {iters}$"):
            regenerate_k8_c5_fixture(0, restarts=restarts, iters=iters)

    def test_budget_above_the_cap_is_refused(self):
        # a budget at the cap is taken (seed 1 finds within its first
        # restart); one more move, or one more one-move restart than fits
        # the cap, is refused
        longest = REGEN_MOVE_CAP - REGEN_SETUP_MOVES
        assert regenerate_k8_c5_fixture(1, restarts=1, iters=longest)
        most = REGEN_MOVE_CAP // (1 + REGEN_SETUP_MOVES)
        for restarts, iters in ((1, longest + 1), (most + 1, 1)):
            with pytest.raises(SchemeError, match=f"at most {REGEN_MOVE_CAP}"):
                regenerate_k8_c5_fixture(0, restarts=restarts, iters=iters)


class TestGadgetQ:
    def test_graph_shape(self):
        G, P = graph_q()
        assert (G.n, G.m) == (8, 12)
        check_bipartition(G, P)
        assert sorted(P.part_b) == [0, 1, 2]
        assert all(G.degree(b) == 4 for b in P.part_b)
        assert is_planar(G)

    def test_any_two_b_vertices_share_three_neighbors(self):
        G, P = graph_q()
        bs = sorted(P.part_b)
        for i, u in enumerate(bs):
            for v in bs[i + 1:]:
                assert len(G.neighbors(u) & G.neighbors(v)) >= 3

    def test_committed_scheme_is_a_planar_quadrangulation(self):
        E = graph_q_scheme()
        assert E.simple_graph() == graph_q()[0]
        info = surface_info(E)
        assert (info.euler_genus, info.orientable) == (0, True)
        assert [w.length for w in trace_faces(E)] == [4] * 6


class TestLowerBoundFamily:
    def test_record(self):
        fam = lower_bound_family(1, 2)
        assert_frozen_record(
            fam, ("graph", "bipartition", "g", "s"),
            "LowerBoundFamily(graph=Graph(n=7, m=12), "
            "bipartition=Bipartition(part_a=frozenset({0, 1, 2}), "
            "part_b=frozenset({3, 4, 5, 6})), g=1, s=2)",
        )
        assert fam == lower_bound_family(1, 2)
        assert fam != lower_bound_family(1, 3)

    def test_core_only(self):
        fam = lower_bound_family(2, 2)
        assert fam.graph.n == 9 and fam.graph.m == 18
        assert len(fam.bipartition.part_b) == 6
        check_bipartition(fam.graph, fam.bipartition)

    def test_q_copies_appended(self):
        fam = lower_bound_family(2, 4)
        # core 9 vertices + two Q copies of 8
        assert fam.graph.n == 25
        assert fam.graph.m == 18 + 2 * 12
        assert len(fam.bipartition.part_b) == 6 + 2 * 3
        check_bipartition(fam.graph, fam.bipartition)

    def test_b_degrees_stay_in_range(self):
        fam = lower_bound_family(3, 3)
        degs = {fam.graph.degree(b) for b in fam.bipartition.part_b}
        assert degs <= {3, 4}

    def test_validation(self):
        with pytest.raises(GraphError):
            lower_bound_family(0, 2)
        with pytest.raises(GraphError):
            lower_bound_family(1, 1)
        # 6g + 6 core edges and 12 per copy of Q: the largest g and s with
        # the other at its least stay under the cap, one more goes over it
        g = (CONSTRUCT_EDGE_CAP - 6) // 6
        s = (CONSTRUCT_EDGE_CAP - 12) // 12 + 2
        for fam in (lower_bound_family(g, 2), lower_bound_family(1, s)):
            assert CONSTRUCT_EDGE_CAP - 12 < fam.graph.m <= CONSTRUCT_EDGE_CAP
        for args, m in (((g + 1, 2), 6 * g + 12), ((1, s + 1), 12 * s)):
            with pytest.raises(GraphError, match=f"{m} edges, above the cap"):
                lower_bound_family(*args)


class TestEnumeration:
    """The per-scheme corpus of conftest.reference_schemes, which the census
    and the exhaustive K4 tests are checked against."""

    def test_k4_orientable_count_and_census(self):
        G = complete_graph(4)
        census = {}
        count = 0
        for E in reference_schemes(G, "orientable-only"):
            count += 1
            info = surface_info(E)
            key = (
                info.euler_genus,
                info.orientable,
                tuple(sorted(w.length for w in trace_faces(E))),
            )
            census[key] = census.get(key, 0) + 1
        # prod_v (deg-1)! = 2^4 = 16 rotation systems
        assert count == 16
        assert census == {
            (0, True, (3, 3, 3, 3)): 2,
            (2, True, (3, 9)): 8,
            (2, True, (4, 8)): 6,
        }

    def test_k4_all_signatures_count(self):
        G = complete_graph(4)
        n = sum(1 for _ in reference_schemes(G, "all"))
        assert n == 16 * 2**6

    def test_projective_k4_class_present(self):
        G = complete_graph(4)
        hits = 0
        for E in reference_schemes(G, "all"):
            info = surface_info(E)
            if info.euler_genus == 1 and not info.orientable:
                if sorted(w.length for w in trace_faces(E)) == [3, 3, 6]:
                    hits += 1
        assert hits == 96


CENSUS_GRAPHS = {
    "K4": complete_graph(4),
    "K5": complete_graph(5),
    "K33": complete_bipartite(3, 3)[0],
    "K23": complete_bipartite(2, 3)[0],
    # no vertex of degree 3 or more: one rotation system, its own mirror
    "C5": Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
    "path": Graph(4, [(0, 1), (1, 2), (2, 3)]),
    # vertex 0 has degree 1 or 2, so the mirror pairs are told apart at 1
    "pendant K4": Graph(5, [(0, 1)] + [(u, v) for u in range(1, 5)
                                       for v in range(u + 1, 5)]),
    "diamond": Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
    # one edge: both ends have one order, and the census composes at 1
    "K2": Graph(2, [(0, 1)]),
    # the hub 0 has the most orders, so the census composes at the hub
    "star K1,4": Graph(5, [(0, v) for v in range(1, 5)]),
}

# the prefixes the census walk yields: prod (deg(v)-1)! over the vertices
# other than the composed one, halved at the hub when it is not composed
PREFIXES = {"K4": 4, "K5": 648, "pendant K4": 8, "C5": 1, "path": 1,
            "K2": 1, "star K1,4": 1}


@st.composite
def small_connected_graphs(draw):
    """Connected simple graphs on 3..6 vertices with a cycle: a random
    spanning tree plus one to four other edges."""
    n = draw(st.integers(3, 6))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    others = [p for p in itertools.combinations(range(n), 2) if p not in tree]
    extra = draw(st.lists(st.sampled_from(others), min_size=1, max_size=4,
                          unique=True))
    return Graph(n, tree + extra)


def walk_systems(G):
    """The rotation systems the census lays: each prefix that
    enumerate_small_schemes(G) yields, completed with each order of the
    composed vertex, each a tuple of every vertex's dart ids by successors
    from its least dart, read off the live table."""
    orders, c = _census_orders(G)
    first = [-1] * G.n
    for e, (u, v) in reversed(list(enumerate(sorted(G.edges)))):
        first[u], first[v] = 2 * e, 2 * e + 1
    systems = []
    for leave in enumerate_small_schemes(G):
        for ids in orders[c]:
            _link(ids, leave)
            systems.append(tuple(tuple(_darts(leave, x, v))
                                 for v, x in enumerate(first)))
    return systems


def mirror_system(system):
    """Every rotation of the system reversed, from the same first dart."""
    return tuple(r[:1] + r[:0:-1] for r in system)


def reference_systems(G):
    return {tuple(tuple(2 * e + end for e, end in r) for r in E.rotation)
            for E in reference_schemes(G, "orientable-only")}


class TestCensusWalk:
    """enumerate_small_schemes yields one live state table per prefix, the
    census lays each order of the composed vertex on it, and so lays one
    rotation system per mirror pair."""

    # prod_v (deg(v)-1)! / 2 with a vertex of degree 3 or more, else 1
    @pytest.mark.parametrize("name, tables", [
        ("K4", 8), ("K5", 3888), ("pendant K4", 24), ("C5", 1), ("path", 1),
        ("K2", 1), ("star K1,4", 3),
    ])
    def test_one_table_per_mirror_pair(self, name, tables):
        G = CENSUS_GRAPHS[name]
        leaves = list(enumerate_small_schemes(G))
        assert len(leaves) == PREFIXES[name]
        assert all(leave is leaves[0] for leave in leaves)
        systems = walk_systems(G)
        assert len(systems) == len(set(systems)) == tables
        mirrors = {mirror_system(r) for r in systems}
        if tables > 1:
            assert not mirrors & set(systems)
            assert 2 * tables == _enumeration_total(G, "orientable-only")
        else:
            assert mirrors == set(systems)

    @pytest.mark.parametrize("name", [
        "K4", "K33", "K23", "pendant K4", "diamond", "C5", "path", "K2",
        "star K1,4",
    ])
    def test_with_mirrors_matches_reference(self, name):
        G = CENSUS_GRAPHS[name]
        systems = walk_systems(G)
        got = set(systems) | {mirror_system(r) for r in systems}
        assert got == reference_systems(G)

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(small_connected_graphs())
    def test_with_mirrors_matches_reference_on_random_graphs(self, G):
        assume(reference_total(G, "orientable-only") <= 4000)
        systems = walk_systems(G)
        got = set(systems) | {mirror_system(r) for r in systems}
        assert got == reference_systems(G)
        assert len(got) == reference_total(G, "orientable-only")

    def test_census_iterates_the_walk(self, monkeypatch):
        # perfbench's tracer times the census by this name
        calls = []
        walk = emax.constructions.enumerate_small_schemes

        def counted(G):
            calls.append(G)
            return walk(G)

        monkeypatch.setattr(emax.constructions, "enumerate_small_schemes", counted)
        G = complete_graph(4)
        assert scheme_census(G) == reference_census(G, "orientable-only")
        assert len(calls) == 1


class TestSchemeCensus:
    # K5 in mode "all" is 7,962,624 schemes, out of the oracle's reach in
    # a test run; every other mode of the four graphs is compared.
    @pytest.mark.parametrize("name, mode", [
        ("K4", "orientable-only"), ("K4", "all"),
        ("K5", "orientable-only"),
        ("K33", "orientable-only"), ("K33", "all"),
        ("K23", "orientable-only"), ("K23", "all"),
        ("C5", "orientable-only"), ("C5", "all"),
        ("path", "orientable-only"), ("path", "all"),
        ("pendant K4", "orientable-only"), ("pendant K4", "all"),
        ("diamond", "orientable-only"), ("diamond", "all"),
        ("K2", "orientable-only"), ("K2", "all"),
        ("star K1,4", "orientable-only"), ("star K1,4", "all"),
    ])
    def test_matches_per_scheme_census(self, name, mode):
        G = CENSUS_GRAPHS[name]
        assert scheme_census(G, mode) == reference_census(G, mode)

    # one composition per mirror pair and tree-positive mask, and one trace
    # per prefix and mask: K4 has 8 mirror pairs, 2 orders at the composed
    # vertex and 8 masks, K5 3888 pairs and 6 orders, and C5 one rotation
    # system and 2 masks
    @pytest.mark.parametrize("name, mode, traces", [
        ("K4", "orientable-only", 8), ("K4", "all", 64),
        ("K5", "orientable-only", 3888),
        ("C5", "orientable-only", 1), ("C5", "all", 2),
    ])
    def test_one_trace_per_mirror_pair(self, monkeypatch, name, mode, traces):
        calls = {"_trace_prefix": 0, "_faces_through": 0}
        for fn in calls:
            def counted(*args, fn=fn, real=getattr(emax.constructions, fn)):
                calls[fn] += 1
                return real(*args)

            monkeypatch.setattr(emax.constructions, fn, counted)
        scheme_census(CENSUS_GRAPHS[name], mode)
        orders = {"K4": 2, "K5": 6, "C5": 1}[name]
        assert calls == {"_trace_prefix": traces // orders,
                         "_faces_through": traces}

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(small_connected_graphs(), st.sampled_from(("orientable-only", "all")))
    def test_matches_per_scheme_census_on_random_graphs(self, G, mode):
        assume(reference_total(G, mode) <= 4000)
        assert scheme_census(G, mode) == reference_census(G, mode)

    def test_one_tree_positive_mask_per_switching_class(self):
        G = complete_graph(4)
        pairs = sorted(G.edges)
        masks = {sum(b << e for e, b in enumerate(neg))
                 for neg in _tree_positive_masks(G)}
        assert len(masks) == 2 ** (G.m - G.n + 1)
        cuts = [
            sum(1 << e for e, (u, v) in enumerate(pairs)
                if (u in S) != (v in S))
            for k in range(G.n)
            for S in map(set, itertools.combinations(range(1, G.n), k))
        ]
        for mask in range(2 ** G.m):
            assert sum(mask ^ cut in masks for cut in cuts) == 1

    def test_tree_positive_mask_orientable_iff_all_positive(self):
        G = complete_graph(4)
        masks = _tree_positive_masks(G)
        for E in reference_schemes(G, "orientable-only"):
            for neg in masks:
                edges = [(u, v, -1 if b else 1)
                         for (u, v, _), b in zip(E.edges, neg)]
                S = PseudoEmbedding(E.n, edges, E.rotation)
                assert orientability(S)[0] == (not any(neg))

    def test_input_validation(self):
        with pytest.raises(GraphError):
            scheme_census(Graph(1, []))
        with pytest.raises(GraphError, match="connected"):
            scheme_census(Graph(4, [(0, 1), (2, 3)]))
        with pytest.raises(GraphError, match="signature_mode"):
            scheme_census(complete_graph(3), "sometimes")

    def test_cap_counts_represented_schemes(self, monkeypatch):
        G = complete_graph(4)
        for mode, total in (("orientable-only", 16), ("all", 1024)):
            want = (f"enumeration would visit {total} schemes, above the cap "
                    f"of {total - 1}")
            monkeypatch.setattr(emax.constructions, "ENUMERATION_CAP", total - 1)
            with pytest.raises(GraphError) as exc:
                scheme_census(G, mode)
            assert str(exc.value) == want
            monkeypatch.setattr(emax.constructions, "ENUMERATION_CAP", total)
            assert sum(scheme_census(G, mode).values()) == total



class TestCensusAudits:
    """Each audit of the census, tripped on the paw: the triangle 0 1 2 and
    the edge 2 3.  The census composes at vertex 3, whose one dart 7
    leaves by states 14 and 15.  The paw has one prefix, on the table
    leave = [4, 5, 8, 9, 0, 1, 10, 13, 2, 3, 12, 7, 6, 11, 14, 15].  There
    the arc from 14 is 14, 6, 0, 8, 12, its twin runs from 15, and the
    triangle's closed cycle is 1, 9, 7.  With signature +1, state s steps
    to leave[s ^ 2] and its mirror is s ^ 3.  Each fault raises
    RuntimeError, which `enumerate --census` turns into exit 1 with
    nothing on stdout."""

    PAW = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])

    def assert_trips(self, capsys, tmp_path, message):
        with pytest.raises(RuntimeError, match=message) as exc:
            scheme_census(self.PAW)
        path = tmp_path / "paw.txt"
        path.write_text("4 4\n0 1\n0 2\n1 2\n2 3\n")
        assert cli.main(["enumerate", str(path), "--census"]) == 1
        assert capsys.readouterr() == ("", f"verification failed: {exc.value}\n")

    # entries written into the prefix's table at each yield
    @pytest.mark.parametrize("fault, message", [
        # the arc steps from 0 back into 0, not to vertex 3
        ({2: 0}, "^state map failed to close an arc$"),
        # the arc steps from 0 into 3, its mirror, and on back to vertex 3
        # along its own mirror image
        ({2: 3}, "^self-mirrored facial cycle"),
        # the mirror of 0 must step to 5, the mirror of 6, by leave[1]
        ({1: 0}, "^mirror pairing mismatch between facial cycles$"),
        # the triangle's cycle steps from 1 into 0, on the arc
        ({3: 0}, "^state map failed to close a cycle$"),
        # the triangle's cycle becomes 1, 2, and 2 is the mirror of 1
        ({3: 2, 0: 1}, "^self-mirrored facial cycle"),
        # the mirror of 1 must step to 4, the mirror of 7, by leave[0]
        ({0: 0}, "^mirror pairing mismatch between facial cycles$"),
    ])
    def test_prefix_audits(self, monkeypatch, capsys, tmp_path, fault, message):
        walk = emax.constructions.enumerate_small_schemes

        def corrupted(G):
            for leave in walk(G):
                for s, t in fault.items():
                    leave[s] = t
                yield leave

        monkeypatch.setattr(emax.constructions, "enumerate_small_schemes",
                            corrupted)
        self.assert_trips(capsys, tmp_path, message)

    # entries written into the table wherever vertex 3's order is laid; the
    # arc from 14 arrives at state 14, which leaves by 14 on the true order
    @pytest.mark.parametrize("fault, message", [
        # 14 leaves by 0, a state off vertex 3
        ({14: 0}, "^a face through c fails to close within 2 exits$"),
        # 14 leaves by 15, where the arc's twin starts
        ({14: 15}, "^a face through c is its own mirror image$"),
        # the mirror of 12 must step to 15, the mirror of 14, by leave[15]
        ({15: 0}, "^a face through c has a twin that is not its mirror image$"),
    ])
    def test_composition_audits(self, monkeypatch, capsys, tmp_path, fault,
                                message):
        def corrupted(ids, leave):
            _link(ids, leave)
            if ids == (7,):
                for s, t in fault.items():
                    leave[s] = t

        monkeypatch.setattr(emax.constructions, "_link", corrupted)
        self.assert_trips(capsys, tmp_path, message)

    def test_kept_sides_audit(self, monkeypatch, capsys, tmp_path):
        # without the triangle's closed cycle the kept sides are the 5 of the
        # face through vertex 3, of 2m = 8
        trace = emax.constructions._trace_prefix
        monkeypatch.setattr(emax.constructions, "_trace_prefix",
                            lambda *args: trace(*args)[:2] + ([],))
        self.assert_trips(capsys, tmp_path, "^face sides sum to 5, expected 8$")

    def test_count_audit(self, monkeypatch, capsys, tmp_path):
        # the paw's two schemes are one mirror pair; walking it twice counts 4
        walk = emax.constructions.enumerate_small_schemes
        monkeypatch.setattr(emax.constructions, "enumerate_small_schemes",
                            lambda G: itertools.chain(walk(G), walk(G)))
        self.assert_trips(capsys, tmp_path,
                          "^census counts 4 schemes, expected 2$")


def _labelled(phi):
    lab, at, face_len = [-1] * len(phi), [0] * len(phi), []
    _label_faces(phi, lab, at, face_len, range(len(phi)))
    return lab, at, face_len


class TestFixtureClimbCounting:
    def test_cycle_count_matches_the_full_trace(self):
        pairs = _k8_c5_pairs()
        m = len(pairs)
        rng = random.Random(5)
        for _ in range(50):
            rot = [[] for _ in range(8)]
            for e, (u, v) in enumerate(pairs):
                rot[u].append(2 * e)
                rot[v].append(2 * e + 1)
            leave = [0] * (4 * m)
            for r in rot:
                rng.shuffle(r)
                _link(r, leave)
            phi = [leave[2 * (d ^ 1)] >> 1 for d in range(2 * m)]
            lab, at, face_len = _labelled(phi)
            assert len(face_len) == len(_faces(leave, [0] * m))
            for d in range(2 * m):  # phi steps one position along the face
                assert lab[phi[d]] == lab[d]
                assert at[phi[d]] == (at[d] + 1) % face_len[lab[d]]

    def test_unclosed_cycle_raises(self):
        with pytest.raises(RuntimeError, match="failed to close"):
            _label_faces([1, 1], [-1, -1], [0, 0], [], range(2))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(0, 10**9), st.integers(1, 9), st.integers(1, 12), st.booleans())
    def test_swap_gain_equals_a_full_recount(self, seed, n, extra, simple):
        # a chain of random swaps on the rotations of a random connected
        # simple graph, or multigraph with loops (where a swap can exchange
        # the two ends of one edge): each predicted count must equal the
        # count of the swapped scheme's faces
        rng = random.Random(seed)
        pairs = [(v - 1, v) for v in range(1, n)]
        pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(extra)]
        if simple:
            pairs = sorted({(min(p), max(p)) for p in pairs if p[0] != p[1]})
        m = len(pairs)
        rot = [[] for _ in range(n)]
        for e, (u, v) in enumerate(pairs):
            rot[u].append(2 * e)
            rot[v].append(2 * e + 1)
        assume(any(len(r) >= 2 for r in rot))
        leave = [0] * (4 * m)
        for r in rot:
            rng.shuffle(r)
            _link(r, leave)
        for _ in range(20):
            r = rng.choice([r for r in rot if len(r) >= 2])
            i, j = rng.sample(range(len(r)), 2)
            phi = [leave[2 * (d ^ 1)] >> 1 for d in range(2 * m)]
            lab, at, face_len = _labelled(phi)
            want = len(face_len) + _swap_gain(lab, at, face_len, r[i], r[j])
            r[i], r[j] = r[j], r[i]
            _link(r, leave)
            assert want == len(_faces(leave, [0] * m))


class TestPasteBlock:
    def test_planar_paste(self):
        E = paste_block(_k3_scheme(), [0], "planar")
        info = surface_info(E)
        assert (info.euler_genus, info.orientable) == (0, True)
        assert E.n == 4 and E.m == 6
        assert is_triangulation(E)

    def test_crosscap_paste(self):
        E0 = _k3_scheme()
        E = paste_block(E0, [0], "crosscap")
        info = surface_info(E)
        assert info.euler_genus == 1 and not info.orientable
        w = E.n - 1
        at_w = sorted(
            wk.length for wk in trace_faces(E)
            if w in wk.distinct_vertices()
        )
        assert at_w == [3, 6]

    def test_handle_paste(self):
        E = paste_block(_k3_scheme(), [0], "handle")
        info = surface_info(E)
        assert info.euler_genus == 2 and info.orientable
        w = E.n - 1
        at_w = [
            wk.length for wk in trace_faces(E)
            if w in wk.distinct_vertices()
        ]
        assert at_w == [9]

    def test_rejects_nontriangular_face(self):
        sq = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        from emax import PseudoEmbedding
        E = PseudoEmbedding(
            4,
            [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)],
            [[(0, 0), (3, 0)], [(0, 1), (1, 0)], [(1, 1), (2, 0)],
             [(2, 1), (3, 1)]],
        )
        with pytest.raises(SchemeError, match="triangular"):
            paste_block(E, [0], "crosscap")
        assert sq == E.simple_graph()

    def test_rejects_unknown_target_and_bad_face(self):
        E = _k3_scheme()
        with pytest.raises(SchemeError, match="unknown paste target"):
            paste_block(E, [0], "klein")
        with pytest.raises(SchemeError, match="out of range"):
            paste_block(E, [5], "planar")

    def test_bad_face_lists_raise_scheme_errors(self):
        # faces of K3 with a crosscap: the 6-gon, and triangles around it
        E = paste_block(_k3_scheme(), [0], "crosscap")
        walks = trace_faces(E)
        tri = pasteable_faces(E)[0]
        six = next(i for i, wk in enumerate(walks) if wk.length == 6)
        for faces, match in (
            ([tri, tri], "more than once"),
            ([tri, len(walks)], "out of range"),
            ([-1, tri], "out of range"),
            ([six], "triangular"),
            ([tri, six], "triangular"),
        ):
            for target in PASTE_TARGETS:
                with pytest.raises(SchemeError, match=match):
                    paste_block(E, faces, target)

    def test_a_crosscap_that_stays_orientable_is_refused(self, monkeypatch):
        # a crosscap rule that pasted planar blocks would keep the genus
        # change it promises (0 here) but not make the surface nonorientable
        monkeypatch.setitem(emax.constructions._PASTE_TARGETS, "crosscap",
                            (0, (3, 3, 3), (0,)))
        with pytest.raises(RuntimeError, match="lies on"):
            paste_block(_k3_scheme(), [0], "crosscap")
        assert surface_info(paste_block(_k3_scheme(), [], "crosscap")) == (0, True)

    def test_each_paste_checks_the_faces_it_forms(self, monkeypatch):
        # a planar rule whose flip is a crosscap's forms faces 3 and 6, which
        # the walk through the new edges finds before any build
        monkeypatch.setitem(emax.constructions._PASTE_TARGETS, "planar",
                            (0, (3, 3, 3), (1,)))
        with pytest.raises(RuntimeError, match=r"^planar paste on the face of "
                           r"state 0 formed faces \(3, 6\)$"):
            paste_block(_k3_scheme(), [0], "planar")


class TestPasteRuleAgainstSearch:
    """paste_block decides its variant by the corner-side rule; the
    exhaustive 16-candidate search reference_paste must pick the same one."""

    def test_every_target_side_pattern_and_orientability(self):
        k3 = _k3_scheme()
        bases = [k3, paste_block(k3, [0], "planar"), paste_block(k3, [0], "crosscap")]
        seen = set()
        for base in bases:
            for r in range(base.n + 1):
                for vs in itertools.combinations(range(base.n), r):
                    E = switched(base, vs)
                    orientable = surface_info(E).orientable
                    for i in pasteable_faces(E):
                        for target in PASTE_TARGETS:
                            assert_paste_matches_reference(E, i, target)
                            seen.add((target, side_pattern(E, i), orientable))
        assert len(seen) == 3 * 8 * 2

    def test_random_paste_sequences(self):
        sequences = 0
        for seed in range(1000):
            rng = random.Random(seed)
            E = _k3_scheme()
            for _ in range(rng.randint(1, 5)):
                E = switched(E, [v for v in range(E.n) if rng.random() < 0.5])
                faces = pasteable_faces(E)
                if not faces:
                    break
                E = assert_paste_matches_reference(
                    E, rng.choice(faces), rng.choice(PASTE_TARGETS)
                )
            sequences += 1
        assert sequences == 1000

    @pytest.mark.parametrize("orientable", [False, True])
    def test_proposition2_outputs_match_the_search(self, orientable):
        gs = range(2 if orientable else 1, 41, 2 if orientable else 1)
        for g, base_faces in [(g, None) for g in gs] + [(gs[0], 12)]:
            E = construct_proposition2(g, orientable, base_faces)
            R = reference_proposition2(g, orientable, base_faces)
            assert (E.n, E.edges, E.rotation) == (R.n, R.edges, R.rotation), g

    def test_one_paste_builds_one_scheme(self, monkeypatch):
        k4 = paste_block(_k3_scheme(), [0], "planar")
        inputs = [switched(k4, vs) for vs in itertools.combinations(range(4), 2)]
        builds = count_builds(monkeypatch)
        calls = 0
        for E in inputs:
            faces = pasteable_faces(E)
            for r in range(len(faces) + 1):
                for target in PASTE_TARGETS:
                    paste_block(E, faces[:r], target)
                    calls += 1
                    assert len(builds) == calls
        assert calls == 6 * 5 * 3


class TestPasteBatches:
    """paste_block pastes on every listed face with one editor and one
    build; the result must equal one search paste after another."""

    def test_a_batch_equals_one_paste_at_a_time(self):
        batches = 0
        for seed in range(300):
            rng = random.Random(seed)
            E = _k3_scheme()
            for _ in range(rng.randint(0, 4)):
                E = paste_block(
                    E, [rng.choice(pasteable_faces(E))], rng.choice(PASTE_TARGETS)
                )
                if not pasteable_faces(E):
                    break
            E = switched(E, [v for v in range(E.n) if rng.random() < 0.5])
            faces = pasteable_faces(E)
            if not faces:
                continue
            picked = rng.sample(faces, rng.randint(1, len(faces)))
            target = rng.choice(PASTE_TARGETS)
            got = paste_block(E, picked, target)
            # an untouched face keeps its states, so find each listed face
            # again by its key, the smallest state of its mirror pair
            want = E
            for key in [trace_faces(E)[i].states[0] for i in picked]:
                i = next(
                    j for j, wk in enumerate(trace_faces(want))
                    if wk.states[0] == key
                )
                want = reference_paste(want, i, target)
            assert (got.n, got.edges, got.rotation) == (
                want.n, want.edges, want.rotation), seed
            batches += len(picked) > 1
        assert batches >= 100

    @pytest.mark.parametrize("g, orientable", [
        (1, False), (10, False), (60, False), (2, True), (10, True), (60, True),
    ])
    def test_proposition2_builds_three_schemes(self, g, orientable, monkeypatch):
        # K3, the grown base and the result, whatever g: the construction
        # is linear, with no rebuild per paste
        builds = count_builds(monkeypatch)
        construct_proposition2(g, orientable)
        assert len(builds) == 3


class TestProposition2Construction:
    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
    def test_nonorientable_family(self, g):
        E = construct_proposition2(g, orientable=False)
        info = surface_info(E)
        assert (info.euler_genus, info.orientable) == (g, False)
        assert is_edge_maximal_embedding(E) == (True, None)
        assert edges_short(E) == 3 * g
        assert is_planar(E.simple_graph())

    @pytest.mark.parametrize("g", [2, 4, 6])
    def test_orientable_family(self, g):
        E = construct_proposition2(g, orientable=True)
        info = surface_info(E)
        assert (info.euler_genus, info.orientable) == (g, True)
        assert is_edge_maximal_embedding(E) == (True, None)
        assert edges_short(E) == 3 * g
        assert is_planar(E.simple_graph())

    @pytest.mark.parametrize("orientable", [False, True])
    def test_genus_1000(self, orientable):
        E = construct_proposition2(1000, orientable)
        assert surface_info(E) == (1000, orientable)
        assert edges_short(E) == 3000
        assert is_edge_maximal_embedding(E) == (True, None)

    def test_base_faces_grows_the_base(self):
        small = construct_proposition2(1, False)
        big = construct_proposition2(1, False, base_faces=12)
        assert big.n > small.n
        info = surface_info(big)
        assert (info.euler_genus, info.orientable) == (1, False)
        assert is_edge_maximal_embedding(big) == (True, None)
        assert edges_short(big) == 3

    def test_validation(self):
        with pytest.raises(SchemeError):
            construct_proposition2(0, False)
        with pytest.raises(SchemeError, match="even"):
            construct_proposition2(3, True)
        with pytest.raises(SchemeError, match="base_faces"):
            construct_proposition2(4, True, base_faces=2)
