"""Reference graphs, committed schemes, enumeration, block pasting.

The two committed schemes (Q's planar quadrangulation, the toroidal
K8-C5 scheme) are data; every property claimed for them is re-proved
here from the data alone.
"""

import pytest

from emax import (
    Graph,
    GraphError,
    SchemeError,
    check_bipartition,
    complete_bipartite,
    complete_graph,
    construct_proposition2,
    edges_short,
    enumerate_small_schemes,
    graph_q,
    graph_q_scheme,
    is_clique,
    is_edge_maximal_embedding,
    is_planar,
    is_triangulation,
    k8_minus_c5,
    lower_bound_family,
    paste_block,
    regenerate_k8_c5_fixture,
    surface_info,
    toroidal_embedding_k8_minus_c5,
    trace_faces,
)
from emax.constructions import _k3_scheme


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
        lengths = sorted(trace_faces(E).lengths)
        assert lengths == [3] * 14 + [4]
        assert is_edge_maximal_embedding(E) == (True, None)
        assert edges_short(E) == 1

    def test_quad_face_induces_k4(self):
        E = toroidal_embedding_k8_minus_c5()
        G = E.simple_graph()
        quad = next(w for w in trace_faces(E).walks if w.length == 4)
        assert len(quad.distinct_vertices()) == 4
        assert is_clique(G, quad.distinct_vertices())

    def test_regeneration_finds_an_equivalent_scheme(self):
        E = regenerate_k8_c5_fixture(seed=11)
        assert E is not None
        info = surface_info(E)
        assert (info.euler_genus, info.orientable) == (2, True)
        assert trace_faces(E).face_count == 15
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

    def test_regeneration_can_fail_cleanly(self):
        assert regenerate_k8_c5_fixture(seed=0, restarts=1, iters=1) is None


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
        assert trace_faces(E).lengths == (4,) * 6


class TestLowerBoundFamily:
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


class TestEnumeration:
    def test_k4_orientable_count_and_census(self):
        G = complete_graph(4)
        census = {}
        count = 0
        for E in enumerate_small_schemes(G):
            count += 1
            info = surface_info(E)
            key = (
                info.euler_genus,
                info.orientable,
                tuple(sorted(trace_faces(E).lengths)),
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
        n = sum(1 for _ in enumerate_small_schemes(G, signature_mode="all"))
        assert n == 16 * 2**6

    def test_projective_k4_class_present(self):
        G = complete_graph(4)
        hits = 0
        for E in enumerate_small_schemes(G, signature_mode="all"):
            info = surface_info(E)
            if info.euler_genus == 1 and not info.orientable:
                if sorted(trace_faces(E).lengths) == [3, 3, 6]:
                    hits += 1
        assert hits == 96

    def test_cap_refuses_large_jobs(self):
        with pytest.raises(GraphError, match="cap"):
            next(enumerate_small_schemes(complete_graph(4), cap=10))

    def test_input_validation(self):
        with pytest.raises(GraphError):
            next(enumerate_small_schemes(Graph(1, [])))
        with pytest.raises(GraphError, match="connected"):
            next(enumerate_small_schemes(Graph(4, [(0, 1), (2, 3)])))
        with pytest.raises(GraphError, match="signature_mode"):
            next(enumerate_small_schemes(complete_graph(3), "sometimes"))


class TestPasteBlock:
    def test_planar_paste(self):
        E = paste_block(_k3_scheme(), 0, "planar")
        info = surface_info(E)
        assert (info.euler_genus, info.orientable) == (0, True)
        assert E.n == 4 and E.m == 6
        assert is_triangulation(E)

    def test_crosscap_paste(self):
        E0 = _k3_scheme()
        E = paste_block(E0, 0, "crosscap")
        info = surface_info(E)
        assert info.euler_genus == 1 and not info.orientable
        w = E.n - 1
        at_w = sorted(
            wk.length for wk in trace_faces(E).walks
            if w in wk.distinct_vertices()
        )
        assert at_w == [3, 6]

    def test_handle_paste(self):
        E = paste_block(_k3_scheme(), 0, "handle")
        info = surface_info(E)
        assert info.euler_genus == 2 and info.orientable
        w = E.n - 1
        at_w = [
            wk.length for wk in trace_faces(E).walks
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
            paste_block(E, 0, "crosscap")
        assert sq == E.simple_graph()

    def test_rejects_unknown_target_and_bad_face(self):
        E = _k3_scheme()
        with pytest.raises(SchemeError, match="unknown paste target"):
            paste_block(E, 0, "klein")
        with pytest.raises(SchemeError, match="out of range"):
            paste_block(E, 5, "planar")


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
