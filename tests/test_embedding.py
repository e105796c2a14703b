"""Signed rotation systems: tracing, invariants, serialization.

The small fixtures here are worked out by hand (single edge, loops, a
twisted triangle, planar K4) so every frozen face count and genus below
has an independent hand derivation.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emax import (
    PseudoEmbedding,
    complete_graph,
    enumerate_small_schemes,
    SchemeError,
    SurfaceInfo,
    edges_short,
    four_distinct_window,
    is_edge_maximal_embedding,
    is_triangulation,
    orientability,
    scheme_from_dict,
    scheme_from_json,
    scheme_to_dict,
    scheme_to_json,
    surface_info,
    trace_faces,
    walk_corners,
)
from emax.embedding import insert_dart_at_corner

from conftest import random_scheme, reference_faces

K4_EDGES = [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1)]
K4_ROT = [
    [(0, 0), (1, 0), (2, 0)],
    [(0, 1), (4, 0), (3, 0)],
    [(1, 1), (3, 1), (5, 0)],
    [(2, 1), (5, 1), (4, 1)],
]


def k4_planar():
    return PseudoEmbedding(4, K4_EDGES, K4_ROT)


def single_edge(sig=1):
    return PseudoEmbedding(2, [(0, 1, sig)], [[(0, 0)], [(0, 1)]])


def single_loop(sig):
    return PseudoEmbedding(1, [(0, 0, sig)], [[(0, 0), (0, 1)]])


def twisted_triangle():
    return PseudoEmbedding(
        3,
        [(0, 1, 1), (1, 2, 1), (0, 2, -1)],
        [[(0, 0), (2, 0)], [(0, 1), (1, 0)], [(1, 1), (2, 1)]],
    )


class TestConstructionValidation:
    def test_needs_a_vertex(self):
        with pytest.raises(SchemeError):
            PseudoEmbedding(0, [], [])

    def test_rotation_length_must_match_n(self):
        with pytest.raises(SchemeError, match="rotation has"):
            PseudoEmbedding(2, [(0, 1, 1)], [[(0, 0), (0, 1)]])

    def test_endpoint_range(self):
        with pytest.raises(SchemeError, match="out of range"):
            PseudoEmbedding(2, [(0, 2, 1)], [[], []])

    def test_signature_values(self):
        with pytest.raises(SchemeError, match="signature"):
            PseudoEmbedding(2, [(0, 1, 0)], [[(0, 0)], [(0, 1)]])

    def test_dart_at_wrong_vertex(self):
        with pytest.raises(SchemeError, match="belongs at vertex"):
            PseudoEmbedding(2, [(0, 1, 1)], [[(0, 1)], [(0, 0)]])

    def test_duplicate_dart(self):
        with pytest.raises(SchemeError, match="more than once"):
            PseudoEmbedding(
                1, [(0, 0, 1)], [[(0, 0), (0, 0)]]
            )

    def test_missing_darts_reported(self):
        with pytest.raises(SchemeError, match="missing"):
            PseudoEmbedding(2, [(0, 1, 1)], [[(0, 0)], []])

    def test_immutable(self):
        E = single_edge()
        with pytest.raises(AttributeError):
            E.n = 7


class TestHandTracedSchemes:
    def test_single_edge_is_spherical(self):
        E = single_edge()
        fs = trace_faces(E)
        assert fs.lengths == (2,)
        assert surface_info(E) == SurfaceInfo(euler_genus=0, orientable=True)

    def test_twisted_tree_edge_is_switchable(self):
        # one -1 edge in a tree never obstructs orientation
        E = single_edge(sig=-1)
        assert surface_info(E) == SurfaceInfo(euler_genus=0, orientable=True)

    def test_positive_loop_two_monogons(self):
        E = single_loop(+1)
        assert sorted(trace_faces(E).lengths) == [1, 1]
        assert surface_info(E) == SurfaceInfo(euler_genus=0, orientable=True)

    def test_negative_loop_is_a_crosscap(self):
        E = single_loop(-1)
        assert trace_faces(E).lengths == (2,)
        assert surface_info(E) == SurfaceInfo(euler_genus=1, orientable=False)

    def test_twisted_triangle_single_hexagonal_walk(self):
        E = twisted_triangle()
        assert trace_faces(E).lengths == (6,)
        assert surface_info(E) == SurfaceInfo(euler_genus=1, orientable=False)
        ok, conflict = orientability(E)
        assert not ok and conflict == 1

    def test_k4_planar_four_triangles(self):
        E = k4_planar()
        fs = trace_faces(E)
        assert sorted(fs.lengths) == [3, 3, 3, 3]
        assert {w.distinct_vertices() for w in fs.walks} == {
            frozenset(s) for s in ({0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3})
        }
        assert surface_info(E) == SurfaceInfo(euler_genus=0, orientable=True)
        assert is_triangulation(E)

    def test_face_order_is_deterministic(self):
        a = trace_faces(k4_planar())
        b = trace_faces(k4_planar())
        assert [w.steps for w in a.walks] == [w.steps for w in b.walks]


class TestTraceFacesPreconditions:
    def test_rejects_edgeless(self):
        with pytest.raises(SchemeError, match="at least one edge"):
            trace_faces(PseudoEmbedding(1, [], [[]]))

    def test_rejects_disconnected(self):
        E = PseudoEmbedding(
            4,
            [(0, 1, 1), (2, 3, 1)],
            [[(0, 0)], [(0, 1)], [(1, 0)], [(1, 1)]],
        )
        with pytest.raises(SchemeError, match="disconnected"):
            trace_faces(E)


class TestMaximalityAndDeficit:
    def test_k4_is_maximal_with_zero_deficit(self):
        E = k4_planar()
        assert is_edge_maximal_embedding(E) == (True, None)
        assert edges_short(E) == 0

    def test_square_witness(self):
        # plane 4-cycle: both faces are 4-gons missing a diagonal
        E = PseudoEmbedding(
            4,
            [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)],
            [[(0, 0), (3, 0)], [(0, 1), (1, 0)], [(1, 1), (2, 0)],
             [(2, 1), (3, 1)]],
        )
        ok, witness = is_edge_maximal_embedding(E)
        assert not ok
        face, (u, v) = witness
        assert {u, v} in ({0, 2}, {1, 3})
        assert edges_short(E) == 2

    def test_edges_short_needs_enough_surface(self):
        with pytest.raises(SchemeError, match="n \\+ g"):
            edges_short(single_edge())

    def test_maximality_undefined_for_pseudographs(self):
        with pytest.raises(SchemeError, match="not a simple graph"):
            is_edge_maximal_embedding(single_loop(+1))


class TestWindowsAndCorners:
    def test_window_on_plain_sequences(self):
        assert four_distinct_window([0, 1, 2, 3]) == 0
        assert four_distinct_window([0, 1, 0, 2, 3]) == 1
        assert four_distinct_window([5, 5, 1, 2, 3, 4]) == 1

    def test_window_wraps_cyclically(self):
        # the only valid window is positions 3,4,5,0
        assert four_distinct_window([2, 0, 1, 0, 1, 3]) == 3

    def test_window_failures(self):
        with pytest.raises(SchemeError, match="length >= 4"):
            four_distinct_window([0, 1, 2])
        with pytest.raises(SchemeError, match="no four distinct"):
            four_distinct_window([0, 1, 0, 1, 0, 1])

    def test_corners_follow_the_walk(self):
        E = k4_planar()
        for walk in trace_faces(E).walks:
            corners = walk_corners(E, walk)
            assert [c.vertex for c in corners] == list(walk.vertices)
            t = walk.length
            for i, c in enumerate(corners):
                assert c.pos == i
                assert c.out_dart == walk.steps[i][0]
                assert c.in_dart == E.opposite(walk.steps[(i - 1) % t][0])
                assert c.side == walk.steps[i][1]
                # in and out darts live at the corner's vertex
                assert E.dart_vertex(c.in_dart) == c.vertex

    def test_insert_dart_at_corner_sides(self):
        from emax.embedding import Corner

        base = [(0, 0), (1, 0), (2, 0)]
        plus = Corner(pos=0, vertex=0, in_dart=(1, 0), out_dart=(2, 0), side=1)
        rots = [base[:]]
        insert_dart_at_corner(rots, plus, (9, 0))
        assert rots[0] == [(0, 0), (1, 0), (9, 0), (2, 0)]

        minus = Corner(pos=0, vertex=0, in_dart=(1, 0), out_dart=(0, 0), side=-1)
        rots = [base[:]]
        insert_dart_at_corner(rots, minus, (9, 0))
        assert rots[0] == [(0, 0), (9, 0), (1, 0), (2, 0)]

    def test_repeated_insertion_stacks_adjacent_to_in_dart(self):
        from emax.embedding import Corner

        plus = Corner(pos=0, vertex=0, in_dart=(0, 0), out_dart=(1, 0), side=1)
        rots = [[(0, 0), (1, 0)]]
        insert_dart_at_corner(rots, plus, (7, 0))
        insert_dart_at_corner(rots, plus, (8, 0))
        # later insertions land closer to in_dart
        assert rots[0] == [(0, 0), (8, 0), (7, 0), (1, 0)]


class TestSerialization:
    def test_round_trip(self):
        E = twisted_triangle()
        again = scheme_from_json(scheme_to_json(E))
        assert scheme_to_dict(again) == scheme_to_dict(E)

    def test_json_error_carries_position(self):
        with pytest.raises(SchemeError, match="position"):
            scheme_from_json("{\"n\": 1,")

    def test_missing_keys(self):
        with pytest.raises(SchemeError, match="missing 'rotation'"):
            scheme_from_dict({"n": 1, "edges": []})

    def test_wrong_shapes(self):
        with pytest.raises(SchemeError, match="expected \\[u, v, sig\\]"):
            scheme_from_dict({"n": 2, "edges": [[0, 1]], "rotation": [[], []]})
        with pytest.raises(SchemeError, match="must be a JSON object"):
            scheme_from_dict([1, 2])

    @pytest.mark.parametrize("doc", [
        {"n": 2, "edges": 5, "rotation": []},
        {"n": 1, "edges": [], "rotation": "x"},
        {"n": True, "edges": [[0, 0, 1]], "rotation": [[[0, 0], [0, 1]]]},
        {"n": 1, "edges": [[0, 0, 1.5]], "rotation": [[[0, 0], [0, 1]]]},
        {"n": 1, "edges": [[0, 0, True]], "rotation": [[[0, 0], [0, 1]]]},
        {"n": 1, "edges": [[0, 0, 1]], "rotation": [[[0, 0], [0, 1.0]]]},
        {"n": 1, "edges": [[0, 0, 1]], "rotation": [[[0, 0], ["0", 1]]]},
    ])
    def test_types_checked_at_the_json_boundary(self, doc):
        with pytest.raises(SchemeError):
            scheme_from_dict(doc)

    def test_semantic_validation_still_applies(self):
        doc = {"n": 2, "edges": [[0, 1, 1]], "rotation": [[[0, 1]], [[0, 0]]]}
        with pytest.raises(SchemeError, match="belongs at vertex"):
            scheme_from_dict(doc)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_random_scheme_invariants(seed):
    """Euler data of arbitrary connected schemes is internally consistent."""
    rng = random.Random(seed)
    E = random_scheme(rng, rng.randint(2, 9), rng.randint(0, 8))
    info = surface_info(E)
    fs = trace_faces(E)
    assert info.euler_genus >= 0
    assert info.euler_genus == 2 - E.n + E.m - fs.face_count
    if info.orientable:
        assert info.euler_genus % 2 == 0
    assert sum(fs.lengths) == 2 * E.m
    again = scheme_from_json(scheme_to_json(E))
    assert scheme_to_dict(again) == scheme_to_dict(E)
    assert surface_info(again) == info


@st.composite
def signed_rotation_systems(draw):
    """Connected signed rotation systems on up to 6 vertices: a spanning
    tree plus arbitrary extra edges, so loops and parallel edges occur."""
    n = draw(st.integers(1, 6))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    vertex = st.integers(0, n - 1)
    pairs += draw(st.lists(st.tuples(vertex, vertex), max_size=8))
    if not pairs:
        pairs = [(0, 0)]
    sigs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(pairs),
                         max_size=len(pairs)))
    darts_at = [[] for _ in range(n)]
    for e, (u, v) in enumerate(pairs):
        darts_at[u].append((e, 0))
        darts_at[v].append((e, 1))
    rotation = [draw(st.permutations(ds)) for ds in darts_at]
    edges = [(u, v, sig) for (u, v), sig in zip(pairs, sigs)]
    return PseudoEmbedding(n, edges, rotation)


def walks_of(E):
    return [(w.steps, w.vertices) for w in trace_faces(E).walks]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(signed_rotation_systems())
def test_trace_faces_matches_reference_tracer(E):
    assert walks_of(E) == reference_faces(E)
    assert trace_faces(E) is trace_faces(E)


def test_every_k4_scheme_matches_reference_tracer():
    count = 0
    for E in enumerate_small_schemes(complete_graph(4), signature_mode="all"):
        assert walks_of(E) == reference_faces(E)
        count += 1
    assert count == 1024
