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
    FacialWalk,
    PseudoEmbedding,
    complete_graph,
    SchemeError,
    SurfaceInfo,
    edges_short,
    four_distinct_window,
    is_edge_maximal_embedding,
    is_triangulation,
    orientability,
    scheme_from_dict,
    scheme_from_json,
    surface_info,
    trace_faces,
)
from emax.embedding import _audited_genus, _faces, _link, _SchemeEditor, _splice

from conftest import (
    Corner,
    assert_frozen_record,
    insert_dart_at_corner,
    random_scheme,
    reference_faces,
    reference_schemes,
    scheme_dict,
    scheme_json,
)

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

    @pytest.mark.parametrize("n, edge, rotation, where", [
        (2.0, (0, 1, 1), [[(0, 0)], [(0, 1)]], "'n'"),
        (2, ("0", 1, 1), [[(0, 0)], [(0, 1)]], "edges\\[0\\]"),
        (2, (0, 1.9, 1), [[(0, 0)], [(0, 1)]], "edges\\[0\\]"),
        (2, (0, 1, True), [[(0, 0)], [(0, 1)]], "edges\\[0\\]"),
        (2, (0, 1, 1), [[(0, 0)], [("0", 1)]], "rotation\\[1\\]\\[0\\]"),
    ])
    def test_values_must_be_plain_ints(self, n, edge, rotation, where):
        # int() would read each of these as the scheme of the edge (0, 1, 1)
        with pytest.raises(SchemeError, match=f"^{where}"):
            PseudoEmbedding(n, [edge], rotation)

    def test_immutable(self):
        E = single_edge()
        with pytest.raises(AttributeError):
            E.n = 7


class TestDerivedRotation:
    """The scheme keeps each vertex's first dart and the state table only;
    `rotation` lists each vertex's darts from the table, in the records'
    order and from their first dart.  This round trip is what keeps
    `reference_faces`, which reads `rotation`, independent of `_link`."""

    @staticmethod
    def as_tuples(records):
        return tuple(tuple((e, end) for e, end in rot) for rot in records)

    @pytest.mark.parametrize("n, edges, records", [
        # JSON lists: K4 with every rotation started at its second dart,
        # never its smallest
        (4, [list(e) for e in K4_EDGES],
         [[list(d) for d in rot[1:] + rot[:1]] for rot in K4_ROT]),
        (4, K4_EDGES, [tuple(rot) for rot in K4_ROT]),
        # a loop and a pendant edge at vertex 1, a vertex with no darts
        (3, [(1, 1, -1), (1, 0, 1)], [[(1, 1)], [(0, 1), (1, 0), (0, 0)], []]),
        (1, [], [[]]),
    ], ids=["json-lists-rotated", "tuples", "loop-and-empty", "no-edges"])
    def test_rotation_equals_the_records(self, n, edges, records):
        E = PseudoEmbedding(n, edges, records)
        assert E.rotation == self.as_tuples(records)
        assert E._first == [2 * rot[0][0] + rot[0][1] if rot else -1
                            for rot in records]

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(st.integers(0, 10**9))
    def test_random_starts(self, seed):
        rng = random.Random(seed)
        E = random_scheme(rng, rng.randint(1, 7), rng.randint(0, 6))
        records = []
        for rot in E.rotation:
            k = rng.randrange(len(rot)) if rot else 0
            records.append([list(d) for d in rot[k:] + rot[:k]])
        assert PseudoEmbedding(E.n, E.edges, records).rotation == (
            self.as_tuples(records))


class TestHandTracedSchemes:
    def test_single_edge_is_spherical(self):
        E = single_edge()
        assert [w.length for w in trace_faces(E)] == [2]
        assert surface_info(E) == SurfaceInfo(euler_genus=0, orientable=True)

    def test_twisted_tree_edge_is_switchable(self):
        # one -1 edge in a tree never obstructs orientation
        E = single_edge(sig=-1)
        assert surface_info(E) == SurfaceInfo(euler_genus=0, orientable=True)

    def test_positive_loop_two_monogons(self):
        E = single_loop(+1)
        assert [w.length for w in trace_faces(E)] == [1, 1]
        assert surface_info(E) == SurfaceInfo(euler_genus=0, orientable=True)

    def test_negative_loop_is_a_crosscap(self):
        E = single_loop(-1)
        assert [w.length for w in trace_faces(E)] == [2]
        assert surface_info(E) == SurfaceInfo(euler_genus=1, orientable=False)

    def test_twisted_triangle_single_hexagonal_walk(self):
        E = twisted_triangle()
        assert [w.length for w in trace_faces(E)] == [6]
        assert surface_info(E) == SurfaceInfo(euler_genus=1, orientable=False)
        ok, conflict = orientability(E)
        assert not ok and conflict == 1

    def test_k4_planar_four_triangles(self):
        E = k4_planar()
        fs = trace_faces(E)
        assert [w.length for w in fs] == [3, 3, 3, 3]
        assert {w.distinct_vertices() for w in fs} == {
            frozenset(s) for s in ({0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3})
        }
        assert surface_info(E) == SurfaceInfo(euler_genus=0, orientable=True)
        assert is_triangulation(E)

    def test_face_order_is_deterministic(self):
        a = trace_faces(k4_planar())
        b = trace_faces(k4_planar())
        assert a == b


class TestRecords:
    def test_facial_walk(self):
        w = trace_faces(k4_planar())[0]
        assert_frozen_record(
            w, ("states", "vertices"),
            "FacialWalk(states=(0, 16, 10), vertices=(0, 1, 3))",
        )
        assert w.length == 3 and w.distinct_vertices() == {0, 1, 3}
        assert w != FacialWalk((0, 16, 10), (0, 1, 2))
        # a record is a tuple: it unpacks, and equals the tuple of its fields
        states, vertices = w
        assert w == (states, vertices) == ((0, 16, 10), (0, 1, 3))

    def test_surface_info(self):
        info = surface_info(twisted_triangle())
        assert_frozen_record(info, ("euler_genus", "orientable"),
                             "SurfaceInfo(euler_genus=1, orientable=False)")
        assert info != SurfaceInfo(1, True) and info != SurfaceInfo(2, False)
        assert info == (1, False)


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


class TestTracerAudits:
    """The walker's audits, tripped on hand-made one-edge state tables.
    States 0..3 of edge 0 are (dart 0, +1), (dart 0, -1), (dart 1, +1) and
    (dart 1, -1); with signature +1, state s steps to leave[s ^ 2] and its
    mirror is s ^ 3."""

    def test_self_mirrored_cycle(self):
        # 0 steps to leave[2] = 3, its own mirror, and 3 back to leave[1] = 0
        with pytest.raises(RuntimeError, match="^self-mirrored facial cycle"):
            _faces([0, 0, 3, 3], [0])

    def test_mirror_step_mismatch(self):
        # 0 steps to itself, so its mirror 3 must step to itself too, by
        # leave[1]; here leave[1] = 1 while 3 is still unwalked, which is the
        # step check, not the check of a mirror already walked
        with pytest.raises(RuntimeError, match="^mirror pairing mismatch"):
            _faces([0, 1, 0, 3], [0])

    def test_cycle_that_does_not_close(self):
        # leave sends both 1 and 3 to state 1, so it is no permutation: 0
        # steps to 1, 1 to 3 and 3 back to 1, never to 0
        with pytest.raises(RuntimeError, match="^state map failed to close a cycle$"):
            _faces([0, 1, 1, 3], [0])

    @pytest.mark.parametrize("n, m, faces, orientable, message", [
        (1, 0, 3, False, "^negative Euler genus -2; tracing is broken$"),
        (1, 1, 1, True, "^orientable scheme with odd Euler genus 1$"),
    ])
    def test_genus_audits(self, n, m, faces, orientable, message):
        with pytest.raises(RuntimeError, match=message):
            _audited_genus(n, m, faces, orientable)

    # `_faces` also raises on "face sides sum to" and "some edge is not
    # traversed exactly twice", but neither can fire once it has walked
    # all 4m states: every state is marked exactly once, as a state of a
    # kept cycle or as the mirror of one, and a state and its mirror
    # lie on the same edge, so each edge's four states put exactly two in
    # kept cycles and the kept cycles have 2m states.  Those checks stay
    # as the audit of that invariant.


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
        # the sides and in-darts are read off the tuple tracer's steps
        for E in (k4_planar(), twisted_triangle()):
            editor = _SchemeEditor(E)
            for walk, (steps, _) in zip(trace_faces(E), reference_faces(E)):
                for i, s in enumerate(walk.states):
                    v, a, bit = editor.corner(s)
                    assert v == walk.vertices[i]
                    assert bit == (steps[i][1] < 0) == s & 1
                    # the walk arrives along the far dart of the last step
                    (pe, pend), _ = steps[i - 1]
                    assert a == 2 * pe + 1 - pend
                    # the in-dart lives at the corner's vertex
                    assert E.edges[a >> 1][a & 1] == v

    @staticmethod
    def spliced(rot, corners):
        """Vertex 0's rotation after splicing darts 20, 21, ... at the
        corners, one each, starting from the integer darts in rot."""
        leave, first = [-1] * 80, [rot[0] if rot else -1]
        _link(rot, leave)
        for x, corner in enumerate(corners, 20):
            _splice(leave, first, x, corner)
        out, x = [first[0]], leave[2 * first[0]] >> 1
        while x != first[0]:
            out.append(x)
            x = leave[2 * x] >> 1
        return out

    def test_splice_sides(self):
        # darts 0, 2, 4 are (0, 0), (1, 0), (2, 0)
        assert self.spliced([0, 2, 4], [(0, 2, 0)]) == [0, 2, 20, 4]
        assert self.spliced([0, 2, 4], [(0, 2, 1)]) == [0, 20, 2, 4]
        # side -1 at the first dart makes the new dart first
        assert self.spliced([0, 2, 4], [(0, 0, 1)]) == [20, 0, 2, 4]
        assert self.spliced([0, 2, 4], [(0, 4, 0)]) == [0, 2, 4, 20]
        # at a vertex without darts the new dart is alone
        assert self.spliced([], [(0, -1, 0)]) == [20]
        assert self.spliced([], [(0, -1, 0), (0, 20, 1)]) == [21, 20]

    def test_repeated_insertion_stacks_adjacent_to_in_dart(self):
        # later insertions land closer to the in-dart, on either side
        assert self.spliced([0, 2], [(0, 0, 0)] * 2) == [0, 21, 20, 2]
        assert self.spliced([0, 2], [(0, 2, 1)] * 2) == [0, 20, 21, 2]

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(0, 10**9))
    def test_splice_matches_list_insertion(self, seed):
        # edges laid by the editor and by the list oracle on a scheme with
        # a degree-1 vertex and a loop: twice at one corner on each side,
        # once at each vertex's first dart on side -1, then at random
        # corners or new vertices
        rng = random.Random(seed)
        E = random_scheme(rng, rng.randint(1, 6), rng.randint(0, 4))
        n, m = E.n, E.m
        u, v = rng.randrange(n), rng.randrange(n)
        rot = [list(r) for r in E.rotation] + [[(m, 1)]]
        for x, w in (((m, 0), u), ((m + 1, 0), v), ((m + 1, 1), v)):
            rot[w].insert(rng.randint(0, len(rot[w])), x)
        edges = list(E.edges) + [(u, n, 1), (v, v, rng.choice((1, -1)))]
        E = PseudoEmbedding(n + 1, edges, rot)
        editor = _SchemeEditor(E)
        a0 = rng.randrange(2 * E.m)
        draws = [(a0, 0), (a0, 1)] * 2 + [("first", w) for w in range(E.n)]
        rng.shuffle(draws)
        draws += [None] * (len(draws) % 2 + 2 * rng.randint(0, 3))
        for k in range(0, len(draws), 2):
            pair = []
            for draw in draws[k : k + 2]:
                if draw is None and rng.random() < 0.3:
                    pair.append((editor.add_vertex(), -1, 0))
                    rot.append([])
                    continue
                if draw is None:
                    a, bit = rng.randrange(2 * len(editor.edges)), rng.randrange(2)
                elif draw[0] == "first":
                    (e, end), bit = rot[draw[1]][0], 1
                    a = 2 * e + end
                else:
                    a, bit = draw
                pair.append((editor.edges[a >> 1][a & 1], a, bit))
            e = editor.add_edge(pair[0], pair[1], rng.randrange(2))
            for x, (w, a, bit) in zip(((e, 0), (e, 1)), pair):
                if a < 0:
                    rot[w].append(x)
                else:
                    corner = Corner(0, w, (a >> 1, a & 1), None, 1 - 2 * bit)
                    insert_dart_at_corner(rot, corner, x)
        F = editor.freeze()
        want = PseudoEmbedding(editor.n, editor.edges, rot)
        assert (F.edges, F.rotation) == (want.edges, want.rotation)


class TestSerialization:
    def test_round_trip(self):
        E = twisted_triangle()
        again = scheme_from_json(scheme_json(E))
        assert scheme_dict(again) == scheme_dict(E)

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

    def test_subclassed_records_pass_the_full_checks(self):
        # json.loads makes plain lists and ints: a list or tuple subclass
        # holding plain ints reads as a plain record, and an int subclass is
        # refused with its record named, as a bool is
        class Rec(list):
            pass

        class Int(int):
            pass

        doc = {"n": 2, "edges": [Rec([0, 1, -1])],
               "rotation": [[Rec([0, 0])], Rec([[0, 1]])]}
        assert scheme_dict(scheme_from_dict(doc)) == {
            "n": 2, "edges": [[0, 1, -1]], "rotation": [[[0, 0]], [[0, 1]]]}
        doc["edges"][0][2] = Int(-1)
        with pytest.raises(SchemeError, match="^edges\\[0\\]: expected"):
            scheme_from_dict(doc)
        doc["edges"][0][2] = -1
        doc["rotation"][1][0] = [Int(0), 1]
        with pytest.raises(SchemeError, match="^rotation\\[1\\]\\[0\\]: expected"):
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
    assert info.euler_genus == 2 - E.n + E.m - len(fs)
    if info.orientable:
        assert info.euler_genus % 2 == 0
    assert sum(w.length for w in fs) == 2 * E.m
    again = scheme_from_json(scheme_json(E))
    assert scheme_dict(again) == scheme_dict(E)
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
    """The walks of trace_faces in the tuple form of reference_faces."""
    return [
        (
            tuple(((s >> 2, s >> 1 & 1), -1 if s & 1 else 1) for s in w.states),
            w.vertices,
        )
        for w in trace_faces(E)
    ]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(signed_rotation_systems())
def test_trace_faces_matches_reference_tracer(E):
    assert walks_of(E) == reference_faces(E)
    assert trace_faces(E) is trace_faces(E)


def test_every_k4_scheme_matches_reference_tracer():
    count = 0
    for E in reference_schemes(complete_graph(4), "all"):
        assert walks_of(E) == reference_faces(E)
        count += 1
    assert count == 1024
