"""Face surgeries, ordered sequences, and the reduction pipeline."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emax.embedding
import emax.surgery
from emax import (
    Bipartition,
    Graph,
    GraphError,
    HypothesisViolation,
    PseudoEmbedding,
    SchemeError,
    SurfaceInfo,
    bipartite_extract,
    chord_faces,
    chord_positions,
    complete_graph,
    complete_bipartite,
    complete_to_triangulation,
    construct_proposition2,
    edges_short,
    face_split_count,
    find_low_interference_vertex,
    find_ordered_sequence,
    graph_q,
    insert_apexes,
    is_edge_maximal_embedding,
    is_ordered_sequence,
    is_triangulation,
    lower_bound_family,
    run_lemma5_pipeline,
    surface_info,
    toroidal_embedding_k8_minus_c5,
    trace_faces,
)

from emax import cli
from emax.constructions import _k3_scheme
from emax.embedding import _SchemeEditor

from conftest import (
    assert_frozen_record,
    brute_force_ordered,
    genus_certificate,
    insert_dart_at_corner,
    random_scheme,
    reference_completion,
    reference_schemes,
    scheme_json,
    walk_corners,
)


def n1_k4_scheme():
    """A projective-plane K4 scheme with face lengths {3, 3, 6}.

    Its 6-walk revisits vertices and carries corners of both sides, which
    exercises the signature algebra of the surgeries on a mixed-side face.
    """
    for s in reference_schemes(complete_graph(4), "all"):
        info = surface_info(s)
        if info.euler_genus == 1 and not info.orientable:
            if sorted(w.length for w in trace_faces(s)) == [3, 3, 6]:
                return s
    raise AssertionError("projective K4 class missing from enumeration")


def planar_c4_scheme():
    return PseudoEmbedding(
        4,
        [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)],
        [[(0, 0), (3, 1)], [(0, 1), (1, 0)], [(1, 1), (2, 0)],
         [(2, 1), (3, 0)]],
    )


class TestChordArithmetic:
    def test_small_values(self):
        assert chord_positions(4, "nonorientable") == []
        assert face_split_count(4, "nonorientable") == 1
        assert chord_positions(9, "nonorientable") == [3]
        assert face_split_count(9, "nonorientable") == 2
        assert chord_positions(4, "orientable") == []
        assert face_split_count(4, "orientable") == 1
        assert chord_positions(7, "orientable") == [3]
        assert face_split_count(7, "orientable") == 2
        assert chord_positions(15, "orientable") == [3, 7, 11]

    def test_count_identity_full_range(self):
        # splits = chords + 1, and every piece stays short enough for the
        # apex bound: t-3 <= 5*splits-1 (nonorientable), 4*splits-1 (or.)
        for t in range(4, 1001):
            kn = len(chord_positions(t, "nonorientable"))
            ko = len(chord_positions(t, "orientable"))
            sn = face_split_count(t, "nonorientable")
            so = face_split_count(t, "orientable")
            assert kn + 1 == sn, t
            assert ko + 1 == so, t
            assert t - 3 <= 5 * sn - 1, t
            assert t - 3 <= 4 * so - 1, t

    def test_mode_validation(self):
        with pytest.raises(SchemeError, match="mode"):
            chord_positions(10, "both")
        with pytest.raises(SchemeError, match="mode"):
            face_split_count(10, "both")


class TestChordFaces:
    def test_short_faces_untouched_on_fixture(self):
        # the fixture's only long face is a 4-gon: no chords in either mode
        E = toroidal_embedding_k8_minus_c5()
        for mode in ("orientable", "nonorientable"):
            out = chord_faces(E, mode)
            assert out.m == E.m
            assert surface_info(out) == surface_info(E)

    def test_chords_split_faces_by_the_arithmetic(self):
        E = construct_proposition2(3, orientable=False)
        f0 = trace_faces(E)
        expected_chords = sum(
            len(chord_positions(w.length, "nonorientable"))
            for w in f0 if w.length >= 4
        )
        out = chord_faces(E, "nonorientable")
        assert out.m == E.m + expected_chords
        f1 = trace_faces(out)
        assert len(f1) == len(f0) + expected_chords
        assert surface_info(out) == surface_info(E)

    def test_mixed_side_face_chords_preserve_surface(self):
        E = n1_k4_scheme()
        sides = {c.side
                 for w in trace_faces(E) if w.length == 6
                 for c in walk_corners(E, w)}
        assert sides == {1, -1}
        out = chord_faces(E, "nonorientable")
        assert surface_info(out) == surface_info(E)

    def test_orientable_mode_requires_orientable_scheme(self):
        with pytest.raises(SchemeError, match="orientable"):
            chord_faces(n1_k4_scheme(), "orientable")

    def test_rejects_pseudograph_input(self):
        loopy = PseudoEmbedding(
            4,
            [(0, 0, 1), (0, 1, 1), (1, 2, 1), (2, 3, 1)],
            [[(0, 0), (0, 1), (1, 0)], [(1, 1), (2, 0)],
             [(2, 1), (3, 0)], [(3, 1)]],
        )
        with pytest.raises(SchemeError, match="simple"):
            chord_faces(loopy, "nonorientable")

    def test_rejects_tiny_vertex_count(self):
        tri = PseudoEmbedding(
            3,
            [(0, 1, 1), (0, 2, 1), (1, 2, 1)],
            [[(0, 0), (1, 0)], [(0, 1), (2, 0)], [(1, 1), (2, 1)]],
        )
        with pytest.raises(SchemeError, match="4 vertices"):
            chord_faces(tri, "nonorientable")


class TestInsertApexes:
    def test_apex_per_long_face(self):
        E = toroidal_embedding_k8_minus_c5()
        out, apexes = insert_apexes(E)
        assert len(apexes) == 1
        assert apexes[0] == E.n  # new vertices appended
        assert out.n == E.n + 1
        assert out.m == E.m + 4
        f0, f1 = len(trace_faces(E)), len(trace_faces(out))
        assert f1 == f0 + 3  # a 4-gon becomes 4 triangles
        assert surface_info(out) == surface_info(E)
        assert len(out.rotation[apexes[0]]) == 4

    def test_triangulation_is_left_alone(self):
        tri = next(
            s for s in reference_schemes(complete_graph(4), "orientable-only")
            if is_triangulation(s)
        )
        out, apexes = insert_apexes(tri)
        assert apexes == ()
        assert out.m == tri.m

    def test_mixed_side_apexing_preserves_surface(self):
        E = chord_faces(n1_k4_scheme(), "nonorientable")
        out, apexes = insert_apexes(E)
        assert len(apexes) == 1
        assert surface_info(out) == surface_info(E)

    def test_apex_wedges_then_completion_triangulates(self):
        # an apex splits a t-face into three triangles and one (t-1)-gon,
        # so triangulating is finished by the chording pass afterwards
        E = construct_proposition2(2, orientable=False)
        chorded = chord_faces(E, "nonorientable")
        out, apexes = insert_apexes(chorded)
        assert len(apexes) >= 1
        f0 = len(trace_faces(chorded))
        assert len(trace_faces(out)) == f0 + 3 * len(apexes)
        T, added = complete_to_triangulation(out)
        assert is_triangulation(T)
        assert added == edges_short(out)


class TestBipartiteExtract:
    def fixture_apexed(self):
        E = toroidal_embedding_k8_minus_c5()
        return insert_apexes(E)

    def test_fixture_extract_renumbering(self):
        out, apexes = self.fixture_apexed()
        H, P = bipartite_extract(out, apexes)
        assert sorted(P.part_b) == [4]
        assert sorted(P.part_a) == [0, 1, 2, 3]
        assert sorted(H.edges) == [(0, 4), (1, 4), (2, 4), (3, 4)]

    def test_rejects_wrong_degree(self):
        out, _ = self.fixture_apexed()
        with pytest.raises(GraphError, match="4"):
            bipartite_extract(out, [0])  # vertex 0 has degree 5, not 4

    def test_rejects_adjacent_b_vertices(self):
        out, apexes = self.fixture_apexed()
        apex = apexes[0]
        e, end = out.rotation[apex][0]
        nv = out.edges[e][1 - end]
        with pytest.raises(GraphError):
            bipartite_extract(out, [apex, nv])

    def test_rejects_out_of_range(self):
        out, _ = self.fixture_apexed()
        with pytest.raises(GraphError):
            bipartite_extract(out, [99])


class TestCompleteToTriangulation:
    def test_fixture_completion_is_a_parallel_edge(self):
        E = toroidal_embedding_k8_minus_c5()
        T, added = complete_to_triangulation(E)
        assert added == edges_short(E) == 1
        assert is_triangulation(T)
        assert surface_info(T) == surface_info(E)
        existing = {tuple(sorted((u, v))) for u, v, _ in E.edges}
        u, v, _ = T.edges[-1]
        assert tuple(sorted((u, v))) in existing

    def test_prop2_completion(self):
        E = construct_proposition2(5, orientable=False)
        T, added = complete_to_triangulation(E)
        assert added == 15
        assert is_triangulation(T)
        assert surface_info(T) == surface_info(E)
        assert T.m == 3 * (T.n + 5 - 2)

    def test_completion_adds_exactly_edges_short(self):
        # run_lemma5_pipeline reports edges_short(E) in place of running
        # this completion, which rests on this identity
        schemes = [toroidal_embedding_k8_minus_c5()] + [
            construct_proposition2(g, orientable=o)
            for g in (1, 2, 3, 4)
            for o in (False, True)
            if not o or g % 2 == 0
        ]
        assert len(schemes) == 7
        for E in schemes:
            assert complete_to_triangulation(E)[1] == edges_short(E)

    def test_triangulation_needs_nothing(self, monkeypatch):
        # the input is validated and on its own surface already, so it comes
        # back as it is, with no editor and no build
        tri = next(
            s for s in reference_schemes(complete_graph(4), "orientable-only")
            if is_triangulation(s)
        )
        builds = []
        init = PseudoEmbedding.__init__

        def counting_init(self, *args):
            builds.append(1)
            init(self, *args)

        monkeypatch.setattr(PseudoEmbedding, "__init__", counting_init)
        T, added = complete_to_triangulation(tri)
        assert added == 0
        assert T is tri
        assert builds == []

    def test_each_ear_is_audited(self, monkeypatch):
        # a chord of the wrong signature does not split its face, so the
        # walk from the chord's far end does not come back to the key state
        add_edge = _SchemeEditor.add_edge
        monkeypatch.setattr(_SchemeEditor, "add_edge", lambda self, c0, c1, neg:
                            add_edge(self, c0, c1, 1 - neg))
        with pytest.raises(RuntimeError,
                           match="^the chord from state 0 cut off no triangle$"):
            complete_to_triangulation(planar_c4_scheme())

    # the closing audits, each tripped through a seam: no budget for the
    # first chord, a triangulation test that never passes, and an editor
    # that freezes to K3
    @pytest.mark.parametrize("seam, message", [
        ((emax.surgery, "edges_short", lambda E: 0),
         "completion exceeded its edge budget"),
        ((emax.surgery, "is_triangulation", lambda E: False),
         "completion finished with a non-triangle left"),
        ((_SchemeEditor, "freeze", lambda self, surface=None: _k3_scheme()),
         "completed scheme has a wrong edge count"),
    ], ids=["budget", "non-triangle", "edge-count"])
    def test_closing_audits(self, monkeypatch, capsys, tmp_path, seam, message):
        E = construct_proposition2(3, orientable=False)
        path = tmp_path / "prop2.json"
        path.write_text(scheme_json(E))
        monkeypatch.setattr(*seam)
        with pytest.raises(RuntimeError, match=f"^{message}$"):
            complete_to_triangulation(E)
        assert cli.main(["triangulate", str(path)]) == 1
        assert capsys.readouterr() == ("", f"verification failed: {message}\n")

    def test_steps_per_added_edge_are_bounded(self, monkeypatch):
        # the two faces of a 2000-cycle have length 2000: re-walking the face
        # each chord splits would take about 4 million steps, not 32000
        k = 2000
        E = PseudoEmbedding(k, [(i, (i + 1) % k, 1) for i in range(k)],
                            [[((i - 1) % k, 1), (i, 0)] for i in range(k)])
        steps = []
        step = _SchemeEditor.step

        def counting_step(self, s):
            steps.append(1)
            return step(self, s)

        monkeypatch.setattr(_SchemeEditor, "step", counting_step)
        T, added = complete_to_triangulation(E)
        assert added == 2 * k - 6
        assert len(steps) <= 8 * added


def completion_outcome(complete, E):
    """(JSON, edges added) of a completion, or (exception type, message)."""
    try:
        T, added = complete(E)
    except (SchemeError, RuntimeError) as exc:
        return type(exc), str(exc)
    return scheme_json(T), added


def relabelled(E, rng):
    """The same embedding under new vertex and edge numbers, with each
    edge's ends possibly swapped and each rotation started elsewhere."""
    vperm = list(range(E.n))
    rng.shuffle(vperm)
    eperm = list(range(E.m))
    rng.shuffle(eperm)
    swap = [rng.randrange(2) for _ in range(E.m)]
    edges = [None] * E.m
    for e, (u, v, s) in enumerate(E.edges):
        a, b = (v, u) if swap[e] else (u, v)
        edges[eperm[e]] = (vperm[a], vperm[b], s)
    rotation = [None] * E.n
    for v, rot in enumerate(E.rotation):
        darts = [(eperm[e], end ^ swap[e]) for e, end in rot]
        k = rng.randrange(len(darts))
        rotation[vperm[v]] = darts[k:] + darts[:k]
    return PseudoEmbedding(E.n, edges, rotation)


def insert_by_lists(E, corner_pairs):
    """E plus one edge per (face, position, face, position) quadruple,
    laid by list insertion at the corners of the current trace."""
    for fa, pa, fb, pb in corner_pairs:
        walks = trace_faces(E)
        a = walk_corners(E, walks[fa])[pa]
        b = walk_corners(E, walks[fb])[pb]
        rot_lists = [list(r) for r in E.rotation]
        insert_dart_at_corner(rot_lists, a, (E.m, 0))
        insert_dart_at_corner(rot_lists, b, (E.m, 1))
        E = PseudoEmbedding(
            E.n, list(E.edges) + [(a.vertex, b.vertex, a.side * b.side)],
            rot_lists,
        )
    return E


def random_corner_pairs(rng, E, k, same_face):
    """k random corner pairs for insert_by_lists, each inside one face
    when same_face is set, else anywhere."""
    pairs = []
    for _ in range(k):
        lengths = [w.length for w in trace_faces(insert_by_lists(E, pairs))]
        fa = rng.randrange(len(lengths))
        fb = fa if same_face else rng.randrange(len(lengths))
        pairs.append(
            (fa, rng.randrange(lengths[fa]), fb, rng.randrange(lengths[fb]))
        )
    return pairs


class TestCompletionMatchesReference:
    """complete_to_triangulation against the per-edge rebuild loop."""

    def test_every_k4_scheme(self):
        count = 0
        for E in reference_schemes(complete_graph(4), "all"):
            assert completion_outcome(complete_to_triangulation, E) == (
                completion_outcome(reference_completion, E)
            )
            count += 1
        assert count == 1024

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.integers(0, 10**9))
    def test_random_pseudographs(self, seed):
        # random chords inside faces add loops and parallel edges
        rng = random.Random(seed)
        E = random_scheme(rng, rng.randint(2, 9), rng.randint(0, 8))
        E = insert_by_lists(E, random_corner_pairs(rng, E, rng.randint(0, 4), True))
        assert completion_outcome(complete_to_triangulation, E) == (
            completion_outcome(reference_completion, E)
        )

    @pytest.mark.parametrize("orientable", [False, True])
    def test_proposition2_schemes(self, orientable):
        for g in range(2 if orientable else 1, 41, 2 if orientable else 1):
            E = construct_proposition2(g, orientable)
            got = completion_outcome(complete_to_triangulation, E)
            assert got == completion_outcome(reference_completion, E), g
            assert got[1] == 3 * g

    @pytest.mark.parametrize("orientable", [False, True])
    def test_relabelled_genus_60_schemes(self, orientable):
        E = relabelled(construct_proposition2(60, orientable), random.Random(60))
        got = completion_outcome(complete_to_triangulation, E)
        assert got == completion_outcome(reference_completion, E)
        assert got[1] == 180

    @pytest.mark.parametrize("orientable", [False, True])
    def test_one_build_and_at_most_two_traces(self, orientable, monkeypatch):
        E = construct_proposition2(120, orientable)
        builds, traces = [], []
        init = PseudoEmbedding.__init__
        full_trace = emax.embedding._faces

        def counting_init(self, *args):
            builds.append(1)
            init(self, *args)

        def counting_traces(*args):
            traces.append(1)
            return full_trace(*args)

        monkeypatch.setattr(PseudoEmbedding, "__init__", counting_init)
        monkeypatch.setattr(emax.embedding, "_faces", counting_traces)
        T, added = complete_to_triangulation(E)
        assert added == 360
        assert len(builds) == 1
        assert len(traces) <= 2


def editor_faces(editor):
    """The editor's faces in the order of a full trace, each the cycle
    through the smallest state of its mirror pair, read off by face."""
    cycles, walked = [], set()
    for s in range(len(editor.leave)):
        if s not in walked:
            cycle = editor.face(s)
            walked.update(cycle, map(editor.mirror, cycle))
            cycles.append(cycle)
    return cycles


class TestSchemeEditor:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.integers(0, 10**9))
    def test_insertions_match_list_insertions(self, seed):
        # corners on different faces merge them, which changes the surface
        rng = random.Random(seed)
        E = random_scheme(rng, rng.randint(2, 8), rng.randint(0, 6))
        pairs = random_corner_pairs(rng, E, rng.randint(1, 6), False)
        editor = _SchemeEditor(E)
        for fa, pa, fb, pb in pairs:
            faces = editor_faces(editor)
            s0, s1 = faces[fa][pa], faces[fb][pb]
            editor.add_edge(editor.corner(s0), editor.corner(s1), (s0 ^ s1) & 1)
        want = insert_by_lists(E, pairs)
        F = editor.freeze(surface_info(want))
        assert scheme_json(F) == scheme_json(want)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.integers(0, 10**9))
    def test_face_walks_match_the_full_trace_after_edits(self, seed):
        # edges and stars at random corners, with random signatures: the
        # walk from every state is the frozen scheme's cycle through it
        rng = random.Random(seed)
        E = random_scheme(rng, rng.randint(2, 8), rng.randint(0, 6))
        editor = _SchemeEditor(E)
        for _ in range(rng.randint(1, 6)):
            states = len(editor.leave)
            corners = [editor.corner(rng.randrange(states))
                       for _ in range(rng.randint(1, 4))]
            negs = [rng.randrange(2) for _ in corners]
            if len(corners) == 2:
                editor.add_edge(*corners, negs[0])
            else:
                editor.add_star(corners, negs, rng.randrange(2))
        walks = trace_faces(editor.freeze())
        assert editor_faces(editor) == [list(w.states) for w in walks]
        for w in walks:
            for i, s in enumerate(w.states):
                assert editor.face(s) == list(w.states[i:] + w.states[:i])

    def test_face_walk_audits_a_table_that_does_not_close(self):
        # the state after 0 steps to itself, so the walk never returns to 0
        E = construct_proposition2(3, orientable=False)
        editor = _SchemeEditor(E)
        s = editor.step(0)
        editor.leave[s ^ 3 if E.edges[s >> 2][2] < 0 else s ^ 2] = s
        assert editor.step(s) == s
        with pytest.raises(RuntimeError,
                           match="^face walk from state 0 does not close$"):
            editor.face(0)

    @pytest.mark.parametrize("which, fault", [
        # vertex 3's second dart succeeds itself: the walk from its first
        # dart never returns to it
        (1, "^the rotation at vertex 3 does not close$"),
        # its first dart succeeds itself: the walk closes at once and leaves
        # the vertex's other darts out
        (0, "^the editor's table is corrupt: darts missing from rotations"),
    ])
    def test_freeze_audits_a_corrupt_table(self, which, fault):
        # an internal fault, so a RuntimeError and not an input error
        E = construct_proposition2(3, orientable=False)
        editor = _SchemeEditor(E)
        e, end = E.rotation[3][which]
        x = 2 * e + end
        editor.leave[2 * x] = 2 * x
        with pytest.raises(RuntimeError, match=fault):
            editor.freeze()

    def test_freeze_audits_the_surface(self):
        E = construct_proposition2(3, orientable=False)
        g, orientable = surface_info(E)
        s0 = next(w for w in trace_faces(E) if w.length >= 4).states[0]
        for wrong in ((g + 1, orientable), (g, not orientable)):
            editor = _SchemeEditor(E)
            s2 = editor.step(editor.step(s0))
            editor.add_edge(editor.corner(s0), editor.corner(s2), (s0 ^ s2) & 1)
            assert editor.freeze(surface_info(E)).m == E.m + 1
            with pytest.raises(RuntimeError, match="lies on"):
                editor.freeze(SurfaceInfo(*wrong))


class TestIsOrderedSequence:
    def test_trivial_sequences(self):
        G, _ = graph_q()
        assert is_ordered_sequence(G, [])
        assert is_ordered_sequence(G, [0])

    def test_q_has_no_ordered_pair(self):
        G, P = graph_q()
        for b1, b2 in itertools.combinations(sorted(P.part_b), 2):
            assert not is_ordered_sequence(G, [b1, b2])

    def test_k3_2g2_has_no_ordered_pair(self):
        for g in (1, 2, 3):
            G, P = complete_bipartite(3, 2 * g + 2)
            for b1, b2 in itertools.combinations(sorted(P.part_b), 2):
                assert not is_ordered_sequence(G, [b1, b2])

    def test_star_leaves_are_ordered(self):
        # K_{1,4}: consecutive leaves share only the hub
        star = Graph(5, [(0, i) for i in range(1, 5)])
        assert is_ordered_sequence(star, [1, 2, 3, 4])

    def test_adjacent_path_vertices_are_ordered(self):
        # sharing exactly two vertices is still allowed
        P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert is_ordered_sequence(P4, [0, 1])

    def test_triangle_pair_is_not_ordered(self):
        K3 = complete_graph(3)
        assert not is_ordered_sequence(K3, [0, 1])

    def test_duplicates_rejected(self):
        G, _ = graph_q()
        with pytest.raises(GraphError):
            is_ordered_sequence(G, [0, 0])


class TestFindLowInterferenceVertex:
    def test_no_heavy_neighbors_picks_lowest_b(self):
        G, P = graph_q()
        assert find_low_interference_vertex(G, P, 7) == 0

    def test_heavy_neighbor_rule(self):
        # A side: three hubs 0,1,2 (degree 7 each) and a filler 3.
        # b=4 touches all three hubs; b=5 touches only the filler; 6..23
        # are degree-1 dummies that give the hubs their weight.
        edges = [(h, 4) for h in (0, 1, 2)] + [(3, 5)]
        dummies = []
        nxt = 6
        for h in (0, 1, 2):
            for _ in range(6):
                edges.append((h, nxt))
                dummies.append(nxt)
                nxt += 1
        G = Graph(nxt, edges)
        P = Bipartition(frozenset({0, 1, 2, 3}), frozenset(range(4, nxt)))
        # 4 has three heavy alive-neighbors, one too many
        assert find_low_interference_vertex(G, P, 7) == 5

        # deadening one hub's dummies drops it below the threshold
        alive = frozenset(range(nxt)) - frozenset(dummies[:6])
        assert find_low_interference_vertex(G, P, 7, alive=alive) == 4

    def test_exclusion_is_honored(self):
        G, P = graph_q()
        assert find_low_interference_vertex(G, P, 7, exclude=(0,)) == 1

    def test_c_floor(self):
        G, P = graph_q()
        with pytest.raises(GraphError, match="c"):
            find_low_interference_vertex(G, P, 6)

    def test_empty_pool_raises_hypothesis_violation(self):
        G, P = graph_q()
        with pytest.raises(HypothesisViolation):
            find_low_interference_vertex(G, P, 7, exclude=P.part_b)


class TestFindOrderedSequence:
    def test_single_level_picks_lowest_b(self):
        G, P = graph_q()
        assert find_ordered_sequence(G, P, 1) == [0]

    def test_k34_pair_fails(self):
        G, P = complete_bipartite(3, 4)
        assert find_ordered_sequence(G, P, 2) is None
        assert find_ordered_sequence(G, P, 1) == [3]

    def test_two_disjoint_k34_succeed(self):
        G1, _ = complete_bipartite(3, 4)
        shift = G1.n
        edges = list(G1.edges) + [(u + shift, v + shift) for u, v in G1.edges]
        G = Graph(2 * shift, edges)
        P = Bipartition(
            frozenset({0, 1, 2, 7, 8, 9}),
            frozenset({3, 4, 5, 6, 10, 11, 12, 13}),
        )
        seq = find_ordered_sequence(G, P, 2)
        assert seq is not None and len(seq) == 2
        assert is_ordered_sequence(G, seq)
        # one vertex per component
        assert len({v < shift for v in seq}) == 2

    def test_greedy_is_incomplete_on_a_known_instance(self):
        """Five B-vertices where a valid pair exists but the greedy dies.

        The myopic pick keeps the two heaviest neighbors of the chosen
        vertex and erases everything else; here that erases both partners
        that could have completed the pair, while exhaustive search finds
        one. Success is the only informative outcome of the greedy.
        """
        a1, a2, x1, x2, p, q, r = range(7)
        b0, b1, b2, b3, b4 = range(7, 12)
        edges = [
            (a1, b0), (a2, b0), (x1, b0), (x2, b0),
            (x1, b1), (a1, b1), (p, b1), (q, b1),
            (x1, b2), (a2, b2), (p, b2), (r, b2),
            (x2, b3), (a1, b3), (q, b3),
            (x2, b4), (a2, b4), (r, b4),
        ]
        G = Graph(12, edges)
        P = Bipartition(frozenset(range(7)), frozenset(range(7, 12)))
        assert brute_force_ordered(G, P.part_b, 2) == [b0, b1]
        assert find_ordered_sequence(G, P, 2) is None

    def test_explicit_schedule_validation(self):
        G, P = graph_q()
        with pytest.raises(GraphError):
            find_ordered_sequence(G, P, 3, c_schedule=[7])  # needs s-1 entries
        with pytest.raises(GraphError):
            find_ordered_sequence(G, P, 2, c_schedule=[6])

    def test_b_degree_cap(self):
        G, P = complete_bipartite(5, 2)  # B vertices have degree 5
        with pytest.raises(GraphError, match="degree"):
            find_ordered_sequence(G, P, 1)

    def test_verified_against_brute_force_when_it_succeeds(self):
        rng = random.Random(4096)
        for _ in range(120):
            na = rng.randint(3, 7)
            nb = rng.randint(1, 4)
            edges = set()
            for b in range(na, na + nb):
                for a in rng.sample(range(na), min(rng.randint(1, 4), na)):
                    edges.add((a, b))
            G = Graph(na + nb, sorted(edges))
            P = Bipartition(frozenset(range(na)),
                            frozenset(range(na, na + nb)))
            for s in (1, 2, 3):
                got = find_ordered_sequence(G, P, s)
                if got is None:
                    continue
                # success always verifies; failure carries no information
                assert len(got) == s
                assert is_ordered_sequence(G, got)
                assert all(v in P.part_b for v in got)
                assert brute_force_ordered(G, P.part_b, s) is not None


class TestGenusCertificate:
    def test_k5_single(self):
        assert genus_certificate(complete_graph(5), [0]) == 1

    def test_two_disjoint_k5(self):
        edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        edges += [(u + 5, v + 5) for u in range(5) for v in range(u + 1, 5)]
        assert genus_certificate(Graph(10, edges), [0, 5]) == 2

    def test_rejections_return_zero(self):
        K5 = complete_graph(5)
        assert genus_certificate(K5, [0, 1]) == 0  # not ordered
        assert genus_certificate(K5, [0, 0]) == 0  # duplicate
        assert genus_certificate(K5, [9]) == 0  # out of range
        # ordered but the neighborhood is not big enough
        star = Graph(5, [(0, i) for i in range(1, 5)])
        assert genus_certificate(star, [1]) == 0


class TestPipeline:
    def test_report_record(self):
        rep = run_lemma5_pipeline(toroidal_embedding_k8_minus_c5(), "orientable")
        assert_frozen_record(
            rep,
            ("input_scheme", "chorded_scheme", "apexed_scheme", "apex_set",
             "bipartite_extract", "edges_added_to_triangulate", "mode"),
            "SurgeryReport(input_scheme=PseudoEmbedding(n=8, m=23), "
            "chorded_scheme=PseudoEmbedding(n=8, m=23), "
            "apexed_scheme=PseudoEmbedding(n=9, m=27), apex_set=(8,), "
            "bipartite_extract=(Graph(n=5, m=4), Bipartition("
            "part_a=frozenset({0, 1, 2, 3}), part_b=frozenset({4}))), "
            "edges_added_to_triangulate=1, mode='orientable')",
        )

    def test_fixture_both_modes(self):
        E = toroidal_embedding_k8_minus_c5()
        for mode, factor in (("orientable", 4), ("nonorientable", 5)):
            rep = run_lemma5_pipeline(E, mode)
            assert rep.mode == mode
            assert len(rep.apex_set) == 1
            assert rep.edges_added_to_triangulate == 1 <= factor * 1 - 1
            H, P = rep.bipartite_extract
            assert all(H.degree(b) == 4 for b in P.part_b)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_prop2_nonorientable(self, g):
        E = construct_proposition2(g, orientable=False)
        rep = run_lemma5_pipeline(E, "nonorientable")
        b = len(rep.apex_set)
        assert b >= 1
        assert rep.edges_added_to_triangulate == 3 * g <= 5 * b - 1

    @pytest.mark.parametrize("g", [2, 4])
    def test_prop2_orientable(self, g):
        E = construct_proposition2(g, orientable=True)
        rep = run_lemma5_pipeline(E, "orientable")
        b = len(rep.apex_set)
        assert b >= 1
        assert rep.edges_added_to_triangulate == 3 * g <= 4 * b - 1

    def test_does_not_build_the_completion(self, monkeypatch):
        def refuse(E):
            raise AssertionError("the pipeline ran complete_to_triangulation")

        monkeypatch.setattr(emax.surgery, "complete_to_triangulation", refuse)
        E = construct_proposition2(4, orientable=True)
        rep = run_lemma5_pipeline(E, "orientable")
        assert rep.edges_added_to_triangulate == edges_short(E) == 12

    def test_triangulation_passes_through(self):
        tri = next(
            s for s in reference_schemes(complete_graph(4), "orientable-only")
            if is_triangulation(s)
        )
        rep = run_lemma5_pipeline(tri, "orientable")
        assert rep.apex_set == ()
        assert rep.edges_added_to_triangulate == 0
        assert rep.chorded_scheme.edges == tri.edges

    def test_rejects_non_maximal_input(self):
        E = planar_c4_scheme()
        ok, witness = is_edge_maximal_embedding(E)
        assert not ok
        with pytest.raises(SchemeError, match="misses"):
            run_lemma5_pipeline(E, "orientable")

    def test_rejects_small_vertex_count(self):
        tri = PseudoEmbedding(
            3,
            [(0, 1, 1), (0, 2, 1), (1, 2, 1)],
            [[(0, 0), (1, 0)], [(0, 1), (2, 0)], [(1, 1), (2, 1)]],
        )
        with pytest.raises(SchemeError):
            run_lemma5_pipeline(tri, "orientable")

    def test_mixed_side_input(self):
        rep = run_lemma5_pipeline(n1_k4_scheme(), "nonorientable")
        assert rep.edges_added_to_triangulate <= 5 * len(rep.apex_set) - 1


def test_random_schemes_surgeries_preserve_the_surface():
    """chord_faces and insert_apexes never move the surface."""
    rng = random.Random(7)
    tested = 0
    for _ in range(150):
        E = random_scheme(rng, rng.randint(4, 9), rng.randint(2, 10))
        if not E.is_simple_graph():
            continue
        info0 = surface_info(E)
        modes = ["nonorientable"]
        if info0.orientable:
            modes.append("orientable")
        for mode in modes:
            try:
                gp = chord_faces(E, mode)
            except SchemeError:
                # off-contract input (a face without a clean window);
                # rejection is the correct behavior, nothing to check
                continue
            assert surface_info(gp) == info0
            gpp, _ = insert_apexes(gp)
            assert surface_info(gpp) == info0
            tested += 1
    assert tested > 60
