"""Command line interface: payload shapes, exit codes, determinism.

Every test drives cli.main(argv) in-process; stdout is JSON (or csv /
padded text for the table formats) captured through capsys.
"""

import ast
import hashlib
import importlib
import json
import random
import re
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import emax
import emax.bounds
import emax.constructions
import emax.embedding
import emax.surgery
from emax import (
    PseudoEmbedding,
    cli,
    complete_bipartite,
    complete_graph,
    format_edge_list,
    graph_q_scheme,
    scheme_from_json,
    toroidal_embedding_k8_minus_c5,
)
from emax.bounds import (
    PRECISION_BITS_CAP,
    SCHEDULE_GENUS_CAP,
    TABLE_GENUS_CAP,
    VERIFY_GMAX_CAP,
    f_exact_s2,
    optimal_schedule,
    verify_theorem,
)
from emax.constructions import (
    CONSTRUCT_EDGE_CAP,
    PROP2_GENUS_CAP,
    REGEN_MOVE_CAP,
    REGEN_SETUP_MOVES,
)
from emax.embedding import SCHEME_SIZE_CAP, _SchemeEditor
from emax.graphs import EDGE_LIST_VERTEX_CAP
from conftest import (
    random_scheme,
    reference_census,
    reference_completion,
    reference_schemes,
    scheme_dict,
    scheme_json,
)
from test_bounds import TABLE_N, TABLE_S


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture()
def k8c5_scheme_file(tmp_path, capsys):
    path = tmp_path / "k8c5.json"
    code, out, _ = run(capsys, "construct", "k8c5", "--embedded",
                       "--out", str(path))
    assert code == 0 and out == ""
    return str(path)


class TestConstruct:
    def test_prop2_round_trips_through_analyze(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        code, out, _ = run(capsys, "construct", "prop2", "--genus", "2",
                           "--orientable", "--out", str(path))
        assert code == 0 and out == ""
        rep = run_json(capsys, "analyze", str(path))
        assert rep["genus"] == 2 and rep["orientable"] is True
        assert rep["edge_maximal"] is True
        assert rep["edges_short"] == 6

    def test_prop2_odd_orientable_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "construct", "prop2", "--genus", "3",
                           "--orientable")
        assert code == 2
        assert "error:" in err

    def test_q_graph_has_part_b_comment(self, capsys):
        code, out, _ = run(capsys, "construct", "q")
        assert code == 0
        assert out.splitlines()[0] == "8 12"
        assert "# part_b: 0 1 2" in out

    def test_q_scheme_reads_back_as_a_planar_quadrangulation(self, tmp_path,
                                                             capsys):
        code, out, _ = run(capsys, "construct", "q", "--embedded")
        assert code == 0
        path = tmp_path / "q.json"
        path.write_text(out)
        rep = run_json(capsys, "analyze", str(path))
        assert (rep["n"], rep["m"], rep["genus"], rep["orientable"]) == (
            8, 12, 0, True)
        assert rep["faces"] == [4] * 6

    def test_family_and_kmn_agree_for_the_core(self, capsys):
        _, fam, _ = run(capsys, "construct", "family", "--g", "1", "--s", "2")
        _, kmn, _ = run(capsys, "construct", "kmn", "--a", "3", "--b", "4")
        assert fam == kmn  # s=2 family is the bare K_{3,4}

    def test_k8c5_graph_form(self, capsys):
        code, out, _ = run(capsys, "construct", "k8c5")
        assert code == 0
        assert out.splitlines()[0] == "8 23"


class TestAnalyze:
    def test_fixture_report(self, k8c5_scheme_file, capsys):
        rep = run_json(capsys, "analyze", k8c5_scheme_file)
        assert rep["n"] == 8 and rep["m"] == 23
        assert rep["faces"] == [3] * 14 + [4]
        assert rep["genus"] == 2 and rep["orientable"] is True
        assert rep["simple"] is True and rep["triangulation"] is False
        assert rep["edges_short"] == 1
        assert rep["edge_maximal"] is True
        assert "missing_edge" not in rep

    def test_non_maximal_scheme_names_a_witness(self, tmp_path, capsys):
        from test_surgery import planar_c4_scheme

        path = tmp_path / "c4.json"
        path.write_text(scheme_json(planar_c4_scheme()))
        rep = run_json(capsys, "analyze", str(path))
        assert rep["edge_maximal"] is False
        assert sorted(rep["missing_edge"]["edge"]) in ([0, 2], [1, 3])

    def test_missing_file_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "analyze", "/nonexistent/x.json")
        assert code == 2 and "error:" in err

    def test_malformed_json_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\"n\": 1,")
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2 and "position" in err

    def test_deeply_nested_json_is_an_input_error(self, tmp_path, capsys):
        # the parser's RecursionError is a RuntimeError, which the CLI
        # would report as a failed audit with exit 1
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        assert run(capsys, "analyze", str(path)) == (
            2, "", "error: JSON nested too deeply to be a scheme\n")

    # one edge 0-1 and its two darts; each case breaks one field's type
    @pytest.mark.parametrize("doc, message", [
        ({"n": 2, "edges": 5, "rotation": []}, "'edges' must be a list"),
        ({"n": 2, "edges": [[0, 1, 1]], "rotation": {}},
         "'rotation' must be a list"),
        ({"n": True, "edges": [], "rotation": [[]]}, "'n' must be an integer"),
        ({"n": 2.0, "edges": [[0, 1, 1]], "rotation": [[[0, 0]], [[0, 1]]]},
         "'n' must be an integer"),
        ({"n": 2, "edges": [[0, 1, 1.5]], "rotation": [[[0, 0]], [[0, 1]]]},
         "edges\\[0\\]"),
        ({"n": 2, "edges": [[False, 1, 1]], "rotation": [[[0, 0]], [[0, 1]]]},
         "edges\\[0\\]"),
        ({"n": 2, "edges": [[0, 1, 1]], "rotation": [[[0, True]], [[0, 1]]]},
         "rotation\\[0\\]\\[0\\]"),
        ({"n": 2, "edges": [[0, 1, 1]], "rotation": [[[0.0, 0]], [[0, 1]]]},
         "rotation\\[0\\]\\[0\\]"),
        ({"n": 2, "edges": [[0, 1, 1]], "rotation": [[[0, 0]], 7]},
         "rotation\\[1\\]"),
    ])
    def test_mistyped_scheme_is_an_input_error(self, tmp_path, capsys, doc,
                                               message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2 and out == ""
        assert re.search("^error: .*" + message, err)


class TestPipeline:
    def test_fixture_orientable(self, k8c5_scheme_file, capsys):
        rep = run_json(capsys, "pipeline", k8c5_scheme_file,
                       "--mode", "orientable")
        assert rep["mode"] == "orientable"
        assert rep["input"]["genus"] == 2
        assert rep["chorded"]["m"] == 23  # the lone 4-face takes no chord
        assert rep["apexed"]["m"] == 27
        assert rep["apex_count"] == 1
        assert rep["apex_vertices"] == [8]
        assert rep["edges_added_to_triangulate"] == 1
        assert rep["deficit_bound"] == 3
        assert rep["bipartite"]["part_b"] == [4]
        assert rep["bipartite"]["edges"] == [[0, 4], [1, 4], [2, 4], [3, 4]]

    def test_non_maximal_input_rejected(self, tmp_path, capsys):
        from test_surgery import planar_c4_scheme

        path = tmp_path / "c4.json"
        path.write_text(scheme_json(planar_c4_scheme()))
        code, _, err = run(capsys, "pipeline", str(path),
                           "--mode", "orientable")
        assert code == 2 and "misses" in err

    @pytest.mark.parametrize("name, fake, err", [
        # the deficit audit: 1 apex, so the bound is 4|B|-1 = 3
        ("edges_short", lambda E: 100, "deficit 100 exceeds 4|B|-1 = 3"),
        # the split-count audit in chord_faces, at the fixture's 4-gon
        ("face_split_count", lambda t, mode: 0,
         "chord count 0 inconsistent with split count 0 for face length 4"),
    ])
    def test_failed_audit_exits_one(self, k8c5_scheme_file, capsys,
                                    monkeypatch, name, fake, err):
        monkeypatch.setattr(emax.surgery, name, fake)
        assert run(capsys, "pipeline", k8c5_scheme_file,
                   "--mode", "orientable") == (
            1, "", f"verification failed: {err}\n")


class TestTriangulate:
    def test_inline_scheme(self, k8c5_scheme_file, capsys):
        rep = run_json(capsys, "triangulate", k8c5_scheme_file)
        assert rep["edges_added"] == 1
        assert rep["scheme"]["n"] == 8
        assert len(rep["scheme"]["edges"]) == 24

    def test_out_file_chains_into_analyze(self, k8c5_scheme_file, tmp_path,
                                           capsys):
        out = tmp_path / "tri.json"
        rep = run_json(capsys, "triangulate", k8c5_scheme_file,
                       "--out", str(out))
        assert rep == {"edges_added": 1, "written": str(out)}
        rep2 = run_json(capsys, "analyze", str(out))
        assert rep2["triangulation"] is True
        assert rep2["genus"] == 2
        assert rep2["simple"] is False  # completion duplicated an edge

    @staticmethod
    def cycle_file(tmp_path, k=7):
        """A k-cycle scheme file whose rotations each start at the vertex's
        larger dart; returns the path and the file's object."""
        doc = {"n": k, "edges": [[i, (i + 1) % k, 1] for i in range(k)],
               "rotation": [sorted([[(i - 1) % k, 1], [i, 0]], reverse=True)
                            for i in range(k)]}
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps(doc))
        return path, doc

    def test_out_keeps_each_rotation_start(self, tmp_path, capsys):
        # the written rotations are walked from each vertex's first dart:
        # a vertex no chord reaches keeps its listed start, and elsewhere a
        # chord's dart comes first only when laid just before that start
        path, doc = self.cycle_file(tmp_path)
        k = doc["n"]
        out = tmp_path / "tri.json"
        assert run_json(capsys, "triangulate", str(path), "--out", str(out)) == {
            "edges_added": 2 * k - 6, "written": str(out)}
        T, _ = reference_completion(scheme_from_json(path.read_text()))
        text = out.read_text()
        assert text == json.dumps(scheme_dict(T), indent=2, sort_keys=True) + "\n"
        rotation = json.loads(text)["rotation"]
        for v, rot in enumerate(doc["rotation"]):
            assert [d for d in rotation[v] if d[0] < k] == rot
        assert 0 < sum(rotation[v] == rot for v, rot in enumerate(doc["rotation"])) < k

    def test_corrupt_editor_table_exits_one(self, tmp_path, capsys, monkeypatch):
        # a successor entry at vertex 0 points back at its own dart, so the
        # rotation walk from vertex 0's first dart never returns to it
        freeze = _SchemeEditor.freeze

        def corrupting(editor, *args):
            x = editor.leave[2 * editor.first[0]] >> 1
            editor.leave[2 * x] = 2 * x
            return freeze(editor, *args)

        monkeypatch.setattr(_SchemeEditor, "freeze", corrupting)
        path, _ = self.cycle_file(tmp_path)
        assert run(capsys, "triangulate", str(path)) == (
            1, "", "verification failed: the rotation at vertex 0 does not close\n")

    def test_face_shorter_than_three_is_an_input_error(self, tmp_path, capsys):
        # a 4-cycle with one doubled edge: faces of length 4, 2 and 4
        scheme = PseudoEmbedding(
            4,
            [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1), (0, 1, 1)],
            [[(0, 0), (4, 0), (3, 1)], [(4, 1), (0, 1), (1, 0)],
             [(1, 1), (2, 0)], [(2, 1), (3, 0)]],
        )
        path = tmp_path / "c4-doubled.json"
        path.write_text(scheme_json(scheme))
        code, out, err = run(capsys, "triangulate", str(path))
        assert (code, out) == (2, "")
        assert err == (
            "error: completion needs every face to have length at least 3; "
            "the scheme has a face of length 2\n"
        )


class TestOrderedSeq:
    def write_q(self, tmp_path, capsys):
        path = tmp_path / "q.txt"
        run(capsys, "construct", "q", "--out", str(path))
        return str(path)

    def test_single_vertex_found(self, tmp_path, capsys):
        rep = run_json(capsys, "ordered-seq", self.write_q(tmp_path, capsys),
                       "--s", "1")
        assert rep == {"c_schedule": None, "found": True, "s": 1,
                       "sequence": [0]}

    def test_pair_fails_on_q(self, tmp_path, capsys):
        rep = run_json(capsys, "ordered-seq", self.write_q(tmp_path, capsys),
                       "--s", "2")
        assert rep["found"] is False and rep["sequence"] is None

    def test_explicit_schedule_echoed(self, tmp_path, capsys):
        rep = run_json(capsys, "ordered-seq", self.write_q(tmp_path, capsys),
                       "--s", "2", "--c-schedule", "7")
        assert rep["c_schedule"] == [7]

    def test_non_integer_schedule_entry_is_named(self, tmp_path, capsys):
        code, out, err = run(capsys, "ordered-seq", self.write_q(tmp_path, capsys),
                             "--s", "2", "--c-schedule", "7,x")
        assert (code, out) == (2, "")
        assert err == "error: --c-schedule: 'x' is not an integer\n"

    @pytest.mark.parametrize("text", ["", " , "], ids=["empty", "comma"])
    def test_empty_schedule_is_checked(self, tmp_path, capsys, text):
        # an empty schedule has zero entries, not the default schedule
        assert run(capsys, "ordered-seq", self.write_q(tmp_path, capsys),
                   "--s", "3", "--c-schedule", text) == (
            2, "", "error: c_schedule has 0 entries; need 2\n")

    def test_empty_schedule_is_echoed(self, tmp_path, capsys):
        rep = run_json(capsys, "ordered-seq", self.write_q(tmp_path, capsys),
                       "--s", "1", "--c-schedule", "")
        assert rep == {"c_schedule": [], "found": True, "s": 1,
                       "sequence": [0]}

    def test_s_zero_exits_two(self, tmp_path, capsys):
        assert run(capsys, "ordered-seq", self.write_q(tmp_path, capsys),
                   "--s", "0") == (
            2, "", "error: sequence length must be at least 1\n")

    def test_missing_part_b_comment(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("3 2\n0 1\n1 2\n")
        code, _, err = run(capsys, "ordered-seq", str(path), "--s", "1")
        assert code == 2 and "part_b" in err


class TestEnumerate:
    def write_k4(self, tmp_path, capsys):
        path = tmp_path / "k4.txt"
        path.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        return str(path)

    def test_total_only(self, tmp_path, capsys):
        rep = run_json(capsys, "enumerate", self.write_k4(tmp_path, capsys))
        assert rep == {"total": 16}

    def test_census(self, tmp_path, capsys):
        rep = run_json(capsys, "enumerate", self.write_k4(tmp_path, capsys),
                       "--census")
        assert rep["total"] == 16
        assert rep["classes"] == [
            {"genus": 0, "orientable": True, "faces": [3, 3, 3, 3],
             "count": 2},
            {"genus": 2, "orientable": True, "faces": [3, 9], "count": 8},
            {"genus": 2, "orientable": True, "faces": [4, 8], "count": 6},
        ]

    @pytest.mark.parametrize("extra", [(), ("--census",)], ids=["total", "census"])
    def test_k6_is_above_the_cap(self, tmp_path, capsys, extra):
        path = tmp_path / "k6.txt"
        path.write_text(format_edge_list(complete_graph(6)))
        t0 = time.perf_counter()
        assert run(capsys, "enumerate", str(path), *extra) == (
            2, "", "error: enumeration would visit 191102976 schemes, above "
                   "the cap of 10000000\n")
        assert time.perf_counter() - t0 < 5.0

    def test_no_option_moves_the_cap(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["enumerate", self.write_k4(tmp_path, capsys), "--cap", "5"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert "unrecognized arguments: --cap 5" in err

    GRAPHS = {
        "K4": complete_graph(4),
        "K23": complete_bipartite(2, 3)[0],
        "K33": complete_bipartite(3, 3)[0],
    }

    @pytest.mark.parametrize("name, mode", [
        ("K4", "orientable-only"), ("K4", "all"),
        ("K23", "orientable-only"), ("K23", "all"),
        ("K33", "orientable-only"),
    ])
    def test_total_and_census_match_the_enumeration(self, tmp_path, capsys,
                                                    name, mode):
        G = self.GRAPHS[name]
        path = tmp_path / "g.txt"
        path.write_text(format_edge_list(G))
        rep = run_json(capsys, "enumerate", str(path), "--signature-mode", mode)
        assert rep == {"total": sum(1 for _ in reference_schemes(G, mode))}
        rep = run_json(capsys, "enumerate", str(path), "--signature-mode", mode,
                       "--census")
        classes = {(c["genus"], c["orientable"], tuple(c["faces"])): c["count"]
                   for c in rep["classes"]}
        assert classes == reference_census(G, mode)
        assert rep["total"] == sum(classes.values())

    @pytest.mark.parametrize("name, mode, digest", [
        ("K4", "orientable-only",
         "55dda4e0d0c3ba5d9e31d30ea61c2c3171d9b65873a8762a9b41d9ed2752cd3a"),
        ("K4", "all",
         "cb9068dbf99cf5e4d85198bf789bdc2d7f625a4675fb8e85c54310a9e7eebe0b"),
        ("K5", "orientable-only",
         "d55a980323bbc5f7825d194ceb063248ee04957eb408501a7cb9205d6ff411a0"),
        ("K5", "all",
         "592127ddc7ee12fb057093edfb6c5cfd15a01557e07858acd6d1f6667cab7734"),
        ("K33", "orientable-only",
         "2d8c80e9f513a974942fdc76e90bca9f2253ae11d6dd9da958050f7d688549fa"),
        ("K33", "all",
         "3633b51c2747e8d76717170876c9016a9c2ad8a7253cf5bd46da60e7a411507c"),
    ])
    def test_census_stdout_digest(self, tmp_path, capsys, name, mode, digest):
        G = {**self.GRAPHS, "K5": complete_graph(5)}[name]
        path = tmp_path / "g.txt"
        path.write_text(format_edge_list(G))
        code, out, _ = run(capsys, "enumerate", str(path),
                           "--signature-mode", mode, "--census")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("extra, total", [
        ((), 16), (("--census",), 16),
        (("--signature-mode", "all"), 1024),
        (("--signature-mode", "all", "--census"), 1024),
    ])
    def test_cap_refusal_counts_represented_schemes(self, tmp_path, capsys,
                                                    monkeypatch, extra, total):
        monkeypatch.setattr(emax.constructions, "ENUMERATION_CAP", 10)
        code, out, err = run(capsys, "enumerate", self.write_k4(tmp_path, capsys),
                             *extra)
        assert (code, out) == (2, "")
        assert err == (f"error: enumeration would visit {total} schemes, "
                       "above the cap of 10\n")

    def test_duplicate_edge_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "dup.txt"
        path.write_text("3 3\n0 1\n1 0\n1 2\n")
        code, out, err = run(capsys, "enumerate", str(path), "--census")
        assert (code, out) == (2, "")
        assert err == "error: line 3: duplicate edge 1 0\n"

    def test_huge_vertex_count_is_refused_up_front(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text("10000000000000 1\n0 1\n")
        t0 = time.perf_counter()
        code, out, err = run(capsys, "enumerate", str(path))
        assert time.perf_counter() - t0 < 5.0
        assert (code, out) == (2, "")
        assert err == ("error: line 1: 10000000000000 vertices, above the cap "
                       f"of {EDGE_LIST_VERTEX_CAP}\n")


class TestBoundsTable:
    def test_nonorientable_csv_matches_published_rows(self, capsys):
        code, out, _ = run(capsys, "bounds", "table",
                           "--surface", "nonorientable", "--gmax", "20",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "g,surface,schedule,impurity,edge_bound_offset"
        assert len(lines) == 21
        for line in lines[1:]:
            g_s, name, sched, imp, off = line.split(",")
            g = int(g_s)
            want_sched, want_imp, want_off = TABLE_N[g]
            assert name == f"N_{g}"
            assert sched == want_sched.replace(",", ";")
            assert (int(imp), int(off)) == (want_imp, want_off)

    def test_orientable_csv_matches_published_rows(self, capsys):
        code, out, _ = run(capsys, "bounds", "table",
                           "--surface", "orientable", "--gmax", "20",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()[1:]
        assert len(lines) == 20
        for line in lines:
            g_s, name, _, imp, off = line.split(",")
            g = int(g_s)
            assert name == f"S_{g // 2}"
            assert (int(imp), int(off)) == TABLE_S[g]

    def test_json_format(self, capsys):
        rep = run_json(capsys, "bounds", "table",
                       "--surface", "nonorientable", "--gmax", "3",
                       "--format", "json")
        assert [r["g"] for r in rep] == [1, 2, 3]
        assert rep[2]["schedule"] == [7, 7]
        assert rep[2]["impurity"] == 149

    def test_pretty_format_has_a_header(self, capsys):
        code, out, _ = run(capsys, "bounds", "table",
                           "--surface", "orientable", "--gmax", "3",
                           "--format", "pretty")
        assert code == 0
        assert out.splitlines()[0].split() == [
            "g", "surface", "schedule", "impurity", "offset"
        ]

    def test_anchor_delta_changes_rows(self, capsys):
        _, base, _ = run(capsys, "bounds", "table", "--surface",
                         "nonorientable", "--gmax", "5", "--format", "csv")
        _, moved, _ = run(capsys, "bounds", "table", "--surface",
                          "nonorientable", "--gmax", "5", "--format", "csv",
                          "--anchor-delta", "1")
        assert base != moved

    def test_gmax_validation(self, capsys):
        code, _, err = run(capsys, "bounds", "table",
                           "--surface", "nonorientable", "--gmax", "0",
                           "--format", "csv")
        assert code == 2 and "gmax" in err
        code, _, err = run(capsys, "bounds", "verify", "--theorem", "84",
                           "--gmax", "0")
        assert code == 2 and "g_max" in err

    def test_negative_anchor_exits_two(self, capsys):
        code, out, err = run(capsys, "bounds", "table",
                             "--surface", "nonorientable", "--gmax", "3",
                             "--anchor-delta", "-100")
        assert code == 2 and out == "" and "anchor" in err


class TestBoundsF:
    def test_flooring_case(self, capsys):
        rep = run_json(capsys, "bounds", "f", "--g", "13", "--s", "3")
        assert rep == {"c_schedule": [11], "f": 48, "floored_steps": [3],
                       "g": 13, "s": 3}

    def test_anchor_case(self, capsys):
        rep = run_json(capsys, "bounds", "f", "--g", "2", "--s", "2")
        assert rep["f"] == 6 and rep["c_schedule"] == []

    def test_s_validation(self, capsys):
        code, _, err = run(capsys, "bounds", "f", "--g", "3", "--s", "1")
        assert code == 2

    def test_s_two_checks_the_genus_as_every_s_does(self, capsys):
        # --s 2 goes through optimal_schedule, so g = 0 is refused as at --s 3
        for s in ("2", "3"):
            assert run(capsys, "bounds", "f", "--g", "0", "--s", s) == (
                2, "", "error: g must be >= 1\n")

    @pytest.mark.parametrize("g, s", [
        (2, 2), (13, 3), (1, 40), (13, 4098), (13, 4099), (300, 9000),
    ])
    def test_streamed_bytes_equal_the_whole_dump(self, capsys, g, s):
        # the lists are written 4096 items at a time; the bytes must be
        # those of json.dumps over the whole payload
        code, out, _ = run(capsys, "bounds", "f", "--g", str(g), "--s", str(s))
        assert code == 0
        if s == 2:
            final, schedule, floored = f_exact_s2(g), (), ()
        else:
            res = optimal_schedule(g, s)
            final, schedule, floored = res.f, res.c_schedule, res.floored_steps
        assert out == json.dumps(
            {"g": g, "s": s, "f": final, "c_schedule": list(schedule),
             "floored_steps": list(floored)},
            indent=2, sort_keys=True) + "\n"

    def test_s_above_the_step_cap_exits_two_at_once(self, capsys):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "bounds", "f", "--g", "13",
                             "--s", "100000000000")
        assert code == 2 and out == "" and "cap" in err
        assert time.perf_counter() - t0 < 5.0


class TestBoundsVerify:
    def test_small_sweep_passes(self, capsys):
        rep = run_json(capsys, "bounds", "verify", "--theorem", "67",
                       "--gmax", "60")
        assert rep["ok"] is True
        assert rep["theorem"] == "orientable-67"
        assert rep["violations"] == []

    def test_a_violation_is_reported_and_exits_one(self, capsys, monkeypatch):
        # a huge f' at g = 5 breaks 5 f' - 1 <= 84 g there, by 84*5 + 1 - 5*10^6
        real = emax.bounds.optimal_schedule

        def inflated(g, s_max, **kw):
            res = real(g, s_max, **kw)
            return res._replace(f=10**6) if g == 5 else res

        monkeypatch.setattr(emax.bounds, "optimal_schedule", inflated)
        rep = verify_theorem("84", g_max=10)
        assert rep["ok"] is False
        assert rep["violations"] == [{"g": 5, "slack": "-4999579"}]
        assert rep["min_slack"] == {"g": 5, "slack": "-4999579"}
        code, out, err = run(capsys, "bounds", "verify", "--theorem", "84",
                             "--gmax", "10")
        assert (code, err) == (1, "")
        assert '"ok": false' in out and json.loads(out) == rep

    @pytest.mark.parametrize("bits", ["3", "0", "abc"])
    def test_bad_precision_variable_exits_two(self, capsys, monkeypatch, bits):
        # 3 bits used to pass the floor unchecked and report spurious
        # violations from g = 300 on
        monkeypatch.setenv("EMAX_PRECISION_BITS", bits)
        code, out, err = run(capsys, "bounds", "verify", "--theorem", "84",
                             "--gmax", "400")
        assert code == 2 and out == "" and "EMAX_PRECISION_BITS" in err

    def test_precision_variable_at_the_cap(self, capsys, monkeypatch):
        # the printed slack's numerator and denominator stay far under
        # CPython's 4300-digit limit on int-to-str
        monkeypatch.setenv("EMAX_PRECISION_BITS", str(PRECISION_BITS_CAP))
        rep = run_json(capsys, "bounds", "verify", "--theorem", "84",
                       "--gmax", "400")
        assert rep["ok"] is True
        num, den = rep["min_slack"]["slack"].split("/")
        assert max(len(num), len(den)) < 4300 // 2

    def test_precision_variable_above_the_cap_exits_two(self, capsys,
                                                        monkeypatch):
        monkeypatch.setenv("EMAX_PRECISION_BITS", str(PRECISION_BITS_CAP + 1))
        code, out, err = run(capsys, "bounds", "verify", "--theorem", "84",
                             "--gmax", "400")
        assert (code, out) == (2, "")
        assert err == (f"error: EMAX_PRECISION_BITS {PRECISION_BITS_CAP + 1} "
                       f"is above the cap of {PRECISION_BITS_CAP} bits\n")


class TestBoundsBytes:
    """The stdout of the bounds paths, pinned by SHA-256 digest."""

    @pytest.mark.parametrize("argv, digest", [
        ("table --surface nonorientable --gmax 300 --format csv",
         "3736c79a162505c3de79b231068ae235d5f200b8c7b235fe4076fdfd74beb795"),
        ("table --surface orientable --gmax 150 --format json",
         "11d68f8a61efca2c2ba503367b1f24dc158de6723a8e5c6aaf4d50b06caef4ee"),
        ("table --surface nonorientable --gmax 300 --format pretty",
         "725531fa07bd0abec03005c30c6b58a86948555c673c88d1285126bed231d16e"),
        ("table --surface orientable --gmax 40 --format pretty --anchor-delta 3",
         "f10514cb8fe24b441f6c0a299ce98c9e38194e066bb070572cadc02d0eb28cdb"),
        ("verify --theorem 84 --gmax 2000",
         "ada571fa35d697dcb5cc44bdc4e88fd731efce2b5f3bbaf5804e1b275624e54e"),
        ("verify --theorem 67 --gmax 2000",
         "3c8ade86ee9b9299d82d8f8cd5833f3fee808fd3ef0da0234204a9af22196cb1"),
        ("f --g 13 --s 500",
         "9baf97f938f1dac925ead025c9f65b6ef25cdda2c6743502649cc6a695c885de"),
    ])
    def test_stdout_digest(self, capsys, argv, digest):
        code, out, _ = run(capsys, "bounds", *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSchemeBytes:
    """The stdout of the scheme paths on the genus-60 Proposition 2
    schemes, pinned by SHA-256 digest."""

    @pytest.mark.parametrize("flags, mode, digests", [
        ([], "nonorientable", {
            "construct": "90f17b3e8c16819bdf41df5c44285c7b16c4006b5351ace1f4954aba839927ac",
            "analyze": "25795138299da21f425c526b2a274980315aa860b3acbd9a0fbf8a660777fe77",
            "pipeline": "4facef213b4c4556167b18da03c891f5a6cf47226557ce0a530faff8d436d233",
            "triangulate": "04ea25ac2feb19e7fcfb979f15a2055c77a815fba3d1e724f299956fac5455ed",
        }),
        (["--orientable"], "orientable", {
            "construct": "3805db1a653dea37c8dc5b993fa541dec0a786afd2763ec16c3d2690db76f085",
            "analyze": "75b4fb79c6a10353ccf31a01c376f67fa3ca3cc33be8e399a06301735807fcd9",
            "pipeline": "acccd29e8922d3c63de25e919bc71b50d39ded55237396cf9548b474855ea2a4",
            "triangulate": "5a48c9af115afcd31b6db819cd238d84277eb9267b8546809c1200c0d90048f6",
        }),
    ])
    def test_stdout_digests(self, tmp_path, capsys, flags, mode, digests):
        path = tmp_path / "prop2.json"
        runs = {"construct": ["construct", "prop2", "--genus", "60", *flags]}
        runs["analyze"] = ["analyze", str(path)]
        runs["pipeline"] = ["pipeline", str(path), "--mode", mode]
        runs["triangulate"] = ["triangulate", str(path)]
        got = {}
        for name, argv in runs.items():
            code, out, _ = run(capsys, *argv)
            assert code == 0
            if name == "construct":
                path.write_text(out)
            got[name] = hashlib.sha256(out.encode()).hexdigest()
        assert got == digests


def indented_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# strings with quotes, backslashes, control and non-ASCII characters
json_strings = st.text(st.sampled_from('a"\\/\x00\x1f\x7f\n\t é€ 𝄞'),
                       max_size=6) | st.text(max_size=4)
json_documents = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10**40, 10**40)
    | json_strings,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(json_strings, inner, max_size=4),
    max_leaves=30,
)


class TestDump:
    """_dump writes the bytes of json.dumps(indent=2, sort_keys=True), and
    never through json's pure-Python encoder."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(json_documents)
    @example([])
    @example({})
    @example({"a": [], "b": {}, "c": ((), [[]], {"": {}})})
    def test_equals_the_indented_json_dumps(self, doc):
        assert cli._dump(doc) == indented_dumps(doc)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.integers(0, 10**9))
    def test_scheme_template_on_random_schemes(self, seed):
        rng = random.Random(seed)
        E = random_scheme(rng, rng.randint(1, 9), rng.randint(0, 8))
        doc = scheme_dict(E)
        assert cli._dump(E) == indented_dumps(doc)
        # and at the indent of a nested value
        assert cli._dump({"scheme": E, "x": [E, 1]}) == indented_dumps(
            {"scheme": doc, "x": [doc, 1]})

    @pytest.mark.parametrize("E", [
        toroidal_embedding_k8_minus_c5(),
        graph_q_scheme(),
        PseudoEmbedding(1, [], [[]]),  # one vertex, no edges
        PseudoEmbedding(3, [(1, 1, -1)], [[], [(0, 0), (0, 1)], []]),
    ], ids=["k8c5", "q", "one-vertex", "isolated-vertices-and-a-loop"])
    def test_scheme_template_on_fixed_schemes(self, E):
        doc = scheme_dict(E)
        assert cli._dump(E) == indented_dumps(doc)
        assert cli._dump({"scheme": E}) == indented_dumps({"scheme": doc})

    def test_no_command_runs_the_pure_python_encoder(self, tmp_path, capsys,
                                                     monkeypatch):
        def refuse(*a, **k):
            raise AssertionError("json's pure-Python encoder ran")

        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        scheme, out = str(tmp_path / "s.json"), str(tmp_path / "t.json")
        k4 = tmp_path / "k4.txt"
        k4.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        for argv in (
            ["construct", "prop2", "--genus", "4"],
            ["construct", "prop2", "--genus", "4", "--out", scheme],
            ["analyze", scheme],
            ["pipeline", scheme, "--mode", "nonorientable"],
            ["triangulate", scheme],
            ["triangulate", scheme, "--out", out],
            ["regen-fixture", "--seed", "11"],
            ["enumerate", str(k4), "--census"],
            ["bounds", "verify", "--theorem", "84", "--gmax", "60"],
        ):
            code, _, err = run(capsys, *argv)
            assert code == 0, (argv, err)


# the least g whose family at s = 2 has more edges, 6g + 6, than the cap allows
FAMILY_G_ABOVE_CAP = (CONSTRUCT_EDGE_CAP - 6) // 6 + 1


class TestSizeCaps:
    """Runaway sizes exit 2 at once, with the cap named on stderr."""

    @pytest.mark.parametrize("argv, err", [
        (["construct", "prop2", "--genus", str(PROP2_GENUS_CAP + 1)],
         f"error: Euler genus {PROP2_GENUS_CAP + 1} is above the cap of "
         f"{PROP2_GENUS_CAP}\n"),
        (["construct", "prop2", "--genus", "2", "--base-faces", "10000000"],
         f"error: base_faces 10000000 is above the cap of {PROP2_GENUS_CAP}\n"),
        (["bounds", "table", "--surface", "nonorientable",
          "--gmax", str(TABLE_GENUS_CAP + 1)],
         f"error: table row at Euler genus {TABLE_GENUS_CAP + 1} is above the "
         f"cap of {TABLE_GENUS_CAP}\n"),
        (["bounds", "table", "--surface", "orientable",
          "--gmax", str(TABLE_GENUS_CAP // 2 + 1)],
         f"error: table row at Euler genus {TABLE_GENUS_CAP + 2} is above the "
         f"cap of {TABLE_GENUS_CAP}\n"),
        (["bounds", "verify", "--theorem", "84", "--gmax", "10000000000"],
         f"error: g_max 10000000000 is above the cap of {VERIFY_GMAX_CAP}\n"),
        (["construct", "kmn", "--a", "1", "--b", str(CONSTRUCT_EDGE_CAP + 1)],
         f"error: graph would have {CONSTRUCT_EDGE_CAP + 1} edges, above the "
         f"cap of {CONSTRUCT_EDGE_CAP}\n"),
        (["construct", "family", "--g", str(FAMILY_G_ABOVE_CAP), "--s", "2"],
         f"error: graph would have {6 * FAMILY_G_ABOVE_CAP + 6} edges, above "
         f"the cap of {CONSTRUCT_EDGE_CAP}\n"),
        (["bounds", "f", "--g", str(SCHEDULE_GENUS_CAP + 1), "--s", "3"],
         f"error: g {SCHEDULE_GENUS_CAP + 1} is above the cap of "
         f"{SCHEDULE_GENUS_CAP}\n"),
        # under the edge cap, but an edge list that no command would read
        (["construct", "kmn", "--a", "1", "--b", str(EDGE_LIST_VERTEX_CAP)],
         f"error: graph would have {EDGE_LIST_VERTEX_CAP + 1} vertices, above "
         f"the cap of {EDGE_LIST_VERTEX_CAP}\n"),
        # the s = 2 anchor is no way round the genus cap
        (["bounds", "f", "--g", str(SCHEDULE_GENUS_CAP + 1), "--s", "2"],
         f"error: g {SCHEDULE_GENUS_CAP + 1} is above the cap of "
         f"{SCHEDULE_GENUS_CAP}\n"),
    ])
    def test_above_the_cap_exits_two_at_once(self, capsys, argv, err):
        t0 = time.perf_counter()
        assert run(capsys, *argv) == (2, "", err)
        assert time.perf_counter() - t0 < 5.0

    @pytest.mark.parametrize("command", ["analyze", "pipeline", "triangulate"])
    def test_scheme_file_above_the_cap_exits_two(self, capsys, tmp_path, command):
        mode = ["--mode", "orientable"] if command == "pipeline" else []
        above = SCHEME_SIZE_CAP + 1
        for doc, what in (({"n": above, "edges": [], "rotation": []}, "vertices"),
                          ({"n": 2, "edges": [[0, 1, 1]] * above,
                            "rotation": [[], []]}, "edges")):
            path = tmp_path / "big.json"
            path.write_text(json.dumps(doc))
            assert run(capsys, command, str(path), *mode) == (
                2, "", f"error: scheme has {above} {what}, above the cap of "
                       f"{SCHEME_SIZE_CAP}\n")
        # at the cap the scheme is read, and refused by its own checks
        path.write_text(json.dumps({"n": SCHEME_SIZE_CAP, "edges": [],
                                    "rotation": []}))
        code, out, err = run(capsys, command, str(path), *mode)
        assert (code, out) == (2, "") and "cap" not in err

    def test_triangulation_above_the_cap_is_refused(self, capsys, tmp_path,
                                                    monkeypatch):
        # a 12-cycle completes to a planar triangulation of 3(12 - 2) = 30
        # edges, so that a written completion always reads back
        path, out = tmp_path / "cycle.json", tmp_path / "t.json"
        path.write_text(json.dumps({
            "n": 12, "edges": [[i, (i + 1) % 12, 1] for i in range(12)],
            "rotation": [[[(i - 1) % 12, 1], [i, 0]] for i in range(12)]}))
        for module in (emax.embedding, emax.surgery):
            monkeypatch.setattr(module, "SCHEME_SIZE_CAP", 29)
        assert run(capsys, "triangulate", str(path), "--out", str(out)) == (
            2, "", "error: the triangulation would have 30 edges, above the "
                   "cap of 29\n")
        for module in (emax.embedding, emax.surgery):
            monkeypatch.setattr(module, "SCHEME_SIZE_CAP", 30)
        assert run_json(capsys, "triangulate", str(path), "--out",
                        str(out))["edges_added"] == 18
        assert run_json(capsys, "analyze", str(out))["m"] == 30

    def test_caps_sit_far_above_the_benchmark_sizes(self):
        # perfbench runs prop2 at genus 60, tables to Euler genus 300 and
        # verify to 2000
        assert PROP2_GENUS_CAP >= 10 * 60
        assert TABLE_GENUS_CAP >= 10 * 300
        assert VERIFY_GMAX_CAP >= 10 * 2000
        # and the family at g = 10, s = 8: 66 + 6 * 12 edges
        assert CONSTRUCT_EDGE_CAP >= 10 * 138
        # and regen-fixture with its defaults, 40 restarts of 30000 moves
        assert REGEN_MOVE_CAP >= 8 * 40 * (30000 + REGEN_SETUP_MOVES)
        # every scheme emax writes reads back: the triangulated genus-10^4
        # Proposition 2 scheme has 15002 vertices and 75000 edges
        assert SCHEME_SIZE_CAP >= 75000

    def test_docstring_lists_every_cap(self):
        # every module-level *_CAP in src/emax, as module.NAME = value with
        # the value as 10^k for a power of ten and in digits otherwise
        doc = " ".join(cli.__doc__.split())
        caps = []
        for path in sorted(Path(emax.__file__).parent.glob("*.py")):
            module = importlib.import_module(f"emax.{path.stem}")
            for node in ast.parse(path.read_text()).body:
                if isinstance(node, ast.Assign):
                    caps += [(path.stem, t.id, getattr(module, t.id))
                             for t in node.targets if isinstance(t, ast.Name)
                             and t.id.endswith("_CAP")]
        assert len(caps) >= 11
        for module, name, value in caps:
            k = len(str(value)) - 1
            text = f"10^{k}" if value == 10**k and k > 0 else str(value)
            assert f"{module}.{name} = {text}" in doc, (module, name)


ONE_MOVE_RESTARTS_ABOVE_CAP = REGEN_MOVE_CAP // (1 + REGEN_SETUP_MOVES) + 1


class TestRegenFixture:
    def test_hopeless_search_exits_one(self, capsys):
        code, out, _ = run(capsys, "regen-fixture", "--seed", "0",
                           "--restarts", "1", "--iters", "1")
        assert code == 1
        assert json.loads(out) == {"found": False, "seed": 0}

    @pytest.mark.parametrize("flags, what", [
        (["--restarts", "0"], "got 0 and 30000"),
        (["--iters", "-3"], "got 40 and -3"),
        (["--iters", str(REGEN_MOVE_CAP)], f"got 40 and {REGEN_MOVE_CAP}"),
        # the least number of one-move restarts above the cap
        (["--restarts", str(ONE_MOVE_RESTARTS_ABOVE_CAP), "--iters", "1"],
         f"got {ONE_MOVE_RESTARTS_ABOVE_CAP} and 1"),
    ])
    def test_bad_budget_exits_two(self, capsys, flags, what):
        code, out, err = run(capsys, "regen-fixture", "--seed", "0", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and what in err


class TestDeterminism:
    def test_construct_is_byte_stable(self, capsys):
        _, a, _ = run(capsys, "construct", "prop2", "--genus", "1")
        _, b, _ = run(capsys, "construct", "prop2", "--genus", "1")
        assert a == b
        scheme_from_json(a)  # and it parses as a scheme

    def test_table_is_byte_stable(self, capsys):
        _, a, _ = run(capsys, "bounds", "table", "--surface", "nonorientable",
                      "--gmax", "12", "--format", "csv")
        _, b, _ = run(capsys, "bounds", "table", "--surface", "nonorientable",
                      "--gmax", "12", "--format", "csv")
        assert a == b


class TestArgparseBehavior:
    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_choice_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["pipeline", "x.json", "--mode", "maybe"])
        assert exc.value.code == 2


# every leaf command with the option names its help lists
LEAVES = {
    ("construct", "prop2"): ["--genus", "--orientable", "--base-faces", "--out"],
    ("construct", "k8c5"): ["--embedded", "--out"],
    ("construct", "q"): ["--embedded", "--out"],
    ("construct", "family"): ["--g", "--s", "--out"],
    ("construct", "kmn"): ["--a", "--b", "--out"],
    ("analyze",): ["scheme"],
    ("pipeline",): ["scheme", "--mode"],
    ("triangulate",): ["scheme", "--out"],
    ("ordered-seq",): ["graph", "--s", "--c-schedule"],
    ("enumerate",): ["graph", "--signature-mode", "--census"],
    ("bounds", "table"): ["--surface", "--gmax", "--format", "--anchor-delta"],
    ("bounds", "f"): ["--g", "--s"],
    ("bounds", "verify"): ["--theorem", "--gmax"],
    ("regen-fixture",): ["--seed", "--restarts", "--iters"],
}

# an argv for each leaf, every option given, then with the defaults, and
# every attribute its handler reads
PARSED = [
    (["construct", "prop2", "--genus", "4", "--orientable", "--base-faces", "7",
      "--out", "p.json"],
     {"genus": 4, "orientable": True, "base_faces": 7, "out": "p.json"}),
    (["construct", "prop2", "--genus=3"],
     {"genus": 3, "orientable": False, "base_faces": None, "out": None}),
    (["construct", "k8c5", "--embedded", "--out", "k.json"],
     {"embedded": True, "out": "k.json"}),
    (["construct", "k8c5"], {"embedded": False, "out": None}),
    (["construct", "q", "--out=q.txt", "--embedded"],
     {"embedded": True, "out": "q.txt"}),
    (["construct", "q"], {"embedded": False, "out": None}),
    (["construct", "family", "--s", "3", "--g", "2", "--out", "f.txt"],
     {"g": 2, "s": 3, "out": "f.txt"}),
    (["construct", "kmn", "--a", "3", "--b=4"], {"a": 3, "b": 4, "out": None}),
    (["analyze", "s.json"], {"scheme": "s.json"}),
    (["pipeline", "--mode", "orientable", "s.json"],
     {"scheme": "s.json", "mode": "orientable"}),
    (["triangulate", "s.json", "--out", "t.json"],
     {"scheme": "s.json", "out": "t.json"}),
    (["triangulate", "s.json"], {"scheme": "s.json", "out": None}),
    (["ordered-seq", "g.txt", "--s", "3", "--c-schedule", "7,8"],
     {"graph": "g.txt", "s": 3, "c_schedule": "7,8"}),
    (["ordered-seq", "--s", "-2", "g.txt"],
     {"graph": "g.txt", "s": -2, "c_schedule": None}),
    (["enumerate", "g.txt", "--signature-mode", "all", "--census"],
     {"graph": "g.txt", "signature_mode": "all", "census": True}),
    (["enumerate", "g.txt"],
     {"graph": "g.txt", "signature_mode": "orientable-only", "census": False}),
    (["bounds", "table", "--surface", "orientable", "--gmax", "5", "--format",
      "csv", "--anchor-delta", "-100"],
     {"surface": "orientable", "gmax": 5, "format": "csv", "anchor_delta": -100}),
    (["bounds", "table", "--surface", "nonorientable", "--gmax", "5"],
     {"surface": "nonorientable", "gmax": 5, "format": "json",
      "anchor_delta": 0}),
    (["bounds", "f", "--g", "13", "--s", "3"], {"g": 13, "s": 3}),
    (["bounds", "verify", "--theorem", "orientable-67", "--gmax", "50"],
     {"theorem": "orientable-67", "gmax": 50}),
    (["bounds", "verify", "--theorem", "84"], {"theorem": "84", "gmax": 2000}),
    (["regen-fixture", "--seed", "0", "--restarts", "2", "--iters", "5"],
     {"seed": 0, "restarts": 2, "iters": 5}),
    (["regen-fixture", "--seed", "11"],
     {"seed": 11, "restarts": 40, "iters": 30000}),
]


class TestCommandLine:
    """The argv contract: what each leaf reads, which argv are usage
    errors, and what -h prints."""

    def test_the_cases_cover_every_leaf(self):
        assert {next(leaf for leaf in LEAVES if tuple(argv[:len(leaf)]) == leaf)
                for argv, _ in PARSED} == set(LEAVES)

    @pytest.mark.parametrize("argv, want", PARSED)
    def test_every_leaf_parses(self, argv, want):
        args = cli.parse_args(argv)
        got = {k: getattr(args, k) for k in want}
        assert got == want
        assert {k: type(v) for k, v in got.items()} == {
            k: type(v) for k, v in want.items()}

    @pytest.mark.parametrize("argv", [
        [],                                             # no command
        ["frobnicate"],                                 # unknown command
        ["bounds"],                                     # a group alone
        ["construct", "kmn", "--a", "3"],               # missing option
        ["analyze"],                                    # missing positional
        ["bounds", "f", "--g", "x", "--s", "3"],        # bad int
        ["pipeline", "s.json", "--mode", "maybe"],      # bad choice
        ["analyze", "s.json", "--bogus"],               # unknown option
        ["bounds", "f", "--g", "13", "--s"],            # option without value
        ["analyze", "a.json", "b.json"],                # extra positional
        ["bounds", "table", "--surface", "nonorientable", "--gmax", "2",
         "--form", "csv"],                              # abbreviation
    ])
    def test_usage_errors_exit_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert err.startswith("usage: emax") and "error:" in err

    @pytest.mark.parametrize("path, names", [
        ((), ["construct", "analyze", "pipeline", "triangulate", "ordered-seq",
              "enumerate", "bounds", "regen-fixture"]),
        (("construct",), ["prop2", "k8c5", "q", "family", "kmn"]),
        (("bounds",), ["table", "f", "verify"]),
        *LEAVES.items(),
    ])
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_at_every_level(self, capsys, path, names, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main([*path, flag])
        out, err = capsys.readouterr()
        assert exc.value.code == 0 and err == ""
        assert out.startswith("usage: emax")
        assert all(name in out for name in names)
