"""Command line interface: payload shapes, exit codes, determinism.

Every test drives cli.main(argv) in-process; stdout is JSON (or csv /
padded text for the table formats) captured through capsys.
"""

import json
import re

import pytest

from emax import cli, scheme_from_json
from emax.embedding import scheme_to_json
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
        path.write_text(scheme_to_json(planar_c4_scheme()))
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
        path.write_text(scheme_to_json(planar_c4_scheme()))
        code, _, err = run(capsys, "pipeline", str(path),
                           "--mode", "orientable")
        assert code == 2 and "misses" in err


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

    def test_cap(self, tmp_path, capsys):
        code, _, err = run(capsys, "enumerate",
                           self.write_k4(tmp_path, capsys), "--cap", "10")
        assert code == 2 and "cap" in err


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


class TestBoundsVerify:
    def test_small_sweep_passes(self, capsys):
        rep = run_json(capsys, "bounds", "verify", "--theorem", "67",
                       "--gmax", "60")
        assert rep["ok"] is True
        assert rep["theorem"] == "orientable-67"
        assert rep["violations"] == []


class TestRegenFixture:
    def test_hopeless_search_exits_one(self, capsys):
        code, out, _ = run(capsys, "regen-fixture", "--seed", "0",
                           "--restarts", "1", "--iters", "1")
        assert code == 1
        assert json.loads(out) == {"found": False, "seed": 0}


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
