"""The audit table: every `raise RuntimeError` in `src/emax`, each with the
test that trips it or the invariant that keeps it from firing.

An `ast` pass lists the audits by module, function and message: an
f-string with its fields as written, a conditional message as its
alternatives joined by " | ".  `AUDITS` holds one row per audit.  The test
fails when the two disagree, so a new audit must come with its fault, and
when a row names a test that no longer exists.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "emax"
TESTS = ROOT / "tests"

UNREACHABLE = "unreachable: "

# (module, function, message, evidence); each evidence entry is a test as
# "file::Class::test" or UNREACHABLE and the invariant
AUDITS = [
    ("bounds", "optimal_schedule", "c scan exceeded its hard cap",
     ("test_bounds.py::TestAudits::test_c_scan_cap",)),
    ("bounds", "_context_at_precision",
     "gamma_{i} escaped [0,1) despite certified ceil",
     ("test_bounds.py::TestAudits::test_gamma_escapes",)),
    ("bounds", "_context_at_precision",
     "k exceeded 2g+2; series evaluation is broken",
     ("test_bounds.py::TestAudits::test_k_beyond_its_last_row",)),
    ("bounds", "claim1_consistency", "the rows skip or repeat s={last + 1}",
     ("test_bounds.py::TestAudits::test_claim1_row_audits",)),
    ("bounds", "claim1_consistency", "row {i} has no error term but s={s} uses it",
     ("test_bounds.py::TestAudits::test_claim1_row_audits",)),
    ("bounds", "claim1_consistency", "the rows skip or repeat s={t}",
     ("test_bounds.py::TestClaim1Rows::test_a_fault_inside_a_row_names_its_first_s",)),
    ("bounds", "claim1_consistency", "the rows end at s={last}, not at g+1={g + 1}",
     ("test_bounds.py::TestAudits::test_claim1_row_audits",)),
    ("constructions", "_label_faces", "state map failed to close a cycle",
     ("test_constructions.py::TestFixtureClimbCounting::test_unclosed_cycle_raises",)),
    ("constructions", "regenerate_k8_c5_fixture",
     "hill-climb result is not a 15-face torus scheme",
     ("test_constructions.py::TestK8MinusC5::test_climb_result_audit",)),
    ("constructions", "_faces_through",
     "a face through c is its own mirror image | "
     "a face through c fails to close within {len(exits)} exits",
     ("test_constructions.py::TestCensusAudits::test_composition_audits",)),
    ("constructions", "_faces_through",
     "a face through c has a twin that is not its mirror image",
     ("test_constructions.py::TestCensusAudits::test_composition_audits",)),
    ("constructions", "_faces_through",
     "face sides sum to {sum(faces)}, expected {len(leave) // 2}",
     ("test_constructions.py::TestCensusAudits::test_kept_sides_audit",)),
    ("constructions", "scheme_census",
     "census counts {sum(classes.values())} schemes, expected {total}",
     ("test_constructions.py::TestCensusAudits::test_count_audit",)),
    ("constructions", "_paste", "{target} paste on the face of state {s} formed faces {got}",
     ("test_constructions.py::TestPasteBlock::test_each_paste_checks_the_faces_it_forms",)),
    ("embedding", "_darts", "the rotation at vertex {v} does not close",
     ("test_surgery.py::TestSchemeEditor::test_freeze_audits_a_corrupt_table",
      "test_cli.py::TestTriangulate::test_corrupt_editor_table_exits_one")),
    ("embedding", "_cycles",
     "state map failed to close a cycle | state map failed to close an arc",
     ("test_embedding.py::TestTracerAudits::test_cycle_that_does_not_close",
      "test_constructions.py::TestCensusAudits::test_prefix_audits")),
    ("embedding", "_cycles", "self-mirrored facial cycle; scheme invariants violated",
     ("test_embedding.py::TestTracerAudits::test_self_mirrored_cycle",
      "test_constructions.py::TestCensusAudits::test_prefix_audits")),
    ("embedding", "_cycles", "mirror pairing mismatch between facial cycles",
     ("test_embedding.py::TestTracerAudits::test_mirror_step_mismatch",
      "test_constructions.py::TestCensusAudits::test_prefix_audits")),
    ("embedding", "_faces", "face sides sum to {total}, expected {2 * m}",
     (UNREACHABLE + "after the walk of all 4m states each state is marked "
      "once, in a kept cycle or as the mirror of one, and a state and its "
      "mirror lie on one edge, so the kept cycles hold 2m states",)),
    ("embedding", "_faces", "some edge is not traversed exactly twice",
     (UNREACHABLE + "by the same marking, the kept cycles hold two of each "
      "edge's four states",)),
    ("embedding", "_audited_genus", "negative Euler genus {g}; tracing is broken",
     ("test_embedding.py::TestTracerAudits::test_genus_audits",)),
    ("embedding", "_audited_genus", "orientable scheme with odd Euler genus {g}",
     ("test_embedding.py::TestTracerAudits::test_genus_audits",)),
    ("embedding", "_SchemeEditor.face", "face walk from state {s} does not close",
     ("test_surgery.py::TestSchemeEditor::test_face_walk_audits_a_table_that_does_not_close",)),
    ("embedding", "_SchemeEditor.freeze", "the editor's table is corrupt: {exc}",
     ("test_surgery.py::TestSchemeEditor::test_freeze_audits_a_corrupt_table",)),
    ("embedding", "_SchemeEditor.freeze",
     "the edited scheme lies on {surface_info(E)}, not {surface}",
     ("test_surgery.py::TestSchemeEditor::test_freeze_audits_the_surface",
      "test_constructions.py::TestPasteBlock::test_a_crosscap_that_stays_orientable_is_refused")),
    ("surgery", "chord_faces",
     "chord count {len(spots)} inconsistent with split count "
     "{face_split_count(t, mode)} for face length {t}",
     ("test_cli.py::TestPipeline::test_failed_audit_exits_one",)),
    ("surgery", "insert_apexes", "some apex does not have degree 4",
     ("test_surgery.py::TestPipeline::test_closing_audits",)),
    ("surgery", "complete_to_triangulation", "completion exceeded its edge budget",
     ("test_surgery.py::TestCompleteToTriangulation::test_closing_audits",)),
    ("surgery", "complete_to_triangulation", "the chord from state {s0} cut off no triangle",
     ("test_surgery.py::TestCompleteToTriangulation::test_each_ear_is_audited",)),
    ("surgery", "complete_to_triangulation", "completion finished with a non-triangle left",
     ("test_surgery.py::TestCompleteToTriangulation::test_closing_audits",)),
    ("surgery", "complete_to_triangulation", "completed scheme has a wrong edge count",
     ("test_surgery.py::TestCompleteToTriangulation::test_closing_audits",)),
    ("surgery", "run_lemma5_pipeline",
     "apex {w}: neighbors {x},{y} are not adjacent, N[w] is not a K5",
     ("test_surgery.py::TestPipeline::test_closing_audits",)),
    ("surgery", "run_lemma5_pipeline",
     "deficit {added} exceeds {factor}|B|-1 = {factor * len(apexes) - 1}",
     ("test_cli.py::TestPipeline::test_failed_audit_exits_one",)),
    ("surgery", "run_lemma5_pipeline", "no apexes were placed yet the input was short",
     ("test_surgery.py::TestPipeline::test_closing_audits",)),
]


def alternatives(node) -> list:
    """The messages a raise's argument can form, fields as written."""
    if isinstance(node, ast.Constant):
        return [str(node.value)]
    if isinstance(node, ast.JoinedStr):
        return ["".join(alternatives(v)[0] for v in node.values)]
    if isinstance(node, ast.FormattedValue):
        return ["{" + ast.unparse(node.value) + "}"]
    if isinstance(node, ast.IfExp):
        return alternatives(node.body) + alternatives(node.orelse)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return [a + b for a in alternatives(node.left) for b in alternatives(node.right)]
    return ["{" + ast.unparse(node) + "}"]


def listed_audits() -> list:
    """(module, function, message) of each `raise RuntimeError` in src/emax."""
    found = []

    def walk(node, module, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}" if where else child.name
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc
                call = isinstance(exc, ast.Call)
                if ast.unparse(exc.func if call else exc) == "RuntimeError":
                    args = exc.args if call else []
                    message = alternatives(args[0]) if args else [""]
                    found.append((module, where, " | ".join(message)))
            walk(child, module, inner)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, "")
    return found


def defined_tests(name: str) -> set:
    """The "Class::test" and "test" names defined in a tests/ file."""
    tree = ast.parse((TESTS / name).read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.update(f"{node.name}::{f.name}" for f in node.body
                         if isinstance(f, ast.FunctionDef))
    return names


def test_every_audit_has_a_row_and_every_row_an_audit():
    listed = Counter(listed_audits())
    table = Counter(row[:3] for row in AUDITS)
    assert sorted((listed - table).elements()) == [], "audits without a row"
    assert sorted((table - listed).elements()) == [], "rows without an audit"


def test_each_row_names_existing_tests_or_an_invariant():
    defined = {}
    for *_, evidence in AUDITS:
        assert evidence
        for entry in evidence:
            if entry.startswith(UNREACHABLE):
                assert len(entry) > len(UNREACHABLE) + 20, entry
                continue
            name, test = entry.split("::", 1)
            if name not in defined:
                defined[name] = defined_tests(name)
            assert test in defined[name], entry
