"""Malformed input never ends in a traceback.

Arbitrary and near-valid text is fed to the two parsers and to the CLI
subcommands that read a file.  The parsers either return or raise their
named error (GraphError, SchemeError); the CLI either exits 0 or exits 2
with one `error: ...` line on stderr.  Any other exception fails the test.
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import emax.constructions
from conftest import random_scheme, scheme_dict
from emax import GraphError, SchemeError, parse_edge_list, scheme_from_json
from emax.cli import main

FUZZ = settings(derandomize=True, max_examples=100, deadline=None)

# mostly small, sometimes negative, past the vertex cap or past 64 bits
ints = st.one_of(
    st.integers(-3, 9),
    st.sampled_from([10**5 + 1, -(10**9), 2**70]),
)
tokens = st.one_of(ints.map(str), st.sampled_from(["x", "1.5", "", "#", "--"]))


def rarely(draw, strategy, otherwise):
    """One draw in four from strategy, else otherwise."""
    return draw(strategy) if draw(st.integers(0, 3)) == 0 else otherwise


@st.composite
def edge_list_texts(draw):
    """A header, a part_b comment and edge lines, mostly consistent, with
    loops, repeats, out-of-range ends, wrong counts and malformed lines
    mixed in."""
    # a random tree plus chords, then at most one loop, repeat or wild end
    k = draw(st.integers(0, 6))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, k + 1)]
    ends = st.integers(0, k)
    for v, w in draw(st.lists(st.tuples(ends, ends), max_size=3)):
        if v != w and (v, w) not in pairs and (w, v) not in pairs:
            pairs.append((v, w))
    if pairs and draw(st.integers(0, 3)) == 0:
        v, w = draw(st.sampled_from(pairs))
        pairs.append(draw(st.sampled_from([(v, v), (w, v), (v, draw(ints))])))
    n = max((max(e) for e in pairs), default=-1) + 1 + draw(st.integers(0, 2))
    lines = [f"{rarely(draw, ints, n)} {rarely(draw, ints, len(pairs))}"]
    lines += [f"{v} {w}" for v, w in pairs]
    if draw(st.booleans()):
        part = draw(st.lists(ends.map(str), max_size=4))
        part = rarely(draw, st.lists(tokens, max_size=3), part)
        lines.insert(draw(st.integers(0, len(lines))), "# part_b: " + " ".join(part))
    if draw(st.integers(0, 3)) == 0:
        junk = " ".join(draw(st.lists(tokens, max_size=4)))
        lines.insert(draw(st.integers(0, len(lines))), junk)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def json_values():
    leaves = st.one_of(st.none(), st.booleans(), ints, st.floats(), st.text(max_size=4))
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.dictionaries(st.sampled_from(["n", "edges", "rotation", "x"]), inner,
                            max_size=4),
        ),
        max_leaves=20,
    )


@st.composite
def mutated_schemes(draw):
    """A valid scheme document with one value replaced."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    doc = scheme_dict(random_scheme(rng, rng.randint(2, 6), rng.randint(0, 4)))
    doc = json.loads(json.dumps(doc))
    if draw(st.booleans()):
        return doc
    spots = [(doc, "n")]
    for key in ("edges", "rotation"):
        spots.append((doc, key))
        for rec in doc[key]:
            spots.extend((rec, i) for i in range(len(rec)))
            for sub in rec:
                if isinstance(sub, list):
                    spots.extend((sub, i) for i in range(len(sub)))
    holder, key = draw(st.sampled_from(spots))
    holder[key] = draw(json_values())
    return doc


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def run_cli(path, text, *argv):
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([argv[0], str(path), *argv[1:]])
    err = err.getvalue()
    assert code in (0, 2), (code, err)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert out.getvalue() == ""
    return code


class TestParsers:
    @FUZZ
    @given(st.one_of(st.text(max_size=60), edge_list_texts()))
    def test_edge_list_returns_or_raises_graph_error(self, text):
        try:
            parse_edge_list(text)
        except GraphError:
            pass

    @FUZZ
    @given(st.one_of(st.text(max_size=60), json_values().map(json.dumps),
                     mutated_schemes().map(json.dumps)))
    @example("[" * 100000)  # past the parser's recursion limit
    def test_scheme_json_returns_or_raises_scheme_error(self, text):
        try:
            scheme_from_json(text)
        except SchemeError:
            pass


class TestCli:
    @FUZZ
    @given(st.one_of(st.text(max_size=60), json_values().map(json.dumps),
                     mutated_schemes().map(json.dumps)))
    def test_analyze(self, input_file, text):
        run_cli(input_file, text, "analyze")

    @FUZZ
    @given(edge_list_texts(), st.integers(-2, 6))
    def test_ordered_seq(self, input_file, text, s):
        run_cli(input_file, text, "ordered-seq", "--s", str(s))

    @FUZZ
    @given(edge_list_texts(), st.sampled_from(["orientable-only", "all"]),
           st.booleans())
    def test_enumerate(self, input_file, text, mode, census):
        flags = ["--census"] if census else []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(emax.constructions, "ENUMERATION_CAP", 5000)
            run_cli(input_file, text, "enumerate", "--signature-mode", mode,
                    *flags)

    def test_the_valid_inputs_reach_exit_zero(self, input_file):
        # the strategies above can reach the success path
        doc = scheme_dict(random_scheme(random.Random(1), 4, 2))
        assert run_cli(input_file, json.dumps(doc), "analyze") == 0
        text = "4 3\n# part_b: 3\n0 3\n1 3\n2 3\n"
        assert run_cli(input_file, text, "ordered-seq", "--s", "2") == 0
        assert run_cli(input_file, text, "enumerate", "--census") == 0
