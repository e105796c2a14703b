"""Simple graph layer: construction, predicates, text format."""

import os
import subprocess
import sys

import pytest
from conftest import (
    assert_frozen_record,
    is_clique,
    is_k_connected,
    is_locally_hamiltonian,
    is_planar,
    min_degree,
)

from emax import (
    Bipartition,
    Graph,
    GraphError,
    bipartite_genus_lower_bound,
    check_bipartition,
    closed_neighborhood,
    complete_bipartite,
    complete_graph,
    format_edge_list,
    is_connected,
    parse_edge_list,
    scheme_to_json,
    toroidal_embedding_k8_minus_c5,
)
from emax.graphs import EDGE_LIST_VERTEX_CAP


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


class TestGraphBasics:
    def test_canonical_storage_and_dedup(self):
        G = Graph(3, [(1, 0), (0, 1), (1, 2)])
        assert G.m == 2
        assert G.edges == frozenset({(0, 1), (1, 2)})
        assert G.has_edge(0, 1) and G.has_edge(1, 0)
        assert not G.has_edge(0, 2)

    def test_loops_rejected(self):
        with pytest.raises(GraphError):
            Graph(2, [(1, 1)])

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 2)])
        with pytest.raises(GraphError):
            Graph(2, [(-1, 0)])

    def test_immutable(self):
        G = path(3)
        with pytest.raises(AttributeError):
            G.n = 5

    def test_neighbors_degree(self):
        G = complete_graph(4)
        assert G.neighbors(0) == frozenset({1, 2, 3})
        assert G.degree(0) == 3
        assert min_degree(G) == 3
        with pytest.raises(GraphError):
            G.neighbors(4)

    def test_equality_and_hash(self):
        assert path(3) == Graph(3, [(1, 2), (0, 1)])
        assert path(3) != path(4)
        assert len({path(3), Graph(3, [(0, 1), (1, 2)])}) == 1

    def test_min_degree_needs_vertices(self):
        with pytest.raises(GraphError):
            min_degree(Graph(0, []))


class TestBipartition:
    def test_check_accepts_complete_bipartite(self):
        G, P = complete_bipartite(3, 4)
        check_bipartition(G, P)
        assert len(P.part_a) == 3 and len(P.part_b) == 4

    def test_check_rejects_overlap(self):
        G = Graph(2, [(0, 1)])
        with pytest.raises(GraphError):
            check_bipartition(G, Bipartition(frozenset({0, 1}), frozenset({1})))

    def test_check_rejects_uncovered_vertex(self):
        G = Graph(3, [(0, 1)])
        with pytest.raises(GraphError):
            check_bipartition(G, Bipartition(frozenset({0}), frozenset({1})))

    def test_check_rejects_noncrossing_edge(self):
        G = Graph(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(GraphError):
            check_bipartition(G, Bipartition(frozenset({0, 1}), frozenset({2})))

    def test_parts_coerced_to_frozensets(self):
        P = Bipartition({0, 1}, [2, 3, 3])
        assert type(P.part_a) is frozenset and P.part_a == {0, 1}
        assert type(P.part_b) is frozenset and P.part_b == {2, 3}
        Q = Bipartition(part_a=range(2), part_b=iter([3, 2]))
        assert Q == P and type(Q.part_b) is frozenset

    def test_record(self):
        P = Bipartition({0}, {1, 2})
        assert_frozen_record(
            P, ("part_a", "part_b"),
            "Bipartition(part_a=frozenset({0}), part_b=frozenset({1, 2}))",
        )
        assert P != Bipartition({0, 1}, {2})
        # a record is a tuple: it unpacks, and equals the tuple of its parts
        part_a, part_b = P
        assert P == (part_a, part_b) == (frozenset({0}), frozenset({1, 2}))


class TestNeighborhoodHelpers:
    def test_closed_neighborhood(self):
        G = path(4)
        assert closed_neighborhood(G, 1) == frozenset({0, 1, 2})
        assert closed_neighborhood(G, 0) == frozenset({0, 1})

    def test_is_clique(self):
        G = complete_graph(5)
        assert is_clique(G, [0, 1, 2, 3, 4])
        assert is_clique(G, [2])
        assert is_clique(G, [])
        H = path(4)
        assert not is_clique(H, [0, 1, 2])


class TestConnectivity:
    def test_is_connected(self):
        assert is_connected(path(5))
        assert not is_connected(Graph(4, [(0, 1), (2, 3)]))
        assert not is_connected(Graph(0, []))
        assert is_connected(Graph(1, []))

    def test_three_connected_complete_graph(self):
        assert is_k_connected(complete_graph(5), 3)

    def test_cut_vertex_breaks_two_connectivity(self):
        # two triangles glued at vertex 2
        G = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        assert is_k_connected(G, 1)
        assert not is_k_connected(G, 2)

    def test_cycle_is_exactly_two_connected(self):
        C = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
        assert is_k_connected(C, 2)
        assert not is_k_connected(C, 3)

    def test_k_out_of_supported_range(self):
        with pytest.raises(GraphError):
            is_k_connected(path(4), 4)

    def test_vertex_cap(self):
        big = Graph(65, [(i, i + 1) for i in range(64)])
        with pytest.raises(GraphError):
            is_k_connected(big, 1)

    def test_too_few_vertices_never_k_connected(self):
        assert not is_k_connected(complete_graph(3), 3)


class TestLocallyHamiltonian:
    def test_octahedron_is_locally_hamiltonian(self):
        # K_{2,2,2}: neighborhoods are 4-cycles
        G = Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)
                      if u + 3 != v])
        assert is_locally_hamiltonian(G)

    def test_complete_graph_k4(self):
        assert is_locally_hamiltonian(complete_graph(4))

    def test_bipartite_graph_fails(self):
        # neighborhoods in K_{3,3} are independent sets
        G, _ = complete_bipartite(3, 3)
        assert not is_locally_hamiltonian(G)

    def test_low_degree_vertex_fails_fast(self):
        assert not is_locally_hamiltonian(path(4))

    def test_degree_cap_enforced(self):
        with pytest.raises(GraphError):
            is_locally_hamiltonian(complete_graph(12))


class TestGenusLowerBound:
    def test_k34(self):
        G, P = complete_bipartite(3, 4)
        # m=12, n=7: ceil(12/2) - 7 + 2 = 1
        assert bipartite_genus_lower_bound(G, P) == 1

    def test_k3_2g2_scales_linearly(self):
        for g in range(1, 6):
            G, P = complete_bipartite(3, 2 * g + 2)
            assert bipartite_genus_lower_bound(G, P) == g

    def test_planar_bipartite_clamps_to_zero(self):
        G, P = complete_bipartite(2, 2)
        assert bipartite_genus_lower_bound(G, P) == 0

    def test_needs_three_vertices(self):
        G = Graph(2, [(0, 1)])
        P = Bipartition(frozenset({0}), frozenset({1}))
        with pytest.raises(GraphError):
            bipartite_genus_lower_bound(G, P)


class TestPlanarity:
    def test_small_planar_and_nonplanar(self):
        assert is_planar(complete_graph(4))
        assert not is_planar(complete_graph(5))
        K33, _ = complete_bipartite(3, 3)
        assert not is_planar(K33)


class TestEdgeListFormat:
    def test_round_trip_with_part_b(self):
        G, P = complete_bipartite(3, 4)
        text = format_edge_list(G, P.part_b)
        H, part_b = parse_edge_list(text)
        assert H == G
        assert part_b == P.part_b

    def test_round_trip_without_part_b(self):
        G = path(5)
        H, part_b = parse_edge_list(format_edge_list(G))
        assert H == G and part_b is None

    def test_comments_and_blank_lines_ignored(self):
        text = "# a file\n\n3 2\n0 1\n# interior comment\n1 2\n"
        G, _ = parse_edge_list(text)
        assert G == path(3)

    def test_header_edge_count_enforced(self):
        with pytest.raises(GraphError, match="promises"):
            parse_edge_list("3 2\n0 1\n")

    def test_missing_header(self):
        with pytest.raises(GraphError, match="header"):
            parse_edge_list("# nothing\n")

    def test_malformed_lines_carry_line_numbers(self):
        with pytest.raises(GraphError, match="line 2"):
            parse_edge_list("3 1\n0 x\n")
        with pytest.raises(GraphError, match="line 1"):
            parse_edge_list("3\n")

    def test_duplicate_edges_rejected(self):
        for second in ("0 1", "1 0"):
            with pytest.raises(GraphError, match=f"line 3: duplicate edge {second}"):
                parse_edge_list(f"3 3\n0 1\n{second}\n1 2\n")

    def test_vertex_cap_checked_at_the_header(self):
        with pytest.raises(GraphError, match="line 1: .* above the cap"):
            parse_edge_list(f"{EDGE_LIST_VERTEX_CAP + 1} 0\n")
        # at the cap the header passes and the edge count is checked next,
        # before any adjacency set is allocated
        with pytest.raises(GraphError, match="promises"):
            parse_edge_list(f"{EDGE_LIST_VERTEX_CAP} 1\n")

    def test_malformed_part_b_comment(self):
        with pytest.raises(GraphError, match="part_b"):
            parse_edge_list("# part_b: 1 x\n2 1\n0 1\n")


def test_import_leaves_out_dataclasses_and_inspect(tmp_path):
    """A bare `import emax, emax.cli` loads neither `dataclasses` nor
    `inspect` (nor `typing`), and neither it nor a following `bounds f` or
    `analyze` run loads `argparse`, `gettext` or `locale`.  The modules are
    compared with those the same interpreter had before the import, so
    modules that a site .pth file loads at start-up do not count."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    scheme = tmp_path / "k8c5.json"
    scheme.write_text(scheme_to_json(toroidal_embedding_k8_minus_c5()))
    code = ("import sys; before = set(sys.modules); import emax, emax.cli\n"
            "def added(): print(*sorted(set(sys.modules) - before), file=sys.stderr)\n"
            "added(); emax.cli.main(['bounds', 'f', '--g', '13', '--s', '3'])\n"
            f"added(); emax.cli.main(['analyze', {str(scheme)!r}]); added()")
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert '"f": 48' in run.stdout and '"edge_maximal": true' in run.stdout
    imported, *after_runs = (set(line.split()) for line in run.stderr.splitlines())
    assert {"emax", "emax.cli", "emax.bounds"} <= imported
    assert not imported & {"dataclasses", "inspect", "typing"}
    for added in (imported, *after_runs):
        assert not added & {"argparse", "gettext", "locale"}
