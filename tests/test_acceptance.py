"""The acceptance gate: one test per criterion, one recorded verdict each.

Every test records PASS/FAIL through conftest.record; the terminal
summary prints the block after the normal pytest output.  Two criteria
are expected to fail and do so with the measured facts in their detail
lines: the certified decimal of the analytic slope lies outside its
quoted 4-decimal window, and the greedy ordered-sequence search is
myopic, so it misses sequences the exhaustive search finds on a small
fraction of random instances.  Those tests assert the failure honestly
instead of loosening the check.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import (
    ACCEPTANCE,
    brute_force_ordered,
    is_clique,
    is_k_connected,
    is_locally_hamiltonian,
    is_planar,
    min_degree,
    random_bipartite_instance,
    record,
)
from test_bounds import TABLE_N, TABLE_S

from emax import (
    PseudoEmbedding,
    alpha7_interval,
    analytic_context,
    ceil_sqrt,
    chord_faces,
    chord_positions,
    claim1_consistency,
    cli,
    complete_bipartite,
    complete_graph,
    construct_proposition2,
    edges_short,
    f_exact_s2,
    find_ordered_sequence,
    generate_table,
    graph_q,
    insert_apexes,
    is_edge_maximal_embedding,
    lambda_interval,
    optimal_schedule,
    run_lemma5_pipeline,
    scheme_census,
    face_split_count,
    surface_info,
    toroidal_embedding_k8_minus_c5,
    trace_faces,
    verify_theorem,
)


@contextmanager
def criterion(num: int):
    """Record an unexpected exception as the criterion's FAIL detail."""
    try:
        yield
    except BaseException as exc:
        if num not in ACCEPTANCE:
            msg = str(exc) or type(exc).__name__
            record(num, False, f"{type(exc).__name__}: {msg}"[:300])
        raise


def csv_rows(capsys, surface: str):
    code = cli.main(["bounds", "table", "--surface", surface,
                     "--gmax", "20", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "g,surface,schedule,impurity,edge_bound_offset"
    return [line.split(",") for line in lines[1:]]


def test_criterion_1_nonorientable_table(capsys):
    with criterion(1):
        t0 = time.time()
        rows = csv_rows(capsys, "nonorientable")
        assert len(rows) == 20
        for g_s, name, sched, imp, off in rows:
            g = int(g_s)
            want_sched, want_imp, want_off = TABLE_N[g]
            assert name == f"N_{g}"
            assert sched == want_sched.replace(",", ";"), f"schedule at g={g}"
            assert int(imp) == want_imp, f"impurity at g={g}"
            assert int(off) == want_off, f"offset at g={g}"
        dt = time.time() - t0
        assert dt < 1.0
        record(1, True, "all 20 rows exact (schedule, impurity, "
                        f"edge-bound offset); {dt:.2f}s")


def test_criterion_2_orientable_table(capsys):
    with criterion(2):
        t0 = time.time()
        rows = csv_rows(capsys, "orientable")
        assert len(rows) == 20
        for g_s, name, _sched, imp, off in rows:
            g = int(g_s)
            want_imp, want_off = TABLE_S[g]
            assert name == f"S_{g // 2}"
            assert int(imp) == want_imp, f"impurity at g={g}"
            assert int(off) == want_off, f"offset at g={g}"
        dt = time.time() - t0
        assert dt < 1.0
        record(2, True, "all 20 rows exact (impurity, edge-bound offset, "
                        f"surface names S_1..S_20); {dt:.2f}s")


def test_criterion_3_direct_verification_sweeps():
    with criterion(3):
        t0 = time.time()
        details = []
        for which, top in (("84", 299), ("67", 670)):
            rep = verify_theorem(which, g_max=top)
            assert rep["ok"] is True and rep["violations"] == []
            assert rep["direct_range"] == [1, top]
            assert rep["analytic_range"] is None  # pure recurrence sweep
            slack = Fraction(rep["min_slack"]["slack"])
            assert slack >= 0
            details.append(
                f"{rep['theorem']} holds for g=1..{top} by exact recurrence "
                f"(min slack {slack} at g={rep['min_slack']['g']})"
            )
        dt = time.time() - t0
        assert dt < 10.0
        record(3, True, "; ".join(details) + f"; {dt:.1f}s")


def test_criterion_4_analytic_constants_and_structure():
    with criterion(4):
        t0 = time.time()
        a7 = alpha7_interval()
        a7_lo = Fraction(758757, 10**6) - Fraction(5, 10**7)
        a7_hi = Fraction(758757, 10**6) + Fraction(5, 10**7)
        a7_ok = a7_lo <= a7.lo and a7.hi <= a7_hi

        lam = lambda_interval()
        lam_lo = Fraction(166533, 10**4) - Fraction(5, 10**5)
        lam_hi = Fraction(166533, 10**4) + Fraction(5, 10**5)
        lam_ok = lam_lo <= lam.lo and lam.hi <= lam_hi
        lam_gap = float(lam.lo - lam_hi)

        beta_exceptions = []
        for g in range(2, 201):
            rep = claim1_consistency(g)
            assert rep["ok"], f"claim consistency failed at g={g}: {rep}"
            if g >= 3:
                ctx = analytic_context(g)
                assert ctx.k <= ceil_sqrt(3 * (g - 2), 2) + 7, f"k cap at g={g}"
                assert rep["E7_le_2k_minus_3"] is True, f"E7 bound at g={g}"
                if ctx.beta[ctx.k] != 2:
                    beta_exceptions.append((g, ctx.beta[ctx.k]))
        dt = time.time() - t0
        assert dt < 30.0

        ok = a7_ok and lam_ok and not beta_exceptions
        detail = (
            f"alpha7 certified {float(a7.midpoint()):.15f} inside "
            f"0.758757+-5e-7: {a7_ok}; lambda certified "
            f"{float(lam.midpoint()):.15f} inside 16.6533+-5e-5: {lam_ok} "
            f"(lower endpoint exceeds the window's top by {lam_gap:.2e}); "
            f"beta_k=2 fails at {[g for g, _ in beta_exceptions]} where "
            f"beta_k=1, holds for the other {198 - len(beta_exceptions)} "
            f"genera in 3..200; k-cap, E7<=2k-3 and claim consistency hold "
            f"everywhere checked; {dt:.1f}s"
        )
        record(4, ok, detail)
        assert ok, detail


def test_criterion_5_sandwich_and_dominance():
    with criterion(5):
        t0 = time.time()
        for g in range(1, 1001):
            fin = optimal_schedule(g, g + 1).f
            if g <= 100:
                for s in range(2, g + 2):
                    assert optimal_schedule(g, s).f >= 2 * g + 3 * s - 4, (g, s)
            if g >= 2:
                assert fin <= Fraction(10, 3) * (5 * g - 1), g
            if g >= 4:
                assert fin <= 21 * g - 29, g
        dt = time.time() - t0
        assert dt < 10.0
        record(5, True,
               "2g+3s-4 <= f'(g,s) for g<=100 and every s; f'(g,g+1) <= "
               "(10/3)(5g-1) for g in 2..1000 and <= 21g-29 for g in "
               f"4..1000; {dt:.1f}s")


def test_criterion_6_enumeration_and_fixture():
    with criterion(6):
        t0 = time.time()
        classes = scheme_census(complete_graph(4), "all")
        assert sum(classes.values()) == 1024
        assert (1, False, (3, 3, 6)) in classes, "no crosscap 3,3,6 scheme"
        assert (2, True, (3, 9)) in classes, "no double-torus 3,9 scheme"

        E = toroidal_embedding_k8_minus_c5()
        info = surface_info(E)
        assert info.euler_genus == 2 and info.orientable is True
        assert is_edge_maximal_embedding(E)[0] is True
        lens = sorted(w.length for w in trace_faces(E))
        assert lens == [3] * 14 + [4]
        quad = [w for w in trace_faces(E) if w.length == 4][0]
        vs = sorted(quad.distinct_vertices())
        assert len(vs) == 4 and is_clique(E.simple_graph(), vs)
        assert edges_short(E) == 1
        dt = time.time() - t0
        assert dt < 5.0
        record(6, True,
               "1024-scheme K4 census contains (g=1, faces 3,3,6) and "
               "(g=2, orientable, faces 3,9); fixture is genus-2 orientable, "
               "edge-maximal, one 4-face inducing a 4-clique, 1 edge short; "
               f"{dt:.1f}s")


PROP2_CASES = [(g, False) for g in (1, 2, 3, 4, 5)] + \
              [(g, True) for g in (2, 4, 6)]


def test_criterion_7_constructions():
    with criterion(7):
        t0 = time.time()
        for g, orientable in PROP2_CASES:
            E = construct_proposition2(g, orientable)
            info = surface_info(E)
            assert info.euler_genus == g and info.orientable is orientable
            assert is_edge_maximal_embedding(E)[0] is True, (g, orientable)
            assert edges_short(E) == 3 * g, (g, orientable)
            G = E.simple_graph()
            assert is_planar(G), (g, orientable)
            assert min_degree(G) >= 3, (g, orientable)
            assert is_locally_hamiltonian(G), (g, orientable)
            assert is_k_connected(G, 3), (g, orientable)
        dt = time.time() - t0
        assert dt < 10.0
        record(7, True,
               "8 outputs (crosscap g=1..5, handle g=2,4,6): right surface, "
               "edge-maximal, planar underlying graph, exactly 3g edges "
               "short, min degree >= 3, locally hamiltonian, 3-connected; "
               f"{dt:.1f}s")


def cycle_scheme(t: int) -> PseudoEmbedding:
    edges = [(i, i + 1, 1) for i in range(t - 1)] + [(0, t - 1, 1)]
    rot = [[(t - 1, 0), (0, 0)]]
    rot += [[(i - 1, 1), (i, 0)] for i in range(1, t - 1)]
    rot += [[(t - 2, 1), (t - 1, 1)]]
    return PseudoEmbedding(t, edges, rot)


def test_criterion_8_surgery():
    with criterion(8):
        t0 = time.time()
        for t in range(4, 1001):
            for mode, factor in (("nonorientable", 5), ("orientable", 4)):
                split = face_split_count(t, mode)
                assert len(chord_positions(t, mode)) + 1 == split, (t, mode)
                assert t - 3 <= factor * split - 1, (t, mode)
        for t in range(4, 61):
            for mode in ("nonorientable", "orientable"):
                E = cycle_scheme(t)  # two faces of length t, genus 0
                C = chord_faces(E, mode)
                info = surface_info(C)
                assert (info.euler_genus, info.orientable) == (0, True)
                assert len(trace_faces(C)) == 2 * face_split_count(t, mode)
                A, apexes = insert_apexes(C)
                long_faces = sum(
                    1 for w in trace_faces(C) if w.length > 3
                )
                assert len(apexes) == long_faces
                info2 = surface_info(A)
                assert (info2.euler_genus, info2.orientable) == (0, True)
        for g, orientable in PROP2_CASES:
            mode = "orientable" if orientable else "nonorientable"
            factor = 4 if orientable else 5
            E = construct_proposition2(g, orientable)
            rep = run_lemma5_pipeline(E, mode)
            b = len(rep.apex_set)
            assert edges_short(E) <= factor * b - 1, (g, orientable)
            assert rep.edges_added_to_triangulate == edges_short(E)
        dt = time.time() - t0
        assert dt < 10.0
        record(8, True,
               "chord-count identities hold for every face length in "
               "4..1000 (both modes); chording plus apexing random-length "
               "faces t=4..60 preserves the surface with the exact split "
               "counts; the pipeline deficit law 3g <= factor*|B|-1 holds "
               f"on all 8 construction outputs; {dt:.1f}s")


def test_criterion_9_ordered_sequence_agreement():
    with criterion(9):
        t0 = time.time()
        rng = random.Random(20260817)
        disagreements = []
        for i in range(500):
            G, P = random_bipartite_instance(rng)
            for s in (2, 3):
                got = find_ordered_sequence(G, P, s)
                want = brute_force_ordered(G, P.part_b, s)
                if got is not None:
                    # success is verified inside the search; a sequence in
                    # hand means the exhaustive search must find one too
                    assert want is not None, (i, s, got)
                elif want is not None:
                    disagreements.append((i, s))
        per_s = {s: sum(1 for _, t in disagreements if t == s) for s in (2, 3)}
        # frozen profile of the miss rate; drift here should be loud
        assert len(disagreements) == 23 and per_s == {2: 3, 3: 20}, (
            f"measured miss profile changed: {len(disagreements)} "
            f"disagreements, per-s {per_s}"
        )

        no_pair = [graph_q()]
        no_pair += [complete_bipartite(3, 2 * g + 2) for g in (1, 2, 3)]
        for G, P in no_pair:
            assert find_ordered_sequence(G, P, 2) is None
            assert brute_force_ordered(G, P.part_b, 2) is None
        dt = time.time() - t0
        assert dt < 60.0

        ok = not disagreements
        detail = (
            "greedy search missed an existing sequence in 23/1000 trials "
            "(500 seeded random graphs x s in {2,3}; first miss at graph 5 "
            "with s=2; 3 misses at s=2, 20 at s=3); it never returned a "
            "sequence the exhaustive search refutes, and the no-ordered-pair "
            "cases (Q, K_{3,4}, K_{3,6}, K_{3,8}) agree in both searches; "
            f"{dt:.1f}s"
        )
        record(9, ok, detail)
        assert ok, detail


def test_criterion_10_anchor_sensitivity():
    with criterion(10):
        t0 = time.time()
        assert f_exact_s2(0) == 3
        for g in range(1, 21):
            assert f_exact_s2(g) == 2 * g + 2
        base = generate_table("nonorientable", range(1, 21))
        changed = {}
        for delta in (-1, 1):
            moved = generate_table("nonorientable", range(1, 21),
                                   anchor_delta=delta)
            diff = [r.g for r, q in zip(base, moved)
                    if (r.c_schedule, r.impurity) != (q.c_schedule, q.impurity)]
            assert diff, f"anchor delta {delta} changed nothing"
            changed[delta] = len(diff)
        dt = time.time() - t0
        assert dt < 1.0
        record(10, True,
               "anchors f(2)=3 (plane) and 2g+2 verified for g<=20; shifting "
               f"the anchor by -1/+1 changes {changed[-1]}/{changed[1]} of "
               f"the 20 table rows; {dt:.2f}s")
