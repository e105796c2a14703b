"""The three workloads: the jobs of one round, their inputs, and the
checks on their outputs.

Each workload function runs one round through `ctx.job`, which times a
job in its own interpreter and returns the parsed record, and checks every
output with `ctx.check` against the computations in `oracle`, outside the
job processes and outside the timed calls.  Inputs the benchmark makes
itself are made inside `ctx.inputs()`, which times them as set-up.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import Callable, NamedTuple

import oracle

# tables: recurrence rows, theorem sweeps and the certified analytic side.
TABLE_N_GMAX = 300  # nonorientable rows g = 1..300
TABLE_S_GMAX = 150  # orientable rows h = 1..150 (Euler genus 2..300)
VERIFY_GMAX = 2000
SWEEP_GENERA = list(range(2, 41)) + [250, 600, 1000]
SAMPLED_ROWS = 3  # rows per table recomputed beyond the published range

# schemes: Proposition 2 schemes of one Euler genus on both surface kinds.
SCHEME_GENUS = 60
EXTRACT_S = 8  # ordered-sequence length asked of the bipartite extracts
FAMILY_G, FAMILY_S = 10, 8

# census: the published genus distributions and the committed fixture.
REGEN_SEED = 11

THEOREMS = {
    # name, factor, per-genus bound, end of the direct range
    "84": ("nonorientable-84", 5, 84, 299),
    "67": ("orientable-67", 4, 67, 670),
}


def tables(ctx) -> None:
    rec = ctx.job("bounds_table_s", ["bounds", "table", "--surface",
                                     "nonorientable", "--gmax",
                                     str(TABLE_N_GMAX), "--format", "csv"])
    lines = rec["stdout"].splitlines()
    ctx.check(lines[0] == "g,surface,schedule,impurity,edge_bound_offset",
              "csv header")
    rows = {}
    for line in lines[1:]:
        g, surface, sched, imp, off = line.split(",")
        rows[int(g)] = (surface, sched.replace(";", ","), int(imp), int(off))
    ctx.check(sorted(rows) == list(range(1, TABLE_N_GMAX + 1))
              and all(r[0] == f"N_{g}" for g, r in rows.items()),
              "nonorientable rows N_1..N_gmax")
    _table_rows(ctx, "nonorientable", 5,
                {g: (s, imp, off) for g, (_, s, imp, off) in rows.items()})

    rec = ctx.job("bounds_table_s", ["bounds", "table", "--surface",
                                     "orientable", "--gmax",
                                     str(TABLE_S_GMAX), "--format", "json"])
    doc = json.loads(rec["stdout"])
    ctx.check([r["g"] for r in doc] == list(range(2, 2 * TABLE_S_GMAX + 1, 2))
              and all(r["surface"] == f"S_{r['g'] // 2}" for r in doc),
              "orientable rows S_1..S_gmax")
    _table_rows(ctx, "orientable", 4,
                {r["g"]: (",".join(map(str, r["schedule"])), r["impurity"],
                          r["edge_bound_offset"]) for r in doc})

    for theorem in ("84", "67"):
        rec = ctx.job("bounds_verify_s", ["bounds", "verify", "--theorem",
                                          theorem, "--gmax", str(VERIFY_GMAX)])
        _verify(ctx, theorem, json.loads(rec["stdout"]))

    rec = ctx.job("certify_s", genera=SWEEP_GENERA)
    doc = json.loads(rec["stdout"])
    ctx.check([r["g"] for r in doc["reports"]] == SWEEP_GENERA, "sweep genera")
    for r in doc["reports"]:
        g = r["g"]
        ctx.check(r["ok"] and not r["failures"] and not r["indeterminate"],
                  f"claim1_consistency({g}) is ok")
        ctx.check(r["checked"] == g, f"claim1_consistency({g}) checks s = 2..g+1")
        ctx.check(r["k"] <= oracle.ceil_sqrt_ratio(3 * (g - 2), 2) + 7,
                  f"claim1_consistency({g}): k = {r['k']} within its bound")
    lo, hi = (Fraction(x) for x in doc["lambda"])
    ref_lo, ref_hi = oracle.lambda_bounds()
    ctx.check(lo <= ref_lo and ref_hi <= hi, "lambda enclosure holds lambda")


def _table_rows(ctx, kind, factor, rows) -> None:
    """Published rows, the identities every row meets, and a seeded sample
    of larger rows recomputed by the plain minimum over c."""
    published = oracle.TABLE_N if kind == "nonorientable" else oracle.TABLE_S
    for g, (sched, imp, off) in rows.items():
        if g in published:
            want = published[g]
            got = (sched, imp, off) if kind == "nonorientable" else (imp, off)
            ctx.check(got == want, f"{kind} row {g} equals the published row")
        f, rem = divmod(imp + 1, factor)
        ctx.check(rem == 0, f"{kind} row {g}: impurity = {factor} f' - 1")
        ctx.check(f >= 2 * g + 3 * (g + 1) - 4, f"{kind} row {g}: f' >= 2g+3s-4")
        ctx.check(off == imp - 3 * (g - 2), f"{kind} row {g}: offset")
        ctx.check(len(sched.split(",") if sched else []) == g - 1,
                  f"{kind} row {g}: schedule length")
    larger = sorted(g for g in rows if g not in published)
    for g in ctx.rng(kind).sample(larger, SAMPLED_ROWS):
        schedule, values = oracle.f_prime(g, g + 1)
        ctx.check(rows[g][0] == ",".join(map(str, schedule))
                  and rows[g][1] == factor * values[-1] - 1,
                  f"{kind} row {g} equals the direct minimisation")


def _verify(ctx, theorem, rep) -> None:
    name, factor, per_g, dp_top = THEOREMS[theorem]
    ctx.check(rep["theorem"] == name and rep["ok"] and rep["violations"] == []
              and rep["checked"] == VERIFY_GMAX
              and rep["direct_range"] == [1, dp_top]
              and rep["analytic_range"] == [dp_top + 1, VERIFY_GMAX],
              f"verify {theorem} report")
    g = rep["min_slack"]["g"]
    slack = Fraction(rep["min_slack"]["slack"])
    ctx.check(slack >= 0, f"verify {theorem}: min slack is nonnegative")
    _, values = oracle.f_prime(g, g + 1)
    direct = per_g * g - (factor * values[-1] - 1)
    if g <= dp_top:
        ctx.check(slack == direct, f"verify {theorem}: min-slack row {g}")
        return
    # analytic row: slack = per_g g - (factor ub - 1), with ub the upper
    # end of lambda (g-2) + 2 ceil(sqrt(3(g-2)/2)) + 33
    lam_lo, _ = oracle.lambda_bounds()
    t = oracle.ceil_sqrt_ratio(3 * (g - 2), 2)
    ref = per_g * g - (factor * (lam_lo * (g - 2) + 2 * t + 33) - 1)
    ctx.check(0 <= ref - slack < Fraction(1, 2 ** 200),
              f"verify {theorem}: analytic slack at row {g}")
    ctx.check(direct >= slack, f"verify {theorem}: recurrence under the "
              f"analytic bound at row {g}")


def schemes(ctx) -> None:
    relabelled = {}
    for kind, flag in (("nonorientable", []), ("orientable", ["--orientable"])):
        out = f"prop2-{kind}.json"
        ctx.job("construct_s", ["construct", "prop2", "--genus",
                                str(SCHEME_GENUS), *flag, "--out", out])
        doc = ctx.read_json(out)
        faces = oracle.Faces(doc)
        n, m = doc["n"], len(doc["edges"])
        ctx.check(faces.genus == SCHEME_GENUS, f"{kind} prop2 genus")
        ctx.check(faces.orientable == (kind == "orientable"),
                  f"{kind} prop2 orientability")
        ctx.check(m == 3 * n - 6 and oracle.is_simple(doc),
                  f"{kind} prop2 is simple with m = 3n - 6")
        ctx.check(3 * (n + faces.genus - 2) - m == 3 * SCHEME_GENUS,
                  f"{kind} prop2 is 3g edges short")
        ctx.check(oracle.faces_are_cliques(doc, faces),
                  f"{kind} prop2 is edge-maximal")
        ctx.check(_planar(n, oracle.simple_pairs(doc)),
                  f"{kind} prop2 graph is planar")
        with ctx.inputs():
            relabelled[kind] = _relabel(doc, ctx.rng(kind))
            ctx.write_json(f"input-{kind}.json", relabelled[kind])

    for kind, doc in relabelled.items():
        rec = ctx.job("pipeline_s", ["analyze", f"input-{kind}.json"])
        ctx.check(json.loads(rec["stdout"]) == _analysis(doc),
                  f"analyze {kind}")

    extracts = {}
    for kind, doc in relabelled.items():
        rec = ctx.job("pipeline_s", ["pipeline", f"input-{kind}.json",
                                     "--mode", kind])
        extracts[kind] = _pipeline(ctx, kind, doc, json.loads(rec["stdout"]))

    for kind, doc in relabelled.items():
        out = f"tri-{kind}.json"
        rec = ctx.job("triangulate_s", ["triangulate", f"input-{kind}.json",
                                        "--out", out])
        ctx.check(json.loads(rec["stdout"]) == {
            "edges_added": 3 * SCHEME_GENUS, "written": out},
            f"triangulate {kind} report")
        tri = ctx.read_json(out)
        before, after = oracle.Faces(doc), oracle.Faces(tri)
        ctx.check(tri["n"] == doc["n"]
                  and after.m == 3 * (after.n + after.genus - 2)
                  and set(after.lengths) == {3},
                  f"triangulate {kind}: every face a triangle, m = 3(n+g-2)")
        ctx.check((after.genus, after.orientable)
                  == (before.genus, before.orientable),
                  f"triangulate {kind}: surface unchanged")

    for kind, (n, edges, part_b) in extracts.items():
        with ctx.inputs():
            ctx.write_text(f"extract-{kind}.txt",
                           oracle.format_edge_list(n, edges, part_b))
        rec = ctx.job(None, ["ordered-seq", f"extract-{kind}.txt",
                             "--s", str(EXTRACT_S)])
        _ordered(ctx, f"extract {kind}", n, edges, part_b, EXTRACT_S,
                 json.loads(rec["stdout"]))

    ctx.job(None, ["construct", "family", "--g", str(FAMILY_G), "--s",
                   str(FAMILY_S), "--out", "family.txt"])
    n, edges, part_b = oracle.parse_edge_list(ctx.read_text("family.txt"))
    deg = _degrees(n, edges)
    ctx.check(n == 8 * FAMILY_S + 2 * FAMILY_G - 11
              and len(part_b) == 2 * FAMILY_G + 3 * FAMILY_S - 4
              and all(deg[b] <= 4 for b in part_b)
              and all((u in part_b) != (v in part_b) for u, v in edges),
              "family graph shape")
    rec = ctx.job(None, ["ordered-seq", "family.txt", "--s", str(FAMILY_S)],
                  ok=(0, 1))
    rep = json.loads(rec["stdout"])
    ctx.check(rep["found"] is False and rep["sequence"] is None,
              "family graph has no ordered s-sequence")


def _analysis(doc) -> dict:
    """The `analyze` report of a scheme of a simple graph."""
    faces = oracle.Faces(doc)
    return {
        "n": faces.n,
        "m": faces.m,
        "faces": faces.lengths,
        "genus": faces.genus,
        "orientable": faces.orientable,
        "simple": oracle.is_simple(doc),
        "triangulation": set(faces.lengths) == {3},
        "edges_short": 3 * (faces.n + faces.genus - 2) - faces.m,
        "edge_maximal": oracle.faces_are_cliques(doc, faces),
    }


def _pipeline(ctx, kind, doc, rep) -> tuple:
    factor = 5 if kind == "nonorientable" else 4
    b = rep["apex_count"]
    ctx.check(rep["mode"] == kind and rep["input"] == _analysis(doc),
              f"pipeline {kind} input analysis")
    ctx.check(rep["edges_added_to_triangulate"] == 3 * SCHEME_GENUS
              <= factor * b - 1 == rep["deficit_bound"],
              f"pipeline {kind}: deficit 3g <= {factor}|B| - 1")
    for stage in ("chorded", "apexed"):
        st = rep[stage]
        ctx.check(sum(st["faces"]) == 2 * st["m"]
                  and 2 - st["n"] + st["m"] - len(st["faces"]) == SCHEME_GENUS,
                  f"pipeline {kind}: {stage} scheme keeps the genus")
    bip = rep["bipartite"]
    n, edges, part_b = bip["n"], [tuple(e) for e in bip["edges"]], set(bip["part_b"])
    deg = _degrees(n, edges)
    ctx.check(len(part_b) == b and len(edges) == bip["m"]
              and all(deg[v] == 4 for v in part_b),
              f"pipeline {kind}: every B vertex has degree 4")
    return n, edges, part_b


def _ordered(ctx, what, n, edges, part_b, s, rep) -> None:
    ctx.check(rep["s"] == s, f"ordered-seq {what}: s")
    if rep["found"]:
        seq = rep["sequence"]
        ctx.check(len(seq) == s and len(set(seq)) == s
                  and set(seq) <= part_b
                  and oracle.is_ordered(n, edges, seq),
                  f"ordered-seq {what}: the sequence is ordered")


def _degrees(n, edges) -> list:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def _planar(n, pairs) -> bool:
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from(pairs)
    return nx.check_planarity(G)[0]


def _relabel(doc, rng) -> dict:
    """The same embedding under new vertex and edge numbers, with each
    edge's ends possibly swapped and each rotation started elsewhere."""
    n, edges = doc["n"], doc["edges"]
    vperm = list(range(n))
    rng.shuffle(vperm)
    eperm = list(range(len(edges)))
    rng.shuffle(eperm)
    swap = [rng.randrange(2) for _ in edges]
    new_edges = [None] * len(edges)
    for e, (u, v, s) in enumerate(edges):
        a, b = (v, u) if swap[e] else (u, v)
        new_edges[eperm[e]] = [vperm[a], vperm[b], s]
    rotation = [None] * n
    for v, rot in enumerate(doc["rotation"]):
        darts = [[eperm[e], end ^ swap[e]] for e, end in rot]
        k = rng.randrange(len(darts))
        rotation[vperm[v]] = darts[k:] + darts[:k]
    return {"n": n, "edges": new_edges, "rotation": rotation}


def census(ctx) -> None:
    graphs = {
        "K5": (5, list(combinations(range(5), 2)), "orientable-only"),
        "K33": (6, [(a, b) for a in range(3) for b in range(3, 6)], "all"),
    }
    for name, (n, edges, mode) in graphs.items():
        with ctx.inputs():
            rng = ctx.rng(name)
            perm = list(range(n))
            rng.shuffle(perm)
            edges = [(perm[u], perm[v]) for u, v in edges]
            rng.shuffle(edges)
            ctx.write_text(f"{name}.txt", oracle.format_edge_list(n, edges))
        rec = ctx.job("enumerate_s", ["enumerate", f"{name}.txt",
                                      "--signature-mode", mode, "--census"])
        _census(ctx, name, n, edges, mode == "all", json.loads(rec["stdout"]))

    rec = ctx.job("regen_s", ["regen-fixture", "--seed", str(REGEN_SEED)])
    rep = json.loads(rec["stdout"])
    scheme = rep["scheme"]
    faces = oracle.Faces(scheme)
    ctx.check(rep["found"] and rep["seed"] == REGEN_SEED
              and rep["analysis"]["genus"] == 2
              and rep["analysis"]["orientable"] is True
              and len(rep["analysis"]["faces"]) == 15,
              "regen-fixture report: 15 faces, genus 2, orientable")
    ctx.check((faces.count, faces.genus, faces.orientable) == (15, 2, True),
              "regen-fixture scheme recounted: 15 faces, genus 2, orientable")
    ctx.check(scheme == {"n": 8, "edges": oracle.k8_c5_edges(),
                         "rotation": [[list(d) for d in rot]
                                      for rot in oracle.K8_C5_ROTATION]},
              "regen-fixture equals the committed fixture")


def _census(ctx, name, n, edges, all_signatures, rep) -> None:
    m = len(edges)
    rotations = 1
    for d in _degrees(n, edges):
        rotations *= factorial(d - 1)
    total = rotations * (2 ** m if all_signatures else 1)
    classes = rep["classes"]
    ctx.check(rep["total"] == total == sum(c["count"] for c in classes),
              f"census {name}: classes sum to prod (deg-1)! * signatures")
    by_handles = {}
    for c in classes:
        ctx.check(sum(c["faces"]) == 2 * m
                  and c["genus"] == 2 - n + m - len(c["faces"])
                  and (c["genus"] % 2 == 0 or not c["orientable"]),
                  f"census {name}: class {c['genus'], c['faces']} is consistent")
        if c["orientable"]:
            h = c["genus"] // 2
            by_handles[h] = by_handles.get(h, 0) + c["count"]
    switchings = 2 ** (n - 1) if all_signatures else 1
    dist = oracle.GENUS_DISTRIBUTION[name]
    want = {h: k * switchings for h, k in enumerate(dist) if k}
    ctx.check(by_handles == want,
              f"census {name}: orientable classes match the genus distribution")


class Workload(NamedTuple):
    run: Callable  # one round
    jobs: int  # jobs in a round
    paths: tuple  # path metrics: summed call time of the jobs named so
    exercised: tuple  # per-layer metrics a traced run must see called


WORKLOADS = {
    "tables": Workload(tables, 5, (
        "bounds_table_s", "bounds_verify_s", "certify_s",
    ), (
        "bounds.optimal_schedule_s", "bounds.optimal_schedule_calls",
        "bounds.recurrence_steps", "bounds.analytic_upper_bound_s",
        "bounds.analytic_context_s", "bounds.analytic_context_calls",
        "bounds.claim1_consistency_s", "intervals.alpha7_interval_s",
        "intervals.ln2_interval_s", "intervals.interval_objects",
        "cli.main_self_s",
    )),
    "schemes": Workload(schemes, 12, (
        "construct_s", "pipeline_s", "triangulate_s",
    ), (
        "embedding.trace_faces_s", "embedding.trace_faces_calls",
        "embedding.states_traced", "embedding.scheme_builds",
        "embedding.scheme_build_s", "embedding.orientability_s",
        "embedding.json_s", "constructions.paste_block_s",
        "constructions.paste_block_calls", "constructions.paste_candidates",
        "constructions.paste_yield", "surgery.chord_faces_s",
        "surgery.insert_apexes_s", "surgery.bipartite_extract_s",
        "surgery.complete_to_triangulation_s",
        "surgery.traces_per_added_edge", "surgery.find_ordered_sequence_s",
        "graphs.parse_edge_list_s", "cli.main_self_s",
    )),
    "census": Workload(census, 3, (
        "enumerate_s", "regen_s",
    ), (
        "embedding.trace_faces_s", "embedding.trace_faces_calls",
        "embedding.states_traced", "embedding.scheme_builds",
        "embedding.scheme_build_s", "embedding.orientability_s",
        "constructions.enumerate_s",
        "constructions.regenerate_k8_c5_fixture_s", "cli.main_self_s",
    )),
}
