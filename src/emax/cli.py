"""Command-line front end.

One binary, subcommand style.  Machine output is JSON (sorted keys, two
space indent) except `bounds table`, which also speaks csv and a padded
pretty format.  Identical invocations print identical bytes; nothing here
emits timestamps or machine-specific paths.

Exit codes: 0 success, 1 verification failure (an invariant or theorem
check did not hold, or `regen-fixture` found no scheme), 2 input error (bad
flags, unreadable or malformed files, out-of-domain parameters).  An
`ordered-seq` search that finds nothing is an answer, not a failure: it
prints `"found": false` and exits 0.

Size caps, sized from their algorithms, refuse runaway inputs up front with
exit 2: `enumerate` covers at most constructions.ENUMERATION_CAP schemes
(10^7, `--cap` overrides it), `bounds f` and `ordered-seq` take an `--s` of
at most bounds.SCHEDULE_STEP_CAP recurrence steps (10^6: `bounds f` takes
about 0.3 s and 31 MB, 16 MB of it the schedule's list and tuple of 10^6
c values), `bounds f` takes a `--g` of at most bounds.SCHEDULE_GENUS_CAP
(10^10: the c scan climbs to about sqrt(6g) one step at a time, about
0.6 s at both caps), `construct kmn` and `construct family` build at most
constructions.CONSTRUCT_EDGE_CAP edges (10^5: at most about 0.6 s and
95 MB), and an edge-list file declares at most
graphs.EDGE_LIST_VERTEX_CAP vertices (10^5, about 45 MB of adjacency
sets).  `construct prop2` takes a `--genus` and `--base-faces` of
at most constructions.PROP2_GENUS_CAP (10^4: every block is pasted on one
scheme editor, so time and memory are linear, about 2 s and 112 MB at the
cap).  `bounds table` stops at the row of Euler genus
bounds.TABLE_GENUS_CAP (3000, so `--gmax` 3000 nonorientable or 1500
orientable: a row carries a schedule of g-1 entries, so time and output
are quadratic, 1.0 to 2.9 s at the cap; every format writes its rows as
they are made, the padded one after a first pass that only takes the
column widths, so memory stays near 18 MB).
`bounds verify` takes a `--gmax` of at most bounds.VERIFY_GMAX_CAP (10^5:
linear, about 1 s).  `regen-fixture` takes `--restarts` and `--iters` of
at least 1 and a restarts * (iters + constructions.REGEN_SETUP_MOVES) of
at most constructions.REGEN_MOVE_CAP (10^7 and 64: a move costs 0.6-1.1 us
and a restart's set-up 31-47 us, so at most about 11 s of climbing).

`enumerate` prints the number of schemes with each vertex's first dart
fixed, from the product formula alone.  With `--census` it groups them by
(genus, orientability, face vector) without building each signed scheme:
switching a vertex (reverse its rotation, negate its signatures) changes
no face, and switching them all reverses every rotation and keeps the
signatures.  So one signature per switching class, positive on a
spanning tree, is traced on one rotation system of each mirror pair and
stands for 2^n schemes (2^(n-1) if no vertex has degree 3 or more).
`--cap` counts the schemes covered, not the traces, so a refusal does not
depend on `--census`.

The interval precision used by the bounds subcommands can be overridden
with the EMAX_PRECISION_BITS environment variable (default 256, at most
bounds.PRECISION_BITS_CAP = 4096 bits).
"""

from __future__ import annotations

import argparse
import json
import sys

from .graphs import (
    Bipartition,
    Graph,
    GraphError,
    format_edge_list,
    parse_edge_list,
)
from .embedding import (
    PseudoEmbedding,
    edges_short,
    is_edge_maximal_embedding,
    is_triangulation,
    scheme_from_json,
    scheme_to_dict,
    surface_info,
    trace_faces,
)
from .constructions import (
    ENUMERATION_CAP,
    _enumeration_total,
    complete_bipartite,
    construct_proposition2,
    graph_q,
    graph_q_scheme,
    k8_minus_c5,
    lower_bound_family,
    regenerate_k8_c5_fixture,
    scheme_census,
    toroidal_embedding_k8_minus_c5,
)
from .surgery import run_lemma5_pipeline, complete_to_triangulation, find_ordered_sequence
from .bounds import (
    BoundsError,
    f_exact_s2,
    optimal_schedule,
    table_rows,
    verify_theorem,
)
from .intervals import PrecisionError


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _json_ints(values):
    """The text _dump gives a list of ints that is the value of a top-level
    key, 4096 items at a time, so a long list is never held whole."""
    if not values:
        yield "[]"
        return
    head = "[\n    "
    for i in range(0, len(values), 4096):
        yield head + ",\n    ".join(map(str, values[i : i + 4096]))
        head = ",\n    "
    yield "\n  ]"


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_scheme(path: str) -> PseudoEmbedding:
    return scheme_from_json(_read_text(path))


def _shape(E: PseudoEmbedding) -> dict:
    return {"n": E.n, "m": E.m, "faces": sorted(w.length for w in trace_faces(E))}


def _analysis(E: PseudoEmbedding) -> dict:
    info = surface_info(E)
    report = {
        **_shape(E),
        "genus": info.euler_genus,
        "orientable": info.orientable,
        "simple": E.is_simple_graph(),
        "triangulation": is_triangulation(E),
    }
    if E.n + info.euler_genus >= 3:
        report["edges_short"] = edges_short(E)
    else:
        report["edges_short"] = None
    if report["simple"]:
        maximal, witness = is_edge_maximal_embedding(E)
        report["edge_maximal"] = maximal
        if not maximal:
            fi, (u, v) = witness
            report["missing_edge"] = {"face": fi, "edge": [u, v]}
    else:
        # maximality is a statement about schemes of simple graphs
        report["edge_maximal"] = None
    return report


def _emit(args, payload: str) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


# construct


def cmd_construct(args) -> int:
    kind = args.kind
    if kind == "prop2":
        E = construct_proposition2(
            args.genus, orientable=args.orientable, base_faces=args.base_faces
        )
        _emit(args, _dump(scheme_to_dict(E)))
    elif kind == "k8c5":
        if args.embedded:
            _emit(args, _dump(scheme_to_dict(toroidal_embedding_k8_minus_c5())))
        else:
            _emit(args, format_edge_list(k8_minus_c5()))
    elif kind == "q":
        if args.embedded:
            _emit(args, _dump(scheme_to_dict(graph_q_scheme())))
        else:
            G, P = graph_q()
            _emit(args, format_edge_list(G, P.part_b))
    elif kind == "family":
        fam = lower_bound_family(args.g, args.s)
        _emit(args, format_edge_list(fam.graph, fam.bipartition.part_b))
    elif kind == "kmn":
        G, P = complete_bipartite(args.a, args.b)
        _emit(args, format_edge_list(G, P.part_b))
    else:  # pragma: no cover - argparse restricts choices
        raise GraphError(f"unknown construction {kind}")
    return 0


def cmd_analyze(args) -> int:
    E = _load_scheme(args.scheme)
    sys.stdout.write(_dump(_analysis(E)))
    return 0


def cmd_pipeline(args) -> int:
    E = _load_scheme(args.scheme)
    rep = run_lemma5_pipeline(E, args.mode)
    H, P = rep.bipartite_extract
    b = len(rep.apex_set)
    factor = 5 if args.mode == "nonorientable" else 4
    payload = {
        "mode": rep.mode,
        "input": _analysis(E),
        "chorded": _shape(rep.chorded_scheme),
        "apexed": _shape(rep.apexed_scheme),
        "apex_count": b,
        "apex_vertices": list(rep.apex_set),
        "edges_added_to_triangulate": rep.edges_added_to_triangulate,
        "deficit_bound": factor * b - 1 if b else 0,
        "bipartite": {
            "n": H.n,
            "m": H.m,
            "part_b": sorted(P.part_b),
            "edges": [list(e) for e in sorted(H.edges)],
        },
    }
    sys.stdout.write(_dump(payload))
    return 0


def cmd_triangulate(args) -> int:
    E = _load_scheme(args.scheme)
    T, added = complete_to_triangulation(E)
    if args.out:
        # write the completed scheme alone so it chains into analyze
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(_dump(scheme_to_dict(T)))
        sys.stdout.write(_dump({"edges_added": added, "written": args.out}))
    else:
        sys.stdout.write(
            _dump({"edges_added": added, "scheme": scheme_to_dict(T)})
        )
    return 0


def cmd_ordered_seq(args) -> int:
    G, part_b = parse_edge_list(_read_text(args.graph))
    if part_b is None:
        raise GraphError("graph file needs a '# part_b: ...' comment")
    P = Bipartition(frozenset(range(G.n)) - part_b, part_b)
    schedule = None
    if args.c_schedule:
        schedule = [int(t) for t in args.c_schedule.replace(",", " ").split()]
    seq = find_ordered_sequence(G, P, args.s, schedule)
    payload = {
        "s": args.s,
        "found": seq is not None,
        "sequence": seq,
        "c_schedule": schedule,
    }
    sys.stdout.write(_dump(payload))
    return 0


def cmd_enumerate(args) -> int:
    G, _ = parse_edge_list(_read_text(args.graph))
    if not args.census:
        total = _enumeration_total(G, args.signature_mode, args.cap)
        sys.stdout.write(_dump({"total": total}))
        return 0
    classes = scheme_census(G, args.signature_mode, args.cap)
    payload = {
        "total": sum(classes.values()),
        "classes": [
            {
                "genus": g,
                "orientable": o,
                "faces": list(lens),
                "count": classes[(g, o, lens)],
            }
            for g, o, lens in sorted(
                classes, key=lambda k: (k[0], not k[1], k[2])
            )
        ],
    }
    sys.stdout.write(_dump(payload))
    return 0


# bounds


def _surface_name(kind: str, g: int) -> str:
    return f"N_{g}" if kind == "nonorientable" else f"S_{g // 2}"


def _table_rows(args):
    if args.gmax < 1:
        raise BoundsError("--gmax must be at least 1")
    if args.surface == "nonorientable":
        g_range = range(1, args.gmax + 1)
    else:
        # one row per handle count h = 1..gmax (Euler genus 2h)
        g_range = range(2, 2 * args.gmax + 1, 2)
    return table_rows(args.surface, g_range, anchor_delta=args.anchor_delta)


def cmd_bounds_table(args) -> int:
    # csv and json rows are written as they are made, the first with the
    # opening text: the anchor f'(g, 2) ascends with g, so a refused shifted
    # anchor fails on the first row, before any output
    rows = _table_rows(args)
    write = sys.stdout.write
    if args.format == "csv":
        head = "g,surface,schedule,impurity,edge_bound_offset\n"
        for r in rows:
            write(
                f"{head}{r.g},{_surface_name(r.surface_kind, r.g)},"
                f"{';'.join(str(c) for c in r.c_schedule)},"
                f"{r.impurity},{r.edge_bound_offset}\n"
            )
            head = ""
        write(head)
    elif args.format == "json":
        # the bytes of _dump(list of rows), one row at a time from a fixed
        # template: every field is an int or an N_g/S_h name, so nothing
        # needs escaping, and json.dumps with indent would run the
        # pure-Python encoder
        sep = "[\n"
        for r in rows:
            schedule = ",\n      ".join(str(c) for c in r.c_schedule)
            schedule = f"[\n      {schedule}\n    ]" if schedule else "[]"
            write(
                f'{sep}  {{\n    "edge_bound_offset": {r.edge_bound_offset},\n'
                f'    "g": {r.g},\n    "impurity": {r.impurity},\n'
                f'    "schedule": {schedule},\n'
                f'    "surface": "{_surface_name(r.surface_kind, r.g)}"\n  }}'
            )
            sep = ",\n"
        write("[]\n" if sep == "[\n" else "\n]\n")
    else:
        def cells(r):
            return (str(r.g), _surface_name(r.surface_kind, r.g),
                    ",".join(str(c) for c in r.c_schedule),
                    str(r.impurity), str(r.edge_bound_offset))

        # a first pass keeps only the column widths and a second writes
        # each padded line, so no cell is held
        header = ("g", "surface", "schedule", "impurity", "offset")
        widths = [len(h) for h in header]
        for r in rows:
            widths = [max(w, len(x)) for w, x in zip(widths, cells(r))]
        fmt = "  ".join("{:<%d}" % w for w in widths) + "\n"
        write(fmt.format(*header))
        for r in _table_rows(args):
            write(fmt.format(*cells(r)))
    return 0


def cmd_bounds_f(args) -> int:
    if args.s < 2:
        raise BoundsError("--s must be at least 2")
    if args.s == 2:
        final, schedule, floored = f_exact_s2(args.g), (), ()
    else:
        res = optimal_schedule(args.g, args.s)
        final, schedule, floored = res.f, res.c_schedule, res.floored_steps
    # the bytes _dump gives {g, s, f, c_schedule, floored_steps}, with each
    # list written a piece at a time: at --s 1000000 the whole text built
    # as one string took 146 MB
    f = int(final) if final.denominator == 1 else str(final)
    write = sys.stdout.write
    write('{\n  "c_schedule": ')
    sys.stdout.writelines(_json_ints(schedule))
    write(f',\n  "f": {json.dumps(f)},\n  "floored_steps": ')
    sys.stdout.writelines(_json_ints(floored))
    write(f',\n  "g": {args.g},\n  "s": {args.s}\n}}\n')
    return 0


def cmd_bounds_verify(args) -> int:
    report = verify_theorem(args.theorem, g_max=args.gmax)
    sys.stdout.write(_dump(report))
    return 0 if report["ok"] else 1


def cmd_regen_fixture(args) -> int:
    E = regenerate_k8_c5_fixture(
        args.seed, restarts=args.restarts, iters=args.iters
    )
    if E is None:
        sys.stdout.write(_dump({"found": False, "seed": args.seed}))
        return 1
    payload = {
        "found": True,
        "seed": args.seed,
        "analysis": _analysis(E),
        "scheme": scheme_to_dict(E),
    }
    sys.stdout.write(_dump(payload))
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="emax",
        description="edge-maximal embeddings toolkit",
    )
    sub = top.add_subparsers(dest="command", required=True)

    con = sub.add_parser("construct", help="build graphs and schemes")
    consub = con.add_subparsers(dest="kind", required=True)
    p = consub.add_parser("prop2", help="planar-underlying edge-maximal scheme")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--orientable", action="store_true")
    p.add_argument("--base-faces", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_construct)
    p = consub.add_parser("k8c5", help="K8 minus a 5-cycle")
    p.add_argument("--embedded", action="store_true",
                   help="emit the toroidal scheme instead of the edge list")
    p.add_argument("--out")
    p.set_defaults(func=cmd_construct)
    p = consub.add_parser("q", help="the 8-vertex quadrangulation graph Q")
    p.add_argument("--embedded", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_construct)
    p = consub.add_parser("family", help="K_{3,2g+2} plus s-2 copies of Q")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_construct)
    p = consub.add_parser("kmn", help="complete bipartite graph")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("analyze", help="surface report for a scheme file")
    p.add_argument("scheme")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("pipeline", help="chord, apex, extract, and audit")
    p.add_argument("scheme")
    p.add_argument("--mode", choices=("nonorientable", "orientable"),
                   required=True)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("triangulate", help="complete a scheme to a triangulation")
    p.add_argument("scheme")
    p.add_argument("--out", help="write the completed scheme JSON here")
    p.set_defaults(func=cmd_triangulate)

    p = sub.add_parser("ordered-seq", help="greedy ordered-sequence search")
    p.add_argument("graph", help="edge list file with a '# part_b:' comment")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--c-schedule", default=None,
                   help="comma separated c values, one per level below the top")
    p.set_defaults(func=cmd_ordered_seq)

    p = sub.add_parser("enumerate", help="exhaust rotation schemes of a small graph")
    p.add_argument("graph")
    p.add_argument("--signature-mode", choices=("orientable-only", "all"),
                   default="orientable-only")
    p.add_argument("--cap", type=int, default=ENUMERATION_CAP)
    p.add_argument("--census", action="store_true",
                   help="group results by (genus, orientability, face vector)")
    p.set_defaults(func=cmd_enumerate)

    b = sub.add_parser("bounds", help="recurrence tables and theorem checks")
    bsub = b.add_subparsers(dest="bounds_command", required=True)
    p = bsub.add_parser("table", help="published-table reproduction")
    p.add_argument("--surface", choices=("nonorientable", "orientable"),
                   required=True)
    p.add_argument("--gmax", type=int, required=True,
                   help="rows: Euler genus 1..gmax, or handles 1..gmax")
    p.add_argument("--format", choices=("csv", "json", "pretty"),
                   default="json")
    p.add_argument("--anchor-delta", type=int, default=0,
                   help="perturb the s=2 anchor (sensitivity checks)")
    p.set_defaults(func=cmd_bounds_table)
    p = bsub.add_parser("f", help="one recurrence value f'(g, s)")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(func=cmd_bounds_f)
    p = bsub.add_parser("verify", help="impurity theorem sweeps")
    p.add_argument("--theorem", choices=("84", "67", "nonorientable-84",
                                         "orientable-67"), required=True)
    p.add_argument("--gmax", type=int, default=2000)
    p.set_defaults(func=cmd_bounds_verify)

    p = sub.add_parser("regen-fixture",
                       help="hill-climb search for the toroidal K8-E(C5) scheme")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--restarts", type=int, default=40)
    p.add_argument("--iters", type=int, default=30000)
    p.set_defaults(func=cmd_regen_fixture)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # GraphError, SchemeError, BoundsError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PrecisionError, RuntimeError) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
