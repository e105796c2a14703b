"""Command-line front end.

One binary, subcommand style.  Machine output is JSON (sorted keys, two
space indent) except `bounds table`, which also speaks csv and a padded
pretty format.  Identical invocations print identical bytes; nothing here
emits timestamps or machine-specific paths.  One writer, `_dump` (on
embedding._json_text), builds that JSON by str joins, with the bytes of
json.dumps(indent=2, sort_keys=True), and writes every scheme from a fixed
template: CPython's json runs only its pure-Python encoder when given an
indent.  The streaming writers of `bounds table` and `bounds f` give the
same bytes.

Parsing reads one table, COMMANDS, the only place where a command, option,
default, choice or help string is written.  Option names are exact (no
prefix abbreviation), a value goes as `--name value` or `--name=value`,
`-h` prints help at every level, and any usage error exits 2.

Exit codes: 0 success, 1 verification failure (an invariant or theorem
check did not hold, or `regen-fixture` found no scheme), 2 input error (bad
flags, unreadable or malformed files, out-of-domain parameters).  An
`ordered-seq` search that finds nothing is an answer, not a failure: it
prints `"found": false` and exits 0.

Size caps refuse runaway inputs up front with exit 2; where a cap was
sized from a measurement, the figures sit beside its constant.
`enumerate` covers at most constructions.ENUMERATION_CAP = 10^7 schemes.
`bounds f` and `ordered-seq` take an `--s` of at most
bounds.SCHEDULE_STEP_CAP = 10^6 recurrence steps, and `bounds f` a `--g`
of at most bounds.SCHEDULE_GENUS_CAP = 10^10.  `construct kmn` and
`construct family` build at most constructions.CONSTRUCT_EDGE_CAP = 10^5
edges, and `construct kmn` at most graphs.EDGE_LIST_VERTEX_CAP vertices,
so that its edge list reads back; an edge-list file declares at most
graphs.EDGE_LIST_VERTEX_CAP = 10^5 vertices.  `construct prop2` takes a
`--genus` and `--base-faces` of at most constructions.PROP2_GENUS_CAP =
10^4.  A scheme file declares at most embedding.SCHEME_SIZE_CAP = 10^5
vertices and as many edges, and `triangulate` refuses a scheme whose
triangulation, of 3(n - 2 + g) edges, would be above it, so every scheme
emax writes reads back.  `bounds table` stops at the row of Euler genus
bounds.TABLE_GENUS_CAP = 3000 (`--gmax` 3000 nonorientable or 1500
orientable).  `bounds verify` takes a `--gmax` of at most
bounds.VERIFY_GMAX_CAP = 10^5.  `regen-fixture` takes `--restarts` and
`--iters` of at least 1 and a restarts * (iters +
constructions.REGEN_SETUP_MOVES) of at most constructions.REGEN_MOVE_CAP
= 10^7 (REGEN_SETUP_MOVES = 64).

`enumerate` prints the number of schemes with each vertex's first dart
fixed, from the product formula alone.  With `--census` it groups them by
(genus, orientability, face vector) without building each signed scheme:
switching a vertex (reverse its rotation, negate its signatures) changes
no face, and switching them all reverses every rotation and keeps the
signatures.  So one signature per switching class, positive on a
spanning tree, on one rotation system per mirror pair stands for 2^n
schemes (2^(n-1) if no vertex has degree 3 or more).  The faces at one
vertex are composed from arcs traced once for all its orders.  The cap
counts schemes, not traces, with or without `--census`.

The interval precision used by the bounds subcommands can be overridden
with the EMAX_PRECISION_BITS environment variable (default 256, at most
bounds.PRECISION_BITS_CAP = 4096 bits).
"""

from __future__ import annotations

import sys
from collections import namedtuple
from types import SimpleNamespace

from .graphs import (
    Bipartition,
    Graph,
    GraphError,
    format_edge_list,
    parse_edge_list,
)
from .embedding import (
    PseudoEmbedding,
    _document,
    _json_text,
    edges_short,
    is_edge_maximal_embedding,
    is_triangulation,
    scheme_from_dict,
    surface_info,
    trace_faces,
)
from .constructions import (
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
    SURFACE_KINDS,
    SURFACES,
    THEOREMS,
    BoundsError,
    optimal_schedule,
    table_rows,
    verify_theorem,
)
from .intervals import PrecisionError


def _dump(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) + "\\n", by the embedding
    layer's join-based writer, which also takes schemes."""
    return _json_text(obj, "\n") + "\n"


def _write(obj) -> int:
    sys.stdout.write(_dump(obj))
    return 0


def _joined(runs, sep: str) -> str:
    """The (c, count) runs expanded and joined by sep."""
    return sep.join([sep.join([str(c)] * count) for c, count in runs])


def _json_ints(runs):
    """The text _dump gives the list of ints that (value, count) runs
    expand to, as the value of a top-level key, at most 4096 items at a
    time, so a long list is never held whole."""
    head, sep = "[\n    ", ",\n    "
    for value, count in runs:
        text = str(value)
        for i in range(0, count, 4096):
            yield head + sep.join([text] * min(4096, count - i))
            head = sep
    yield "[]" if head == "[\n    " else "\n  ]"


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_scheme(path: str) -> PseudoEmbedding:
    # the text is freed once parsed, before the scheme is built
    return scheme_from_dict(_document(_read_text(path)))


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
    report["edges_short"] = edges_short(E) if E.n + info.euler_genus >= 3 else None
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


def _emit(args, payload: str) -> int:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0


# construct


def cmd_prop2(args) -> int:
    E = construct_proposition2(args.genus, orientable=args.orientable,
                               base_faces=args.base_faces)
    return _emit(args, _dump(E))


def cmd_k8c5(args) -> int:
    if args.embedded:
        return _emit(args, _dump(toroidal_embedding_k8_minus_c5()))
    return _emit(args, format_edge_list(k8_minus_c5()))


def cmd_q(args) -> int:
    if args.embedded:
        return _emit(args, _dump(graph_q_scheme()))
    G, P = graph_q()
    return _emit(args, format_edge_list(G, P.part_b))


def cmd_family(args) -> int:
    fam = lower_bound_family(args.g, args.s)
    return _emit(args, format_edge_list(fam.graph, fam.bipartition.part_b))


def cmd_kmn(args) -> int:
    G, P = complete_bipartite(args.a, args.b)
    return _emit(args, format_edge_list(G, P.part_b))


def cmd_analyze(args) -> int:
    return _write(_analysis(_load_scheme(args.scheme)))


def cmd_pipeline(args) -> int:
    E = _load_scheme(args.scheme)
    rep = run_lemma5_pipeline(E, args.mode)
    H, P = rep.bipartite_extract
    b = len(rep.apex_set)
    return _write({
        "mode": rep.mode,
        "input": _analysis(E),
        "chorded": _shape(rep.chorded_scheme),
        "apexed": _shape(rep.apexed_scheme),
        "apex_count": b,
        "apex_vertices": list(rep.apex_set),
        "edges_added_to_triangulate": rep.edges_added_to_triangulate,
        "deficit_bound": SURFACES[args.mode][0] * b - 1 if b else 0,
        "bipartite": {"n": H.n, "m": H.m, "part_b": sorted(P.part_b),
                      "edges": [list(e) for e in sorted(H.edges)]},
    })


def cmd_triangulate(args) -> int:
    E = _load_scheme(args.scheme)
    T, added = complete_to_triangulation(E)
    if args.out:
        # write the completed scheme alone so it chains into analyze
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(_dump(T))
        return _write({"edges_added": added, "written": args.out})
    return _write({"edges_added": added, "scheme": T})


def cmd_ordered_seq(args) -> int:
    G, part_b = parse_edge_list(_read_text(args.graph))
    if part_b is None:
        raise GraphError("graph file needs a '# part_b: ...' comment")
    P = Bipartition(frozenset(range(G.n)) - part_b, part_b)
    schedule = None if args.c_schedule is None else []
    for t in (args.c_schedule or "").replace(",", " ").split():
        try:
            schedule.append(int(t))
        except ValueError:
            raise ValueError(f"--c-schedule: {t!r} is not an integer") from None
    seq = find_ordered_sequence(G, P, args.s, schedule)
    return _write({"s": args.s, "found": seq is not None, "sequence": seq,
                   "c_schedule": schedule})


def cmd_enumerate(args) -> int:
    G, _ = parse_edge_list(_read_text(args.graph))
    if not args.census:
        return _write({"total": _enumeration_total(G, args.signature_mode)})
    classes = scheme_census(G, args.signature_mode)
    return _write({"total": sum(classes.values()), "classes": [
        {"genus": g, "orientable": o, "faces": list(lens),
         "count": classes[(g, o, lens)]}
        for g, o, lens in sorted(classes, key=lambda k: (k[0], not k[1], k[2]))
    ]})


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
                f"{_joined(r.runs, ';')},"
                f"{r.impurity},{r.edge_bound_offset}\n"
            )
            head = ""
        write(head)
    elif args.format == "json":
        # the bytes of _dump(list of rows), one row at a time from a fixed
        # template, as _dump writes a scheme: every field is an int or an
        # N_g/S_h name, so nothing needs escaping, and no row is held
        sep = "[\n"
        for r in rows:
            schedule = _joined(r.runs, ",\n      ")
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
        def cells(r, schedule=""):
            return (str(r.g), _surface_name(r.surface_kind, r.g), schedule,
                    str(r.impurity), str(r.edge_bound_offset))

        # the rows, a few runs of c each, are kept from the pass that takes
        # the column widths, and no cell is held: a schedule's width comes
        # from its runs, count entries and a comma after all but the last,
        # so each schedule string is built once, for its line
        rows = list(rows)
        header = ("g", "surface", "schedule", "impurity", "offset")
        widths = [len(h) for h in header]
        for r in rows:
            widths = [max(w, len(x)) for w, x in zip(widths, cells(r))]
            widths[2] = max(widths[2], sum(
                [count * (len(str(c)) + 1) for c, count in r.runs]) - 1)
        fmt = "  ".join("{:<%d}" % w for w in widths) + "\n"
        write(fmt.format(*header))
        for r in rows:
            write(fmt.format(*cells(r, _joined(r.runs, ","))))
    return 0


def cmd_bounds_f(args) -> int:
    if args.s < 2:
        raise BoundsError("--s must be at least 2")
    runs, final, floored = optimal_schedule(args.g, args.s)
    # the bytes _dump gives {g, s, f, c_schedule, floored_steps}, with each
    # list written from runs a piece at a time: at --s 1000000 the whole
    # text built as one string took 146 MB, and the expanded schedule 16 MB.
    # f is an int: optimal_schedule floors every step by default
    write = sys.stdout.write
    write('{\n  "c_schedule": ')
    sys.stdout.writelines(_json_ints(runs))
    write(f',\n  "f": {final},\n  "floored_steps": ')
    sys.stdout.writelines(_json_ints((s, 1) for s in floored))
    write(f',\n  "g": {args.g},\n  "s": {args.s}\n}}\n')
    return 0


def cmd_bounds_verify(args) -> int:
    report = verify_theorem(args.theorem, g_max=args.gmax)
    _write(report)
    return 0 if report["ok"] else 1


def cmd_regen_fixture(args) -> int:
    E = regenerate_k8_c5_fixture(args.seed, restarts=args.restarts, iters=args.iters)
    if E is None:
        _write({"found": False, "seed": args.seed})
        return 1
    return _write({"found": True, "seed": args.seed, "analysis": _analysis(E),
                   "scheme": E})


# the command line: COMMANDS maps each command path to (handler, help,
# options), with no handler for a group.  An option's type is int, str or
# bool (a flag); a name without dashes is a positional, and an option
# without a default must be given.

_REQUIRED = object()
_Opt = namedtuple("_Opt", "name type default choices help",
                  defaults=(str, _REQUIRED, None, ""))
_OUT = _Opt("--out", str, None)
COMMANDS = {
    (): (None, "edge-maximal embeddings toolkit", ()),
    ("construct",): (None, "build graphs and schemes", ()),
    ("construct", "prop2"): (cmd_prop2, "planar-underlying edge-maximal scheme", (
        _Opt("--genus", int), _Opt("--orientable", bool, False),
        _Opt("--base-faces", int, None), _OUT)),
    ("construct", "k8c5"): (cmd_k8c5, "K8 minus a 5-cycle", (_Opt(
        "--embedded", bool, False,
        help="emit the toroidal scheme instead of the edge list"), _OUT)),
    ("construct", "q"): (cmd_q, "the 8-vertex quadrangulation graph Q",
                         (_Opt("--embedded", bool, False), _OUT)),
    ("construct", "family"): (cmd_family, "K_{3,2g+2} plus s-2 copies of Q",
                              (_Opt("--g", int), _Opt("--s", int), _OUT)),
    ("construct", "kmn"): (cmd_kmn, "complete bipartite graph",
                           (_Opt("--a", int), _Opt("--b", int), _OUT)),
    ("analyze",): (cmd_analyze, "surface report for a scheme file",
                   (_Opt("scheme"),)),
    ("pipeline",): (cmd_pipeline, "chord, apex, extract, and audit",
                    (_Opt("scheme"), _Opt("--mode", choices=SURFACE_KINDS))),
    ("triangulate",): (cmd_triangulate, "complete a scheme to a triangulation", (
        _Opt("scheme"),
        _Opt("--out", str, None, help="write the completed scheme JSON here"))),
    ("ordered-seq",): (cmd_ordered_seq, "greedy ordered-sequence search", (
        _Opt("graph", help="edge list file with a '# part_b:' comment"),
        _Opt("--s", int), _Opt("--c-schedule", str, None, help=(
            "comma separated c values, one per level below the top")))),
    ("enumerate",): (cmd_enumerate, "exhaust rotation schemes of a small graph", (
        _Opt("graph"),
        _Opt("--signature-mode", str, "orientable-only", ("orientable-only", "all")),
        _Opt("--census", bool, False, help=(
            "group results by (genus, orientability, face vector)")))),
    ("bounds",): (None, "recurrence tables and theorem checks", ()),
    ("bounds", "table"): (cmd_bounds_table, "published-table reproduction", (
        _Opt("--surface", choices=SURFACE_KINDS),
        _Opt("--gmax", int, help="rows: Euler genus 1..gmax, or handles 1..gmax"),
        _Opt("--format", str, "json", ("csv", "json", "pretty")),
        _Opt("--anchor-delta", int, 0,
             help="perturb the s=2 anchor (sensitivity checks)"))),
    ("bounds", "f"): (cmd_bounds_f, "one recurrence value f'(g, s)",
                      (_Opt("--g", int), _Opt("--s", int))),
    ("bounds", "verify"): (cmd_bounds_verify, "impurity theorem sweeps", (
        _Opt("--theorem", choices=tuple(THEOREMS)),
        _Opt("--gmax", int, 2000))),
    ("regen-fixture",): (
        cmd_regen_fixture, "hill-climb search for the toroidal K8-E(C5) scheme",
        (_Opt("--seed", int), _Opt("--restarts", int, 40),
         _Opt("--iters", int, 30000))),
}


def _subcommands(path: tuple) -> list:
    return [p[-1] for p in COMMANDS if p and p[:-1] == path]


def _usage(path: tuple) -> str:
    words = ["usage: emax", *path, "[-h]"]
    if COMMANDS[path][0] is None:
        words.append("{%s} ..." % ",".join(_subcommands(path)))
    for name, type, default, choices, _ in COMMANDS[path][2]:
        if name[0] == "-" and type is not bool:
            name += " " + ("{%s}" % ",".join(choices) if choices
                           else name[2:].upper())
        words.append(name if default is _REQUIRED else f"[{name}]")
    return " ".join(words) + "\n"


def _help(path: tuple):
    handler, text, options = COMMANDS[path]
    rows = ([(p, COMMANDS[path + (p,)][1]) for p in _subcommands(path)]
            if handler is None else [(o.name, o.help) for o in options])
    sys.stdout.write(f"{_usage(path)}\n{text}\n\n" + "".join(
        f"  {name:<18}{help}".rstrip() + "\n" for name, help in rows))
    raise SystemExit(0)


def _fail(path: tuple, message: str):
    prog = " ".join(("emax", *path))
    sys.stderr.write(f"{_usage(path)}{prog}: error: {message}\n")
    raise SystemExit(2)


def _is_value(word: str) -> bool:
    # '-' and negative numbers such as -100 are values, not option names
    return word[:1] != "-" or word == "-" or word[1:].replace(".", "", 1).isdigit()


def parse_args(argv):
    """A namespace of the handler (`func`) and the option values that argv
    asks for, read against COMMANDS; -h prints help and exits 0, and a
    usage error prints a usage line and the error and exits 2."""
    path, rest = (), []
    for word in argv:  # --name=value is --name value
        rest += word.split("=", 1) if word[:2] == "--" else [word]
    while COMMANDS[path][0] is None:
        subs = _subcommands(path)
        word = rest.pop(0) if rest else _fail(
            path, "the following arguments are required: command")
        if word in ("-h", "--help"):
            _help(path)
        if word not in subs:
            _fail(path, f"argument command: invalid choice: {word!r} "
                        f"(choose from {', '.join(map(repr, subs))})")
        path += (word,)
    handler, _, options = COMMANDS[path]
    named = {o.name: o for o in options if o.name[0] == "-"}
    positionals = [o for o in options if o.name[0] != "-"]
    values, extras = {o.name: o.default for o in options}, []
    while rest:
        word = rest.pop(0)
        if word in ("-h", "--help"):
            _help(path)
        if _is_value(word) and positionals:
            o, value = positionals.pop(0), word
        elif word in named:
            o, value = named[word], True
            if o.type is not bool:
                if not rest or not _is_value(rest[0]):
                    _fail(path, f"argument {word}: expected one argument")
                value = rest.pop(0)
        else:
            extras.append(word)
            continue
        try:
            values[o.name] = value = o.type(value)
        except ValueError:
            _fail(path, f"argument {o.name}: invalid int value: {value!r}")
        if o.choices and value not in o.choices:
            _fail(path, f"argument {o.name}: invalid choice: {value!r} "
                        f"(choose from {', '.join(map(repr, o.choices))})")
    missing = [name for name, value in values.items() if value is _REQUIRED]
    if missing:
        _fail(path, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _fail(path, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(func=handler, **{
        name.lstrip("-").replace("-", "_"): v for name, v in values.items()})


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
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
