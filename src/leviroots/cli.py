"""Command-line front end.

Verbs map one-to-one onto library entry points and emit versioned JSON
documents on stdout (``--pretty`` switches to aligned tables, ``--dot``
on the bds verb to Graphviz text).  Exit status: 0 on success, 1 on
invalid arguments or input, 2 when ``check`` finds an invariant
failure.  Output carries no timestamps or environment data, so equal
invocations produce byte-identical bytes.

Each verb imports the modules it runs inside its own branch of ``run``,
so a process loads ``rootsys`` for every verb and ``checks`` only for
``check``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import InvalidCartan, InvalidRank, LeviRootsError
from .rootsys import DEFAULT_MAX_RANK, RootSystem, decimal, generate, root_system


def _int(text: str) -> int:
    number = decimal(text)
    if number is None:  # argparse's own text for a type=int argument
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return number


def _node_list(text: str) -> tuple[int, ...]:
    entries = text.split(",") if text.strip() else []  # --keep "" is the Borel
    if "" in map(str.strip, entries):
        raise argparse.ArgumentTypeError(f"empty entry in {text!r}")
    nodes = tuple(decimal(entry.strip()) for entry in entries)
    if None in nodes:  # argparse names the text: invalid _node_list value: '1,a'
        raise ValueError(text)
    return nodes


def _load_cartan(path: str):
    """Read a Cartan matrix from JSON: rows, or {"cartan": rows} with no other key.

    Only the JSON and the rank cap (DEFAULT_MAX_RANK, like named types) are
    read here; ``generate`` validates the shape and the entries, so floats
    and booleans are rejected, never rounded.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidCartan(str(exc)) from None
    if isinstance(data, dict):
        if "cartan" not in data:
            raise InvalidCartan('the JSON object has no "cartan" key')
        extra = ", ".join(json.dumps(k) for k in sorted(data.keys() - {"cartan"}))
        if extra:  # a key that nothing reads is rejected, never dropped
            raise InvalidCartan(f'the JSON object has keys other than "cartan": {extra}')
        data = data["cartan"]
    if isinstance(data, list) and len(data) > DEFAULT_MAX_RANK:
        raise InvalidRank(f"rank {len(data)} exceeds the configured maximum {DEFAULT_MAX_RANK}")
    return data


def _resolve_system(args) -> RootSystem:
    # a selector that another one would override is an error, never ignored
    if args.type and args.cartan:
        raise LeviRootsError("give either a type or --cartan, not both")
    if getattr(args, "dot", False) and args.pretty:
        raise LeviRootsError("give either --dot or --pretty, not both")
    if args.cartan:
        try:  # every error about the file starts with its path
            return generate(_load_cartan(args.cartan))
        except LeviRootsError as exc:
            raise type(exc)(f"{args.cartan}: {exc}") from None
    if not args.type:
        raise LeviRootsError("a type (like E8) or --cartan FILE is required")
    return root_system(args.type, max_rank=DEFAULT_MAX_RANK)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true",
                        help="aligned tables instead of JSON")

    typed = argparse.ArgumentParser(add_help=False)
    typed.add_argument("type", nargs="?",
                       help="simple type, family letter plus rank (A1..G2)")
    typed.add_argument("--cartan", metavar="FILE",
                       help="JSON file holding an explicit Cartan matrix")

    parabolic = argparse.ArgumentParser(add_help=False)
    group = parabolic.add_mutually_exclusive_group(required=True)
    group.add_argument("--keep", type=_node_list,
                       help="kept node indices, comma separated (empty = Borel)")
    group.add_argument("--delete", type=_node_list,
                       help="deleted node indices, comma separated")

    parser = argparse.ArgumentParser(
        prog="leviroots",
        description="Root systems restricted to parabolic centers, "
                    "central series, and equal-rank subalgebras.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    sub.add_parser("roots", parents=[common, typed],
                   help="generate the root system")

    sub.add_parser("troots", parents=[common, typed, parabolic],
                   help="restricted root spaces of a parabolic")
    sub.add_parser("series", parents=[common, typed, parabolic],
                   help="grading and central series of the nilradical")

    p = sub.add_parser("bds", parents=[common, typed],
                       help="equal-rank subalgebras from the extended diagram")
    p.add_argument("--node", type=_int, help="restrict to one node")
    p.add_argument("--dot", action="store_true",
                   help="emit the extended diagram as Graphviz DOT")

    sub.add_parser("maximal", parents=[common, typed],
                   help="maximal equal-rank subalgebras (prime marks)")

    p = sub.add_parser("sln", parents=[common],
                       help="block table for a composition of n")
    p.add_argument("blocks", type=_node_list,
                   help="block sizes, comma separated (e.g. 2,1)")

    p = sub.add_parser("check", parents=[common, typed],
                       help="run the invariant suite")
    p.add_argument("--all-parabolics", action="store_true",
                   help="sweep every designation instead of Borel + maximals")
    p.add_argument("--max-rank", type=_int, metavar="R",
                   help="without a type: sweep all simple types of rank <= R")
    return parser


# ---------------------------------------------------------------------------
# pretty renderers (operate on the emitted JSON documents)


def _table(header: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    def fmt(row):
        return "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
    lines = [fmt(header), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)


def _vec(v) -> str:
    return "(" + ",".join(str(c) for c in v) + ")"


def _pretty_roots(doc: dict) -> str:
    head = (
        f"type {doc['type'] or '(explicit)'}  rank {doc['rank']}  "
        f"roots {doc['count']}  highest {_vec(doc['highest_root'])}"
    )
    rows = [[str(sum(r)), _vec(r)] for r in doc["positives"]]
    return head + "\n" + _table(["height", "root"], rows)


def _pretty_troots(doc: dict) -> str:
    head = (
        f"type {doc['type'] or '(explicit)'}  deleted {doc['deleted']}  "
        f"t-roots {len(doc['spaces'])}  trace {_vec(doc['trace_vector'])}"
    )
    rows = [
        [_vec(s["key"]), str(s["dim"]), _vec(s["highest"]), _vec(s["lowest"])]
        for s in doc["spaces"]
    ]
    return head + "\n" + _table(["key", "dim", "highest", "lowest"], rows)


def _pretty_series(doc: dict) -> str:
    head = f"type {doc['type'] or '(explicit)'}  deleted {doc['deleted']}  k_cent {doc['k_cent']}"
    rows = [
        [str(level["order"]), str(len(level["keys"])),
         " ".join(_vec(k) for k in level["keys"])]
        for level in doc["levels"]
    ]
    body = _table(["order", "spaces", "keys"], rows)
    sizes = [
        [str(i + 1), str(len(up)), str(len(low))]
        for i, (up, low) in enumerate(zip(doc["upper"], doc["lower"]))
    ]
    tail = _table(["index", "upper roots", "lower roots"], sizes)
    return head + "\n" + body + "\n" + tail


def _pretty_bds(doc: dict) -> str:
    head = f"type {doc['type'] or '(explicit)'}  marks {_vec(doc['marks'])}  links {_vec(doc['links'])}"
    rows = [
        [str(n["node"]), str(n["mark"]), "yes" if n["maximal"] else "no",
         "+".join(n["subalgebra"]), str(n["subalgebra_root_count"]),
         " ".join(str(r["size"]) for r in n["residues"]) or "-"]
        for n in doc["nodes"]
    ]
    return head + "\n" + _table(
        ["node", "mark", "maximal", "subalgebra", "roots", "residue sizes"], rows)


def _pretty_maximal(doc: dict) -> str:
    rows = [
        [str(e["node"]), str(e["mark"]), "+".join(e["subalgebra"])]
        for e in doc["entries"]
    ]
    return f"type {doc['type'] or '(explicit)'}\n" + _table(
        ["node", "mark", "subalgebra"], rows)


def _pretty_sln(doc: dict) -> str:
    head = f"n {doc['n']}  blocks {_vec(doc['blocks'])}  t-roots {doc['troot_count']}"
    rows = [
        [f"({s['row']},{s['col']})", str(s["dim"]), _vec(s["key"]),
         str(s["order"]), _vec(s["acting_blocks"])]
        for s in doc["spaces"]
    ]
    return head + "\n" + _table(["block", "dim", "key", "order", "acting"], rows)


def _pretty_check(doc: dict) -> str:
    rows, fails = [], []
    for t in doc["types"]:
        name = t["type"] or "(explicit)"
        lines = [
            f"FAIL {name} deleted={d['deleted']} {f['check']}: {f['detail']}"
            for d in t["designations"] for f in d["failures"]
        ] + [
            f"FAIL {name} node={n['node']} {f['check']}: {f['detail']}"
            for n in t["nodes"] for f in n["failures"]
        ] + [
            f"FAIL {name} {f['subject']} {f['check']}: {f['detail']}"
            for f in t["block_check_failures"]
        ]
        rows.append([
            name,
            str(len(t["designations"])), str(len(t["nodes"])),
            "ok" if t["ok"] else "FAIL", str(len(lines)),
        ])
        fails.extend(lines)
    return "\n".join([
        f"scope: {doc['scope']}",
        _table(["type", "designations", "nodes", "status", "failures"], rows),
        *fails,
        "result: " + ("ok" if doc["ok"] else "FAIL"),
    ])


# ---------------------------------------------------------------------------
# dispatch


def _emit(doc: dict, pretty: bool, renderer) -> None:
    if pretty:
        print(renderer(doc))
    else:
        print(json.dumps(doc, indent=2))


def _run_check(args) -> int:
    from . import checks

    if args.max_rank is not None and (args.type or args.cartan):
        other = "a type" if args.type else "--cartan"
        raise LeviRootsError(f"give either {other} or --max-rank, not both")
    if args.type or args.cartan:
        reports = [checks.check_type(_resolve_system(args), args.all_parabolics)]
    elif args.max_rank is not None:
        if not 1 <= args.max_rank <= DEFAULT_MAX_RANK:
            raise LeviRootsError(f"--max-rank must be between 1 and {DEFAULT_MAX_RANK}")
        reports = checks.sweep_types(args.max_rank, args.all_parabolics)
    else:
        raise LeviRootsError("check needs a type, --cartan, or --max-rank")
    doc = checks.check_document(reports, args.all_parabolics)
    _emit(doc, args.pretty, _pretty_check)
    return 0 if doc["ok"] else 2


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    try:
        if args.verb == "roots":
            _emit(_resolve_system(args).document(), args.pretty, _pretty_roots)
        elif args.verb == "troots":
            from .levi import designation, troot_system

            rs = _resolve_system(args)
            des = designation(rs, kept=args.keep, deleted=args.delete)
            _emit(troot_system(des).document(), args.pretty, _pretty_troots)
        elif args.verb == "series":
            from .levi import designation, troot_system
            from .series import series_document

            rs = _resolve_system(args)
            des = designation(rs, kept=args.keep, deleted=args.delete)
            _emit(series_document(troot_system(des)), args.pretty, _pretty_series)
        elif args.verb == "bds":
            from .bds import bds_document, extended_diagram, extended_dot

            rs = _resolve_system(args)
            if args.dot:
                ext = extended_diagram(rs)
                sys.stdout.write(extended_dot(ext, deleted=args.node))
            else:
                _emit(bds_document(rs, node=args.node), args.pretty, _pretty_bds)
        elif args.verb == "maximal":
            from .bds import maximal_document

            _emit(maximal_document(_resolve_system(args)), args.pretty, _pretty_maximal)
        elif args.verb == "sln":
            from .slnx import composition, sln_document

            comp = composition(args.blocks)
            if comp.n - 1 > DEFAULT_MAX_RANK:  # capped like the named types
                raise InvalidRank(f"composition of {comp.n} needs type A{comp.n - 1}: rank "
                                  f"{comp.n - 1} exceeds the configured maximum {DEFAULT_MAX_RANK}")
            _emit(sln_document(comp), args.pretty, _pretty_sln)
        elif args.verb == "check":
            return _run_check(args)
        else:  # pragma: no cover - argparse enforces the verb set
            return 1
    except (LeviRootsError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
