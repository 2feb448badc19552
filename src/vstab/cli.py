"""Command-line front end.

Exit codes: 0 for success (and positive verdicts), 1 for a negative
domain verdict (invalid stability, non-classical, ...), 2 for malformed
input.  Output is canonical JSON by default; posets can also be emitted
as DOT or a plain table.  Identical inputs and configuration give
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import graphenum, limits, polarization, posets, serialize, sheaves
from .errors import InvalidPartition, VstabError
from .graphs import DualGraph, vertices_of
from .serialize import SchemaError
from .stability import VStability

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2

# The most edge multisets one qdeg-scan may walk (graphenum.walk_size),
# checked before the walk starts.  It admits every scan with n <= 6 up to
# 9 edges (1.40 M multisets) and n = 7 up to 7 edges (1.31 M), but not
# n = 7 with 8 edges (4.76 M) or 9 edges (15.6 M).
MAX_SCAN_WALK = 2_000_000

# The most window stabilities `poset --kind vstab` puts through the
# all-pairs Hasse diagram, checked after the enumeration.  The diagram asks
# vstab_leq once per ordered pair: C5 (1697 elements) takes about 8 s of
# CPU time and K4 plus a 2-path (2619) about 20 s, both admitted; K5
# (16 321) or C6 (24 483) would take 2.7e8 or 6.0e8 calls.
MAX_POSET_ELEMENTS = 3000


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _graph(args) -> DualGraph:
    return serialize.graph_from_json(_load_json(args.graph))


def _stability(args, g: DualGraph) -> VStability:
    return serialize.stability_from_json(g, _load_json(args.stability))


def _emit(doc):
    sys.stdout.write(serialize.dumps(doc))


def _parse_partition(text: str, I: sheaves.SheafData) -> sheaves.OrderedPartition:
    """Parts like "0,2|1" as an ordered partition of the sheaf's support;
    a part names each vertex once.  A blank part is read as empty (and
    rejected as such); a blank token in a part is malformed."""
    parts = tuple(
        serialize.vertex_mask(
            (serialize.int_token(tok, "--partition vertex")
             for tok in chunk.split(",") if chunk.strip()),
            I.graph.n, "--partition vertex",
        )
        for chunk in text.split("|")
    )
    try:
        P = sheaves.OrderedPartition(parts)
        if P.union != I.support:
            raise InvalidPartition("parts must cover the sheaf support")
    except InvalidPartition as exc:
        raise SchemaError(f"--partition {text!r}: {exc}") from exc
    return P


# -- commands ---------------------------------------------------------------------


def cmd_validate(args) -> int:
    g = _graph(args)
    s = _stability(args, g)
    report = s.validate()
    doc = {
        "ok": report.ok,
        "violations": [
            {
                "kind": v.kind,
                "subcurves": [vertices_of(Y) for Y in v.subcurves],
                "detail": v.detail,
            }
            for v in report.violations
        ],
    }
    _emit(doc)
    return EXIT_OK if report.ok else EXIT_DOMAIN


def cmd_enum_orbits(args) -> int:
    g = _graph(args)
    reps = posets.enumerate_orbits(g)
    if args.chi:
        shift = (args.chi,) + (0,) * (g.n - 1)
        reps = [posets.translate(s, shift) for s in reps]
    _emit({"orbits": [serialize.stability_to_json(s) for s in reps]})
    return EXIT_OK


def cmd_enum_deg(args) -> int:
    g = _graph(args)
    degs = posets.enumerate_degeneracy_subsets(g)
    if args.mod_symmetry:
        reps, _ = posets.deg_symmetry_classes(g, degs)
        degs = reps
    doc = {
        "degeneracy_subsets": [
            {
                "members": sorted(vertices_of(Y) for Y in d.members),
                "minimal": sorted(
                    vertices_of(Y) for Y in posets.minimal_elements(d)
                ),
            }
            for d in degs
        ],
        "mod_symmetry": bool(args.mod_symmetry),
    }
    _emit(doc)
    return EXIT_OK


def _deg_label(d) -> str:
    mins = posets.minimal_elements(d)
    if not mins:
        return "{}"
    return "{" + ", ".join(
        "{" + ",".join(map(str, vertices_of(Y))) + "}" for Y in sorted(mins)
    ) + "}"


def cmd_poset(args) -> int:
    g = _graph(args)
    if args.kind == "deg":
        degs = posets.enumerate_degeneracy_subsets(g)
        if args.mod_symmetry:
            reps, assignment = posets.deg_symmetry_classes(g, degs)
            # class order: some member of one class dominates the representative
            keyed = {id(r): k for k, r in enumerate(reps)}
            members: list[list] = [[] for _ in reps]
            for d, k in zip(degs, assignment):
                members[k].append(d)

            def class_leq(a, b):
                # a <= b when some member of b's class dominates a
                ka, kb = keyed[id(a)], keyed[id(b)]
                if ka == kb:
                    return True
                return any(posets.deg_leq(m, a) for m in members[kb])

            diagram = posets.hasse(reps, class_leq, label=_deg_label)
        else:
            diagram = posets.hasse(
                degs,
                lambda a, b: a.members == b.members or posets.deg_leq(b, a),
                label=_deg_label,
            )
    else:
        stabs = posets.enumerate_window_stabilities(g)
        if len(stabs) > MAX_POSET_ELEMENTS:
            raise ValueError(
                f"--kind vstab: the window has {len(stabs)} stabilities, more than "
                f"{MAX_POSET_ELEMENTS} for one Hasse diagram"
            )
        if args.chi:
            shift = (args.chi,) + (0,) * (g.n - 1)
            stabs = [posets.translate(s, shift) for s in stabs]
        diagram = posets.hasse(
            stabs,
            lambda a, b: posets.vstab_leq(b, a),
            label=lambda s: str(list(s.values)),
        )
    if args.format == "dot":
        sys.stdout.write(serialize.hasse_to_dot(diagram))
    elif args.format == "table":
        for lo, hi in diagram.covers:
            sys.stdout.write(f"{diagram.labels[lo]} < {diagram.labels[hi]}\n")
    else:
        _emit(serialize.hasse_to_json(diagram))
    return EXIT_OK


def cmd_classical(args) -> int:
    g = _graph(args)
    s = _stability(args, g)
    if not s.is_valid:
        _emit({"classical": None, "error": "stability is not valid"})
        return EXIT_INPUT
    witness = polarization.is_classical(s)
    if witness is None:
        _emit({"classical": False})
        return EXIT_DOMAIN
    _emit({
        "classical": True,
        "witness": serialize.polarization_to_json(witness),
    })
    return EXIT_OK


def cmd_semistable(args) -> int:
    g = _graph(args)
    s = _stability(args, g)
    if not s.is_valid:
        _emit({"error": "stability is not valid"})
        return EXIT_INPUT
    if args.window is not None and args.window < 0:
        raise ValueError("--window must be non-negative")
    classes = sheaves.enumerate_semistable(
        g, s,
        full_support_only=not args.all_supports,
        degree_window=args.window,
    )
    _emit({"semistable": [serialize.sheaf_to_json(I) for I in classes]})
    return EXIT_OK


def cmd_limit(args) -> int:
    g = _graph(args)
    s = _stability(args, g)
    if not s.is_valid:
        _emit({"error": "stability is not valid"})
        return EXIT_INPUT
    d0 = tuple(
        serialize.int_token(tok, "--multidegree entry") for tok in args.multidegree.split(",")
    )
    if len(d0) != g.n:
        raise SchemaError("multidegree length must match the component count")
    result, trace = limits.esteves_limit(d0, s)
    _emit(serialize.trace_to_json(trace))
    return EXIT_OK


def cmd_specialize(args) -> int:
    g = _graph(args)
    I = serialize.sheaf_from_json(g, _load_json(args.sheaf))
    J = sheaves.gr_specialize(I, _parse_partition(args.partition, I))
    _emit(serialize.sheaf_to_json(J))
    return EXIT_OK


def cmd_normal_form(args) -> int:
    g = _graph(args)
    s = _stability(args, g)
    if not s.is_valid:
        _emit({"error": "stability is not valid"})
        return EXIT_INPUT
    nf, tau = posets.normal_form(s)
    _emit({
        "normal_form": serialize.stability_to_json(nf),
        "tau": list(tau),
    })
    return EXIT_OK


def cmd_qdeg_scan(args) -> int:
    if args.max_vertices <= 0:
        raise ValueError("--max-vertices must be positive")
    if args.max_edges < 0:
        raise ValueError("--max-edges must be non-negative")
    if graphenum.walk_size(args.max_vertices, args.max_edges, MAX_SCAN_WALK) > MAX_SCAN_WALK:
        raise ValueError(
            f"--max-vertices {args.max_vertices} --max-edges {args.max_edges} walks "
            f"more than {MAX_SCAN_WALK} edge multisets; lower either flag"
        )
    for g in graphenum.connected_multigraphs(args.max_vertices, args.max_edges):
        report = posets.qdeg_scan(g)
        sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
    return EXIT_OK


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vstab",
        description="Stability conditions and degenerations on dual graphs of nodal curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, *, stability=False):
        p = sub.add_parser(name)
        p.add_argument("--graph", required=True, help="graph JSON file")
        if stability:
            p.add_argument("--stability", required=True, help="stability JSON file")
        p.set_defaults(func=func)
        return p

    def chi(p):
        p.add_argument("--chi", type=int, default=0,
                       help="characteristic for enumerations (orbit "
                            "representatives are translated to it)")

    def mod_symmetry(p):
        p.add_argument("--mod-symmetry", action="store_true")

    command("validate", cmd_validate, stability=True)

    chi(command("enum-orbits", cmd_enum_orbits))

    mod_symmetry(command("enum-deg", cmd_enum_deg))

    p = command("poset", cmd_poset)
    p.add_argument("--kind", default="deg", choices=["deg", "vstab"])
    p.add_argument("--format", default="json", choices=["json", "dot", "table"])
    chi(p)
    mod_symmetry(p)

    command("classical", cmd_classical, stability=True)

    p = command("semistable", cmd_semistable, stability=True)
    p.add_argument("--all-supports", action="store_true")
    p.add_argument("--window", type=int, default=None,
                   help="confine every degree to [-window, window]")

    p = command("limit", cmd_limit, stability=True)
    p.add_argument("--multidegree", required=True, help="comma-separated degrees")

    p = command("specialize", cmd_specialize)
    p.add_argument("--sheaf", required=True, help="sheaf JSON file")
    p.add_argument("--partition", required=True, help='parts as "0,2|1"')

    command("normal-form", cmd_normal_form, stability=True)

    p = sub.add_parser("qdeg-scan")
    p.add_argument("--max-vertices", type=int, default=5)
    p.add_argument("--max-edges", type=int, default=7)
    p.set_defaults(func=cmd_qdeg_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except ValueError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except VstabError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
