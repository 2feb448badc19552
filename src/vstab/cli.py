"""Command-line front end.

Exit codes: 0 for success (and positive verdicts), 1 for a negative
domain verdict (invalid stability, non-classical, ...), 2 for malformed
input, and 141 (128 + SIGPIPE, as a shell reports a command that a
signal ended) when the reader of stdout closed it early.  Output is
canonical JSON by default; posets can also be emitted as DOT or a plain
table.  Identical inputs and configuration give byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import graphenum, limits, polarization, posets, serialize, sheaves
from .errors import InvalidPartition, VstabError
from .graphs import DualGraph, vertices_of
from .serialize import SchemaError
from .stability import VStability

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2
EXIT_PIPE = 141

# The most edges one qdeg-scan may charge (graphenum.walk_size: the edges of
# every sorted edge multiset with n <= --max-vertices and n - 1 to
# --max-edges edges, a bound on the edges of the catalogue and of its
# output), checked before the catalogue is built.  It admits every scan
# with n <= 6 up to 9 edges (11.8 M) and n = 7 up to 7 edges (8.84 M), but
# not n = 7 with 8 edges (36.5 M) or 9 edges (134 M), nor two vertices with
# 10**6 edges (5.0e11).
MAX_SCAN_WALK = 20_000_000

# The most complementary pairs (Y, Y^c) of biconnected subcurves (len of
# DualGraph.bcon_pairs) `enum-orbits` searches, checked before the search.
# At the bound, C7 (9366 orbits) took 0.56 s of CPU time for 50 MB of JSON
# and the worst six-vertex graphs (17 564 orbits) 0.87 s for 89 MB, both
# under 30 MB peak RSS (Python 3.11.7, one core of a 2-vCPU box).  C8 (28
# pairs, 94 586 orbits) took 5.4 s for 715 MB and 82 MB, the octahedron
# (28 pairs) 13.4 s for 1.4 GB and 162 MB; K6 (31 pairs, 242 002 orbits)
# is refused.  The ladder graphs have at most 15 pairs (K5, C6).
MAX_ORBIT_PAIRS = 21

# The most complementary pairs `enum-deg` and `poset --kind deg` search for
# degeneracy subsets, with or without --mod-symmetry, checked before the
# search.  Below the bound, K6 (31 pairs, 3708 subsets) took 0.40 s of CPU
# time and C8 (28 pairs, 4140) 0.57 s; at it, the seven-vertex graphs of 33
# pairs tried (9169 and 10 972 subsets, up to 14 MB of JSON) took 1.3-1.4 s
# and under 75 MB peak RSS (Python 3.11.7, one core of a 2-vCPU box).  Past
# it the subsets multiply: a seven-vertex graph of 36 pairs has 21 038 (3.4 s),
# the wheel on seven vertices plus a chord (40 pairs) 37 620 (5.9 s, 53
# MB of JSON), and with a second chord (48 pairs) 245 001 (51 s, 416 MB).
# The ladder graphs have at most 15 pairs.
MAX_DEG_PAIRS = 33

# The most elements `poset` puts through the all-pairs Hasse diagram,
# checked after the enumeration: window stabilities for --kind vstab,
# degeneracy subsets for --kind deg.  The vstab diagram asks vstab_leq once
# per ordered pair: C5 (1697 elements) takes about 8 s of CPU time and K4
# plus a 2-path (2619) about 20 s, both admitted; K5 (16 321) or C6
# (24 483) would take 2.7e8 or 6.0e8 calls.  The deg diagram admits C6
# (203 subsets, 0.18 s) and K5 (137), and refuses K6 (3708).
MAX_POSET_ELEMENTS = 3000

# The most components --mod-symmetry admits, checked before any work.
# DualGraph.automorphisms grows only the partial automorphisms, and the
# class sweep computes |Aut(G)| images of each class representative, so
# the cost follows |Aut(G)|, at most |Aut(K8)| = 40 320 here.  At n = 8
# the search took 0.2 ms of CPU time on a path, 0.2 ms on C8 and 0.13 s
# on K8 (Python 3.11.7, one core of a 2-vCPU box); K9 took 1.3 s.
MAX_SYMMETRY_VERTICES = 8

# `limit`'s budgets, checked before the walk.  An entry of --multidegree
# may not exceed MAX_LIMIT_DEGREE in absolute value.  The walk itself is
# sized by the start's beta deficit D (limits.beta_deficit), not by the
# entries: a translated stability shifts betas like degrees, so (0, 0) on a
# banana with values (10**9, -10**9) has deficit 10**9 - 1.  D may not
# exceed MAX_LIMIT_DEGREE, nor D * 4**n exceed MAX_LIMIT_WORK: the walk
# takes of order D twists, each step of the monotone expansion tries 2**n
# twists over 2**n betas, and both candidate orders read the 4**n table
# DualGraph.subset_sum_shifts, built when a walk starts (a semistable start,
# D = 0, returns before the walk and builds none).  So D <= 5000 for
# n <= 5, 1250 for n = 6, 312 for n = 7 and 78 for n = 8.  At the bound,
# the slowest of three start patterns (+k on vertex 0 and -k on vertex
# n - 1, n // 2 or 1, k the largest within the bound) on sampled orbit
# stabilities (every 7th on C5, every 50th on K5 and C6, every 8th on K4
# with a 2-path, every 300th on C7) took (CPU time, process peak RSS with
# the orbit enumeration; Python 3.11.7, one core of a 2-vCPU box): C5
# 1.2 s and 37 MB, K5 0.06 s and 21 MB, C6 1.1 s and 26 MB, K4 with a
# 2-path 1.2 s and 35 MB, C7 0.9 s and 23 MB; C8 0.5 s and 18 MB on one
# general stability.  Larger n was not measured; the bound keeps
# shrinking fourfold per component.
MAX_LIMIT_DEGREE = 5000
MAX_LIMIT_WORK = MAX_LIMIT_DEGREE * 4 ** 5

# The largest box of sheaf classes `semistable --window W` may span
# (_window_work), checked before the enumeration: 2**|E| (2W+1)**(n-1) on
# the full support; with --all-supports, 2**e (2W+1)**(k-1) summed over the
# supports of k components with e internal edges.  The enumeration tests
# no candidate, it builds the classes by cubes from line bundles searched
# within the forced windows, so this bounds the box, not the work.  It
# admits W <= 55 on the triangle, 5 on K4, 3 on C5 and 12499 on the banana,
# with or without --all-supports.  At the bound, on the first orbit of each,
# these took (CPU time, Python 3.11.7, one core of a 2-vCPU box, 27 MB peak
# RSS): triangle 0.004 s, K4 0.009 s, C5 0.004 s, banana 0.004 s; with
# --all-supports 0.003, 0.011, 0.008 and 0.005 s.
MAX_WINDOW_WORK = 100_000


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


def _check_symmetry_size(g: DualGraph) -> None:
    if g.n > MAX_SYMMETRY_VERTICES:
        raise ValueError(
            f"--mod-symmetry: the graph has {g.n} components, more than "
            f"{MAX_SYMMETRY_VERTICES} for the automorphism search"
        )


def _check_deg_pairs(g: DualGraph, command: str) -> None:
    if len(g.bcon_pairs) > MAX_DEG_PAIRS:
        raise ValueError(
            f"{command}: the graph has {len(g.bcon_pairs)} complementary pairs of "
            f"biconnected subcurves, more than {MAX_DEG_PAIRS} for one degeneracy search"
        )


def _window_work(g: DualGraph, window: int, all_supports: bool) -> int:
    """The (non-free node set, multidegree) pairs in the box of `semistable
    --window`: on a support of k components with e internal edges, 2**e node
    sets times (2W+1)**(k-1) degree vectors of the forced sum, on the full
    support alone or summed over every support."""
    side = 2 * window + 1
    supports = range(1, g.full_mask + 1) if all_supports else [g.full_mask]
    return sum(
        2 ** g.internal_edge_count(Y) * side ** (Y.bit_count() - 1) for Y in supports
    )


def _emit(doc):
    serialize.dump(doc, sys.stdout.write)


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
    if len(g.bcon_pairs) > MAX_ORBIT_PAIRS:
        raise ValueError(
            f"enum-orbits: the graph has {len(g.bcon_pairs)} complementary pairs of "
            f"biconnected subcurves, more than {MAX_ORBIT_PAIRS} for one orbit search"
        )
    reps = posets.enumerate_orbits(g)
    if args.chi:
        shift = (args.chi,) + (0,) * (g.n - 1)
        reps = [posets.translate(s, shift) for s in reps]
    _emit({"orbits": reps})
    return EXIT_OK


def cmd_enum_deg(args) -> int:
    g = _graph(args)
    if args.mod_symmetry:
        _check_symmetry_size(g)
    _check_deg_pairs(g, "enum-deg")
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
    if args.kind == "deg" and args.chi:
        raise ValueError(
            "--chi applies only to --kind vstab: degeneracy subsets do not "
            "depend on the characteristic"
        )
    if args.kind == "vstab" and args.mod_symmetry:
        raise ValueError(
            "--mod-symmetry applies only to --kind deg: window stabilities "
            "are not grouped by symmetry"
        )
    g = _graph(args)
    if args.kind == "deg":
        if args.mod_symmetry:
            _check_symmetry_size(g)
        _check_deg_pairs(g, "poset --kind deg")
        degs = posets.enumerate_degeneracy_subsets(g)
        if len(degs) > MAX_POSET_ELEMENTS:
            raise ValueError(
                f"--kind deg: the graph has {len(degs)} degeneracy subsets, more "
                f"than {MAX_POSET_ELEMENTS} for one Hasse diagram"
            )
        if args.mod_symmetry:
            reps, assignment = posets.deg_symmetry_classes(g, degs)
            members: list[list] = [[] for _ in reps]
            for d, k in zip(degs, assignment):
                members[k].append(d)

            def class_leq(i, j):
                # class i <= class j when some member of j dominates i's representative
                return any(posets.deg_leq(m, reps[i]) for m in members[j])

            diagram = posets.hasse(
                range(len(reps)), class_leq, label=lambda i: _deg_label(reps[i])
            )
        else:
            # ordered by dominance: a cover goes up from a set to a smaller one dominating it
            diagram = posets.hasse_from_rows(
                posets.transpose_rows(posets.dominance_rows(degs)),
                tuple(map(_deg_label, degs)),
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
    if args.window is not None:
        if args.window < 0:
            raise ValueError("--window must be non-negative")
        work = _window_work(g, args.window, args.all_supports)
        if work > MAX_WINDOW_WORK:
            raise ValueError(
                f"--window {args.window}: a box of {work} sheaf classes on "
                f"{g.n} components, more than {MAX_WINDOW_WORK} for one enumeration"
            )
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
    if any(abs(x) > MAX_LIMIT_DEGREE for x in d0):
        raise ValueError(
            f"--multidegree: an entry exceeds {MAX_LIMIT_DEGREE} in absolute value, "
            f"the bound for one limit walk"
        )
    deficit = limits.beta_deficit(d0, s)
    bound = min(MAX_LIMIT_DEGREE, MAX_LIMIT_WORK // 4 ** g.n)
    if deficit > bound:
        raise ValueError(
            f"--multidegree: its beta deficit against --stability is {deficit}, above "
            f"{bound}, the bound for one limit walk on {g.n} components"
        )
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
        "normal_form": nf,
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
            f"--max-vertices {args.max_vertices} --max-edges {args.max_edges} charges "
            f"more than {MAX_SCAN_WALK} edges; lower either flag"
        )
    # one graph at a time: each is dropped, with its cached tables, once
    # its report is written
    graphs = graphenum.connected_multigraphs(args.max_vertices, args.max_edges)
    graphs.reverse()
    while graphs:
        report = posets.qdeg_scan(graphs.pop())
        sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
    return EXIT_OK


# -- parser ------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no
    state in it, so every ``main`` call shares it."""
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
        code = args.func(args)
        sys.stdout.flush()   # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone; the interpreter flushes stdout once more at
        # exit, so point it at devnull, where the rest of the buffer goes
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except ValueError as exc:   # SchemaError included
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except VstabError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
