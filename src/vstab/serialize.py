"""JSON (and DOT) schemas for every value crossing the CLI boundary.

Graph:         {"genera": [g0, ...], "edges": [[u, v], ...]}
Stability:     {"chi": c, "values": [{"subcurve": [v, ...], "s": k}, ...]}
Polarization:  {"chi": c, "psi": [["num", "den"], ...]}
Sheaf:         {"support": [v, ...], "multidegree": {"v": d, ...},
                "nonfree": [edge_index, ...]}
Trace:         {"start": [...], "steps": [{"Y": [...], "beta_min": m,
                "d": [...], "lemma_step": true}, ...], "result": [...],
                "used_fallback": false}
Hasse:         {"elements": [...], "covers": [[lower, upper], ...]}

Vertices are 0-based, loops appear as [v, v], edge indices point into the
canonical sorted edge list, and subcurves are sorted vertex lists.  All
emitters sort their output, so serialization is canonical.  Readers take
every integer as a JSON integer (never a bool, float or string), apart
from the psi entries, which are strings of decimal digits with an optional
minus sign; vertices must lie in 0..n-1, and multidegree keys are only the
decimal indices "0".."n-1".  No subcurve or support names a vertex twice,
no stability names a subcurve twice, and no nonfree list names an edge
index twice.  Anything else is a SchemaError.

The emitter :func:`dump` walks the document once and hands each piece of
text to a ``write`` callable as it goes, so no copy of the whole text is
held; the CLI passes ``sys.stdout.write``.  A document may hold
:class:`VStability` objects themselves: each is written as
:func:`stability_to_json` would give it, from a format template with one
field for chi and one per value.  The template is that function's
document for the graph, written once per graph and indent in a ``dump``
call, so a stability costs one ``str.format`` and no dicts.  The text
matches ``json.dumps(doc, sort_keys=True, indent=2) + "\n"``, with
``stability_to_json(s)`` in place of each stability ``s``, byte for byte;
that stdlib call, which falls back to the pure-Python encoder whenever an
indent is set, is its test oracle.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from types import SimpleNamespace

from .errors import DomainMismatch, InvalidPolarization
from .graphs import DualGraph, exact_ints, vertices_of
from .limits import LimitTrace
from .polarization import NumericalPolarization
from .posets import HasseDiagram
from .sheaves import SheafData
from .stability import VStability


class SchemaError(ValueError):
    """Malformed input document."""


def _need(doc: dict, key: str):
    if not isinstance(doc, dict) or key not in doc:
        raise SchemaError(f"missing key {key!r}")
    return doc[key]


# decimal digits with an optional minus sign
_INTEGER = re.compile("-?[0-9]+")


def _int(x, what: str) -> int:
    """A JSON integer, never a bool, float or string coerced to one."""
    return exact_ints((x,), what, SchemaError)[0]


def int_token(text: str, what: str) -> int:
    """A command-line integer: after stripping surrounding whitespace, an
    optional minus sign and decimal digits, nothing else (no sign "+", no
    digit-group underscores, no non-ASCII digits)."""
    token = text.strip()
    if not _INTEGER.fullmatch(token):
        raise SchemaError(f"{what} {text!r} is not an integer")
    try:
        return int(token)
    except ValueError as exc:   # longer than the interpreter converts
        raise SchemaError(f"{what}: {exc}") from exc


def vertex_mask(vertices, n: int, what: str = "vertex") -> int:
    """Subcurve mask of vertex indices, each a JSON integer in 0..n-1
    named once; every index is checked before its bit is set."""
    mask = 0
    for x in vertices:
        v = _int(x, what)
        if not 0 <= v < n:
            raise SchemaError(f"{what} {v} is not a component 0..{n - 1}")
        if mask >> v & 1:
            raise SchemaError(f"{what} {v} is repeated")
        mask |= 1 << v
    return mask


def _fraction(entry) -> Fraction:
    """A psi entry: a [numerator, denominator] pair of strings, each of
    decimal digits with an optional minus sign."""
    if not (isinstance(entry, list) and len(entry) == 2 and all(
        isinstance(x, str) and _INTEGER.fullmatch(x) for x in entry
    )):
        raise SchemaError(f"psi entry must be a pair of integer strings, got {entry!r}")
    return Fraction(int(entry[0]), int(entry[1]))


# -- graphs ------------------------------------------------------------------


def graph_to_json(g: DualGraph) -> dict:
    return {"genera": list(g.genera), "edges": [list(e) for e in g.edges]}


def graph_from_json(doc: dict) -> DualGraph:
    genera = _need(doc, "genera")
    edges = _need(doc, "edges")
    try:
        return DualGraph(
            tuple(_int(x, "genus") for x in genera),
            tuple((_int(u, "edge endpoint"), _int(v, "edge endpoint")) for u, v in edges),
        )
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad graph document: {exc}") from exc


# -- stabilities ----------------------------------------------------------------


def stability_to_json(s: VStability) -> dict:
    return {
        "chi": s.chi,
        "values": [
            {"subcurve": vertices_of(Y), "s": v}
            for Y, v in zip(s.graph.biconnected_subcurves, s.values)
        ],
    }


def stability_from_json(g: DualGraph, doc: dict) -> VStability:
    chi = _need(doc, "chi")
    entries = _need(doc, "values")
    mapping = {}
    try:
        for entry in entries:
            Y = vertex_mask(_need(entry, "subcurve"), g.n, "subcurve vertex")
            if Y in mapping:
                raise SchemaError(f"subcurve {vertices_of(Y)} has two entries")
            mapping[Y] = _int(_need(entry, "s"), "stability value")
        return VStability.from_dict(g, _int(chi, "chi"), mapping)
    except DomainMismatch as exc:
        raise SchemaError(str(exc)) from exc
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad stability document: {exc}") from exc


# -- polarizations ----------------------------------------------------------------


def polarization_to_json(p: NumericalPolarization) -> dict:
    return {
        "chi": p.chi,
        "psi": [[str(x.numerator), str(x.denominator)] for x in p.psi],
    }


def polarization_from_json(g: DualGraph, doc: dict) -> NumericalPolarization:
    chi = _need(doc, "chi")
    raw = _need(doc, "psi")
    try:
        psi = tuple(_fraction(entry) for entry in raw)
        return NumericalPolarization(g, _int(chi, "chi"), psi)
    except (InvalidPolarization, TypeError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad polarization document: {exc}") from exc


# -- sheaves ---------------------------------------------------------------------


def sheaf_to_json(I: SheafData) -> dict:
    return {
        "support": vertices_of(I.support),
        "multidegree": {
            str(v): I.multidegree[v] for v in vertices_of(I.support)
        },
        "nonfree": sorted(I.nonfree),
    }


def sheaf_from_json(g: DualGraph, doc: dict) -> SheafData:
    support = _need(doc, "support")
    degs = _need(doc, "multidegree")
    nonfree = _need(doc, "nonfree")
    if not isinstance(degs, dict):
        raise SchemaError("multidegree must be an object keyed by component")
    try:
        mask = vertex_mask(support, g.n, "support vertex")
        if not mask:
            raise SchemaError("the support must be nonempty")
        component = {str(v): v for v in range(g.n)}
        d = [0] * g.n
        for key, val in degs.items():
            if key not in component:
                raise SchemaError(
                    f"multidegree key {key!r} does not name a component 0..{g.n - 1}"
                )
            d[component[key]] = _int(val, "degree")
        edges = [_int(e, "edge index") for e in nonfree]
        if len(set(edges)) != len(edges):
            raise SchemaError(f"nonfree repeats an edge index: {edges!r}")
        return SheafData(g, mask, tuple(d), frozenset(edges))
    except (DomainMismatch, TypeError, ValueError) as exc:
        raise SchemaError(f"bad sheaf document: {exc}") from exc


# -- traces and diagrams ------------------------------------------------------------


def trace_to_json(trace: LimitTrace) -> dict:
    return {
        "start": list(trace.start),
        "steps": [
            {
                "Y": vertices_of(step.subcurve),
                "beta_min": step.beta_min,
                "d": list(step.multidegree),
                "lemma_step": step.lemma_step,
            }
            for step in trace.steps
        ],
        "result": list(trace.result),
        "used_fallback": trace.used_fallback,
    }


def hasse_to_json(h: HasseDiagram) -> dict:
    return {
        "elements": list(h.labels),
        "covers": [list(c) for c in h.covers],
    }


def hasse_to_dot(h: HasseDiagram) -> str:
    lines = ["digraph poset {"]
    for i, label in enumerate(h.labels):
        lines.append(f'  n{i} [label="{label}"];')
    for lo, hi in h.covers:
        lines.append(f"  n{lo} -> n{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"


_quote = json.encoder.encode_basestring_ascii

# a template field as the writer quotes it: "\u0000" and the field number
_FIELD = re.compile(r'"\\u0000([0-9]+)"')


def _stability_template(g: DualGraph, newline: str) -> str:
    """The text of :func:`stability_to_json` on ``g`` starting on a line
    broken by ``newline``, as a ``str.format`` template: field 0 is chi,
    field i + 1 the value on the i-th biconnected subcurve."""
    fields = ["\0" + str(i) for i in range(len(g.biconnected_subcurves) + 1)]
    stand_in = SimpleNamespace(graph=g, chi=fields[0], values=fields[1:])
    pieces: list[str] = []
    _write(stability_to_json(stand_in), newline, pieces.append, {})
    text = "".join(pieces).replace("{", "{{").replace("}", "}}")
    return _FIELD.sub(r"{\1}", text)


def dump(doc, write) -> None:
    """Canonical JSON emission, passed piece by piece to ``write`` (such as
    ``sys.stdout.write``) as the walk goes: sorted keys, two-space indent,
    newline-terminated; the text of ``json.dumps(doc, sort_keys=True,
    indent=2) + "\n"`` with ``stability_to_json(s)`` in place of each
    VStability ``s``.  Stabilities are written from templates kept for this
    call only, one per graph and indent.  Object keys must be strings; a
    TypeError names the first one that is not, after the text before it
    has been written."""
    _write(doc, "\n", write, {})
    write("\n")


def _write(x, newline: str, out, templates: dict) -> None:
    """Pass the text of ``x`` to ``out``, with ``newline`` the line break
    plus indent of the line that ``x`` starts on; ``templates`` holds the
    stability templates by (graph, newline)."""
    if isinstance(x, dict):
        if not x:
            out("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(x):
            if not isinstance(key, str):
                raise TypeError(f"object keys must be strings, got {key!r}")
            out(sep + _quote(key) + ": ")
            _write(x[key], inner, out, templates)
            sep = "," + inner
        out(newline + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            out("[]")
            return
        inner = newline + "  "
        if set(map(type, x)) == {int}:     # plain ints (no bools): one join
            out("[" + inner + ("," + inner).join(map(int.__repr__, x)) + newline + "]")
            return
        sep = "[" + inner
        for v in x:
            out(sep)
            _write(v, inner, out, templates)
            sep = "," + inner
        out(newline + "]")
    elif type(x) is int:
        out(int.__repr__(x))
    elif isinstance(x, str):
        out(_quote(x))
    elif isinstance(x, VStability):
        key = (x.graph, newline)
        if key not in templates:
            templates[key] = _stability_template(x.graph, newline)
        out(templates[key].format(x.chi, *x.values))
    else:
        # bools, None, floats and int subclasses: the stdlib's scalar text
        out(json.dumps(x))
