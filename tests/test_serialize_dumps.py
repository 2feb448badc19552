"""The canonical JSON emitter against its oracle, the stdlib's indenting
encoder: the pieces ``serialize.dump`` writes join to ``json.dumps(doc,
sort_keys=True, indent=2) + "\\n"`` on arbitrary documents, with
``stability_to_json(s)`` in place of each stability ``s`` they hold, and
it writes them without holding the whole text."""

import enum
import json
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from vstab.graphs import DualGraph
from vstab.posets import enumerate_orbits
from vstab.serialize import dump, stability_to_json
from vstab.stability import VStability

from conftest import banana, genus_decorated, k4, k5


def oracle_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def dumps(doc) -> str:
    chunks: list[str] = []
    dump(doc, chunks.append)
    return "".join(chunks)


# strings weighted towards what needs escaping: quotes, backslashes,
# control characters, DEL, non-ASCII and astral characters, lone surrogates
TEXT = st.text(st.sampled_from('a"\\/\n\r\t\b\f\x00\x1f\x7f\xe9€\U0001f600\ud800')) | st.text(
    st.characters(exclude_categories=())
)
SCALARS = (
    st.none() | st.booleans() | st.integers() | TEXT
    | st.integers(-(10 ** 40), 10 ** 40)
    | st.floats(allow_nan=True, allow_infinity=True)
)
DOCS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.lists(st.integers(), max_size=6)
    | st.dictionaries(TEXT, inner, max_size=5),
    max_leaves=30,
)


@settings(max_examples=300)
@given(DOCS)
def test_dumps_matches_the_stdlib(doc):
    assert dumps(doc) == oracle_dumps(doc)


class Colour(enum.IntEnum):
    RED = 1


@pytest.mark.parametrize("doc", [
    {}, [], (), "", 0, -0, True, None, -(10 ** 100),
    [[], {}, ()], {"": {"": []}}, [1, True, 2], [Colour.RED, 1],
    {"b": [1, -2, 10 ** 30], "a": [None, 1.5, "é\"\\\n"]},
])
def test_dumps_edge_cases(doc):
    assert dumps(doc) == oracle_dumps(doc)


@pytest.mark.parametrize("doc", [
    {1: 2}, {None: 0}, {(0, 1): []}, {"a": 0, "b": {2: "x"}}, [{"a": [{0.5: 1}]}],
])
def test_non_string_key_raises_type_error(doc):
    with pytest.raises(TypeError):
        dumps(doc)


def as_json(doc):
    """The document with ``stability_to_json(s)`` in place of each
    stability ``s``."""
    if isinstance(doc, VStability):
        return stability_to_json(doc)
    if isinstance(doc, dict):
        return {key: as_json(v) for key, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return type(doc)(map(as_json, doc))
    return doc


# one vertex with a loop of genus 1 has no biconnected subcurve, so its
# stabilities write "values": []
GRAPHS = [banana(), k4(), genus_decorated(), DualGraph((1,), ((0, 0),))]
VALUES = st.integers() | st.integers(-(10 ** 40), 10 ** 40)


def stabilities(g):
    k = len(g.biconnected_subcurves)
    return st.builds(VStability, st.just(g), VALUES,
                     st.lists(VALUES, min_size=k, max_size=k).map(tuple))


STABILITIES = st.sampled_from(GRAPHS).flatmap(stabilities)
STABILITY_DOCS = st.recursive(
    SCALARS | STABILITIES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=200)
@given(STABILITY_DOCS)
def test_dumps_writes_stabilities_as_stability_to_json(doc):
    assert dumps(doc) == oracle_dumps(as_json(doc))


def test_one_graph_at_several_depths():
    s = VStability(k4(), -3, tuple(range(-7, 7)))
    t = VStability(k4(), 10 ** 30, (0,) * 14)
    doc = [s, [t, {"b": s, "a": [[t]]}], {"": [s, VStability(banana(), 2, (-1, 3))]}]
    assert dumps(doc) == oracle_dumps(as_json(doc))


def test_dump_streams_the_k5_orbit_document():
    # the 3.7 MB document of `enum-orbits` on K5, holding the stabilities
    # themselves, goes to a sink that only counts: no chunk list and no
    # joined copy of the text is held
    doc = {"orbits": enumerate_orbits(k5())}
    expected = len(oracle_dumps(as_json(doc)))
    size = 0

    def count(text):
        nonlocal size
        size += len(text)

    tracemalloc.start()
    try:
        dump(doc, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size == expected > 3_000_000
    assert peak < 1_000_000
