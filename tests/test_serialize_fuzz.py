"""Fuzz the JSON readers: every document either parses or raises
SchemaError, never another exception.

Documents are arbitrary JSON values, or well-formed documents with one
field replaced by an arbitrary JSON value.  Integers stay small (|x| <= 64)
so that no reader builds a huge mask even without its range checks.
"""

import copy

from hypothesis import given, settings, strategies as st

from vstab.serialize import (
    SchemaError,
    graph_from_json,
    polarization_from_json,
    sheaf_from_json,
    stability_from_json,
)

from conftest import banana, genus_decorated

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-64, 64)
    | st.floats(-64, 64, allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)

WELL_FORMED = {
    "graph": {"genera": [1, 2], "edges": [[0, 1], [0, 1], [1, 1]]},
    "stability": {"chi": 0, "values": [{"subcurve": [0], "s": 0},
                                       {"subcurve": [1], "s": 0}]},
    "polarization": {"chi": 1, "psi": [["1", "2"], ["1", "2"]]},
    "sheaf": {"support": [0, 1], "multidegree": {"0": 1, "1": 2}, "nonfree": [2]},
}

READERS = {
    "graph": graph_from_json,
    "stability": lambda doc: stability_from_json(genus_decorated(), doc),
    "polarization": lambda doc: polarization_from_json(banana(), doc),
    "sheaf": lambda doc: sheaf_from_json(genus_decorated(), doc),
}


def parses_or_schema_error(kind, doc):
    try:
        READERS[kind](doc)
    except SchemaError:
        pass


@st.composite
def mutated(draw, kind):
    """A well-formed document with one value, at any depth, replaced."""
    doc = copy.deepcopy(WELL_FORMED[kind])
    holder, key = None, None
    node = doc
    while isinstance(node, (dict, list)) and node and (
        holder is None or draw(st.booleans())
    ):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        holder, key = node, draw(st.sampled_from(list(keys)))
        node = holder[key]
    holder[key] = draw(JSON)
    return doc


def test_well_formed_documents_parse():
    for kind, doc in WELL_FORMED.items():
        READERS[kind](doc)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(READERS)), JSON)
def test_arbitrary_documents(kind, doc):
    parses_or_schema_error(kind, doc)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_field_mutated(data):
    kind = data.draw(st.sampled_from(sorted(READERS)))
    parses_or_schema_error(kind, data.draw(mutated(kind)))
