"""Fuzz the one-mask queries of a graph: a mask that is not an int in
0..full_mask, a bool or a float raises DomainMismatch from
``DualGraph.check_mask``, never an answer or another exception.

Ints reach |x| <= 2**80, far past the 16 bits a graph can index, so a
query that used such a mask as a table index or a bit pattern would show.
"""

import pytest
from hypothesis import given, strategies as st

from vstab.errors import DomainMismatch

from conftest import LADDER

QUERIES = [
    "check_mask", "complement", "is_connected", "connected_components",
    "biconnected_within", "internal_edges", "internal_edge_count",
    "subcurve_genus", "induced", "tree_valence",
]


@st.composite
def graph_and_bad_mask(draw):
    g = draw(st.sampled_from(LADDER))()
    mask = draw(
        st.integers(-2 ** 80, -1)
        | st.integers(g.full_mask + 1, 2 ** 80)
        | st.booleans()
        | st.floats()
    )
    return g, mask


@pytest.mark.parametrize("query", QUERIES)
@given(case=graph_and_bad_mask())
def test_bad_mask_refused(query, case):
    g, mask = case
    with pytest.raises(DomainMismatch):
        getattr(g, query)(mask)

