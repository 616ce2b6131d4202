from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isingpoly.subgraphs as subgraphs
from isingpoly.graphs import (
    build_complete_bipartite,
    build_cycle,
    build_hypercube,
    independent_set_table,
)
from isingpoly.model import ModelParams
from oracles import edge_subset_nbr

GRAPHS = [build_cycle(4), build_cycle(6), build_cycle(8), build_hypercube(3),
          build_complete_bipartite(3)]


@pytest.mark.parametrize("cap", [subgraphs._MEMO_CAP, 4])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_masks_in_any_order_match_the_fraction_table(cap, data):
    # a cap of 4 states drops the memo before nearly every mask; at the
    # default cap the masks share one memo
    g = data.draw(st.sampled_from(GRAPHS))
    lam = data.draw(st.fractions(Fraction(1, 12), 20, max_denominator=12))
    edges = list(g.edges())
    masks = data.draw(st.lists(st.integers(0, (1 << len(edges)) - 1),
                               min_size=1, max_size=20))
    full = (1 << g.n) - 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subgraphs, "_MEMO_CAP", cap)
        scaled_z = subgraphs.subgraph_z(g, ModelParams(lam, Fraction(1, 2)))
        for sub in masks:
            value = scaled_z(sub)
            table = independent_set_table(edge_subset_nbr(g.n, edges, sub),
                                          [lam] * g.n, full)
            assert type(value) is int
            assert value == lam.denominator ** g.n * table[full]
