import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isingpoly import graphs
from isingpoly.graphs import (
    BipartiteGraph,
    BudgetError,
    GraphFormatError,
    _lex_key,
    bits,
    build_cartesian_product,
    build_complete_bipartite,
    build_cycle,
    build_even_torus,
    build_hypercube,
    build_middle_layer,
    closure,
    codegree,
    enumerate_two_linked,
    graph_from_json,
    graph_json_chunks,
    independent_set_table,
    is_two_linked,
    max_codegree,
    neighborhood,
    two_linked_components,
)
from oracles import (
    brute_closure,
    brute_independent_set_sum,
    brute_is_two_linked,
    brute_neighborhood,
    brute_two_linked_sets,
    graph_to_json,
    graphs_isomorphic,
    masks_to_tuples,
)


def side_of(g, v):
    return "E" if g.side_E_mask >> v & 1 else "O"


def assert_regular_bipartite(g):
    for v in range(g.n):
        assert len(g.adj[v]) == g.d, f"vertex {v} degree {len(g.adj[v])}"
    for u, v in g.edges():
        assert side_of(g, u) != side_of(g, v), f"edge ({u},{v}) inside a side"
    assert len(g.side_E) == len(g.side_O) == g.n // 2


class TestBuilders:
    def test_hypercube_d1_is_single_edge(self):
        g = build_hypercube(1)
        assert g.n == 2 and g.d == 1
        assert g.adj == ((1,), (0,))
        assert g.side_E == (0,) and g.side_O == (1,)

    def test_hypercube_d2_is_four_cycle(self):
        g = build_hypercube(2)
        assert g.n == 4
        # even-popcount strings 00 and 11 form one side
        assert g.side_E == (0, 3)
        assert g.side_O == (1, 2)
        assert_regular_bipartite(g)

    def test_hypercube_d3(self):
        g = build_hypercube(3)
        assert g.n == 8 and g.d == 3
        assert_regular_bipartite(g)

    def test_hypercube_guards(self):
        with pytest.raises(ValueError):
            build_hypercube(0)
        # Q14 sits at the ceiling, and Q15 is one doubling past it
        assert build_hypercube(14).n == graphs.VERTEX_CEILING == 1 << 14
        with pytest.raises(BudgetError, match="at least 32768 vertices, "
                                              "past the ceiling of 16384"):
            build_hypercube(15)
        # 2^d is counted one factor at a time, never to the end
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="at least 32768 vertices"):
            build_hypercube(10 ** 9)
        assert time.perf_counter() - start < 1

    def test_torus_61_is_six_cycle(self):
        g = build_even_torus(6, 1)
        assert g.n == 6 and g.d == 2
        assert g.adj[0] == (1, 5)
        assert g.adj[3] == (2, 4)
        assert g.side_E == (0, 2, 4)

    def test_torus_41_is_four_cycle(self):
        g = build_even_torus(4, 1)
        assert g.n == 4 and g.d == 2
        assert g.adj[0] == (1, 3)

    def test_torus_62(self):
        g = build_even_torus(6, 2)
        assert g.n == 36 and g.d == 4
        assert_regular_bipartite(g)
        # vertex (1,2) has index 8; neighbors move one coordinate by +-1
        assert g.adj[8] == (2, 7, 9, 14)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_hypercube_is_the_bit_flip_graph(self, d):
        g = build_hypercube(d)
        n = 1 << d
        assert g.adj == tuple(tuple(sorted(v ^ (1 << k) for k in range(d)))
                              for v in range(n))
        assert g.side_E == tuple(v for v in range(n)
                                 if v.bit_count() % 2 == 0)
        assert g.label == f"hypercube:{d}"

    @pytest.mark.parametrize("m,t", [(4, 1), (4, 3), (4, 4), (6, 2), (8, 2),
                                     (10, 2), (6, 3)])
    def test_torus_moves_one_coordinate_by_one(self, m, t):
        g = build_even_torus(m, t)
        place = [m ** (t - 1 - i) for i in range(t)]
        for v in range(g.n):
            coords = [v // w % m for w in place]
            expected = sorted(v + ((x + s) % m - x) * w
                              for x, w in zip(coords, place) for s in (1, -1))
            assert g.adj[v] == tuple(expected)
            assert side_of(g, v) == ("E" if sum(coords) % 2 == 0 else "O")
        assert g.label == f"torus:{m},{t}"

    def test_torus_guards(self):
        with pytest.raises(ValueError):
            build_even_torus(5, 1)
        with pytest.raises(ValueError):
            build_even_torus(2, 2)
        assert build_even_torus(128, 2).n == 16384
        with pytest.raises(BudgetError, match="at least 20736 vertices"):
            build_even_torus(12, 4)
        # m^t is counted one factor at a time: 4^8 passes the ceiling
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="at least 65536 vertices"):
            build_even_torus(4, 10 ** 8)
        assert time.perf_counter() - start < 1

    def test_product_of_two_edges_is_square(self):
        k2 = build_complete_bipartite(1)
        assert build_cartesian_product([k2, k2]) == build_hypercube(2)

    def test_product_of_cycles_equals_torus(self):
        c6 = build_cycle(6)
        prod = build_cartesian_product([c6, c6])
        torus = build_even_torus(6, 2)
        # identity on coordinate tuples: same indices, same adjacency, same sides
        assert prod == torus

    def test_product_of_k22(self):
        k22 = build_complete_bipartite(2)
        g = build_cartesian_product([k22, k22])
        assert g.n == 16 and g.d == 4
        assert_regular_bipartite(g)

    def test_product_rejects_disconnected_factor(self):
        # two disjoint 4-cycles
        adj = [(1, 3), (0, 2), (1, 3), (0, 2),
               (5, 7), (4, 6), (5, 7), (4, 6)]
        twin = BipartiteGraph(8, 2, [0, 2, 4, 6], adj)
        with pytest.raises(ValueError, match="not connected"):
            build_cartesian_product([twin, build_complete_bipartite(1)])

    def test_complete_bipartite(self):
        k2 = build_complete_bipartite(1)
        assert k2.n == 2 and k2.d == 1
        assert graphs_isomorphic(build_complete_bipartite(2), build_hypercube(2))
        k33 = build_complete_bipartite(3)
        assert k33.n == 6 and k33.d == 3
        assert_regular_bipartite(k33)

    def test_middle_layer_small(self):
        assert graphs_isomorphic(build_middle_layer(1), build_complete_bipartite(1))
        ml2 = build_middle_layer(2)
        assert ml2.n == 6 and ml2.d == 2
        assert graphs_isomorphic(ml2, build_cycle(6))

    def test_middle_layer_d3(self):
        g = build_middle_layer(3)
        assert g.n == 20 and g.d == 3
        assert_regular_bipartite(g)

    def test_middle_layer_budget_checked_before_listing(self, monkeypatch):
        # 2^59 ground-set masks would never finish; the count comes first,
        # as 2 C(d + i, i) for i = 1, 2, ..., and stops past the ceiling
        with pytest.raises(BudgetError, match="at least 92752 vertices"):
            build_middle_layer(30)
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="at least 2000002 vertices"):
            build_middle_layer(10 ** 6)
        assert time.perf_counter() - start < 1
        monkeypatch.setattr("isingpoly.graphs.VERTEX_CEILING", 19)
        with pytest.raises(BudgetError, match="at least 20 vertices, past "
                                              "the ceiling of 19"):
            build_middle_layer(3)
        monkeypatch.setattr("isingpoly.graphs.VERTEX_CEILING", 20)
        assert build_middle_layer(3).n == 20

    def test_builders_record_vertex_transitivity(self):
        for g in (build_cycle(6), build_complete_bipartite(3),
                  build_middle_layer(3), build_hypercube(3),
                  build_even_torus(6, 2),
                  build_cartesian_product([build_cycle(4),
                                           build_complete_bipartite(3)])):
            assert g.vertex_transitive is True
            # a loaded graph states no symmetry, nor does a product with it
            loaded = graph_from_json(graph_to_json(g))
            assert loaded.vertex_transitive is False
            assert build_cartesian_product(
                [g, loaded]).vertex_transitive is False
        assert BipartiteGraph(4, 2, [0, 2], [(1, 3), (0, 2), (1, 3),
                                             (0, 2)]).vertex_transitive is False

    def test_constructor_rejects_same_side_edge(self):
        with pytest.raises(GraphFormatError, match="same side"):
            BipartiteGraph(4, 2, [0, 2],
                           [(1, 2), (0, 3), (0, 3), (1, 2)])

    def test_constructor_rejects_wrong_degree(self):
        with pytest.raises(GraphFormatError, match="degree"):
            BipartiteGraph(4, 2, [0, 2], [(1,), (0, 2), (1, 3), (2, 0)])


class TestSetOperations:
    def test_neighborhood_c6(self):
        c6 = build_cycle(6)
        assert bits(neighborhood(c6, {0})) == (1, 5)
        assert bits(neighborhood(c6, {0, 1})) == (2, 5)

    def test_neighborhood_excludes_input(self):
        q3 = build_hypercube(3)
        assert bits(neighborhood(q3, q3.side_E)) == q3.side_O

    def test_neighborhood_matches_oracle(self):
        for g in (build_cycle(6), build_hypercube(3), build_middle_layer(2)):
            for xs in ({0}, {0, 1}, {0, 2, 5}, set(range(g.n))):
                assert bits(neighborhood(g, xs)) == brute_neighborhood(g, xs)

    def test_closure_c6_singleton(self):
        c6 = build_cycle(6)
        assert bits(closure(c6, {0})) == (0,)

    def test_closure_c4_twins(self):
        c4 = build_even_torus(4, 1)
        # N(0) = N(2) = {1,3}, so the closure of {0} picks up its twin
        assert bits(closure(c4, {0})) == (0, 2)

    def test_closure_matches_oracle(self):
        q3 = build_hypercube(3)
        for a in ({0}, {0, 3}, {0, 3, 5}, set(q3.side_E)):
            assert bits(closure(q3, a)) == brute_closure(q3, a, q3.side_E)

    def test_closure_idempotent_and_neighborhood_preserving(self):
        q4 = build_hypercube(4)
        for a in ({0}, {0, 3}, {0, 3, 5, 6}, {0, 15}):
            cl = closure(q4, a)
            assert closure(q4, cl) == cl
            assert neighborhood(q4, cl) == neighborhood(q4, a)

    def test_closure_errors(self):
        q3 = build_hypercube(3)
        with pytest.raises(ValueError):
            closure(q3, set())
        with pytest.raises(ValueError, match="straddles"):
            closure(q3, {0, 1})
        with pytest.raises(ValueError, match="not on side"):
            closure(q3, {0}, side="O")

    def test_is_two_linked(self):
        c6 = build_cycle(6)
        assert is_two_linked(c6, {0, 2})
        assert not is_two_linked(c6, {0, 3})
        assert is_two_linked(c6, {4})
        with pytest.raises(ValueError):
            is_two_linked(c6, 0)

    def test_is_two_linked_matches_oracle(self):
        q3 = build_hypercube(3)
        sets = [{0, 3}, {0, 5}, {0, 3, 5}, {0, 7}, {3, 5, 6}, {0, 3, 5, 6}]
        for s in sets:
            assert is_two_linked(q3, s) == brute_is_two_linked(q3, s)

    def test_two_linked_components(self):
        c8 = build_cycle(8)
        comps = two_linked_components(c8, {0, 2, 5})
        assert masks_to_tuples(comps) == [(0, 2), (5,)]
        assert two_linked_components(c8, 0) == []

    def test_enumerate_two_linked_c6(self):
        c6 = build_cycle(6)
        assert masks_to_tuples(enumerate_two_linked(c6, 0, 1)) == [(0,)]
        assert masks_to_tuples(enumerate_two_linked(c6, 0, 2)) == [
            (0,), (0, 1), (0, 2), (0, 4), (0, 5)]

    @pytest.mark.parametrize("builder, args", [
        (build_cycle, (6,)),
        (build_hypercube, (3,)),
        (build_complete_bipartite, (3,)),
        (build_middle_layer, (2,)),
    ])
    def test_enumerate_two_linked_matches_oracle(self, builder, args):
        g = builder(*args)
        for v in (0, g.n - 1):
            got = masks_to_tuples(enumerate_two_linked(g, v, 3))
            assert got == brute_two_linked_sets(g, v, 3)

    def test_enumerate_two_linked_count_bound(self):
        import math
        for g in (build_hypercube(3), build_hypercube(4)):
            by_size = {}
            for m in enumerate_two_linked(g, 0, 3):
                by_size[m.bit_count()] = by_size.get(m.bit_count(), 0) + 1
            for ell, count in by_size.items():
                assert count <= (math.e * g.d ** 2) ** (ell - 1)

    def test_enumerate_two_linked_budget(self):
        q4 = build_hypercube(4)
        with pytest.raises(BudgetError):
            list(enumerate_two_linked(q4, 0, 8, enum_cap=50))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 2 ** 40 - 1), min_size=1, max_size=30))
    def test_lex_key_sorts_as_vertex_tuples(self, masks):
        # each mask also with its top vertex dropped: a tuple sorts before
        # every longer tuple it is a prefix of, as {0, 1} before {0, 1, 3}
        masks = masks + [m ^ 1 << m.bit_length() - 1
                         for m in masks if m & m - 1] + [0b1011, 0b11, 0b1]
        assert sorted(masks, key=_lex_key) == sorted(masks, key=bits)

    def test_codegree(self):
        c6 = build_cycle(6)
        assert codegree(c6, 0, 2) == 1
        assert max_codegree(build_hypercube(3)) == 2
        z62 = build_even_torus(6, 2)
        # (0,0) and (1,1) share the two corner paths
        assert codegree(z62, 0, 7) == 2
        with pytest.raises(ValueError):
            codegree(c6, 1, 1)


class TestSerialization:
    def test_round_trip(self):
        for g in (build_hypercube(3), build_even_torus(6, 2),
                  build_middle_layer(2), build_complete_bipartite(3)):
            again = graph_from_json(graph_to_json(g))
            assert again == g
            # canonical form is stable
            assert graph_to_json(again) == graph_to_json(g)

    @pytest.mark.parametrize("g", [
        build_hypercube(1), build_hypercube(4), build_even_torus(6, 2),
        build_even_torus(4, 3), build_cycle(4), build_cycle(10),
        build_complete_bipartite(1), build_complete_bipartite(5),
        build_middle_layer(1), build_middle_layer(3),
        build_cartesian_product([build_cycle(4), build_complete_bipartite(3)]),
    ], ids=lambda g: g.label)
    def test_chunks_join_to_the_whole_payload(self, g):
        # byte for byte json.dumps of the payload, one list per edge
        assert "".join(graph_json_chunks(g)) == graph_to_json(g)

    def test_chunks_never_hold_the_text(self):
        import tracemalloc
        g = build_complete_bipartite(512)
        tracemalloc.start()
        try:
            length = sum(map(len, graph_json_chunks(g)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 262,144 edges make about 3.5 MB of text; one vertex's row of
        # 512 edges is about 7 KB
        assert length > 3_000_000
        assert peak < length // 20

    def test_loader_rejects_duplicate_edge(self):
        bad = ('{"n": 2, "d": 1, "side_O": [1], "side_E": [0], '
               '"edges": [[0, 1], [1, 0]]}')
        with pytest.raises(GraphFormatError, match=r"duplicate edge \(1, 0\)"):
            graph_from_json(bad)

    def test_loader_rejects_same_side_edge(self):
        bad = ('{"n": 4, "d": 1, "side_O": [2, 3], "side_E": [0, 1], '
               '"edges": [[0, 1], [2, 3]]}')
        with pytest.raises(GraphFormatError, match=r"edge \(0, 1\)"):
            graph_from_json(bad)

    def test_loader_rejects_bad_partition(self):
        bad = ('{"n": 2, "d": 1, "side_O": [1], "side_E": [1], '
               '"edges": [[0, 1]]}')
        with pytest.raises(GraphFormatError, match="vertex 1"):
            graph_from_json(bad)

    def test_loader_rejects_missing_field(self):
        with pytest.raises(GraphFormatError, match="side_O"):
            graph_from_json('{"n": 2, "d": 1, "side_E": [0], "edges": []}')

    @pytest.mark.parametrize("text,match", [
        ("5", "expected a JSON object, got int"),
        ("[0, 1]", "expected a JSON object, got list"),
        ('{"n": 2, "d": 1, "side_O": 1, "side_E": [0], "edges": []}',
         "side_O must be a list"),
        ('{"n": 2, "d": 1, "side_O": [1], "side_E": [0], "edges": {}}',
         "edges must be a list"),
        ('{"n": 2, "d": 1, "side_O": ["1"], "side_E": [0], "edges": []}',
         "vertex '1' is not an integer"),
        ('{"n": 2, "d": 1, "side_O": [1], "side_E": [0], '
         '"edges": [["a", 1]]}', r"edge \['a', 1\] has a non-integer"),
        ('{"n": 2, "d": 1, "side_O": [1], "side_E": [0], '
         '"edges": [[0, 1.0]]}', "non-integer endpoint"),
        ('{"n": 10000000000, "d": 1, "side_O": [1], "side_E": [0], '
         '"edges": [[0, 1]]}', "sides hold 2 vertices but n = 10000000000"),
        ("[" * 100_000, "invalid JSON"),
        ("1" * 5000, "invalid JSON"),
    ])
    def test_loader_rejects_wrong_types_by_name(self, text, match):
        with pytest.raises(GraphFormatError, match=match):
            graph_from_json(text)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=3), inner, max_size=5),
    max_leaves=20)
_small_ints = st.integers(-2, 6)
# payloads with all five keys, mostly well typed, so the later checks run
_graphish = st.fixed_dictionaries({
    "n": _small_ints | _json_values,
    "d": _small_ints | _json_values,
    "side_E": st.lists(_small_ints, max_size=4) | _json_values,
    "side_O": st.lists(_small_ints, max_size=4) | _json_values,
    "edges": st.lists(st.lists(_small_ints | _json_values, min_size=2,
                               max_size=2), max_size=6) | _json_values,
})


class TestVertexCeiling:
    # graphs.VERTEX_CEILING bounds every graph's vertex count; each check
    # reads it when it runs
    @pytest.mark.parametrize("build,n", [
        (lambda: build_hypercube(3), 8),
        (lambda: build_even_torus(4, 2), 16),
        (lambda: build_cycle(8), 8),
        (lambda: build_complete_bipartite(4), 8),
        (lambda: build_middle_layer(3), 20),
        (lambda: build_cartesian_product([build_cycle(4)] * 2), 16),
        (lambda: graph_from_json(graph_to_json(build_cycle(8))), 8),
        (lambda: BipartiteGraph(8, 2, range(0, 8, 2), [
            ((v - 1) % 8, (v + 1) % 8) for v in range(8)]), 8),
    ], ids=["hypercube", "torus", "cycle", "kss", "midlayer", "product",
            "graph_from_json", "constructor"])
    def test_lowered_ceiling_refuses(self, monkeypatch, build, n):
        assert build().n == n
        monkeypatch.setattr("isingpoly.graphs.VERTEX_CEILING", n - 1)
        with pytest.raises(BudgetError, match=f"past the ceiling of {n - 1}"):
            build()
        monkeypatch.setattr("isingpoly.graphs.VERTEX_CEILING", n)
        assert build().n == n

    def test_product_counts_before_listing(self):
        # C16384 twice is 2^28 vertices, refused from the factors' sizes
        c = build_cycle(1 << 14)
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="at least 268435456 vertices"):
            build_cartesian_product([c, c])
        assert time.perf_counter() - start < 1

    def test_json_graph_checked_before_its_masks(self, monkeypatch):
        text = graph_to_json(build_cycle(8))
        monkeypatch.setattr("isingpoly.graphs.VERTEX_CEILING", 6)
        monkeypatch.setattr("isingpoly.graphs.as_mask", None)
        with pytest.raises(BudgetError, match="at least 8 vertices, past "
                                              "the ceiling of 6"):
            graph_from_json(text)


@settings(max_examples=300, deadline=None)
@given(_json_values | _graphish)
def test_graph_from_json_raises_only_graph_format_error(payload):
    try:
        g = graph_from_json(json.dumps(payload))
    except GraphFormatError:
        return
    assert graph_from_json(graph_to_json(g)) == g


class TestIndependentSetSum:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_brute_force_with_or_without_self_bits(self, data):
        n = data.draw(st.integers(1, 8))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)
                          if pairs else st.just([]))
        nbr = [0] * n
        for u, v in edges:
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
        weights = data.draw(st.lists(
            st.fractions(min_value=Fraction(1, 9), max_value=9,
                         max_denominator=9), min_size=n, max_size=n))
        allowed = data.draw(st.integers(0, (1 << n) - 1))
        expected = brute_independent_set_sum(nbr, weights, allowed)
        looped = [m | 1 << v for v, m in enumerate(nbr)]
        assert independent_set_table(nbr, weights, allowed)[allowed] == expected
        assert independent_set_table(looped, weights,
                                     allowed)[allowed] == expected


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=7), min_size=1).map(
    lambda ix: {build_hypercube(4).side_E[i] for i in ix}))
def test_closure_properties_hold_on_q4(a):
    q4 = build_hypercube(4)
    cl = closure(q4, a)
    assert cl & as_mask_of(a) == as_mask_of(a)  # A subset of [A]
    assert closure(q4, cl) == cl
    assert neighborhood(q4, cl) == neighborhood(q4, a)


def as_mask_of(xs):
    m = 0
    for v in xs:
        m |= 1 << v
    return m
