"""Cluster expansion: Ursell values against an independent recursion,
multiset enumeration censuses, exact expansion terms, and the convergence
condition with its truncation tail bound."""

import collections
import functools
import gc
import math
from fractions import Fraction
from itertools import combinations, product

import pytest

from isingpoly import clusters as clusters_module
from isingpoly import polymers as polymers_module
from isingpoly.clusters import (
    KPFunctions,
    _clusters,
    enumerate_clusters,
    kp_check,
    kp_sum_audit,
    l_k,
    lk_tail_shape,
    log_xi_truncation_report,
    ursell,
)
from isingpoly.graphs import (
    BudgetError,
    build_complete_bipartite,
    build_cycle,
    build_even_torus,
    build_hypercube,
    is_two_linked,
    popcount,
)
from isingpoly.model import ModelParams
from isingpoly.polymers import (PolymerFamily, enumerate_polymers,
                                polymer_weight, xi_brute)

from oracles import (brute_connected, brute_ursell, fraction_polymer_weight,
                     walk_clusters)

F = Fraction


def params(lam, p) -> ModelParams:
    return ModelParams(lam=F(lam), p=F(p))


K2 = [(0, 1)]
P3 = [(0, 1), (1, 2)]
K3 = [(0, 1), (1, 2), (0, 2)]
K4 = list(combinations(range(4), 2))


class TestUrsell:
    def test_single_vertex(self):
        assert ursell(1, []) == 1

    def test_edge(self):
        assert ursell(2, K2) == F(-1, 2)

    def test_path_three(self):
        assert ursell(3, P3) == F(1, 6)

    def test_triangle(self):
        assert ursell(3, K3) == F(1, 3)

    def test_complete_four(self):
        assert ursell(4, K4) == F(-1, 4)

    def test_disconnected_vanishes(self):
        assert ursell(2, []) == 0
        assert ursell(3, [(0, 1)]) == 0

    def test_duplicate_edges_collapse(self):
        assert ursell(2, [(0, 1), (1, 0)]) == F(-1, 2)

    def test_relabel_invariance(self):
        from itertools import permutations

        paw = [(0, 1), (1, 2), (0, 2), (2, 3)]
        base = ursell(4, paw)
        for perm in permutations(range(4)):
            relabeled = [(perm[u], perm[v]) for u, v in paw]
            assert ursell(4, relabeled) == base

    @staticmethod
    def assert_matches_oracle_on_every_graph(k):
        # both routes, exhaustively: the library's connected-part recursion
        # against the oracle's signed edge sweep, nonzero exactly where the
        # oracle's union-find finds the graph connected
        pool = list(combinations(range(k), 2))
        for edge_bits in range(1 << len(pool)):
            edges = [pool[i] for i in range(len(pool)) if edge_bits >> i & 1]
            value = ursell(k, edges)
            assert value == brute_ursell(k, edges)
            assert (value != 0) == brute_connected(k, edges)

    def test_matches_recursion_oracle_on_all_four_vertex_graphs(self):
        for k in range(1, 5):
            self.assert_matches_oracle_on_every_graph(k)

    def test_matches_recursion_oracle_on_five_vertex_samples(self):
        # all 1024 five-vertex graphs, a superset of any sample of them
        self.assert_matches_oracle_on_every_graph(5)

    def test_vertex_count_guards(self):
        with pytest.raises(ValueError):
            ursell(0, [])
        # the complete graph K_k has Ursell value (-1)^(k-1) / k
        assert ursell(12, list(combinations(range(12), 2))) == F(-1, 12)
        with pytest.raises(BudgetError) as info:
            ursell(13, [])
        assert str(info.value) == ("the Ursell function would need 13 "
                                   "vertices, past the ceiling of 12 vertices")

    def test_bad_edge_rejected(self):
        with pytest.raises(ValueError):
            ursell(2, [(0, 2)])
        with pytest.raises(ValueError):
            ursell(2, [(1, 1)])


class TestClusterEnumeration:
    def test_cycle_six_census_at_k_two(self):
        g = build_cycle(6)
        clusters = enumerate_clusters(g, "E", params(1, 1), k_max=2)
        singles = [c for c in clusters if c.size == 1]
        repeats = [c for c in clusters if c.size == 2 and len(c.entries) == 1]
        pairs = [c for c in clusters if c.size == 2 and len(c.entries) == 2]
        assert len(singles) == 3
        assert len(repeats) == 3
        assert len(pairs) == 3
        assert len(clusters) == 9
        for c in singles:
            assert c.orderings == 1 and c.ursell_value == 1
        for c in repeats:
            assert c.entries[0][1] == 2
            assert c.orderings == 1 and c.ursell_value == F(-1, 2)
        for c in pairs:
            assert c.orderings == 2 and c.ursell_value == F(-1, 2)

    def test_torus_anchored_count(self):
        # clusters of size <= 2 whose support contains a fixed vertex:
        # the repeated singleton, one pair per same-side vertex at distance
        # two, and one per 2-element polymer through the vertex
        g = build_even_torus(6, 2)
        prm = params(1, F(1, 2))
        u = g.side_E[0]
        clusters = enumerate_clusters(g, "E", prm, k_max=2)
        anchored = []
        for c in clusters:
            union = 0
            for poly, _ in c.entries:
                union |= poly.vertices
            if union >> u & 1:
                anchored.append(c)
        n2 = popcount(g.two_ball_mask(u) & g.side_E_mask)
        assert n2 == 8
        big = [p for p in enumerate_polymers(g, "E", size_max=2)
               if popcount(p.vertices) == 2 and p.vertices >> u & 1]
        singleton_anchor = [c for c in anchored if c.size == 1]
        assert len(singleton_anchor) == 1
        assert len(anchored) == len(singleton_anchor) + 1 + n2 + len(big)

    def test_compatible_pair_is_not_a_cluster(self):
        # on an 8-cycle the even singletons {0} and {4} are compatible, so
        # no two-entry cluster joins them
        g = build_cycle(8)
        clusters = enumerate_clusters(g, "E", params(1, 1), k_max=2)
        for c in clusters:
            if len(c.entries) == 2:
                a = c.entries[0][0].vertices
                b = c.entries[1][0].vertices
                assert is_two_linked(g, a | b)

    def test_budget_guards(self, monkeypatch):
        g = build_cycle(6)
        with pytest.raises(ValueError):
            enumerate_clusters(g, "E", params(1, 1), k_max=0)
        clusters = enumerate_clusters(g, "E", params(1, 1), k_max=5)
        assert max(c.size for c in clusters) == 5
        with pytest.raises(BudgetError) as info:
            enumerate_clusters(g, "E", params(1, 1), k_max=13)
        assert str(info.value) == ("the Ursell function would need 13 "
                                   "vertices, past the ceiling of 12 vertices")
        # seven 2-linked sets fit the cap; the walk's 55 multisets do not
        monkeypatch.setattr("isingpoly.graphs.WALK_CEILING", 10)
        with pytest.raises(BudgetError) as info:
            enumerate_clusters(g, "E", params(1, 1), k_max=5)
        assert str(info.value) == ("the cluster walk to size 5 would need at "
                                   "least 11 multisets, past the ceiling of "
                                   "10 multisets")

    def test_ursell_ceiling_read_when_the_walk_runs(self, monkeypatch):
        # C6's side E has three singleton polymers, pairwise incompatible;
        # a ceiling raised to 13 lets the walk build graphs of 13 copies
        family = PolymerFamily(build_cycle(6), "E", params(1, 1),
                               size_max=14)
        monkeypatch.setattr("isingpoly.graphs.URSELL_CEILING", 13)
        found = []
        _clusters(family, 13, found.append)
        assert len(found) == 559
        assert max(c.size for c in found) == 13
        with pytest.raises(BudgetError) as info:
            _clusters(family, 14, found.append)
        assert str(info.value) == ("the Ursell function would need 14 "
                                   "vertices, past the ceiling of 13 vertices")

    @pytest.mark.parametrize("k_max,cap,message", [
        (5, 10, "the cluster walk to size 5 would need at least 11 "
                "multisets, past the ceiling of 10 multisets"),
        # at k_max 13 the 13th multiset, {0, 2, 4 x 11}, is the first with
        # 13 copies: at a cap of 12 both caps bind there and the multiset
        # count, checked first, decides; at 13 only the Ursell cap binds
        (13, 12, "the cluster walk to size 13 would need at least 13 "
                 "multisets, past the ceiling of 12 multisets"),
        (13, 13, "the Ursell function would need 13 vertices, past the "
                 "ceiling of 12 vertices"),
        (13, None, "the Ursell function would need 13 vertices, past the "
                   "ceiling of 12 vertices"),
    ])
    def test_budget_errors_match_the_oracle_walk(self, monkeypatch, k_max,
                                                 cap, message):
        family = PolymerFamily(build_cycle(6), "E", params(1, 1),
                               size_max=k_max)
        if cap is not None:
            monkeypatch.setattr("isingpoly.graphs.WALK_CEILING", cap)
        with pytest.raises(BudgetError) as oracle:
            list(walk_clusters(family, k_max))
        with pytest.raises(BudgetError) as walk:
            _clusters(family, k_max, lambda cluster: None)
        assert str(walk.value) == str(oracle.value) == message

    def test_budget_counts_every_visited_multiset(self, monkeypatch):
        # T6,2 at k_max 4: 31,482 multisets visited, 21,318 of them
        # clusters; the budget counts the visits, not the clusters
        g, prm = build_even_torus(6, 2), params(F(1, 2), F(1, 2))
        monkeypatch.setattr("isingpoly.graphs.WALK_CEILING", 31_482)
        clusters = enumerate_clusters(g, "E", prm, k_max=4)
        assert len(clusters) == 21_318
        monkeypatch.setattr("isingpoly.graphs.WALK_CEILING", 31_481)
        message = ("the cluster walk to size 4 would need at least 31482 "
                   "multisets, past the ceiling of 31481 multisets")
        with pytest.raises(BudgetError) as walk:
            enumerate_clusters(g, "E", prm, k_max=4)
        family = PolymerFamily(g, "E", prm, size_max=4)
        with pytest.raises(BudgetError) as oracle:
            list(walk_clusters(family, 4))
        assert str(walk.value) == str(oracle.value) == message

    def test_one_ursell_evaluation_per_expanded_graph(self, monkeypatch):
        # T6,2 at k_max 4: 31,482 multisets, 73 distinct expanded graphs
        graphs = []
        ursell_of = clusters_module._ursell
        monkeypatch.setattr(clusters_module, "_ursell",
                            lambda nbr: graphs.append(nbr) or ursell_of(nbr))
        g = build_even_torus(6, 2)
        for _ in range(2):
            graphs.clear()
            enumerate_clusters(g, "E", params(F(1, 2), F(1, 2)), k_max=4)
            assert len(set(graphs)) == len(graphs) == 73


WALK_GRAPHS = {"C6": build_cycle(6), "C8": build_cycle(8),
               "Q3": build_hypercube(3), "Q4": build_hypercube(4),
               "K3,3": build_complete_bipartite(3),
               "T6,2": build_even_torus(6, 2)}


def oracle_terms(g, prm, k_max: int, family, stream):
    """L_1..L_{k_max} from the oracle walk's (chosen, cluster) stream over
    the family, each polymer weighed by the Fraction product route."""
    weights = [fraction_polymer_weight(g, prm, p.vertices)
               for p in family.polymers]
    terms = {k: F(0) for k in range(1, k_max + 1)}
    for chosen, cl in stream:
        terms[cl.size] += cl.orderings * cl.ursell_value * math.prod(
            weights[i] ** mult for i, mult in chosen)
    return terms


WALK_PARAMS = pytest.mark.parametrize("lam,p", [(1, 1), (F(1, 2), F(1, 2))],
                                      ids=["1,1", "1/2,1/2"])


class TestClusterWalk:
    @WALK_PARAMS
    @pytest.mark.parametrize("name,k_max", [
        *((name, k) for name in WALK_GRAPHS for k in (1, 2, 3, 4)),
        ("C6", 5)])
    def test_stream_and_terms_match_the_oracle_walk(self, name, k_max,
                                                     lam, p):
        g, prm = WALK_GRAPHS[name], params(lam, p)
        family = PolymerFamily(g, "E", prm, size_max=k_max)
        stream = []
        _clusters(family, k_max, stream.append)
        expected = list(walk_clusters(family, k_max))
        # cluster equality compares the entries, so the chosen polymers too
        assert stream == [cluster for _, cluster in expected]
        assert enumerate_clusters(g, "E", prm, k_max=k_max) == stream
        assert l_k(g, "E", prm, k=k_max) == \
            oracle_terms(g, prm, k_max, family, expected)[k_max]

    def test_walk_leaves_no_garbage_cycle(self):
        # a reference cycle through the walk would hold what it emitted,
        # or the family, until a full collection after the caller is done
        g, prm = build_cycle(8), params(1, F(1, 2))
        gc.collect()
        gc.disable()
        try:
            enumerate_clusters(g, "E", prm, k_max=3)
            l_k(g, "E", prm, k=3)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @WALK_PARAMS
    @pytest.mark.parametrize("name,k_max", [
        ("C6", 5), ("C8", 4), ("Q3", 4), ("K3,3", 4)])
    def test_truncation_terms_match_the_oracle_walk(self, name, k_max,
                                                    lam, p):
        g, prm = WALK_GRAPHS[name], params(lam, p)
        report = log_xi_truncation_report(g, "E", prm, k_max=k_max)
        family = PolymerFamily(g, "E", prm, size_max=k_max)
        expected = oracle_terms(g, prm, k_max, family,
                                walk_clusters(family, k_max))
        assert {t["k"]: t["L_k"] for t in report["terms"]} == expected


class TestExpansionTerms:
    def test_l1_cycle_six(self):
        g = build_cycle(6)
        assert l_k(g, "E", params(1, F(1, 2)), k=1) == F(27, 16)

    @pytest.mark.parametrize("builder,arg", [
        (build_cycle, 6),
        (build_hypercube, 3),
        (build_even_torus, 6),
    ])
    def test_l1_closed_form_on_twin_free_graphs(self, builder, arg):
        g = builder(arg, 2) if builder is build_even_torus else builder(arg)
        prm = params(F(1, 2), F(1, 3))
        expected = F(g.n, 2) * prm.lam * \
            (1 - prm.lam * prm.p / (1 + prm.lam)) ** g.d
        assert l_k(g, "E", prm, k=1) == expected

    def test_l2_cycle_six_hard_core(self):
        g = build_cycle(6)
        assert l_k(g, "E", params(1, 1), k=2) == F(-9, 32)

    def test_all_terms_vanish_without_polymers(self):
        g = build_cycle(4)
        for k in (1, 2, 3):
            assert l_k(g, "E", params(1, 1), k=k) == 0

    @pytest.mark.parametrize("lam,p", [(1, F(1, 2)), (F(1, 3), 1)])
    def test_ordered_tuple_oracle_cycle_six(self, lam, p):
        # second route: sum over ordered polymer tuples with connected
        # incompatibility graph, Ursell from the recursion oracle
        g = build_cycle(6)
        prm = params(lam, p)
        polys = list(enumerate_polymers(g, "E", size_max=3))
        weights = [polymer_weight(g, prm, p_.vertices) for p_ in polys]
        sizes = [popcount(p_.vertices) for p_ in polys]
        by_size = {1: F(0), 2: F(0), 3: F(0)}
        for r in range(1, 4):
            for tup in product(range(len(polys)), repeat=r):
                total = sum(sizes[i] for i in tup)
                if total > 3:
                    continue
                edges = []
                for a in range(r):
                    for b in range(a + 1, r):
                        if tup[a] == tup[b] or is_two_linked(
                                g, polys[tup[a]].vertices |
                                polys[tup[b]].vertices):
                            edges.append((a, b))
                phi = brute_ursell(r, edges)
                if phi == 0:
                    continue
                w = phi
                for i in tup:
                    w *= weights[i]
                by_size[total] += w
        for k in (1, 2, 3):
            assert l_k(g, "E", prm, k=k) == by_size[k]

    def test_hypercube_terms_small_fugacity(self):
        g = build_hypercube(3)
        prm = params(F(1, 20), 1)
        w = F(400, 9261)
        assert l_k(g, "E", prm, k=1) == 4 * w
        assert l_k(g, "E", prm, k=2) == -8 * w ** 2
        assert l_k(g, "E", prm, k=3) == F(64, 3) * w ** 3


class TestClusterWeightParams:
    # a cluster depends on the graph only, so clusters enumerated at one
    # (lambda, p) weigh, at any other, what l_k sums there
    @pytest.mark.parametrize("g", [build_even_torus(4, 2), build_hypercube(4)])
    @pytest.mark.parametrize("lam,p", [(F(2, 3), F(1, 3)), (F(1, 20), 1)])
    def test_weights_follow_the_params_given(self, g, lam, p):
        other = params(lam, p)
        sums = {k: F(0) for k in (1, 2, 3)}
        for cl in enumerate_clusters(g, "E", params(1, F(1, 2)), k_max=3):
            w = cl.weight(g, other)
            assert w == cl.orderings * cl.ursell_value * math.prod(
                fraction_polymer_weight(g, other, poly.vertices) ** mult
                for poly, mult in cl.entries)
            sums[cl.size] += w
        assert sums == {k: l_k(g, "E", other, k=k) for k in (1, 2, 3)}

    def test_each_params_weighs_each_polymer_once(self, monkeypatch):
        g = build_even_torus(4, 2)
        own = params(1, F(1, 2))
        clusters = enumerate_clusters(g, "E", own, k_max=3)
        distinct = {poly.vertices for cl in clusters for poly, _ in cl.entries}
        weight_parts = polymers_module._weight_parts
        calls = collections.Counter()

        def counted(graph, prm, a):
            calls[prm] += 1
            return weight_parts(graph, prm, a)

        monkeypatch.setattr(polymers_module, "_weight_parts", counted)
        # an equal params object reads the same parts as the family's own
        weighed = [params(F(2, 3), F(1, 3)), own, params(1, F(1, 2)), own]
        for prm in weighed:
            for cl in clusters:
                cl.weight(g, prm)
        assert calls == {prm: len(distinct) for prm in weighed}

    def test_each_distinct_pair_is_reduced_once(self, monkeypatch):
        g = build_even_torus(6, 2)
        own = params(F(1, 2), F(1, 2))
        clusters = enumerate_clusters(g, "E", own, k_max=3)
        family = clusters[0].family
        pairs = {clusters_module._cluster_weight(cl, family.weight_parts)
                 for cl in clusters}
        built = []

        class Counted(Fraction):
            def __new__(cls, *args, **kwargs):
                built.append(args)
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(polymers_module, "Fraction", Counted)
        monkeypatch.setattr(clusters_module, "Fraction", Counted)
        weights = [cl.weight(g, own) for cl in clusters]
        assert len(built) == len(pairs) < len(clusters) // 100
        # a second pass and the polymers' own weights reduce nothing new:
        # every polymer of size <= 3 is a singleton cluster
        assert [cl.weight(g, params(F(1, 2), F(1, 2)))
                for cl in clusters] == weights
        assert set(family.weights) <= set(weights)
        assert len(built) == len(pairs)

    def test_alternating_params_read_their_own_weights(self):
        g = build_even_torus(4, 2)
        a, b = params(1, F(1, 2)), params(F(2, 3), F(1, 3))
        clusters = enumerate_clusters(g, "E", a, k_max=3)
        oracle = functools.cache(
            lambda prm, vertices: fraction_polymer_weight(g, prm, vertices))
        # each call switches params, so each reads another params' map
        for cl in clusters:
            assert [cl.weight(g, prm) for prm in (a, b, a)] == [
                cl.orderings * cl.ursell_value * math.prod(
                    oracle(prm, poly.vertices) ** mult
                    for poly, mult in cl.entries) for prm in (a, b, a)]

    @pytest.mark.parametrize("polymers_first", [True, False])
    def test_singleton_weight_is_its_polymer_weight(self, polymers_first):
        g = build_even_torus(4, 2)
        own = params(1, F(1, 2))
        clusters = enumerate_clusters(g, "E", own, k_max=2)
        family = clusters[0].family
        index = {p.vertices: i for i, p in enumerate(family.polymers)}
        if polymers_first:
            family.weights
        singles = [cl for cl in clusters if len(cl.entries) == 1
                   and cl.entries[0][1] == 1]
        assert len(singles) == len(family.polymers)
        weights = [cl.weight(g, own) for cl in singles]
        for cl, w in zip(singles, weights):
            assert w is family.weights[index[cl.entries[0][0].vertices]]

    def test_weight_refuses_another_graph(self):
        g = build_even_torus(4, 2)
        prm = params(1, F(1, 2))
        cluster = enumerate_clusters(g, "E", prm, k_max=2)[-1]
        expected = cluster.weight(g, prm)
        assert cluster.weight(build_even_torus(4, 2), prm) == expected
        other = build_hypercube(4)
        assert other != g
        with pytest.raises(ValueError, match="another graph"):
            cluster.weight(other, prm)


class TestKPCheck:
    def test_single_small_weight_holds(self):
        rep = kp_check([F(1, 100)], [0.1], [0.1], [0b1])
        assert rep.holds
        assert rep.lhs[0] == pytest.approx(0.01 * math.exp(0.2))
        assert rep.margins[0] == pytest.approx(0.1 - 0.01 * math.exp(0.2))

    def test_single_unit_weight_fails(self):
        rep = kp_check([F(1)], [0.1], [0.1], [0b1])
        assert not rep.holds
        assert rep.worst_margin < 0

    def test_compatible_pair_only_self_terms(self):
        # each mask holds only its own bit, which kp_check ignores
        rep = kp_check([F(1, 100), F(1, 100)], [0.1, 0.1], [0.1, 0.1],
                       [0b01, 0b10])
        assert rep.holds
        assert rep.lhs[0] == rep.lhs[1] == pytest.approx(0.01 * math.exp(0.2))

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            kp_check([F(1, 100)], [-0.1], [0.1], [0b1])
        with pytest.raises(ValueError):
            kp_check([F(1, 100)], [0.1], [-0.1], [0b1])
        with pytest.raises(ValueError):
            kp_check([F(1, 100)], [0.1, 0.1], [0.1], [0b1])

    def test_mask_list_of_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="incompatible"):
            kp_check([F(1, 100)], [0.1], [0.1], [0b1, 0b11])

    def test_cycle_six_holds_at_fugacity_one_fortieth(self):
        g = build_cycle(6)
        family = PolymerFamily(g, "E", params(F(1, 40), 1))
        fg = [p.size / 10 for p in family.polymers]
        rep = kp_check(family.weights, fg, fg, family.incompatible)
        assert len(family.polymers) == 3
        expected = 3 * float(F(40, 1681)) * math.exp(0.2)
        assert rep.lhs == pytest.approx([expected] * 3)
        assert rep.holds

    def test_cycle_six_fails_at_fugacity_one_tenth(self):
        # three mutually incompatible singletons of weight 10/121 push the
        # sum past f = 1/10
        g = build_cycle(6)
        family = PolymerFamily(g, "E", params(F(1, 10), 1))
        fg = [p.size / 10 for p in family.polymers]
        rep = kp_check(family.weights, fg, fg, family.incompatible)
        assert rep.lhs[0] == pytest.approx(3 * float(F(10, 121)) *
                                           math.exp(0.2))
        assert not rep.holds


class TestTruncationReport:
    def test_residuals_shrink_on_cycle(self):
        g = build_cycle(6)
        rep = log_xi_truncation_report(g, "E", params(F(1, 10), 1), k_max=3)
        assert rep["xi"] == xi_brute(g, "E", params(F(1, 10), 1))
        res = [float(t["residual"]) for t in rep["terms"]]
        assert res[0] > res[1] > res[2]
        assert rep["kp"] is None

    def test_residuals_shrink_on_hypercube(self):
        # by hand: the even side carries four mutually incompatible
        # singletons of weight w, so Xi = 1 + 4w and the expansion terms
        # are 4w, -8w^2, (64/3)w^3
        import mpmath

        g = build_hypercube(3)
        rep = log_xi_truncation_report(g, "E", params(F(1, 20), 1), k_max=3)
        w = F(400, 9261)
        assert rep["xi"] == 1 + 4 * w
        terms = [4 * w, -8 * w ** 2, F(64, 3) * w ** 3]
        with mpmath.workprec(128):
            log_xi = mpmath.log(mpmath.mpf(10861) / 9261)
            partial = mpmath.mpf(0)
            expected = []
            for t in terms:
                partial += mpmath.mpf(t.numerator) / t.denominator
                expected.append(abs(log_xi - partial))
        res = [float(t["residual"]) for t in rep["terms"]]
        assert res == pytest.approx([float(e) for e in expected], rel=1e-12)
        assert res[0] > res[1] > res[2]

    def test_tail_bound_asserted_when_condition_holds(self):
        g = build_cycle(6)
        rep = log_xi_truncation_report(g, "E", params(F(1, 40), 1), k_max=3,
                                       f_of_size=lambda s: s / 10,
                                       g_of_size=lambda s: s / 10)
        assert rep["kp"].holds
        assert rep["tail_shape_ok"]
        for k, term in enumerate(rep["terms"], start=1):
            assert float(term["residual_before"]) <= rep["tail_bounds"][k - 1]

    def test_failed_condition_reports_without_asserting(self):
        g = build_cycle(6)
        rep = log_xi_truncation_report(g, "E", params(F(1, 10), 1), k_max=3,
                                       f_of_size=lambda s: s / 10,
                                       g_of_size=lambda s: s / 10)
        assert not rep["kp"].holds
        assert rep["tail_bounds"] is not None

    def test_depth_six_on_cycle(self):
        # three pairwise incompatible singletons of weight w: Xi = 1 + 3w, so
        # L_k = (-1)^(k+1) (3w)^k / k, the series of log(1 + 3w)
        g = build_cycle(6)
        rep = log_xi_truncation_report(g, "E", params(F(1, 40), 1), k_max=6,
                                       f_of_size=lambda s: s / 10,
                                       g_of_size=lambda s: s / 10)
        w = F(40, 1681)
        assert [t["L_k"] for t in rep["terms"]] == \
            [(-1) ** (k + 1) * (3 * w) ** k / k for k in range(1, 7)]
        assert rep["kp"].holds and rep["tail_shape_ok"]
        for k, term in enumerate(rep["terms"], start=1):
            assert float(term["residual_before"]) <= rep["tail_bounds"][k - 1]
        res = [float(t["residual"]) for t in rep["terms"]]
        assert all(a > b for a, b in zip(res, res[1:]))
        assert res[-1] < 2e-9

    def test_partial_sums_accumulate(self):
        g = build_cycle(6)
        rep = log_xi_truncation_report(g, "E", params(1, F(1, 2)), k_max=2)
        t1, t2 = rep["terms"]
        assert t1["L_k"] == F(27, 16)
        assert float(t2["partial"]) == pytest.approx(
            float(t1["partial"]) + float(t2["L_k"]))


class TestKPFunctions:
    def mk(self):
        return KPFunctions(d=100, alpha_tilde=2.0, c1=2, c2=10, c3=3, c5=0.5)

    @pytest.mark.parametrize("name", ["c1", "c2", "c3", "c5"])
    @pytest.mark.parametrize("bad", [0, -3, math.nan, math.inf])
    def test_constants_must_be_positive_and_finite(self, name, bad):
        constants = dict(c1=2, c2=10, c3=3, c5=0.5)
        constants[name] = bad
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            KPFunctions(d=100, alpha_tilde=2.0, **constants)

    def test_f_scale(self):
        assert self.mk().f(1) == pytest.approx(0.001)

    def test_g_tilde_regime_values(self):
        kpf = self.mk()
        assert kpf.g_tilde(1) == pytest.approx(
            98 * math.log(2) - 7.5 * math.log(100))
        assert kpf.g_tilde(10) == pytest.approx(
            800 * math.log(2) - 75 * math.log(100))
        assert kpf.g_tilde(11) == pytest.approx(55 * math.log(2))
        assert kpf.g_tilde(10 ** 6 + 1) == pytest.approx(
            (10 ** 6 + 1) / 1000.0)

    def test_ratio_non_increasing_over_tested_range(self):
        kpf = self.mk()
        ells = list(range(1, 201)) + [999, 1000, 10 ** 5, 10 ** 6,
                                      10 ** 6 + 1, 2 * 10 ** 6]
        ratios = [kpf.g_tilde(ell) / ell for ell in ells]
        for a, b in zip(ratios, ratios[1:]):
            assert a >= b - 1e-12

    def test_g_dominates_f(self):
        kpf = self.mk()
        for ell in (1, 5, 10, 50, 10 ** 4):
            assert kpf.g(ell) >= kpf.f(ell) > 0

    def test_tail_shape_value(self):
        assert lk_tail_shape(16, 4, 2.0, 1, 1, 1) == pytest.approx(8192.0)


class TestKPSumAudit:
    def test_hypercube_audit_shape(self):
        g = build_hypercube(3)
        prm = params(F(1, 20), 1)
        kpf = KPFunctions(d=3, alpha_tilde=float(prm.alpha_tilde), c1=2,
                          c2=10, c3=3, c5=0.5)
        rep = kp_sum_audit(g, "E", prm, 2, 10, 3, 0.5, size_max=3)
        assert rep["polymer_count"] == 4
        assert rep["target"] == pytest.approx(3 ** -3.5)
        w = float(F(400, 9261))
        expected = w * math.exp(kpf.f(1) + kpf.g(1))
        assert rep["worst_vertex_sum"] == pytest.approx(expected)
        assert rep["per_size_totals"][1] == pytest.approx(4 * expected)
        assert len(rep["tail_shapes"]) == 3
        assert isinstance(rep["holds_at_desk_scale"], bool)

    def test_tail_depth_counts_the_shapes_and_refuses_a_negative_one(self):
        g = build_hypercube(3)
        prm = params(F(1, 20), 1)
        assert kp_sum_audit(g, "E", prm, 2, 10, 3, 0.5,
                            tail_depth=0)["tail_shapes"] == []
        with pytest.raises(ValueError, match="tail depth must be >= 0"):
            kp_sum_audit(g, "E", prm, 2, 10, 3, 0.5, tail_depth=-1)

    def test_alpha_tilde_range_then_constants_then_tail_depth(self):
        g = build_cycle(6)
        huge = params(Fraction(10) ** 400, 1)  # alpha_tilde = 1 + lambda
        with pytest.raises(ValueError, match="alpha_tilde .* float64 range"):
            kp_sum_audit(g, "E", huge, 0, 10, 3, 0.5, tail_depth=-1)
        with pytest.raises(ValueError, match="c1 must be positive"):
            kp_sum_audit(g, "E", params(F(1, 40), 1), 0, 10, 3, 0.5,
                         tail_depth=-1)

    def test_longer_cycle_has_two_element_polymers(self):
        g = build_cycle(12)
        prm = params(F(1, 10), F(1, 2))
        rep = kp_sum_audit(g, "E", prm, 2, 10, 3, 0.5, size_max=2)
        assert rep["polymer_count"] == 12
        assert set(rep["per_size_totals"]) == {1, 2}
