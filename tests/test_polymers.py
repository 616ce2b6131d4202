import gc
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isingpoly import graphs
from isingpoly.graphs import (
    BipartiteGraph,
    BudgetError,
    as_mask,
    bits,
    build_complete_bipartite,
    build_cycle,
    build_even_torus,
    build_hypercube,
    build_middle_layer,
    closure,
    neighborhood,
    popcount,
    two_linked_sets,
)
from isingpoly.model import ModelParams, captured_on_side
from isingpoly.polymers import (
    Polymer,
    PolymerFamily,
    approximation_facts,
    closure_cutoff,
    compatible,
    enumerate_compatible_configs,
    enumerate_g_ab,
    enumerate_polymers,
    is_polymer_union,
    is_psi_approximation,
    polymer_to_json_dict,
    polymer_weight,
    polymer_weight_literal,
    weight_bound_check,
    xi_brute,
)
from oracles import (brute_captured, brute_is_two_linked, decorated_weight,
                     fraction_configuration_at, fraction_polymer_weight,
                     union_compatible)


def make_polymer(g, a):
    """The Polymer on the nonempty 2-linked set A, on the side A lies on."""
    a = as_mask(a)
    side = "E" if a & g.side_E_mask else "O"
    return Polymer(side, a, closure(g, a, side=side), neighborhood(g, a))


C6 = build_cycle(6)
C4 = build_even_torus(4, 1)
Q3 = build_hypercube(3)
Q4 = build_hypercube(4)
HALF = ModelParams(1, Fraction(1, 2))


def verts(polys):
    return [bits(p.vertices) for p in polys]


class TestEnumeration:
    def test_c6_even_side_has_three_singletons(self):
        # pairs like {0,2} close up to the whole side (3 > 9/4), so only
        # singletons survive the cutoff
        assert verts(enumerate_polymers(C6, "E", size_max=2)) == [(0,), (2,), (4,)]
        assert verts(enumerate_polymers(C6, "E")) == [(0,), (2,), (4,)]

    def test_c4_has_no_polymers(self):
        # twin vertices: [{0}] = {0,2} already exceeds (3/4)*2
        assert verts(enumerate_polymers(C4, "E")) == []

    def test_k11_default_size_max_is_an_empty_family(self):
        # the closure cutoff floor(3/4 * 1) = 0 leaves no polymer; only an
        # explicit size max below 1 is refused
        k11 = build_complete_bipartite(1)
        for side in ("O", "E"):
            assert verts(enumerate_polymers(k11, side)) == []
            assert PolymerFamily(k11, side, HALF).xi() == 1
        with pytest.raises(ValueError, match="size max must be >= 1, got 0"):
            list(enumerate_polymers(k11, "E", size_max=0))

    def test_q3_polymers_are_exactly_the_singletons(self):
        assert verts(enumerate_polymers(Q3, "E", size_max=1)) == [
            (0,), (3,), (5,), (6,)]
        # every larger 2-linked set closes up to the full side
        assert verts(enumerate_polymers(Q3, "E")) == [(0,), (3,), (5,), (6,)]

    @pytest.mark.parametrize("n,cutoff", [(10, 3), (12, 4), (14, 5), (16, 6)])
    def test_fixed_cutoff_at_its_boundary(self, n, cutoff):
        # side E of C_n holds the n/2 even vertices, so the cutoff is
        # floor(3n/8): 3.75, 4.5 and 5.25 rounded down on C10, C12 and C14,
        # exactly 6 on C16. These are the cycles where the cutoff is n/2 - 2,
        # so one vertex past it covers every odd vertex. The first
        # `cutoff` even vertices close to themselves; one more closes to
        # the whole side
        g = build_cycle(n)
        assert closure_cutoff(g) == cutoff
        at = tuple(range(0, 2 * cutoff, 2))
        past = tuple(range(0, 2 * cutoff + 2, 2))
        assert closure(g, at, side="E") == as_mask(at)
        assert popcount(closure(g, past, side="E")) == n // 2
        # a size max past the cutoff walks `past`, so the closure test drops it
        family = verts(enumerate_polymers(g, "E", size_max=cutoff + 1))
        for vs, inside in ((at, True), (past, False)):
            assert is_polymer_union(g, as_mask(vs), "E") is inside
            assert captured_on_side(g, vs, "E") is inside
            assert brute_captured(g, vs, g.side_E) is inside
            assert (vs in family) is inside



class TestWeights:
    def test_c6_singleton_weight_both_routes(self):
        assert polymer_weight(C6, HALF, {0}) == Fraction(9, 16)
        assert polymer_weight_literal(C6, HALF, {0}) == Fraction(9, 16)

    def test_literal_is_sum_of_decorated_weights(self):
        a = {0}
        boundary = bits(neighborhood(C6, a))
        total = sum(
            decorated_weight(C6, HALF, a, [boundary[i] for i in range(2) if (s >> i) & 1])
            for s in range(4))
        assert total == polymer_weight_literal(C6, HALF, a)

    def test_literal_boundary_cap(self, monkeypatch):
        # a C6 singleton has two boundary vertices: 2^2 decorations
        monkeypatch.setattr("isingpoly.graphs.DECORATION_CEILING", 1)
        with pytest.raises(BudgetError) as info:
            polymer_weight_literal(C6, HALF, {0})
        assert str(info.value) == ("the literal weight would need 2^2 "
                                   "decorations, past the ceiling of 2^1 "
                                   "decorations")
        monkeypatch.setattr("isingpoly.graphs.DECORATION_CEILING", 2)
        assert polymer_weight_literal(C6, HALF, {0}) == \
            polymer_weight(C6, HALF, {0})

    @pytest.mark.parametrize("params", [
        HALF,
        ModelParams(Fraction(1, 3), 1),
        ModelParams(2, Fraction(2, 7)),
        ModelParams(Fraction(5, 2), 0),
    ])
    def test_singleton_closed_form(self, params):
        for g in (C6, Q3, build_even_torus(6, 2)):
            v = g.side_E[0]
            expect = params.lam * (1 - params.lam * params.p / (1 + params.lam)) ** g.d
            assert polymer_weight(g, params, {v}) == expect

    def test_hard_core_weight(self):
        lam = Fraction(1, 3)
        params = ModelParams(lam, 1)
        w = polymer_weight(Q3, params, {0})
        assert w == lam / (1 + lam) ** 3

    @pytest.mark.parametrize("params", [HALF, ModelParams(Fraction(2, 3), Fraction(3, 5))])
    def test_product_equals_literal_on_q4_up_to_size_4(self, params):
        count = 0
        for poly in enumerate_polymers(Q4, "E", size_max=4):
            assert polymer_weight(Q4, params, poly) == \
                polymer_weight_literal(Q4, params, poly)
            count += 1
        assert count > 8  # singletons plus genuine larger polymers

    def test_weight_bound_singleton_equality(self):
        # all boundary degrees are 1, so the bound is attained
        w = polymer_weight(C6, HALF, {0})
        assert w == Fraction(9, 16) == 1 * Fraction(3, 4) ** 2
        assert weight_bound_check(C6, HALF, {0})

    def test_weight_bound_strict_when_degrees_repeat(self):
        c8 = build_cycle(8)
        a = {0, 2}
        params = HALF
        lam, p = params.lam, params.p
        bound = lam ** 2 * ((1 + lam * (1 - p)) / (1 + lam)) ** 3
        assert polymer_weight(c8, params, a) < bound
        assert weight_bound_check(c8, params, a)

    def test_weight_bound_p0_equality(self):
        params = ModelParams(Fraction(7, 2), 0)
        assert polymer_weight(Q3, params, {0}) == params.lam
        assert weight_bound_check(Q3, params, {0})

    def test_weight_bound_holds_for_all_polymers(self):
        for g in (C6, Q3, build_cycle(8)):
            for params in (HALF, ModelParams(Fraction(1, 4), 1)):
                for poly in enumerate_polymers(g, "E"):
                    assert weight_bound_check(g, params, poly)


WEIGHT_GRAPHS = [build_cycle(m) for m in (6, 8, 10, 12)] + [
    Q3, Q4, build_complete_bipartite(3), build_even_torus(4, 2),
    build_even_torus(6, 2)]
# denominators above 1, so both halves of lambda = s/t and 1-p = c/e
# reach the integer kernel; p = 0 and p = 1 are added to every draw
LAMBDAS = st.fractions(min_value=Fraction(1, 50), max_value=3,
                       max_denominator=50).filter(lambda x: x.denominator > 1)
PS = st.fractions(min_value=0, max_value=1,
                  max_denominator=50).filter(lambda x: x.denominator > 1)


class TestWeightRoutes:
    @settings(max_examples=20, deadline=None)
    @given(g=st.sampled_from(WEIGHT_GRAPHS), lam=LAMBDAS, p=PS)
    @example(g=WEIGHT_GRAPHS[-1], lam=Fraction(10 ** 30 + 1, 7 ** 40),
             p=Fraction(3 ** 50, 2 ** 80))
    @example(g=Q4, lam=Fraction(7 ** 40, 10 ** 30 + 1),
             p=Fraction(2 ** 80 - 1, 2 ** 80))
    def test_integer_kernel_matches_the_fraction_product(self, g, lam, p):
        # every 2-linked set of at most 3 vertices, polymer or not (K3,3
        # has no polymers), then the family's weights; the kernel reads
        # 1-p from p's own ints, so the examples pin lambda and p with
        # numerators and denominators past 64 bits
        side = g.side_E_mask
        sets = list(two_linked_sets(g, side, side, 3))
        for pr in (p, Fraction(0), Fraction(1)):
            params = ModelParams(lam, pr)
            for a in sets:
                w = polymer_weight(g, params, a)
                assert w == fraction_polymer_weight(g, params, a)
                if popcount(neighborhood(g, a)) <= \
                        graphs.DECORATION_CEILING:
                    assert w == polymer_weight_literal(g, params, a)
                assert weight_bound_check(g, params, a)
            family = PolymerFamily(g, "E", params, size_max=3)
            assert family.weights == tuple(
                fraction_polymer_weight(g, params, q.vertices)
                for q in family.polymers)


class TestCompatibility:
    def test_c6_neighbors_at_distance_two_conflict(self):
        assert not compatible(C6, {0}, {2})

    def test_q4_distance_four_compatible(self):
        assert compatible(Q4, {0}, {0b1111})

    def test_anti_reflexive(self):
        assert not compatible(C6, {0}, {0})
        p = make_polymer(Q3, {0})
        assert not compatible(Q3, p, p)

    def test_different_sides_rejected(self):
        with pytest.raises(ValueError, match="side"):
            compatible(C6, {0}, {1})
        with pytest.raises(ValueError, match="side"):
            compatible(Q3, make_polymer(Q3, {0}), make_polymer(Q3, {1}))

    def test_raw_mask_must_be_two_linked(self):
        # {0, 15} on Q4 are at distance 4
        with pytest.raises(ValueError, match="2-linked"):
            compatible(Q4, {0, 15}, {3})
        with pytest.raises(ValueError, match="2-linked"):
            compatible(Q4, {3}, {0, 15})

    @pytest.mark.parametrize("g", [C6, Q3, Q4, build_even_torus(6, 2)],
                             ids=["C6", "Q3", "Q4", "T6,2"])
    def test_two_ball_rule_equals_the_union_rule(self, g):
        for side in ("E", "O"):
            polys = list(enumerate_polymers(g, side, size_max=3))
            for i, a in enumerate(polys):
                for b in polys[i:]:
                    expected = union_compatible(g, a.vertices, b.vertices)
                    assert compatible(g, a, b) == expected
                    assert compatible(g, b.vertices, a.vertices) == expected

    @pytest.mark.parametrize("g", [Q4, build_even_torus(4, 2)],
                             ids=["Q4", "T4,2"])
    def test_raw_masks_follow_the_union_rule(self, g):
        # 2-linked masks up to size 5, polymers or not, in both orders
        rng = random.Random(4)
        for side in (g.side_E_mask, g.side_O_mask):
            sets = two_linked_sets(g, side, side, 5)
            for _ in range(300):
                a, b = rng.choice(sets), rng.choice(sets)
                expected = union_compatible(g, a, b)
                assert compatible(g, a, b) == expected
                assert compatible(g, b, a) == expected


class TestPolymerFamily:
    @pytest.mark.parametrize("g,size_max", [
        (C6, None), (build_cycle(8), None), (Q3, None), (Q4, None),
        (build_even_torus(6, 2), 3)])
    def test_masks_match_pairwise_compatible(self, g, size_max):
        family = PolymerFamily(g, "E", HALF, size_max=size_max)
        assert family.polymers == tuple(
            enumerate_polymers(g, "E", size_max=size_max))
        for j, b in enumerate(family.polymers):
            for i, a in enumerate(family.polymers):
                assert bool(family.incompatible[j] >> i & 1) == \
                    (not union_compatible(g, a.vertices, b.vertices))

    def test_masks_refused_above_cap(self, monkeypatch):
        monkeypatch.setattr("isingpoly.graphs.MASK_CEILING", 3)
        family = PolymerFamily(Q3, "E", HALF)  # four singletons
        assert len(family.weights) == 4
        with pytest.raises(BudgetError) as info:
            family.incompatible
        assert str(info.value) == ("the incompatibility masks would need 4 "
                                   "polymers, past the ceiling of 3 polymers")
        monkeypatch.setattr("isingpoly.graphs.MASK_CEILING", 4)
        assert len(family.incompatible) == 4

    def test_weights_are_polymer_weights(self):
        family = PolymerFamily(Q4, "O", HALF)
        assert family.weights == tuple(polymer_weight(Q4, HALF, p)
                                       for p in family.polymers)


class TestXi:
    def test_c6_even_side_hard_core(self):
        assert xi_brute(C6, "E", ModelParams(1, 1)) == Fraction(7, 4)

    def test_no_polymers_gives_one(self):
        assert xi_brute(C4, "E", HALF) == 1

    def test_xi_factorizes_over_cross_compatible_groups(self):
        # two disjoint copies of C6 in one graph: every polymer lives inside
        # one copy and is compatible with everything in the other copy, so
        # Xi is the product of the per-copy restricted sums
        adj = []
        for v in range(6):
            adj.append(((v - 1) % 6, (v + 1) % 6))
        for v in range(6):
            adj.append((6 + (v - 1) % 6, 6 + (v + 1) % 6))
        double = BipartiteGraph(12, 2, [0, 2, 4, 6, 8, 10], adj)
        first_copy = (1 << 6) - 1

        def xi_over(polys, params):
            ws = [polymer_weight(double, params, a) for a in polys]
            incomp = []
            for j, a in enumerate(polys):
                m = 0
                for i, b in enumerate(polys):
                    if i != j and not compatible(double, a, b):
                        m |= 1 << i
                incomp.append(m)
            total = Fraction(0)
            for sub in range(1 << len(polys)):
                if any((sub >> j) & 1 and sub & incomp[j]
                       for j in range(len(polys))):
                    continue
                prod = Fraction(1)
                for j in range(len(polys)):
                    if (sub >> j) & 1:
                        prod *= ws[j]
                total += prod
            return total

        for params in (HALF, ModelParams(Fraction(1, 3), 1)):
            polys = [p.vertices for p in enumerate_polymers(double, "E")]
            group_a = [a for a in polys if a & first_copy]
            group_b = [a for a in polys if not a & first_copy]
            assert group_a and group_b
            assert all(compatible(double, a, b)
                       for a in group_a for b in group_b)
            assert xi_brute(double, "E", params) == \
                xi_over(group_a, params) * xi_over(group_b, params)

    @pytest.mark.parametrize("m", [12, 14, 16, 18, 20])
    def test_xi_equals_configuration_weight_sum(self, m):
        g = build_cycle(m)
        for params in (HALF, ModelParams(Fraction(2, 3), 1)):
            configs = enumerate_compatible_configs(g, "O", params)
            assert xi_brute(g, "O", params) == \
                sum((w for _, w in configs), Fraction(0))

    @pytest.mark.parametrize("g", [Q3, Q4, build_cycle(8),
                                   build_complete_bipartite(3),
                                   build_middle_layer(3)],
                             ids=["Q3", "Q4", "C8", "K33", "midlayer3"])
    @pytest.mark.parametrize("params", [
        ModelParams(Fraction(2, 3), Fraction(1, 3)),
        ModelParams(Fraction(3, 2), 0),
        ModelParams(Fraction(5, 7), 1),
    ], ids=["p1/3", "p0", "p1"])
    def test_configuration_at_walks_the_configuration_list(self, g, params):
        # the integer walk equals the Fraction walk at every interval's
        # start, inside it and just below its end
        for side in ("O", "E"):
            family = PolymerFamily(g, side, params)
            start = Fraction(0)
            for config, weight in enumerate_compatible_configs(g, side,
                                                               params):
                for x in (start, start + weight / 7,
                          start + weight - Fraction(1, 10 ** 40)):
                    got = family.configuration_at((x.numerator,
                                                   x.denominator))
                    assert got == fraction_configuration_at(family, x) \
                        == config
                start += weight
            assert start == family.xi()
            for outside in (-Fraction(1, 10 ** 9), start):
                with pytest.raises(ValueError, match="must lie in"):
                    family.configuration_at((outside.numerator,
                                             outside.denominator))
                with pytest.raises(ValueError, match="must lie in"):
                    fraction_configuration_at(family, outside)
            with pytest.raises(ValueError, match="must lie in"):
                family.configuration_at((0, 0))

    def test_integer_table_is_the_xi_table_over_one_denominator(self):
        family = PolymerFamily(Q4, "O", ModelParams(Fraction(2, 3),
                                                    Fraction(1, 3)))
        scale, table = family.int_table
        assert table.keys() == family.table.keys()
        assert all(Fraction(t, scale) == family.table[m]
                   for m, t in table.items())
        assert scale == math.lcm(*(v.denominator
                                   for v in family.table.values()))

    def test_configurations_leave_no_garbage_cycle(self):
        # a reference cycle through the recursion would hold the returned
        # list and the family until a full collection
        gc.collect()
        gc.disable()
        try:
            assert enumerate_compatible_configs(Q3, "O", HALF)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_configurations_count_against_the_cap(self, monkeypatch):
        g = build_cycle(12)
        count = len(enumerate_compatible_configs(g, "O", HALF))
        monkeypatch.setattr("isingpoly.graphs.WALK_CEILING", count)
        assert len(enumerate_compatible_configs(g, "O", HALF)) == count
        monkeypatch.setattr("isingpoly.graphs.WALK_CEILING", count - 1)
        with pytest.raises(BudgetError) as info:
            enumerate_compatible_configs(g, "O", HALF)
        assert str(info.value) == (
            f"the compatible configurations on side O would need at least "
            f"{count} configurations, past the ceiling of {count - 1} "
            f"configurations")


class TestGab:
    def test_c6(self):
        assert [bits(s) for s in enumerate_g_ab(C6, "E", 1, 2)] == [
            (0,), (2,), (4,)]

    def test_empty_when_b_below_a(self):
        assert list(enumerate_g_ab(C6, "E", 2, 1)) == []

    def test_c4_includes_twin_singletons(self):
        # singletons close to {0,2}, so they share (a,b) = (2,2) with the pair
        assert [bits(s) for s in enumerate_g_ab(C4, "E", 2, 2)] == [
            (0,), (0, 2), (2,)]

    def test_matches_subset_filter_oracle(self):
        side = Q3.side_E
        for a_size, b_size in ((1, 3), (2, 4), (4, 4)):
            got = [bits(s) for s in enumerate_g_ab(Q3, "E", a_size, b_size)]
            want = []
            for mask in range(1, 1 << len(side)):
                s = [side[i] for i in range(len(side)) if (mask >> i) & 1]
                if len(s) > a_size or not brute_is_two_linked(Q3, s):
                    continue
                if popcount(closure(Q3, s, side="E")) == a_size and \
                        popcount(neighborhood(Q3, s)) == b_size:
                    want.append(tuple(s))
            assert got == sorted(want)


class TestApproximations:
    @pytest.mark.parametrize("g", [C6, Q3])
    def test_canonical_pair_passes_for_every_polymer_and_psi(self, g):
        for poly in enumerate_polymers(g, "E"):
            for psi in range(1, g.d):
                assert is_psi_approximation(
                    g, "E", poly.boundary, poly.closure, poly.vertices, psi)

    def test_degenerate_pair_fails(self):
        assert not is_psi_approximation(
            Q3, "E", 0, Q3.side_E_mask, {0}, 1)

    def test_side_violations_raise(self):
        with pytest.raises(ValueError, match="opposite"):
            is_psi_approximation(Q3, "E", {0}, {0}, {0}, 1)
        with pytest.raises(ValueError, match="psi"):
            is_psi_approximation(Q3, "E", {1}, {0}, {0}, 3)

    def test_facts_hold_for_canonical_pairs(self):
        for g in (C6, Q3, Q4):
            for poly in enumerate_polymers(g, "E"):
                for psi in (1, max(1, g.d // 2)):
                    facts = approximation_facts(
                        g, "E", poly.boundary, poly.closure, poly.vertices, psi)
                    assert facts["h_ok"] and facts["cross_ok"]
                    # canonical pair: H = [A] and F = N(A) leave no slack
                    assert facts["cross_edges"] == 0


def test_polymer_json_dict():
    poly = make_polymer(C6, {0})
    d = polymer_to_json_dict(C6, HALF, poly)
    assert d == {"side": "E", "vertices": [0], "closure_size": 1,
                 "boundary_size": 2, "weight": "9/16"}
