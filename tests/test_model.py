import collections
import functools
import math
import os
import random
import subprocess
import sys
import types
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isingpoly.graphs import (
    BipartiteGraph,
    AuditViolation,
    BudgetError,
    entry_bytes,
    build_cartesian_product,
    build_complete_bipartite,
    build_cycle,
    build_even_torus,
    build_hypercube,
    build_middle_layer,
)
from isingpoly.model import (
    MeasureTable,
    ModelParams,
    MuHatSampler,
    capture_classes,
    captured_on_side,
    count_independent_sets,
    exact_Z,
    ising_weight,
    mu_hat_star_table,
    mu_hat_table,
    mu_table,
    percolation_expectation_exact,
    percolation_mc,
    subset_sweep,
    tv_distance,
    z_hat_sweep,
)
from isingpoly import graphs, model, philox, subgraphs
from isingpoly.philox import philox_key
from isingpoly.polymers import PolymerFamily, xi_brute
from oracles import (
    ListMuHatSampler,
    brute_captured,
    brute_independent_set_count,
    brute_ising_Z,
    fraction_boundary_Z,
    fraction_measure,
    fraction_percolation_expectation,
    fraction_steps_Z,
    fraction_sweep,
    fraction_tv,
    greedy_order_rescan,
)

C4 = build_even_torus(4, 1)
C6 = build_cycle(6)
Q3 = build_hypercube(3)
HALF = ModelParams(1, Fraction(1, 2))


class TestParams:
    def test_derived_quantities(self):
        p = ModelParams(1, Fraction(1, 2))
        assert p.alpha == Fraction(1, 2)
        assert p.alpha_tilde == Fraction(4, 3)
        assert abs(float(p.alpha_bar()) - float(mpmath.log(4) - mpmath.log(3))) < 1e-12
        assert abs(float(p.beta()) - float(mpmath.log(2))) < 1e-12

    def test_alpha_tilde_cap(self):
        for lam, pr in ((Fraction(1, 3), Fraction(2, 5)), (2, 1), (5, 0)):
            params = ModelParams(lam, pr)
            assert params.alpha_tilde <= 1 + params.lam

    def test_hard_core_beta_is_infinite(self):
        assert ModelParams(1, 1).beta() == mpmath.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(0, Fraction(1, 2))
        with pytest.raises(ValueError):
            ModelParams(1, Fraction(3, 2))
        with pytest.raises(ValueError):
            ModelParams(-1, 0)


class TestWeightsAndZ:
    def test_weight_examples(self):
        assert ising_weight(C4, HALF, {0, 1}) == Fraction(1, 2)
        assert ising_weight(C4, HALF, 0) == 1
        assert ising_weight(C4, ModelParams(1, 1), {0, 1}) == 0

    def test_exact_z_c4(self):
        assert exact_Z(C4, HALF) == Fraction(161, 16)
        assert exact_Z(C4, ModelParams(1, 1)) == 7

    def test_exact_z_p0(self):
        for g in (C4, Q3):
            lam = Fraction(2, 3)
            assert exact_Z(g, ModelParams(lam, 0)) == (1 + lam) ** g.n

    @pytest.mark.parametrize("g", [C4, C6, Q3, build_complete_bipartite(2)])
    @pytest.mark.parametrize("lam,p", [
        (Fraction(1), Fraction(1, 2)),
        (Fraction(3, 2), Fraction(2, 5)),
        (Fraction(1, 3), Fraction(1)),
    ])
    def test_exact_z_matches_full_sweep_oracle(self, g, lam, p):
        assert exact_Z(g, ModelParams(lam, p)) == brute_ising_Z(g, lam, p)

    def test_budget(self):
        with pytest.raises(BudgetError):
            exact_Z(C4, HALF, sweep_cap=3)

    def test_independent_set_counts(self):
        assert count_independent_sets(build_hypercube(1)) == 3
        assert count_independent_sets(build_hypercube(2)) == 7
        assert count_independent_sets(Q3) == 35
        # dual route and brute force agree
        assert exact_Z(Q3, ModelParams(1, 1)) == 35
        assert brute_independent_set_count(Q3) == 35

    def test_independent_set_count_deeper_than_recursion_limit(self):
        # i(C_m) is the Lucas number L_m; 2,000 branch levels deep
        lucas = [2, 1]
        while len(lucas) <= 2000:
            lucas.append(lucas[-1] + lucas[-2])
        assert count_independent_sets(build_cycle(2000),
                                      sweep_cap=2000) == lucas[2000]


Z_GRAPHS = [build_cycle(m) for m in (4, 6, 8, 10, 12)] + [
    Q3, build_hypercube(4), build_complete_bipartite(3),
    build_even_torus(4, 2), build_middle_layer(3),
    build_cartesian_product([build_cycle(4), build_cycle(6)]),
]
T82 = build_even_torus(8, 2)
LAMBDAS = st.fractions(min_value=Fraction(1, 50), max_value=3,
                       max_denominator=50)
PS = st.fractions(min_value=0, max_value=1, max_denominator=50)


def relabelled(g: BipartiteGraph, perm: list[int]) -> BipartiteGraph:
    """The same graph with vertex v renamed perm[v]."""
    adjacency = [[] for _ in range(g.n)]
    for v, nbrs in enumerate(g.adj):
        adjacency[perm[v]] = sorted(perm[u] for u in nbrs)
    return BipartiteGraph(g.n, g.d, [perm[v] for v in g.side_E], adjacency)


class TestExactZRoutes:
    @settings(max_examples=30, deadline=None)
    @given(g=st.sampled_from(Z_GRAPHS), lam=LAMBDAS, p=PS)
    def test_integer_dp_matches_the_fraction_dp(self, g, lam, p):
        for pr in (p, Fraction(0), Fraction(1)):
            z = exact_Z(g, ModelParams(lam, pr))
            assert z == fraction_boundary_Z(g, lam, pr)
            if g.n <= 16:
                assert z == brute_ising_Z(g, lam, pr)

    @settings(max_examples=20, deadline=None)
    @given(g=st.sampled_from(Z_GRAPHS), rng=st.randoms(), lam=LAMBDAS, p=PS)
    def test_relabelling_leaves_z_unchanged(self, g, rng, lam, p):
        # a permuted copy feeds the planner's candidate orders another
        # labelling, so it may run the DP in another order
        perm = list(range(g.n))
        rng.shuffle(perm)
        params = ModelParams(lam, p)
        assert exact_Z(relabelled(g, perm), params) == exact_Z(g, params)

    def test_torus_8_2_independent_sets(self):
        count = count_independent_sets(T82, sweep_cap=64)
        assert count == 213256442503
        assert exact_Z(T82, ModelParams(1, 1), sweep_cap=64) == count

    def test_torus_8_2_without_interaction(self):
        lam = Fraction(2, 7)
        assert exact_Z(T82, ModelParams(lam, 0), sweep_cap=64) == \
            (1 + lam) ** 64


PLAN_GRAPHS = {"Q4": build_hypercube(4), "Q5": build_hypercube(5),
               "T6,2": build_even_torus(6, 2), "C12": build_cycle(12),
               "K4,4": build_complete_bipartite(4), "T8,2": T82}
PLAN_PARAMS = [(Fraction(1), Fraction(1, 2)), (Fraction(1), Fraction(1)),
               (Fraction(3, 2), Fraction(2, 5))]
ORDER_NAMES = ["greedy", "side-major", "natural"]
# The Fraction DP runs an order of at most this many peak states in about
# a second. Larger ones (Q5 in natural order at p < 1, T8,2 at p < 1, and
# T8,2 in greedy or side-major order at p = 1) are not collected.
FRACTION_DP_PEAK = 1 << 13


def plan_steps(label, name):
    g = PLAN_GRAPHS[label]
    return model._placement_steps(g, model._candidate_orders(g)[name])


def predicted_counts(label, p, steps):
    return list(model._state_counts(PLAN_GRAPHS[label], steps, p == 1,
                                    {0: 1}))


PLAN_CASES = [
    pytest.param(label, lam, p, name, id=f"{label}-{lam}-{p}-{name}")
    for label in PLAN_GRAPHS for lam, p in PLAN_PARAMS for name in ORDER_NAMES
    if max(predicted_counts(label, p, plan_steps(label, name)))
    <= FRACTION_DP_PEAK]


# one graph or more from every builder family
BUILDER_GRAPHS = (
    [build_hypercube(d) for d in range(1, 7)]
    + [build_even_torus(m, t) for m, t in ((4, 2), (6, 2), (8, 2), (6, 3))]
    + [build_cycle(m) for m in (4, 6, 12, 40)]
    + [build_complete_bipartite(s) for s in (1, 2, 5, 16)]
    + [build_middle_layer(d) for d in (2, 3, 4)]
    + [build_cartesian_product([build_cycle(4), build_complete_bipartite(3)])])


@st.composite
def connected_bipartite(draw):
    """A random connected bipartite graph with the fields the plan reads
    (n, adj, side_E_mask), of any degrees: vertices e0 and o0 first, then
    each vertex joined to an earlier one across, then extra edges across."""
    n = draw(st.integers(2, 14))
    labels = draw(st.permutations(range(n)))
    n_e = draw(st.integers(1, n - 1))
    order = [labels[0], labels[n_e]] + labels[1:n_e] + labels[n_e + 1:]
    side_e = set(labels[:n_e])
    nbrs = [set() for _ in range(n)]

    def join(u, v):
        nbrs[u].add(v)
        nbrs[v].add(u)

    for i, v in enumerate(order[1:], start=1):
        across = [u for u in order[:i] if (u in side_e) != (v in side_e)]
        join(v, draw(st.sampled_from(across)))
    pairs = [(u, v) for u in side_e for v in range(n) if v not in side_e]
    for u, v in draw(st.lists(st.sampled_from(sorted(pairs)), max_size=3 * n)):
        join(u, v)
    return types.SimpleNamespace(
        n=n, adj=[tuple(sorted(s)) for s in nbrs],
        side_E_mask=sum(1 << v for v in side_e))


def forced(name):
    """Patch exact_Z's planner to offer only the named candidate order."""
    orders = model._candidate_orders
    return mock.patch.object(model, "_candidate_orders",
                             lambda g: {name: orders(g)[name]})


class TestExactZPlan:
    @pytest.mark.parametrize("label,lam,p,name", PLAN_CASES)
    def test_predicted_state_counts_are_exact(self, label, lam, p, name):
        steps = plan_steps(label, name)
        z, measured = fraction_steps_Z(PLAN_GRAPHS[label], lam, p, steps)
        assert measured == predicted_counts(label, p, steps)
        assert z == exact_Z(PLAN_GRAPHS[label], ModelParams(lam, p),
                            sweep_cap=64)

    @pytest.mark.parametrize("name", ORDER_NAMES)
    @settings(max_examples=10, deadline=None)
    @given(g=st.sampled_from(Z_GRAPHS), lam=LAMBDAS, p=PS)
    def test_each_candidate_order_gives_z(self, name, g, lam, p):
        with forced(name):
            for pr in (p, Fraction(0), Fraction(1)):
                assert exact_Z(g, ModelParams(lam, pr)) == \
                    fraction_boundary_Z(g, lam, pr)

    @pytest.mark.parametrize("label,p,name", [
        ("Q5", Fraction(1, 2), "side-major"),
        ("Q5", Fraction(1), "greedy"),
        ("T8,2", Fraction(1), "natural"),
    ])
    def test_plan_picks_the_clearly_cheapest_order(self, label, p, name):
        g = PLAN_GRAPHS[label]
        steps = model._frontier_placement(g, ModelParams(1, p))
        assert [v for v, _, _ in steps] == model._candidate_orders(g)[name]

    @pytest.mark.parametrize("g", BUILDER_GRAPHS, ids=lambda g: g.label)
    def test_greedy_order_equals_the_rescan(self, g):
        assert model._candidate_orders(g)["greedy"] == greedy_order_rescan(g)

    @settings(max_examples=200, deadline=None)
    @given(g=connected_bipartite())
    def test_greedy_order_equals_the_rescan_on_random_graphs(self, g):
        assert model._candidate_orders(g)["greedy"] == greedy_order_rescan(g)

    def test_plan_past_the_byte_ceiling_is_refused(self):
        # Q6 at p < 1 peaks at 2^23 states in its best order (side-major),
        # past 1 GiB; the ceiling applies in every order, forced or planned
        q6 = build_hypercube(6)
        for name in ORDER_NAMES:
            with forced(name), pytest.raises(
                    BudgetError, match="^the boundary DP would need about"):
                exact_Z(q6, ModelParams(1, Fraction(9, 10)), sweep_cap=64)

    @pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(1)])
    def test_plan_charges_both_dicts_of_its_peak_step(self, monkeypatch, p):
        # at the bytes of the peak step's states entering and leaving it,
        # Q5's plan runs; one byte fewer refuses it, before any step
        q5, params = PLAN_GRAPHS["Q5"], ModelParams(1, p)
        steps = model._frontier_placement(q5, params)
        counts = predicted_counts("Q5", p, steps)
        need = max(map(sum, zip([1] + counts, counts))) * \
            model._scaled_entry_bytes(q5, params)
        (name,) = (name for name, order in model._candidate_orders(q5).items()
                   if order == [v for v, _, _ in steps])
        value = exact_Z(q5, params, sweep_cap=32)
        with forced(name):
            monkeypatch.setattr("isingpoly.graphs.BYTE_CEILING", need)
            assert exact_Z(q5, params, sweep_cap=32) == value
            monkeypatch.setattr("isingpoly.graphs.BYTE_CEILING", need - 1)
            with pytest.raises(BudgetError, match="the boundary DP"):
                exact_Z(q5, params, sweep_cap=32)


class TestPercolation:
    def test_c4_identity_value(self):
        assert percolation_expectation_exact(C4, HALF) == Fraction(161, 16)

    def test_degenerate_p(self):
        lam = Fraction(2)
        assert percolation_expectation_exact(C4, ModelParams(lam, 0)) == \
            (1 + lam) ** C4.n
        assert percolation_expectation_exact(C4, ModelParams(1, 1)) == 7

    @pytest.mark.parametrize("p", [Fraction(0), Fraction(1)])
    def test_degenerate_p_sums_one_subgraph(self, monkeypatch, p):
        import isingpoly.subgraphs as subgraphs
        real = subgraphs.subgraph_z
        asked = []

        def counted(g, params):
            scaled_z = real(g, params)

            def wrapped(sub):
                asked.append(sub)
                return scaled_z(sub)
            return wrapped

        monkeypatch.setattr(subgraphs, "subgraph_z", counted)
        c24 = build_cycle(24)
        params = ModelParams(Fraction(2, 3), p)
        assert percolation_expectation_exact(c24, params) == \
            exact_Z(c24, params)
        assert asked == [(1 << 24) - 1 if p else 0]

    # K4,4 and C16 have 16 edges each, where the sweep's memo is shared
    # most; the Fraction oracle is too slow at 2^16 subgraphs
    @pytest.mark.parametrize("g", [C4, C6, build_complete_bipartite(3),
                                   build_complete_bipartite(4),
                                   build_cycle(16)])
    @pytest.mark.parametrize("lam,p", [
        (Fraction(1), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1, 3)),
        (Fraction(2), Fraction(1)),
    ])
    def test_identity_with_exact_z(self, g, lam, p):
        params = ModelParams(lam, p)
        assert percolation_expectation_exact(g, params) == exact_Z(g, params)

    @pytest.mark.parametrize("g", [build_cycle(8), Q3,
                                   build_complete_bipartite(3)])
    @pytest.mark.parametrize("lam,p", [
        (Fraction(1), Fraction(1, 2)),
        (Fraction(5, 7), Fraction(3, 11)),
    ])
    def test_sweep_with_the_memo_dropped_between_subgraphs(self, monkeypatch,
                                                            g, lam, p):
        # a cap of 4 states drops the shared memo before nearly every
        # subgraph, so the sums restart from {0: 1} throughout the sweep
        monkeypatch.setattr("isingpoly.subgraphs._MEMO_CAP", 4)
        params = ModelParams(lam, p)
        assert percolation_expectation_exact(g, params) == \
            fraction_percolation_expectation(g, params)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([C4, C6, build_cycle(8), build_cycle(10),
                            build_hypercube(2), Q3,
                            build_complete_bipartite(3)]),
           st.fractions(Fraction(1, 12), 20, max_denominator=12).filter(
               lambda lam: lam.denominator > 1),
           st.sampled_from([Fraction(0), Fraction(1)]) |
           st.fractions(0, 1, max_denominator=12).filter(
               lambda p: p.denominator > 1))
    def test_integer_sweep_equals_fraction_sweep(self, g, lam, p):
        params = ModelParams(lam, p)
        value = percolation_expectation_exact(g, params)
        assert value == fraction_percolation_expectation(g, params)
        assert value == exact_Z(g, params)

    def test_edge_budget(self):
        with pytest.raises(BudgetError):
            percolation_expectation_exact(Q3, HALF, edge_cap=10)

    @pytest.mark.parametrize("g,params,mean,stderr", [
        (build_cycle(8), ModelParams(Fraction(2, 3), Fraction(1, 3)),
         "0x1.3e14cdec17736p+5", "0x1.c30c53d78a53cp-4"),
        (build_hypercube(2), ModelParams(Fraction(5, 7), Fraction(3, 11)),
         "0x1.ce47b15afdcdcp+2", "0x1.e0e7bf8ed5ac2p-7"),
    ])
    def test_mc_floats_are_pinned(self, g, params, mean, stderr):
        # each sample's Z is the correctly rounded float of its exact value,
        # so the seeded stream gives these bits exactly
        got = percolation_mc(g, params, 5000, seed=7)
        assert (got[0].hex(), got[1].hex()) == (mean, stderr)

    def test_mc_floats_are_pinned_with_the_memo_dropped(self, monkeypatch):
        # the samples' Zs are the same ints whether or not the subgraph
        # memo carries over from earlier samples
        monkeypatch.setattr("isingpoly.subgraphs._MEMO_CAP", 4)
        got = percolation_mc(build_cycle(8),
                             ModelParams(Fraction(2, 3), Fraction(1, 3)),
                             5000, seed=7)
        assert (got[0].hex(), got[1].hex()) == ("0x1.3e14cdec17736p+5",
                                                "0x1.c30c53d78a53cp-4")

    @pytest.mark.parametrize("seed,mean,stderr", [
        ((1 << 64) + 7, "0x1.3d6141c2393fcp+5", "0x1.c063cc92b4b49p-4"),
        ((1 << 130) + 3, "0x1.3ed0f55ba2df0p+5", "0x1.c61cb0ba86db8p-4"),
    ])
    def test_mc_floats_are_pinned_for_multiword_seeds(self, seed, mean,
                                                      stderr):
        # seeds of 3 and 5 32-bit words (the second past SeedSequence's
        # 4-word pool), over two MC_CHUNK blocks; the bits are those of
        # the stream keyed by numpy's own SeedSequence
        got = percolation_mc(build_cycle(8),
                             ModelParams(Fraction(2, 3), Fraction(1, 3)),
                             5000, seed=seed)
        assert (got[0].hex(), got[1].hex()) == (mean, stderr)

    def test_mc_reproducible_and_within_tolerance(self):
        mean, err = percolation_mc(C4, HALF, 100000, seed=2024)
        again = percolation_mc(C4, HALF, 100000, seed=2024)
        assert (mean, err) == again
        assert abs(mean - 161 / 16) < 4 * err

    def test_mc_p1_zero_variance(self):
        mean, err = percolation_mc(C4, ModelParams(1, 1), 500, seed=7)
        assert mean == 7.0 and err == 0.0

    def test_mc_single_sample(self):
        mean, err = percolation_mc(C4, HALF, 1, seed=0)
        assert err == 0.0
        again, _ = percolation_mc(C4, HALF, 1, seed=0)
        assert mean == again

    def test_mc_with_64_or_more_edges(self):
        kss8 = build_complete_bipartite(8)
        assert kss8.edge_count() == 64
        mean, err = percolation_mc(kss8, HALF, 2000, seed=1)
        assert abs(mean - float(exact_Z(kss8, HALF))) < 4 * err

    def test_mc_long_cycle(self):
        # 1,200 edges and a 1,200-level independent-set sum; E[Z] ~ 1e298
        mean, err = percolation_mc(build_cycle(1200), HALF, 3, seed=1)
        assert math.isfinite(mean) and math.isfinite(err)
        assert mean > 0 and err > 0


def xi_table(g):
    """A route to g's side-E Xi table at HALF, its polymers and their
    weights and incompatibility built beforehand."""
    family = PolymerFamily(g, "E", HALF)
    family.incompatible, family.weights
    return lambda: family.table


def subgraph_samples(g, count: int):
    """A route to b^n Z of `count` random edge subgraphs of g at HALF, through
    one subgraph_z memo."""
    scaled_z = subgraphs.subgraph_z(g, HALF)
    rng = random.Random(1)
    return lambda: [scaled_z(rng.getrandbits(g.edge_count()))
                    for _ in range(count)]


def traced(route):
    """route()'s result, and the bytes it left allocated and its peak, as
    tracemalloc counts them."""
    import tracemalloc
    tracemalloc.start()
    try:
        result = route()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current, peak


class TestByteCeiling:
    # graphs.BYTE_CEILING bounds the bytes of the independent-set memos,
    # the boundary DP and the measure tables; every call reads it when it
    # starts, and every refusal has one form
    @pytest.mark.parametrize("route,what", [
        (lambda: count_independent_sets(Q3), "the independent-set memo"),
        (lambda: percolation_mc(Q3, HALF, 10, seed=1), "the subgraph memo"),
        (lambda: percolation_expectation_exact(C6, HALF), "the subgraph memo"),
        # Q3's 4 polymers at lambda = 1/20 give a Xi table of 5 entries
        (lambda: PolymerFamily(Q3, "E", ModelParams(Fraction(1, 20), 1)).xi(),
         "the independent-set memo"),
        (lambda: exact_Z(Q3, HALF), "the boundary DP"),
        # the plan counts the hard-core states through an i(G) memo
        (lambda: exact_Z(Q3, ModelParams(1, 1)), "the independent-set memo"),
        (lambda: mu_table(C6, HALF), "the measure table"),
        (lambda: mu_hat_table(C6, HALF), "the measure table"),
        (lambda: mu_hat_star_table(C6, HALF), "the measure table"),
    ], ids=["isets", "percolation_mc", "percolation_exact", "xi", "zexact",
            "zexact_plan_counts", "mu", "mu_hat", "mu_hat_star"])
    def test_lowered_ceiling_refuses(self, monkeypatch, route, what):
        monkeypatch.setattr("isingpoly.graphs.BYTE_CEILING", 512)
        with pytest.raises(BudgetError) as info:
            route()
        assert str(info.value) == (f"{what} would need about 1 MB, past the "
                                   f"ceiling of 0.000488281 MB")

    def test_a_memo_at_the_ceiling_is_admitted(self, monkeypatch):
        # Q3's i(G) memo holds 18 entries of one size, the empty set's
        # included; a checkpoint falls on the entry that would pass
        size = entry_bytes(255, 35)
        monkeypatch.setattr("isingpoly.graphs.BYTE_CEILING", 18 * size - 1)
        with pytest.raises(BudgetError, match="independent-set memo"):
            count_independent_sets(Q3)
        monkeypatch.setattr("isingpoly.graphs.BYTE_CEILING", 18 * size)
        assert count_independent_sets(Q3) == 35

    def test_memos_are_charged_at_checkpoints_only(self, monkeypatch):
        # the entry counts double from the first insert: 2, 5, 11, 23, ...
        seen = []
        real = graphs.charge_bytes

        def spy(what, entries, size, ceiling):
            seen.append(entries)
            return real(what, entries, size, ceiling)

        monkeypatch.setattr(graphs, "charge_bytes", spy)
        memo = graphs.independent_set_table(T82.adj_mask, [1] * T82.n,
                                            (1 << T82.n) - 1)
        assert seen[0] == 2
        assert all(b == 2 * a + 1 for a, b in zip(seen, seen[1:]))
        assert seen[-1] <= len(memo) <= 2 * seen[-1]

    @pytest.mark.parametrize("setup,module", [
        (lambda: lambda: graphs.independent_set_table(
            T82.adj_mask, [1] * T82.n, (1 << T82.n) - 1), graphs),
        (lambda: xi_table(build_hypercube(4)), graphs),
        (lambda: subgraph_samples(build_hypercube(4), 40), subgraphs),
    ], ids=["isets-T8,2", "xi-Q4", "subgraph_z-Q4"])
    def test_memo_charge_is_near_the_traced_bytes(self, monkeypatch, setup,
                                                  module):
        # at the last checkpoint, the one nearest a refusal, the bytes
        # charged lie within 1.5x of what tracemalloc counts: 76 Xi
        # entries on Q4, 1,535 of 1,784 subgraph_z states and 24,575 of
        # T8,2's 37,053 i(G) entries
        import tracemalloc
        route = setup()
        ratios = []
        real = graphs.charge_bytes

        def spy(what, entries, size, ceiling):
            ratios.append(entries * size / tracemalloc.get_traced_memory()[0])
            return real(what, entries, size, ceiling)

        monkeypatch.setattr(module, "charge_bytes", spy)
        traced(route)
        assert 2 / 3 < ratios[-1] < 3 / 2, ratios

    @pytest.mark.parametrize("g", [PLAN_GRAPHS["Q5"], build_even_torus(6, 2)],
                             ids=lambda g: g.label)
    @pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(1)])
    def test_plan_charge_is_near_the_traced_peak(self, g, p):
        params = ModelParams(1, p)
        steps = model._frontier_placement(g, params)
        counts = list(model._state_counts(g, steps, p == 1, {0: 1}))
        charge = max(map(sum, zip([1] + counts, counts))) * \
            model._scaled_entry_bytes(g, params)
        _, _, peak = traced(lambda: exact_Z(g, params, sweep_cap=64))
        assert 2 / 3 < charge / peak < 3 / 2


class TestMeasures:
    def test_mu_empty_set_probability(self):
        table = mu_table(C4, HALF)
        assert table.probs[0] == Fraction(16, 161)
        assert table.normalization == Fraction(161, 16)

    def test_measure_table_validates(self):
        with pytest.raises(ValueError, match="negative"):
            MeasureTable({0: 3, 1: -1}, 1)
        with pytest.raises(ValueError, match="non-integer"):
            MeasureTable({0: Fraction(1, 2), 1: Fraction(1, 2)}, 1)
        with pytest.raises(ValueError, match="positive sum, got 0"):
            MeasureTable({0: 0}, 1)

    def test_measure_table_probabilities(self):
        table = MeasureTable({5: 1, 3: 0, 4: 3}, 8)
        assert list(table.probs.items()) == \
            [(5, Fraction(1, 4)), (3, 0), (4, Fraction(3, 4))]
        assert table.weights == {5: 1, 3: 0, 4: 3} and table.total == 4
        assert table.normalization == Fraction(1, 2)

    @pytest.mark.parametrize("build", [mu_table, mu_hat_table,
                                       mu_hat_star_table])
    def test_tables_share_one_fraction_per_weight(self, build):
        table = build(Q3, ModelParams(Fraction(2, 3), Fraction(1, 3)))
        first: dict[int, Fraction] = {}
        for key, w in table.weights.items():
            prob = table.probs[key]
            assert prob == Fraction(w, table.total)
            assert prob is first.setdefault(w, prob)
        assert list(table.probs) == list(table.weights)
        assert len(first) < len(table) // 4

    def test_tables_refuse_past_the_byte_ceiling(self, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep started")

        monkeypatch.setattr(model, "subset_sweep", no_sweep)
        # 2^24 entries of about 150 B each
        big = build_cycle(24)
        for build in (mu_table, mu_hat_table, mu_hat_star_table):
            with pytest.raises(BudgetError, match="^the measure table would "
                                                  "need about"):
                build(big, HALF)
        # past 14,000 or so vertices the MB would have over 4,300 digits
        with pytest.raises(BudgetError, match=r"would need about 2\^\d+ MB"):
            mu_table(build_cycle(16000), HALF)
        # the (mask, side) table has two entries per subset, each with a
        # tuple: a ceiling that admits C6's table of subsets refuses it
        need = (1 << C6.n) * (model._scaled_entry_bytes(C6, HALF)
                              + graphs.DICT_SLOT_BYTES)
        monkeypatch.setattr("isingpoly.graphs.BYTE_CEILING", need)
        with pytest.raises(BudgetError, match="measure table"):
            mu_hat_star_table(C6, HALF)
        monkeypatch.undo()
        monkeypatch.setattr("isingpoly.graphs.BYTE_CEILING", need)
        assert len(mu_table(C6, HALF)) == 1 << C6.n

    @pytest.mark.parametrize("build,paired", [
        (mu_table, False), (mu_hat_table, False), (mu_hat_star_table, True)])
    def test_table_charge_is_near_the_traced_bytes(self, build, paired):
        g = build_cycle(14)
        size = model._scaled_entry_bytes(g, HALF) + graphs.DICT_SLOT_BYTES
        if paired:
            size += sys.getsizeof((0, "O"))
        table, current, _ = traced(lambda: build(g, HALF))
        assert 2 / 3 < (len(table) * size) / current < 3 / 2

    def test_tv_distance_edge_cases(self):
        a = MeasureTable({0: 1, 1: 0}, 1)
        b = MeasureTable({0: 0, 1: 1}, 1)
        assert tv_distance(a, a) == 0
        assert tv_distance(a, b) == 1
        c = MeasureTable({2: 1}, 1)
        with pytest.raises(ValueError, match="outcome spaces"):
            tv_distance(a, c)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.tuples(st.integers(0, 10 ** 30),
                                   st.integers(0, 10 ** 30)),
                         min_size=1, max_size=12))
    def test_tv_equals_the_fraction_sum(self, rows):
        wa = {k: x for k, (x, _) in enumerate(rows)}
        wb = {k: y for k, (_, y) in enumerate(rows)}
        wa[len(rows)] = wb[len(rows) + 1] = 1  # positive totals
        wa[len(rows) + 1] = wb[len(rows)] = 0
        a = MeasureTable(wa, 1)
        b = MeasureTable(wb, 1)
        assert tv_distance(a, b) == fraction_tv(a, b) == tv_distance(b, a)
        assert tv_distance(a, a) == 0

    def test_tv_mu_vs_mu_hat_matches_direct_definition(self):
        mu = mu_table(C6, HALF)
        hat = mu_hat_table(C6, HALF)
        direct = Fraction(0)
        for i_mask in range(1 << C6.n):
            direct += abs(mu.probs[i_mask] - hat.probs[i_mask])
        assert tv_distance(mu, hat) == direct / 2

    # K1,1's closure cutoff floor(rho * 1) is 0: no polymer, Xi = 1 a side
    @pytest.mark.parametrize("g", [C6, Q3, build_complete_bipartite(1)])
    @pytest.mark.parametrize("params", [
        HALF, ModelParams(Fraction(1, 3), 1), ModelParams(2, Fraction(1, 5)),
    ])
    def test_z_hat_equals_polymer_formula(self, g, params):
        poly_route = (1 + params.lam) ** (g.n // 2) * (
            xi_brute(g, "O", params) + xi_brute(g, "E", params))
        assert z_hat_sweep(g, params) == poly_route

    @pytest.mark.parametrize("g", [C4, C6, Q3])
    @pytest.mark.parametrize("rho", [Fraction(3, 4), Fraction(2, 3)])
    def test_decomposition_identity(self, g, rho):
        params = ModelParams(Fraction(4, 5), Fraction(2, 7))
        z = exact_Z(g, params)
        z_hat = z_hat_sweep(g, params, rho=rho)
        both = Fraction(0)
        for i_mask in range(1 << g.n):
            if captured_on_side(g, i_mask, "O", rho) and \
                    captured_on_side(g, i_mask, "E", rho):
                both += ising_weight(g, params, i_mask)
        neither = sum((ising_weight(g, params, i)
                       for i in nonpolymer_sets(g, rho)), Fraction(0))
        assert z == z_hat - both + neither

    def test_capture_matches_definition_oracle(self):
        rho = Fraction(3, 4)
        for g in (C4, C6, Q3):
            side_sets = {"O": g.side_O, "E": g.side_E}
            for i_mask in range(1 << g.n):
                verts = [v for v in range(g.n) if (i_mask >> v) & 1]
                for side in ("O", "E"):
                    assert captured_on_side(g, i_mask, side, rho) == \
                        brute_captured(g, verts, side_sets[side], rho)

    def test_capture_at_the_rho_boundary(self):
        # {0,2,4,6} on C12 closes to itself: 4 vertices of a 6-vertex side
        g = build_cycle(12)
        a = 0b1010101
        assert g.side_mask("E") & a == a
        for rho, captured in ((Fraction(2, 3), True),   # 4 = rho * 6
                              (Fraction(2, 3) - Fraction(1, 10 ** 9), False),
                              (Fraction(7, 12), False),  # 3.5
                              (Fraction(3, 4), True)):   # 4.5
            assert captured_on_side(g, a, "E", rho) is captured
            assert brute_captured(g, [0, 2, 4, 6], g.side_E, rho) is captured
        for bad in (Fraction(1, 2), 1, "9/10000", 0.5):
            with pytest.raises(ValueError, match="strictly between"):
                captured_on_side(g, a, "E", bad)
        with pytest.raises(ValueError):
            captured_on_side(g, a, "E", "x")

    def test_mu_hat_star_marginal_is_mu_hat(self):
        star = mu_hat_star_table(C6, HALF)
        hat = mu_hat_table(C6, HALF)
        for i_mask in range(1 << C6.n):
            assert star.probs[(i_mask, "O")] + star.probs[(i_mask, "E")] == \
                hat.probs[i_mask]

    def test_nonpolymer_examples(self):
        full = (1 << C4.n) - 1
        assert full in nonpolymer_sets(C4)
        assert 0 not in nonpolymer_sets(C6)

    def test_nonpolymer_weight_sum_matches_oracle(self):
        rho = Fraction(3, 4)
        got = sum((ising_weight(C6, HALF, i)
                   for i in nonpolymer_sets(C6, rho)), Fraction(0))
        want = Fraction(0)
        for i_mask in range(1 << C6.n):
            verts = [v for v in range(C6.n) if (i_mask >> v) & 1]
            if not brute_captured(C6, verts, C6.side_O, rho) and \
                    not brute_captured(C6, verts, C6.side_E, rho):
                want += ising_weight(C6, HALF, i_mask)
        assert got == want == capture_classes(C6, HALF, rho)[0]

    def test_mu_hat_tiny_lambda_prefers_empty(self):
        table = mu_hat_table(C6, ModelParams(Fraction(1, 100), 1))
        top = max(table.probs.values())
        assert table.probs[0] == top



def nonpolymer_sets(g, rho=Fraction(3, 4)) -> set[int]:
    """The subsets the sweep flags as captured on neither side."""
    return {mask for mask, _, on_o, on_e in subset_sweep(g, HALF, rho)
            if not (on_o or on_e)}


# K3,3 and the middle layers put each side on a block of labels, not on
# one parity
MEASURE_GRAPHS = [C4, C6, build_cycle(8), Q3, build_complete_bipartite(3),
                  build_middle_layer(2)]
T42 = build_even_torus(4, 2)
MIDLAYER3 = build_middle_layer(3)


def weight_scale(g, params) -> int:
    """b^n e^|E| for lambda = a/b and 1-p = c/e: subset_sweep's weights are
    the ising weights times this."""
    return (params.lam.denominator ** g.n
            * (1 - params.p).denominator ** g.edge_count())


def assert_tables_equal_the_fraction_route(g, params, rho=Fraction(3, 4)):
    for kind, build in (("mu", mu_table),
                        ("mu_hat", functools.partial(mu_hat_table, rho=rho)),
                        ("mu_hat_star",
                         functools.partial(mu_hat_star_table, rho=rho))):
        probs, norm = fraction_measure(g, params, rho, kind)
        table = build(g, params)
        assert list(table.probs.items()) == list(probs.items())
        assert table.normalization == norm


def brute_w0(g, params, rho=Fraction(3, 4)) -> Fraction:
    """The weight of the subsets captured on neither side: the unions of an
    O-trace and an E-trace that each fail brute_captured."""
    bad = {}
    for side, verts in (("O", g.side_O), ("E", g.side_E)):
        bad[side] = [sum(1 << v for v in trace)
                     for size in range(len(verts) + 1)
                     for trace in combinations(verts, size)
                     if not brute_captured(g, trace, verts, rho)]
    return sum((ising_weight(g, params, o | e)
                for o in bad["O"] for e in bad["E"]), Fraction(0))


def polymer_z_hat(g, params) -> Fraction:
    """(1 + lambda)^{n/2} (Xi_O + Xi_E)."""
    return (1 + params.lam) ** (g.n // 2) * (xi_brute(g, "O", params) +
                                             xi_brute(g, "E", params))


class TestMeasureRoutes:
    @settings(max_examples=25, deadline=None)
    @given(g=st.sampled_from(MEASURE_GRAPHS), rng=st.randoms(), lam=LAMBDAS,
           p=PS)
    def test_tables_equal_the_fraction_route(self, g, rng, lam, p):
        perm = list(range(g.n))
        rng.shuffle(perm)
        for pr in (p, Fraction(0), Fraction(1)):
            params = ModelParams(lam, pr)
            assert_tables_equal_the_fraction_route(g, params)
            assert_tables_equal_the_fraction_route(relabelled(g, perm), params)

    def test_torus_4_2_tables_equal_the_fraction_route(self):
        params = ModelParams(Fraction(2, 3), Fraction(1, 3))
        assert_tables_equal_the_fraction_route(T42, params)

    def test_relabelled_q4_tables_equal_the_fraction_route(self):
        perm = list(range(16))
        random.Random(4).shuffle(perm)
        q4 = relabelled(build_hypercube(4), perm)
        assert q4.side_E_mask not in (0x5555, 0xAAAA)
        assert_tables_equal_the_fraction_route(q4, HALF)

    @settings(max_examples=20, deadline=None)
    @given(g=st.sampled_from(MEASURE_GRAPHS), rng=st.randoms(), lam=LAMBDAS,
           p=PS)
    def test_sweep_equals_the_fraction_sweep(self, g, rng, lam, p):
        perm = list(range(g.n))
        rng.shuffle(perm)
        g = relabelled(g, perm)
        for pr in (p, Fraction(1)):
            params = ModelParams(lam, pr)
            scale = weight_scale(g, params)
            assert [(mask, Fraction(w, scale), on_o, on_e)
                    for mask, w, on_o, on_e in subset_sweep(g, params)] == \
                list(fraction_sweep(g, params, Fraction(3, 4)))

    def test_middle_layer_3_sweep_on_sampled_masks(self):
        # 2^20 subsets: the sweep streams all of them, the Fraction route
        # recomputes a random sample
        params = ModelParams(Fraction(2, 3), Fraction(1, 3))
        sample = sorted(random.Random(3).sample(range(1 << MIDLAYER3.n), 2000))
        want = {mask: row for mask, *row in
                fraction_sweep(MIDLAYER3, params, Fraction(3, 4), sample)}
        scale = weight_scale(MIDLAYER3, params)
        expected = 0
        for mask, w, on_o, on_e in subset_sweep(MIDLAYER3, params):
            assert mask == expected
            expected += 1
            if mask in want:
                assert [Fraction(w, scale), on_o, on_e] == want[mask]
        assert expected == 1 << MIDLAYER3.n

    @settings(max_examples=12, deadline=None)
    @given(g=st.sampled_from(MEASURE_GRAPHS + [T42]), lam=LAMBDAS, p=PS)
    def test_z_hat_by_three_routes_and_w0_by_brute_capture(self, g, lam, p):
        for pr in (p, Fraction(0), Fraction(1)):
            params = ModelParams(lam, pr)
            w0, w1, w2, _ = capture_classes(g, params)
            assert z_hat_sweep(g, params) == w1 + 2 * w2 == \
                polymer_z_hat(g, params)
            assert w0 + w1 + w2 == exact_Z(g, params)
            assert w0 == brute_w0(g, params)

    def test_middle_layer_3_z_hat_by_three_routes(self):
        params = ModelParams(1, Fraction(1, 2))
        w0, w1, w2, _ = capture_classes(MIDLAYER3, params)
        assert z_hat_sweep(MIDLAYER3, params) == w1 + 2 * w2 == \
            polymer_z_hat(MIDLAYER3, params)
        assert w0 + w1 + w2 == exact_Z(MIDLAYER3, params)

    def test_sweep_weights_flags_and_order(self):
        params = ModelParams(Fraction(2, 3), Fraction(1, 3))
        rows = list(subset_sweep(Q3, params))
        assert [mask for mask, *_ in rows] == list(range(1 << Q3.n))
        scale = rows[0][1]
        for mask, w, on_o, on_e in rows:
            assert Fraction(w, scale) == ising_weight(Q3, params, mask)
            assert (on_o, on_e) == (captured_on_side(Q3, mask, "O"),
                                    captured_on_side(Q3, mask, "E"))
        with pytest.raises(BudgetError):
            next(subset_sweep(Q3, params, sweep_cap=7))

    def test_classes_count_the_nonpolymer_sets(self):
        rho = Fraction(3, 4)
        for g in MEASURE_GRAPHS:
            assert capture_classes(g, HALF, rho)[3] == \
                len(nonpolymer_sets(g, rho))

    def test_classes_refuse_a_sweep_that_misses_z(self, monkeypatch):
        import isingpoly.model as model
        monkeypatch.setattr(model, "exact_Z", lambda *a, **k: Fraction(1))
        with pytest.raises(AuditViolation, match="exact_Z"):
            capture_classes(C6, HALF)

    def test_mu_table_refuses_weights_that_miss_z(self, monkeypatch):
        import isingpoly.model as model
        monkeypatch.setattr(model, "exact_Z", lambda *a, **k: Fraction(1))
        with pytest.raises(AuditViolation, match="exact_Z"):
            mu_table(C6, HALF)


class TestSampler:
    def test_identical_seeds_identical_draws(self):
        assert MuHatSampler(C6, HALF).draw(55) == MuHatSampler(C6, HALF).draw(55)
        sam = MuHatSampler(C6, HALF)
        assert sam.draw(55, 3) == sam.draw(55, 3)
        assert len({sam.draw(55, k) for k in range(64)}) > 1

    @pytest.mark.parametrize("g,params,rho", [
        (Q3, HALF, Fraction(3, 4)),
        (Q3, HALF, Fraction(5, 8)),
        (C6, HALF, Fraction(5, 8)),
        (build_cycle(8), HALF, Fraction(5, 8)),
        (build_cycle(12), HALF, Fraction(5, 8)),
        (build_cycle(16), ModelParams(Fraction(2, 3), Fraction(1, 3)),
         Fraction(5, 8)),
        (build_hypercube(4), HALF, Fraction(3, 4)),
        (build_hypercube(4), ModelParams(1, 0), Fraction(3, 4)),
        (build_complete_bipartite(3), ModelParams(Fraction(3, 2), 1),
         Fraction(3, 4)),
        (build_middle_layer(3), HALF, Fraction(3, 4)),
        (build_cycle(24), HALF, Fraction(3, 4)),
        (build_complete_bipartite(1), HALF, Fraction(3, 4)),
    ])
    def test_draws_equal_the_configuration_list_sampler(self, g, params, rho):
        sam = MuHatSampler(g, params, rho)
        oracle = ListMuHatSampler(g, params, rho)
        # a seed past the 4-word pool, and spawn keys of two words
        for seed, ks in ((0, range(500)), (987654321987654321, range(500)),
                         ((1 << 130) + 3, range((1 << 32) - 50,
                                                (1 << 32) + 50))):
            assert [sam.draw(seed, k) for k in ks] == \
                [oracle.draw(seed, k) for k in ks]

    @pytest.mark.parametrize("count", [1, 5, 12, 52])
    @pytest.mark.parametrize("k", [0, (1 << 32) - 1, 1 << 32, 1 << 40])
    def test_raw_outputs_are_one_int_with_output_t_at_bit_64t(self, count,
                                                               k):
        outs = np.random.Philox(np.random.SeedSequence(
            21, spawn_key=(k,))).random_raw(count).tolist()
        assert philox.philox_raw(21, k, count) == \
            sum(out << 64 * t for t, out in enumerate(outs))

    def test_shared_zero_counter_is_read_only_and_stays_zero(self):
        sam = MuHatSampler(Q3, HALF)
        draws = [sam.draw(7, k) for k in range(50)]
        gen = philox.philox(7, 3)
        gen.random_raw(9)
        assert gen.state["state"]["counter"].tolist() != [0, 0, 0, 0]
        percolation_mc(C6, HALF, samples=5, seed=2)
        counter = philox._ZERO_COUNTER
        assert not counter.flags.writeable
        assert counter.dtype == np.uint64 and counter.tolist() == [0] * 4
        with pytest.raises(ValueError):
            counter[0] = 1
        assert [sam.draw(7, k) for k in range(50)] == draws

    KEY_SEEDS = (0, 1, (1 << 32) - 1, 1 << 32, 1 << 63, 1 << 64,
                 (1 << 128) + 5, 1 << 200, True, np.int64(5),
                 np.uint64(1 << 63))
    KEY_SPAWNS = (0, (1 << 32) - 1, 1 << 32, 1 << 40, False, np.uint32(7),
                  np.int64((1 << 40) + 3))

    @staticmethod
    def numpy_key(seed, k):
        return tuple(np.random.SeedSequence(entropy=seed, spawn_key=(k,))
                     .generate_state(2, np.uint64).tolist())

    def test_key_equals_numpy_seed_sequence_at_word_edges(self):
        # seeds shorter than, as long as and longer than the 4-word pool;
        # spawn keys of one and two words
        for seed in self.KEY_SEEDS:
            for k in self.KEY_SPAWNS:
                assert philox_key(seed, k) == self.numpy_key(seed, k)

    @pytest.mark.parametrize("seed", [0, (1 << 128) + 5, 1 << 200])
    def test_seed_pool_has_numpy_four_words(self, seed):
        # a seed's words past the fourth are mixed into the 4-word pool,
        # never added to it
        pool, groups = philox._seed_pool(seed, 2)
        assert len(pool) == 4 and len(groups) == 2

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 1 << 300), k=st.integers(0, 1 << 70))
    def test_key_equals_numpy_seed_sequence(self, seed, k):
        assert philox_key(seed, k) == self.numpy_key(seed, k)

    @pytest.mark.parametrize("seed,k", [(-1, 0), (5, -1), (np.int64(-3), 0),
                                        (5, np.int64(-1))])
    def test_negative_seed_or_spawn_key_is_refused_as_numpy_does(self, seed,
                                                                  k):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            np.random.SeedSequence(entropy=seed, spawn_key=(k,))
        with pytest.raises(ValueError, match="expected non-negative integer"):
            MuHatSampler(C6, HALF).draw(seed, k)

    @pytest.mark.parametrize("seed,k", [(1.5, 0), ("5", 0), (5, 2.0)])
    def test_non_integer_seed_or_spawn_key_is_a_type_error(self, seed, k):
        with pytest.raises(TypeError):
            np.random.SeedSequence(entropy=seed, spawn_key=(k,))
        with pytest.raises(TypeError):
            MuHatSampler(C6, HALF).draw(seed, k)

    def test_bool_and_numpy_integers_give_numpy_stream(self):
        sam = MuHatSampler(Q3, HALF)
        assert sam.draw(np.int64(5), np.uint32(3)) == sam.draw(5, 3)
        assert sam.draw(np.uint64(1 << 63), np.int64(1 << 40)) == \
            sam.draw(1 << 63, 1 << 40)
        assert sam.draw(True, False) == sam.draw(1, 0)

    def test_building_a_sampler_does_not_import_numpy(self):
        # numpy's import is paid by the first draw, not by building the
        # sampler; so is the integer Xi table
        code = ("import sys; from fractions import Fraction; "
                "from isingpoly import MuHatSampler, ModelParams, "
                "build_hypercube; "
                "s = MuHatSampler(build_hypercube(3), "
                "ModelParams(1, Fraction(1, 2))); "
                "assert 'numpy' not in sys.modules, 'set-up'; "
                "assert 'int_table' not in vars(s.families['O']), 'table'; "
                "s.draw(1); "
                "assert 'numpy' in sys.modules, 'draw'")
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_empirical_matches_table(self):
        params = ModelParams(Fraction(1, 2), 1)
        sam = MuHatSampler(C6, params)
        star = mu_hat_star_table(C6, params)
        n = 20000
        counts = collections.Counter(sam.draw(123, k) for k in range(n))
        emp = MeasureTable({key: counts.get(key, 0) for key in star.probs},
                           n)
        assert tv_distance(emp, star) < Fraction(1, 40)
