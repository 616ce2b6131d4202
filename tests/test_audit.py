"""Checks for the isoperimetry sweeps, coordinate-family partition sums,
and the container / nonpolymer weight reports."""

import ast
import collections
import math
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path

import mpmath
import pytest

from isingpoly import audit
from isingpoly.audit import (
    PropertyConstants,
    PsiFamily,
    check_product_iso,
    check_property_i,
    check_property_ii,
    container_hypothesis_check,
    container_sum_report,
    ell_psi,
    nonpolymer_weight_report,
    psi_split,
    z_psi,
    z_psi_halfell_audit,
    z_psi_split_audit,
)
from isingpoly.clusters import enumerate_clusters
from isingpoly.graphs import (
    AuditViolation,
    BudgetError,
    as_mask,
    build_cartesian_product,
    build_complete_bipartite,
    build_cycle,
    build_even_torus,
    build_hypercube,
    build_middle_layer,
    graph_from_json,
    is_two_linked,
    max_codegree,
    neighborhood,
    popcount,
)
from isingpoly.model import ModelParams, captured_on_side, exact_Z, ising_weight
from isingpoly.polymers import enumerate_polymers

from oracles import exhaustive_sets, fraction_z_psi, graph_to_json


def naive_sweep(g, size_cap, applies, bound):
    """Double-loop oracle for one expansion condition over both sides."""
    holds = True
    checked = 0
    worst = None
    for verts in (g.side_E, g.side_O):
        for k in range(1, size_cap + 1):
            if not applies(k):
                continue
            for combo in combinations(verts, k):
                mask = 0
                for v in combo:
                    mask |= 1 << v
                nbr = popcount(neighborhood(g, mask))
                margin = nbr - bound(k)
                checked += 1
                if margin < 0:
                    holds = False
                if worst is None or margin < worst:
                    worst = margin
    return holds, checked, worst


class TestPropertyConstants:
    def test_rejects_c5_at_least_two(self):
        with pytest.raises(ValueError, match="c5"):
            PropertyConstants(c1=1, c4=1, c5=2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PropertyConstants(c1=0, c4=1, c5=1)
        with pytest.raises(ValueError):
            PropertyConstants(c1=1, c4=-1, c5=1)
        with pytest.raises(ValueError):
            PropertyConstants(c1=1, c4=1, c5=1, c2=0, c3=4)

    @pytest.mark.parametrize("name", ["c1", "c2", "c3", "c4", "c5"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, name, bad):
        constants = dict(c1=1, c4=1, c5=0.5, c2=10, c3=3)
        constants[name] = bad
        with pytest.raises(ValueError, match=f"{name} must be positive and "
                                             "finite"):
            PropertyConstants(**constants)

    def test_require_full_needs_c2_c3(self):
        with pytest.raises(ValueError, match="c2 and c3"):
            PropertyConstants(c1=1, c4=1, c5=0.5).require_full()

    def test_require_full_needs_c3_above_c5_plus_two(self):
        bad = PropertyConstants(c1=1, c4=1, c5=1, c2=10, c3=3)
        with pytest.raises(ValueError, match="c3 > c5"):
            bad.require_full()
        PropertyConstants(c1=1, c4=1, c5=0.5, c2=10, c3=3).require_full()


FULL = PropertyConstants(c1=2, c4=1, c5=0.5, c2=10, c3=3)
CODEG = PropertyConstants(c1=2, c4=1, c5=0.5)


class TestPropertyI:
    @pytest.mark.parametrize("build", [
        lambda: build_cycle(6),
        lambda: build_hypercube(3),
    ])
    def test_matches_naive_sweep(self, build):
        g = build()
        d = g.d
        c = FULL
        report = check_property_i(g, c, size_cap=3)
        oracles = {
            "Ia1": (lambda s: True, lambda s: (d - c.c1 * s) * s),
            "Ia2": (lambda s: s <= d ** c.c3, lambda s: d / c.c2 * s),
            "Ia3": (lambda s: s <= F(3, 8) * g.n,
                    lambda s: (1 + c.c4 / d ** c.c5) * s),
        }
        for name, (applies, bound) in oracles.items():
            holds, checked, worst = naive_sweep(g, 3, applies, bound)
            entry = report["conditions"][name]
            assert entry["holds"] == holds
            assert entry["checked"] == checked
            assert entry["worst"]["margin"] == pytest.approx(worst, abs=1e-12)

    def test_rejects_codegree_only_constants(self):
        with pytest.raises(ValueError, match="c2 and c3"):
            check_property_i(build_cycle(6), CODEG)

    @pytest.mark.parametrize("build,size_cap", [
        (lambda: build_hypercube(4), 5),
        (lambda: build_even_torus(6, 2), 4),
    ])
    def test_greedy_bound_holds_with_codegree_constant(self, build, size_cap):
        # |N(X)| >= (d - c1 |X|)|X| with c1 the max codegree is the greedy
        # union bound; it must pass on any regular graph
        g = build()
        c1 = max_codegree(g)
        consts = PropertyConstants(c1=c1, c4=1, c5=0.5, c2=10, c3=3)
        report = check_property_i(g, consts, size_cap=size_cap)
        assert report["conditions"]["Ia1"]["holds"]

    def test_small_graph_fails_near_half_expansion(self):
        # C6 cannot expand a 2-subset of a 3-vertex side by a 1.7 factor
        report = check_property_i(build_cycle(6), FULL, size_cap=3)
        assert not report["conditions"]["Ia3"]["holds"]
        worst = report["conditions"]["Ia3"]["worst"]
        assert worst["margin"] < 0
        assert worst["size"] in (2, 3)

    def test_ib_ratios(self):
        g = build_hypercube(4)
        report = check_property_i(g, FULL, size_cap=2)
        assert report["Ib"]["n_over_d_power"] == pytest.approx(
            16 / 4 ** 5.5)
        assert report["Ib"]["log_n_over_d"] == pytest.approx(
            math.log(16) / 4)

    def test_linked_violations_reverify(self):
        # c2 = 1/100 demands a 200x expansion, violated by every set; the
        # recorded witness must survive an independent neighborhood count
        bad = PropertyConstants(c1=2, c4=1, c5=0.5, c2=F(1, 100), c3=3)
        report = check_property_i(build_cycle(6), bad, size_cap=2)
        entry = report["conditions"]["Ia2"]
        assert not entry["holds"]
        worst = entry["worst"]
        assert worst["margin"] < 0
        g = build_cycle(6)
        mask = 0
        for v in worst["set"]:
            mask |= 1 << v
        recount = sum(1 for u in range(g.n)
                      if not mask >> u & 1 and g.adj_mask[u] & mask)
        assert recount == worst["neighborhood"]

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            check_property_i(build_hypercube(4), FULL, size_cap=5, enum_cap=10)

    @pytest.mark.parametrize("g,sweep", [
        (build_cycle(6), {"size_cap": 0}),
        (build_cycle(6), {"size_cap": -1}),
        # on K2 no set is small enough for Ia3 (|X| <= 3n/8 = 3/4), and a
        # cap past the one-vertex side adds none
        (build_hypercube(1), {"size_cap": 1}),
        (build_hypercube(1), {"size_cap": 2}),
    ])
    def test_refuses_an_empty_sweep(self, g, sweep):
        with pytest.raises(ValueError):
            check_property_i(g, FULL, **sweep)

    def test_empty_sweep_is_refused_before_any_set_is_swept(self,
                                                            monkeypatch):
        swept = []
        monkeypatch.setattr(audit, "neighborhood",
                            lambda g, mask: swept.append(mask))
        with pytest.raises(ValueError, match="Ia3 covers no set"):
            check_property_i(build_hypercube(1), FULL, size_cap=1)
        assert swept == []

    def test_each_witness_is_recounted_once(self, monkeypatch):
        # every set of Q8 up to size 4 violates Ia3 at c4 = 4: one re-count
        # per condition, not one per violating set
        brute = audit._brute_neighborhood_size
        calls = []

        def counted(g, mask):
            calls.append(mask)
            return brute(g, mask)

        monkeypatch.setattr(audit, "_brute_neighborhood_size", counted)
        failing = PropertyConstants(c1=0.1, c2=0.5, c3=3, c4=4, c5=0.5)
        report = check_property_i(build_hypercube(8), failing, size_cap=4)
        assert not report["holds"]
        assert calls == [as_mask(entry["worst"]["set"])
                         for entry in report["conditions"].values()]

    def test_an_undercounted_witness_is_caught(self, monkeypatch):
        # the fast route drops the lowest neighbour of every set; the
        # re-count of the witness disagrees
        def undercount(g, mask):
            nbr = neighborhood(g, mask)
            return nbr & (nbr - 1)

        monkeypatch.setattr(audit, "neighborhood", undercount)
        with pytest.raises(AuditViolation,
                           match="neighborhood routes disagree"):
            check_property_i(build_hypercube(3), FULL, size_cap=2)


class TestPropertyII:
    def test_matches_naive_sweep(self):
        g = build_cycle(6)
        d = g.d
        c = CODEG
        report = check_property_ii(g, c, size_cap=3)
        oracles = {
            "IIa1": (lambda s: s <= d ** 3 * math.log(g.n),
                     lambda s: math.sqrt(d) * s),
            "IIa2": (lambda s: s <= F(3, 8) * g.n,
                     lambda s: (1 + c.c4 / d ** c.c5) * s),
        }
        for name, (applies, bound) in oracles.items():
            holds, checked, worst = naive_sweep(g, 3, applies, bound)
            entry = report["conditions"][name]
            assert entry["holds"] == holds
            assert entry["checked"] == checked
            assert entry["worst"]["margin"] == pytest.approx(worst, abs=1e-12)

    def test_root_d_expansion_on_hypercube(self):
        # triples expand by sqrt(4) in Q4; quadruples already cannot
        q4 = build_hypercube(4)
        r3 = check_property_ii(q4, CODEG, size_cap=3)
        assert r3["conditions"]["IIa1"]["holds"]
        r4 = check_property_ii(q4, CODEG, size_cap=4)
        entry = r4["conditions"]["IIa1"]
        assert not entry["holds"]
        assert entry["worst"]["size"] == 4
        assert entry["worst"]["margin"] == pytest.approx(-1.0)

    def test_codegree_clause(self):
        torus = build_even_torus(6, 2)
        report = check_property_ii(torus, CODEG, size_cap=2)
        assert report["IIb"] == {"max_codegree": 2, "bound": 2,
                                 "holds": True}
        mid = build_middle_layer(3)
        report = check_property_ii(mid, CODEG, size_cap=2)
        assert report["IIb"]["max_codegree"] == 1
        assert report["IIb"]["holds"]
        tight = check_property_ii(torus, PropertyConstants(c1=1.5, c4=1,
                                                           c5=0.5),
                                  size_cap=2)
        assert not tight["IIb"]["holds"]

    def test_size_ratio(self):
        report = check_property_ii(build_hypercube(4), CODEG, size_cap=2)
        assert report["IIc"]["n_over_d6"] == pytest.approx(16 / 4 ** 6)


class TestProductIso:
    def test_factor_sizes_recorded_by_the_product_builder(self):
        k2 = build_complete_bipartite(1)
        k22 = build_complete_bipartite(2)
        assert build_hypercube(4).factor_sizes == (2, 2, 2, 2)
        assert build_even_torus(6, 2).factor_sizes == (6, 6)
        assert build_cartesian_product([k22, k22]).factor_sizes == (4, 4)
        assert build_cartesian_product(
            [build_cycle(6), k2]).factor_sizes == (6, 2)
        assert build_cycle(6).factor_sizes == ()
        # s and t are the largest and the number of the direct factors
        nested = build_cartesian_product([build_even_torus(6, 2), k2])
        report = check_product_iso(nested, size_cap=1)
        assert (report["s"], report["t"]) == (36, 2)

    def test_underivable_graph_raises(self):
        with pytest.raises(ValueError, match="not a declared product"):
            check_product_iso(build_cycle(6))

    def test_k22_squared(self):
        k22 = build_complete_bipartite(2)
        g = build_cartesian_product([k22, k22])
        report = check_product_iso(g, size_cap=4)
        assert report["s"] == 4 and report["t"] == 2
        assert report["max_codegree"] == 2
        assert report["codegree_holds"]
        assert report["conditions"]["near_half"]["holds"]
        assert report["worst_c"] > 0

    def test_k2_cubed_is_tight_at_full_side(self):
        # the whole side has q = 1, so the bound degenerates to |N| >= |X|,
        # met with equality by the opposite side
        k2 = build_complete_bipartite(1)
        g = build_cartesian_product([k2, k2, k2])
        report = check_product_iso(g, size_cap=4)
        assert report["s"] == 2 and report["t"] == 3
        assert report["max_codegree"] == 2
        assert report["codegree_holds"]
        near_half = report["conditions"]["near_half"]
        assert near_half["holds"]
        assert near_half["worst"]["margin"] == pytest.approx(0.0)
        assert near_half["worst"]["neighborhood"] == 4

    def test_explicit_parameters_bypass_label(self):
        report = check_product_iso(build_cycle(6), size_cap=2, s=2, t=3)
        assert report["s"] == 2 and report["t"] == 3
        assert report["max_codegree"] == 1

    def test_partial_override_fills_from_label(self):
        report = check_product_iso(build_hypercube(3), size_cap=2, s=3)
        assert report["s"] == 3 and report["t"] == 3

    @pytest.mark.parametrize("s,t", [(0, 3), (2, 0), (-1, 2)])
    def test_rejects_factor_parameters_below_one(self, s, t):
        with pytest.raises(ValueError, match="s >= 1 and t >= 1"):
            check_product_iso(build_cycle(6), size_cap=2, s=s, t=t)

    def test_refuses_an_empty_sweep(self):
        with pytest.raises(ValueError, match="size cap"):
            check_product_iso(build_hypercube(3), size_cap=0)

    def test_linked_sweep_draws_the_sets_of_property_one(self):
        # 126 rooted 2-linked sets decide the 324 subsets of at most four
        # of the eight vertices of either side
        g = build_hypercube(4)
        report = check_product_iso(g, size_cap=4)
        one = check_property_i(g, FULL, size_cap=4)
        assert report["swept"] == one["swept"] == 126
        assert report["conditions"]["near_half"]["checked"] == \
            one["conditions"]["Ia1"]["checked"] == 324


LINKED_GRAPHS = {
    "C6": lambda: build_cycle(6),
    "C8": lambda: build_cycle(8),
    "C10": lambda: build_cycle(10),
    "Q3": lambda: build_hypercube(3),
    "Q4": lambda: build_hypercube(4),
    "T4,2": lambda: build_even_torus(4, 2),
    "T6,2": lambda: build_even_torus(6, 2),
    "K3,3": lambda: build_complete_bipartite(3),
    "K4,4": lambda: build_complete_bipartite(4),
    "midlayer:3": lambda: build_middle_layer(3),
    "K2,2xK2,2": lambda: build_cartesian_product(
        [build_complete_bipartite(2)] * 2),
    "C4xK3,3": lambda: build_cartesian_product(
        [build_cycle(4), build_complete_bipartite(3)]),
}


def iso_checks(g):
    """report(graph, **sweep) of each isoperimetry check on g, with
    constants that hold on the sweeps below and constants that fail."""
    demanding = PropertyConstants(c1=F(1, 10), c4=4, c5=F(1, 2), c2=F(1, 2),
                                  c3=3)
    return (
        lambda h, **sweep: check_property_i(h, FULL, **sweep),
        lambda h, **sweep: check_property_i(h, demanding, **sweep),
        lambda h, **sweep: check_property_ii(h, CODEG, **sweep),
        lambda h, **sweep: check_property_ii(h, demanding, **sweep),
        lambda h, **sweep: check_product_iso(h, s=g.n, t=4, **sweep),
        lambda h, **sweep: check_product_iso(h, s=1, t=1, **sweep),
    )


def swept_exhaustively(monkeypatch, check, g, size_cap):
    """check(g)'s report decided over the oracle's sweep of every subset of
    at most size_cap vertices of each side, each condition's checked
    counting the subsets it applied to."""
    run = audit._run_conditions

    def every_subset(h, conditions, checked, sets, observe=None):
        sets = [(side, mask) for side in ("E", "O")
                for mask in exhaustive_sets(h, side, size_cap)]
        counted = {name: sum(1 for _, mask in sets
                             if applies(popcount(mask)))
                   for name, (applies, _) in conditions.items()}
        return run(h, conditions, counted, sets, observe)

    with monkeypatch.context() as patch:
        patch.setattr(audit, "_run_conditions", every_subset)
        return check(g, size_cap=size_cap)


class TestLinkedSweep:
    @pytest.mark.parametrize("size_cap", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", LINKED_GRAPHS)
    def test_verdicts_equal_the_exhaustive_sweep(self, monkeypatch, name,
                                                 size_cap):
        # rooted on the builder graph, from every start on its JSON copy
        g = LINKED_GRAPHS[name]()
        assert g.vertex_transitive
        every = graph_from_json(graph_to_json(g))
        assert not every.vertex_transitive
        for check in iso_checks(g):
            want = swept_exhaustively(monkeypatch, check, g, size_cap)
            for h in (g, every):
                got = check(h, size_cap=size_cap)
                assert got["holds"] == want["holds"]
                assert got.get("worst_c") == want.get("worst_c")
                for cond, entry in want["conditions"].items():
                    linked = got["conditions"][cond]
                    assert linked["holds"] == entry["holds"]
                    assert linked["checked"] == entry["checked"]
                    if entry["worst"]["margin"] > 0:
                        assert linked["worst"] == entry["worst"]
                    if not linked["holds"]:
                        worst = linked["worst"]
                        mask = as_mask(worst["set"])
                        assert worst["margin"] < 0
                        assert is_two_linked(g, mask)
                        assert audit._brute_neighborhood_size(g, mask) == \
                            worst["neighborhood"]

    def test_sets_are_the_two_linked_subsets_in_sweep_order(self):
        g = build_middle_layer(3)
        every = graph_from_json(graph_to_json(g))
        linked = [(side, mask) for side in ("E", "O")
                  for mask in exhaustive_sets(g, side, 3)
                  if is_two_linked(g, mask)]
        assert list(audit._iterate_sets(every, 3)) == linked
        lowest = {side: g.side_mask(side) & -g.side_mask(side)
                  for side in ("E", "O")}
        assert list(audit._iterate_sets(g, 3)) == \
            [(side, mask) for side, mask in linked if mask & lowest[side]]

    def test_reaches_past_the_exhaustive_budget(self):
        # 2 * 11,017,632 subsets of a side, far past the default budget,
        # decided by 46,426 rooted 2-linked sets
        report = check_property_i(build_hypercube(8), FULL, size_cap=4)
        assert report["holds"]
        assert report["swept"] == 46426
        assert report["conditions"]["Ia1"]["checked"] == 22035264

    def test_budget_guard(self):
        with pytest.raises(BudgetError, match="exceeded 10 sets"):
            check_property_i(build_hypercube(4), FULL, enum_cap=10)


class TestPsiFamilies:
    @pytest.mark.parametrize("d,lam,p", [
        (2, F(1), F(1, 2)),
        (3, F(2, 5), F(1, 3)),
        (5, F(3), F(1)),
    ])
    def test_empty_set_member_gives_full_power(self, d, lam, p):
        fam = PsiFamily(d, (frozenset(),))
        assert z_psi(fam, ModelParams(lam, p)) == (1 + lam) ** d

    def test_full_coordinate_set_hard_core(self):
        fam = PsiFamily(4, (frozenset(range(4)),))
        assert z_psi(fam, ModelParams(1, 1)) == 1

    def test_singletons_example(self):
        fam = PsiFamily(2, ({0}, {1}))
        assert z_psi(fam, ModelParams(1, F(1, 2))) == F(9, 2)

    @pytest.mark.parametrize("d,members", [
        (4, ()),
        (4, (frozenset(),)),
        (4, (frozenset(), {0}, {0, 1}, {0, 1, 2})),
        (5, ({0}, {1}, {2}, {0, 1}, {2, 3, 4}, frozenset(range(5)))),
        (6, (frozenset(), {5}, {1, 2}, {3, 4}, {0, 2, 4}, {1, 3, 5})),
    ])
    @pytest.mark.parametrize("lam,p", [
        (F(1), F(1, 2)), (F(2, 5), F(0)), (F(7, 3), F(1)),
        (F(3, 4), F(2, 9)),
    ])
    def test_sum_by_size_equals_member_sum(self, d, members, lam, p):
        # families with and without the empty set, at p = 0, p = 1 and
        # mixed member sizes
        fam = PsiFamily(d, members)
        params = ModelParams(lam, p)
        assert z_psi(fam, params) == fraction_z_psi(fam, params)

    def test_validation(self):
        with pytest.raises(ValueError, match="distinct"):
            PsiFamily(3, ({0}, {0}))
        with pytest.raises(ValueError, match="range"):
            PsiFamily(3, ({3},))
        with pytest.raises(ValueError, match="d must"):
            PsiFamily(0, ())

    def test_ell_psi(self):
        assert ell_psi(PsiFamily(5, ({0}, {1}))) == 3
        assert ell_psi(PsiFamily(4, ())) == 4
        assert ell_psi(PsiFamily(4, (frozenset(),))) == 4
        assert ell_psi(PsiFamily(3, ({0, 1}, {2}))) == 0

    def test_z_monotone_ell_antitone_in_family(self):
        params = ModelParams(F(2, 3), F(1, 4))
        pool = [frozenset(s) for k in range(3)
                for s in combinations(range(3), k)]
        for i in range(1, len(pool)):
            smaller = PsiFamily(3, tuple(pool[:i]))
            larger = PsiFamily(3, tuple(pool[:i + 1]))
            assert z_psi(larger, params) > z_psi(smaller, params)
            assert ell_psi(larger) <= ell_psi(smaller)

    def test_split_boundary_and_empty_member(self):
        fam = PsiFamily(4, (frozenset(), {0}, {0, 1}, {0, 1, 2}))
        low, high = psi_split(fam, 2)
        assert low.sizes() == [1, 2]
        assert high.sizes() == [3]
        assert not low.has_empty and not high.has_empty


class TestZPsiSplitAudit:
    def test_split_point_and_membership_at_large_d(self):
        # lam = 1 puts the split at (d - ell)/4; the parts must agree with
        # a direct size filter
        d = 1000
        fam = PsiFamily(d, tuple(frozenset({i}) for i in range(6))
                        + (frozenset(range(300)), frozenset(range(500))))
        report = z_psi_split_audit(fam, 100, ModelParams(1, 1), 1)
        assert report["s"] == F(d - 100, 4) == 225
        sizes = fam.sizes()
        assert report["low_sizes"] == [s for s in sizes if 1 <= s <= 225]
        assert report["high_sizes"] == [s for s in sizes if s > 225]
        assert report["split_identity_ok"]

    def test_asserted_when_hypotheses_hold(self):
        fam = PsiFamily(1000, tuple(frozenset({i}) for i in range(10)))
        report = z_psi_split_audit(fam, 100, ModelParams(1, 1), 1)
        assert report["hypotheses"]["holds"]
        assert report["asserted"]
        assert report["low"]["ok"] and report["high"]["ok"]

    def test_small_d_reports_without_asserting(self):
        # at d = 2, p = 0 the bounds genuinely fail, but beta = 0 voids the
        # hypotheses, so the audit records the failure instead of raising
        fam = PsiFamily(2, ({0}, {1}))
        report = z_psi_split_audit(fam, 0, ModelParams(1, 0), 1)
        assert not report["hypotheses"]["holds"]
        assert report["hypotheses"]["note"] == "beta must be positive"
        assert not report["asserted"]
        assert not report["high"]["ok"]

    def test_hypotheses_margins_reported(self):
        fam = PsiFamily(100, ({0},))
        report = z_psi_split_audit(fam, 10, ModelParams(1, 1), 1)
        hyp = report["hypotheses"]
        assert not hyp["holds"]
        assert hyp["first_margin"] < 0 < hyp["second_margin"]

    def test_ell_validation(self):
        fam = PsiFamily(10, ({0}, {1}))
        with pytest.raises(ValueError, match="ell"):
            z_psi_split_audit(fam, 9, ModelParams(1, 1), 1)  # > min(8, 5)
        with pytest.raises(ValueError, match="ell"):
            z_psi_split_audit(fam, -1, ModelParams(1, 1), 1)
        z_psi_split_audit(fam, 5, ModelParams(1, 1), 1)

    def test_c_validation(self):
        fam = PsiFamily(10, ({0},))
        with pytest.raises(ValueError, match="C must"):
            z_psi_split_audit(fam, 1, ModelParams(1, 1), 0)

    @pytest.mark.parametrize("big_c", [math.nan, math.inf, 0, -1.5])
    def test_c_must_be_positive_and_finite(self, big_c):
        fam = PsiFamily(10, ({0}, {1}))
        with pytest.raises(ValueError, match="C must be positive and finite"):
            z_psi_split_audit(fam, 1, ModelParams(1, F(1, 2)), big_c)
        with pytest.raises(ValueError, match="C must be positive and finite"):
            z_psi_halfell_audit(fam, ModelParams(1, F(1, 2)), big_c)

    def test_empty_member_breaks_split_identity(self):
        fam = PsiFamily(10, (frozenset(), {0}, {1}))
        report = z_psi_split_audit(fam, 4, ModelParams(1, F(1, 2)), 1)
        assert not report["split_identity_ok"]


class TestZPsiHalfell:
    def test_rejects_empty_member(self):
        fam = PsiFamily(5, (frozenset(), {0}))
        with pytest.raises(ValueError, match="empty set"):
            z_psi_halfell_audit(fam, ModelParams(1, 1), 1)

    def test_asserted_at_large_d(self):
        fam = PsiFamily(1000, tuple(frozenset({i}) for i in range(10)))
        report = z_psi_halfell_audit(fam, ModelParams(1, 1), 1)
        assert report["ell_psi"] == 990
        assert report["asserted"] and report["ok"]

    def test_violated_bound_raises_when_asserted(self, monkeypatch):
        # a partition sum far above the bound must fail the verdict
        monkeypatch.setattr("isingpoly.audit.z_psi",
                            lambda fam, params: F(10) ** 400)
        fam = PsiFamily(1000, tuple(frozenset({i}) for i in range(10)))
        with pytest.raises(AssertionError, match="half-ell bound violated"):
            z_psi_halfell_audit(fam, ModelParams(1, 1), 1)

    @pytest.mark.parametrize("d", [3, 40, 1000])
    @pytest.mark.parametrize("lam,p", [(F(1), F(1)), (F(1, 10), F(1)),
                                       (F(2), F(1, 2)), (F(1, 3), F(1, 7))])
    @pytest.mark.parametrize("big_c", [0.5, 1, 2.5])
    def test_bound_is_the_high_split_bound_at_half_ell(self, d, lam, p,
                                                       big_c):
        fam = PsiFamily(d, ({0}, {1}) if d == 3 else
                        tuple(frozenset({i}) for i in range(7)) +
                        (frozenset(range(d // 3)),))
        params = ModelParams(lam, p)
        half = z_psi_halfell_audit(fam, params, big_c)
        split = z_psi_split_audit(fam, F(ell_psi(fam), 2), params, big_c)
        assert isinstance(half["log_rhs"], mpmath.mpf)
        assert half["log_rhs"] == split["high"]["log_rhs"]
        assert half["hypotheses"] == split["hypotheses"]

    def test_small_d_report_only(self):
        fam = PsiFamily(3, ({0}, {1}))
        report = z_psi_halfell_audit(fam, ModelParams(1, F(1, 2)), 1)
        assert not report["hypotheses"]["holds"]
        assert not report["asserted"]
        assert "log_lhs" in report and "log_rhs" in report


class TestContainerReports:
    def test_cycle_pair_class(self):
        g = build_cycle(6)
        params = ModelParams(1, F(1, 2))
        report = container_sum_report(g, "E", 1, 2, params)
        assert report["lhs"] == F(27, 16)
        assert report["count"] == 3
        assert report["d_size"] == 3
        with mpmath.workprec(128):
            expected = -mpmath.log(mpmath.mpf(27) / 16 / 3) * \
                mpmath.log(2) / F(1, 2) ** 2
        assert float(report["c_star_implied"]) == pytest.approx(
            float(expected), rel=1e-20)

    def test_closure_class_includes_smaller_generators(self):
        # pairs on a C6 side close to the whole side, so G(3, 3) holds the
        # three pairs plus the side itself
        g = build_cycle(6)
        report = container_sum_report(g, "E", 3, 3, ModelParams(1, F(1, 2)))
        assert report["count"] == 4
        assert report["lhs"] == 3 * F(45, 128) + F(125, 512) == F(665, 512)
        assert report["c_star_implied"] is None  # b == a

    def test_b_below_a_is_empty(self):
        report = container_sum_report(build_cycle(6), "E", 2, 1,
                                      ModelParams(1, 1))
        assert report["empty"]
        assert report["count"] == 0 and report["lhs"] == 0
        assert report["c_star_implied"] is None

    def test_unpopulated_class_reports_zero(self):
        report = container_sum_report(build_cycle(6), "E", 1, 1,
                                      ModelParams(1, 1))
        assert not report["empty"]
        assert report["count"] == 0 and report["lhs"] == 0

    def test_hypercube_singleton_class(self):
        g = build_hypercube(4)
        report = container_sum_report(g, "E", 1, 4, ModelParams(1, 1))
        assert report["count"] == 8
        assert report["lhs"] == F(1, 2)  # 8 * (1/2)^4
        with mpmath.workprec(128):
            expected = mpmath.log(16) * mpmath.log(4) / 3
        assert float(report["c_star_implied"]) == pytest.approx(
            float(expected), rel=1e-20)

    def test_zero_sum_gives_infinite_constant(self):
        # no 2-linked set on a C6 side has closure 1, so G(1, 2) with a = 1
        # vs b = 3 is empty but not degenerate
        report = container_sum_report(build_cycle(6), "E", 1, 3,
                                      ModelParams(1, 1))
        assert report["count"] == 0
        assert report["c_star_implied"] == mpmath.inf

    def test_hypothesis_check_cycle(self):
        report = container_hypothesis_check(build_cycle(6), "E", 10)
        assert report["holds"]
        assert report["checked"] == 3  # one oversized subset per y
        assert report["worst"]["margin"] == pytest.approx(3 - 0.2 * 2)

    def test_hypothesis_check_hypercube(self):
        report = container_hypothesis_check(build_hypercube(4), "E", 10)
        assert report["holds"]
        assert report["checked"] == 40  # 8 vertices, C(4,3) + C(4,4) each
        assert report["worst"]["margin"] == pytest.approx(7 - 0.4 * 4)

    def test_hypothesis_budget(self):
        with pytest.raises(BudgetError):
            container_hypothesis_check(build_hypercube(4), "E", 10,
                                       enum_cap=4)

    @pytest.mark.parametrize("c2", [0, -1, math.nan, math.inf])
    def test_hypothesis_rejects_c2_outside_positive_reals(self, c2):
        with pytest.raises(ValueError, match="c2 must be positive"):
            container_hypothesis_check(build_cycle(6), "E", c2)

    @pytest.mark.parametrize("a,b", [(0, -1), (0, 2), (-1, -3), (-1, 1)])
    def test_closure_size_below_one_is_refused_whatever_b(self, a, b):
        # a is checked before the b < a shortcut to the empty report
        with pytest.raises(ValueError, match="closure size a must be >= 1"):
            container_sum_report(build_cycle(6), "E", a, b, ModelParams(1, 1))

    def test_unknown_side_is_refused(self):
        g = build_hypercube(3)
        with pytest.raises(ValueError, match="side must be 'E' or 'O'"):
            container_hypothesis_check(g, "X", 2.0)
        with pytest.raises(ValueError, match="side must be 'E' or 'O'"):
            container_sum_report(g, "X", 2, 1, ModelParams(1, 1))

    def test_hypothesis_bound_is_exact(self):
        # on C6 at c2 = 4/3 the bound (d/c2)|X| is exactly 3 at |X| = 2,
        # met with equality; a float c2 would miss the tie
        report = container_hypothesis_check(build_cycle(6), "E", F(4, 3))
        assert report["holds"]
        assert report["worst"]["margin"] == 0.0


class TestNonpolymerReport:
    def test_cycle_hard_core(self):
        g = build_cycle(6)
        report = nonpolymer_weight_report(g, ModelParams(1, 1))
        # every uncaptured subset contains an edge, so hard-core kills all
        assert report["ratio"] == 0
        assert report["count"] == 16
        assert report["exponent"] == mpmath.inf

    def test_cycle_soft_interaction_double_route(self):
        g = build_cycle(6)
        params = ModelParams(1, F(1, 2))
        report = nonpolymer_weight_report(g, params)
        total = F(0)
        count = 0
        for mask in range(1 << g.n):
            if captured_on_side(g, mask, "E") or \
                    captured_on_side(g, mask, "O"):
                continue
            total += ising_weight(g, params, mask)
            count += 1
        assert report["count"] == count == 16
        assert report["total"] == total
        assert report["ratio"] == total / exact_Z(g, params) == F(121, 2041)
        with mpmath.workprec(128):
            expected = -mpmath.log(mpmath.mpf(121) / 2041) / 3
        assert float(report["exponent"]) == pytest.approx(float(expected))

    def test_four_cycle_family_contains_all_vertices(self):
        g = build_cycle(4)
        params = ModelParams(1, F(1, 2))
        report = nonpolymer_weight_report(g, params)
        full = (1 << 4) - 1
        weights = [ising_weight(g, params, full)]
        assert weights[0] > 0
        assert report["total"] >= weights[0]
        assert not captured_on_side(g, full, "E")
        assert not captured_on_side(g, full, "O")

    def test_small_fugacity_vanishes(self):
        g = build_cycle(6)
        report = nonpolymer_weight_report(g, ModelParams(F(1, 1000),
                                                         F(1, 2)))
        assert 0 < report["ratio"] < F(1, 10 ** 11)
        assert float(report["exponent"]) > 9

    def test_caller_sweep_cap_reaches_exact_z(self, monkeypatch):
        monkeypatch.setattr("isingpoly.model.DEFAULT_SWEEP_CAP", 6)
        g = build_cycle(8)
        params = ModelParams(1, F(1, 2))
        report = nonpolymer_weight_report(g, params, sweep_cap=8)
        assert report["z"] == exact_Z(g, params, sweep_cap=8)


def test_one_default_caps_every_set_walk(monkeypatch):
    # each walk reads graphs.DEFAULT_ENUM_CAP when it starts, so lowering it
    # lowers every walk's cap: on Q4 the 2-linked sets of side E, the 63
    # rooted 2-linked sets of at most 4 vertices of a side and the 40
    # neighbourhood subsets all pass 10; on C6 at k_max 5 the seven
    # 2-linked sets fit under 10 and the 55 multisets of the cluster walk
    # do not
    monkeypatch.setattr("isingpoly.graphs.DEFAULT_ENUM_CAP", 10)
    q4 = build_hypercube(4)
    with pytest.raises(BudgetError, match="exceeded 10 sets"):
        list(enumerate_polymers(q4, "E"))
    with pytest.raises(BudgetError, match="exceeded 10 sets"):
        check_property_i(q4, FULL)
    with pytest.raises(BudgetError, match="needs 40 sets, cap is 10"):
        container_hypothesis_check(q4, "E", 10)
    with pytest.raises(BudgetError, match="cluster walk exceeded 10"):
        enumerate_clusters(build_cycle(6), "E", ModelParams(1, 1), k_max=5)


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, and with them any audit verdict
    src = Path(__file__).resolve().parents[1] / "src" / "isingpoly"
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


# Paper objects that no code consumes yet; the report comparing the
# truncated expansion with exact log Z (ROADMAP item 3) is to consume them.
AWAITING_CONSUMER = {
    "weight_bound_check",             # omega(A) <= lam^|A| alpha~^-|N(A)|
    "is_psi_approximation",           # the container approximation pair
    "approximation_facts",            # and its two size inequalities
    "sharpness_threshold",            # the truncation threshold in p
    "independent_set_count_estimate",  # leading-order E[i(G_p)]
    "galvin_estimate",                # the hypercube hard-core estimate
    "ExpansionEstimate",              # leading exponent with its envelope
}


def test_every_public_name_has_a_consumer():
    # a public def or class that only its own tests use is dead weight:
    # delete it, move it into the tests, or give it a consumer
    root = Path(__file__).resolve().parents[1]
    package = [path for path in sorted((root / "src" / "isingpoly").glob("*.py"))
               if path.name != "__init__.py"]
    public = {node.name for path in package
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    used = set()
    for path in package + sorted((root / "demos").glob("*.py")) + \
            sorted((root / "perfbench").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            # a name used only inside its own definition has no consumer
            own = getattr(top, "name", None) if path in package else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and \
                        isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    assert AWAITING_CONSUMER <= public
    assert sorted(public - used - AWAITING_CONSUMER) == []


def test_every_public_member_has_a_consumer():
    # the same for the public methods and properties of public classes: an
    # attribute use in src, demos or perfbench outside the member's own
    # definition is a consumer
    root = Path(__file__).resolve().parents[1]
    package = [path for path in sorted((root / "src" / "isingpoly").glob("*.py"))
               if path.name != "__init__.py"]
    trees = [ast.parse(path.read_text()) for path in
             package + sorted((root / "demos").glob("*.py"))
             + sorted((root / "perfbench").glob("*.py"))]

    def attribute_uses(node):
        return collections.Counter(sub.attr for sub in ast.walk(node)
                                   if isinstance(sub, ast.Attribute))

    uses = sum(map(attribute_uses, trees), collections.Counter())
    unused = [f"{cls.name}.{member.name}"
              for tree in trees[:len(package)] for cls in tree.body
              if isinstance(cls, ast.ClassDef)
              and not cls.name.startswith("_")
              and cls.name not in AWAITING_CONSUMER
              for member in cls.body
              if isinstance(member, ast.FunctionDef)
              and not member.name.startswith("_")
              and uses[member.name] == attribute_uses(member)[member.name]]
    assert unused == []


def test_no_seed_sequence_in_the_package():
    # philox.philox_key is the one key schedule behind both seeded routes;
    # numpy's SeedSequence is only the tests' oracle for it
    src = Path(__file__).resolve().parents[1] / "src" / "isingpoly"
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and "SeedSequence" in (getattr(node.func, "id", None),
                                    getattr(node.func, "attr", None))]
    assert found == []


def test_no_random_import_in_the_package():
    # every random stream in the package is philox's seeded one
    src = Path(__file__).resolve().parents[1] / "src" / "isingpoly"
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Import)
             and any(alias.name.split(".")[0] == "random"
                     for alias in node.names)
             or isinstance(node, ast.ImportFrom) and node.level == 0
             and (node.module or "").split(".")[0] == "random"]
    assert found == []


def test_check_product_iso_sweeps_once(monkeypatch):
    # the verdicts and worst_c come from one pass over the swept sets, with
    # one neighborhood per set; the report equals the two-pass one built
    # here from the listed sets
    g = build_even_torus(6, 2)
    s, t = max(g.factor_sizes), len(g.factor_sizes)
    sets = list(audit._iterate_sets(g, 4))
    conditions = {"near_half": (lambda size: True, lambda size: size * (
        1 + 2 * math.sqrt(2) * (1 - 2 * size / g.n) / (s * math.sqrt(t))))}
    expected_verdicts, swept = audit._run_conditions(
        g, conditions, audit._coverage(g, conditions, 4), sets)
    expected_c = max(t * popcount(mask) / popcount(neighborhood(g, mask))
                     for _, mask in sets)
    calls = []
    iterate = audit._iterate_sets

    def counted(*args, **kwargs):
        calls.append(args)
        return iterate(*args, **kwargs)

    counted_masks = []

    def counted_neighborhood(graph, mask):
        counted_masks.append(mask)
        return neighborhood(graph, mask)

    monkeypatch.setattr(audit, "_iterate_sets", counted)
    monkeypatch.setattr(audit, "neighborhood", counted_neighborhood)
    report = check_product_iso(g, size_cap=4)
    assert len(calls) == 1
    assert counted_masks == [mask for _, mask in sets]
    assert report["swept"] == swept == len(sets)
    assert report["conditions"] == expected_verdicts
    assert report["worst_c"] == expected_c


def test_every_oracle_has_a_consumer():
    # an oracle that nothing compares against is no second route: delete
    # it, or give it a test
    root = Path(__file__).resolve().parents[1]
    oracles = root / "tests" / "oracles.py"
    defined = {node.name for node in ast.parse(oracles.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    used = set()
    for path in sorted((root / "tests").glob("test_*.py")) + \
            sorted((root / "perfbench").glob("*.py")) + [oracles]:
        for top in ast.parse(path.read_text()).body:
            # an oracle used only inside its own definition has no consumer
            own = getattr(top, "name", None) if path == oracles else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and \
                        isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    assert "fraction_measure" in defined
    assert sorted(defined - used) == []
