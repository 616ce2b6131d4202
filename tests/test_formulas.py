"""Closed forms against the cluster-expansion oracle and the hand-derived
family forms, regime guards on the concrete graphs, and the leading-term
count estimates."""

import math
import time
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import pytest

from oracles import (
    hypercube_a,
    l2_hypercube,
    l2_kss_product,
    l2_middle_layer,
    l2_torus_bracket,
)
from isingpoly.cli import CLOSED_FORMS
from isingpoly.clusters import l_k
from isingpoly.formulas import (
    ExpansionEstimate,
    RegimeError,
    galvin_estimate,
    independent_set_count_estimate,
    kss_expected_histogram,
    l1_closed,
    l2_codegree,
    l2_regime_report,
    l2_torus,
    midlayer_expected_histogram,
    sharpness_threshold,
    torus_expected_histogram,
)
from isingpoly.graphs import (
    build_cartesian_product,
    build_complete_bipartite,
    build_cycle,
    build_even_torus,
    build_hypercube,
    build_middle_layer,
    iter_bits,
)
from isingpoly.model import ModelParams
from isingpoly.rationals import (MAX_DECIMAL_EXPONENT, TOO_MANY_DIGITS,
                                 log_precision)

F = Fraction


def params(lam, p) -> ModelParams:
    return ModelParams(lam=F(lam), p=F(p))


def family_l2(family, p, **opts) -> Fraction:
    """The closed-form subcommand's second-order value: the family's
    CLOSED_FORMS row feeds l2_codegree its side size, degree and codegree
    histogram, at fugacity 1."""
    args = SimpleNamespace(params=params(1, p), **opts)
    _, formula, _, histogram = CLOSED_FORMS[family]
    return formula(args, histogram(args))


def vertex_histograms(g, side):
    """Each side vertex's same-side partners that share a neighbour,
    counted by the number of neighbours shared, from the adjacency lists."""
    adj = [set(a) for a in g.adj]
    for u in iter_bits(g.side_mask(side)):
        hist = {}
        for v in iter_bits(g.side_mask(side)):
            c = len(adj[u] & adj[v])
            if v != u and c:
                hist[c] = hist.get(c, 0) + 1
        yield hist


class TestL1Closed:
    def test_cycle_value(self):
        assert l1_closed(6, 2, 1, F(1, 2)) == F(27, 16)

    def test_matches_cluster_oracle(self):
        for g in (build_cycle(6), build_hypercube(3)):
            for lam, p in ((1, F(1, 2)), (F(1, 3), 1), (2, F(2, 5))):
                assert l1_closed(g.n, g.d, lam, p) == \
                    l_k(g, "E", params(lam, p), k=1)

    def test_p_zero_collapses(self):
        assert l1_closed(10, 4, F(3, 7), 0) == F(10, 2) * F(3, 7)

    def test_always_positive(self):
        for lam in (F(1, 10), 1, 5):
            for p in (0, F(1, 2), 1):
                assert l1_closed(8, 3, lam, p) > 0


# the hand-derived second route of each family, at fugacity 1
FAMILY_ORACLES = {
    "torus": lambda p, m, t: l2_torus_bracket(m, t, p),
    "midlayer": lambda p, d: l2_middle_layer(d, p),
    "kss": lambda p, s, t: l2_kss_product(s, t, p),
    "hypercube": lambda p, t: l2_hypercube(t, p),
}
FAMILY_CASES = (
    [("torus", {"m": m, "t": t}) for m in (6, 8, 10) for t in range(1, 5)]
    + [("hypercube", {"t": t}) for t in range(1, 5)]
    + [("kss", {"s": s, "t": t}) for s in range(1, 5) for t in range(1, 5)]
    + [("midlayer", {"d": d}) for d in range(2, 7)])


class TestL2Codegree:
    @pytest.mark.parametrize("p", [0, F(1, 3), F(1, 2), F(7, 9), 1])
    @pytest.mark.parametrize(
        "family,opts", FAMILY_CASES,
        ids=[family + "".join(f"-{k}{v}" for k, v in opts.items())
             for family, opts in FAMILY_CASES])
    def test_equals_family_oracle(self, family, opts, p):
        assert family_l2(family, p, **opts) == \
            FAMILY_ORACLES[family](p, **opts)

    @pytest.mark.parametrize("lam,p", [(1, F(1, 2)), (F(2, 3), F(1, 3)),
                                       (1, 1), (3, F(1, 4))])
    @pytest.mark.parametrize("build,args", [(build_hypercube, (5,)),
                                            (build_even_torus, (6, 2)),
                                            (build_middle_layer, (3,))])
    def test_per_vertex_histograms_sum_to_l2(self, build, args, lam, p):
        # fugacities other than 1, which no family row reaches
        g = build(*args)
        total = sum(l2_codegree(1, g.d, hist, lam, p)
                    for hist in vertex_histograms(g, "E"))
        assert total == l_k(g, "E", params(lam, p), k=2)

    @pytest.mark.parametrize("p", [F(1, 3), F(1, 2), F(2, 3), F(7, 9), 1])
    @pytest.mark.parametrize("family,opts", [
        ("hypercube", {"t": t}) for t in (2000, 3500, 5000, 8000, 14000)] + [
        ("torus", {"m": 6, "t": t}) for t in (1000, 1750, 2500, 4000, 7000)])
    def test_refuses_only_values_too_long_to_write(self, family, opts, p):
        # the hand-derived route builds the value whatever its length; the
        # formula refuses it only when its denominator has more than
        # MAX_DECIMAL_EXPONENT digits
        expected = FAMILY_ORACLES[family](p, **opts)
        try:
            assert family_l2(family, p, **opts) == expected
        except ValueError as exc:
            assert str(exc) == TOO_MANY_DIGITS
            assert expected.denominator >= 10 ** MAX_DECIMAL_EXPONENT

    def test_refusal_comes_before_the_power(self):
        # q = 5/6: q^(2d) alone has over 1.5 million digits at d = 10^6
        with pytest.raises(ValueError, match="more than 4300 digits"):
            family_l2("hypercube", F(1, 3), t=10 ** 6)
        # q = 1/2 and half = 2^(t-1) cancel to a value that is written out
        assert family_l2("hypercube", 1, t=14000) == l2_hypercube(14000, 1)

    @pytest.mark.parametrize("p", [0, 1])
    def test_midlayer_refusal_comes_before_the_binomial(self, p):
        # C(2d-1, d) alone took 38 s at d = 10^6; at p = 1 its factors of 2
        # and at p = 0 a lower bound on its length refuse the value first
        start = time.perf_counter()
        with pytest.raises(ValueError, match="more than 4300 digits"):
            family_l2("midlayer", p, d=10 ** 6)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("p", [0, 1])
    @pytest.mark.parametrize("d", [7000, 7130, 7142, 7143, 7150, 7200, 9000])
    def test_midlayer_refuses_only_values_too_long_to_write(self, d, p):
        # at p = 1 the denominator is long, at p = 0 the numerator; around
        # d = 7142 both pass 4300 digits
        expected = l2_middle_layer(d, p)
        longest = max(abs(expected.numerator), expected.denominator)
        try:
            assert family_l2("midlayer", p, d=d) == expected
        except ValueError as exc:
            assert str(exc) == TOO_MANY_DIGITS
            assert longest >= 10 ** MAX_DECIMAL_EXPONENT

    def test_histogram_guards(self):
        with pytest.raises(ValueError, match="dimension must be >= 1, got 0"):
            torus_expected_histogram(0)
        for d in (1, 0):
            with pytest.raises(RegimeError, match=f"d >= 2, got {d}"):
                midlayer_expected_histogram(d)
        for s, t in ((0, 2), (2, 0)):
            with pytest.raises(ValueError, match=f"got s={s}, t={t}"):
                kss_expected_histogram(s, t)

class TestL2Torus:
    def test_regime_guard(self):
        with pytest.raises(RegimeError):
            l2_torus(4, 2, 1)
        with pytest.raises(RegimeError):
            l2_torus(5, 2, 1)
        with pytest.raises(ValueError):
            l2_torus(6, 0, 1)

    def test_dimension_two_matches_oracle(self):
        g = build_even_torus(6, 2)
        for p in (1, F(1, 2)):
            assert l2_torus(6, 2, p) == l_k(g, "E", params(1, p), k=2)
        assert l2_torus(6, 2, 1) == l2_torus_bracket(6, 2, 1) == \
            F(135, 256)

    def test_dimension_one_documented_mismatch(self):
        # on the 6-cycle the 2-element 2-linked sets are not polymers, so
        # the formula (derived assuming they are) overshoots the oracle
        g = build_cycle(6)
        formula = l2_torus(6, 1, 1)
        brute = l_k(g, "E", params(1, 1), k=2)
        assert formula == l2_torus_bracket(6, 1, 1) == F(3, 32)
        assert brute == F(-9, 32)
        assert brute < formula

    @pytest.mark.parametrize("m", [6, 8])
    @pytest.mark.parametrize("t", [2, 3])
    def test_hard_core_reduction(self, m, t):
        expected = F(m ** t * (6 * t * t - 4 * t - 1), 2 ** (4 * t + 2))
        assert l2_torus(m, t, 1) == l2_torus_bracket(m, t, 1) == expected

    def test_regime_reports(self):
        g2 = build_even_torus(6, 2)
        rep = l2_regime_report(g2, "E", torus_expected_histogram(2))
        assert rep["regime_ok"]
        g1 = build_cycle(6)
        rep1 = l2_regime_report(g1, "E", torus_expected_histogram(1))
        assert rep1["codegree_histogram_ok"]
        assert not rep1["pairs_are_polymers"]
        assert not rep1["regime_ok"]


class TestL2MiddleLayer:
    def test_d_three_matches_oracle(self):
        g = build_middle_layer(3)
        assert g.n == 20
        for p in (1, F(1, 3)):
            assert family_l2("midlayer", p, d=3) == \
                l_k(g, "E", params(1, p), k=2)
        assert family_l2("midlayer", 1, d=3) == l2_middle_layer(3, 1) == \
            F(25, 64)

    def test_p_zero(self):
        for d in (2, 3, 4):
            assert family_l2("midlayer", 0, d=d) == l2_middle_layer(d, 0) \
                == -F(math.comb(2 * d - 1, d - 1), 2)

    def test_d_two_documented_mismatch(self):
        # the d=2 middle layer is a 6-cycle; same regime failure as the
        # 1-dimensional torus, and the formulas agree with each other
        g = build_middle_layer(2)
        assert family_l2("midlayer", 1, d=2) == l2_middle_layer(2, 1) == \
            l2_torus(6, 1, 1) == F(3, 32)
        assert l_k(g, "E", params(1, 1), k=2) == F(-9, 32)
        rep = l2_regime_report(g, "E", midlayer_expected_histogram(2))
        assert not rep["regime_ok"]

    def test_regime_report_d_three(self):
        g = build_middle_layer(3)
        rep = l2_regime_report(g, "E", midlayer_expected_histogram(3))
        assert rep["regime_ok"]


class TestL2KssProduct:
    @pytest.mark.parametrize("t", [2, 3, 4])
    @pytest.mark.parametrize("p", [0, F(1, 7), F(1, 3), F(1, 2), 1])
    def test_s_one_reduces_to_hypercube_form(self, t, p):
        assert family_l2("kss", p, s=1, t=t) == \
            family_l2("hypercube", p, t=t) == l2_hypercube(t, p) == \
            l2_kss_product(1, t, p)

    def test_s_two_matches_oracle(self):
        g = build_cartesian_product([build_complete_bipartite(2)] * 2)
        assert g.n == 16 and g.d == 4
        assert family_l2("kss", 1, s=2, t=2) == \
            l_k(g, "E", params(1, 1), k=2)

    def test_s_two_p_zero_collapse(self):
        g = build_cartesian_product([build_complete_bipartite(2)] * 2)
        assert family_l2("kss", 0, s=2, t=2) == l2_kss_product(2, 2, 0) == -4
        assert l_k(g, "E", params(1, 0), k=2) == -4

    def test_hypercube_form_matches_oracle_in_regime(self):
        g = build_hypercube(4)
        for p in (1, F(1, 2)):
            assert family_l2("hypercube", p, t=4) == \
                l_k(g, "E", params(1, p), k=2)

    def test_hypercube_three_out_of_regime(self):
        g = build_hypercube(3)
        assert family_l2("hypercube", 1, t=3) != \
            l_k(g, "E", params(1, 1), k=2)
        rep = l2_regime_report(g, "E", kss_expected_histogram(1, 3))
        assert rep["codegree_histogram_ok"]
        assert not rep["pairs_are_polymers"]
        rep4 = l2_regime_report(build_hypercube(4), "E",
                                kss_expected_histogram(1, 4))
        assert rep4["regime_ok"]

    def test_single_edge_is_out_of_regime(self):
        # on K_{1,1} each vertex's closure is the whole side, so no single
        # vertex is a polymer, although there are no pairs to fail
        g = build_hypercube(1)
        rep = l2_regime_report(g, "E", kss_expected_histogram(1, 1))
        assert rep["codegree_histogram_ok"] and rep["pairs_are_polymers"]
        assert not rep["singletons_are_polymers"]
        assert not rep["regime_ok"]
        assert family_l2("hypercube", F(1, 2), t=1) != \
            l_k(g, "E", params(1, F(1, 2)), k=2)
        rep4 = l2_regime_report(build_hypercube(4), "E",
                                kss_expected_histogram(1, 4))
        assert rep4["singletons_are_polymers"]

    def test_a_of_p(self):
        assert hypercube_a(1) == F(3, 4)
        assert hypercube_a(0) == 0
        assert hypercube_a(F(1, 2)) == F(25, 16) * F(16, 81) - F(1, 4)

    def test_side_symmetry(self):
        for g in (build_even_torus(6, 2),
                  build_cartesian_product([build_complete_bipartite(2)] * 2),
                  build_middle_layer(3)):
            prm = params(1, F(1, 2))
            for k in (1, 2):
                assert l_k(g, "E", prm, k=k) == l_k(g, "O", prm, k=k)


class TestSharpnessThreshold:
    def test_values(self):
        assert sharpness_threshold(1, 2) == pytest.approx(1.0)
        assert sharpness_threshold(2, 1) == pytest.approx(2 - 2 ** (2 / 3))
        assert sharpness_threshold(2, 2) == pytest.approx(2 - 2 ** (1 / 3))
        assert sharpness_threshold(3, 2) == pytest.approx(2 - 2 ** 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            sharpness_threshold(0, 1)
        with pytest.raises(ValueError):
            sharpness_threshold(1, -1)


class TestCountEstimates:
    def test_reports_share_one_precision(self):
        # every log-scale report works at the 128 bits log_precision
        # enters, and the caller's precision comes back afterwards
        outer = mpmath.mp.prec
        with log_precision() as mp:
            assert mp is mpmath and mpmath.mp.prec == 128
        assert mpmath.mp.prec == outer

    def test_estimate_at_p_one(self):
        val = independent_set_count_estimate(8, 3, 1)
        with mpmath.workprec(128):
            expected = 2 * mpmath.mpf(2) ** 4 * mpmath.exp(mpmath.mpf(1) / 2)
        assert abs(val - expected) < mpmath.mpf("1e-30")

    def test_ratio_against_exact_hypercube_count(self):
        # i(Q^3) = 35 exactly; at d=3 the estimate runs about fifty percent
        # hot, reported rather than asserted asymptotically
        val = independent_set_count_estimate(8, 3, 1)
        assert float(val) / 35 == pytest.approx(1.50740, rel=1e-5)

    def test_estimate_at_p_zero(self):
        val = independent_set_count_estimate(4, 2, 0)
        with mpmath.workprec(128):
            expected = 2 * mpmath.mpf(2) ** 2 * mpmath.exp(2)
        assert abs(val - expected) < mpmath.mpf("1e-28")
        assert float(val) > 2 ** 4

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            independent_set_count_estimate(8, 3, F(3, 2))

    def test_galvin_hard_core(self):
        val = galvin_estimate(3, 1)
        with mpmath.workprec(128):
            expected = 2 * mpmath.mpf(2) ** 4 * mpmath.exp(mpmath.mpf(1) / 2)
        assert abs(val - expected) < mpmath.mpf("1e-30")
        ident = independent_set_count_estimate(8, 3, 1)
        assert abs(val - ident) < mpmath.mpf("1e-30")
        assert float(val) / 35 == pytest.approx(1.50740, rel=1e-5)

    def test_galvin_small_fugacity(self):
        val = float(galvin_estimate(3, F(1, 1000)))
        assert 2 < val < 2.02

    def test_galvin_validation(self):
        with pytest.raises(ValueError):
            galvin_estimate(3, 0)


class TestExpansionEstimate:
    def test_leading_matches_l1(self):
        est = ExpansionEstimate(n=6, d=2, lam=F(1), p=F(1, 2))
        assert est.leading_exponent == F(27, 16)

    def test_envelope_scale(self):
        est = ExpansionEstimate(n=6, d=2, lam=F(1), p=F(1))
        # alpha_tilde = 2, so the j-th envelope is 6 * 4^(j-1) * 4^-j
        assert est.envelope(1) == pytest.approx(6 / 4)
        assert est.envelope(2) == pytest.approx(6 * 4 / 16)
        with pytest.raises(ValueError):
            est.envelope(0)

    @pytest.mark.parametrize("lam,p,message", [
        (F(1), F(2), "p must lie in"), (F(1), F(-1, 2), "p must lie in"),
        (F(0), F(1, 2), "lambda must be positive"),
    ])
    def test_parameters_are_validated_as_model_params(self, lam, p,
                                                      message):
        # p = 2 once constructed and divided by zero in alpha_tilde
        with pytest.raises(ValueError, match=message):
            ExpansionEstimate(n=6, d=2, lam=lam, p=p)

    def test_envelope_ratios(self):
        est = ExpansionEstimate(n=6, d=2, lam=F(1), p=F(1),
                                terms=(F(-9, 32),))
        ratios = est.envelope_ratios()
        assert len(ratios) == 1
        assert ratios[0] == pytest.approx(float(F(9, 32)) / 1.5)
