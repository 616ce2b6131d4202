"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with -s (or read captured output on failure) to see the scoreboard.
Each test prints its verdict before asserting, so a red criterion still
reports alongside the green ones. Criterion 8 is expected red: the stated
convergence premise is arithmetically false at its parameters; the printed
note carries the analysis and the nearby parameter where it holds.
"""

import math
import time
from collections import Counter
from fractions import Fraction as F
from itertools import product

import mpmath
import pytest

from oracles import (brute_ursell, l2_hypercube, l2_kss_product,
                     l2_middle_layer)
from isingpoly.clusters import l_k, log_xi_truncation_report, ursell
from isingpoly.formulas import (
    kss_expected_histogram,
    l1_closed,
    l2_codegree,
    l2_regime_report,
    l2_torus,
    midlayer_expected_histogram,
    torus_expected_histogram,
)
from isingpoly.graphs import (
    build_cartesian_product,
    build_complete_bipartite,
    build_cycle,
    build_even_torus,
    build_hypercube,
    build_middle_layer,
    max_codegree,
    neighborhood,
)
from isingpoly.audit import PropertyConstants, check_product_iso, check_property_i
from isingpoly.model import (
    ModelParams,
    MuHatSampler,
    captured_on_side,
    count_independent_sets,
    exact_Z,
    ising_weight,
    mu_hat_star_table,
    mu_hat_table,
    mu_table,
    percolation_expectation_exact,
    percolation_mc,
    tv_distance,
    z_hat_sweep,
)
from isingpoly.polymers import (
    approximation_facts,
    enumerate_polymers,
    is_psi_approximation,
    polymer_weight,
    polymer_weight_literal,
    weight_bound_check,
    xi_brute,
)


def verdict(num: int, title: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num:2d}: {title}"
    if detail:
        line += f" ({detail})"
    print(line)


def test_criterion_01_percolation_identity():
    start = time.monotonic()
    graphs = [build_cycle(4), build_cycle(6), build_hypercube(3),
              build_complete_bipartite(3), build_middle_layer(2)]
    pairs = list(product([F(1), F(2, 3)], [F(1, 2), F(3, 4), F(1)]))
    failures = []
    for g in graphs:
        for lam, p in pairs:
            params = ModelParams(lam, p)
            lhs = percolation_expectation_exact(g, params)
            rhs = exact_Z(g, params)
            if lhs != rhs:
                failures.append((g.label, lam, p, lhs, rhs))
    elapsed = time.monotonic() - start
    ok = not failures
    verdict(1, "percolation expectation equals Z on 5 graphs x 6 params",
            ok, f"30 exact equalities, {elapsed:.2f}s")
    assert ok, failures
    assert elapsed < 30


def test_criterion_02_hardcore_counts():
    results = {}
    for d, expected in ((1, 3), (2, 7), (3, 35)):
        g = build_hypercube(d)
        backtrack = count_independent_sets(g)
        z_route = exact_Z(g, ModelParams(1, 1))
        results[d] = (backtrack, z_route, expected)
    ok = all(b == z == e for b, z, e in results.values())
    verdict(2, "independent-set counts 3/7/35 agree across two code paths",
            ok, ", ".join(f"Q{d}={b}" for d, (b, _, _) in results.items()))
    assert ok, results


def test_criterion_03_ursell_values():
    vertex = ursell(1, [])
    edge = ursell(2, [(0, 1)])
    path = ursell(3, [(0, 1), (1, 2)])
    triangle = ursell(3, [(0, 1), (1, 2), (0, 2)])
    checks = [
        vertex == F(1),
        edge == F(-1, 2),
        path == brute_ursell(3, [(0, 1), (1, 2)]) == F(1, 6),
        triangle == brute_ursell(3, [(0, 1), (1, 2), (0, 2)]) == F(1, 3),
    ]
    ok = all(checks)
    verdict(3, "Ursell values 1, -1/2, 1/6, 1/3 vs independent recursion",
            ok)
    assert ok, (vertex, edge, path, triangle)


def test_criterion_04_first_order_closed_form():
    start = time.monotonic()
    graphs = [build_cycle(6), build_hypercube(3), build_hypercube(4),
              build_even_torus(6, 2), build_middle_layer(3)]
    pairs = [(F(1), F(1)), (F(1), F(1, 2)), (F(2, 3), F(3, 4)),
             (F(1, 3), F(1, 5))]
    failures = []
    for g in graphs:
        for lam, p in pairs:
            formula = l1_closed(g.n, g.d, lam, p)
            oracle = l_k(g, "E", ModelParams(lam, p), k=1)
            if formula != oracle:
                failures.append((g.label, lam, p, formula, oracle))
    elapsed = time.monotonic() - start
    ok = not failures
    verdict(4, "first expansion term matches its closed form on 5 graphs",
            ok, f"20 exact equalities, {elapsed:.2f}s")
    assert ok, failures
    assert elapsed < 10


def test_criterion_05_second_order_closed_forms():
    start = time.monotonic()
    in_regime = []
    torus = build_even_torus(6, 2)
    mid3 = build_middle_layer(3)
    k22 = build_complete_bipartite(2)
    k22_sq = build_cartesian_product([k22, k22])
    for p in (F(1), F(1, 2)):
        params = ModelParams(1, p)
        # the one codegree formula, fed each family's side size, degree and
        # histogram, against the cluster sum and the hand-derived form
        mid_form = l2_codegree(10, 3, midlayer_expected_histogram(3), 1, p)
        kss_form = l2_codegree(8, 4, kss_expected_histogram(2, 2), 1, p)
        in_regime.append(l2_torus(6, 2, p) == l_k(torus, "E", params, k=2))
        in_regime.append(
            mid_form == l_k(mid3, "E", params, k=2) == l2_middle_layer(3, p))
        in_regime.append(
            kss_form == l_k(k22_sq, "E", params, k=2)
            == l2_kss_product(2, 2, p))
    in_regime.append(l2_torus(6, 2, 1) == F(135, 256))
    regimes_ok = (
        l2_regime_report(torus, "E", torus_expected_histogram(2))["regime_ok"]
        and l2_regime_report(mid3, "E",
                             midlayer_expected_histogram(3))["regime_ok"]
        and l2_regime_report(k22_sq, "E",
                             kss_expected_histogram(2, 2))["regime_ok"])

    # documented failures outside the regime: the formulas double-count
    # overlapping pair closures when a pair's closure swallows the side
    hard = ModelParams(1, 1)
    cyc = build_even_torus(6, 1)
    mid2 = build_middle_layer(2)
    out_of_regime = [
        l2_torus(6, 1, 1) == F(3, 32),
        l_k(cyc, "E", hard, k=2) == F(-9, 32),
        l2_codegree(3, 2, midlayer_expected_histogram(2), 1, 1)
        == l2_middle_layer(2, 1) == F(3, 32),
        l_k(mid2, "E", hard, k=2) == F(-9, 32),
        not l2_regime_report(cyc, "E",
                             torus_expected_histogram(1))["regime_ok"],
    ]
    elapsed = time.monotonic() - start
    ok = all(in_regime) and regimes_ok and all(out_of_regime)
    verdict(5, "second-order closed forms: exact in regime, documented "
               "values outside", ok, f"{elapsed:.2f}s")
    assert all(in_regime)
    assert regimes_ok
    assert all(out_of_regime)
    assert elapsed < 60


def test_criterion_06_hypercube_specialization():
    ps = [F(0), F(1, 7), F(1, 3), F(1, 2), F(1)]
    ok = all(l2_codegree(2 ** (t - 1), t, kss_expected_histogram(1, t), 1, p)
             == l2_hypercube(t, p) for t in (2, 3, 4) for p in ps)
    verdict(6, "the s=1 row of l2_codegree equals the a(p) hypercube form",
            ok, "t in {2,3,4}, 5 rational p values")
    assert ok


def test_criterion_07_zhat_identity():
    start = time.monotonic()
    failures = []
    for g in (build_cycle(6), build_hypercube(3)):
        for lam, p in ((F(1), F(1, 2)), (F(1, 2), F(1))):
            params = ModelParams(lam, p)
            z_hat = z_hat_sweep(g, params)
            xi_route = (1 + lam) ** (g.n // 2) * (
                xi_brute(g, "O", params) + xi_brute(g, "E", params))
            both = F(0)
            neither = F(0)
            for mask in range(1 << g.n):
                on_o = captured_on_side(g, mask, "O")
                on_e = captured_on_side(g, mask, "E")
                if on_o and on_e:
                    both += ising_weight(g, params, mask)
                elif not on_o and not on_e:
                    neither += ising_weight(g, params, mask)
            z = exact_Z(g, params)
            if z_hat != xi_route or z != z_hat - both + neither:
                failures.append((g.label, lam, p))
    elapsed = time.monotonic() - start
    ok = not failures
    verdict(7, "Z-hat equals the polymer route and the capture "
               "decomposition", ok, f"{elapsed:.2f}s")
    assert ok, failures
    assert elapsed < 10


def test_criterion_08_kp_condition_and_tail():
    g = build_cycle(6)
    params = ModelParams(F(1, 10), 1)

    def size_over_ten(size):
        return F(size, 10)

    report = log_xi_truncation_report(g, "E", params, k_max=3,
                                      f_of_size=size_over_ten,
                                      g_of_size=size_over_ten)
    slack = 2.0 ** -64
    tail_ok = all(
        float(term["residual_before"]) <= bound * (1 + slack) + slack
        for term, bound in zip(report["terms"], report["tail_bounds"]))
    kp_ok = report["kp"].holds
    ok = tail_ok and kp_ok
    verdict(8, "convergence premise and truncation tail at lambda=1/10",
            ok, f"tail bounds hold: {tail_ok}, premise holds: {kp_ok}")
    lhs = 3 * float(F(10, 121)) * math.exp(0.2)
    print(f"    note: each singleton polymer's incompatible-sum is "
          f"3*(10/121)*e^0.2 = {lhs:.4f} > f(1) = 0.1, so the premise is "
          f"arithmetically false on C6 at lambda = 1/10 even though every "
          f"tail inequality holds (k = 1..3). The identical check passes "
          f"at lambda = 1/40, where the sum is 3*(40/1681)*e^0.2 = "
          f"{3 * float(F(40, 1681)) * math.exp(0.2):.4f} <= 0.1. "
          f"Recorded red rather than weakened.")
    assert tail_ok, "tail inequalities must hold at every depth"
    assert kp_ok, (
        "the convergence premise is arithmetically false at lambda = 1/10: "
        f"worst polymer sum {lhs:.4f} > 0.1; it holds at lambda = 1/40")


def test_criterion_09_truncation_residuals_decrease():
    start = time.monotonic()
    report = log_xi_truncation_report(build_hypercube(3),
                                      "E", ModelParams(F(1, 20), 1), k_max=3)
    residuals = [float(t["residual"]) for t in report["terms"]]
    expected = [0.013401162596528156, 0.001523145336204397,
                0.00019581177370972912]
    pinned = all(r == pytest.approx(e, rel=1e-9)
                 for r, e in zip(residuals, expected))
    decreasing = residuals[0] > residuals[1] > residuals[2] > 0
    elapsed = time.monotonic() - start
    ok = pinned and decreasing
    verdict(9, "truncation residuals strictly decrease through depth 3",
            ok, f"{residuals[0]:.3e} > {residuals[1]:.3e} > "
                f"{residuals[2]:.3e}, {elapsed:.2f}s")
    assert ok, residuals
    assert elapsed < 10


def test_criterion_10_measures_and_sampler():
    start = time.monotonic()
    g = build_cycle(6)
    params = ModelParams(F(1, 2), 1)
    mu = mu_table(g, params)
    mu_hat = mu_hat_table(g, params)
    library_tv = tv_distance(mu, mu_hat)
    direct = F(0)
    for mask in range(1 << g.n):
        direct += abs(mu.probs[mask] - mu_hat.probs[mask])
    direct /= 2
    tv_ok = library_tv == direct

    draws = 100_000
    sampler = MuHatSampler(g, params)
    counts = Counter(sampler.draw(123, k) for k in range(draws))
    table = mu_hat_star_table(g, params)
    support = set(counts) | {k for k, v in table.probs.items() if v > 0}
    empirical_tv = sum(abs(F(counts.get(key, 0), draws)
                           - table.probs.get(key, F(0)))
                       for key in support) / 2
    sampler_ok = empirical_tv < F(1, 100)
    elapsed = time.monotonic() - start
    ok = tv_ok and sampler_ok
    verdict(10, "TV oracle equality and sampler within 0.01 of its target",
            ok, f"TV={float(library_tv):.4f}, empirical "
                f"TV={float(empirical_tv):.4f}, {elapsed:.1f}s")
    assert tv_ok
    assert sampler_ok, float(empirical_tv)
    assert elapsed < 30


def test_criterion_11_mc_estimator():
    start = time.monotonic()
    g = build_hypercube(3)
    params = ModelParams(1, F(1, 2))
    exact = percolation_expectation_exact(g, params)
    mean1, stderr1 = percolation_mc(g, params, 100_000, 2024)
    mean2, stderr2 = percolation_mc(g, params, 100_000, 2024)
    reproducible = (mean1, stderr1) == (mean2, stderr2)
    distance = abs(mean1 - float(exact))
    within = distance <= 4 * stderr1
    elapsed = time.monotonic() - start
    ok = reproducible and within
    verdict(11, "MC estimate within 4 stderr and bit-reproducible", ok,
            f"|{mean1:.4f} - {float(exact):.4f}| = "
            f"{distance / stderr1:.2f} stderr, {elapsed:.1f}s")
    assert reproducible
    assert within, (mean1, stderr1, float(exact))
    assert elapsed < 30


def test_criterion_12_isoperimetry():
    start = time.monotonic()
    greedy_ok = True
    for g in (build_hypercube(4), build_even_torus(6, 2)):
        consts = PropertyConstants(c1=max_codegree(g), c4=1, c5=0.5,
                                   c2=10, c3=3)
        report = check_property_i(g, consts, size_cap=5)
        greedy_ok = greedy_ok and report["conditions"]["Ia1"]["holds"]
    k22 = build_complete_bipartite(2)
    k2 = build_complete_bipartite(1)
    products = [build_cartesian_product([k22, k22]),
                build_cartesian_product([k2, k2, k2]),
                build_hypercube(4)]
    codegree_ok = all(check_product_iso(g, size_cap=3)["codegree_holds"]
                      for g in products)
    elapsed = time.monotonic() - start
    ok = greedy_ok and codegree_ok
    verdict(12, "expansion bound with codegree constant and product "
                "codegree cap", ok, f"{elapsed:.1f}s")
    assert greedy_ok
    assert codegree_ok
    assert elapsed < 60


def test_criterion_13_weight_dual_route():
    start = time.monotonic()
    g = build_hypercube(4)
    checked = 0
    failures = []
    for lam, p in ((F(1), F(1, 2)), (F(1, 3), F(1))):
        params = ModelParams(lam, p)
        for poly in enumerate_polymers(g, "E", size_max=3):
            w = polymer_weight(g, params, poly.vertices)
            literal = polymer_weight_literal(g, params, poly.vertices)
            if w != literal or not weight_bound_check(g, params,
                                                      poly.vertices):
                failures.append((poly.vertex_tuple(), lam, p))
            checked += 1
    elapsed = time.monotonic() - start
    ok = not failures
    verdict(13, "weight product form equals the literal sum with its "
                "bound", ok, f"{checked} polymer evaluations, {elapsed:.1f}s")
    assert ok, failures[:5]
    assert elapsed < 30


def test_criterion_14_psi_approximation():
    start = time.monotonic()
    failures = []
    checked = 0
    for g in (build_cycle(6), build_hypercube(3)):
        psis = sorted({1, max(1, g.d // 2)})
        for side in ("E", "O"):
            for poly in enumerate_polymers(g, side):
                f_mask = neighborhood(g, poly.vertices)
                for psi in psis:
                    good = is_psi_approximation(g, side, f_mask,
                                                poly.closure, poly.vertices,
                                                psi)
                    facts = approximation_facts(g, side, f_mask, poly.closure,
                                                poly.vertices, psi)
                    if not (good and facts["h_ok"] and facts["cross_ok"]):
                        failures.append((g.label, side, poly.vertex_tuple(),
                                         psi))
                    checked += 1
    elapsed = time.monotonic() - start
    ok = not failures
    verdict(14, "canonical pair is a psi-approximation with its size "
                "facts", ok, f"{checked} checks, {elapsed:.1f}s")
    assert ok, failures[:5]
    assert elapsed < 10
