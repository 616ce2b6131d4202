"""Closed-form expansion terms checked against the enumerating oracle.

The depth-1 term has a closed form on every d-regular bipartite graph. The
depth-2 term has one formula, l2_codegree, fed a side size, the degree and
a vertex's codegree histogram; each example family (even torus, middle
layer, product graphs) supplies its own. It is valid only inside a
structural regime; the regime report verifies codegree structure and the
pair-closure pattern before the formula is trusted. Outside the regime the
formula silently disagrees with the truth, which is the point of checking.
"""

from fractions import Fraction as F

from isingpoly import (
    ModelParams,
    build_even_torus,
    build_middle_layer,
    l1_closed,
    l2_codegree,
    l2_regime_report,
    l2_torus,
    l_k,
)
from isingpoly.formulas import (midlayer_expected_histogram,
                                torus_expected_histogram)


def main():
    print("depth-1 closed form (any d-regular bipartite graph):")
    for g, lam, p in ((build_even_torus(6, 2), F(1), F(1, 2)),
                      (build_middle_layer(3), F(2, 3), F(3, 4))):
        formula = l1_closed(g.n, g.d, lam, p)
        oracle = l_k(g, "E", ModelParams(lam, p), k=1)
        print(f"  {g.label}  lambda={lam} p={p}:  {formula}  "
              f"(oracle agrees: {formula == oracle})")

    print("\ndepth-2 closed form on the even torus, inside its regime:")
    torus = build_even_torus(6, 2)
    report = l2_regime_report(torus, "E", torus_expected_histogram(2))
    for p in (F(1), F(1, 2)):
        formula = l2_torus(6, 2, p)
        oracle = l_k(torus, "E", ModelParams(1, p), k=2)
        print(f"  m=6 t=2 p={p}:  {formula}  (oracle agrees: "
              f"{formula == oracle})")
    print(f"  regime report: regime_ok = {report['regime_ok']}")

    print("\nthe same formula outside its regime (t=1, the formula's "
          "pair-closure count is wrong):")
    cyc = build_even_torus(6, 1)
    formula = l2_torus(6, 1, F(1))
    oracle = l_k(cyc, "E", ModelParams(1, 1), k=2)
    bad_regime = l2_regime_report(cyc, "E", torus_expected_histogram(1))
    print(f"  m=6 t=1 p=1:  formula {formula}  oracle {oracle}  "
          f"(regime_ok = {bad_regime['regime_ok']})")

    print("\nmiddle layer, d=3 (10 vertices a side, degree 3, six "
          "partners at codegree 1):")
    mid = build_middle_layer(3)
    histogram = midlayer_expected_histogram(3)
    for lam, p in ((F(1), F(1)), (F(1), F(1, 2)), (F(2, 3), F(1, 3))):
        formula = l2_codegree(10, 3, histogram, lam, p)
        oracle = l_k(mid, "E", ModelParams(lam, p), k=2)
        print(f"  lambda={lam} p={p}:  {formula}  (oracle agrees: "
              f"{formula == oracle})")

if __name__ == "__main__":
    main()
