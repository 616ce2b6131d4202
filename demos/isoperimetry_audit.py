"""Isoperimetry-style audits: neighborhood expansion checked by sweep.

The asymptotic analysis rests on expansion hypotheses for small 2-linked
sets. On desk-scale graphs those hypotheses can be checked outright over
every set up to a size cap: count each neighborhood exactly and compare
with the claimed float bound. Since the bounds are concave in |X| and the
2-linked components of a set have disjoint neighbourhoods, sweeping only the
2-linked sets decides the conditions for every set. The script runs the
per-family expansion conditions on Q4 and on Q8, where it prints how many
sets each verdict covers (checked) beside the 2-linked sets swept, the
codegree cap on declared product graphs, the split audit
for the psi-family partition function, whose hypotheses only engage at
large degree, and the weight of the configurations no side captures.
"""

from fractions import Fraction as F

from isingpoly import (
    ModelParams,
    PropertyConstants,
    PsiFamily,
    build_cartesian_product,
    build_complete_bipartite,
    build_cycle,
    build_hypercube,
    check_product_iso,
    check_property_i,
    max_codegree,
    nonpolymer_weight_report,
    z_psi_split_audit,
)


def main():
    g = build_hypercube(4)
    consts = PropertyConstants(c1=max_codegree(g), c4=1, c5=0.5, c2=10, c3=3)
    report = check_property_i(g, consts, size_cap=4)
    print(f"{g.label}: expansion conditions up to size 4")
    for name, cond in report["conditions"].items():
        worst = cond["worst"]
        print(f"  {name}: holds = {cond['holds']}  checked = "
              f"{cond['checked']}  tightest margin = "
              f"{worst['margin']:.4f} at size {worst['size']}")

    # Q8 has 11,017,632 subsets of at most four vertices per side, past
    # the default cap of 2^20 walked sets; the 2-linked sets through one
    # root vertex of each side decide them all up to a symmetry of the
    # hypercube
    q8 = build_hypercube(8)
    linked = check_property_i(q8, consts, size_cap=4)
    print(f"\n{q8.label}: expansion conditions up to size 4, rooted "
          f"(vertex-transitive: {q8.vertex_transitive})")
    for name, cond in linked["conditions"].items():
        worst = cond["worst"]
        print(f"  {name}: holds = {cond['holds']}  checked = "
              f"{cond['checked']}  swept = {linked['swept']}  tightest "
              f"margin = {worst['margin']:.4f} at size {worst['size']}")

    k22 = build_complete_bipartite(2)
    prod = build_cartesian_product([k22, k22])
    iso = check_product_iso(prod, size_cap=4)
    print(f"\n{prod.label}: declared product with s = {iso['s']}, "
          f"t = {iso['t']}")
    print(f"  max codegree {iso['max_codegree']} <= s: "
          f"{iso['codegree_holds']}")
    near_half = iso["conditions"]["near_half"]
    print(f"  near-half expansion holds: {near_half['holds']}  checked = "
          f"{near_half['checked']}")

    # the split audit's hypotheses need genuinely large degree; d = 1000
    # is the smallest round value used here that satisfies them at lambda=1
    family = PsiFamily(d=1000, subsets=[(0,), (1,), (2, 3), (4, 5, 6, 7)])
    params = ModelParams(lam=F(1), p=F(1))
    audit = z_psi_split_audit(family, ell=100, params=params, big_c=1)
    print(f"\npsi-family split audit at d = {family.d}:")
    print(f"  split threshold s = {audit['s']}")
    print(f"  hypotheses hold: {audit['hypotheses']['holds']}")
    print(f"  low-part bound ok: {audit['low']['ok']}, high-part bound "
          f"ok: {audit['high']['ok']}")
    print(f"  asserted: {audit['asserted']}  (slack {audit['slack']})")

    cyc = build_cycle(6)
    npr = nonpolymer_weight_report(cyc, ModelParams(F(1), F(1, 2)))
    print(f"\n{cyc.label}: non-polymer configurations carry "
          f"{npr['ratio']} of Z "
          f"(decay exponent {float(npr['exponent']):.4f})")


if __name__ == "__main__":
    main()
