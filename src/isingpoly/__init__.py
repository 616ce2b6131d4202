"""Exact polymer-model and cluster-expansion machinery for hard-core and
antiferromagnetic Ising models on regular bipartite graphs.

Everything exact is a fractions.Fraction; floating point appears only in
log-space reports. Graphs are small by design: the package is a desk-scale
verification instrument, not a production sampler.
"""

from .graphs import (
    BipartiteGraph,
    BudgetError,
    GraphFormatError,
    as_mask,
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
    is_two_linked,
    max_codegree,
    neighborhood,
    two_linked_components,
)
from .rationals import format_rational, parse_rational
from .model import (
    ModelParams,
    MuHatSampler,
    capture_classes,
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
from .polymers import (
    DEFAULT_RHO,
    Polymer,
    PolymerFamily,
    compatible,
    enumerate_polymers,
    polymer_weight,
    polymer_weight_literal,
    weight_bound_check,
    xi_brute,
)
from .clusters import (
    Cluster,
    KPFunctions,
    KPReport,
    enumerate_clusters,
    kp_check,
    kp_sum_audit,
    l_k,
    log_xi_truncation_report,
    ursell,
)
from .formulas import (
    RegimeError,
    l1_closed,
    l2_codegree,
    l2_midlayer,
    l2_regime_report,
    l2_torus,
)
from .audit import (
    PropertyConstants,
    PsiFamily,
    check_product_iso,
    check_property_i,
    check_property_ii,
    container_sum_report,
    nonpolymer_weight_report,
    z_psi,
    z_psi_halfell_audit,
    z_psi_split_audit,
)

__version__ = "0.1.0"
