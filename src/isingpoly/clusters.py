"""Cluster expansion machinery: Ursell functions, cluster enumeration with
multiset multiplicities, exact truncated expansion terms, and the
Kotecky-Preiss convergence condition with its truncation tail bound.

A cluster is an ordered tuple of polymers whose incompatibility graph
(edges between incompatible entries, repeated entries always incompatible)
is connected. Tuples are stored as multisets with an orderings multiplier,
so every sum over ordered tuples stays exact without materializing them.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .graphs import (AuditViolation, BipartiteGraph, BudgetError,
                     edge_subset_nbr, iter_bits, reach)
from .polymers import (
    DEFAULT_RHO,
    Polymer,
    PolymerFamily,
    polymer_weight,
)
from .rationals import LOG_PRECISION_BITS, log_rational, to_mpf

URSELL_VERTEX_CAP = 8
DEFAULT_CLUSTER_SIZE_CAP = 4


def ursell(k: int, edges) -> Fraction:
    """Ursell function of a simple graph on vertices 0..k-1: the alternating
    sum of (-1)^{|E'|} over spanning connected edge subsets, divided by k!.

    Exact; a disconnected graph gives 0. Refuses more than 8 vertices (the
    sweep is exponential in the edge count).
    """
    if k < 1:
        raise ValueError(f"graph needs at least one vertex, got {k}")
    if k > URSELL_VERTEX_CAP:
        raise BudgetError(f"ursell capped at {URSELL_VERTEX_CAP} vertices, got {k}")
    edge_list = []
    seen = set()
    for u, v in edges:
        if not (0 <= u < k and 0 <= v < k) or u == v:
            raise ValueError(f"bad edge ({u}, {v}) for {k} vertices")
        key = (min(u, v), max(u, v))
        if key not in seen:
            seen.add(key)
            edge_list.append(key)
    m = len(edge_list)
    full = (1 << k) - 1
    total = 0
    for sub in range(1 << m):
        if reach(1, full, edge_subset_nbr(k, edge_list, sub)) == full:
            total += -1 if sub.bit_count() % 2 else 1
    return Fraction(total, math.factorial(k))


@dataclass(frozen=True)
class Cluster:
    """A multiset of polymers with connected incompatibility structure.

    entries pairs each distinct polymer with its multiplicity; size is the
    total vertex count (multiplicity-weighted); orderings counts the ordered
    tuples this multiset represents; ursell_value is the Ursell function of
    the expanded incompatibility graph.
    """

    entries: tuple[tuple[Polymer, int], ...]
    size: int
    orderings: int
    ursell_value: Fraction

    def weight(self, g: BipartiteGraph, params) -> Fraction:
        w = Fraction(self.orderings) * self.ursell_value
        for poly, mult in self.entries:
            w *= polymer_weight(g, params, poly.vertices) ** mult
        return w


def _expanded_ursell(family: PolymerFamily, chosen) -> Fraction:
    """Ursell function of the incompatibility graph on the expanded tuple:
    one vertex per polymer copy, edges between incompatible entries, copies
    of the same polymer always incompatible. `chosen` pairs family indices
    with multiplicities."""
    expanded = []
    for idx, mult in chosen:
        expanded.extend([idx] * mult)
    k = len(expanded)
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)
             if family.incompatible[expanded[i]] >> expanded[j] & 1]
    return ursell(k, edges)


def _check_cluster_depth(k_max: int, size_cap: int | None) -> None:
    cap = DEFAULT_CLUSTER_SIZE_CAP if size_cap is None else size_cap
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if k_max > cap:
        raise BudgetError(f"cluster size {k_max} exceeds cap {cap}")


def _clusters(family: PolymerFamily, k_max: int):
    """Yield (chosen, Cluster) for every cluster of total size at most k_max
    over the family's polymers, where chosen pairs family indices with
    multiplicities. Emission groups clusters by their support polymers in
    the family order."""
    polys = family.polymers
    sizes = [p.size for p in polys]
    # fitting[r]: indices of the polymers with at most r vertices
    fitting = [[j for j, s in enumerate(sizes) if s <= r]
               for r in range(k_max + 1)]

    def support_connected(chosen: list[tuple[int, int]]) -> bool:
        # copies of one polymer form a clique, so connectivity reduces to
        # the support graph on distinct polymers
        t = len(chosen)
        if t == 1:
            return True
        nbr = [sum(1 << b for b, (j, _) in enumerate(chosen)
                   if family.incompatible[i] >> j & 1)
               for i, _ in chosen]
        return reach(1, (1 << t) - 1, nbr) == (1 << t) - 1

    def extend(start: int, chosen: list[tuple[int, int]], size: int):
        if chosen and support_connected(chosen):
            copies = sum(m for _, m in chosen)
            orderings = math.factorial(copies)
            for _, m in chosen:
                orderings //= math.factorial(m)
            yield chosen, Cluster(
                entries=tuple((polys[i], m) for i, m in chosen), size=size,
                orderings=orderings,
                ursell_value=_expanded_ursell(family, chosen))
        candidates = fitting[k_max - size]
        for j in candidates[bisect_left(candidates, start):]:
            mult = 1
            while size + mult * sizes[j] <= k_max:
                yield from extend(j + 1, chosen + [(j, mult)],
                                  size + mult * sizes[j])
                mult += 1

    return extend(0, [], 0)


def _terms_by_size(family: PolymerFamily, k_max: int) -> dict[int, Fraction]:
    """The exact expansion terms L_1..L_{k_max}: per total size, the sum of
    orderings * ursell * product of the family's polymer weights."""
    by_size = {k: Fraction(0) for k in range(1, k_max + 1)}
    for chosen, cluster in _clusters(family, k_max):
        w = cluster.orderings * cluster.ursell_value
        for i, mult in chosen:
            w *= family.weights[i] ** mult
        by_size[cluster.size] += w
    return by_size


def enumerate_clusters(g: BipartiteGraph, side: str, params, rho=DEFAULT_RHO,
                       k_max: int = 2, size_cap: int | None = None):
    """Every cluster of total size at most k_max on the side, as multisets.

    Emission groups clusters by their support polymers in the polymer
    enumeration order. The expanded incompatibility graph of every emitted
    cluster is connected; anything disconnected is silently skipped per the
    definition.
    """
    _check_cluster_depth(k_max, size_cap)
    family = PolymerFamily(g, side, params, rho, size_max=k_max)
    return [cluster for _, cluster in _clusters(family, k_max)]


def l_k(g: BipartiteGraph, side: str, params, rho=DEFAULT_RHO, k: int = 1,
        size_cap: int | None = None) -> Fraction:
    """The exact degree-k term of the cluster expansion of log Xi: the sum
    of orderings * ursell * product of polymer weights over all clusters of
    total size exactly k."""
    _check_cluster_depth(k, size_cap)
    family = PolymerFamily(g, side, params, rho, size_max=k)
    return _terms_by_size(family, k)[k]


# -- Kotecky-Preiss condition -------------------------------------------------


@dataclass
class KPReport:
    """Outcome of the convergence condition: per-polymer left-hand sums and
    margins f(A) - LHS(A); holds iff every margin is nonnegative."""

    holds: bool
    lhs: list[float]
    margins: list[float]

    @property
    def worst_margin(self) -> float:
        return min(self.margins) if self.margins else math.inf


def kp_check(weights, f_values, g_values, incompatible) -> KPReport:
    """Check, for every polymer A in a finite abstract family, that

        sum over A' incompatible with A of |w(A')| e^{f(A') + g(A')} <= f(A).

    The relation is anti-reflexive: the self term always participates.
    `incompatible[i]` is the bitmask of the indices incompatible with i; its
    own bit i is ignored. f and g must be nonnegative.
    """
    k = len(weights)
    if len(f_values) != k or len(g_values) != k or len(incompatible) != k:
        raise ValueError("weights, f, g and incompatible must have equal "
                         "length")
    for name, vals in (("f", f_values), ("g", g_values)):
        for x in vals:
            if x < 0:
                raise ValueError(f"{name} must be nonnegative, got {x}")
    boosted = [abs(float(w)) * math.exp(float(f_values[i]) + float(g_values[i]))
               for i, w in enumerate(weights)]
    lhs = []
    margins = []
    for i in range(k):
        s = boosted[i]
        for j in iter_bits(incompatible[i] & ~(1 << i)):
            s += boosted[j]
        lhs.append(s)
        margins.append(float(f_values[i]) - s)
    return KPReport(holds=all(m >= 0 for m in margins), lhs=lhs, margins=margins)


def _kp_check_family(family: PolymerFamily, f_of_size, g_of_size) -> KPReport:
    sizes = [p.size for p in family.polymers]
    return kp_check(family.weights, [f_of_size(s) for s in sizes],
                    [g_of_size(s) for s in sizes], family.incompatible)


def log_xi_truncation_report(g: BipartiteGraph, side: str, params,
                             rho=DEFAULT_RHO, k_max: int = 2,
                             f_of_size=None, g_of_size=None,
                             size_cap: int | None = None) -> dict:
    """Compare the truncated cluster expansion against exact log Xi.

    Always reports log Xi (128-bit), the exact terms L_1..L_{k_max}, the
    running partial sums, and the residuals |log Xi - partial|. When size
    functions f and g are supplied, the convergence condition is evaluated
    on the full polymer family; if it holds (and g is non-decreasing with
    g(l)/l non-increasing over the reported sizes, which the tail bound
    derivation needs), the residual at each truncation depth k is asserted
    against the tail bound |side| * f(1) * exp(-g(k)).
    """
    _check_cluster_depth(k_max, size_cap)
    family = PolymerFamily(g, side, params, rho)
    xi = family.xi()
    by_size = _terms_by_size(family, k_max)
    with mpmath.workprec(LOG_PRECISION_BITS):
        log_xi = log_rational(xi)
        terms = []
        partial = mpmath.mpf(0)
        for k in range(1, k_max + 1):
            lk = by_size[k]
            # the tail bound at depth k covers |log Xi - L_{<k}|
            residual_before = abs(log_xi - partial)
            partial += to_mpf(lk)
            terms.append({
                "k": k,
                "L_k": lk,
                "partial": partial,
                "residual_before": residual_before,
                "residual": abs(log_xi - partial),
            })
    report = {"xi": xi, "log_xi": log_xi, "terms": terms, "kp": None,
              "tail_bounds": None}
    if f_of_size is None or g_of_size is None:
        return report
    kp = _kp_check_family(family, f_of_size, g_of_size)
    half = g.n // 2
    bounds = [half * float(f_of_size(1)) * math.exp(-float(g_of_size(k)))
              for k in range(1, k_max + 1)]
    report["kp"] = kp
    report["tail_bounds"] = bounds
    gs = [float(g_of_size(k)) for k in range(1, k_max + 2)]
    eps = 1e-12
    monotone = all(gs[i] <= gs[i + 1] + eps for i in range(len(gs) - 1))
    ratio_ok = all(gs[i] / (i + 1) >= gs[i + 1] / (i + 2) - eps
                   for i in range(len(gs) - 1))
    report["tail_shape_ok"] = monotone and ratio_ok
    if kp.holds and monotone and ratio_ok:
        for k, term in enumerate(terms, start=1):
            if float(term["residual_before"]) > bounds[k - 1] + 1e-12:
                raise AuditViolation(f"tail bound violated at k={k}")
    return report


# -- the graph-native size functions ------------------------------------------


@dataclass(frozen=True)
class KPFunctions:
    """Size functions used to verify convergence on d-regular graphs:

        f(l) = l / d^(c5+1)
        g(l) = f(l) + g_tilde(l)

    with g_tilde piecewise in l: a quadratic-corrected linear regime up to
    sqrt(d), a linear regime up to d^c3, and a slow linear regime beyond.
    alpha_tilde is the weight-decay base (1+lambda)/(1+lambda(1-p)).
    """

    d: int
    alpha_tilde: float
    c1: float
    c2: float
    c3: float
    c4: float
    c5: float

    def f(self, ell: int) -> float:
        return ell / self.d ** (self.c5 + 1)

    def g_tilde(self, ell: int) -> float:
        log_at = math.log(self.alpha_tilde)
        log_d = math.log(self.d)
        if ell <= math.sqrt(self.d):
            return (self.d * ell - self.c1 * ell ** 2) * log_at - \
                (self.c5 + 7) * ell * log_d
        if ell <= self.d ** self.c3:
            return self.d * ell / (2 * self.c2) * log_at
        return ell / self.d ** (self.c5 + 1)

    def g(self, ell: int) -> float:
        return self.f(ell) + self.g_tilde(ell)


def lk_tail_shape(n: int, d: int, alpha_tilde: float, c1: float, c5: float,
                  k: int) -> float:
    """The asymptotic bound shape for the expansion tail of depth k:
    n * d^((c5+7)k - c5 - 1) * alpha_tilde^(-kd + c1 k^2)."""
    return n * d ** ((c5 + 7) * k - c5 - 1) * \
        alpha_tilde ** (-k * d + c1 * k * k)


def kp_sum_audit(g: BipartiteGraph, side: str, params, kpf: KPFunctions,
                 rho=DEFAULT_RHO, size_max: int = 3,
                 tail_depth: int = 3) -> dict:
    """Per-vertex audit of the convergence sums: for every v on the side,
    the sum over enumerated polymers containing v of omega(A) e^{f+g},
    against the target d^-(c5+3). A report with margins, never an
    assertion: at desk-scale degree the asymptotic claim has no obligation
    to hold. The expansion-tail bound shapes are evaluated alongside.
    """
    family = PolymerFamily(g, side, params, rho, size_max=size_max)
    target = g.d ** -(kpf.c5 + 3)
    per_vertex: dict[int, float] = {}
    per_size: dict[int, float] = {}
    for poly, weight in zip(family.polymers, family.weights):
        s = poly.size
        term = float(weight) * math.exp(kpf.f(s) + kpf.g(s))
        per_size[s] = per_size.get(s, 0.0) + term
        for v in iter_bits(poly.vertices):
            per_vertex[v] = per_vertex.get(v, 0.0) + term
    worst = max(per_vertex.values()) if per_vertex else 0.0
    return {
        "target": target,
        "worst_vertex_sum": worst,
        "worst_ratio": worst / target if target else math.inf,
        "holds_at_desk_scale": worst <= target,
        "per_size_totals": per_size,
        "size_max": size_max,
        "polymer_count": len(family.polymers),
        "tail_shapes": [lk_tail_shape(g.n, g.d, kpf.alpha_tilde, kpf.c1,
                                      kpf.c5, k)
                        for k in range(1, tail_depth + 1)],
    }
