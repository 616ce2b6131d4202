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
from fractions import Fraction
from typing import TYPE_CHECKING

from . import graphs
from .graphs import AuditViolation, BipartiteGraph, BudgetError, iter_bits
from .polymers import DEFAULT_RHO, Polymer, PolymerFamily
from .rationals import (float64_range, log_precision, log_rational,
                        require_positive_finite, to_mpf)

if TYPE_CHECKING:
    import mpmath

URSELL_VERTEX_CAP = 12
_FACTORIALS = [math.factorial(k) for k in range(URSELL_VERTEX_CAP + 1)]


def _ursell(nbr) -> Fraction:
    """Ursell function of the graph on vertices 0..k-1 with neighbour masks
    nbr, by the O(3^k) connected-part recursion: with f(S) = 1 iff S spans
    no edge, the signed sum over the connected spanning edge sets of G[S]
    is c(S) = f(S) - sum of c(T) f(S - T) over the proper subsets T of S
    holding min(S), and only sets holding vertex 0 are ever needed. For a
    connected G that sum is (-1)^(k-1) T_G(1, 0), and the Tutte evaluation
    T_G(1, 0) counts the acyclic orientations with one fixed source, so it
    is at least 1; a disconnected G has no connected spanning edge set. The
    value is therefore nonzero iff G is connected."""
    size = 1 << len(nbr)
    free = [1]
    for near in nbr:
        free += [0 if near & s else f for s, f in enumerate(free)]
    conn = [0] * size
    for s in range(1, size, 2):
        rest = sub = s ^ 1
        total = free[s]
        while sub:
            sub = (sub - 1) & rest
            if free[rest ^ sub]:
                total -= conn[sub | 1]
        conn[s] = total
    return Fraction(conn[-1], math.factorial(len(nbr)))


def ursell(k: int, edges) -> Fraction:
    """Ursell function of a simple graph on vertices 0..k-1: the alternating
    sum of (-1)^{|E'|} over spanning connected edge subsets, divided by k!.

    Exact; nonzero iff the graph is connected. Repeated edges count once.
    Refuses more than URSELL_VERTEX_CAP vertices (the recursion takes
    3^(k-1) steps).
    """
    if k < 1:
        raise ValueError(f"graph needs at least one vertex, got {k}")
    if k > URSELL_VERTEX_CAP:
        raise BudgetError(f"ursell capped at {URSELL_VERTEX_CAP} vertices, got {k}")
    nbr = [0] * k
    for u, v in edges:
        if not (0 <= u < k and 0 <= v < k) or u == v:
            raise ValueError(f"bad edge ({u}, {v}) for {k} vertices")
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    return _ursell(nbr)


class Cluster:
    """A multiset of polymers with connected incompatibility structure.

    entries pairs each distinct polymer of family with its multiplicity;
    size is the total vertex count (multiplicity-weighted); orderings counts
    the ordered tuples this multiset represents; ursell_value is the Ursell
    function of the expanded incompatibility graph.

    Immutable; two clusters are equal when all but their family agree.
    Written out rather than a generated data class, whose module import and
    class build cost every cold CLI run several milliseconds, and whose
    __init__ takes about 1.6 times as long, which a walk emitting tens of
    thousands of clusters pays.
    """

    __slots__ = ("entries", "size", "orderings", "ursell_value", "family")

    def __init__(self, entries: tuple[tuple[Polymer, int], ...], size: int,
                 orderings: int, ursell_value: Fraction,
                 family: PolymerFamily):
        _set_entries(self, entries)
        _set_size(self, size)
        _set_orderings(self, orderings)
        _set_ursell_value(self, ursell_value)
        _set_family(self, family)

    def __setattr__(self, name, value):
        raise AttributeError(f"Cluster is immutable; cannot set {name}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.size == other.size and self.orderings == other.orderings
                and self.ursell_value == other.ursell_value
                and self.entries == other.entries)

    def weight(self, g: BipartiteGraph, params) -> Fraction:
        """orderings * ursell * the product of the entries' polymer weights
        at params, as one unreduced integer pair from the parts of
        family.weighing_at(params), looked up in its reduced map: a Fraction
        is built only for a pair no cluster or polymer of the family gave at
        params before, so a singleton's weight is its polymer's entry in
        family.weights. A g other than family.graph raises ValueError."""
        if g is not self.family.graph and g != self.family.graph:
            raise ValueError("the cluster's polymers belong to another graph")
        parts, reduced = self.family.weighing_at(params)
        return reduced[_cluster_weight(self, parts)]


# the slots' own setters, which fill a Cluster past its __setattr__ without
# object.__setattr__'s lookup of the slot by name
(_set_entries, _set_size, _set_orderings, _set_ursell_value,
 _set_family) = [vars(Cluster)[name].__set__ for name in Cluster.__slots__]


def _cluster_weight(cluster: Cluster, parts) -> tuple[int, int]:
    """orderings * ursell * prod (num/den)^mult over the entries (poly,
    mult), with (num, den) = parts[poly.vertices] reduced once per polymer,
    as one unreduced integer numerator and denominator; the formula behind
    Cluster.weight and the L_k sums."""
    num = cluster.orderings * cluster.ursell_value.numerator
    den = cluster.ursell_value.denominator
    for poly, mult in cluster.entries:
        n, d = parts[poly.vertices]
        num *= n ** mult
        den *= d ** mult
    return num, den


def _clusters(family: PolymerFamily, k_max: int, enum_cap: int | None,
              emit) -> None:
    """Call emit(cluster) for every cluster of total size at most k_max over
    the family's polymers. Emission groups clusters by their support
    polymers in the family order. A multiset is a cluster iff its Ursell
    value is nonzero. Each (candidate, multiplicity) step is one visit of
    one multiset, cluster or not, cached or not; the walk raises
    BudgetError once it has visited more than enum_cap (default
    DEFAULT_ENUM_CAP), a check made before the Ursell cap.

    Each multiset carries down its expanded incompatibility graph (one
    neighbour mask per polymer copy), the product of its multiplicities'
    factorials, its entries and the mask `held` of its family indices. One
    map `blocks`, shared by the walk, gives each held index the bits of its
    copies on the current path (a node writes its child's block before
    descending), so the copies a candidate j meets, `link`, are the OR of
    the blocks over incompatible[j] & held. A child depends only on its
    node, link and multiplicity, so each node builds one graph, Ursell
    lookup and orderings count per (link, mult), shared by the siblings
    that meet the same copies; each distinct graph's Ursell value is
    computed once in the whole walk."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    cap = graphs.DEFAULT_ENUM_CAP if enum_cap is None else enum_cap
    polys = family.polymers
    incompatible = family.incompatible
    sizes = [p.size for p in polys]
    # fitting[r]: indices of the polymers with at most r vertices
    fitting = [[j for j, s in enumerate(sizes) if s <= r]
               for r in range(k_max + 1)]
    ursells: dict[tuple[int, ...], Fraction] = {}
    # the copy bits of each held index on the current path, keyed by 1 << i
    blocks: dict[int, int] = {}
    visited = 0

    def extend(start: int, held: int, entries: tuple, size: int,
               graph: tuple[int, ...], denom: int) -> None:
        nonlocal visited
        n = len(graph)
        children: dict[tuple[int, int], tuple] = {}
        candidates = fitting[k_max - size]
        for j in candidates[bisect_left(candidates, start):]:
            link = 0  # the copies already chosen that j meets
            meets = incompatible[j] & held
            while meets:
                low = meets & -meets
                link |= blocks[low]
                meets ^= low
            bit, poly = 1 << j, polys[j]
            mult, grown = 1, size + sizes[j]
            while grown <= k_max:
                visited += 1
                if visited > cap:
                    raise BudgetError(f"cluster walk exceeded {cap} "
                                      f"multisets (k_max={k_max})")
                child = children.get((link, mult))
                if child is None:
                    if n + mult > URSELL_VERTEX_CAP:
                        raise BudgetError(f"a cluster of {n + mult} polymer "
                                          f"copies exceeds the Ursell cap of "
                                          f"{URSELL_VERTEX_CAP}")
                    copies = ((1 << mult) - 1) << n
                    grew = tuple([near | copies if link >> b & 1 else near
                                  for b, near in enumerate(graph)] +
                                 [link | (copies ^ (1 << b))
                                  for b in range(n, n + mult)])
                    value = ursells.get(grew)
                    if value is None:
                        value = ursells[grew] = _ursell(grew)
                    factorials = denom * _FACTORIALS[mult]
                    # None marks a disconnected graph, tested without
                    # Fraction.__bool__ on every visit
                    child = children[(link, mult)] = (
                        grew, value or None,
                        _FACTORIALS[n + mult] // factorials, copies,
                        factorials)
                grew, value, orderings, copies, factorials = child
                if value is not None or grown < k_max:
                    grown_entries = entries + ((poly, mult),)
                    if value is not None:
                        emit(Cluster(grown_entries, grown, orderings,
                                     value, family))
                    if grown < k_max:
                        blocks[bit] = copies
                        extend(j + 1, held | bit, grown_entries, grown, grew,
                               factorials)
                mult += 1
                grown += sizes[j]

    try:
        extend(0, 0, (), 0, (), 1)
    finally:
        del extend  # a cycle through itself would hold emit until a full GC


def _terms_by_size(family: PolymerFamily, k_max: int,
                   enum_cap: int | None) -> dict[int, Fraction]:
    """The exact expansion terms L_1..L_{k_max}: per total size, the sum of
    orderings * ursell * product of the family's polymer weights. The
    clusters' unreduced numerators are added per (size, denominator), so
    a walk of thousands of clusters builds a Fraction per pair only (32
    pairs for T6,2 at k_max 4)."""
    numerators: dict[tuple[int, int], int] = {}
    parts = family.weight_parts

    def add(cluster: Cluster) -> None:
        num, den = _cluster_weight(cluster, parts)
        key = (cluster.size, den)
        numerators[key] = numerators.get(key, 0) + num

    _clusters(family, k_max, enum_cap, add)
    by_size = {k: Fraction(0) for k in range(1, k_max + 1)}
    for (size, den), num in numerators.items():
        by_size[size] += Fraction(num, den)
    return by_size


def enumerate_clusters(g: BipartiteGraph, side: str, params, rho=DEFAULT_RHO,
                       k_max: int = 2, enum_cap: int | None = None):
    """Every cluster of total size at most k_max on the side, as multisets.

    Emission groups clusters by their support polymers in the polymer
    enumeration order. The expanded incompatibility graph of every emitted
    cluster is connected; anything disconnected is silently skipped per the
    definition. enum_cap (default DEFAULT_ENUM_CAP) bounds both the polymer
    enumeration and the multisets the walk visits; past it, BudgetError.
    """
    family = PolymerFamily(g, side, params, rho, size_max=k_max,
                           enum_cap=enum_cap)
    clusters: list[Cluster] = []
    _clusters(family, k_max, enum_cap, clusters.append)
    return clusters


def l_k(g: BipartiteGraph, side: str, params, rho=DEFAULT_RHO, k: int = 1,
        enum_cap: int | None = None) -> Fraction:
    """The exact degree-k term of the cluster expansion of log Xi: the sum
    of orderings * ursell * product of polymer weights over all clusters of
    total size exactly k. enum_cap is as in enumerate_clusters."""
    family = PolymerFamily(g, side, params, rho, size_max=k,
                           enum_cap=enum_cap)
    return _terms_by_size(family, k, enum_cap)[k]


# -- Kotecky-Preiss condition -------------------------------------------------


class KPReport:
    """Outcome of the convergence condition: per-polymer left-hand sums and
    margins f(A) - LHS(A); holds iff every margin is nonnegative. Written
    out rather than a generated data class, for the import cost of cold
    CLI runs."""

    __slots__ = ("holds", "lhs", "margins")
    __hash__ = None  # mutable

    def __init__(self, holds: bool, lhs: list[float], margins: list[float]):
        self.holds = holds
        self.lhs = lhs
        self.margins = margins

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
    with float64_range("a polymer's |w| e^(f+g)"):
        boosted = [abs(float(w)) *
                   math.exp(float(f_values[i]) + float(g_values[i]))
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


def log_xi_truncation_report(g: BipartiteGraph, side: str, params,
                             rho=DEFAULT_RHO, k_max: int = 2,
                             f_of_size=None, g_of_size=None,
                             enum_cap: int | None = None) -> dict:
    """Compare the truncated cluster expansion against exact log Xi.

    Always reports log Xi (128-bit), the exact terms L_1..L_{k_max}, the
    running partial sums, and the residuals |log Xi - partial|. When size
    functions f and g are supplied, the convergence condition is evaluated
    on the full polymer family; if it holds (and g is non-decreasing with
    g(l)/l non-increasing over the reported sizes, which the tail bound
    derivation needs), the residual at each truncation depth k is asserted
    against the tail bound |side| * f(1) * exp(-g(k)). enum_cap bounds the
    polymer enumeration and the cluster walk as in enumerate_clusters.
    """
    family = PolymerFamily(g, side, params, rho, enum_cap=enum_cap)
    by_size = _terms_by_size(family, k_max, enum_cap)
    xi = family.xi()
    with log_precision() as mpmath:
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
    sizes = [p.size for p in family.polymers]
    kp = kp_check(family.weights, [f_of_size(s) for s in sizes],
                  [g_of_size(s) for s in sizes], family.incompatible)
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


class KPFunctions:
    """Size functions used to verify convergence on d-regular graphs:

        f(l) = l / d^(c5+1)
        g(l) = f(l) + g_tilde(l)

    with g_tilde piecewise in l: a quadratic-corrected linear regime up to
    sqrt(d), a linear regime up to d^c3, and a slow linear regime beyond.
    alpha_tilde is the weight-decay base (1+lambda)/(1+lambda(1-p)).
    Each constant must be positive and finite (ValueError otherwise).
    Written out rather than a generated data class, for the import cost of
    cold CLI runs.
    """

    __slots__ = ("d", "alpha_tilde", "c1", "c2", "c3", "c5")

    def __init__(self, d: int, alpha_tilde: float, c1: float, c2: float,
                 c3: float, c5: float):
        require_positive_finite(c1=c1, c2=c2, c3=c3, c5=c5)
        self.d = d
        self.alpha_tilde = alpha_tilde
        self.c1 = c1
        self.c2 = c2
        self.c3 = c3
        self.c5 = c5

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
                  k: int) -> mpmath.mpf:
    """The asymptotic bound shape for the expansion tail of depth k:
    n * d^((c5+7)k - c5 - 1) * alpha_tilde^(-kd + c1 k^2), at 128-bit
    precision, so a shape past the float64 range is a number, not an
    error; report-only."""
    with log_precision() as mpmath:
        return n * mpmath.mpf(d) ** ((c5 + 7) * k - c5 - 1) * \
            mpmath.mpf(alpha_tilde) ** (-k * d + c1 * k * k)


def kp_sum_audit(g: BipartiteGraph, side: str, params, c1, c2, c3, c5,
                 rho=DEFAULT_RHO, size_max: int = 3, tail_depth: int = 3,
                 enum_cap: int | None = None) -> dict:
    """Per-vertex audit of the convergence sums: for every v on the side,
    the sum over enumerated polymers containing v of omega(A) e^{f+g},
    with the KPFunctions of (g.d, alpha_tilde, c1, c2, c3, c5), against the
    target d^-(c5+3). A report with margins, never an assertion: at
    desk-scale degree the asymptotic claim has no obligation to hold. The
    expansion-tail bound shapes for k = 1..tail_depth are evaluated
    alongside. Raises ValueError for alpha_tilde past the float64 range,
    then for a constant outside (0, inf), then for a negative tail_depth.
    """
    with float64_range("alpha_tilde = (1+lambda)/(1+lambda(1-p))"):
        alpha_tilde = float(params.alpha_tilde)
    kpf = KPFunctions(g.d, alpha_tilde, c1, c2, c3, c5)
    if tail_depth < 0:
        raise ValueError(f"tail depth must be >= 0, got {tail_depth}")
    family = PolymerFamily(g, side, params, rho, size_max=size_max,
                           enum_cap=enum_cap)
    with float64_range("a term of the convergence-sum audit"):
        target = g.d ** -(c5 + 3)
        per_vertex: dict[int, float] = {}
        per_size: dict[int, float] = {}
        for poly, weight in zip(family.polymers, family.weights):
            s = poly.size
            term = float(weight) * math.exp(kpf.f(s) + kpf.g(s))
            per_size[s] = per_size.get(s, 0.0) + term
            for v in iter_bits(poly.vertices):
                per_vertex[v] = per_vertex.get(v, 0.0) + term
    # the shapes only report, so their range never decides the audit
    tail_shapes = [lk_tail_shape(g.n, g.d, alpha_tilde, c1, c5, k)
                   for k in range(1, tail_depth + 1)]
    worst = max(per_vertex.values()) if per_vertex else 0.0
    return {
        "target": target,
        "worst_vertex_sum": worst,
        "worst_ratio": worst / target if target else math.inf,
        "holds_at_desk_scale": worst <= target,
        "per_size_totals": per_size,
        "size_max": size_max,
        "polymer_count": len(family.polymers),
        "tail_shapes": tail_shapes,
    }
