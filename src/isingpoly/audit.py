"""Vertex-isoperimetry checks and numeric audits of the entropy and
container inequalities at desk scale.

Everything here is either an exact statement checked exactly (set expansion
bounds with every symbol instantiated) or an asymptotic statement reported
as a numeric ratio. Asymptotic hypotheses are never asserted; inequalities
are asserted only when their own hypotheses verify at the given parameters.
Log-scale comparisons run at 128-bit precision with a declared relative
slack of 2^-64.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

from . import graphs
from .graphs import (
    AuditViolation,
    BipartiteGraph,
    BudgetError,
    as_mask,
    bits,
    max_codegree,
    neighborhood,
    popcount,
    two_linked_sets,
)
from .model import ModelParams, capture_classes
from .polymers import DEFAULT_RHO, enumerate_g_ab, polymer_weight
from .rationals import (log_precision, log_rational, require_positive_finite,
                        to_mpf)

SLACK = 2.0 ** -64


class PropertyConstants:
    """Constants for the isoperimetry properties. The full set c1..c5 with
    c5 < 2 and c3 > c5 + 2 drives the five-constant property; the reduced
    codegree-based property needs only c1, c4, c5 with c5 < 2. Each given
    constant must be positive and finite. Written out rather than a
    generated data class, for the import cost of cold CLI runs."""

    __slots__ = ("c1", "c4", "c5", "c2", "c3")

    def __init__(self, c1: float, c4: float, c5: float,
                 c2: float | None = None, c3: float | None = None):
        given = {"c1": c1, "c4": c4, "c5": c5, "c2": c2, "c3": c3}
        require_positive_finite(**{name: value for name, value
                                   in given.items() if value is not None})
        if c5 >= 2:
            raise ValueError(f"c5 must be < 2, got {c5}")
        self.c1 = c1
        self.c4 = c4
        self.c5 = c5
        self.c2 = c2
        self.c3 = c3

    def require_full(self) -> None:
        if self.c2 is None or self.c3 is None:
            raise ValueError("this check needs c2 and c3")
        if self.c3 <= self.c5 + 2:
            raise ValueError(
                f"need c3 > c5 + 2, got c3={self.c3}, c5={self.c5}")


def _brute_neighborhood_size(g: BipartiteGraph, mask: int) -> int:
    # second route used to re-count each reported witness
    count = 0
    for v in range(g.n):
        if mask >> v & 1:
            continue
        if g.adj_mask[v] & mask:
            count += 1
    return count


def _iterate_sets(g: BipartiteGraph, size_cap: int):
    """(side, mask) for the 2-linked subsets of at most size_cap vertices of
    side E, then of side O, each side size-major and then lexicographic; on
    a vertex-transitive graph only those holding the side's lowest vertex,
    as an automorphism taking a set's vertex there keeps the sides of a
    connected bipartite graph and every |N(X)|. The hypotheses swept here
    bound |N(X)| below by a concave f(|X|) with f(0) = 0 over a size range
    closed downward, and the 2-linked components of X have disjoint
    neighbourhoods, so these sets decide the verdict over every subset of
    at most size_cap vertices. graphs.WALK_CEILING caps each side's walk."""
    for side in ("E", "O"):
        allowed = g.side_mask(side)
        starts = allowed & -allowed if g.vertex_transitive else allowed
        # the enumeration is lexicographic; a stable sort by size keeps that
        for mask in sorted(two_linked_sets(g, starts, allowed, size_cap),
                           key=popcount):
            yield side, mask


def _coverage(g: BipartiteGraph, conditions, size_cap: int) -> dict:
    """name -> how many subsets of at most size_cap vertices of either side
    the condition applies to: the sets its verdict covers. applies reads
    only the size, so binomials count them without a sweep."""
    if size_cap < 1:
        raise ValueError(f"size cap must be >= 1, got {size_cap}")
    sides = (len(g.side_E), len(g.side_O))
    return {name: sum(math.comb(m, k) for m in sides
                      for k in range(1, min(size_cap, m) + 1) if applies(k))
            for name, (applies, _) in conditions.items()}


def _run_conditions(g: BipartiteGraph, conditions, checked: dict, sets,
                    observe=None) -> tuple[dict, int]:
    """The one expansion sweep behind every verdict here. conditions: name
    -> (applies(size), bound(size)); checked: name -> the number of sets
    its verdict covers; sets: (side, mask) pairs. Each condition keeps the
    first set of least margin |N(X)| - bound as its witness, re-counted
    after the sweep by the second neighborhood route, so every reported
    neighborhood, and the violating set behind every failed verdict, is
    counted twice. Bounds may be floats or exact Fractions; margins compare
    exactly. observe, if given, sees (|X|, |N(X)|) of every set. Returns
    the verdicts and the number of sets swept. Refuses (ValueError) a
    condition that covers no set before sweeping any, since an empty sweep
    decides nothing."""
    for name, count in checked.items():
        if count == 0:
            raise ValueError(f"{name} covers no set; an empty sweep "
                             "decides nothing")
    # name -> (margin, side, mask, size, neighborhood, bound) of the witness
    worst = dict.fromkeys(conditions)
    swept = 0
    for side, mask in sets:
        swept += 1
        size = popcount(mask)
        nbr = popcount(neighborhood(g, mask))
        if observe is not None:
            observe(size, nbr)
        for name, (applies, bound) in conditions.items():
            if not applies(size):
                continue
            limit = bound(size)
            margin = nbr - limit
            if worst[name] is None or margin < worst[name][0]:
                worst[name] = (margin, side, mask, size, nbr, limit)
    out = {}
    for name, (margin, side, mask, size, nbr, limit) in worst.items():
        if nbr != _brute_neighborhood_size(g, mask):
            raise AuditViolation("neighborhood routes disagree")
        out[name] = {"holds": margin >= 0, "checked": checked[name],
                     "worst": {"set": bits(mask), "side": side, "size": size,
                               "neighborhood": nbr, "bound": float(limit),
                               "margin": float(margin)}}
    return out, swept


def _sweep(g: BipartiteGraph, conditions, size_cap: int,
           observe=None) -> tuple[dict, int]:
    """_run_conditions over the 2-linked sets, each condition's checked
    being the subsets of at most size_cap vertices it covers."""
    return _run_conditions(g, conditions, _coverage(g, conditions, size_cap),
                           _iterate_sets(g, size_cap), observe)


def check_property_i(g: BipartiteGraph, constants: PropertyConstants,
                     size_cap: int = 4) -> dict:
    """Expansion conditions Ia(1)-(3) on every subset of at most size_cap
    vertices of each side, decided on the 2-linked ones, plus the two size
    ratios of Ib (asymptotic, reported not asserted). swept counts the
    2-linked sets. Raises ValueError when a condition covers no set."""
    constants.require_full()
    c = constants
    d = g.d
    poly_range = d ** c.c3
    large_range = Fraction(3, 8) * g.n
    conditions = {
        "Ia1": (lambda s: True, lambda s: (d - c.c1 * s) * s),
        "Ia2": (lambda s: s <= poly_range, lambda s: d / c.c2 * s),
        "Ia3": (lambda s: s <= large_range,
                lambda s: (1 + c.c4 / d ** c.c5) * s),
    }
    verdicts, swept = _sweep(g, conditions, size_cap)
    report = {
        "size_cap": size_cap,
        "swept": swept,
        "conditions": verdicts,
        "Ib": {
            "n_over_d_power": g.n / d ** (c.c5 + 5),
            "log_n_over_d": math.log(g.n) / d,
        },
        "slack": "integer neighborhood counts against float64 bounds",
    }
    report["holds"] = all(v["holds"] for v in verdicts.values())
    return report


def check_property_ii(g: BipartiteGraph, constants: PropertyConstants,
                      size_cap: int = 4) -> dict:
    """Root-d expansion for polynomially small sets, near-half expansion,
    exact maximum codegree, and the n versus d^6 ratio, with the sets swept
    as in check_property_i. Raises ValueError when a condition covers no
    set."""
    c = constants
    d = g.d
    sqrt_d = math.sqrt(d)
    small_range = d ** 3 * math.log(g.n)
    large_range = Fraction(3, 8) * g.n
    conditions = {
        "IIa1": (lambda s: s <= small_range, lambda s: sqrt_d * s),
        "IIa2": (lambda s: s <= large_range,
                 lambda s: (1 + c.c4 / d ** c.c5) * s),
    }
    verdicts, swept = _sweep(g, conditions, size_cap)
    codeg = max_codegree(g)
    report = {
        "size_cap": size_cap,
        "swept": swept,
        "conditions": verdicts,
        "IIb": {"max_codegree": codeg, "bound": c.c1,
                "holds": codeg <= c.c1},
        "IIc": {"n_over_d6": g.n / d ** 6},
    }
    report["holds"] = all(v["holds"] for v in verdicts.values()) and \
        report["IIb"]["holds"]
    return report


def check_product_iso(g: BipartiteGraph, size_cap: int = 4,
                      s: int | None = None, t: int | None = None) -> dict:
    """Isoperimetry of a Cartesian product of t factors with at most s
    vertices each: codegree at most s (exact), the reported worst constant
    c in |N(X)| >= t|X|/c, and the near-half expansion factor
    1 + 2 sqrt(2)(1-q)/(s sqrt(t)) at q = 2|X|/n, over the sets swept as
    in check_property_i. s and t default to the largest and the number of
    the factor vertex counts the product builder recorded. Raises
    ValueError unless s, t >= 1 and size_cap >= 1."""
    if (s is None or t is None) and not g.factor_sizes:
        raise ValueError(
            "graph is not a declared product; pass s and t explicitly")
    s = max(g.factor_sizes) if s is None else s
    t = len(g.factor_sizes) if t is None else t
    if s < 1 or t < 1:
        raise ValueError(f"need s >= 1 and t >= 1, got s={s}, t={t}")

    def near_half(size):
        q = 2 * size / g.n
        return size * (1 + 2 * math.sqrt(2) * (1 - q) / (s * math.sqrt(t)))

    worst_c = 0.0

    def track(size, nbr):
        # worst_c rides along the verdicts' one pass over the swept sets
        nonlocal worst_c
        worst_c = max(worst_c, t * size / nbr)

    verdicts, swept = _sweep(
        g, {"near_half": (lambda size: True, near_half)}, size_cap, track)
    codeg = max_codegree(g)
    return {
        "s": s,
        "t": t,
        "max_codegree": codeg,
        "codegree_holds": codeg <= s,
        "worst_c": worst_c,
        "conditions": verdicts,
        "holds": codeg <= s and verdicts["near_half"]["holds"],
        "size_cap": size_cap,
        "swept": swept,
    }


# -- entropy-style partition sums over coordinate families --------------------


class PsiFamily:
    """A family of distinct subsets of the coordinate set {0..d-1}, held as
    a tuple of frozensets. Written out rather than a generated data class,
    for the import cost of cold CLI runs."""

    __slots__ = ("d", "subsets")

    def __init__(self, d: int, subsets):
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        normalized = tuple(frozenset(ps) for ps in subsets)
        for ps in normalized:
            for x in ps:
                if not 0 <= x < d:
                    raise ValueError(f"coordinate {x} outside range(0, {d})")
        if len(set(normalized)) != len(normalized):
            raise ValueError("family members must be distinct")
        self.d = d
        self.subsets = normalized

    @property
    def has_empty(self) -> bool:
        return frozenset() in self.subsets

    def sizes(self) -> list[int]:
        return sorted(len(ps) for ps in self.subsets)


def z_psi(family: PsiFamily, params: ModelParams) -> Fraction:
    """Exact sum of lambda^|psi| (1 + lambda (1-p)^|psi|)^d over the family.

    With lambda = a/b and 1 - p = c/e, the members of size k add
    n_k a^k (b e^k + a c^k)^d over b^(k+d) e^(kd), n_k of them counted
    once. The integer terms are summed over the denominator of the largest
    size K, b^(K+d) e^(Kd), and one Fraction is built at the end."""
    a, b = params.lam.numerator, params.lam.denominator
    surv = 1 - params.p
    c, e = surv.numerator, surv.denominator
    d = family.d
    counts = Counter(len(ps) for ps in family.subsets)
    top = max(counts, default=0)
    total = sum(n * a ** k * (b * e ** k + a * c ** k) ** d
                * b ** (top - k) * e ** ((top - k) * d)
                for k, n in counts.items())
    return Fraction(total, b ** (top + d) * e ** (top * d))


def ell_psi(family: PsiFamily) -> int:
    """Number of coordinates no member uses."""
    used = set()
    for ps in family.subsets:
        used |= ps
    return family.d - len(used)


def psi_split(family: PsiFamily, s) -> tuple[PsiFamily, PsiFamily]:
    """(members with 1 <= |psi| <= s, members with |psi| > s); the empty
    set belongs to neither part."""
    low = tuple(ps for ps in family.subsets if 1 <= len(ps) <= s)
    high = tuple(ps for ps in family.subsets if len(ps) > s)
    return PsiFamily(family.d, low), PsiFamily(family.d, high)


def _hypotheses_hold(d: int, params: ModelParams, big_c) -> dict:
    """The two instantiated inequalities the split bounds assume:
    lam/(1+lam) >= 64C log d/d + 4 log(lam d^(C+1))/(beta d) and
    alpha_bar >= 4C log d/d + 10 log(2+lam) log(1+lam d)/(beta d)."""
    lam = params.lam
    with log_precision() as mpmath:
        beta = params.beta()
        if beta <= 0:
            return {"holds": False, "first_margin": None,
                    "second_margin": None, "note": "beta must be positive"}
        log_d = mpmath.log(d)
        lam_f = to_mpf(lam)
        lhs1 = lam_f / (1 + lam_f)
        rhs1 = 64 * big_c * log_d / d + \
            4 * mpmath.log(lam_f * mpmath.mpf(d) ** (big_c + 1)) / (beta * d)
        lhs2 = params.alpha_bar()
        rhs2 = 4 * big_c * log_d / d + \
            10 * mpmath.log(2 + lam_f) * mpmath.log(1 + lam_f * d) / \
            (beta * d)
        return {
            "holds": bool(lhs1 >= rhs1 and lhs2 >= rhs2),
            "first_margin": float(lhs1 - rhs1),
            "second_margin": float(lhs2 - rhs2),
            "note": None,
        }


def _log_bound(name: str, z: Fraction, d: int, ell: Fraction,
               params: ModelParams, big_c, high: bool, asserted: bool) -> dict:
    """The one verdict of the psi-family bounds: log z <= d log(1+lam) -
    alpha_bar ell + d^-C (high) or - C log d (low), at 128 bits with the
    2^-64 relative SLACK. Raises AuditViolation naming the bound when it is
    asserted and fails."""
    with log_precision() as mpmath:
        log_rhs = d * log_rational(1 + params.lam) - \
            params.alpha_bar() * to_mpf(ell)
        log_rhs = log_rhs + mpmath.mpf(d) ** (-big_c) if high else \
            log_rhs - big_c * mpmath.log(d)
        log_lhs = log_rational(z)
        ok = bool(log_lhs <= log_rhs * (1 + SLACK) + SLACK)
    if asserted and not ok:
        raise AuditViolation(f"{name} bound violated with hypotheses holding")
    return {"log_lhs": log_lhs, "log_rhs": log_rhs, "ok": ok}


def z_psi_split_audit(family: PsiFamily, ell, params: ModelParams,
                      big_c) -> dict:
    """Split the family at s = ((d - ell)/2)(lam/(1+lam)) and compare both
    exact partial sums against their bounds
    (1+lam)^d exp(-alpha_bar ell - C log d) and
    (1+lam)^d exp(-alpha_bar ell + d^-C). Bounds are asserted only when the
    hypothesis inequalities verify at (d, lam, p, C)."""
    require_positive_finite(C=big_c)
    d = family.d
    ell = Fraction(ell)
    limit = min(Fraction(ell_psi(family)), Fraction(d, 2))
    if not 0 <= ell <= limit:
        raise ValueError(f"need 0 <= ell <= min(ell_psi, d/2) = {limit}, "
                         f"got {ell}")
    lam = params.lam
    s = (d - ell) * Fraction(1, 2) * lam / (1 + lam)
    low, high = psi_split(family, s)
    z_low = z_psi(low, params)
    z_high = z_psi(high, params)
    hyp = _hypotheses_hold(d, params, big_c)
    return {
        "s": s,
        "ell": ell,
        "low_sizes": low.sizes(),
        "high_sizes": high.sizes(),
        "split_identity_ok": (not family.has_empty and
                              z_low + z_high == z_psi(family, params)),
        "hypotheses": hyp,
        "low": _log_bound("low split", z_low, d, ell, params, big_c,
                          high=False, asserted=hyp["holds"]),
        "high": _log_bound("high split", z_high, d, ell, params, big_c,
                           high=True, asserted=hyp["holds"]),
        "slack": "2^-64 relative",
        "asserted": hyp["holds"],
    }


def z_psi_halfell_audit(family: PsiFamily, params: ModelParams,
                        big_c) -> dict:
    """Audit Z(family) <= (1+lam)^d exp(-(1/2) alpha_bar ell_psi + d^-C):
    the high split bound at ell = ell_psi / 2, over the whole family.
    Requires the empty set not be a member."""
    if family.has_empty:
        raise ValueError("the half-ell bound requires the empty set not "
                         "be in the family")
    require_positive_finite(C=big_c)
    total = z_psi(family, params)
    hyp = _hypotheses_hold(family.d, params, big_c)
    bound = _log_bound("half-ell", total, family.d,
                       Fraction(ell_psi(family), 2), params, big_c,
                       high=True, asserted=hyp["holds"])
    return {"ell_psi": ell_psi(family), "hypotheses": hyp, **bound,
            "slack": "2^-64 relative", "asserted": hyp["holds"]}


# -- container and nonpolymer sums --------------------------------------------


def container_hypothesis_check(g: BipartiteGraph, side: str, c2) -> dict:
    """The neighborhood-expansion hypothesis of the container bound: every
    X inside a single neighborhood N(y), y off the side, with |X| > d/2
    satisfies |N(X)| >= (d/c2)|X|, with the bound an exact Fraction.
    Exhaustive over all such X, counted once per y, and refused
    (BudgetError) past graphs.WALK_CEILING of them. Raises ValueError
    unless c2 is positive and finite."""
    require_positive_finite(c2=c2)
    cap = graphs.WALK_CEILING
    opposite = bits(g.side_mask(g.other_side(side)))
    sizes = range(g.d // 2 + 1, g.d + 1)
    total = len(opposite) * sum(math.comb(g.d, r) for r in sizes)
    if total > cap:
        raise BudgetError(
            f"neighborhood subset sweep needs {total} sets, cap is {cap}")
    ratio = Fraction(g.d) / Fraction(c2)
    sets = ((side, as_mask(combo)) for y in opposite for r in sizes
            for combo in combinations(g.adj[y], r))
    verdicts, _ = _run_conditions(
        g, {"expansion": (lambda size: True, lambda size: ratio * size)},
        {"expansion": total}, sets)
    return dict(verdicts["expansion"], c2=c2)


def container_sum_report(g: BipartiteGraph, side: str, a: int, b: int,
                         params: ModelParams) -> dict:
    """Exact sum of weights over the 2-linked sets with closure size a and
    neighborhood size b, with the implied container constant
    C* = -log(LHS/|D|) log d / ((b-a) alpha^2). No pass or fail: the
    container bound's constant is unspecified. Raises ValueError unless
    a >= 1, also when b < a leaves the class empty."""
    half = g.n // 2
    members = list(enumerate_g_ab(g, side, a, b))
    lhs = sum((polymer_weight(g, params, m) for m in members), Fraction(0))
    report = {
        "a": a,
        "b": b,
        "count": len(members),
        "lhs": lhs,
        "d_size": half,
        "empty": b < a,
        "c_star_implied": None,
    }
    alpha = params.alpha
    if b > a and alpha > 0:
        with log_precision() as mpmath:
            if lhs == 0:
                report["c_star_implied"] = mpmath.mpf("+inf")
            else:
                ratio = to_mpf(lhs) / half
                alpha_f = to_mpf(alpha)
                report["c_star_implied"] = -mpmath.log(ratio) * \
                    mpmath.log(g.d) / ((b - a) * alpha_f ** 2)
    return report


def nonpolymer_weight_report(g: BipartiteGraph, params: ModelParams,
                             rho=DEFAULT_RHO) -> dict:
    """Exact total weight of the configurations captured on neither side,
    its ratio to the full partition function, and the decay exponent
    -log(ratio) d / n."""
    total, w1, w2, count = capture_classes(g, params, rho)
    z = total + w1 + w2
    ratio = total / z
    with log_precision():
        exponent = -log_rational(ratio) * g.d / g.n
    return {"count": count, "total": total, "z": z, "ratio": ratio,
            "exponent": exponent}
