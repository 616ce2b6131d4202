"""Closed-form expansion values for the example families, the leading-term
count estimates, and the truncation sharpness threshold.

The L2 formulas are exact rational functions of the percolation parameter p
at fugacity 1. Each was derived under a structural regime (every 2-linked
pair on a side is a valid polymer and the codegree case analysis matches);
the regime is machine-checkable on the concrete graph, and outside of it the
formula value is still defined but has no obligation to match the cluster
oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .graphs import BipartiteGraph, codegree, iter_bits
from .model import ModelParams
from .polymers import DEFAULT_RHO, closure_cutoff, is_polymer_union
from .rationals import LOG_PRECISION_BITS, to_mpf



class RegimeError(ValueError):
    """The requested parameters fall outside the structural regime the
    formula's derivation needs."""


def l1_closed(n: int, d: int, lam, p) -> Fraction:
    """First expansion term (n lam / 2)(1 - lam p / (1 + lam))^d, exact."""
    lam = Fraction(lam)
    p = Fraction(p)
    return Fraction(n, 2) * lam * (1 - lam * p / (1 + lam)) ** d


def l2_torus(m: int, t: int, p) -> Fraction:
    """Second expansion term for the even torus of side m in dimension t,
    at fugacity 1. Requires m even and at least 6 (at m=4 antipodal pairs
    break the codegree case analysis)."""
    if m % 2 or m < 6:
        raise RegimeError(f"torus formula needs even m >= 6, got {m}")
    if t < 1:
        raise ValueError(f"dimension must be >= 1, got {t}")
    p = Fraction(p)
    q2 = (2 - p) / 2
    r = (1 + (1 - p) ** 2) / 2
    bracket = -(2 * t * t + 1) * q2 ** 4 + 2 * t * q2 ** 2 * r \
        + 2 * t * (t - 1) * r ** 2
    return Fraction(m ** t, 4) * q2 ** (4 * t - 4) * bracket


def l2_middle_layer(d: int, p) -> Fraction:
    """Second expansion term for the middle layer graph of the (2d-1)-cube
    at fugacity 1."""
    if d < 2:
        raise RegimeError(f"middle layer formula needs d >= 2, got {d}")
    p = Fraction(p)
    q2 = (2 - p) / 2
    return Fraction(1, 8) * math.comb(2 * d - 1, d - 1) * \
        q2 ** (2 * (d - 1)) * ((d - 1) * d * p * p - (2 - p) ** 2)


def l2_kss_product(s: int, t: int, p) -> Fraction:
    """Second expansion term for the t-fold Cartesian power of K_{s,s} at
    fugacity 1, as the three-case sum over size-2 clusters."""
    if s < 1 or t < 1:
        raise ValueError(f"need s >= 1 and t >= 1, got s={s}, t={t}")
    p = Fraction(p)
    q2 = (2 - p) / 2
    r = (1 + (1 - p) ** 2) / 2
    half = Fraction((2 * s) ** t, 2)
    pairs2 = s * s * math.comb(t, 2)
    return Fraction(1, 2) * half * (
        pairs2 * q2 ** (2 * s * t - 4) * r ** 2
        + (s - 1) * t * q2 ** (2 * s * t - 2 * s) * r ** s
        - q2 ** (2 * s * t) * (1 + (s - 1) * t + pairs2))


def hypercube_a(p) -> Fraction:
    """The hypercube second-term coefficient a(p) =
    (1+(1-p)^2)^2/(2-p)^4 - 1/4."""
    p = Fraction(p)
    return (1 + (1 - p) ** 2) ** 2 / (2 - p) ** 4 - Fraction(1, 4)


def l2_hypercube(t: int, p) -> Fraction:
    """Second expansion term for the t-dimensional hypercube at fugacity 1:
    2^t ((2-p)/2)^{2t} (a(p) binom(t,2) - 1/4)."""
    if t < 1:
        raise ValueError(f"dimension must be >= 1, got {t}")
    p = Fraction(p)
    q2 = (2 - p) / 2
    return 2 ** t * q2 ** (2 * t) * \
        (hypercube_a(p) * math.comb(t, 2) - Fraction(1, 4))


def sharpness_threshold(k: int, ell) -> float:
    """Percolation threshold 2 - 2^(1 - ell/(k+1)) above which the first k
    expansion terms already give a sharp asymptotic count, for graphs with
    log n <= ell d."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    ell = float(ell)
    if ell < 0:
        raise ValueError(f"need ell >= 0, got {ell}")
    return 2 - 2 ** (1 - ell / (k + 1))


def independent_set_count_estimate(n: int, d: int, p):
    """Leading-order estimate 2 * 2^(n/2) * exp(n (2-p)^d / 2^(d+1)) for the
    expected number of independent sets after p-percolation, as a
    high-precision real. No error term is attached."""
    import mpmath

    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0,1], got {p}")
    arg = Fraction(n, 2 ** (d + 1)) * (2 - p) ** d
    with mpmath.workprec(LOG_PRECISION_BITS):
        return 2 * mpmath.power(2, mpmath.mpf(n) / 2) * \
            mpmath.exp(to_mpf(arg))


def galvin_estimate(d: int, lam):
    """Evaluate 2 (1+lam)^(2^(d-1)) exp((lam/2)(2/(1+lam))^d) with the
    correction factor set to 1, as a high-precision real."""
    import mpmath

    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError(f"fugacity must be positive, got {lam}")
    arg = lam / 2 * (2 / (1 + lam)) ** d
    with mpmath.workprec(LOG_PRECISION_BITS):
        return 2 * mpmath.power(to_mpf(1 + lam), 2 ** (d - 1)) * \
            mpmath.exp(to_mpf(arg))


class ExpansionEstimate:
    """Leading exponent plus optional exact higher terms, with the magnitude
    envelope n d^{2(j-1)} lam^j alpha_tilde^{-dj} for |L_j| (the implied
    constant is unspecified, so envelope comparisons are reports). lam and
    p are checked as ModelParams: lam > 0 and p in [0, 1], or ValueError.
    Written out rather than a generated data class, for the import cost of
    cold CLI runs."""

    __slots__ = ("n", "d", "lam", "p", "terms")

    def __init__(self, n: int, d: int, lam: Fraction, p: Fraction,
                 terms: tuple = ()):
        params = ModelParams(lam, p)
        self.n = n
        self.d = d
        self.lam = params.lam
        self.p = params.p
        self.terms = terms
        if self.leading_exponent < 0:
            raise ValueError("leading exponent must be nonnegative")

    @property
    def leading_exponent(self) -> Fraction:
        return l1_closed(self.n, self.d, self.lam, self.p)

    @property
    def alpha_tilde(self) -> Fraction:
        return ModelParams(self.lam, self.p).alpha_tilde

    def envelope(self, j: int) -> float:
        if j < 1:
            raise ValueError(f"need j >= 1, got {j}")
        return self.n * self.d ** (2 * (j - 1)) * float(self.lam) ** j * \
            float(self.alpha_tilde) ** (-self.d * j)

    def envelope_ratios(self) -> list[float]:
        """|L_j| over the envelope for the supplied terms, j starting at 2."""
        out = []
        for idx, term in enumerate(self.terms):
            j = idx + 2
            env = self.envelope(j)
            out.append(abs(float(term)) / env if env else math.inf)
        return out


def l2_regime_report(g: BipartiteGraph, side: str, expected_histogram,
                     rho=DEFAULT_RHO) -> dict:
    """Check the two structural hypotheses behind the L2 derivations on a
    concrete graph: every same-side vertex sees exactly the expected
    multiset of codegrees among its 2-linked partners, and every vertex and
    every 2-linked pair on the side is a valid polymer (on K_{1,1} no single
    vertex is, and the formulas do not apply). A singleton or a 2-linked
    pair is its own only 2-linked component, so is_polymer_union tests it."""
    limit = closure_cutoff(g, rho)
    side_mask = g.side_mask(side)
    expected = {k: v for k, v in expected_histogram.items() if v}
    histogram_ok = True
    singletons_ok = True
    pairs_ok = True
    for u in iter_bits(side_mask):
        if not is_polymer_union(g, 1 << u, side, limit):
            singletons_ok = False
        hist: dict[int, int] = {}
        partners = g.two_ball_mask(u) & side_mask
        for v in iter_bits(partners):
            c = codegree(g, u, v)
            hist[c] = hist.get(c, 0) + 1
            if v > u and not is_polymer_union(g, (1 << u) | (1 << v), side,
                                              limit):
                pairs_ok = False
        if hist != expected:
            histogram_ok = False
    return {
        "codegree_histogram_ok": histogram_ok,
        "singletons_are_polymers": singletons_ok,
        "pairs_are_polymers": pairs_ok,
        "regime_ok": histogram_ok and singletons_ok and pairs_ok,
        "expected_histogram": expected,
    }


def torus_expected_histogram(t: int) -> dict:
    return {1: 2 * t, 2: 2 * t * (t - 1)}


def midlayer_expected_histogram(d: int) -> dict:
    return {1: (d - 1) * d}


def kss_expected_histogram(s: int, t: int) -> dict:
    hist: dict[int, int] = {}
    for c, cnt in ((s, (s - 1) * t), (2, s * s * math.comb(t, 2))):
        if cnt:
            hist[c] = hist.get(c, 0) + cnt
    return hist
