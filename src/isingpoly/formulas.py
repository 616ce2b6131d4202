"""Closed-form expansion values, the leading-term count estimates, and the
truncation sharpness threshold.

The second term has one formula, l2_codegree, fed a side size, the degree
and a vertex's codegree histogram; each example family is its histogram
function below and its side size. It holds in a structural regime (every
singleton and 2-linked pair on the side is a valid polymer) that is
machine-checkable on the concrete graph; outside of it the value is still
defined but has no obligation to match the cluster oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .graphs import BipartiteGraph, codegree, iter_bits
from .model import ModelParams
from .polymers import DEFAULT_RHO, closure_cutoff, is_polymer_union
from .rationals import (MAX_DECIMAL_EXPONENT, TOO_MANY_DIGITS, log_precision,
                        to_mpf)


class RegimeError(ValueError):
    """The requested parameters fall outside the structural regime the
    formula's derivation needs."""


def l1_closed(n: int, d: int, lam, p) -> Fraction:
    """First expansion term (n lam / 2)(1 - lam p / (1 + lam))^d, exact in
    the regime singletons_are_polymers checks."""
    lam = Fraction(lam)
    p = Fraction(p)
    return Fraction(n, 2) * lam * (1 - lam * p / (1 + lam)) ** d


def _l2_parts(histogram, lam, p) -> tuple[Fraction, Fraction]:
    """q and the factor (lam^2/2) [...] of l2_codegree's value that does not
    hold the side size, with q^(2d) factored out of the bracket."""
    lam = Fraction(lam)
    p = Fraction(p)
    q = (1 + lam * (1 - p)) / (1 + lam)
    r = (1 + lam * (1 - p) ** 2) / (1 + lam)
    # q^(2d) factored out, so the one large power is taken once
    ratio = r / (q * q)
    bracket = sum(cnt * (ratio ** c - 1) for c, cnt in histogram.items()) - 1
    return q, lam * lam / 2 * bracket


def _refuse_long(d: int, q: Fraction, log10_numerator: float) -> None:
    """Refuse (ValueError) a value rest q^(2d) too long to write out, given
    log10_numerator >= log10 |numerator of rest|. In lowest terms q = u/v,
    so the value's denominator is at least v^(2d) / |numerator of rest|;
    the 1 covers the logarithms' rounding."""
    if 2 * d * math.log10(q.denominator) - log10_numerator > \
            MAX_DECIMAL_EXPONENT + 1:
        raise ValueError(TOO_MANY_DIGITS)


def l2_codegree(half, d: int, histogram, lam, p) -> Fraction:
    """Second expansion term on a side of `half` vertices of degree d, each
    with histogram[c] same-side 2-linked partners of codegree c:
    half (lam^2/2) [sum_c h(c) q^(2d-2c) r^c - q^(2d) (1 + sum_c h(c))],
    q = (1+lam(1-p))/(1+lam), r = (1+lam(1-p)^2)/(1+lam). The 2-linked pairs
    enter with Ursell value 1, the ordered pairs of singletons whose
    neighbourhoods meet with -1. Exact in the regime l2_regime_report
    checks. Refuses (ValueError) a value too long to write out before
    taking the power q^(2d)."""
    q, part = _l2_parts(histogram, lam, p)
    rest = half * part
    if rest:
        _refuse_long(d, q, math.log10(abs(rest.numerator)))
    return rest * q ** (2 * d)


def l2_torus(m: int, t: int, p) -> Fraction:
    """Second expansion term for the even torus of side m in dimension t,
    at fugacity 1. Requires m even and at least 6 (at m=4 antipodal pairs
    break the codegree case analysis)."""
    if m % 2 or m < 6:
        raise RegimeError(f"torus formula needs even m >= 6, got {m}")
    return l2_codegree(m ** t // 2, 2 * t, torus_expected_histogram(t), 1, p)


def _twos(x: int) -> int:
    """The number of factors of 2 in a nonzero int."""
    return (x & -x).bit_length() - 1


def l2_midlayer(d: int, p) -> Fraction:
    """Second expansion term for the middle two layers of the
    (2d-1)-cube, at fugacity 1. Values too long to write out are refused
    (ValueError) before the side size C = C(2d-1, d) is computed, which
    alone took 38 s at d = 10^6 on a 2-vCPU Xeon; each test refuses only
    values the output's int-to-string limit refuses:
    - C < 2^(2d-1) in place of C in l2_codegree's length test;
    - when q = u / 2^j, u odd (p = 1 gives q = 1/2), the value's
      denominator holds exactly 2dj + v2(part's denominator) - v2(part's
      numerator) - v2(C) factors of 2, Kummer's theorem giving
      v2(C) = s2(d) + s2(d-1) - s2(2d-1) from popcounts;
    - at p = 0, q = 1 and the value C part has a numerator of at least
      C |part's numerator| / part's denominator, where
      C = C(2d, d) / 2 >= 4^d / (4 sqrt d)."""
    histogram = midlayer_expected_histogram(d)
    q, part = _l2_parts(histogram, 1, p)
    if part:
        num, den, per_bit = part.numerator, part.denominator, math.log10(2)
        _refuse_long(d, q, (2 * d - 1) * per_bit + math.log10(abs(num)))
        if q == 1:
            digits = (2 * d - 2 - math.log2(d) / 2) * per_bit \
                + math.log10(abs(num)) - math.log10(den)
        elif q.denominator & (q.denominator - 1) == 0:
            twos_c = d.bit_count() + (d - 1).bit_count() \
                - (2 * d - 1).bit_count()
            digits = (2 * d * _twos(q.denominator) + _twos(den) - _twos(num)
                      - twos_c) * per_bit
        else:
            digits = 0
        if digits > MAX_DECIMAL_EXPONENT + 1:
            raise ValueError(TOO_MANY_DIGITS)
    return l2_codegree(math.comb(2 * d - 1, d), d, histogram, 1, p)


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
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0,1], got {p}")
    arg = Fraction(n, 2 ** (d + 1)) * (2 - p) ** d
    with log_precision() as mpmath:
        return 2 * mpmath.power(2, mpmath.mpf(n) / 2) * \
            mpmath.exp(to_mpf(arg))


def galvin_estimate(d: int, lam):
    """Evaluate 2 (1+lam)^(2^(d-1)) exp((lam/2)(2/(1+lam))^d) with the
    correction factor set to 1, as a high-precision real."""
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError(f"fugacity must be positive, got {lam}")
    arg = lam / 2 * (2 / (1 + lam)) ** d
    with log_precision() as mpmath:
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


def singletons_are_polymers(g: BipartiteGraph, side: str,
                            rho=DEFAULT_RHO) -> bool:
    """True iff every vertex of the side is a valid polymer on its own, the
    regime of l1_closed and part of l2_regime_report's. A singleton is its
    own only 2-linked component, so is_polymer_union tests it."""
    limit = closure_cutoff(g, rho)
    return all(is_polymer_union(g, 1 << u, side, limit)
               for u in iter_bits(g.side_mask(side)))


def l2_regime_report(g: BipartiteGraph, side: str, expected_histogram,
                     rho=DEFAULT_RHO) -> dict:
    """Check the two structural hypotheses behind the L2 derivations on a
    concrete graph: every same-side vertex sees exactly the expected
    multiset of codegrees among its 2-linked partners, and every vertex and
    every 2-linked pair on the side is a valid polymer (on K_{1,1} no single
    vertex is, and the formulas do not apply). A 2-linked pair is its own
    only 2-linked component, so is_polymer_union tests it."""
    limit = closure_cutoff(g, rho)
    side_mask = g.side_mask(side)
    expected = {k: v for k, v in expected_histogram.items() if v}
    histogram_ok = True
    singletons_ok = singletons_are_polymers(g, side, rho)
    pairs_ok = True
    for u in iter_bits(side_mask):
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


# Each family's codegree histogram. These hold the families' range guards,
# so a bad argument is refused before any closed-form arithmetic.
def torus_expected_histogram(t: int) -> dict:
    if t < 1:
        raise ValueError(f"dimension must be >= 1, got {t}")
    return {1: 2 * t, 2: 2 * t * (t - 1)}


def midlayer_expected_histogram(d: int) -> dict:
    if d < 2:
        raise RegimeError(f"middle layer formula needs d >= 2, got {d}")
    return {1: (d - 1) * d}


def kss_expected_histogram(s: int, t: int) -> dict:
    if s < 1 or t < 1:
        raise ValueError(f"need s >= 1 and t >= 1, got s={s}, t={t}")
    hist: dict[int, int] = {}
    for c, cnt in ((s, (s - 1) * t), (2, s * s * math.comb(t, 2))):
        if cnt:
            hist[c] = hist.get(c, 0) + cnt
    return hist
