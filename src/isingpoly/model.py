"""Exact antiferromagnetic Ising / hard-core model computations.

The model on a graph G assigns every vertex subset I the weight
lambda^|I| * (1-p)^{E(I)}, where E(I) counts edges inside I and
p = 1 - e^{-beta} in (0,1] encodes the inverse temperature; p = 1 is the
hard-core model (subsets with an internal edge weigh zero) and p = 0
removes the interaction entirely. Parameterizing by p keeps every weight,
partition function, and probability an exact Fraction.

This module owns the partition function, the percolation identity routes
(exact edge-subset sweep and seeded Monte Carlo), the measures mu and
mu-hat with their total-variation distance, the capture test behind the
polymer approximation, and the exact sampler for the decorated polymer
measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .graphs import (
    BipartiteGraph,
    BudgetError,
    DEFAULT_EDGE_SWEEP_CAP,
    DEFAULT_SWEEP_CAP,
    as_mask,
    closure,
    edge_subset_nbr,
    independent_set_table,
    iter_bits,
    popcount,
    two_linked_components,
)
from .polymers import DEFAULT_RHO, PolymerFamily, closure_cutoff
from .rationals import LOG_PRECISION_BITS, log_rational

# Monte-Carlo draws are consumed in fixed blocks of this many samples; the
# block layout is part of the reproducibility contract.
MC_CHUNK = 4096


@dataclass(frozen=True)
class ModelParams:
    """Fugacity lambda > 0 and percolation probability p in [0, 1].

    p plays the role of 1 - e^{-beta}: p = 1 is the hard-core model,
    p = 0 turns every subset weight into lambda^|I|.
    """

    lam: Fraction
    p: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lam", Fraction(self.lam))
        object.__setattr__(self, "p", Fraction(self.p))
        if self.lam <= 0:
            raise ValueError(f"lambda must be positive, got {self.lam}")
        if not 0 <= self.p <= 1:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")

    @property
    def alpha(self) -> Fraction:
        """lambda * p, the effective interaction strength."""
        return self.lam * self.p

    @property
    def alpha_tilde(self) -> Fraction:
        """(1 + lambda) / (1 + lambda(1-p)); always at most 1 + lambda."""
        return (1 + self.lam) / (1 + self.lam * (1 - self.p))

    @property
    def q(self) -> Fraction:
        """lambda / (1 + lambda), the free-vertex occupation probability."""
        return self.lam / (1 + self.lam)

    def alpha_bar(self) -> mpmath.mpf:
        """log(alpha_tilde) at 128-bit precision; report-only."""
        with mpmath.workprec(LOG_PRECISION_BITS):
            return log_rational(self.alpha_tilde)

    def beta(self) -> mpmath.mpf:
        """-log(1-p) at 128-bit precision; +inf for the hard-core model."""
        if self.p == 1:
            return mpmath.inf
        with mpmath.workprec(LOG_PRECISION_BITS):
            return -log_rational(1 - self.p)


def _check_sweep(n: int, cap: int | None) -> None:
    limit = DEFAULT_SWEEP_CAP if cap is None else cap
    if n > limit:
        raise BudgetError(f"subset sweep over {n} vertices exceeds cap {limit}")


def internal_edge_count(g: BipartiteGraph, i_mask: int) -> int:
    """Number of edges of G with both endpoints in the set."""
    total = 0
    for v in iter_bits(i_mask):
        total += popcount(g.adj_mask[v] & i_mask)
    return total // 2


def ising_weight(g: BipartiteGraph, params: ModelParams, i) -> Fraction:
    """lambda^|I| * (1-p)^{E(I)}; zero when p = 1 and I has an internal edge."""
    i = as_mask(i)
    inside = internal_edge_count(g, i)
    surv = 1 - params.p
    w = params.lam ** popcount(i)
    if inside:
        if surv == 0:
            return Fraction(0)
        w *= surv ** inside
    return w


def _frontier_placement(g: BipartiteGraph):
    """Place the vertices one by one for exact_Z's boundary DP, yielding
    (v, back, frontier) per step: the vertex, how many of its neighbours
    were placed before it, and the mask of frontier vertices (placed
    vertices with an unplaced neighbour) once it is placed. The order is
    greedy: among the unplaced neighbours of placed vertices, or the lowest
    unplaced vertex when there are none, place the one that leaves the
    fewest frontier vertices; ties go to the lowest index."""
    unplaced_nbrs = [len(nbrs) for nbrs in g.adj]
    placed = [False] * g.n
    frontier = 0
    candidates: set[int] = set()
    lowest = 0

    def growth(u):
        # the frontier's change if u is placed next, then u for ties
        closed = sum(placed[w] and unplaced_nbrs[w] == 1 for w in g.adj[u])
        return (unplaced_nbrs[u] > 0) - closed, u

    for _ in range(g.n):
        if candidates:
            v = min(candidates, key=growth)
            candidates.discard(v)
        else:
            while placed[lowest]:
                lowest += 1
            v = lowest
        placed[v] = True
        for w in g.adj[v]:
            unplaced_nbrs[w] -= 1
            if not placed[w]:
                candidates.add(w)
            elif unplaced_nbrs[w] == 0:
                frontier &= ~(1 << w)
        if unplaced_nbrs[v]:
            frontier |= 1 << v
        yield v, len(g.adj[v]) - unplaced_nbrs[v], frontier


def exact_Z(g: BipartiteGraph, params: ModelParams,
            sweep_cap: int | None = None) -> Fraction:
    """The partition function: the exact sum of ising_weight over all 2^n
    subsets, computed by a boundary dynamic program whose states are keyed
    by the chosen frontier vertices (placed vertices with an unplaced
    neighbour), so the sweep stays feasible at the budget cap.

    The DP holds integers. With lambda = a/b and 1-p = c/e, a vertex with
    `back` placed neighbours, k of them chosen, multiplies its state by
    b*e^back when left out and by a*c^k*e^(back-k) when taken; every weight
    is then the ising_weight times b^n * e^|E|, and the one Fraction is
    built at the end. At p = 1, c = 0 drops the taken branch for k > 0.

    Vertices are placed by _frontier_placement, which keeps the peak state
    count small: 8,192 on Q5 (natural order: 65,536) and 32,768 on the
    8x8 torus at p = 1/2, so n = 64 is reachable. One known loss: on the
    8x8 torus in the hard-core model the greedy order peaks at 20,480
    states against 3,196 in natural order (about 0.1 s against 0.05 s)."""
    _check_sweep(g.n, sweep_cap)
    a, b = params.lam.numerator, params.lam.denominator
    surv = 1 - params.p
    c, e = surv.numerator, surv.denominator
    edges = 0
    states: dict[int, int] = {0: 1}
    for v, back, retain in _frontier_placement(g):
        edges += back
        out_w = b * e ** back
        in_w = [a * c ** k * e ** (back - k) for k in range(back + 1)]
        bit = 1 << v
        am = g.adj_mask[v]
        nxt: dict[int, int] = {}
        get = nxt.get
        for s, w in states.items():
            key = s & retain
            nxt[key] = get(key, 0) + w * out_w
            m = in_w[(am & s).bit_count()]
            if m:
                key = (s | bit) & retain
                nxt[key] = get(key, 0) + w * m
        states = nxt
    (value,) = states.values()
    return Fraction(value, b ** g.n * e ** edges)


def count_independent_sets(g: BipartiteGraph,
                           sweep_cap: int | None = None) -> int:
    """i(G): graphs.independent_set_table with weight 1 on every vertex,
    the one sum behind Xi and both percolation routes; independent of
    exact_Z's boundary DP."""
    _check_sweep(g.n, sweep_cap)
    full = (1 << g.n) - 1
    return independent_set_table(g.adj_mask, [1] * g.n, full)[full]


def percolation_expectation_exact(g: BipartiteGraph, params: ModelParams,
                                  edge_cap: int | None = None) -> Fraction:
    """E[Z_{G_p}(lambda)]: keep each edge independently with probability p,
    average the hard-core partition function of the surviving subgraph.
    Computed as the honest sum over all 2^|E| subgraphs; exact."""
    edges = list(g.edges())
    m = len(edges)
    limit = DEFAULT_EDGE_SWEEP_CAP if edge_cap is None else edge_cap
    if m > limit:
        raise BudgetError(f"edge sweep over {m} edges exceeds cap {limit}")
    p = params.p
    weights = [params.lam] * g.n
    prob = [p ** k * (1 - p) ** (m - k) for k in range(m + 1)]
    full = (1 << g.n) - 1
    total = Fraction(0)
    for sub in range(1 << m):
        if prob[sub.bit_count()] == 0:
            continue
        nbr = edge_subset_nbr(g.n, edges, sub)
        total += prob[sub.bit_count()] * independent_set_table(
            nbr, weights, full)[full]
    return total


def percolation_mc(g: BipartiteGraph, params: ModelParams, samples: int,
                   seed: int, sweep_cap: int | None = None) -> tuple[float, float]:
    """Monte-Carlo estimate of E[Z_{G_p}(lambda)] with its standard error.

    Reproducibility contract: sample k lives in block k // MC_CHUNK; block c
    draws a (block-size x |E|) uniform matrix from a Philox generator seeded
    with SeedSequence(seed, spawn_key=(c,)), and edge j of sample k survives
    iff the matrix entry is below p. Identical (seed, samples) give
    bit-identical results regardless of how blocks are scheduled.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    _check_sweep(g.n, sweep_cap)
    edges = list(g.edges())
    m = len(edges)
    p_float = params.p.numerator / params.p.denominator
    weights = [params.lam] * g.n
    full = (1 << g.n) - 1
    cache: dict[int, float] = {}
    try:
        values = np.empty(samples, dtype=np.float64)
    except MemoryError as exc:
        raise BudgetError(f"{samples} samples do not fit in memory as "
                          f"float64 values") from exc
    pos = 0
    block = 0
    while pos < samples:
        rows = min(MC_CHUNK, samples - pos)
        gen = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=seed, spawn_key=(block,))))
        keep = gen.random((rows, m)) < p_float
        # bit j of row r's mask is keep[r, j]; Python ints, so any |E|
        packed = np.packbits(keep, axis=1, bitorder="little")
        for r, row in enumerate(packed):
            sub = int.from_bytes(row.tobytes(), "little")
            val = cache.get(sub)
            if val is None:
                nbr = edge_subset_nbr(g.n, edges, sub)
                try:
                    val = float(independent_set_table(nbr, weights,
                                                      full)[full])
                except OverflowError as exc:
                    raise ValueError("a sample's Z exceeds the float64 "
                                     "range (max about 1.8e308)") from exc
                cache[sub] = val
            values[pos + r] = val
        pos += rows
        block += 1
    # sums and squared deviations of values past ~1e150 can overflow
    # float64, so scale huge values; dividing and multiplying by 1.0 leaves
    # every other result bit-identical
    top = float(values.max())
    scale = top if top > 1e150 else 1.0
    mean = float((values / scale).mean() * scale)
    if samples == 1:
        return mean, 0.0
    stderr = float((values / scale).std(ddof=1) * scale / math.sqrt(samples))
    return mean, stderr


# -- measures ----------------------------------------------------------------


class MeasureTable:
    """A finite probability table with exact Fraction probabilities.

    Keys are outcomes (subset masks, or (mask, side) pairs); probabilities
    must be nonnegative and sum to exactly 1. The normalization constant
    (the partition function the probabilities were divided by) rides along
    for reporting.
    """

    def __init__(self, probs: dict, normalization: Fraction):
        total = Fraction(0)
        for key, value in probs.items():
            if value < 0:
                raise ValueError(f"negative probability at {key!r}")
            total += value
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")
        self.probs = dict(probs)
        self.normalization = Fraction(normalization)

    def prob(self, key) -> Fraction:
        return self.probs[key]

    def __len__(self):
        return len(self.probs)


def tv_distance(a: MeasureTable, b: MeasureTable) -> Fraction:
    """Total variation distance (1/2) sum |a - b|, exact."""
    if set(a.probs) != set(b.probs):
        raise ValueError("measures live on different outcome spaces")
    return sum((abs(a.probs[k] - b.probs[k]) for k in a.probs),
               Fraction(0)) / 2


def _captured(g: BipartiteGraph, part: int, side: str, cutoff: Fraction) -> bool:
    for comp in two_linked_components(g, part):
        if popcount(closure(g, comp, side=side)) > cutoff:
            return False
    return True


def captured_on_side(g: BipartiteGraph, i, side: str, rho=DEFAULT_RHO) -> bool:
    """True iff every maximal 2-linked component of I on the side has a
    closure of size at most rho * |side|, i.e. the side's polymer model can
    represent I's trace there."""
    cutoff = closure_cutoff(g, rho)
    return _captured(g, as_mask(i) & g.side_mask(side), side, cutoff)


def capture_sweep(g: BipartiteGraph, rho=DEFAULT_RHO,
                  sweep_cap: int | None = None):
    """Yield (mask, captured on O, captured on E) for every subset mask in
    increasing order, streaming.

    Capture on a side depends only on the subset's trace there, so each
    trace is tested once. Nonempty O- and E-traces are distinct masks and
    the empty trace is captured on both sides, so one memo serves both.
    """
    _check_sweep(g.n, sweep_cap)
    cutoff = closure_cutoff(g, rho)
    memo: dict[int, bool] = {}
    for i_mask in range(1 << g.n):
        o_part = i_mask & g.side_O_mask
        e_part = i_mask & g.side_E_mask
        if o_part not in memo:
            memo[o_part] = _captured(g, o_part, "O", cutoff)
        if e_part not in memo:
            memo[e_part] = _captured(g, e_part, "E", cutoff)
        yield i_mask, memo[o_part], memo[e_part]


def mu_table(g: BipartiteGraph, params: ModelParams,
             sweep_cap: int | None = None) -> MeasureTable:
    """The Ising measure: P(I) = ising_weight(I) / Z over all subsets."""
    z = exact_Z(g, params, sweep_cap=sweep_cap)
    probs = {}
    for i_mask in range(1 << g.n):
        probs[i_mask] = ising_weight(g, params, i_mask) / z
    return MeasureTable(probs, z)


def z_hat_sweep(g: BipartiteGraph, params: ModelParams, rho=DEFAULT_RHO,
                sweep_cap: int | None = None) -> Fraction:
    """The polymer-approximation normalizer by direct sweep: each subset
    contributes its weight once per side whose capture test it passes."""
    total = Fraction(0)
    for i_mask, on_o, on_e in capture_sweep(g, rho, sweep_cap):
        if on_o or on_e:
            total += (on_o + on_e) * ising_weight(g, params, i_mask)
    return total


def mu_hat_table(g: BipartiteGraph, params: ModelParams, rho=DEFAULT_RHO,
                 sweep_cap: int | None = None) -> MeasureTable:
    """The polymer-approximation measure on subsets: weight counted once per
    capturing side (a set captured on both sides is deliberately counted
    twice, matching the two-sided normalizer)."""
    weights = {}
    total = Fraction(0)
    for i_mask, on_o, on_e in capture_sweep(g, rho, sweep_cap):
        hits = on_o + on_e
        w = hits * ising_weight(g, params, i_mask) if hits else Fraction(0)
        weights[i_mask] = w
        total += w
    return MeasureTable({k: w / total for k, w in weights.items()}, total)


def mu_hat_star_table(g: BipartiteGraph, params: ModelParams, rho=DEFAULT_RHO,
                      sweep_cap: int | None = None) -> MeasureTable:
    """The two-sided measure on pairs (I, side): P = [captured] * weight / Z-hat."""
    weights = {}
    total = Fraction(0)
    zero = Fraction(0)
    for i_mask, on_o, on_e in capture_sweep(g, rho, sweep_cap):
        w = ising_weight(g, params, i_mask)
        weights[(i_mask, "O")] = w if on_o else zero
        weights[(i_mask, "E")] = w if on_e else zero
        total += (on_o + on_e) * w
    return MeasureTable({k: w / total for k, w in weights.items()}, total)


def nonpolymer_family(g: BipartiteGraph, rho=DEFAULT_RHO,
                      sweep_cap: int | None = None):
    """Subsets captured on neither side, in increasing mask order."""
    for i_mask, on_o, on_e in capture_sweep(g, rho, sweep_cap):
        if not (on_o or on_e):
            yield i_mask


# -- exact sampler for the decorated polymer measure -------------------------


class MuHatSampler:
    """Seeded sampler for the two-sided polymer measure on pairs (I, side).

    A draw proceeds exactly as the measure is built: pick the defect side
    with probability proportional to its polymer partition function, pick a
    compatible polymer configuration with probability proportional to its
    weight product, decorate each polymer's boundary vertex v independently
    (inclusion odds lambda (1-p)^{deg} against 1), then fill the rest of the
    opposite side outside all boundaries independently with probability
    lambda / (1 + lambda).

    Draw k of seed s reads one block of n + 4 raw 64-bit outputs of a
    Philox generator seeded with SeedSequence(s, spawn_key=(k,)), as
    n/2 + 2 words of 128 bits (word t is output 2t + 1 above output 2t).
    Word 0 picks the side; word 1, times Xi of that side over 2^128, is a
    point of the configurations' weight intervals, which follow
    enumerate_compatible_configs order (PolymerFamily.configuration_at).
    Then one word decides each opposite-side vertex: boundaries by polymer
    then vertex index, the pool by vertex index. Compatible polymers have
    disjoint boundaries, so these are exactly n/2 words.
    """

    def __init__(self, g: BipartiteGraph, params: ModelParams,
                 rho=DEFAULT_RHO, enum_cap: int | None = None):
        self.g = g
        self.families = {side: PolymerFamily(g, side, params, rho,
                                             enum_cap=enum_cap)
                         for side in ("O", "E")}
        self.xi = {side: fam.xi() for side, fam in self.families.items()}
        self._p_side_o = self.xi["O"] / (self.xi["O"] + self.xi["E"])
        # inclusion probability of an opposite-side vertex with deg
        # neighbours in the configuration; deg 0 is the pool's q
        tops = [params.lam * (1 - params.p) ** deg for deg in range(g.d + 1)]
        self._p_in = [top / (1 + top) for top in tops]

    def draw(self, seed: int, k: int = 0) -> tuple[int, str]:
        raw = np.random.Philox(np.random.SeedSequence(
            entropy=seed, spawn_key=(k,))).random_raw(self.g.n + 4).tolist()
        words = [hi << 64 | lo for lo, hi in zip(raw[::2], raw[1::2])]

        def bernoulli(word: int, r: Fraction) -> bool:
            return word * r.denominator < r.numerator << 128

        side = "O" if bernoulli(words[0], self._p_side_o) else "E"
        config = self.families[side].configuration_at(
            self.xi[side] * words[1] / (1 << 128))
        chosen = covered = 0
        order = []
        for poly in config:
            chosen |= poly.vertices
            covered |= poly.boundary
            order.extend(iter_bits(poly.boundary))
        order.extend(iter_bits(self.g.side_mask(self.g.other_side(side))
                               & ~covered))
        i_mask = chosen
        adj = self.g.adj_mask
        for word, v in zip(words[2:], order):
            if bernoulli(word, self._p_in[popcount(adj[v] & chosen)]):
                i_mask |= 1 << v
        return i_mask, side
