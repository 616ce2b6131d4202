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

import functools
import math
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from . import graphs
from .graphs import (
    DICT_SLOT_BYTES,
    AuditViolation,
    BipartiteGraph,
    BudgetError,
    as_mask,
    charge_bytes,
    independent_set_table,
    int_bytes,
    iter_bits,
    popcount,
)
from .polymers import (DEFAULT_RHO, PolymerFamily, closure_cutoff,
                       is_polymer_union)
from .rationals import float64_range, log_precision, log_rational

if TYPE_CHECKING:
    import mpmath

# Monte-Carlo draws are consumed in fixed blocks of this many samples; the
# block layout is part of the reproducibility contract.
MC_CHUNK = 4096


class ModelParams:
    """Fugacity lambda > 0 and percolation probability p in [0, 1].

    p plays the role of 1 - e^{-beta}: p = 1 is the hard-core model,
    p = 0 turns every subset weight into lambda^|I|.

    Immutable and hashable (PolymerFamily keys weights by it). Written out
    rather than a generated data class, whose module import and class build
    cost every cold CLI run several milliseconds.
    """

    __slots__ = ("lam", "p")

    def __init__(self, lam, p):
        lam, p = Fraction(lam), Fraction(p)
        if lam <= 0:
            raise ValueError(f"lambda must be positive, got {lam}")
        if not 0 <= p <= 1:
            raise ValueError(f"p must lie in [0, 1], got {p}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError(f"ModelParams is immutable; cannot set {name}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.lam == other.lam and self.p == other.p

    def __hash__(self):
        return hash((self.lam, self.p))

    @property
    def alpha(self) -> Fraction:
        """lambda * p, the effective interaction strength."""
        return self.lam * self.p

    @property
    def alpha_tilde(self) -> Fraction:
        """(1 + lambda) / (1 + lambda(1-p)); always at most 1 + lambda."""
        return (1 + self.lam) / (1 + self.lam * (1 - self.p))

    def alpha_bar(self) -> mpmath.mpf:
        """log(alpha_tilde) at 128-bit precision; report-only."""
        with log_precision():
            return log_rational(self.alpha_tilde)

    def beta(self) -> mpmath.mpf:
        """-log(1-p) at 128-bit precision; +inf for the hard-core model."""
        with log_precision() as mpmath:
            if self.p == 1:
                return mpmath.inf
            return -log_rational(1 - self.p)


def _check_sweep(n: int, limit: int | None) -> None:
    if limit is not None and n > limit:
        raise BudgetError(f"subset sweep over {n} vertices exceeds cap {limit}")


def internal_edge_count(g: BipartiteGraph, i_mask: int) -> int:
    """Number of edges of G with both endpoints in the set."""
    # every edge has exactly one endpoint on side O
    total = 0
    for v in iter_bits(i_mask & g.side_O_mask):
        total += popcount(g.adj_mask[v] & i_mask)
    return total


def _weight_scale(g: BipartiteGraph, params: ModelParams) -> int:
    """b^n * e^|E| for lambda = a/b and 1-p = c/e: the denominator of every
    integer-scaled weight (exact_Z's DP states, subset_sweep's weights)."""
    return (params.lam.denominator ** g.n
            * (1 - params.p).denominator ** g.edge_count())


def _scaled_entry_bytes(g: BipartiteGraph, params: ModelParams) -> int:
    """The predicted bytes of a dict entry keyed by a vertex mask, n bits,
    and holding an integer-scaled weight or sum of them, at most
    n log2(a+b) + |E| log2(e) bits: (a+b)^n e^|E| bounds the scaled total
    for lambda = a/b and 1-p = c/e. exact_Z's states and the measure
    tables' entries are charged at this size."""
    a, b = params.lam.numerator, params.lam.denominator
    e = (1 - params.p).denominator
    value_bits = g.n * math.log2(a + b) + g.edge_count() * math.log2(e)
    return int_bytes(g.n) + int_bytes(math.ceil(value_bits)) + DICT_SLOT_BYTES


def _scaled_weight(g: BipartiteGraph, params: ModelParams, size: int,
                   inside: int) -> int:
    """The ising_weight of a set of `size` vertices with `inside` edges
    inside it, times _weight_scale: a^size b^(n-size) c^inside e^(|E|-inside).
    At p = 1, c = 0 makes every set with an internal edge weigh zero."""
    surv = 1 - params.p
    return (params.lam.numerator ** size
            * params.lam.denominator ** (g.n - size)
            * surv.numerator ** inside
            * surv.denominator ** (g.edge_count() - inside))


def ising_weight(g: BipartiteGraph, params: ModelParams, i) -> Fraction:
    """lambda^|I| * (1-p)^{E(I)}; zero when p = 1 and I has an internal edge."""
    i = as_mask(i)
    return Fraction(_scaled_weight(g, params, popcount(i),
                                   internal_edge_count(g, i)),
                    _weight_scale(g, params))


def _candidate_orders(g: BipartiteGraph) -> dict[str, list[int]]:
    """The vertex orders exact_Z's plan chooses from. Greedy: among the
    unplaced neighbours of placed vertices, or the lowest unplaced vertex
    when there are none, place the one that leaves the fewest frontier
    vertices, ties to the lowest index. Side-major: the greedy order's
    side-E vertices, each O vertex right after its last E-neighbour, so no
    O vertex enters the frontier. Natural: 0, 1, ..., n-1.

    A candidate u grows the frontier by (u keeps an unplaced neighbour)
    minus closing[u], the placed vertices whose only unplaced neighbour is
    u, which leave it when u is placed. closing is kept up as each vertex
    is placed, so the key costs O(1). A key only ever falls, so the
    candidates sit in a heap of (key, u) that gets a new entry each time a
    key falls: a candidate's current entry is its least, so the first
    popped entry of an unplaced vertex is current, and entries of placed
    vertices are skipped. The greedy order takes O((n + |E|) log n); the
    former rescan of every candidate's neighbours is the tests' second
    route."""
    # imported on first use, so cold runs that plan nothing do not load it
    from heapq import heappop, heappush

    adj = g.adj
    unplaced_nbrs = [len(nbrs) for nbrs in adj]
    closing = [0] * g.n
    rank: dict[int, int] = {}  # placed vertex -> its greedy position
    heap: list[tuple[int, int]] = []
    lowest = 0

    def push(u):
        heappush(heap, ((unplaced_nbrs[u] > 0) - closing[u], u))

    def count_closing(w):
        # w is placed with one unplaced neighbour: that one closes w
        for x in adj[w]:
            if x not in rank:
                closing[x] += 1
                push(x)
                return

    for _ in range(g.n):
        while heap:
            v = heappop(heap)[1]
            if v not in rank:
                break
        else:
            while lowest in rank:
                lowest += 1
            v = lowest
        rank[v] = len(rank)
        for w in adj[v]:
            unplaced_nbrs[w] -= 1
            if w not in rank:
                push(w)
            elif unplaced_nbrs[w] == 1:
                count_closing(w)
        if unplaced_nbrs[v] == 1:
            count_closing(v)

    def side_major(v):
        if g.side_E_mask >> v & 1:
            return rank[v], 0
        return max(rank[w] for w in g.adj[v]), 1

    return {"greedy": list(rank),
            "side-major": sorted(range(g.n), key=side_major),
            "natural": list(range(g.n))}


def _placement_steps(g: BipartiteGraph, order) -> list[tuple[int, int, int]]:
    """(v, back, frontier) per step of placing `order`: the vertex, how
    many of its neighbours precede it, and the mask of placed vertices with
    an unplaced neighbour once it is placed."""
    unplaced_nbrs = [len(nbrs) for nbrs in g.adj]
    frontier = 0
    steps = []
    for v in order:
        for w in g.adj[v]:
            unplaced_nbrs[w] -= 1
            if not unplaced_nbrs[w]:
                frontier &= ~(1 << w)
        if unplaced_nbrs[v]:
            frontier |= 1 << v
        steps.append((v, len(g.adj[v]) - unplaced_nbrs[v], frontier))
    return steps


def _state_counts(g: BipartiteGraph, steps, hard_core: bool, memo: dict):
    """The DP's state count after each step: 2^|frontier| at p < 1, and at
    p = 1 the frontier's independent subsets, counted through `memo`."""
    for _, _, frontier in steps:
        if hard_core and frontier not in memo:
            independent_set_table(g.adj_mask, [1] * g.n, frontier, memo)
        yield memo[frontier] if hard_core else 1 << frontier.bit_count()


def _frontier_placement(g: BipartiteGraph, params: ModelParams):
    """exact_Z's plan: the steps of the candidate order of least predicted
    work, a state entering a step costing 2 if the placed vertex stays on
    the frontier and 1 if it leaves at once. A step holds the states
    entering and leaving it at once, each charged _scaled_entry_bytes. An
    order is dropped once its cost reaches the best so far or a step's
    states pass graphs.BYTE_CEILING; when every order passes it, the
    fewest bytes any of them would need are refused before any step.

    Before any order is built, every order's least peak is charged: its
    widest frontier, its vertex separation, is at least the pathwidth and
    so the degree d, a step of 2^d states at p < 1 and at p = 1 of
    2^ceil(d/2), the subsets of the frontier's larger, independent side.
    That refuses no plan the orders would admit, and K2048,2048 before
    its O(|E|) ordering."""
    ceiling = graphs.BYTE_CEILING
    size = _scaled_entry_bytes(g, params)
    least_peak = -(-g.d // 2) if params.p == 1 else g.d
    charge_bytes("the boundary DP", 1 << least_peak, size, ceiling)
    held = ceiling // size  # the most states the ceiling admits
    memo: dict[int, int] = {0: 1}
    best = None
    passed = []  # per order dropped at the ceiling, the states it held there
    for order in _candidate_orders(g).values():
        steps = _placement_steps(g, order)
        cost, entering = 0, 1
        for (v, _, frontier), count in zip(
                steps, _state_counts(g, steps, params.p == 1, memo)):
            cost += entering << (frontier >> v & 1)
            if best and cost >= best[0]:
                break
            if entering + count > held:
                passed.append(entering + count)
                break
            entering = count
        else:
            best = cost, steps
    if best is None:  # every order passed the ceiling: this refuses
        charge_bytes("the boundary DP", min(passed), size, ceiling)
    return best[1]


def exact_Z(g: BipartiteGraph, params: ModelParams,
            sweep_cap: int | None = None) -> Fraction:
    """The partition function: the exact sum of ising_weight over all 2^n
    subsets, computed by a boundary dynamic program whose states are keyed
    by the chosen frontier vertices (placed vertices with an unplaced
    neighbour). No vertex count is refused: the plan's byte charge decides.
    An explicit sweep_cap refuses more vertices than it; it stays only
    because the benchmark's exact_Z and isets jobs pass it, and goes once
    they stop.

    The DP holds integers. With lambda = a/b and 1-p = c/e, a vertex with
    `back` placed neighbours, k of them chosen, multiplies its state by
    b*e^back when left out and by a*c^k*e^(back-k) when taken; every weight
    is then the ising_weight times b^n * e^|E|, and the one Fraction is
    built at the end. At p = 1, c = 0 drops the taken branch for k > 0. A
    vertex that leaves the frontier when placed sends both branches to one
    key: one update with their sum.

    _frontier_placement picks the vertex order per run from exact state
    counts. Measured peaks: side-major on Q5 at p = 1/2 (8,192 states;
    natural 65,536), greedy on Q5 at p = 1 (1,180) and on the 8x8 torus at
    p = 1/2 (32,768), natural on that torus at p = 1 (3,196; greedy
    20,480). With every order's states past graphs.BYTE_CEILING,
    BudgetError comes before the first step: Q6 at p = 9/10 holds 2^24
    states at the peak step of its best order, about 3 GB."""
    _check_sweep(g.n, sweep_cap)
    a, b = params.lam.numerator, params.lam.denominator
    surv = 1 - params.p
    c, e = surv.numerator, surv.denominator
    states: dict[int, int] = {0: 1}
    for v, back, retain in _frontier_placement(g, params):
        out_w = b * e ** back
        in_w = [a * c ** k * e ** (back - k) for k in range(back + 1)]
        am = g.adj_mask[v]
        nxt: dict[int, int] = {}
        get = nxt.get
        if retain >> v & 1:
            bit = 1 << v
            for s, w in states.items():
                key = s & retain
                nxt[key] = get(key, 0) + w * out_w
                m = in_w[(am & s).bit_count()]
                if m:
                    key = (s | bit) & retain
                    nxt[key] = get(key, 0) + w * m
        else:
            both = [out_w + m for m in in_w]
            for s, w in states.items():
                key = s & retain
                nxt[key] = get(key, 0) + w * both[(am & s).bit_count()]
        states = nxt
    (value,) = states.values()
    return Fraction(value, _weight_scale(g, params))


def count_independent_sets(g: BipartiteGraph,
                           sweep_cap: int | None = None) -> int:
    """i(G): graphs.independent_set_table with weight 1 on every vertex,
    the one sum behind Xi; independent of exact_Z's boundary DP. Refuses
    (BudgetError) a memo past graphs.BYTE_CEILING, and more vertices than
    an explicit sweep_cap, which stays only for the benchmark's isets job,
    as on exact_Z."""
    _check_sweep(g.n, sweep_cap)
    full = (1 << g.n) - 1
    return independent_set_table(g.adj_mask, [1] * g.n, full)[full]


def percolation_expectation_exact(g: BipartiteGraph,
                                  params: ModelParams) -> Fraction:
    """E[Z_{G_p}(lambda)]: keep each edge independently with probability p,
    average the hard-core partition function of the surviving subgraph.
    Computed as the honest sum over all 2^|E| subgraphs, exact and in
    integers: with lambda = a/b and p = k/e, a subgraph with j edges weighs
    k^j (e-k)^(|E|-j) and subgraphs.subgraph_z gives its partition
    function times b^n, so the one Fraction is the total over e^|E| b^n,
    built at the end as in exact_Z. Its memo, keyed by the vertex set and
    the subgraph's edges inside it, is shared across the subgraphs, and
    dropped once it passes a fixed size, which bounds the sweep's memory
    (see subgraph_z); a subgraph whose memo passes graphs.BYTE_CEILING
    raises BudgetError. At 0 < p < 1 more than graphs.EDGE_SWEEP_CEILING
    edges are refused. At p = 0 or p = 1 the one subgraph that weighs, the
    empty or the full one, is the whole sum, so no edge count is refused."""
    from .subgraphs import subgraph_z

    m, limit = g.edge_count(), graphs.EDGE_SWEEP_CEILING
    k, e = params.p.numerator, params.p.denominator
    if 0 < k < e and m > limit:
        raise BudgetError(f"edge sweep over {m} edges exceeds cap {limit}")
    prob = [k ** j * (e - k) ** (m - j) for j in range(m + 1)]
    # at 0 < p < 1 every subgraph weighs; at p = 0 or 1 only the empty or
    # the full one does, with probability 1
    subs = range(1 << m) if 0 < k < e else [(1 << m) - 1 if k else 0]
    scaled_z = subgraph_z(g, params)
    total = sum(prob[sub.bit_count()] * scaled_z(sub) for sub in subs)
    return Fraction(total, e ** m * params.lam.denominator ** g.n)


def percolation_mc(g: BipartiteGraph, params: ModelParams, samples: int,
                   seed: int) -> tuple[float, float]:
    """Monte-Carlo estimate of E[Z_{G_p}(lambda)] with its standard error.

    Reproducibility contract: sample k lives in block k // MC_CHUNK; block c
    draws a (block-size x |E|) uniform matrix from a Philox generator keyed
    with the state of SeedSequence(seed, spawn_key=(c,)), which philox_key
    computes as for MuHatSampler, and edge j of sample k (edge j of
    g.edges(), bit j of its subgraph_z mask) survives iff the matrix entry
    is below p. Identical (seed, samples) give bit-identical results
    regardless of how blocks are scheduled.

    Each distinct sample's Z comes from subgraphs.subgraph_z, the exact
    sweep's subgraph sum, its memo shared across the samples. No 2^n sweep
    is run, so no vertex count is refused: a sample whose memo passes
    graphs.BYTE_CEILING raises BudgetError.
    """
    # numpy is imported by the seeded routes only, so the exact routes and
    # the CLI start without its import cost
    import numpy as np

    from .philox import philox
    from .subgraphs import subgraph_z

    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    m = g.edge_count()
    p_float = params.p.numerator / params.p.denominator
    # each subgraph's Z as an int over b^n (lambda = a/b); int true division
    # rounds correctly, so every value equals float() of the exact Fraction
    scaled_z = subgraph_z(g, params)
    denom = params.lam.denominator ** g.n
    cache: dict[int, float] = {}

    def block_values(raw: bytes, width: int):
        """Each sample's Z, for a block's masks of width >= 1 bytes each
        (every graph has an edge) cut from one bytes object: no numpy row
        view or scalar per sample."""
        for start in range(0, len(raw), width):
            sub = int.from_bytes(raw[start:start + width], "little")
            val = cache.get(sub)
            if val is None:
                with float64_range("a sample's Z"):
                    val = scaled_z(sub) / denom
                cache[sub] = val
            yield val

    # numpy refuses counts past its size limits with a ValueError, before
    # it allocates anything
    try:
        values = np.empty(samples, dtype=np.float64)
    except (MemoryError, ValueError) as exc:
        raise BudgetError(f"{samples} samples do not fit in memory as "
                          f"float64 values") from exc
    pos = 0
    block = 0
    while pos < samples:
        rows = min(MC_CHUNK, samples - pos)
        gen = np.random.Generator(philox(seed, block))
        keep = gen.random((rows, m)) < p_float
        # bit j of row r's mask is keep[r, j]; Python ints, so any |E|
        packed = np.packbits(keep, axis=1, bitorder="little")
        # fromiter, not a list: a list of the block's values moved the
        # measures workload's peak RSS by about 0.6 MB
        values[pos:pos + rows] = np.fromiter(
            block_values(packed.tobytes(), packed.shape[1]), np.float64, rows)
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

    Keys are outcomes (subset masks, or (mask, side) pairs). The table keeps
    their integer `weights`, which must be nonnegative with a positive sum,
    that sum as `total`, and the probabilities `probs`, built eagerly:
    one Fraction(w, total) per distinct weight, shared by every key with
    that weight. The weights of the 2^n tables take few distinct values
    (they depend on |I| and e(I) only), so the table builds a few hundred
    Fractions, not one per key. The normalization constant total / scale
    (the partition function the weights were divided by) rides along for
    reporting.
    """

    def __init__(self, weights: dict, scale: int):
        distinct = set(weights.values())
        # the types are read off every value, since the set merges
        # Fraction(1) and 1.0 into the int 1
        if (not all(issubclass(kind, int)
                    for kind in set(map(type, weights.values())))
                or min(distinct, default=0) < 0):
            bad = next(k for k, w in weights.items()
                       if not isinstance(w, int) or w < 0)
            raise ValueError(f"negative or non-integer weight at {bad!r}")
        total = sum(weights.values())
        if total <= 0:
            raise ValueError(f"weights must have a positive sum, got {total}")
        shared = {w: Fraction(w, total) for w in distinct}
        self.weights = weights
        self.total = total
        self.probs = {key: shared[w] for key, w in weights.items()}
        self.normalization = Fraction(total, scale)

    def __len__(self):
        return len(self.probs)


def tv_distance(a: MeasureTable, b: MeasureTable) -> Fraction:
    """Total variation distance (1/2) sum |a - b|, exact and in integers:
    with weights w_a, w_b over totals T_a, T_b it is
    sum |w_a T_b - w_b T_a| / (2 T_a T_b), one Fraction per call."""
    if a.weights.keys() != b.weights.keys():
        raise ValueError("measures live on different outcome spaces")
    ta, tb = a.total, b.total
    bw = b.weights
    return Fraction(sum(abs(w * tb - bw[k] * ta) for k, w in a.weights.items()),
                    2 * ta * tb)


def captured_on_side(g: BipartiteGraph, i, side: str, rho=DEFAULT_RHO) -> bool:
    """True iff every maximal 2-linked component of I on the side has a
    closure of size at most rho * |side|, i.e. the side's polymer model can
    represent I's trace there."""
    return is_polymer_union(g, as_mask(i) & g.side_mask(side), side,
                            closure_cutoff(g, rho))


class _CaptureFlags(dict):
    """The capture flag of each trace on one side, tested on first lookup."""

    def __init__(self, g: BipartiteGraph, side: str, limit: int):
        super().__init__()
        self.test = functools.partial(is_polymer_union, g, side=side,
                                      limit=limit)

    def __missing__(self, trace: int) -> bool:
        flag = self[trace] = self.test(trace)
        return flag


def _half_edge_counts(adj, first: int, count: int) -> list[int]:
    """e(S) for every set S of the vertices first .. first+count-1, indexed
    by S >> first, built by adding one vertex at a time: a vertex v joining
    the sets of the lower vertices adds popcount(adj[v] & S) edges."""
    counts = [0]
    for v in range(first, first + count):
        nbrs = adj[v] >> first
        counts += [e + (nbrs & s).bit_count() for s, e in enumerate(counts)]
    return counts


def subset_sweep(g: BipartiteGraph, params: ModelParams, rho=DEFAULT_RHO):
    """Yield (mask, weight, captured on O, captured on E) for every subset
    mask in increasing order, streaming. The weight is the ising_weight
    times _weight_scale, an int read from a table by (|I|, e(I)).

    e(I) is counted incrementally. Write the mask as h|l, with l on the
    k = n // 2 lowest vertices and h on the rest. Then
    e(h|l) = e(h) + e(l) + cross_h(l), where cross_h(l) counts the edges
    between the two parts. e(l) and e(h) are built once for every l and h
    (_half_edge_counts); cross_h is built per h by the same recurrence, a
    low vertex v adding popcount(adj[v] & h). Memory is O(2^(n/2)). Capture
    on a side depends only on the subset's trace there, so each trace is
    tested once and its flag kept in a dict. Refuses (BudgetError) more
    than graphs.SWEEP_CEILING vertices."""
    _check_sweep(g.n, graphs.SWEEP_CEILING)
    limit = closure_cutoff(g, rho)
    n, adj = g.n, g.adj_mask
    k = n // 2
    row = g.edge_count() + 1
    weight = [_scaled_weight(g, params, size, inside)
              for size in range(n + 1) for inside in range(row)]
    # the table index of l's own part, size * row + e(l)
    low_index = [s.bit_count() * row + e
                 for s, e in enumerate(_half_edge_counts(adj, 0, k))]
    high_edges = _half_edge_counts(adj, k, n - k)
    captured_o = _CaptureFlags(g, "O", limit)
    captured_e = _CaptureFlags(g, "E", limit)
    o_mask, e_mask = g.side_O_mask, g.side_E_mask
    for h, e_high in enumerate(high_edges):
        high = h << k
        cross = [0]
        for v in range(k):
            step = (adj[v] & high).bit_count()
            cross += [c + step for c in cross]
        base = h.bit_count() * row + e_high
        high_o, high_e = high & o_mask, high & e_mask
        for l, (own, c) in enumerate(zip(low_index, cross)):
            yield (high | l, weight[base + own + c],
                   captured_o[high_o | (l & o_mask)],
                   captured_e[high_e | (l & e_mask)])


def capture_classes(g: BipartiteGraph, params: ModelParams, rho=DEFAULT_RHO):
    """(W0, W1, W2, count0) from one sweep: W_h is the total ising_weight of
    the subsets captured on h sides and count0 the number captured on
    neither. So Z = W0 + W1 + W2, Z-hat = W1 + 2 W2, and W0 is the
    non-polymer weight. Raises AuditViolation unless W0 + W1 + W2 equals
    exact_Z."""
    sums = [0, 0, 0]
    count0 = 0
    for _, w, on_o, on_e in subset_sweep(g, params, rho):
        sums[on_o + on_e] += w
        count0 += not (on_o or on_e)
    scale = _weight_scale(g, params)
    if Fraction(sum(sums), scale) != exact_Z(g, params):
        raise AuditViolation("capture classes do not sum to exact_Z")
    return (*(Fraction(w, scale) for w in sums), count0)


def _charge_table(g: BipartiteGraph, params: ModelParams,
                  paired: bool = False) -> None:
    """Refuse (BudgetError), before the sweep starts, a MeasureTable of
    every subset, or with `paired` of every (subset, side) pair, past
    graphs.BYTE_CEILING. Each outcome is charged _scaled_entry_bytes for
    its weight's entry and a slot for its probability's, which shares a
    Fraction per distinct weight; a pair, its tuple too. TV, Z-hat and the
    non-polymer weight need no table."""
    size = _scaled_entry_bytes(g, params) + DICT_SLOT_BYTES
    if paired:
        size += sys.getsizeof((0, "O"))
    charge_bytes("the measure table", 1 << g.n + paired, size,
                 graphs.BYTE_CEILING)


def mu_table(g: BipartiteGraph, params: ModelParams) -> MeasureTable:
    """The Ising measure: P(I) = ising_weight(I) / Z over all subsets.
    Raises AuditViolation unless the sweep's weights sum to exact_Z."""
    _charge_table(g, params)
    weights = {i_mask: w for i_mask, w, _, _ in subset_sweep(g, params)}
    table = MeasureTable(weights, _weight_scale(g, params))
    if table.normalization != exact_Z(g, params):
        raise AuditViolation("mu table weights do not sum to exact_Z")
    return table


def z_hat_sweep(g: BipartiteGraph, params: ModelParams,
                rho=DEFAULT_RHO) -> Fraction:
    """The polymer-approximation normalizer by direct sweep: each subset
    contributes its weight once per side whose capture test it passes."""
    return Fraction(sum((on_o + on_e) * w for _, w, on_o, on_e in
                        subset_sweep(g, params, rho)),
                    _weight_scale(g, params))


def mu_hat_table(g: BipartiteGraph, params: ModelParams,
                 rho=DEFAULT_RHO) -> MeasureTable:
    """The polymer-approximation measure on subsets: weight counted once per
    capturing side (a set captured on both sides is deliberately counted
    twice, matching the two-sided normalizer)."""
    _charge_table(g, params)
    weights = {i_mask: (on_o + on_e) * w for i_mask, w, on_o, on_e in
               subset_sweep(g, params, rho)}
    return MeasureTable(weights, _weight_scale(g, params))


def mu_hat_star_table(g: BipartiteGraph, params: ModelParams,
                      rho=DEFAULT_RHO) -> MeasureTable:
    """The two-sided measure on pairs (I, side): P = [captured] * weight / Z-hat."""
    _charge_table(g, params, paired=True)
    weights = {}
    for i_mask, w, on_o, on_e in subset_sweep(g, params, rho):
        weights[(i_mask, "O")] = on_o * w
        weights[(i_mask, "E")] = on_e * w
    return MeasureTable(weights, _weight_scale(g, params))


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

    Draw k of seed s reads the first n + 4 raw 64-bit outputs of a fresh
    numpy Philox generator, so draws share no state. Its key is the state
    of numpy's SeedSequence(s, spawn_key=(k,)), computed by the Python port
    philox.philox_key; the tests check the port against numpy's
    SeedSequence. philox_raw returns the outputs as one int, output t at
    bit 64t, and the draw masks and shifts out its 128-bit words: word t
    is bits 128t .. 128t + 127, output 2t + 1 above output 2t. Word 0 picks
    the side; word 1, times Xi of that side over 2^128, is a point of the
    configurations' weight intervals, which follow
    enumerate_compatible_configs order (PolymerFamily.configuration_at).
    Then one word decides each opposite-side vertex: boundaries by polymer
    then vertex index, the pool by vertex index. Compatible polymers have
    disjoint boundaries, so these are exactly n/2 words. A word decides an
    event of probability num/den iff word * den < num * 2^128.
    """

    def __init__(self, g: BipartiteGraph, params: ModelParams,
                 rho=DEFAULT_RHO):
        self.g = g
        self.families = {side: PolymerFamily(g, side, params, rho)
                         for side in ("O", "E")}
        self.xi = {side: fam.xi() for side, fam in self.families.items()}
        p_side_o = self.xi["O"] / (self.xi["O"] + self.xi["E"])
        self._p_side_o = p_side_o.numerator << 128, p_side_o.denominator
        # inclusion probability of an opposite-side vertex with deg
        # neighbours in the configuration; deg 0 is the pool's q
        tops = [params.lam * (1 - params.p) ** deg for deg in range(g.d + 1)]
        self._p_in = [(r.numerator << 128, r.denominator)
                      for r in (top / (1 + top) for top in tops)]
        self._opposite = {side: tuple(iter_bits(g.side_mask(g.other_side(
            side)))) for side in ("O", "E")}

    @functools.cached_property
    def _stream(self):
        # numpy is imported with the stream, on the first draw, not when
        # the sampler is built
        from .philox import philox_raw
        return philox_raw

    def draw(self, seed: int, k: int = 0) -> tuple[int, str]:
        raw, mask = self._stream(seed, k, self.g.n + 4), (1 << 128) - 1
        num, den = self._p_side_o  # num, like p_in's, times 2^128
        side = "O" if (raw & mask) * den < num else "E"
        xi = self.xi[side]
        config = self.families[side].configuration_at(
            (xi.numerator * (raw >> 128 & mask), xi.denominator << 128))
        chosen = covered = 0
        order = []
        for poly in config:
            chosen |= poly.vertices
            covered |= poly.boundary
            order.extend(iter_bits(poly.boundary))
        order.extend(v for v in self._opposite[side] if not covered >> v & 1)
        i_mask = chosen
        adj, p_in = self.g.adj_mask, self._p_in
        for t, v in enumerate(order, 2):
            num, den = p_in[(adj[v] & chosen).bit_count()]
            if (raw >> 128 * t & mask) * den < num:
                i_mask |= 1 << v
        return i_mask, side
