"""Independent brute-force oracles used to pin expected values in the tests.

Everything here is written straight from definitions, deliberately ignoring
the optimized implementations in the package: neighborhoods by scanning all
vertices, 2-linkedness by union-find over pairwise distances, partition
functions by full subset sweeps. Slow and obviously correct. A few are the
former library routes that a faster algorithm replaced, kept as the second
route to it.
"""

from __future__ import annotations

import functools
import json
import math
from bisect import bisect_left
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np

from isingpoly import graphs
from isingpoly.clusters import Cluster, _check_ursell_size, _ursell
from isingpoly.graphs import (BipartiteGraph, as_mask, bits,
                              independent_set_table, is_two_linked,
                              iter_bits, neighborhood, popcount)
from isingpoly.model import captured_on_side
from isingpoly.polymers import enumerate_compatible_configs


def brute_neighborhood(g: BipartiteGraph, xs) -> tuple[int, ...]:
    xs = set(xs)
    out = set()
    for v in range(g.n):
        if v in xs:
            continue
        if any(u in xs for u in g.adj[v]):
            out.add(v)
    return tuple(sorted(out))


def brute_closure(g: BipartiteGraph, a, side_vertices) -> tuple[int, ...]:
    na = set(brute_neighborhood(g, a))
    return tuple(sorted(v for v in side_vertices if set(g.adj[v]) <= na))


def brute_is_two_linked(g: BipartiteGraph, a) -> bool:
    a = sorted(set(a))
    if not a:
        raise ValueError("empty set")
    parent = {v: v for v in a}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in combinations(a, 2):
        du = set(g.adj[u])
        if v in du or du & set(g.adj[v]):
            parent[find(u)] = find(v)
    return len({find(v) for v in a}) == 1


def union_compatible(g: BipartiteGraph, a: int, b: int) -> bool:
    """Two same-side 2-linked sets are compatible iff their union is not
    2-linked; the former route of polymers.compatible."""
    return not is_two_linked(g, a | b)


def brute_two_linked_sets(g: BipartiteGraph, v: int, ell_max: int) -> list[tuple[int, ...]]:
    """Every 2-linked set of size <= ell_max containing v, by filtering all
    combinations of vertices. Exponential; keep ell_max tiny."""
    out = []
    rest = [u for u in range(g.n) if u != v]
    for ell in range(1, ell_max + 1):
        for extra in combinations(rest, ell - 1):
            s = (v,) + extra
            if brute_is_two_linked(g, s):
                out.append(tuple(sorted(s)))
    return sorted(out)


def exhaustive_sets(g: BipartiteGraph, side: str, size_cap: int):
    """Every subset of the side with at most size_cap vertices as a mask,
    size-major and then lexicographic; the former library sweep of the
    isoperimetry audits, kept as the second route to the 2-linked one."""
    verts = g.side_E if side == "E" else g.side_O
    for k in range(1, min(size_cap, len(verts)) + 1):
        for combo in combinations(verts, k):
            yield as_mask(combo)


def graphs_isomorphic(g1: BipartiteGraph, g2: BipartiteGraph) -> bool:
    """Brute-force isomorphism for graphs with at most 8 vertices."""
    if g1.n != g2.n or g1.d != g2.d:
        return False
    if g1.n > 8:
        raise ValueError("brute-force isomorphism capped at 8 vertices")
    e1 = {frozenset(e) for e in g1.edges()}
    for perm in permutations(range(g2.n)):
        mapped = {frozenset((perm[u], perm[v])) for u, v in g2.edges()}
        if mapped == e1:
            return True
    return False


@functools.cache
def brute_subset_histogram(g: BipartiteGraph) -> dict[tuple[int, int], int]:
    """How many vertex subsets have each (size, edges inside) pair, by a
    sweep over all 2^n subsets; cached per graph."""
    edges = list(g.edges())
    counts: dict[tuple[int, int], int] = {}
    for mask in range(1 << g.n):
        inside = 0
        for u, v in edges:
            if (mask >> u) & 1 and (mask >> v) & 1:
                inside += 1
        key = (mask.bit_count(), inside)
        counts[key] = counts.get(key, 0) + 1
    return counts


def brute_ising_Z(g: BipartiteGraph, lam: Fraction, p: Fraction) -> Fraction:
    """Sum over all vertex subsets of lam^|I| * (1-p)^{edges inside I},
    grouped by (|I|, edges inside I).

    With p = 1 - e^{-beta} this is the antiferromagnetic Ising partition
    function; at p = 1 only independent sets survive (0^0 = 1).
    """
    lam = Fraction(lam)
    q = 1 - Fraction(p)
    return sum((count * lam ** size * q ** inside
                for (size, inside), count in brute_subset_histogram(g).items()),
               Fraction(0))


def graph_to_json(g) -> str:
    """graphs.graph_json_chunks' text by its former route: json.dumps of
    the whole payload, built with a two-element list per edge."""
    return json.dumps({"n": g.n, "d": g.d, "side_O": list(g.side_O),
                       "side_E": list(g.side_E),
                       "edges": [[u, v] for u, v in g.edges()]})


def greedy_order_rescan(g) -> list[int]:
    """exact_Z's greedy vertex order by its former route: each step rescans
    every candidate's neighbours for the placed vertices it would close.
    Among the unplaced neighbours of placed vertices, or the lowest unplaced
    vertex when there are none, place the one that leaves the fewest
    frontier vertices, ties to the lowest index. Reads only g.n and g.adj."""
    unplaced_nbrs = [len(nbrs) for nbrs in g.adj]
    rank: dict[int, int] = {}
    candidates: set[int] = set()
    lowest = 0

    def growth(u):
        closed = sum(w in rank and unplaced_nbrs[w] == 1 for w in g.adj[u])
        return (unplaced_nbrs[u] > 0) - closed, u

    for _ in range(g.n):
        if candidates:
            v = min(candidates, key=growth)
            candidates.discard(v)
        else:
            while lowest in rank:
                lowest += 1
            v = lowest
        rank[v] = len(rank)
        for w in g.adj[v]:
            unplaced_nbrs[w] -= 1
            if w not in rank:
                candidates.add(w)
    return list(rank)


def fraction_steps_Z(g: BipartiteGraph, lam: Fraction, p: Fraction,
                     steps) -> tuple[Fraction, list[int]]:
    """The partition function by a boundary DP over `steps`, (v, back,
    frontier) triples as exact_Z plans them, adding Fractions in every
    state (states keyed by the chosen vertices of the step's frontier);
    returns Z and the number of states after each step."""
    # taking v with k chosen neighbours multiplies by lam (1-p)^k
    taken = [Fraction(lam) * (1 - Fraction(p)) ** k for k in range(g.d + 1)]
    states: dict[int, Fraction] = {0: Fraction(1)}
    counts = []
    for v, _, retain in steps:
        bit = 1 << v
        am = g.adj_mask[v]
        nxt: dict[int, Fraction] = {}
        for s, w in states.items():
            key = s & retain
            cur = nxt.get(key)
            nxt[key] = w if cur is None else cur + w
            factor = taken[popcount(am & s)]
            if factor:
                key = (s | bit) & retain
                cur = nxt.get(key)
                nxt[key] = w * factor if cur is None else cur + w * factor
        states = nxt
        counts.append(len(states))
    (value,) = states.values()
    return value, counts


def fraction_boundary_Z(g: BipartiteGraph, lam: Fraction, p: Fraction) -> Fraction:
    """fraction_steps_Z in natural vertex order, each state keeping the
    chosen vertices that still have undecided neighbours; the second route
    to exact_Z."""
    last = [nbrs[-1] for nbrs in g.adj]
    steps = [(i, None, sum(1 << v for v in range(i + 1) if last[v] > i))
             for i in range(g.n)]
    return fraction_steps_Z(g, lam, p, steps)[0]


def edge_subset_nbr(n: int, edges, sub: int) -> list[int]:
    """Per-vertex neighbour masks of the graph on vertices 0..n-1 whose
    edges are edges[e] for every bit e of the `sub` mask."""
    nbr = [0] * n
    for e in iter_bits(sub):
        u, v = edges[e]
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    return nbr


def fraction_percolation_expectation(g: BipartiteGraph, params) -> Fraction:
    """E[Z_{G_p}(lambda)] as a Fraction sum over all 2^|E| edge subsets of
    the subgraph's probability p^j (1-p)^(|E|-j) times its hard-core
    partition function, independent_set_table at Fraction weight lambda;
    the second route to percolation_expectation_exact's integer sweep."""
    edges = list(g.edges())
    m = len(edges)
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


def fraction_sweep(g: BipartiteGraph, params, masks=None):
    """Yield (mask, weight, captured on O, captured on E) for the given
    masks (default: every subset, in increasing order): one Fraction weight
    lam^|I| (1-p)^{e(I)} per subset, e(I) counted over every vertex's
    neighbours, and captured_on_side per trace; the second route to
    model.subset_sweep."""
    lam, surv = params.lam, 1 - params.p
    captured = functools.cache(
        lambda trace, side: captured_on_side(g, trace, side))
    for mask in range(1 << g.n) if masks is None else masks:
        inside = sum(popcount(g.adj_mask[v] & mask)
                     for v in iter_bits(mask)) // 2
        yield (mask, lam ** popcount(mask) * surv ** inside,
               captured(mask & g.side_O_mask, "O"),
               captured(mask & g.side_E_mask, "E"))


def fraction_measure(g: BipartiteGraph, params, kind: str):
    """The measure table `kind` ("mu", "mu_hat" or "mu_hat_star") as an
    {outcome: probability} dict in increasing mask order, with its
    normalizer: fraction_sweep's weights added up as Fractions; the second
    route to the measure tables."""
    weights = {}
    for mask, w, on_o, on_e in fraction_sweep(g, params):
        if kind == "mu":
            weights[mask] = w
        elif kind == "mu_hat":
            weights[mask] = (on_o + on_e) * w
        else:
            weights[(mask, "O")] = on_o * w
            weights[(mask, "E")] = on_e * w
    total = sum(weights.values(), Fraction(0))
    return {key: w / total for key, w in weights.items()}, total


def fraction_tv(a, b) -> Fraction:
    """(1/2) sum over outcomes of |a - b|, summed over the two tables' Fraction
    probabilities; the second route to model.tv_distance."""
    return sum((abs(p - b.probs[key]) for key, p in a.probs.items()),
               Fraction(0)) / 2


def brute_independent_set_count(g: BipartiteGraph) -> int:
    count = 0
    for mask in range(1 << g.n):
        ok = True
        for u, v in g.edges():
            if (mask >> u) & 1 and (mask >> v) & 1:
                ok = False
                break
        if ok:
            count += 1
    return count


def brute_independent_set_sum(nbr, weights, allowed: int):
    """Sum over every subset I of `allowed` with no v in I adjacent (under
    nbr, self bits ignored) to another vertex of I, of prod weights[v]."""
    total = 0
    sub = allowed
    while True:
        if all(not (nbr[v] & sub & ~(1 << v)) for v in range(len(nbr))
               if (sub >> v) & 1):
            term = 1
            for v in range(len(nbr)):
                if (sub >> v) & 1:
                    term *= weights[v]
            total += term
        if sub == 0:
            return total
        sub = (sub - 1) & allowed


def masks_to_tuples(masks) -> list[tuple[int, ...]]:
    return [bits(m) for m in masks]


def brute_two_linked_components(g: BipartiteGraph, xs) -> list[tuple[int, ...]]:
    xs = sorted(set(xs))
    if not xs:
        return []
    parent = {v: v for v in xs}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in combinations(xs, 2):
        du = set(g.adj[u])
        if v in du or du & set(g.adj[v]):
            parent[find(u)] = find(v)
    groups: dict[int, list[int]] = {}
    for v in xs:
        groups.setdefault(find(v), []).append(v)
    return sorted(tuple(sorted(grp)) for grp in groups.values())


def brute_captured(g: BipartiteGraph, i_verts, side_vertices) -> bool:
    """Capture test from the definitions: every maximal 2-linked component of
    the side trace must have closure at most (3/4) * |side|, compared as
    Fractions rather than through closure_cutoff's floor."""
    trace = [v for v in i_verts if v in set(side_vertices)]
    for comp in brute_two_linked_components(g, trace):
        cl = brute_closure(g, comp, side_vertices)
        if Fraction(len(cl)) > Fraction(3, 4) * len(side_vertices):
            return False
    return True


def brute_connected(k: int, edges) -> bool:
    """Whether the edges connect all k vertices, by union-find."""
    parent = list(range(k))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in edges:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(k)}) == 1


def brute_ursell(k: int, edges) -> Fraction:
    """Ursell function from its definition: the sum of (-1)^|E'| over every
    edge subset E' that connects all k vertices, divided by k!. Repeated
    edges collapse. Exponential in the edge count; keep k tiny."""
    edge_list = sorted({(min(u, v), max(u, v)) for u, v in edges})
    total = sum((-1) ** r for r in range(len(edge_list) + 1)
                for chosen in combinations(edge_list, r)
                if brute_connected(k, chosen))
    return Fraction(total, math.factorial(k))


def expanded_ursell(family, chosen) -> Fraction:
    """Ursell function of the incompatibility graph on the expanded tuple:
    one vertex per polymer copy, edges between incompatible entries, copies
    of the same polymer always incompatible. `chosen` pairs family indices
    with multiplicities."""
    expanded = [idx for idx, mult in chosen for _ in range(mult)]
    _check_ursell_size(len(expanded))
    return _ursell([sum(1 << b for b, j in enumerate(expanded)
                        if b != a and family.incompatible[i] >> j & 1)
                    for a, i in enumerate(expanded)])


def walk_clusters(family, k_max: int):
    """Yield (chosen, Cluster) for every cluster of total size at most
    k_max, as clusters._clusters emits them, rebuilding each visited
    multiset's expanded graph, Ursell value and orderings from scratch. The
    former library walk, kept as the second route to the one that carries
    them down the walk, bounded by graphs.WALK_CEILING as it is."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    cap = graphs.WALK_CEILING
    polys = family.polymers
    sizes = [p.size for p in polys]
    fitting = [[j for j, s in enumerate(sizes) if s <= r]
               for r in range(k_max + 1)]
    visited = 0

    def extend(start: int, chosen: list[tuple[int, int]], size: int):
        nonlocal visited
        if chosen:
            visited += 1
            if visited > cap:
                graphs.refuse(f"the cluster walk to size {k_max}", visited,
                              cap, "multisets", "at least")
            value = expanded_ursell(family, chosen)
            if value:
                orderings = math.factorial(sum(m for _, m in chosen)) // \
                    math.prod(math.factorial(m) for _, m in chosen)
                yield chosen, Cluster(
                    entries=tuple((polys[i], m) for i, m in chosen),
                    size=size, orderings=orderings, ursell_value=value,
                    family=family)
        candidates = fitting[k_max - size]
        for j in candidates[bisect_left(candidates, start):]:
            mult = 1
            while size + mult * sizes[j] <= k_max:
                yield from extend(j + 1, chosen + [(j, mult)],
                                  size + mult * sizes[j])
                mult += 1

    return extend(0, [], 0)


def decorated_weight(g: BipartiteGraph, params, a, b) -> Fraction:
    """Weight of a decorated polymer (A, B) with B inside N(A):

        lambda^(|A|+|B|) * (1-p)^{e(A,B)} / (1+lambda)^{|N(A)|}.
    """
    a = as_mask(a)
    b = as_mask(b)
    boundary = neighborhood(g, a)
    if b & ~boundary:
        bad = bits(b & ~boundary)[0]
        raise ValueError(f"decoration vertex {bad} lies outside N(A)")
    lam = params.lam
    surv = 1 - params.p
    cross = sum(popcount(g.adj_mask[v] & a) for v in iter_bits(b))
    w = lam ** (popcount(a) + popcount(b))
    if cross:
        w *= surv ** cross
    return w / (1 + lam) ** popcount(boundary)


def fraction_polymer_weight(g: BipartiteGraph, params, a) -> Fraction:
    """The polymer weight by one Fraction multiply and divide per boundary
    vertex v of A:

        lambda^|A| * prod_{v in N(A)} (1 + lambda (1-p)^{deg_A(v)}) / (1 + lambda);

    the former library route, kept as the second route to the integer
    weight kernel."""
    a = as_mask(a)
    lam = params.lam
    surv = 1 - params.p
    w = lam ** popcount(a)
    one_plus = 1 + lam
    for v in iter_bits(neighborhood(g, a)):
        deg = popcount(g.adj_mask[v] & a)
        w *= (1 + lam * surv ** deg)
        w /= one_plus
    return w


def fraction_z_psi(family, params) -> Fraction:
    """The former audit.z_psi: lambda^|psi| (1 + lambda (1-p)^|psi|)^d
    summed member by member in Fractions."""
    lam = params.lam
    surv = 1 - params.p
    total = Fraction(0)
    for ps in family.subsets:
        k = len(ps)
        total += lam ** k * (1 + lam * surv ** k) ** family.d
    return total


def fraction_configuration_at(family, x: Fraction):
    """The compatible configuration of the PolymerFamily whose weight
    interval holds x, 0 <= x < Xi, by the same bisection as
    PolymerFamily.configuration_at over the Fraction Xi table: with
    y = Xi(R) + 1 - x, the first position j with Xi(R above j) < y is the
    lowest chosen polymer, and x moves to (Xi(R from j) - y) / w_j inside
    j's compatible extensions. The former library route, kept as the
    second route to the integer walk."""
    table = family.table
    rest = (1 << len(family.polymers)) - 1
    if not 0 <= x < table[rest]:
        raise ValueError(f"x must lie in [0, Xi), got {x}")
    config = []
    while x >= 1:
        y = table[rest] + 1 - x
        lo, hi = 0, rest.bit_length()
        while hi - lo > 1:  # Xi(rest from lo) >= y > Xi(rest from hi)
            mid = (lo + hi) // 2
            if table[rest >> mid << mid] >= y:
                lo = mid
            else:
                hi = mid
        config.append(family.polymers[lo])
        x = (table[rest >> lo << lo] - y) / family.weights[lo]
        rest = (rest >> hi << hi) & ~family.incompatible[lo]
    return tuple(config)


class ListMuHatSampler:
    """MuHatSampler's draws from stored lists: every compatible
    configuration of both sides with its weight scaled to an integer by
    the lcm of the denominators, picked by a linear scan, with each 128-bit
    word taken as two Generator.integers outputs, low half first."""

    def __init__(self, g: BipartiteGraph, params):
        self.g = g
        self.params = params
        self.configs = {}
        self.config_weights = {}
        xi = {}
        for side in ("O", "E"):
            configs = enumerate_compatible_configs(g, side, params)
            denom = math.lcm(*(w.denominator for _, w in configs))
            self.configs[side] = configs
            self.config_weights[side] = [int(w * denom) for _, w in configs]
            xi[side] = sum((w for _, w in configs), Fraction(0))
        side_denom = math.lcm(xi["O"].denominator, xi["E"].denominator)
        self.side_weights = [int(xi[s] * side_denom) for s in ("O", "E")]

    def draw(self, seed: int, k: int = 0) -> tuple[int, str]:
        gen = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=seed, spawn_key=(k,))))

        def word() -> int:
            lo, hi = gen.integers(0, 1 << 64, size=2, dtype=np.uint64)
            return (int(hi) << 64) | int(lo)

        def pick(weights) -> int:
            target = (word() * sum(weights)) >> 128
            acc = 0
            for idx, w in enumerate(weights):
                acc += w
                if target < acc:
                    return idx
            raise AssertionError("target past the total weight")

        def bernoulli(r: Fraction) -> bool:
            return word() * r.denominator < r.numerator << 128

        side = ("O", "E")[pick(self.side_weights)]
        config, _ = self.configs[side][pick(self.config_weights[side])]
        lam = self.params.lam
        surv = 1 - self.params.p
        i_mask = 0
        covered = 0
        for poly in config:
            i_mask |= poly.vertices
            covered |= poly.boundary
            for v in iter_bits(poly.boundary):
                top = lam * surv ** popcount(self.g.adj_mask[v] & poly.vertices)
                if bernoulli(top / (1 + top)):
                    i_mask |= 1 << v
        pool = self.g.side_mask(self.g.other_side(side)) & ~covered
        for v in iter_bits(pool):
            if bernoulli(lam / (1 + lam)):
                i_mask |= 1 << v
        return i_mask, side


# The hand-derived second expansion terms of the example families at
# fugacity 1, each a case analysis of its own codegree structure; the
# library's one histogram formula, formulas.l2_codegree, replaced them.
# Inside the regime l2_regime_report checks, each is the cluster sum L_2.

def l2_torus_bracket(m: int, t: int, p) -> Fraction:
    """The even torus of side m in dimension t."""
    p = Fraction(p)
    q2 = (2 - p) / 2
    r = (1 + (1 - p) ** 2) / 2
    bracket = -(2 * t * t + 1) * q2 ** 4 + 2 * t * q2 ** 2 * r \
        + 2 * t * (t - 1) * r ** 2
    return Fraction(m ** t, 4) * q2 ** (4 * t - 4) * bracket


def l2_middle_layer(d: int, p) -> Fraction:
    """The middle layer graph of the (2d-1)-cube."""
    p = Fraction(p)
    q2 = (2 - p) / 2
    return Fraction(1, 8) * math.comb(2 * d - 1, d - 1) * \
        q2 ** (2 * (d - 1)) * ((d - 1) * d * p * p - (2 - p) ** 2)


def l2_kss_product(s: int, t: int, p) -> Fraction:
    """The t-fold Cartesian power of K_{s,s}, as the three-case sum over
    size-2 clusters."""
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
    """The t-dimensional hypercube:
    2^t ((2-p)/2)^{2t} (a(p) binom(t,2) - 1/4)."""
    p = Fraction(p)
    q2 = (2 - p) / 2
    return 2 ** t * q2 ** (2 * t) * \
        (hypercube_a(p) * math.comb(t, 2) - Fraction(1, 4))
