"""Regular bipartite graphs and the vertex-set operations built on them.

Vertices are dense integers 0..n-1. Vertex sets are plain Python ints used
as bitmasks (bit v set means vertex v is in the set); every set-valued
operation accepts either a mask or an iterable of vertices and returns a
mask. Graphs are immutable after construction and safe to share.

The two sides of the bipartition are labelled "E" and "O". For the graph
builders in this module the "E" side is the even-parity side (even popcount
for hypercubes, even coordinate sum for tori and products, the smaller layer
for middle layers), which is the convention the model layer relies on.

Every limit is one of eight ceilings here that no option sets, read as
graphs.NAME when a call starts, and refuse raises every BudgetError in one
shape: "<what> would need <N> <unit>, past the ceiling of <M> <unit>", N
written "about N" if estimated and "at least N" if a count stopped there.
VERTEX_CEILING (vertices) bounds every graph in every subcommand, builders
counting theirs from their parameters. BYTE_CEILING (MB, through
charge_bytes) bounds the memos of isets, the Xi tables and the percolate
routes, zexact's boundary DP, a walk's sets, percolate-mc's samples and
values, and the measure tables. WALK_CEILING (sets) bounds every 2-linked
and cluster walk (in polymers, xi, clusters, audit-kp, sample-muhat,
audit-iso, audit-container and closed-form --verify) and the sweeps of
audit-container; SWEEP_CEILING (vertices) the 2^n sweeps of tv and
audit-nonpolymer; EDGE_SWEEP_CEILING (edges) percolate-exact at 0 < p < 1;
MASK_CEILING (polymers) the masks of xi, clusters, sample-muhat, audit-kp
--mode truncation and closed-form --verify; DECORATION_CEILING (boundary
vertices) the library's polymer_weight_literal; and URSELL_CEILING
(vertices, one per polymer copy) the cluster walks.
"""

from __future__ import annotations

import json
import math
import sys
from itertools import combinations, repeat
from typing import Iterable, Iterator, NoReturn, Sequence

SWEEP_CEILING = 26
# At the ceiling, the sweep over C24's 2^24 subgraphs took 45 s with a
# 19 MB peak RSS on a 2-vCPU Xeon (lambda = 2/3, p = 1/3).
EDGE_SWEEP_CEILING = 24
WALK_CEILING = 1 << 20
# 1 GiB: Torus 12,2's i(G) memo, 4,648,625 entries, runs in 577 MB and
# T10,2's exact_Z at p = 1/2 in 198 MB, while Q6's plan at p = 9/10 and
# Q7's memos are refused.
BYTE_CEILING = 1 << 30
# What a dict entry takes beyond its key and value: a 24-byte entry and its
# index slots, at the table's load factor.
DICT_SLOT_BYTES = 32
# What a list entry takes beyond its object: one pointer.
LIST_SLOT_BYTES = 8
_MB = 1 << 20
# On a 2-vCPU Xeon, Q14 builds in 0.5 s at a 91 MB peak RSS and T128,2 in
# 0.2 s at 59 MB. The densest graph at the ceiling, K8192,8192, took 119 s
# at 1,103 MB; Q15 would take 289 MB and T256,2 606 MB.
VERTEX_CEILING = 1 << 14
MASK_CEILING = 1 << 15  # 2^15 polymers' masks can take 128 MiB
DECORATION_CEILING = 20
URSELL_CEILING = 12  # the recursion takes 3^(k-1) steps on k vertices

class BudgetError(RuntimeError):
    """Raised, by refuse only, when a computation would pass a ceiling."""


def refuse(what: str, need, ceiling, unit: str, bound: str = "") -> NoReturn:
    """Raise BudgetError("<what> would need <bound> <need> <unit>, past
    the ceiling of <ceiling> <unit>"), the bound "about" or "at least"."""
    need = f"{bound} {need}" if bound else need
    raise BudgetError(f"{what} would need {need} {unit}, past the ceiling "
                      f"of {ceiling} {unit}")


class AuditViolation(AssertionError):
    """Raised when an audited inequality fails with its hypotheses holding,
    or when two routes to the same count disagree. Raised explicitly, so
    python -O keeps it."""


class GraphFormatError(ValueError):
    """Raised when serialized graph data violates a structural invariant."""


def as_mask(x) -> int:
    """Normalize a vertex set (mask or iterable of vertices) to a bitmask."""
    if isinstance(x, int):
        if x < 0:
            raise ValueError("vertex-set mask must be nonnegative")
        return x
    mask = 0
    for v in x:
        mask |= 1 << v
    return mask


def bits(mask: int) -> tuple[int, ...]:
    """Sorted tuple of vertices in a mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


_SWAP_01 = str.maketrans("01", "10")


def _lex_key(mask: int) -> str:
    """A sort key that orders nonzero masks as their sorted vertex tuples:
    the bits from vertex 0 up to the top vertex, a vertex held written "0"
    and one missing "1". At the first vertex where two masks differ, the
    one holding it comes first, unless the other has no vertex above it:
    then the other's key, like its tuple, is a proper prefix of the
    holder's."""
    return bin(mask)[:1:-1].translate(_SWAP_01)


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask: int) -> int:
    return mask.bit_count()


class BipartiteGraph:
    """An immutable d-regular bipartite graph on vertices 0..n-1."""

    __slots__ = (
        "n",
        "d",
        "adj",
        "adj_mask",
        "side_E",
        "side_O",
        "side_E_mask",
        "side_O_mask",
        "label",
        "factor_sizes",
        "two_ball",
        "vertex_transitive",
    )

    def __init__(self, n: int, d: int, side_E: Iterable[int],
                 adjacency: Sequence[Iterable[int]], label: str = "",
                 factor_sizes: tuple[int, ...] = ()):
        if n <= 0 or n % 2 != 0:
            raise GraphFormatError(f"vertex count must be positive and even, got {n}")
        _check_vertex_count(n)
        side_E = tuple(sorted(side_E))
        if d < 1:
            raise GraphFormatError(f"degree must be >= 1, got {d}")
        if len(adjacency) != n:
            raise GraphFormatError(
                f"adjacency has {len(adjacency)} rows for {n} vertices")
        e_mask = as_mask(side_E)
        if popcount(e_mask) != len(side_E):
            raise GraphFormatError("side E contains a repeated vertex")
        full = (1 << n) - 1
        if e_mask & ~full:
            bad = bits(e_mask & ~full)[0]
            raise GraphFormatError(f"side E vertex {bad} out of range 0..{n - 1}")
        o_mask = full & ~e_mask
        if popcount(e_mask) != n // 2:
            raise GraphFormatError(
                f"sides must be balanced: |E| = {popcount(e_mask)}, n/2 = {n // 2}")
        adj = []
        adj_mask = []
        for v, nbrs in enumerate(adjacency):
            nbrs = tuple(sorted(nbrs))
            m = as_mask(nbrs)
            if popcount(m) != len(nbrs):
                raise GraphFormatError(f"vertex {v} has a duplicate neighbor")
            if len(nbrs) != d:
                raise GraphFormatError(
                    f"vertex {v} has degree {len(nbrs)}, expected {d}")
            if m & ~full:
                raise GraphFormatError(f"vertex {v} has an out-of-range neighbor")
            own_side = e_mask if (e_mask >> v) & 1 else o_mask
            if m & own_side:
                bad = bits(m & own_side)[0]
                raise GraphFormatError(
                    f"edge ({v}, {bad}) joins two vertices on the same side")
            adj.append(nbrs)
            adj_mask.append(m)
        for v in range(n):
            for u in adj[v]:
                if not (adj_mask[u] >> v) & 1:
                    raise GraphFormatError(
                        f"edge ({v}, {u}) is not symmetric: {v} missing from {u}")
        self.n = n
        self.d = d
        self.adj = tuple(adj)
        self.adj_mask = tuple(adj_mask)
        self.side_E = side_E
        self.side_O = bits(o_mask)
        self.side_E_mask = e_mask
        self.side_O_mask = o_mask
        self.label = label
        # the factor vertex counts of a graph built as a Cartesian product
        self.factor_sizes = factor_sizes
        # per vertex, the mask of vertices at distance 1 or 2 (itself excluded)
        two_ball = []
        for v in range(n):
            m = adj_mask[v]
            for u in adj[v]:
                m |= adj_mask[u]
            two_ball.append(m & ~(1 << v))
        self.two_ball = tuple(two_ball)
        # whether the automorphisms act transitively on the vertices; only
        # the builders set it, since a wrong True would let sweeps skip sets
        self.vertex_transitive = False

    # -- basic queries ----------------------------------------------------

    def side_mask(self, side: str) -> int:
        if side == "E":
            return self.side_E_mask
        if side == "O":
            return self.side_O_mask
        raise ValueError(f"side must be 'E' or 'O', got {side!r}")

    def other_side(self, side: str) -> str:
        if side == "E":
            return "O"
        if side == "O":
            return "E"
        raise ValueError(f"side must be 'E' or 'O', got {side!r}")

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in self.adj[u]:
                if v > u:
                    yield (u, v)

    def edge_count(self) -> int:
        return self.n * self.d // 2

    def two_ball_mask(self, v: int) -> int:
        """Mask of vertices at distance 1 or 2 from v (v itself excluded)."""
        return self.two_ball[v]

    def __eq__(self, other) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (self.n == other.n and self.d == other.d
                and self.side_E_mask == other.side_E_mask
                and self.adj == other.adj)

    def __hash__(self):
        return hash((self.n, self.d, self.side_E_mask, self.adj))

    def __repr__(self):
        tag = self.label or "bipartite"
        return f"<BipartiteGraph {tag} n={self.n} d={self.d}>"


# -- builders --------------------------------------------------------------


def _check_vertex_count(n: int) -> None:
    """Refuse a graph of n or more vertices past VERTEX_CEILING. Builders
    call it on each partial product, so none counts far past the ceiling."""
    ceiling = VERTEX_CEILING
    if n > ceiling:
        refuse("the graph", n, ceiling, "vertices", "at least")


def _check_product_count(sizes: Iterable[int]) -> None:
    """Check the product of sizes as a vertex count, one factor at a time."""
    n = 1
    for size in sizes:
        n *= size
        _check_vertex_count(n)


def build_hypercube(d: int) -> BipartiteGraph:
    """The d-dimensional hypercube: vertices are d-bit strings, edges flip one bit."""
    if d < 1:
        raise ValueError(f"hypercube dimension must be >= 1, got {d}")
    _check_product_count(repeat(2, d))  # before d factors are listed
    g = build_cartesian_product([build_complete_bipartite(1)] * d)
    g.label = f"hypercube:{d}"
    return g


def build_even_torus(m: int, t: int) -> BipartiteGraph:
    """The torus Z_m^t with m even: +-1 mod m in one coordinate, degree 2t."""
    if t < 1:
        raise ValueError(f"torus dimension must be >= 1, got {t}")
    cycle = build_cycle(m)
    _check_product_count(repeat(m, t))  # before t factors are listed
    g = build_cartesian_product([cycle] * t)
    g.label = f"torus:{m},{t}"
    return g


def build_cycle(m: int) -> BipartiteGraph:
    """The even cycle C_m (m even, m >= 4)."""
    if m % 2 != 0:
        raise ValueError(f"side length must be even for bipartiteness, got {m}")
    if m < 4:
        raise ValueError(f"side length must be >= 4, got {m}")
    _check_vertex_count(m)
    adjacency = [((v - 1) % m, (v + 1) % m) for v in range(m)]
    g = BipartiteGraph(m, 2, range(0, m, 2), adjacency, label=f"cycle:{m}")
    g.vertex_transitive = True
    return g


def build_complete_bipartite(s: int) -> BipartiteGraph:
    """K_{s,s}: sides {0..s-1} and {s..2s-1}, every cross pair an edge."""
    if s < 1:
        raise ValueError(f"side size must be >= 1, got {s}")
    _check_vertex_count(2 * s)
    top = list(range(s, 2 * s))
    bottom = list(range(s))
    adjacency = [top] * s + [bottom] * s
    g = BipartiteGraph(2 * s, s, bottom, adjacency, label=f"kss:{s}")
    g.vertex_transitive = True
    return g


def build_cartesian_product(factors: Sequence[BipartiteGraph]) -> BipartiteGraph:
    """Cartesian product: vertices are coordinate tuples, one coordinate moves
    along a factor edge per step. Degree is the sum of factor degrees; sides
    split by the parity of the number of odd-side coordinates."""
    if not factors:
        raise ValueError("product needs at least one factor")
    sizes = [f.n for f in factors]
    _check_product_count(sizes)
    n = math.prod(sizes)
    for i, f in enumerate(factors):
        if not _is_connected(f):
            raise ValueError(f"product factor {i} is not connected")
    weights = []
    w = 1
    for size in reversed(sizes):
        weights.append(w)
        w *= size
    weights.reverse()  # first coordinate most significant
    d = sum(f.d for f in factors)
    adjacency = []
    side_E = []
    for v in range(n):
        coords = []
        r = v
        for wgt in weights:
            coords.append(r // wgt)
            r %= wgt
        odd_count = sum(1 for f, c in zip(factors, coords)
                        if (f.side_O_mask >> c) & 1)
        if odd_count % 2 == 0:
            side_E.append(v)
        nbrs = []
        for i, f in enumerate(factors):
            base = v - coords[i] * weights[i]
            for u in f.adj[coords[i]]:
                nbrs.append(base + u * weights[i])
        adjacency.append(sorted(nbrs))
    label = "product:" + "+".join(f.label or "?" for f in factors)
    g = BipartiteGraph(n, d, side_E, adjacency, label=label,
                       factor_sizes=tuple(sizes))
    # a product of vertex-transitive graphs is vertex-transitive
    g.vertex_transitive = all(f.vertex_transitive for f in factors)
    return g


def build_middle_layer(d: int) -> BipartiteGraph:
    """The middle two layers of the (2d-1)-dimensional hypercube: subsets of
    a (2d-1)-element ground set with d-1 or d elements, joined by inclusion.
    Side E is the (d-1)-layer. The graph is d-regular on 2*C(2d-1, d-1) vertices."""
    if d < 1:
        raise ValueError(f"middle-layer parameter must be >= 1, got {d}")
    ground = 2 * d - 1
    # 2 C(d+i, i) for i = 1..d-1, each an integer and checked as it is made
    n = 2
    for i in range(1, d):
        n = n * (d + i) // i
        _check_vertex_count(n)
    lower = sorted(as_mask(c) for c in combinations(range(ground), d - 1))
    upper = sorted(as_mask(c) for c in combinations(range(ground), d))
    index = {m: i for i, m in enumerate(lower)}
    index.update({m: len(lower) + i for i, m in enumerate(upper)})
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for m in lower:
        i = index[m]
        free = ~m & ((1 << ground) - 1)
        for b in iter_bits(free):
            j = index[m | (1 << b)]
            adjacency[i].append(j)
            adjacency[j].append(i)
    side_E = list(range(len(lower)))
    g = BipartiteGraph(n, d, side_E, [sorted(a) for a in adjacency],
                       label=f"midlayer:{d}")
    # coordinate permutations act transitively on each layer, and
    # complementation swaps the layers
    g.vertex_transitive = True
    return g


def reach(start: int, allowed: int, nbr: Sequence[int]) -> int:
    """Mask of the vertices reachable from the `start` mask by steps along
    nbr (nbr[v] is the mask of v's neighbours) that stay inside `allowed`.
    The start vertices are always included."""
    seen = start
    frontier = start
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            nxt |= nbr[low.bit_length() - 1]
        frontier = nxt & allowed & ~seen
        seen |= frontier
    return seen


# -- the byte ceiling ---------------------------------------------------------


def int_bytes(bits: int) -> int:
    """sys.getsizeof of a nonnegative int of at most `bits` bits, computed
    without building it."""
    digits = max(1, -(-bits // sys.int_info.bits_per_digit))
    return int.__basicsize__ + int.__itemsize__ * digits


def entry_bytes(key, value) -> int:
    """The bytes of one memo entry: its key and its value, an int, a float
    or a Fraction with its two ints, and a dict slot."""
    size = sys.getsizeof(key) + sys.getsizeof(value) + DICT_SLOT_BYTES
    if not isinstance(value, (int, float)):
        size += sys.getsizeof(value.numerator) + sys.getsizeof(value.denominator)
    return size


def charge_bytes(what: str, entries: int, size: int, ceiling: int) -> int:
    """Refuse (BudgetError) `entries` entries of `size` bytes each when they
    pass `ceiling` bytes. Otherwise return a memo's next checkpoint, the
    entry count min(2 entries, ceiling // size) at which it is charged
    again: a memo that grows by entries of this size reaches the ceiling
    only at a checkpoint, and is charged O(log) times as it grows."""
    need = entries * size
    if need > ceiling:
        mb = -(-need // _MB)
        # a 2^n table of a large graph needs more MB than str() writes out
        about = mb if mb < 1 << 64 else f"2^{mb.bit_length() - 1}"
        refuse(what, about, f"{ceiling / _MB:g}", "MB", "about")
    return min(2 * entries, ceiling // size)


def independent_set_table(nbr: Sequence[int], weights: Sequence, allowed: int,
                          memo: dict | None = None):
    """The memo of F(S), the weighted independent-set sum over S: the sum
    over the subsets I of S that are independent under nbr (nbr[v] is the
    mask of v's neighbours, with or without v's own bit) of the product of
    weights[v] over v in I, the empty set counting 1; F(allowed) is
    table[allowed]. A `memo` from an earlier call with the same nbr and
    weights is extended in place. Raises BudgetError once the memo's
    entries, each charged at the size of the one last stored, pass
    BYTE_CEILING.

    F(S) = F(S - j) + w_j F(S - j - nbr[j]) for the lowest vertex j of S,
    evaluated with an explicit stack over one memo so the depth does not
    grow with the vertex count. A state pushes its missing children one at
    a time, so a child is never pushed twice: the two children coincide
    when j has no neighbour left in S.
    """
    ceiling = BYTE_CEILING
    checkpoint = 0  # the entry count past which the memo is charged again
    memo = {0: 1} if memo is None else memo
    get = memo.get
    stack = [allowed] if allowed else []
    while stack:
        rem = stack[-1]
        low = rem & -rem
        j = low.bit_length() - 1
        without = rem ^ low
        f_without = get(without)
        if f_without is None:
            stack.append(without)
            continue
        within = without & ~nbr[j]
        f_within = get(within)
        if f_within is None:
            stack.append(within)
            continue
        memo[rem] = f_without + weights[j] * f_within
        if len(memo) > checkpoint:
            checkpoint = charge_bytes("the independent-set memo", len(memo),
                                      entry_bytes(rem, memo[rem]), ceiling)
        stack.pop()
    return memo


def _is_connected(g: BipartiteGraph) -> bool:
    full = (1 << g.n) - 1
    return reach(1, full, g.adj_mask) == full


# -- set operations --------------------------------------------------------


def neighborhood(g: BipartiteGraph, x) -> int:
    """External neighborhood N(X): vertices outside X adjacent to some vertex of X."""
    x = as_mask(x)
    m = 0
    for v in iter_bits(x):
        m |= g.adj_mask[v]
    return m & ~x


def closure(g: BipartiteGraph, a, side: str) -> int:
    """Closure [A] on side ("E" or "O"): all vertices v of that side with
    N(v) a subset of N(A). A must be nonempty and contained in the side.
    """
    a = as_mask(a)
    if a == 0:
        raise ValueError("closure of the empty set is undefined")
    side_m = g.side_mask(side)
    if a & ~side_m:
        bad = bits(a & ~side_m)[0]
        raise ValueError(f"vertex {bad} is not on side {side}")
    adj_mask = g.adj_mask
    # every vertex has a neighbour, so one whose neighbours all lie in N(A)
    # shares one with A: only A's 2-ball is scanned, not the whole side
    na = 0
    near = a
    for v in iter_bits(a):
        na |= adj_mask[v]
        near |= g.two_ball[v]
    outside = ~na
    out = 0
    for v in iter_bits(near & side_m):
        if not adj_mask[v] & outside:
            out |= 1 << v
    return out


def is_two_linked(g: BipartiteGraph, a) -> bool:
    """True iff A is connected in the square graph (distance <= 2 adjacency)."""
    a = as_mask(a)
    if a == 0:
        raise ValueError("2-linkedness of the empty set is undefined")
    return reach(a & -a, a, g.two_ball) == a


def two_linked_components(g: BipartiteGraph, x) -> list[int]:
    """Maximal 2-linked components of X, as masks, ordered by smallest vertex."""
    rest = as_mask(x)
    comps = []
    while rest:
        comp = reach(rest & -rest, rest, g.two_ball)
        comps.append(comp)
        rest &= ~comp
    return comps


def two_linked_sets(g: BipartiteGraph, starts: int, allowed: int,
                    size_max: int) -> list[int]:
    """Every 2-linked set of at most size_max vertices inside `allowed` that
    contains a vertex of `starts`, each exactly once, sorted
    lexicographically by vertex tuple.

    One extend/ban search runs per start vertex v, in increasing order, and
    never adds v's lower start vertices, so a set is found only from its
    smallest start vertex. Aborts with BudgetError once more than
    WALK_CEILING sets are found, or once the sets found pass BYTE_CEILING,
    each charged with its sort key and two list slots (the list's and the
    sort's) at the size of the one last found.
    """
    cap, ceiling = WALK_CEILING, BYTE_CEILING
    checkpoint = 0  # the set count past which the walk is checked again
    ball = g.two_ball
    found: list[int] = []
    below = 0
    for v in iter_bits(starts):
        # (set, its size, vertices it may not add, the set's 2-ball)
        stack = [(1 << v, 1, below, ball[v])]
        while stack:
            s_mask, size, banned, near = stack.pop()
            found.append(s_mask)
            if len(found) > checkpoint:
                if len(found) > cap:
                    refuse(f"the 2-linked enumeration to size {size_max}",
                           len(found), cap, "sets", "at least")
                held = (sys.getsizeof(s_mask) + sys.getsizeof(_lex_key(s_mask))
                        + 2 * LIST_SLOT_BYTES)
                checkpoint = min(cap, charge_bytes(
                    "the 2-linked enumeration", len(found), held, ceiling))
            if size == size_max:
                continue
            for u in iter_bits(near & allowed & ~s_mask & ~banned):
                stack.append((s_mask | 1 << u, size + 1, banned,
                              near | ball[u]))
                banned |= 1 << u
        below |= 1 << v
    found.sort(key=_lex_key)  # as key=bits, with a key built in C
    return found


def enumerate_two_linked(g: BipartiteGraph, v: int,
                         ell_max: int) -> Iterator[int]:
    """All 2-linked sets of size <= ell_max containing v, each exactly once.

    Emission order is lexicographic in the sorted vertex tuple. Aborts with
    BudgetError as two_linked_sets does.
    """
    if ell_max < 1:
        raise ValueError(f"ell_max must be >= 1, got {ell_max}")
    return iter(two_linked_sets(g, 1 << v, (1 << g.n) - 1, ell_max))


def codegree(g: BipartiteGraph, u: int, v: int) -> int:
    """Number of common neighbors of two distinct vertices."""
    if u == v:
        raise ValueError("codegree requires two distinct vertices")
    return popcount(g.adj_mask[u] & g.adj_mask[v])


def max_codegree(g: BipartiteGraph) -> int:
    """Maximum codegree over all distinct vertex pairs.

    Cross-side pairs have codegree 0 in a bipartite graph, so only same-side
    pairs are scanned.
    """
    best = 0
    for side in (g.side_E, g.side_O):
        for u, v in combinations(side, 2):
            c = popcount(g.adj_mask[u] & g.adj_mask[v])
            if c > best:
                best = c
    return best


# -- serialization ----------------------------------------------------------


def graph_json_chunks(g: BipartiteGraph) -> Iterator[str]:
    """Canonical JSON in pieces: sorted sides, edges sorted as (u, v) pairs
    with u < v. Joined, the pieces are json.dumps of {"n", "d", "side_O",
    "side_E", "edges": [[u, v], ...]}. The edges come one vertex's at a
    time, so neither the text nor a list per edge is ever held whole: the
    2^26 edges of K8192,8192 take about 1 GB of text."""
    head = json.dumps({"n": g.n, "d": g.d, "side_O": list(g.side_O),
                       "side_E": list(g.side_E)})
    yield head[:-1] + ', "edges": ['
    sep = ""
    for u, nbrs in enumerate(g.adj):
        row = ", ".join([f"[{u}, {v}]" for v in nbrs if v > u])
        if row:
            yield sep + row
            sep = ", "
    yield "]}"


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def graph_from_json(text: str) -> BipartiteGraph:
    """Parse and fully validate the JSON graph format.

    Every violation, malformed JSON and wrongly typed fields included, is
    rejected with a GraphFormatError naming the offending item; a graph past
    VERTEX_CEILING vertices, with a BudgetError.
    """
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise GraphFormatError(
            f"expected a JSON object, got {type(payload).__name__}")
    for key in ("n", "d", "side_O", "side_E", "edges"):
        if key not in payload:
            raise GraphFormatError(f"missing field {key!r}")
    n = payload["n"]
    d = payload["d"]
    side_O = payload["side_O"]
    side_E = payload["side_E"]
    if not _is_int(n) or not _is_int(d):
        raise GraphFormatError("n and d must be integers")
    for key in ("side_O", "side_E", "edges"):
        if not isinstance(payload[key], list):
            raise GraphFormatError(f"{key} must be a list, got "
                                   f"{type(payload[key]).__name__}")
    for v in side_E + side_O:
        if not _is_int(v):
            raise GraphFormatError(f"vertex {v!r} is not an integer")
    if len(side_E) + len(side_O) != n:
        raise GraphFormatError(f"sides hold {len(side_E) + len(side_O)} "
                               f"vertices but n = {n}")
    seen = set(side_E)
    for v in side_O:
        if v in seen:
            raise GraphFormatError(f"vertex {v} appears on both sides")
        seen.add(v)
    if seen != set(range(n)):
        missing = sorted(set(range(n)) - seen)
        extra = sorted(seen - set(range(n)))
        what = missing[0] if missing else extra[0]
        raise GraphFormatError(f"sides do not partition 0..{n - 1}: check vertex {what}")
    adjacency: list[list[int]] = [[] for _ in range(n)]
    seen_edges = set()
    for e in payload["edges"]:
        if not (isinstance(e, list) and len(e) == 2):
            raise GraphFormatError(f"malformed edge entry {e!r}")
        u, v = e
        if not (_is_int(u) and _is_int(v)):
            raise GraphFormatError(f"edge {e!r} has a non-integer endpoint")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge ({u}, {v}) has an out-of-range endpoint")
        key = (min(u, v), max(u, v))
        if key in seen_edges:
            raise GraphFormatError(f"duplicate edge ({u}, {v})")
        seen_edges.add(key)
        adjacency[u].append(v)
        adjacency[v].append(u)
    return BipartiteGraph(n, d, side_E, adjacency)
