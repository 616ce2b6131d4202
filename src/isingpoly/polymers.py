"""Polymers on one side of a bipartite graph, their exact weights, the
brute-force polymer partition function, and container-style set families.

A polymer on side D is a 2-linked subset A of D whose closure [A] (the
same-side vertices whose whole neighborhood lies inside N(A)) occupies at
most a rho fraction of D. Weights depend on the model parameters through
lambda and the edge-survival factor 1-p; everything here is an exact
Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache

from . import graphs
from .graphs import (
    BipartiteGraph,
    BudgetError,
    as_mask,
    bits,
    closure,
    independent_set_table,
    is_two_linked,
    iter_bits,
    neighborhood,
    popcount,
    two_linked_components,
    two_linked_sets,
)
from .rationals import format_rational

DEFAULT_RHO = Fraction(3, 4)
# Polymer families with more members than this get no incompatibility
# masks: at 2^15 polymers the masks alone can take 128 MiB.
FAMILY_MASK_CAP = 1 << 15
LITERAL_BOUNDARY_CAP = 20


def closure_cutoff(g: BipartiteGraph, rho) -> int:
    """floor(rho * |side|), the largest closure a polymer may have. Closure
    sizes are ints, so comparing them with this int decides exactly what
    comparing them with rho * |side| does. rho is validated first, once per
    (|side|, rho): the capture test calls this on every set it tests."""
    if not isinstance(rho, Fraction):
        rho = Fraction(rho)
    return _closure_limit(g.n // 2, rho.numerator, rho.denominator)


@lru_cache(maxsize=256)
def _closure_limit(half: int, num: int, den: int) -> int:
    if not Fraction(1, 2) < Fraction(num, den) < 1:
        raise ValueError(f"rho must lie strictly between 1/2 and 1, "
                         f"got {Fraction(num, den)}")
    return num * half // den


class Polymer:
    """A 2-linked set on one side together with its closure and boundary.

    Immutable, and equal to a polymer with the same four fields. Written
    out rather than a generated data class, whose module import and class
    build cost every cold CLI run several milliseconds.
    """

    __slots__ = ("side", "vertices", "closure", "boundary")

    def __init__(self, side: str, vertices: int, closure: int, boundary: int):
        _set_side(self, side)
        _set_vertices(self, vertices)
        _set_closure(self, closure)
        _set_boundary(self, boundary)

    def __setattr__(self, name, value):
        raise AttributeError(f"Polymer is immutable; cannot set {name}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.vertices == other.vertices and self.side == other.side
                and self.closure == other.closure
                and self.boundary == other.boundary)

    @property
    def size(self) -> int:
        return popcount(self.vertices)

    def vertex_tuple(self) -> tuple[int, ...]:
        return bits(self.vertices)


# the slots' own setters, which fill a Polymer past its __setattr__ without
# object.__setattr__'s lookup of the slot by name
_set_side, _set_vertices, _set_closure, _set_boundary = [
    vars(Polymer)[name].__set__ for name in Polymer.__slots__]


def is_polymer_union(g: BipartiteGraph, part: int, side: str,
                     limit: int) -> bool:
    """The one polymer test: True iff every maximal 2-linked component of
    the side's vertex mask `part` has at most `limit` (closure_cutoff)
    closure vertices, i.e. part is a union of compatible polymers."""
    for comp in two_linked_components(g, part):
        if popcount(closure(g, comp, side=side)) > limit:
            return False
    return True


def enumerate_polymers(g: BipartiteGraph, side: str, rho=DEFAULT_RHO,
                       size_max: int | None = None):
    """Yield every polymer on the side with at most size_max vertices.

    size_max defaults to floor(rho * |side|), which covers all polymers
    since |A| <= |[A]|. A default of 0 leaves no polymer at all (a polymer's
    closure holds at least A), so nothing is yielded; an explicit size_max
    below 1 is refused. Emission follows the lexicographic order of the
    sorted vertex tuples.
    """
    cutoff = closure_cutoff(g, rho)
    if size_max is None:
        if cutoff < 1:
            return
        size_max = cutoff
    if size_max < 1:
        raise ValueError(f"size max must be >= 1, got {size_max}")
    side_m = g.side_mask(side)
    for a in two_linked_sets(g, side_m, side_m, size_max):
        cl = closure(g, a, side=side)
        if popcount(cl) <= cutoff:
            yield Polymer(side=side, vertices=a, closure=cl,
                          boundary=neighborhood(g, a))


def _vertices_of(a) -> int:
    if isinstance(a, Polymer):
        return a.vertices
    return as_mask(a)


def _weight_parts(g: BipartiteGraph, params, a: int) -> tuple[int, int]:
    """The polymer weight of the vertex mask a as an unreduced integer pair
    (num, den). With lambda = s/t, 1-p = c/e and k_v = deg_A(v),

        num = s^|A| * prod_{v in N(A)} (t e^k_v + s c^k_v)
        den = t^|A| * (s+t)^|N(A)| * e^(sum of k_v)

    c = e - r for p = r/e. One bit loop builds N(A) and a second tallies it
    by k_v, so the product takes one integer power per distinct k_v and no
    gcd. Every boundary vertex has k_v >= 1, so at p = 1 (c = 0) its factor
    is t e^k_v."""
    s, t = params.lam.numerator, params.lam.denominator
    c, e = params.p.denominator - params.p.numerator, params.p.denominator
    adj, boundary, rest = g.adj_mask, 0, a
    while rest:
        low = rest & -rest
        boundary |= adj[low.bit_length() - 1]
        rest ^= low
    tally: dict[int, int] = {}  # k -> boundary vertices with k_v = k
    rest = boundary = boundary & ~a
    while rest:
        low = rest & -rest
        k = (adj[low.bit_length() - 1] & a).bit_count()
        tally[k] = tally.get(k, 0) + 1
        rest ^= low
    num = s ** a.bit_count()
    den = t ** a.bit_count() * (s + t) ** boundary.bit_count()
    for k, count in tally.items():
        num *= (t * e ** k + s * c ** k) ** count
        den *= e ** (k * count)
    return num, den


def polymer_weight(g: BipartiteGraph, params, a) -> Fraction:
    """Exact polymer weight by the per-boundary-vertex product:

        omega(A) = lambda^|A| * prod_{v in N(A)} (1 + lambda (1-p)^{deg_A(v)}) / (1 + lambda)

    where deg_A(v) counts v's neighbors inside A, computed in integers by
    _weight_parts and reduced once. Agrees with the literal sum over
    decorations B (see polymer_weight_literal).
    """
    return Fraction(*_weight_parts(g, params, _vertices_of(a)))


def polymer_weight_literal(g: BipartiteGraph, params, a) -> Fraction:
    """Test oracle: the defining sum over every decoration B inside N(A) of
    lambda^(|A|+|B|) (1-p)^{e(A,B)} / (1+lambda)^{|N(A)|}.

    Visits all 2^|N(A)| decorations one by one, tallying them by
    (|B|, e(A,B)) so the Fraction arithmetic happens once per tally bucket
    rather than once per decoration. Never uses the product factorization.
    """
    a = _vertices_of(a)
    boundary = bits(neighborhood(g, a))
    nb = len(boundary)
    if nb > LITERAL_BOUNDARY_CAP:
        raise BudgetError(f"literal weight sweeps 2^{nb} decorations, "
                          f"cap is 2^{LITERAL_BOUNDARY_CAP}")
    degs = [popcount(g.adj_mask[v] & a) for v in boundary]
    size = [0] * (1 << nb)
    cross = [0] * (1 << nb)
    tally: dict[tuple[int, int], int] = {(0, 0): 1}
    for sub in range(1, 1 << nb):
        low = sub & -sub
        prev = sub ^ low
        k = size[prev] + 1
        c = cross[prev] + degs[low.bit_length() - 1]
        size[sub] = k
        cross[sub] = c
        tally[(k, c)] = tally.get((k, c), 0) + 1
    lam = params.lam
    surv = 1 - params.p
    total = Fraction(0)
    for (k, c), count in tally.items():
        term = count * lam ** k
        if c:
            if surv == 0:
                continue
            term *= surv ** c
        total += term
    return total * lam ** popcount(a) / (1 + lam) ** nb


def weight_bound_check(g: BipartiteGraph, params, a) -> bool:
    """True iff omega(A) <= lambda^|A| * alpha_tilde^(-|N(A)|), exactly.

    alpha_tilde = (1+lambda)/(1+lambda(1-p)), so the right side equals the
    weight a polymer would have if every boundary vertex saw only one
    polymer vertex; extra internal edges only shrink the weight.
    """
    a = _vertices_of(a)
    num, den = _weight_parts(g, params, a)
    lam, at = params.lam, params.alpha_tilde
    size, nb = popcount(a), popcount(neighborhood(g, a))
    # num/den against lambda^size / alpha_tilde^nb, cross-multiplied
    return num * lam.denominator ** size * at.numerator ** nb <= \
        den * lam.numerator ** size * at.denominator ** nb


def compatible(g: BipartiteGraph, a, b) -> bool:
    """Two same-side polymers are compatible iff their union is not
    2-linked. Same-side vertices lie at even distance, so that union is
    2-linked iff A meets B or N(A) meets N(B); A and N(B) lie on opposite
    sides, so this holds iff the footprints A | N(A) and B | N(B) meet.

    Anti-reflexive: a polymer is incompatible with itself (A union A = A is
    2-linked). Raises ValueError if the arguments live on different sides,
    or if a raw mask is not 2-linked (a Polymer is by construction).
    """
    if isinstance(a, Polymer) and isinstance(b, Polymer):
        if a.side != b.side:
            raise ValueError(f"polymers on different sides: {a.side} vs {b.side}")
        return not (a.vertices | a.boundary) & (b.vertices | b.boundary)
    am = _vertices_of(a)
    bm = _vertices_of(b)
    for m in (am, bm):
        if m & g.side_E_mask and m & g.side_O_mask:
            raise ValueError("polymer vertices straddle both sides")
    if (am & g.side_E_mask and bm & g.side_O_mask) or (
            am & g.side_O_mask and bm & g.side_E_mask):
        raise ValueError("polymers on different sides")
    for x, m in ((a, am), (b, bm)):
        if not isinstance(x, Polymer) and not is_two_linked(g, m):
            raise ValueError(f"not a 2-linked set: {bits(m)}")
    return not (am | neighborhood(g, am)) & (bm | neighborhood(g, bm))


class _Reduced(dict):
    """An unreduced integer pair -> its Fraction, built on a missing key."""

    __slots__ = ()

    def __missing__(self, pair: tuple[int, int]) -> Fraction:
        value = self[pair] = Fraction(*pair)
        return value


class PolymerFamily:
    """One side's polymer model, built once: the polymers in enumeration
    order, their exact weights, and the incompatibility relation as
    bitmasks (bit i of incompatible[j] is set iff polymers i and j are
    incompatible; every polymer is incompatible with itself).

    As in compatible, two polymers conflict iff their footprints A | N(A)
    meet, so each mask ORs, over the polymer's footprint, the polymers whose
    footprint holds that vertex. The weights, masks, Xi table and its
    integer copy are built on first use; the masks take up to k^2/8 bytes
    for k polymers, so they are refused above FAMILY_MASK_CAP polymers.
    """

    def __init__(self, g: BipartiteGraph, side: str, params, rho=DEFAULT_RHO,
                 size_max: int | None = None):
        self.polymers = tuple(enumerate_polymers(g, side, rho, size_max=size_max))
        self.graph = g
        self._params = params
        self._weighings: dict = {}  # params -> weighing_at(params)
        self._last = (None, None)  # the params weighing_at read last, and pair

    def weighing_at(self, params) -> tuple[dict[int, tuple[int, int]],
                                           dict[tuple[int, int], Fraction]]:
        """The family's weights at params as the pair (parts, reduced),
        built once per params. parts gives each polymer's weight as the
        (num, den) pair of _weight_parts reduced once per polymer by its
        gcd, keyed by vertex mask. reduced sends an unreduced integer pair
        to its Fraction, built on the first lookup of that pair: weights and
        Cluster.weight read their values there, so each distinct value is
        reduced once per params, and the map holds at most one entry per
        distinct pair asked for, never more than the polymers and clusters
        weighed at params."""
        if params is not self._last[0]:  # hash params only on a change
            if params not in self._weighings:
                parts = {}
                for p in self.polymers:
                    num, den = _weight_parts(self.graph, params, p.vertices)
                    common = math.gcd(num, den)
                    parts[p.vertices] = (num // common, den // common)
                self._weighings[params] = parts, _Reduced()
            self._last = (params, self._weighings[params])
        return self._last[1]

    @cached_property
    def weight_parts(self) -> dict[int, tuple[int, int]]:
        """The parts of weighing_at the family's own params."""
        return self.weighing_at(self._params)[0]

    @cached_property
    def weights(self) -> tuple[Fraction, ...]:
        """Each polymer's weight at the family's own params, in order, read
        from weighing_at's reduced map: polymers of equal weight share one
        Fraction."""
        parts, reduced = self.weighing_at(self._params)
        return tuple([reduced[pair] for pair in parts.values()])

    @cached_property
    def incompatible(self) -> tuple[int, ...]:
        k = len(self.polymers)
        if k > FAMILY_MASK_CAP:
            raise BudgetError(f"incompatibility masks for {k} polymers exceed "
                              f"the cap of {FAMILY_MASK_CAP} polymers")
        feet = [bits(p.vertices | p.boundary) for p in self.polymers]
        holding = [0] * self.graph.n
        for i, foot in enumerate(feet):
            bit = 1 << i
            for v in foot:
                holding[v] |= bit
        incompatible = []
        for foot in feet:
            m = 0
            for v in foot:
                m |= holding[v]
            incompatible.append(m)
        return tuple(incompatible)

    @cached_property
    def table(self) -> dict:
        """Xi of sets of polymers, keyed by index mask, as built for Xi of
        all polymers: a polymer gas is the independent-set polynomial of its
        incompatibility graph, so this is graphs.independent_set_table, the
        sum behind i(G), over the masks, its memo charged against
        graphs.BYTE_CEILING."""
        full = (1 << len(self.polymers)) - 1
        return independent_set_table(self.incompatible, self.weights, full)

    def xi(self) -> Fraction:
        """The polymer partition function: Xi of all polymers."""
        return Fraction(self.table[(1 << len(self.polymers)) - 1])

    @cached_property
    def int_table(self) -> tuple[int, dict]:
        """The Xi table over one common denominator D, as the pair
        (D, {index mask: Xi of the mask times D}), for configuration_at's
        integer walk. D is the lcm of the table's reduced denominators."""
        table = self.table
        scale = math.lcm(*(v.denominator for v in table.values()))
        return scale, {m: v.numerator * (scale // v.denominator)
                       for m, v in table.items()}

    def configuration_at(self, x: tuple[int, int]) -> tuple[Polymer, ...]:
        """The compatible configuration whose weight interval holds the
        point x = num/den, given as the int pair (num, den) with den > 0,
        for 0 <= x < Xi: in enumerate_compatible_configs order,
        configurations tile [0, Xi) with intervals as long as their weights.

        Among the configurations inside an index set R, the empty one holds
        [0, 1) and those with lowest polymer j start at
        Xi(R) + 1 - Xi(R from j). So with y = Xi(R) + 1 - x, j is the first
        position with Xi(R above j) < y, found by bisecting over positions;
        x then falls (Xi(R from j) - y) / w_j into j's extensions inside
        R' = (R above j) minus j's incompatible polymers. Every set read is
        a suffix of a table state or a child of one, so in the table.

        The walk is in integers: it reads int_table, Xi times D, carries
        x D as a pair a / b, compares a table entry T with y D as
        T >= ceil(y D), and divides by w_j through weight_parts.
        """
        num, den = x
        scale, table = self.int_table
        rest = (1 << len(self.polymers)) - 1
        if den <= 0 or not 0 <= num * scale < table[rest] * den:
            raise ValueError(f"x must lie in [0, Xi), got {num}/{den}")
        a, b = num * scale, den
        config = []
        while a >= scale * b:  # x >= 1
            yb = (table[rest] + scale) * b - a  # y D = yb / b
            need = -(-yb // b)  # an int T >= y D iff T >= ceil(y D)
            lo, hi = 0, rest.bit_length()
            while hi - lo > 1:  # Xi(rest from lo) >= y > Xi(rest from hi)
                mid = (lo + hi) // 2
                if table[rest >> mid << mid] >= need:
                    lo = mid
                else:
                    hi = mid
            config.append(self.polymers[lo])
            w_num, w_den = self.weight_parts[config[-1].vertices]
            a, b = (table[rest >> lo << lo] * b - yb) * w_den, b * w_num
            rest = (rest >> hi << hi) & ~self.incompatible[lo]
        return tuple(config)


def xi_brute(g: BipartiteGraph, side: str, params,
             rho=DEFAULT_RHO) -> Fraction:
    """Polymer partition function Xi_D: the sum over all sets of pairwise
    compatible polymers of the product of their weights, including the
    empty configuration (contributing 1)."""
    return PolymerFamily(g, side, params, rho).xi()


def enumerate_compatible_configs(g: BipartiteGraph, side: str, params,
                                 rho=DEFAULT_RHO):
    """All sets of pairwise compatible polymers on the side, with their
    weight products: pairs (tuple of Polymer, Fraction). The empty
    configuration comes first with weight 1. An explicit second route to
    Xi, and the order whose weight intervals tile [0, Xi) in
    PolymerFamily.configuration_at's integer walk.

    graphs.WALK_CEILING bounds both the polymer enumeration and the number
    of configurations stored; past it, BudgetError."""
    cap = graphs.WALK_CEILING
    family = PolymerFamily(g, side, params, rho)
    polys = family.polymers
    weights = family.weights
    # polymers after j that are compatible with j
    later_compatible = [~m & ~((2 << j) - 1)
                        for j, m in enumerate(family.incompatible)]
    out: list[tuple[tuple[Polymer, ...], Fraction]] = []

    def extend(chosen: tuple[int, ...], weight: Fraction, allowed: int) -> None:
        out.append((tuple(polys[i] for i in chosen), weight))
        if len(out) > cap:
            raise BudgetError(f"compatible configurations on side {side} "
                              f"exceed the cap of {cap}")
        rest = allowed
        while rest:
            low = rest & -rest
            rest ^= low
            j = low.bit_length() - 1
            extend(chosen + (j,), weight * weights[j],
                   allowed & later_compatible[j])

    try:
        extend((), Fraction(1), (1 << len(polys)) - 1)
    finally:
        del extend  # a cycle through itself would hold out until a full GC
    return out


def enumerate_g_ab(g: BipartiteGraph, side: str, a: int, b: int):
    """All 2-linked sets A on the side with |[A]| = a and |N(A)| = b, in
    lexicographic order. No rho cutoff applies here. Empty when b < a."""
    if a < 1:
        raise ValueError(f"closure size a must be >= 1, got {a}")
    side_m = g.side_mask(side)
    if b < a:
        return
    for s in two_linked_sets(g, side_m, side_m, a):
        if popcount(closure(g, s, side=side)) == a and \
                popcount(neighborhood(g, s)) == b:
            yield s


def is_psi_approximation(g: BipartiteGraph, side: str, f, h, a, psi: int) -> bool:
    """Check the container conditions for a pair (F, H) against a set A on
    the side: F inside N(A), H containing [A], every H-vertex nearly fully
    matched into F (at least d - psi neighbors), and every opposite-side
    vertex outside F nearly fully matched outside H.
    """
    if not 1 <= psi <= g.d - 1:
        raise ValueError(f"psi must lie in [1, {g.d - 1}], got {psi}")
    side_m = g.side_mask(side)
    other_m = g.side_mask(g.other_side(side))
    f = as_mask(f)
    h = as_mask(h)
    a = as_mask(a)
    if f & ~other_m:
        raise ValueError("F must lie on the side opposite A")
    if h & ~side_m:
        raise ValueError("H must lie on A's side")
    if a & ~side_m:
        raise ValueError("A must lie on the declared side")
    na = neighborhood(g, a)
    cl = closure(g, a, side=side)
    if f & ~na or cl & ~h:
        return False
    need = g.d - psi
    for u in iter_bits(h):
        if popcount(g.adj_mask[u] & f) < need:
            return False
    for v in iter_bits(other_m & ~f):
        if popcount(g.adj_mask[v] & ~h) < need:
            return False
    return True


def approximation_facts(g: BipartiteGraph, side: str, f, h, a, psi: int) -> dict:
    """The two size inequalities any psi-approximation of A must satisfy,
    reported with both sides evaluated:

        |H| <= |F| + (b - a) * psi / (d - psi)
        |E(H, N(A) \\ F)| <= (b - |F|) * psi

    with a = |[A]| and b = |N(A)|.
    """
    f = as_mask(f)
    h = as_mask(h)
    a = as_mask(a)
    na = neighborhood(g, a)
    cl = closure(g, a, side=side)
    a_size = popcount(cl)
    b_size = popcount(na)
    f_size = popcount(f)
    uncovered = na & ~f
    cross = sum(popcount(g.adj_mask[u] & uncovered) for u in iter_bits(h))
    h_bound = Fraction(f_size) + Fraction((b_size - a_size) * psi, g.d - psi)
    return {
        "h_size": popcount(h),
        "h_bound": h_bound,
        "h_ok": Fraction(popcount(h)) <= h_bound,
        "cross_edges": cross,
        "cross_bound": (b_size - f_size) * psi,
        "cross_ok": cross <= (b_size - f_size) * psi,
    }


def polymer_to_json_dict(g: BipartiteGraph, params, p: Polymer) -> dict:
    return {
        "side": p.side,
        "vertices": list(p.vertex_tuple()),
        "closure_size": popcount(p.closure),
        "boundary_size": popcount(p.boundary),
        "weight": format_rational(polymer_weight(g, params, p.vertices)),
    }
