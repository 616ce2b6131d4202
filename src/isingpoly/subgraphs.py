"""The one subgraph sum of both percolation routes: b^n Z_H(lambda) for the
edge subgraphs H of one graph, with one memo shared across the subgraphs.

model.percolation_expectation_exact sums it over all 2^|E| subgraphs and
model.percolation_mc over its distinct samples. Both import this module on
first use, as they do philox, so the package's import and the set-ups that
do not percolate do not load it. Neither route caps the vertex count: the
memo's bytes are the budget, refused past graphs.BYTE_CEILING.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from . import graphs
from .graphs import charge_bytes, entry_bytes, iter_bits

if TYPE_CHECKING:
    from .graphs import BipartiteGraph
    from .model import ModelParams

# The memo and the step table are dropped before a subgraph once the memo
# holds more than this many states. Sub-results are shared between nearby
# edge masks, so a fresh memo loses little: caps of 2^14 and 2^16 ran the
# exact sweep at the same speed on Q3, C12 and K4,4, and 2^12 took up to
# 1.8x as long. The memo is most of the routes' memory: on 2,000 Q4
# samples, percolation_mc's peak RSS grew by 1.3 MB at 2^14 and 7 MB at
# 2^16 over a fresh table per sample.
_MEMO_CAP = 1 << 14


def subgraph_z(g: BipartiteGraph, params: ModelParams) -> Callable[[int], int]:
    """Edge mask sub -> b^n Z(lambda = a/b), an int, of the subgraph H of g
    that keeps edge t of g.edges() for each bit t of sub. It is F_H(V),
    F_H(S) being b^|S| times graphs.independent_set_table's sum over S at
    weight lambda, so that on the lowest vertex j of S

        F_H(S) = b F_H(S-j) + a b^|N| F_H(S-j-N),  N = N_H(j) & S.

    F_H(S) depends only on the edges of H inside S, so one memo serves
    every subgraph asked for: a state is keyed by S | h << n, h being H's
    edge mask restricted to S, and the children drop from the key the
    vertex j with its edges, then also N with its edges. A table keyed by
    j's bit and H's edges at j in S gives each step's N-dropping mask and
    a b^|N|, built on first use.

    Sharing is local: masks that agree on the edges among the high
    vertices, which the deep states see, share those states. With edges in
    lexicographic order, the exact sweep's increasing masks change those
    edges least often. Random samples share fewer states: enough on
    sparse graphs such as Q4 for the memo to pay, while on dense ones such
    as K13,13 the carried edge mask, O(degree) per new step, costs more
    than the sharing saves. As old states are seldom met again, the memo
    and the table are dropped before a subgraph once the memo passes
    _MEMO_CAP states: each never holds more than the cap plus one
    subgraph's states. A subgraph whose states take the memo past
    graphs.BYTE_CEILING, charged as graphs.independent_set_table charges
    its memo, raises BudgetError."""
    ceiling = graphs.BYTE_CEILING
    checkpoint = 0  # the entry count past which the memo is charged again
    n = g.n
    edges = list(g.edges())
    a, b = params.lam.numerator, params.lam.denominator
    inc = [0] * n
    for t, (u, v) in enumerate(edges):
        inc[u] |= 1 << t
        inc[v] |= 1 << t
    # the key bits of vertex j and its edges; key & around[j] is j's bit
    # with H's edges at j inside S, the step table's key
    around = [1 << j | inc[j] << n for j in range(n)]
    full = (1 << n) - 1
    memo = {0: 1}
    steps: dict[int, tuple[int, int]] = {}

    def step(at: int, j: int) -> tuple[int, int]:
        nbrs = 0
        for t in iter_bits(at >> n):
            u, v = edges[t]
            nbrs |= 1 << (u + v - j)
        dropped = nbrs
        for w in iter_bits(nbrs):
            dropped |= inc[w] << n
        return ~dropped, a * b ** nbrs.bit_count()

    def scaled_z(sub: int) -> int:
        nonlocal memo, steps, checkpoint
        if len(memo) > _MEMO_CAP:
            memo, steps = {0: 1}, {}
        get = memo.get
        top = full | sub << n
        stack = [top] if top else []
        while stack:
            key = stack[-1]
            j = (key & -key).bit_length() - 1
            at = key & around[j]
            without = key ^ at
            f_without = get(without)
            if f_without is None:
                stack.append(without)
                continue
            known = steps.get(at)
            if known is None:
                known = steps[at] = step(at, j)
            keep, coef = known
            within = without & keep
            f_within = get(within)
            if f_within is None:
                stack.append(within)
                continue
            memo[key] = b * f_without + coef * f_within
            if len(memo) > checkpoint:
                checkpoint = charge_bytes("the subgraph memo", len(memo),
                                          entry_bytes(key, memo[key]),
                                          ceiling)
            stack.pop()
        return memo[top]
    return scaled_z
