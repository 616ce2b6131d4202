"""Walk through the percolation identity on a few small graphs.

The partition function Z(lambda, p) has a second life: open each edge
independently with probability p, count the independent sets of the open
subgraph at activity lambda, and average. Both routes are exact here (a
boundary dynamic program for Z, a sweep over all 2^|E| subgraphs for the
average), so the comparison is equality, not approximation. A seeded
Monte Carlo estimate of the same average is shown last.
"""

from fractions import Fraction as F

from isingpoly import (
    ModelParams,
    build_cycle,
    build_hypercube,
    exact_Z,
    percolation_expectation_exact,
    percolation_mc,
)


def main():
    params = ModelParams(lam=F(1), p=F(1, 2))
    print(f"lambda = {params.lam}, p = {params.p}\n")

    for g in (build_cycle(4), build_cycle(6), build_hypercube(3)):
        z = exact_Z(g, params)
        perc = percolation_expectation_exact(g, params)
        print(f"{g.label}: Z = {z}, percolation average = {perc}, "
              f"equal: {z == perc}")

    print()
    g = build_hypercube(3)
    exact = percolation_expectation_exact(g, params)
    mean, stderr = percolation_mc(g, params, samples=100_000, seed=2024)
    sigmas = abs(mean - float(exact)) / stderr
    print(f"{g.label} Monte Carlo, 10^5 samples, seed 2024:")
    print(f"  exact    {float(exact):.6f}  ({exact})")
    print(f"  estimate {mean:.6f} +- {stderr:.6f}  ({sigmas:.2f} stderr off)")

    # same seed, same bits: each block of samples has its own Philox key
    again, _ = percolation_mc(g, params, samples=100_000, seed=2024)
    print(f"  reproducible: {mean == again}")


if __name__ == "__main__":
    main()
