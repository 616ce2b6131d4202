"""The capture-based approximate measure and its exact sampler.

mu is the true Gibbs measure over independent-set configurations. mu-hat
reweights by which sides capture a configuration; the total variation
distance between them is computable exactly at desk scale. The sampler
draws from the side-annotated variant mu-hat-star and stores no table:
each draw reads the first n + 4 outputs of a Philox stream keyed by
(seed, draw index), picks a side, walks that side's integer Xi table to a
polymer configuration (PolymerFamily.configuration_at) and fills in the
rest vertex by vertex, so runs are reproducible and embarrassingly parallel.
The script checks the draws against the exact mu-hat-star table.
"""

from collections import Counter
from fractions import Fraction as F

from isingpoly import (
    ModelParams,
    MuHatSampler,
    build_cycle,
    mu_hat_star_table,
    mu_hat_table,
    mu_table,
    tv_distance,
)


def main():
    g = build_cycle(6)
    params = ModelParams(lam=F(1, 2), p=F(1))
    print(f"{g.label}, lambda = {params.lam}, p = {params.p} (hard-core)\n")

    mu = mu_table(g, params)
    mu_hat = mu_hat_table(g, params)
    tv = tv_distance(mu, mu_hat)
    print(f"TV(mu, mu-hat) = {tv} = {float(tv):.6f}")

    heaviest = sorted(mu.probs.items(), key=lambda kv: -kv[1])[:4]
    print("\nheaviest configurations under mu:")
    for mask, prob in heaviest:
        print(f"  mask {mask:06b}  mu = {prob}  mu-hat = "
              f"{mu_hat.probs[mask]}")

    draws = 20_000
    sampler = MuHatSampler(g, params)
    counts = Counter(sampler.draw(seed=123, k=i) for i in range(draws))
    table = mu_hat_star_table(g, params)
    support = set(counts) | {k for k, v in table.probs.items() if v > 0}
    emp_tv = sum(abs(F(counts.get(key, 0), draws)
                     - table.probs.get(key, F(0)))
                 for key in support) / 2
    print(f"\nsampler vs its target over {draws} draws (seed 123):")
    print(f"  empirical TV = {float(emp_tv):.4f}")
    print(f"  draw 0 repeats exactly: "
          f"{sampler.draw(123, 0) == sampler.draw(123, 0)}")


if __name__ == "__main__":
    main()
