"""The benchmark's four workloads: their build-once set-up, their fixed job
lists, and the check every job's output must pass.

Each job times only calls into isingpoly's public functions, inside spans
named after the module that owns the function. Its check runs afterwards,
untimed, in two ways:

* the job's exact outputs (Fractions as "p/q" strings, draws, Monte Carlo
  results, CLI stdout and exit code) are digested and compared with the
  digests in expected.json, recorded from the commit that introduced the
  benchmark. Jobs whose inputs do not depend on the seed are compared on
  every seed; seeded jobs are compared at DEFAULT_SEED;
* an identity that reaches the same value by a second route is checked on
  every seed (the percolation identity, i(G) = Z(1, 1), z-hat against the
  mu-hat normalization, the closed forms against the cluster sums, ...).

The seed reaches the program only as generated inputs: Monte Carlo and
sampler seeds, the random Ursell graphs and the sampled capture masks. Every
seeded input has the same size on every seed, so the work per pass does not
depend on it.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import random
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction as F
from pathlib import Path
from typing import Any, Callable, NamedTuple

import mpmath

import isingpoly as ip
from isingpoly.audit import nonpolymer_weight_report
from isingpoly.formulas import torus_expected_histogram
from isingpoly.model import captured_on_side
from isingpoly.polymers import enumerate_compatible_configs

from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_PATH = HERE / "expected.json"
DEFAULT_SEED = 1

HALF = ip.ModelParams(1, F(1, 2))              # lambda = 1, p = 1/2
EXPANSION = ip.ModelParams(F(1, 2), F(1, 2))   # torus 6,2 expansion terms
HARDCORE_20 = ip.ModelParams(F(1, 20), 1)
HARDCORE_40 = ip.ModelParams(F(1, 40), 1)
Z_Q3_HALF = F(305089, 4096)                    # Z(Q3, 1, 1/2), as in the README

URSELL_SHAPES = ((5, 7), (6, 10), (7, 13))     # (vertices, edges)
URSELL_PER_SHAPE = 16
CAPTURE_MASKS = 4000
DRAWS = 20_000
REDRAWS = 32
MC_SAMPLES = 2000
CLI_TIMEOUT_S = 60
# A Monte Carlo mean must lie within this many standard errors of the exact
# value; the sampler's mean size within MEAN_SIGMAS of its exact mean.
MC_SIGMAS = 4
MEAN_SIGMAS = 5


@dataclass
class Ctx:
    """What the jobs of one run share: seeded inputs, the objects set-up
    built, and harness-side values kept across passes."""

    seed: int
    inputs: dict
    built: dict
    memo: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[Ctx, Any], Any]
    # (ctx, output, earlier outputs of this pass, tracer) -> (payload, problems)
    check: Callable[[Ctx, Any, dict, Any], tuple[Any, list[str]]]
    seeded: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[Any], dict]
    inputs: Callable[[int], dict]
    jobs: tuple[Job, ...]
    # jobs run in fresh interpreters: memory is the children's, and time is
    # scaled by the interpreter-start reference rather than the loop
    cold: bool = False


# -- digests and seeds -----------------------------------------------------------


def canon(x):
    """A JSON-ready rendering that keeps every digit of exact values."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, F):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, mpmath.mpf):
        sign, man, exp, bc = x._mpf_
        return f"mpf:{sign}:{int(man)}:{exp}:{bc}"
    if isinstance(x, ip.Polymer):
        return x.vertices
    if isinstance(x, dict):
        return {str(k): canon(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    raise TypeError(f"cannot digest {type(x).__name__}")


def _leaf(x) -> str:
    if isinstance(x, F):
        return f'"{x.numerator}/{x.denominator}"'
    return json.dumps(canon(x))


def _pieces(x):
    """The text of json.dumps(canon(x), sort_keys=True, separators=(",", ":")),
    piece by piece, without building canon(x) or the whole text."""
    if isinstance(x, dict):
        yield "{"
        sep = ""
        for k, v in sorted({str(k): v for k, v in x.items()}.items(),
                           key=lambda kv: kv[0]):
            yield f"{sep}{json.dumps(k)}:"
            yield from _pieces(v)
            sep = ","
        yield "}"
    elif isinstance(x, (list, tuple)):
        yield "["
        sep = ""
        for v in x:
            if isinstance(v, (dict, list, tuple)):
                yield sep
                yield from _pieces(v)
            else:
                yield sep + _leaf(v)
            sep = ","
        yield "]"
    else:
        yield _leaf(x)


def digest(payload) -> str:
    """A hash of the canonical JSON text of payload. The text is hashed as
    it is made, so checking a 2^n table costs the harness little memory
    next to the table itself."""
    h = hashlib.sha256()
    buf: list[str] = []
    for piece in _pieces(payload):
        buf.append(piece)
        if len(buf) >= 4096:
            h.update("".join(buf).encode())
            buf.clear()
    h.update("".join(buf).encode())
    return h.hexdigest()[:24]


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def gate(workload: str, job: Job, seed: int, got: str,
         expected: dict | None) -> list[str]:
    """Compare a job's output digest with the recorded one. A missing
    record is a failure; expected=None (recording) compares nothing."""
    if expected is None:
        return []
    key = f"{workload}/{job.name}"
    if job.seeded:
        if seed != expected["seeded"]["seed"]:
            return []
        want = expected["seeded"]["digests"].get(key)
    else:
        want = expected["fixed"].get(key)
    if want is None:
        return [f"no recorded digest for {key}"]
    if got != want:
        return [f"output digest {got} differs from the recorded {want}"]
    return []


def derive(seed: int, label: str) -> int:
    """A 63-bit seed for one consumer, derived from the workload seed."""
    raw = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(raw[:8], "big") >> 1


def _build(tr, built: dict, label: str, builder, *args) -> None:
    with tr.span(f"graphs.{builder.__name__}[{label}]", "graphs.build_s"):
        built[label] = builder(*args)


def _expect(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


# -- exact: the boundary DP for Z and the 2^|E| percolation sweep ------------------


def setup_exact(tr) -> dict:
    built: dict = {}
    _build(tr, built, "Q5", ip.build_hypercube, 5)
    _build(tr, built, "T6,2", ip.build_even_torus, 6, 2)
    _build(tr, built, "Q3", ip.build_hypercube, 3)
    _build(tr, built, "C12", ip.build_cycle, 12)
    return built


def z_job(label: str, sweep_cap: int) -> Job:
    def run(c, tr):
        with tr.span(f"model.exact_Z[{label}]", "model.exact_z_s"):
            return ip.exact_Z(c.built[label], HALF, sweep_cap=sweep_cap)

    def check(c, z, results, tr):
        # no second route reaches n >= 32; the recorded digest is the check
        return z, []

    return Job(f"z_{label}", run, check)


def run_isets_q5(c, tr):
    g = c.built["Q5"]
    with tr.span("model.count_independent_sets[Q5]", "model.isets_s"):
        count = ip.count_independent_sets(g, sweep_cap=32)
    with tr.span("model.exact_Z[Q5,hard-core]", "model.exact_z_s"):
        z = ip.exact_Z(g, ip.ModelParams(1, 1), sweep_cap=32)
    return count, z


def check_isets_q5(c, out, results, tr):
    count, z = out
    problems: list[str] = []
    _expect(problems, z == count, f"i(Q5) = {count} but Z(1, 1) = {z}")
    return out, problems


def percolation_job(label: str) -> Job:
    def run(c, tr):
        g = c.built[label]
        with tr.span(f"model.percolation_expectation_exact[{label}]",
                     "model.perc_exact_s") as s:
            value = ip.percolation_expectation_exact(g, HALF)
            s.count("model.perc_exact_subgraphs", 1 << g.edge_count())
        with tr.span(f"model.exact_Z[{label}]", "model.exact_z_s"):
            z = ip.exact_Z(g, HALF)
        return value, z

    def check(c, out, results, tr):
        value, z = out
        problems: list[str] = []
        _expect(problems, value == z,
                f"percolation identity fails on {label}: {value} != {z}")
        return out, problems

    return Job(f"percolation_{label}", run, check)


# -- expansion: 2-linked sets, polymers, clusters, Xi, closed forms, Ursell -------


def setup_expansion(tr) -> dict:
    built: dict = {}
    _build(tr, built, "T6,2", ip.build_even_torus, 6, 2)
    _build(tr, built, "Q4", ip.build_hypercube, 4)
    _build(tr, built, "C6", ip.build_cycle, 6)
    return built


def inputs_expansion(seed: int) -> dict:
    rng = random.Random(derive(seed, "ursell"))
    graphs = []
    for k, m in URSELL_SHAPES:
        pairs = [(u, v) for u in range(k) for v in range(u + 1, k)]
        for _ in range(URSELL_PER_SHAPE):
            graphs.append((k, sorted(rng.sample(pairs, m))))
    return {"ursell_graphs": graphs}


def run_two_linked(c, tr):
    g = c.built["T6,2"]
    found: list[int] = []
    with tr.span("graphs.enumerate_two_linked[T6,2]",
                 "graphs.two_linked_s") as s:
        for v in g.side_E:
            found.extend(ip.enumerate_two_linked(g, v, 4))
        s.count("graphs.two_linked_sets", len(found))
    return found


def check_two_linked(c, found, results, tr):
    g = c.built["T6,2"]
    problems: list[str] = []
    # a set is reached once from each of its E-vertices
    for s, times in Counter(found).items():
        if times != (s & g.side_E_mask).bit_count() or \
                not ip.is_two_linked(g, s) or s.bit_count() > 4:
            problems.append(f"2-linked set {ip.bits(s)} reached {times} times")
            break
    return found, problems


def run_polymers(c, tr):
    g = c.built["T6,2"]
    with tr.span("polymers.enumerate_polymers[T6,2]",
                 "polymers.enumerate_s") as s:
        polys = list(ip.enumerate_polymers(g, "E", size_max=4))
        s.count("polymers.count", len(polys))
    with tr.span("polymers.polymer_weight[T6,2]", "polymers.weight_s"):
        weights = [ip.polymer_weight(g, EXPANSION, p) for p in polys]
    small = [p for p in polys if p.size <= 3]
    with tr.span("polymers.compatible[T6,2]", "polymers.compatible_s") as s:
        compat = [ip.compatible(g, small[i], small[j])
                  for i in range(len(small))
                  for j in range(i + 1, len(small))]
        s.count("polymers.incompatible_pairs", compat.count(False))
    return polys, weights, compat


def _reach(g, a: int) -> int:
    """a together with every vertex within distance 2 of it."""
    m = a
    for u in ip.bits(a):
        m |= g.two_ball_mask(u)
    return m


def check_polymers(c, out, results, tr):
    g = c.built["T6,2"]
    polys, weights, compat = out
    problems: list[str] = []
    cutoff = ip.DEFAULT_RHO * F(g.n, 2)
    expected = sorted(
        (s for s in set(results["two_linked"])
         if not s & ~g.side_E_mask
         and ip.closure(g, s, side="E").bit_count() <= cutoff),
        key=ip.bits)
    _expect(problems, [p.vertices for p in polys] == expected,
            "polymers differ from the closure-filtered E-side 2-linked sets")
    for p, w in zip(polys, weights):
        if p.size <= 2 and w != ip.polymer_weight_literal(g, EXPANSION, p):
            problems.append(f"weight of {p.vertex_tuple()} differs from the "
                            f"sum over decorations")
            break
    small = [p.vertices for p in polys if p.size <= 3]
    reach = [_reach(g, a) for a in small]
    pairs = ((i, j) for i in range(len(small)) for j in range(i + 1, len(small)))
    for ok, (i, j) in zip(compat, pairs):
        if ok != (not small[j] & reach[i]):
            problems.append(f"compatible({ip.bits(small[i])}, "
                            f"{ip.bits(small[j])}) disagrees with distance")
            break
    payload = {"polymers": list(zip(polys, weights)),
               "compatible": "".join("1" if ok else "0" for ok in compat)}
    return payload, problems


def run_clusters(c, tr):
    g = c.built["T6,2"]
    with tr.span("clusters.enumerate_clusters[T6,2]",
                 "clusters.enumerate_s") as s:
        clusters = ip.enumerate_clusters(g, "E", EXPANSION, k_max=4)
        s.count("clusters.count", len(clusters))
    with tr.span("clusters.Cluster.weight[T6,2]", "clusters.weight_s"):
        weights = [cl.weight(g, EXPANSION) for cl in clusters]
    terms = {k: F(0) for k in range(1, 5)}
    for cl, w in zip(clusters, weights):
        terms[cl.size] += w
    return len(clusters), terms


def check_clusters(c, out, results, tr):
    _, terms = out
    polys, weights, _ = results["polymers"]
    problems: list[str] = []
    singles = sum((w for p, w in zip(polys, weights) if p.size == 1), F(0))
    _expect(problems, terms[1] == singles,
            f"L_1 = {terms[1]} but the size-1 polymer weights sum to {singles}")
    return out, problems


def _size_over_10(size: int) -> F:
    return F(size, 10)


def run_xi_truncation(c, tr):
    out = {}
    for label, params, fg in (("Q4", HARDCORE_20, None),
                              ("C6", HARDCORE_40, _size_over_10)):
        g = c.built[label]
        with tr.span(f"polymers.xi_brute[{label}]", "polymers.xi_s"):
            xi = ip.xi_brute(g, "E", params)
        with tr.span(f"clusters.log_xi_truncation_report[{label}]",
                     "clusters.truncation_s"):
            report = ip.log_xi_truncation_report(
                g, "E", params, k_max=3, f_of_size=fg, g_of_size=fg)
        out[label] = (xi, report)
    return out


def check_xi_truncation(c, out, results, tr):
    problems: list[str] = []
    payload = {}
    for label, (xi, report) in out.items():
        _expect(problems, report["xi"] == xi,
                f"truncation report Xi differs from xi_brute on {label}")
        kp = report["kp"]
        payload[label] = {
            "xi": xi, "log_xi": report["log_xi"], "terms": report["terms"],
            "tail_bounds": report["tail_bounds"],
            "kp": None if kp is None else [kp.holds, kp.lhs, kp.margins]}
    report = out["C6"][1]
    _expect(problems, report["kp"] is not None and report["kp"].holds
            and report.get("tail_shape_ok") is True,
            "convergence condition should hold on C6 at lambda = 1/40")
    if report["tail_bounds"] is not None:
        for term, bound in zip(report["terms"], report["tail_bounds"]):
            _expect(problems, float(term["residual_before"]) <= bound,
                    f"tail bound fails at k = {term['k']} on C6")
    return payload, problems


def run_closed_forms(c, tr):
    g = c.built["T6,2"]
    with tr.span("formulas.l1_closed[T6,2]", "formulas.closed_form_s"):
        l1 = ip.l1_closed(g.n, g.d, EXPANSION.lam, EXPANSION.p)
    with tr.span("formulas.l2_torus[6,2]", "formulas.closed_form_s"):
        l2 = ip.l2_torus(6, 2, HALF.p)
    with tr.span("formulas.l2_regime_report[T6,2]", "formulas.closed_form_s"):
        regime = ip.l2_regime_report(g, "E", torus_expected_histogram(2))
    with tr.span("clusters.l_k[T6,2,k=2,lambda=1]"):
        l2_sum = ip.l_k(g, "E", HALF, k=2)
    return l1, l2, regime["regime_ok"], l2_sum


def check_closed_forms(c, out, results, tr):
    l1, l2, regime_ok, l2_sum = out
    problems: list[str] = []
    l1_sum = results["clusters"][1][1]
    _expect(problems, l1 == l1_sum, f"l1_closed = {l1} but L_1 = {l1_sum}")
    _expect(problems, regime_ok, "torus 6,2 should be inside the L_2 regime")
    _expect(problems, l2 == l2_sum, f"l2_torus = {l2} but L_2 = {l2_sum}")
    return out, problems


def run_ursell(c, tr):
    graphs = c.inputs["ursell_graphs"]
    with tr.span("clusters.ursell[random]", "clusters.ursell_s") as s:
        values = [ip.ursell(k, edges) for k, edges in graphs]
        s.count("clusters.ursell_edge_subsets",
                sum(1 << len(edges) for _, edges in graphs))
    return values


def ursell_by_subsets(k: int, edges) -> F:
    """The Ursell function by the O(3^k) connected-part recursion: with
    f(S) = sum over edge subsets of G[S] of (-1)^|E'| (1 iff S spans no
    edge), the connected part c(S) = f(S) - sum over proper T of S holding
    min(S) of c(T) f(S - T)."""
    adj = [0] * k
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    size = 1 << k
    f = [int(all(not adj[v] & s for v in ip.bits(s))) for s in range(size)]
    conn = [0] * size
    for s in range(1, size):
        low = s & -s
        rest = s ^ low
        total = f[s]
        sub = (rest - 1) & rest if rest else 0
        # T = low | sub over every proper subset sub of rest
        while True:
            t = low | sub
            if t != s:
                total -= conn[t] * f[s ^ t]
            if sub == 0:
                break
            sub = (sub - 1) & rest
        conn[s] = total
    return F(conn[size - 1], math.factorial(k))


def check_ursell(c, values, results, tr):
    graphs = c.inputs["ursell_graphs"]
    problems: list[str] = []
    for (k, edges), value in zip(graphs, values):
        if value != ursell_by_subsets(k, edges):
            problems.append(f"ursell({k}, {edges}) = {value} disagrees with "
                            f"the subset recursion")
            break
    return list(zip(graphs, values)), problems


# -- measures: 2^n tables, the capture test, seeded streams ------------------------


def setup_measures(tr) -> dict:
    built: dict = {}
    _build(tr, built, "Q4", ip.build_hypercube, 4)
    _build(tr, built, "Q3", ip.build_hypercube, 3)
    _build(tr, built, "C12", ip.build_cycle, 12)
    with tr.span("model.MuHatSampler[Q3]", "model.sampler_build_s"):
        built["sampler"] = ip.MuHatSampler(built["Q3"], HALF)
    return built


def inputs_measures(seed: int) -> dict:
    rng = random.Random(derive(seed, "capture"))
    return {"capture_masks": [rng.getrandbits(16) for _ in range(CAPTURE_MASKS)],
            "draw_seed": derive(seed, "draws"),
            "mc_seed": derive(seed, "mc")}


def run_mu_tables(c, tr):
    g = c.built["Q4"]
    with tr.span("model.mu_table[Q4]", "model.mu_table_s") as s:
        mu = ip.mu_table(g, HALF)
        s.count("model.table_entries", len(mu))
    with tr.span("model.mu_hat_table[Q4]", "model.mu_hat_table_s") as s:
        mu_hat = ip.mu_hat_table(g, HALF)
        s.count("model.table_entries", len(mu_hat))
    with tr.span("model.tv_distance[Q4]", "model.tv_s"):
        tv = ip.tv_distance(mu, mu_hat)
    return mu, mu_hat, tv


def _positive_part_tv(a, b) -> F:
    return sum((x - b.probs[k] for k, x in a.probs.items() if x > b.probs[k]),
               F(0))


def check_mu_tables(c, out, results, tr):
    mu, mu_hat, tv = out
    problems: list[str] = []
    direct = _positive_part_tv(mu, mu_hat)
    _expect(problems, tv == direct, f"TV {tv} differs from the direct sum {direct}")
    z = ip.exact_Z(c.built["Q4"], HALF)
    _expect(problems, mu.normalization == z, "mu normalization differs from Z")
    payload = {"tv": tv, "z": mu.normalization, "z_hat": mu_hat.normalization,
               "mu": list(mu.probs.values()),
               "mu_hat": list(mu_hat.probs.values())}
    return payload, problems


def run_z_hat(c, tr):
    g = c.built["C12"]
    with tr.span("model.z_hat_sweep[C12]", "model.z_hat_s"):
        z_hat = ip.z_hat_sweep(g, HALF)
    with tr.span("model.mu_hat_table[C12]", "model.mu_hat_table_s") as s:
        table = ip.mu_hat_table(g, HALF)
        s.count("model.table_entries", len(table))
    return z_hat, table.normalization


def check_z_hat(c, out, results, tr):
    z_hat, norm = out
    problems: list[str] = []
    _expect(problems, z_hat == norm,
            f"z_hat_sweep {z_hat} differs from the mu-hat normalization {norm}")
    return out, problems


def run_nonpolymer(c, tr):
    with tr.span("audit.nonpolymer_weight_report[Q4]", "audit.nonpolymer_s") as s:
        report = nonpolymer_weight_report(c.built["Q4"], HALF)
        s.count("audit.nonpolymer_sets", report["count"])
    return report


def check_nonpolymer(c, report, results, tr):
    g = c.built["Q4"]
    mu, mu_hat, _ = results["mu_tables"]
    problems: list[str] = []
    # at p < 1 every weight is positive, so mu-hat is zero exactly off the
    # sets captured on some side
    missed = [k for k, v in mu_hat.probs.items() if v == 0]
    total = sum((ip.ising_weight(g, HALF, k) for k in missed), F(0))
    _expect(problems, report["count"] == len(missed) and report["total"] == total,
            "non-polymer sets differ from the zeros of the mu-hat table")
    _expect(problems, report["z"] == mu.normalization,
            "non-polymer report Z differs from the mu normalization")
    return report, problems


def run_capture(c, tr):
    g = c.built["Q4"]
    masks = c.inputs["capture_masks"]
    with tr.span("model.captured_on_side[Q4]", "model.capture_s") as s:
        hits = [captured_on_side(g, m, "O") + captured_on_side(g, m, "E")
                for m in masks]
        s.count("model.capture_tests", 2 * len(masks))
    return hits


def check_capture(c, hits, results, tr):
    g = c.built["Q4"]
    _, mu_hat, _ = results["mu_tables"]
    problems: list[str] = []
    for m, h in zip(c.inputs["capture_masks"], hits):
        if mu_hat.probs[m] * mu_hat.normalization != h * ip.ising_weight(g, HALF, m):
            problems.append(f"capture count of mask {m} disagrees with mu-hat")
            break
    return hits, problems


def run_draws(c, tr):
    sampler = c.built["sampler"]
    seed = c.inputs["draw_seed"]
    with tr.span("model.MuHatSampler.draw[Q3]", "model.draw_s") as s:
        draws = [sampler.draw(seed, k) for k in range(DRAWS)]
        s.count("model.draws", len(draws))
    return draws


def _size_moments(table) -> tuple[float, float]:
    mean = sum((p * k[0].bit_count() for k, p in table.probs.items()), F(0))
    var = sum((p * (k[0].bit_count() - mean) ** 2
               for k, p in table.probs.items()), F(0))
    return float(mean), float(var)


def check_draws(c, draws, results, tr):
    g = c.built["Q3"]
    seed = c.inputs["draw_seed"]
    problems: list[str] = []
    for mask, side in set(draws):
        if not captured_on_side(g, mask, side):
            problems.append(f"draw {ip.bits(mask)} on {side} is not captured")
            break
    first = c.memo.setdefault("draws", digest(draws))
    _expect(problems, digest(draws) == first,
            "the same seed gave different draws in another pass")
    fresh = ip.MuHatSampler(g, HALF)
    picks = random.Random(seed).sample(range(DRAWS), REDRAWS)
    _expect(problems, all(fresh.draw(seed, k) == draws[k] for k in picks),
            "a freshly built sampler gave different draws for the same seed")
    if "size_moments" not in c.memo:
        c.memo["size_moments"] = _size_moments(ip.mu_hat_star_table(g, HALF))
    mean, var = c.memo["size_moments"]
    got = sum(mask.bit_count() for mask, _ in draws) / len(draws)
    _expect(problems, abs(got - mean) <= MEAN_SIGMAS * math.sqrt(var / len(draws)),
            f"mean draw size {got} is far from the exact {mean}")
    return draws, problems


def run_percolation_mc(c, tr):
    with tr.span("model.percolation_mc[Q4]", "model.perc_mc_s") as s:
        mean, stderr = ip.percolation_mc(c.built["Q4"], HALF, MC_SAMPLES,
                                         seed=c.inputs["mc_seed"])
        s.count("model.perc_mc_samples", MC_SAMPLES)
    return mean, stderr


def check_percolation_mc(c, out, results, tr):
    mean, stderr = out
    z = float(results["mu_tables"][0].normalization)
    problems: list[str] = []
    _expect(problems, abs(mean - z) <= MC_SIGMAS * stderr,
            f"MC mean {mean} +- {stderr} is far from Z = {z}")
    return out, problems


# -- cli: cold invocations on small inputs ------------------------------------------


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("ISINGPOLY_BUDGET", None)
    return env


def _graph(c, spec: str):
    """A graph the CLI checks recompute on, built once per run."""
    graphs = c.memo.setdefault("graphs", {})
    if spec not in graphs:
        import isingpoly.cli as cli
        graphs[spec] = cli.build_graph_from_spec(spec)
    return graphs[spec]


def _traced_call(fn, tr, name: str, metric: str | None):
    def wrapper(*args, **kwargs):
        with tr.span(name, metric):
            return fn(*args, **kwargs)
    return wrapper


AUDIT_ISO = ("check_property_i", "check_property_ii", "check_product_iso")
AUDIT_KP = ("kp_sum_audit", "log_xi_truncation_report")


@contextlib.contextmanager
def _library_spans(cli, tr, label: str):
    """While tracing, route the library functions cli.py calls through spans
    named after their module. The KP audits live in clusters.py; under the
    audit-kp subcommand they count as the audit layer."""
    if not tr.enabled:
        yield
        return
    saved = {name: obj for name, obj in vars(cli).items()
             if inspect.isfunction(obj) and obj.__module__.startswith("isingpoly.")
             and obj.__module__.rsplit(".", 1)[1] in LAYERS
             and obj.__module__ != cli.__name__}
    try:
        for name, fn in saved.items():
            layer = fn.__module__.rsplit(".", 1)[1]
            metric = None
            if name in AUDIT_ISO:
                metric = "audit.iso_s"
            elif name in AUDIT_KP and label.startswith("audit-kp"):
                layer, metric = "audit", "audit.kp_s"
            setattr(cli, name, _traced_call(fn, tr, f"{layer}.{name}[{label}]",
                                            metric))
        yield
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)


def _main_in_process(args: list[str], tr, label: str) -> tuple[int, str]:
    import isingpoly.cli as cli
    out = io.StringIO()
    with _library_spans(cli, tr, label), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        with tr.span(f"cli.main[{label}]", f"cli.main_s.{label}"):
            code = cli.main(args)
    return code, out.getvalue()


class CliRun(NamedTuple):
    args: list
    code: int
    stdout: str
    # the child's own peak resident set, from wait4: the harness's other
    # children (references, set-up probes) never count toward it
    maxrss_kb: int


def run_cli(args: list[str]) -> CliRun:
    """One cold `python -m isingpoly.cli` run, killed after CLI_TIMEOUT_S."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "isingpoly.cli", *args], cwd=ROOT,
        env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    # reaped by wait4 above; tell Popen so it never waits for the pid again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliRun(args, proc.returncode, stdout, usage.ru_maxrss)


def cli_job(label: str, argv: tuple[str, ...], exit_code: int,
            verify: Callable[[Ctx, list, list], list[str]],
            seeded: bool = False) -> Job:
    def run(c, tr):
        args = [a.format(**c.inputs) for a in argv]
        with tr.span(f"cli.cold[{label}]", f"cli.cold_s.{label}"):
            return run_cli(args)

    def check(c, out, results, tr):
        args, code, stdout, _ = out
        problems: list[str] = []
        _expect(problems, code == exit_code,
                f"exit code {code}, expected {exit_code}")
        verified = c.memo.setdefault("cli_verified", {})
        if label in verified and not tr.enabled:
            # the same argv as a pass whose output passed every check below
            _expect(problems, verified[label] == (code, stdout),
                    "cold run output differs from an earlier pass")
        else:
            _expect(problems,
                    _main_in_process(args, tr, label) == (code, stdout),
                    "in-process main(argv) differs from the cold run")
            problems += verify(c, json.loads(stdout), args)
            if not problems:
                verified.setdefault(label, (code, stdout))
        return {"exit": code, "stdout": stdout}, problems

    return Job(label, run, check, seeded)


def _one(records) -> dict:
    """The single record of a run that emits one JSON object."""
    if isinstance(records, list):
        (records,) = records
    return records


def verify_zexact(c, records, args):
    z = ip.exact_Z(_graph(c, "cycle:6"), HALF)
    return [] if ip.parse_rational(_one(records)["value"]) == z else \
        [f"zexact differs from Z(C6) = {z}"]


def verify_percolate_mc(c, records, args):
    r = _one(records)
    ok = (abs(r["mean"] - float(Z_Q3_HALF)) <= MC_SIGMAS * r["stderr"]
          and r["seed"] == c.inputs["mc_seed"])
    return [] if ok else [f"MC mean {r['mean']} +- {r['stderr']} is far from "
                          f"Z(Q3) = {float(Z_Q3_HALF)}"]


def verify_closed_form(c, records, args):
    r = _one(records)
    return [] if r["match"] is True and r["regime_ok"] is True else \
        ["closed form does not match the cluster sum inside its regime"]


def _xi_q3_by_configs(c) -> F:
    """Xi of Q3's E side at lambda = 1/20, p = 1 as an explicit sum over
    compatible configurations, not xi_brute's memoised recursion."""
    return sum((w for _, w in enumerate_compatible_configs(
        _graph(c, "hypercube:3"), "E", HARDCORE_20)), F(0))


def verify_clusters(c, records, args):
    xi = _xi_q3_by_configs(c)
    ok = [r["k"] for r in records] == [1, 2, 3] and all(
        ip.parse_rational(r["xi"]) == xi for r in records)
    return [] if ok else [f"clusters Xi differs from the configuration sum {xi}"]


def verify_audit_kp(holds: bool):
    def verify(c, records, args):
        ok = bool(records) and all(r["kp_holds"] is holds for r in records)
        if holds:
            ok = ok and all(r["residual_before"] <= r["tail_bound"]
                            for r in records)
        return [] if ok else [f"audit-kp verdict is not kp_holds = {holds}"]
    return verify


def verify_audit_iso(c, records, args):
    return [] if records and all(r.get("holds", True) for r in records) else \
        ["audit-iso reports a failed condition on Q4"]


def verify_tv(c, records, args):
    g = _graph(c, "hypercube:3")
    direct = _positive_part_tv(ip.mu_table(g, HALF), ip.mu_hat_table(g, HALF))
    return [] if ip.parse_rational(_one(records)["tv"]) == direct else \
        [f"tv differs from the direct sum {direct}"]


def verify_sample_muhat(c, records, args):
    g = _graph(c, "hypercube:3")
    seed = int(args[args.index("--seed") + 1])
    samples = int(args[args.index("--samples") + 1])
    sampler = ip.MuHatSampler(g, HALF)
    want = Counter(sampler.draw(seed, k) for k in range(samples))
    got = Counter({(r["mask"], r["side"]): r["count"] for r in records})
    return [] if got == want else \
        ["sample-muhat counts differ from in-process draws with the same seed"]


def verify_xi(c, records, args):
    xi = _xi_q3_by_configs(c)
    return [] if ip.parse_rational(_one(records)["xi"]) == xi else \
        [f"xi differs from the configuration sum {xi}"]


def verify_polymers(c, records, args):
    g = _graph(c, "hypercube:3")
    ok = all(ip.parse_rational(r["weight"]) ==
             ip.polymer_weight_literal(g, HALF, ip.as_mask(r["vertices"]))
             for r in records)
    ok = ok and len(records) == len(list(ip.enumerate_polymers(g, "E",
                                                               size_max=3)))
    return [] if ok else ["polymer weights differ from the decoration sums"]


def verify_isets(c, records, args):
    r = _one(records)
    ok = r["match"] is True and \
        r["count"] == ip.count_independent_sets(_graph(c, "hypercube:4"))
    return [] if ok else ["isets --verify does not match"]


def inputs_cli(seed: int) -> dict:
    return {"mc_seed": derive(seed, "cli-mc"),
            "draw_seed": derive(seed, "cli-draws")}


CLI_JOBS = (
    # the README commands
    cli_job("zexact", ("zexact", "--graph", "cycle:6", "--lambda", "1/1",
                       "--p", "1/2"), 0, verify_zexact),
    cli_job("percolate-mc", ("percolate-mc", "--graph", "hypercube:3",
                             "--lambda", "1", "--p", "1/2", "--samples",
                             "100000", "--seed", "{mc_seed}"), 0,
            verify_percolate_mc, seeded=True),
    cli_job("closed-form", ("closed-form", "--family", "torus", "--m", "6",
                            "--t", "2", "--p", "1/1", "--verify"), 0,
            verify_closed_form),
    cli_job("clusters", ("clusters", "--graph", "hypercube:3", "--lambda",
                         "1/20", "--p", "1", "--k-max", "3"), 0,
            verify_clusters),
    # criterion 8's documented false premise at lambda = 1/10 exits 2
    cli_job("audit-kp.lam1-10", ("audit-kp", "--graph", "cycle:6", "--lambda",
                                 "1/10", "--p", "1", "--mode", "truncation",
                                 "--fg-denom", "10"), 2, verify_audit_kp(False)),
    cli_job("audit-iso", ("audit-iso", "--graph", "hypercube:4", "--property",
                          "one", "--size-cap", "4", "--c1", "2", "--c2", "10",
                          "--c3", "3", "--c4", "1", "--c5", "0.5"), 0,
            verify_audit_iso),
    # the other subcommands
    cli_job("audit-kp.lam1-40", ("audit-kp", "--graph", "cycle:6", "--lambda",
                                 "1/40", "--p", "1", "--mode", "truncation",
                                 "--fg-denom", "10"), 0, verify_audit_kp(True)),
    cli_job("tv", ("tv", "--graph", "hypercube:3", "--lambda", "1", "--p",
                   "1/2"), 0, verify_tv),
    cli_job("sample-muhat", ("sample-muhat", "--graph", "hypercube:3",
                             "--lambda", "1", "--p", "1/2", "--samples", "500",
                             "--seed", "{draw_seed}"), 0, verify_sample_muhat,
            seeded=True),
    cli_job("xi", ("xi", "--graph", "hypercube:3", "--lambda", "1/20", "--p",
                   "1"), 0, verify_xi),
    cli_job("polymers", ("polymers", "--graph", "hypercube:3", "--lambda", "1",
                         "--p", "1/2", "--size-max", "3"), 0, verify_polymers),
    cli_job("isets", ("isets", "--graph", "hypercube:4", "--verify"), 0,
            verify_isets),
)


WORKLOADS = {w.name: w for w in (
    Workload("exact", setup_exact, lambda seed: {}, (
        z_job("Q5", 32),
        z_job("T6,2", 36),
        Job("isets_Q5", run_isets_q5, check_isets_q5),
        percolation_job("Q3"),
        percolation_job("C12"),
    )),
    Workload("expansion", setup_expansion, inputs_expansion, (
        Job("two_linked", run_two_linked, check_two_linked),
        Job("polymers", run_polymers, check_polymers),
        Job("clusters", run_clusters, check_clusters),
        Job("xi_truncation", run_xi_truncation, check_xi_truncation),
        Job("closed_forms", run_closed_forms, check_closed_forms),
        Job("ursell", run_ursell, check_ursell, seeded=True),
    )),
    Workload("measures", setup_measures, inputs_measures, (
        Job("mu_tables", run_mu_tables, check_mu_tables),
        Job("z_hat", run_z_hat, check_z_hat),
        Job("nonpolymer", run_nonpolymer, check_nonpolymer),
        Job("capture", run_capture, check_capture, seeded=True),
        Job("draws", run_draws, check_draws, seeded=True),
        Job("percolation_mc", run_percolation_mc, check_percolation_mc,
            seeded=True),
    )),
    Workload("cli", lambda tr: {}, inputs_cli, CLI_JOBS, cold=True),
)}
