"""isingpoly benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 27 --trace 0

Run from the repository root; the package is imported from ./src. A run
sets up (several fresh-interpreter set-ups are timed for setup_s), then
makes passes over the workload's fixed job list, at least two, then more
until --seconds is spent.
One client, one job at a time, each job waiting for the previous one
(a closed loop). Every job's output is checked after it is timed; a wrong
output or an exception counts as failed and the run carries on.

Times are reported in reference seconds: scaled by how long a fixed
reference run took during the run (see reference_loop and reference_spawn).
The raw seconds are printed above the result line and kept in the trace
file.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The failure share is
failed / attempted; it is not a metric, because it reads 0 on a correct
commit.

--trace 0 reports the end-to-end metrics, from untraced passes:

* wall_s: one pass over the job list, as the sum of each job's median over
  the run's passes.
* cpu_s: user + system CPU of the same, CLI children included.
* setup_s: the cold import of isingpoly (isingpoly.cli for cli) plus graph
  builds and build-once objects such as MuHatSampler; the median over
  SETUP_PROBES fresh interpreters (setup_probe.py).
* peak_rss_mb: this process's peak resident memory for the in-process
  workloads, checks included (they hash outputs as a stream, so they add
  little to it); for cli, the largest peak of a single CLI child. The
  harness's reference and set-up children never count.

--trace 1 traces every pass and reports the per-layer metrics, as medians
over the passes. A layer the workload does not reach reads 0.

* <module>.*_s: time in one group of public calls; the other <module>.*
  names are counts (polymers, clusters, swept subgraphs, draws, ...).
* <module>.self_s: span time minus the time of child spans, per module.
* cli.cold_s.<job>: one cold `python -m isingpoly.cli` run.
  cli.main_s.<job>: the same argv through an in-process main(), with the
  library calls inside it traced by module. These come from the untimed
  check phase. Interpreter and argparse start-up is
  cli.cold_s - cli.import_s - cli.main_s.
* trace.wall_s, trace.covered_frac, trace.uncovered_s: the traced job time
  and how much of it the layer spans cover.
* trace.overhead_s: the job-phase spans of a pass (trace.spans) times the
  cost of one span over the untraced no-op span, timed in the same run.
* bench.reference_s: the median raw time of the workload's reference, which
  gives the machine's speed during the run.

The spans are written to perfbench/out/trace-<workload>-seed<n>.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
# two passes even when one fills --seconds: a median needs two, and the
# second pass settles the allocator, so peak memory does not depend on
# whether it ran
MIN_PASSES = 2
SETUP_PROBES = 7
PROBES_PER_PASS = 2
PROBE_TIMEOUT_S = 60
# The wall times of the two reference runs (see reference_loop and
# reference_spawn) on the 2-vCPU Xeon VM the baseline was taken on, at
# Python 3.11. They only fix the unit of every reported time.
LOOP_REFERENCE_S = 0.075
SPAWN_REFERENCE_S = 0.2
# The loop runs before every job; the costlier spawn reference before a job
# only once this many seconds have passed since the last one.
SPAWN_EVERY_S = 1.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cpu_seconds() -> float:
    """User + system CPU of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def reference_loop() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed computation in this file's own code,
    the same kind of work isingpoly does: Fraction arithmetic in a dict of
    int-keyed states, then an integer loop.

    The shared machine's speed drifts by a third over minutes, and wall and
    CPU time drift together. A reference of the same kind of work runs
    between jobs (see run_pass), and the run's times are scaled by its
    nominal time over the median of its times, which cancels most of the
    drift between runs. A single reference time is noisy, so the median
    needs many of them. The garbage collector is off during the loop, so
    collections over the heap that earlier jobs left alive cannot slow it:
    no change to isingpoly can move a reference.
    """
    from fractions import Fraction

    enabled = gc.isenabled()
    gc.disable()
    try:
        w0, c0 = time.perf_counter(), time.process_time()
        half, lam = Fraction(1, 2), Fraction(3, 2)
        states = {0: Fraction(1)}
        for i in range(12):
            nxt: dict = {}
            for s, w in states.items():
                k = s & 0x3FF
                nxt[k] = nxt.get(k, 0) + w
                k = (s | (1 << (i % 10))) & 0x3FF
                nxt[k] = nxt.get(k, 0) + w * lam * half ** (s & 7).bit_count()
            states = nxt
        acc = 0
        for i in range(300_000):
            acc += (i * 2654435761) & 0xFFFF
        return time.perf_counter() - w0, time.process_time() - c0
    finally:
        if enabled:
            gc.enable()


def reference_spawn() -> tuple[float, float]:
    """Wall and CPU seconds of a fresh interpreter that imports isingpoly's
    dependencies but nothing of isingpoly: the reference for cold CLI runs
    and set-up, whose time the loop above does not track."""
    from workloads import child_env

    c0 = cpu_seconds()
    w0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c",
         "import argparse, csv, fractions, json, mpmath, numpy"],
        cwd=ROOT, env=child_env(), capture_output=True, check=True,
        timeout=PROBE_TIMEOUT_S)
    return time.perf_counter() - w0, cpu_seconds() - c0


def environment() -> dict:
    import mpmath
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "mpmath": mpmath.__version__,
            "commit": commit(), "loadavg_start": os.getloadavg()}


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def probe_setup(workload: str) -> dict:
    from workloads import child_env

    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload], cwd=ROOT,
        env=child_env(), capture_output=True, text=True, check=True,
        timeout=PROBE_TIMEOUT_S)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pass(wl, ctx, tr, expected, refs=None, reference=reference_loop,
             every: float = 0.0) -> list[dict]:
    """One pass over the job list. A job's wall and CPU time cover its
    calls into the package only; its check runs after, untimed. A cold
    job's record keeps its child's peak memory. With
    `refs`, `reference` runs before the first job, before any job that
    starts `every` seconds after the last reference, and after the last
    job; its times are appended there."""
    from workloads import digest, gate

    results: dict = {}
    records = []
    last_ref = -math.inf
    for job in wl.jobs:
        if refs is not None and time.perf_counter() - last_ref >= every:
            refs.append(reference())
            last_ref = time.perf_counter()
        error = None
        with tr.span(f"bench.job[{job.name}]"):
            c0 = cpu_seconds()
            w0 = time.perf_counter()
            try:
                value = job.run(ctx, tr)
            except Exception as exc:  # a failed job is counted, not fatal
                error = f"raised {type(exc).__name__}: {exc}"
            wall = time.perf_counter() - w0
            cpu = cpu_seconds() - c0
        got = None
        child_kb = 0
        if error is None:
            child_kb = getattr(value, "maxrss_kb", 0)
            results[job.name] = value
            try:
                with tr.span(f"bench.check[{job.name}]"):
                    payload, problems = job.check(ctx, value, results, tr)
                got = digest(payload)
                problems += gate(wl.name, job, ctx.seed, got, expected)
            except Exception as exc:  # a failed check is counted, not fatal
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            problems = [error]
        for problem in problems:
            print(f"FAIL {wl.name}/{job.name}: {problem}", file=sys.stderr)
        records.append({"job": job.name, "wall": wall, "cpu": cpu,
                        "child_rss_kb": child_kb, "digest": got,
                        "problems": problems})
    if refs is not None:
        refs.append(reference())
    return records


def run_passes(wl, ctx, seconds: float, trace: bool, expected, between,
               reference, every: float):
    """At least MIN_PASSES passes, then more until the next one would end
    after `seconds`, calling `between()` after each; with tracing, every
    pass is traced."""
    from spans import NullTracer, Tracer

    tracer = Tracer() if trace else NullTracer()
    passes = []
    start = time.perf_counter()
    while True:
        tracer.pass_index = len(passes)
        t0 = time.perf_counter()
        refs: list[tuple[float, float]] = []
        jobs = run_pass(wl, ctx, tracer, expected, refs, reference, every)
        passes.append({"jobs": jobs, "refs": refs,
                       "wall": sum(j["wall"] for j in jobs),
                       "cpu": sum(j["cpu"] for j in jobs)})
        between()
        took = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + took > seconds:
            return passes, tracer


def high_percentile(samples: list[float]):
    """(percentile, value) for the highest percentile with at least ten
    samples beyond it, or None when there are too few samples."""
    n = len(samples)
    if n < 20:
        return None
    pct = int(100 * (1 - 10 / n))
    return pct, statistics.quantiles(samples, n=100)[pct - 1]


def describe(name: str, samples: list[float]) -> str:
    hi = high_percentile(samples)
    tail = f"p{hi[0]} {hi[1]:.6g}" if hi else "no percentile with 10 samples beyond"
    shown = " ".join(f"{x:.6g}" for x in samples)
    return (f"{name}: median {statistics.median(samples):.6g}, {tail}, "
            f"n={len(samples)} [{shown}]")


def per_layer_metrics(names, passes, tracer, probes, scale, setup_scale,
                      per_span_s: float) -> dict:
    """Every per-layer metric, as the median over the traced passes (set-up
    phases as the median over the probes). Times are scaled to reference
    seconds like the end-to-end ones. A layer the workload does not reach
    reads 0. The tracing overhead of a pass is its job-phase spans times
    `per_span_s`, the cost of one span over an untraced pass's no-op one."""
    from spans import summarize_pass

    flat = []
    for i in range(len(passes)):
        s = summarize_pass([sp for sp in tracer.spans if sp.pass_index == i])
        d: dict = dict(s["counts"])
        d.update(s["metrics"])
        for layer, value in s["layer_self"].items():
            d[f"{layer}.self_s"] = value
        for kind in ("cold", "main"):
            d[f"cli.{kind}_s"] = sum(v for k, v in s["metrics"].items()
                                     if k.startswith(f"cli.{kind}_s."))
        d["trace.wall_s"] = s["job_wall"]
        d["trace.uncovered_s"] = s["job_wall"] - s["covered"]
        d["trace.overhead_s"] = s["job_spans"] * per_span_s
        d["trace.spans"] = s["job_spans"]
        d = {k: v * scale if k.endswith("_s") or "_s." in k else v
             for k, v in d.items()}
        if d.get("model.draws"):
            d["model.draw_us"] = d["model.draw_s"] / d["model.draws"] * 1e6
        d["trace.covered_frac"] = s["covered"] / s["job_wall"]
        flat.append(d)
    out = {}
    for name in names:
        if name in probes[0]:
            out[name] = statistics.median(p[name] for p in probes) * setup_scale
        else:
            out[name] = statistics.median(d.get(name, 0) for d in flat)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "isingpoly" / "__init__.py").is_file():
        print(f"run.py: no isingpoly package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("ISINGPOLY_BUDGET", None)
    import isingpoly

    if Path(isingpoly.__file__).resolve().parent != (SRC / "isingpoly").resolve():
        print(f"run.py: imported isingpoly from {isingpoly.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from spans import NullTracer, span_cost

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    env = environment()
    expected = workloads.load_expected()

    ctx = workloads.Ctx(args.seed, wl.inputs(args.seed), wl.setup(NullTracer()))
    probes: list[dict] = []
    spawn_refs: list[tuple[float, float]] = []

    def probe(upto: int) -> None:
        while len(probes) < min(upto, SETUP_PROBES):
            probes.append(probe_setup(wl.name))
            spawn_refs.append(reference_spawn())

    if wl.cold:
        reference, nominal, every = reference_spawn, SPAWN_REFERENCE_S, SPAWN_EVERY_S
    else:
        reference, nominal, every = reference_loop, LOOP_REFERENCE_S, 0.0
    # spread the set-up probes over the run, so a slow spell of the machine
    # does not land on all of them
    passes, tracer = run_passes(wl, ctx, args.seconds, bool(args.trace),
                                expected,
                                lambda: probe(len(probes) + PROBES_PER_PASS),
                                reference, every)
    probe(SETUP_PROBES)
    env["loadavg_end"] = os.getloadavg()

    # the run's times in reference seconds, by the median reference run
    refs = [r for p in passes for r in p["refs"]]
    if wl.cold:
        refs += spawn_refs
    scale = nominal / statistics.median(r[0] for r in refs)
    cpu_scale = nominal / statistics.median(r[1] for r in refs)
    setup_scale = SPAWN_REFERENCE_S / statistics.median(r[0] for r in spawn_refs)

    jobs = [j for p in passes for j in p["jobs"]]
    failed = sum(1 for j in jobs if j["problems"])
    setups = [p["setup_s"] for p in probes]

    def typical_pass(key: str) -> float:
        """A pass made of each job's median over the passes, so a slow spell
        during one job of one pass does not move it."""
        return sum(statistics.median(p["jobs"][i][key] for p in passes)
                   for i in range(len(wl.jobs)))

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        per_span_s = span_cost()
        values = per_layer_metrics(names, passes, tracer, probes, scale,
                                   setup_scale, per_span_s)
        values["bench.reference_s"] = statistics.median(r[0] for r in refs)
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        if wl.cold:
            peak_kb = max(j["child_rss_kb"] for j in jobs)
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {"wall_s": typical_pass("wall") * scale,
                  "cpu_s": typical_pass("cpu") * cpu_scale,
                  "setup_s": statistics.median(setups) * setup_scale,
                  "peak_rss_mb": peak_kb / 1024}

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  jobs attempted {len(jobs)}  failed {failed}  "
          f"fail_frac {failed / len(jobs):.6g}")
    print("environment " + json.dumps(env))
    print(describe(f"{reference.__name__} s", [r[0] for r in refs]))
    print(describe("reference_spawn s (next to set-up)",
                   [r[0] for r in spawn_refs]))
    print(f"reference scale {scale:.6g} (wall), {cpu_scale:.6g} (cpu), "
          f"{setup_scale:.6g} (set-up)")
    print(describe("raw wall_s of passes", [p["wall"] for p in passes]))
    print(describe("raw cpu_s of passes", [p["cpu"] for p in passes]))
    print(describe("raw setup_s of fresh interpreters", setups))
    for job in wl.jobs:
        print(describe(f"  job {job.name} wall_s",
                       [j["wall"] for j in jobs if j["job"] == job.name]))
    for name in names:
        print(f"{name} = {values[name]:.6g} {units[name]}")
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json"
        tracer.write(path, {"workload": wl.name, "seed": args.seed,
                            "environment": env, "metrics": values,
                            "scale": scale, "setup_scale": setup_scale,
                            "per_span_s": per_span_s,
                            "spawn_refs": spawn_refs,
                            "passes": [{k: p[k] for k in (
                                "wall", "cpu", "refs")} for p in passes]})
        print(f"spans written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(jobs), "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
