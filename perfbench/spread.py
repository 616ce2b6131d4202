"""Run the benchmark on several seeds and report each end-to-end metric's
median, quartiles and spread (interquartile range over median).

    python3 perfbench/spread.py --workloads exact cli --seeds 10 [--json out.json]

Runs one workload after another, seeds 1..N, with BENCHMARK.json's
run_seconds, from the repository root. A regression gate compares medians;
the spread says how far apart two runs of the same code can land.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


SCALE = re.compile(r"^reference scale (\S+) \(wall\), (\S+) \(cpu\), "
                   r"(\S+) \(set-up\)$", re.M)
REFERENCE = re.compile(r"^reference_loop s: median (\S+),", re.M)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One run's result line, plus its metrics before reference scaling
    and the median in-process reference time (None for cli)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    scales = dict(zip(("wall_s", "cpu_s", "setup_s"),
                      map(float, SCALE.search(proc.stdout).groups())))
    result["raw"] = {name: m["value"] / scales.get(name, 1.0)
                     for name, m in result["metrics"].items()}
    loop = REFERENCE.search(proc.stdout)
    result["reference_loop_s"] = float(loop.group(1)) if loop else None
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+",
                   default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--json", default=None, help="also write the table here")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table: dict = {}
    for workload in args.workloads:
        runs = [run_once(workload, seed, spec["run_seconds"])
                for seed in range(1, args.seeds + 1)]
        failed = sum(r["failed"] for r in runs)
        table[workload] = {"failed": failed, "metrics": {}}
        loops = [r["reference_loop_s"] for r in runs if r["reference_loop_s"]]
        if loops:
            table[workload]["reference_loop_s"] = statistics.median(loops)
            print(f"{workload:10s} reference_loop median over runs "
                  f"{statistics.median(loops):.5g} s", flush=True)
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            raw = [r["raw"][name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            r1, rmed, r3 = statistics.quantiles(raw, n=4)
            table[workload]["metrics"][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": bound, "values": values, "raw_values": raw,
                "raw_spread": (r3 - r1) / rmed}
            flag = "ok" if spread < bound / 3 else "WIDE"
            print(f"{workload:10s} {name:12s} median {med:10.5g}  "
                  f"q1 {q1:10.5g}  q3 {q3:10.5g}  spread {spread:7.4f}  "
                  f"(unscaled {(r3 - r1) / rmed:7.4f})  bound {bound}  {flag}",
                  flush=True)
        print(f"{workload:10s} failed jobs over {len(runs)} runs: {failed}",
              flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(table, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
