"""Time one workload's set-up in a fresh interpreter and print it as JSON.

    python3 perfbench/setup_probe.py <workload>

Set-up is the cold import of the workload's entry module (isingpoly, or
isingpoly.cli for the cli workload) plus the graph builds and build-once
objects its jobs reuse. Interpreter start-up is not included. run.py starts
this several times per run and reports the median.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(name: str) -> None:
    entry = "isingpoly.cli" if name == "cli" else "isingpoly"
    t0 = time.perf_counter()
    __import__(entry)
    import_s = time.perf_counter() - t0

    import spans
    import workloads

    tracer = spans.Tracer()
    t1 = time.perf_counter()
    workloads.WORKLOADS[name].setup(tracer)
    build_s = time.perf_counter() - t1
    phases = spans.summarize_pass(tracer.spans)["metrics"]
    print(json.dumps({"setup_s": import_s + build_s, "cli.import_s": import_s,
                      "graphs.build_s": phases.get("graphs.build_s", 0.0),
                      "model.sampler_build_s":
                          phases.get("model.sampler_build_s", 0.0)}))


if __name__ == "__main__":
    main(sys.argv[1])
