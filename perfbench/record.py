"""Record the expected output digests into perfbench/expected.json.

    python3 perfbench/record.py

Runs one pass of every workload at the default seed with the digest gate
off and writes each job's digest. Refuses to write if any second-route check
fails. Only rerun this when a change is meant to alter outputs; the file in
the repository holds the digests of the commit that added the benchmark.
"""

import json
import sys

from run import SRC, run_pass

sys.path.insert(0, str(SRC))

import workloads  # noqa: E402
from spans import NullTracer  # noqa: E402


def main() -> int:
    seed = workloads.DEFAULT_SEED
    fixed, seeded, failures = {}, {}, 0
    for wl in workloads.WORKLOADS.values():
        ctx = workloads.Ctx(seed, wl.inputs(seed), wl.setup(NullTracer()))
        for job, record in zip(wl.jobs, run_pass(wl, ctx, NullTracer(), None)):
            failures += bool(record["problems"])
            table = seeded if job.seeded else fixed
            table[f"{wl.name}/{job.name}"] = record["digest"]
    if failures:
        print(f"record.py: {failures} jobs failed their checks; nothing written",
              file=sys.stderr)
        return 1
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump({"fixed": fixed,
                   "seeded": {"seed": seed, "digests": seeded}},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(fixed) + len(seeded)} digests to {workloads.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
