"""Self-test of the benchmark: the output gate fails on a wrong expected
digest or a wrong output, and a short pass of every workload fails nothing.

    python3 -m pytest perfbench -q

Takes about two minutes: each workload runs two full passes.
"""

import dataclasses
import hashlib
import json
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import isingpoly as ip  # noqa: E402
import workloads  # noqa: E402
from run import run_pass  # noqa: E402
from spans import NullTracer  # noqa: E402


def one_job(workload: str, job: str, seed: int = workloads.DEFAULT_SEED):
    wl = workloads.WORKLOADS[workload]
    short = dataclasses.replace(
        wl, jobs=tuple(j for j in wl.jobs if j.name == job))
    ctx = workloads.Ctx(seed, wl.inputs(seed), wl.setup(NullTracer()))
    return short, ctx


def test_recorded_digest_passes_and_a_wrong_one_fails():
    wl, ctx = one_job("exact", "percolation_Q3")
    expected = workloads.load_expected()
    (good,) = run_pass(wl, ctx, NullTracer(), expected)
    assert good["problems"] == []
    expected["fixed"]["exact/percolation_Q3"] = "0" * 24
    (bad,) = run_pass(wl, ctx, NullTracer(), expected)
    assert len(bad["problems"]) == 1
    assert "differs from the recorded" in bad["problems"][0]


def test_missing_digest_fails_and_seeded_digests_gate_only_their_seed():
    expected = workloads.load_expected()
    del expected["seeded"]["digests"]["expansion/ursell"]
    wl, ctx = one_job("expansion", "ursell")
    (missing,) = run_pass(wl, ctx, NullTracer(), expected)
    assert missing["problems"] == ["no recorded digest for expansion/ursell"]
    wl, ctx = one_job("expansion", "ursell", seed=workloads.DEFAULT_SEED + 1)
    (other,) = run_pass(wl, ctx, NullTracer(), expected)
    assert other["problems"] == []


def test_wrong_output_fails_its_second_route_and_its_digest(monkeypatch):
    real = ip.percolation_expectation_exact
    monkeypatch.setattr(ip, "percolation_expectation_exact",
                        lambda g, params: real(g, params) + 1)
    wl, ctx = one_job("exact", "percolation_Q3")
    (bad,) = run_pass(wl, ctx, NullTracer(), workloads.load_expected())
    assert any("percolation identity fails" in p for p in bad["problems"])
    assert any("differs from the recorded" in p for p in bad["problems"])


def test_streamed_digest_hashes_the_canonical_json_text():
    payload = {"b": [F(1, 3), F(-2), 1.5, None, True, "p/q"],
               2: ({"x": []}, (7, {})), "a": {"z": 0, "y": [[F(5, 7)]]}}
    text = json.dumps(workloads.canon(payload), sort_keys=True,
                      separators=(",", ":"))
    assert "".join(workloads._pieces(payload)) == text
    assert workloads.digest(payload) == \
        hashlib.sha256(text.encode()).hexdigest()[:24]


def test_cold_cli_run_reports_its_own_exit_code_and_peak_memory():
    run = workloads.run_cli(["zexact", "--graph", "cycle:6", "--lambda", "1",
                             "--p", "1/2"])
    assert run.code == 0 and json.loads(run.stdout)
    assert run.maxrss_kb > 0
    bad = workloads.run_cli(["zexact", "--graph", "no-such-graph"])
    assert bad.code != 0 and bad.maxrss_kb > 0


def test_ursell_second_route_matches_known_values():
    assert workloads.ursell_by_subsets(1, []) == 1
    assert workloads.ursell_by_subsets(2, [(0, 1)]) == ip.ursell(2, [(0, 1)])
    triangle = [(0, 1), (1, 2), (0, 2)]
    assert workloads.ursell_by_subsets(3, triangle) == ip.ursell(3, triangle)
    assert workloads.ursell_by_subsets(3, [(0, 1)]) == 0


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "2", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload,trace", [
    ("exact", 0), ("expansion", 0), ("measures", 0), ("cli", 0), ("cli", 1)])
def test_short_pass_fails_nothing(workload, trace):
    proc = run_benchmark(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    jobs = len(workloads.WORKLOADS[workload].jobs)
    assert result["attempted"] % jobs == 0 and result["attempted"] >= jobs
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_benchmark("exact", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
