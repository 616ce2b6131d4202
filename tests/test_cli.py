"""End-to-end checks of the command-line layer: spec parsing, output
formats, exit codes, and determinism. Numerical values are only spot
checks here; the library tests own the math."""

import ast
import collections
import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isingpoly.cli import (
    CLOSED_FORMS,
    COMMANDS,
    GRAPH_FAMILIES,
    MODE_OPTIONS,
    OPTIONS,
    CliError,
    build_graph_from_spec,
    build_parser,
    emit_records,
    load_graph,
    main,
    parse_psi_spec,
)
from isingpoly import graphs
from isingpoly.audit import PropertyConstants, PsiFamily
from isingpoly.clusters import Cluster, KPFunctions, enumerate_clusters
from isingpoly.formulas import ExpansionEstimate
from isingpoly.graphs import (AuditViolation, BudgetError,
                              build_complete_bipartite, build_cycle,
                              build_even_torus, graph_from_json)
from isingpoly.model import (ModelParams, exact_Z, mu_hat_table, mu_table,
                             tv_distance)
from isingpoly.rationals import format_rational, parse_rational

from oracles import (ListMuHatSampler, graph_to_json, l2_hypercube,
                     l2_middle_layer, l2_torus_bracket)


class TestGraphSpecs:
    @pytest.mark.parametrize("spec,n,d", [
        ("hypercube:3", 8, 3),
        ("cycle:8", 8, 2),
        ("torus:6,2", 36, 4),
        ("kss:3", 6, 3),
        ("midlayer:2", 6, 2),
        ("product:kss:2+kss:2", 16, 4),
        ("product:cycle:6+kss:1", 12, 3),
    ])
    def test_builder_language(self, spec, n, d):
        g = build_graph_from_spec(spec)
        assert (g.n, g.d) == (n, d)

    def test_unknown_family(self):
        with pytest.raises(CliError, match="unknown graph family"):
            build_graph_from_spec("moebius:6")

    def test_malformed_arguments(self):
        with pytest.raises(CliError, match="bad graph spec"):
            build_graph_from_spec("torus:6")
        with pytest.raises(CliError, match="bad graph spec"):
            build_graph_from_spec("hypercube:x")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(graph_to_json(build_cycle(6)))
        g = load_graph(str(path))
        assert (g.n, g.d) == (6, 2)

    def test_load_from_stdin(self, monkeypatch):
        monkeypatch.setattr("sys.stdin",
                            io.StringIO(graph_to_json(build_cycle(4))))
        g = load_graph("-")
        assert g.n == 4

    def test_missing_source(self):
        with pytest.raises(CliError, match="neither a builder spec"):
            load_graph("/nonexistent/path.json")


# builder specs far past graphs.VERTEX_CEILING: each is refused from its
# parameters, before a vertex is listed
HUGE_SPECS = ("hypercube:17", "hypercube:1000000000", "torus:4,1000000",
              "torus:4,100000000", "midlayer:100000", "midlayer:1000000",
              "kss:9000", "product:hypercube:10+hypercube:5")
CEILING_LINE = re.compile(r"isingpoly: budget exceeded: the graph would need "
                          r"at least \d+ vertices, past the ceiling of 16384 "
                          r"vertices\n")


def huge_argument(template: str) -> str:
    """A family's spec argument with every integer field at 10^9 and every
    factor spec a small cycle, so that only the product's count is
    refused."""
    return re.sub(r"spec|[a-z]", lambda m: "cycle:256"
                  if m.group() == "spec" else str(10 ** 9), template)


class TestVertexCeiling:
    @pytest.mark.parametrize("spec", HUGE_SPECS)
    def test_huge_spec_refused_at_once(self, capsys, spec):
        start = time.perf_counter()
        code, out, err = run(capsys, "gen", "--graph", spec)
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert CEILING_LINE.fullmatch(err), err

    @pytest.mark.parametrize("family", GRAPH_FAMILIES)
    def test_every_family_counts_before_listing(self, capsys, family):
        spec = f"{family}:{huge_argument(GRAPH_FAMILIES[family][0])}"
        start = time.perf_counter()
        code, out, err = run(capsys, "gen", "--graph", spec)
        assert time.perf_counter() - start < 1, spec
        assert (code, out) == (1, ""), spec
        assert CEILING_LINE.fullmatch(err), err

    def test_huge_specs_refused_under_an_address_space_limit(self):
        # before the ceiling, hypercube:17 with a large vertex cap ended in
        # an uncaught MemoryError under this limit
        src = Path(__file__).resolve().parent.parent / "src"
        script = ("import contextlib, io, resource, sys\n"
                  "limit = 2 << 30\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
                  "from isingpoly.cli import main\n"
                  "for spec in sys.argv[1:]:\n"
                  "    with contextlib.redirect_stdout(io.StringIO()):\n"
                  "        code = main(['gen', '--graph', spec])\n"
                  "    print(code)\n")
        proc = subprocess.run(
            [sys.executable, "-c", script, *HUGE_SPECS],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
            text=True, timeout=120)
        assert proc.stdout == "1\n" * len(HUGE_SPECS)
        lines = proc.stderr.splitlines(keepends=True)
        assert len(lines) == len(HUGE_SPECS)
        assert all(CEILING_LINE.fullmatch(line) for line in lines), lines

    def test_json_graph_past_the_ceiling(self, capsys, tmp_path):
        n = 20000
        path = tmp_path / "c20000.json"
        path.write_text(json.dumps({
            "n": n, "d": 2, "side_E": list(range(0, n, 2)),
            "side_O": list(range(1, n, 2)),
            "edges": [[v, (v + 1) % n] for v in range(n)]}))
        with pytest.raises(BudgetError, match="at least 20000 vertices"):
            graph_from_json(path.read_text())
        start = time.perf_counter()
        code, out, err = run(capsys, "xi", "--graph", str(path), "--lambda",
                             "1", "--p", "1")
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert CEILING_LINE.fullmatch(err), err

    def test_json_graph_past_a_lowered_ceiling(self, capsys, monkeypatch,
                                               tmp_path):
        path = tmp_path / "c8.json"
        path.write_text(graph_to_json(build_cycle(8)))
        monkeypatch.setattr("isingpoly.graphs.VERTEX_CEILING", 6)
        message = ("the graph would need at least 8 vertices, past the "
                   "ceiling of 6 vertices")
        with pytest.raises(BudgetError) as info:
            graph_from_json(path.read_text())
        assert str(info.value) == message
        code, out, err = run(capsys, "xi", "--graph", str(path), "--lambda",
                             "1", "--p", "1")
        assert (code, out) == (1, "")
        assert err == f"isingpoly: budget exceeded: {message}\n"

    def test_budget_caps_the_walk_not_the_graph(self, capsys, monkeypatch):
        # the graph's 6,000 vertices meet only the vertex ceiling, and a
        # walk ceiling lowered to 6,000 caps the 12,000 sets walked
        argv = ("polymers", "--graph", "cycle:6000", "--lambda", "1", "--p",
                "1", "--size-max", "4")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        # an arc of 1 to 4 consecutive side vertices from each of 3,000
        assert len(json.loads(out)) == 12000
        monkeypatch.setattr("isingpoly.graphs.WALK_CEILING", 6000)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == ("isingpoly: budget exceeded: the 2-linked enumeration "
                       "to size 4 would need at least 6001 sets, past the "
                       "ceiling of 6000 sets\n")


class TestPsiSpec:
    def test_members_and_empty(self):
        fam = parse_psi_spec("0;1;0,1;-", 4)
        assert sorted(fam.sizes()) == [0, 1, 1, 2]
        assert fam.has_empty

    def test_bad_member(self):
        with pytest.raises(CliError, match="bad family member"):
            parse_psi_spec("0;x", 4)
        with pytest.raises(CliError, match="empty member"):
            parse_psi_spec("0;;1", 4)


class TestEmit:
    def test_single_record_json_object(self):
        out = io.StringIO()
        emit_records([{"value": F(3, 4)}], "json", out)
        assert json.loads(out.getvalue()) == {"value": "3/4"}

    def test_multiple_records_json_array(self):
        out = io.StringIO()
        emit_records([{"k": 1}, {"k": 2}], "json", out)
        assert json.loads(out.getvalue()) == [{"k": 1}, {"k": 2}]

    def test_csv_flat_union_of_keys(self):
        out = io.StringIO()
        emit_records([{"a": 1, "xs": [1, 2]}, {"a": 2, "b": F(1, 2)}],
                     "csv", out)
        lines = out.getvalue().strip().splitlines()
        assert lines[0] == "a,xs,b"
        assert lines[1] == "1,1 2,"
        assert lines[2] == "2,,1/2"

    def test_empty_records(self):
        out = io.StringIO()
        emit_records([], "json", out)
        assert json.loads(out.getvalue()) == []

    def test_mpmath_values_past_float64_keep_their_magnitude(self):
        out = io.StringIO()
        values = [mpmath.mpf(1.5), mpmath.mpf("1e-310"), mpmath.mpf(0),
                  mpmath.inf, -mpmath.inf, mpmath.nan,
                  mpmath.mpf(2) ** 5000, -mpmath.mpf(2) ** -5000]
        emit_records([{"v": values}], "json", out)
        got = json.loads(out.getvalue())["v"]
        # in range and the true infinities print as float64 did
        assert got[:6] == [1.5, 1e-310, 0.0, "inf", "-inf", "nan"]
        assert got[6:] == ["1.412467032139426e+1505",
                           "-7.0798112610481729e-1506"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# The options each mode reads, by subcommand and the option selecting the
# mode; every other option of the same selector is refused.
READS = {
    ("audit-kp", "--mode"): {
        "sum": ["--c1", "--c2", "--c3", "--c5", "--size-max", "--tail-depth"],
        "truncation": ["--k-max", "--fg-denom"]},
    ("audit-iso", "--property"): {
        "one": ["--c1", "--c2", "--c3", "--c4", "--c5"],
        "two": ["--c1", "--c4", "--c5"],
        "product": ["--s", "--t"]},
    ("closed-form", "--family"): {
        "l1": ["--graph", "--lambda"], "torus": ["--m", "--t"],
        "midlayer": ["--d"], "kss": ["--s", "--t"], "hypercube": ["--t"]},
}
# a valid invocation of each subcommand, less the selected mode
BASE_ARGV = {
    "audit-kp": ["--graph", "cycle:6", "--lambda", "1/40", "--p", "1"],
    "audit-iso": ["--graph", "cycle:6", "--size-cap", "2"],
    "closed-form": ["--p", "1/2"],
}
# what closed-form's families cannot run without
FAMILY_NEEDS = {"l1": ["--graph", "cycle:6"], "torus": ["--m", "6", "--t", "2"],
                "midlayer": ["--d", "3"], "kss": ["--s", "2", "--t", "2"],
                "hypercube": ["--t", "3"]}
# values the modes reading these options accept; the rest take 2
OPTION_VALUE = {"--graph": "cycle:6", "--lambda": "1", "--c1": "2",
                "--c2": "10", "--c3": "3", "--c4": "1", "--c5": "0.5",
                "--s": "2", "--t": "3"}


def out_of_scope(cmd, selector, mode):
    modes = READS[cmd, selector]
    return [flag for flag in dict.fromkeys(f for fs in modes.values()
                                           for f in fs)
            if flag not in modes[mode]]


def scope_refusal(cmd, selector, flag):
    readers = [m for m, flags in READS[cmd, selector].items() if flag in flags]
    return f"{flag} applies only to {selector} {' or '.join(readers)}"


@st.composite
def audit_argv(draw):
    """(argv, stray): a stray argv passes an option its mode does not read,
    which must exit 1; the rest pass only options their modes read."""
    graph = draw(st.sampled_from(["cycle:6", "hypercube:3"]))
    if draw(st.booleans()):
        c2 = draw(st.sampled_from(["0", "-1", "0.5", "10", "nan", "inf"]))
        return ["audit-container", "--graph", graph, "--lambda", "1",
                "--p", "1/2", "--a", "1", "--b", "2", "--hypothesis-c2",
                c2], False
    prop = draw(st.sampled_from(["one", "two", "product"]))
    argv = ["audit-iso", "--graph", graph, "--property", prop,
            "--size-cap", str(draw(st.integers(-2, 5)))]
    if prop == "product":
        for flag in ("--s", "--t"):
            value = draw(st.none() | st.integers(-1, 4))
            if value is not None:
                argv += [flag, str(value)]
    stray = draw(st.integers(0, 4)) == 0
    if stray:
        flag = draw(st.sampled_from(
            out_of_scope("audit-iso", "--property", prop)))
        argv += [flag, OPTION_VALUE[flag]]
    return argv, stray


CONSTANTS = ["0", "-1", "0.5", "10", "nan", "inf"]


@st.composite
def kp_argv(draw):
    k_max = str(draw(st.integers(-1, 6)))
    if draw(st.booleans()):
        return ["clusters", "--graph",
                draw(st.sampled_from(["cycle:6", "hypercube:3"])),
                "--lambda", "1/10", "--p", "1", "--k-max", k_max]
    mode = draw(st.sampled_from(["sum", "truncation"]))
    # only hypercube:4 has polymers big enough for g's c2 regime
    graphs = ["cycle:6", "hypercube:3"] + ["hypercube:4"] * (mode == "sum")
    argv = ["audit-kp", "--graph", draw(st.sampled_from(graphs)),
            "--lambda", "1/10", "--p", "1", "--mode", mode]
    if mode == "truncation":
        argv += ["--k-max", k_max]
        fg_denom = draw(st.none() | st.integers(-1, 10))
        if fg_denom is not None:
            argv += ["--fg-denom", str(fg_denom)]
        return argv
    for flag in ("--c1", "--c2", "--c3", "--c5"):
        argv += [flag, draw(st.sampled_from(CONSTANTS))]
    return argv


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_malformed_rational(self, capsys):
        code, _, err = run(capsys, "zexact", "--graph", "cycle:6",
                           "--lambda", "x/y", "--p", "1")
        assert code == 1
        assert "not a rational" in err

    @pytest.mark.parametrize("value", ["1e999999999", "1e-999999999",
                                       "1E+4301", "2.5e99_999_999",
                                       "1e0000000000000000000000000009999"])
    def test_huge_decimal_exponent_refused(self, capsys, value):
        code, _, err = run(capsys, "zexact", "--graph", "cycle:4",
                           "--lambda", value, "--p", "1")
        assert code == 1
        assert "exponent" in err

    def test_decimal_exponent_at_the_limit(self):
        assert parse_rational("1e4300") == 10 ** 4300
        assert parse_rational(" 3e-4300 ") == F(3, 10 ** 4300)
        assert parse_rational("1e00004300") == 10 ** 4300

    @pytest.mark.parametrize("argv", [
        ("zexact", "--graph", "cycle:4000", "--lambda", "1/3", "--p", "1/7"),
        ("closed-form", "--family", "torus", "--m", "6", "--t", "2000",
         "--p", "1/2"),
        ("closed-form", "--family", "torus", "--m", "6", "--t", "2000",
         "--p", "1/2", "--format", "csv"),
        # a plain int, such as the count isets --graph cycle:21000 takes
        # seconds to reach
        ("isets", "--graph", "cycle:6"),
    ])
    def test_output_past_the_int_string_limit_exits_one(self, capsys,
                                                        monkeypatch, argv):
        # the values are computed; writing one out needs an int of more
        # digits than Python converts to a string
        monkeypatch.setattr("isingpoly.cli.count_independent_sets",
                            lambda g: 10 ** 4300)
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == ("isingpoly: error: an output integer has more than "
                       "4300 digits, past Python's int-to-string limit\n")

    def test_closed_form_refuses_a_long_value_before_computing_it(
            self, capsys):
        # at q = 5/6 the value's denominator has about 1.25 million digits;
        # building it took 14 s before the formula learned to refuse first
        start = time.perf_counter()
        code, out, err = run(capsys, "closed-form", "--family", "hypercube",
                             "--t", "1000000", "--p", "1/3")
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err == ("isingpoly: error: an output integer has more than "
                       "4300 digits, past Python's int-to-string limit\n")

    def test_closed_form_midlayer_refuses_before_the_binomial(self, capsys):
        # C(1999999, 1000000) alone took 23 s; the value's length is
        # refused from 2^1999999, a bound above it
        start = time.perf_counter()
        code, out, err = run(capsys, "closed-form", "--family", "midlayer",
                             "--d", "1000000", "--p", "1/2")
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err == ("isingpoly: error: an output integer has more than "
                       "4300 digits, past Python's int-to-string limit\n")

    @pytest.mark.parametrize("d", [*range(2, 81), 2761])
    def test_closed_form_midlayer_values(self, capsys, d):
        # 2761 is the largest d written out at p = 1/2
        code, out, _ = run(capsys, "closed-form", "--family", "midlayer",
                           "--d", str(d), "--p", "1/2")
        assert code == 0
        assert out == json.dumps({"family": "midlayer", "formula_value":
                                  format_rational(l2_middle_layer(d, F(1, 2)))},
                                 sort_keys=True) + "\n"

    def test_closed_form_midlayer_past_the_last_written_value(self, capsys):
        code, out, err = run(capsys, "closed-form", "--family", "midlayer",
                             "--d", "2762", "--p", "1/2")
        assert (code, out) == (1, "")
        assert "4300 digits" in err

    def test_closed_form_writes_a_long_value_it_can(self, capsys):
        # the denominator has 2,512 digits: long, but written out
        code, out, _ = run(capsys, "closed-form", "--family", "hypercube",
                           "--t", "2000", "--p", "1/3")
        assert code == 0
        value = l2_hypercube(2000, F(1, 3))
        assert len(str(value.denominator)) == 2512
        assert out == json.dumps({"family": "hypercube",
                                  "formula_value": format_rational(value)},
                                 sort_keys=True) + "\n"

    def test_unwritable_out_file_exits_one(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "zexact", "--graph", "cycle:6",
                             "--lambda", "1", "--p", "1/2",
                             "--out", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith("isingpoly: error: [Errno 2] No such file")

    def test_huge_middle_layer_refused_before_listing(self, capsys):
        # C(59, 29) is made as C(30 + i, i) for i = 1, 2, ..., and the
        # count is refused at 2 C(34, 4)
        code, out, err = run(capsys, "gen", "--graph", "midlayer:30")
        assert (code, out) == (1, "")
        assert err == ("isingpoly: budget exceeded: the graph would need at "
                       "least 92752 vertices, past the ceiling of 16384 "
                       "vertices\n")

    def test_budget_exceeded(self, capsys, monkeypatch):
        monkeypatch.setattr("isingpoly.graphs.BYTE_CEILING", 1 << 16)
        code, _, err = run(capsys, "zexact", "--graph", "hypercube:5",
                           "--lambda", "1", "--p", "1")
        assert code == 1
        assert err == ("isingpoly: budget exceeded: the boundary DP would "
                       "need about 1 MB, past the ceiling of 0.0625 MB\n")

    def test_zexact_past_the_byte_ceiling_is_refused_at_once(self, capsys):
        # every vertex order of Q6 at p < 1 peaks at 2^23 states or more,
        # which would run out of memory; the plan refuses before any step,
        # naming the bytes of the first step past the ceiling
        start = time.perf_counter()
        code, out, err = run(capsys, "zexact", "--graph", "hypercube:6",
                             "--lambda", "1", "--p", "9/10")
        assert time.perf_counter() - start < 5
        assert code == 1
        assert out == ""
        assert err == ("isingpoly: budget exceeded: the boundary DP would "
                       "need about 1128 MB, past the ceiling of 1024 MB\n")

    def test_xi_many_polymers_no_recursion_limit(self, capsys):
        # about 1,200 polymers: deeper than the interpreter's recursion limit
        code, out, _ = run(capsys, "xi", "--graph", "cycle:80",
                           "--lambda", "1/2", "--p", "1")
        assert code == 0
        assert json.loads(out)["side"] == "E"

    @pytest.mark.parametrize("argv", [
        ("isets", "--graph", "cycle:2000"),
        ("percolate-mc", "--graph", "cycle:1200", "--lambda", "1", "--p",
         "1/2", "--samples", "3", "--seed", "1"),
        ("percolate-mc", "--graph", "kss:8", "--lambda", "1", "--p", "1/2",
         "--samples", "10", "--seed", "1"),
    ])
    def test_deep_sums_and_many_edges(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)

    def test_percolate_mc_mean_when_the_sum_passes_the_float_range(self,
                                                                   capsys):
        # each sample fits a float64, but the three together do not
        code, out, _ = run(capsys, "percolate-mc", "--graph", "cycle:1236",
                           "--lambda", "1", "--p", "1/2", "--samples", "3",
                           "--seed", "1")
        assert code == 0
        mean = json.loads(out)["mean"]
        assert isinstance(mean, float) and math.isfinite(mean)

    def test_sample_muhat_budget_bounds_the_polymer_enumeration(
            self, capsys, monkeypatch):
        # C48 has 16,776,831 compatible configurations per side, none stored
        code, out, _ = run(capsys, "sample-muhat", "--graph", "cycle:48",
                           "--lambda", "1", "--p", "1/2", "--samples", "1",
                           "--seed", "1")
        assert code == 0
        assert json.loads(out)["count"] == 1
        # C24 has 108 two-linked sets per side
        monkeypatch.setattr("isingpoly.graphs.WALK_CEILING", 50)
        code, out, err = run(capsys, "sample-muhat", "--graph", "cycle:24",
                             "--lambda", "1", "--p", "1/2", "--samples", "1",
                             "--seed", "1")
        assert code == 1
        assert out == ""
        assert err == ("isingpoly: budget exceeded: the 2-linked enumeration "
                       "to size 9 would need at least 51 sets, past the "
                       "ceiling of 50 sets\n")

    @pytest.mark.parametrize("cmd", ["sample-muhat", "percolate-mc"])
    def test_negative_seed_is_refused(self, capsys, cmd):
        code, out, err = run(capsys, cmd, "--graph", "cycle:6", "--lambda",
                             "1", "--p", "1/2", "--samples", "3", "--seed",
                             "-4")
        assert code == 1
        assert out == ""
        assert err == "isingpoly: error: seed must be >= 0, got -4\n"

    @pytest.mark.parametrize("cmd,samples", [
        ("sample-muhat", "0"), ("sample-muhat", "-3"), ("percolate-mc", "0")])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_sample_count_below_one(self, capsys, cmd, samples, fmt):
        code, out, err = run(capsys, cmd, "--graph", "cycle:4", "--lambda",
                             "1", "--p", "1/2", "--samples", samples,
                             "--seed", "1", "--format", fmt)
        assert code == 1
        assert out == ""
        assert "samples must be >= 1" in err

    def test_percolate_mc_samples_past_memory(self, capsys):
        # 8 bytes a sample: 10^17 samples need 8 * 10^17 / 2^20 MB
        code, out, err = run(capsys, "percolate-mc", "--graph", "cycle:4",
                             "--lambda", "1", "--p", "1/2", "--samples",
                             str(10 ** 17), "--seed", "1")
        assert code == 1
        assert out == ""
        assert err == ("isingpoly: budget exceeded: the sample array would "
                       "need about 762939453125 MB, past the ceiling of "
                       "1024 MB\n")

    def test_percolate_mc_samples_past_numpy_dimension_limit(self, capsys):
        # a count numpy would refuse with its own ValueError is refused by
        # the byte ceiling first: 2^63 samples need 2^46 MB
        code, out, err = run(capsys, "percolate-mc", "--graph", "cycle:6",
                             "--lambda", "1", "--p", "1/2", "--samples",
                             str(2 ** 63), "--seed", "1")
        assert code == 1
        assert out == ""
        assert err == (f"isingpoly: budget exceeded: the sample array would "
                       f"need about {2 ** 46} MB, past the ceiling of 1024 "
                       f"MB\n")

    @pytest.mark.parametrize("argv,ceiling,what", [
        (("isets", "--graph", "hypercube:3"), 512, "the independent-set memo"),
        (("percolate-mc", "--graph", "hypercube:3", "--lambda", "1", "--p",
          "1/2", "--samples", "10", "--seed", "1"), 512, "the subgraph memo"),
        (("percolate-exact", "--graph", "cycle:6", "--lambda", "1", "--p",
          "1/2"), 512, "the subgraph memo"),
        # Q3's 14 polymer sets pass 512 bytes before its Xi memo does;
        # C10's walk fits 2048 bytes and its memo does not
        (("xi", "--graph", "hypercube:3", "--lambda", "1/20", "--p", "1"),
         512, "the 2-linked enumeration"),
        (("xi", "--graph", "cycle:10", "--lambda", "1/20", "--p", "1"),
         2048, "the independent-set memo"),
        (("zexact", "--graph", "hypercube:3", "--lambda", "1", "--p", "1/2"),
         512, "the boundary DP"),
    ], ids=["isets", "percolate-mc", "percolate-exact", "xi-walk", "xi-memo",
            "zexact"])
    def test_byte_ceiling_exits_one(self, capsys, monkeypatch, argv, ceiling,
                                    what):
        monkeypatch.setattr("isingpoly.graphs.BYTE_CEILING", ceiling)
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == (f"isingpoly: budget exceeded: {what} would need about "
                       f"1 MB, past the ceiling of {ceiling / (1 << 20):g} "
                       f"MB\n")

    def test_percolate_mc_refused_under_an_address_space_limit(self):
        # torus:72,2's subgraph_z keys have 15,552 bits; before the byte
        # ceiling its first sample ended in a MemoryError traceback under
        # this limit. A 64 MB ceiling set in the child keeps the run short.
        src = Path(__file__).resolve().parent.parent / "src"
        script = ("import resource\n"
                  "limit = 2 << 30\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
                  "from isingpoly import graphs\n"
                  "from isingpoly.cli import main\n"
                  "graphs.BYTE_CEILING = 64 << 20\n"
                  "print(main(['percolate-mc', '--graph', 'torus:72,2', "
                  "'--lambda', '1', '--p', '1/2', '--samples', '3', "
                  "'--seed', '1']))\n")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
            text=True, timeout=120)
        assert proc.stdout == "1\n"
        assert re.fullmatch(r"isingpoly: budget exceeded: the subgraph memo "
                            r"would need about \d+ MB, past the ceiling of "
                            r"64 MB\n", proc.stderr), proc.stderr

    def test_percolate_mc_reads_no_vertex_proxy(self, capsys):
        # 64 vertices, past the 2^n sweeps' ceiling of 26
        code, out, _ = run(capsys, "percolate-mc", "--graph", "torus:8,2",
                           "--lambda", "1", "--p", "1/2", "--samples", "50",
                           "--seed", "1")
        assert code == 0
        record = json.loads(out)
        exact = exact_Z(build_even_torus(8, 2), ModelParams(1, F(1, 2)))
        assert abs(record["mean"] - float(exact)) < 4 * record["stderr"]

    def test_percolate_mc_past_the_float_range(self, capsys):
        code, out, err = run(capsys, "percolate-mc", "--graph", "cycle:1600",
                             "--lambda", "1", "--p", "1/2", "--samples", "3",
                             "--seed", "1")
        assert code == 1
        assert out == ""
        assert "float64 range" in err

    @pytest.mark.parametrize("argv", [
        # alpha_tilde = 1 + lambda is past the range at p = 1
        ("--lambda", "1e400", "--p", "1", "--mode", "sum"),
        ("--lambda", "1e400", "--p", "1/2", "--mode", "sum"),
        ("--lambda", "1e400", "--p", "1/2", "--mode", "truncation",
         "--fg-denom", "10"),
    ])
    def test_audit_kp_past_the_float_range(self, capsys, argv):
        code, out, err = run(capsys, "audit-kp", "--graph", "cycle:6", *argv)
        assert code == 1
        assert out == ""
        assert "float64 range" in err

    @pytest.mark.parametrize("stdin", ["5", '{"n": 2, "d": 1, "side_O": [1], '
                                            '"side_E": [0], "edges": [["a", 1]]}'])
    def test_malformed_graph_on_stdin(self, capsys, monkeypatch, stdin):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code, _, err = run(capsys, "gen", "--graph", "-")
        assert code == 1
        assert "isingpoly: error:" in err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_audit_failure_exits_two(self, capsys):
        # C6 cannot satisfy the near-half expansion condition
        code, out, _ = run(capsys, "audit-iso", "--graph", "cycle:6",
                           "--property", "one", "--size-cap", "3")
        assert code == 2
        rows = json.loads(out)
        ia3 = next(r for r in rows if r["condition"] == "Ia3")
        assert ia3["holds"] is False

    @pytest.mark.parametrize("sweep", [
        ("--size-cap", "0"),
        ("--size-cap", "-1"),
    ])
    @pytest.mark.parametrize("prop", [
        ("--property", "one"),
        ("--property", "two"),
        ("--property", "product"),
    ])
    def test_empty_iso_sweep_exits_one(self, capsys, prop, sweep):
        code, out, err = run(capsys, "audit-iso", "--graph", "cycle:6",
                             *prop, *sweep)
        assert code == 1
        assert out == ""
        assert "isingpoly: error:" in err

    @pytest.mark.parametrize("argv,message", [
        (("audit-iso", "--graph", "hypercube:3", "--property", "product",
          "--size-cap", "0"), "size cap must be >= 1"),
        (("audit-iso", "--graph", "cycle:6", "--property", "product",
          "--size-cap", "2", "--s", "0", "--t", "3"), "s >= 1 and t >= 1"),
        (("audit-iso", "--graph", "cycle:6", "--property", "product",
          "--size-cap", "2", "--s", "2", "--t", "0"), "s >= 1 and t >= 1"),
        (("audit-container", "--graph", "cycle:6", "--lambda", "1", "--p",
          "1/2", "--a", "1", "--b", "2", "--hypothesis-c2", "0"),
         "c2 must be positive"),
    ])
    def test_audit_parameters_out_of_range_exit_one(self, capsys, argv,
                                                    message):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("argv", [
        ("audit-iso", "--graph", "hypercube:4", "--size-cap", "3", "--c2",
         "nan"),
        ("audit-kp", "--graph", "hypercube:4", "--lambda", "1/10", "--p", "1",
         "--c2", "0"),
        ("audit-kp", "--graph", "hypercube:4", "--lambda", "1/10", "--p", "1",
         "--c5", "-3"),
        ("audit-kp", "--graph", "hypercube:4", "--lambda", "1/10", "--p", "1",
         "--c2", "nan"),
    ])
    def test_constants_outside_the_positive_reals_exit_one(self, capsys,
                                                           argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "must be positive and finite" in err

    def test_linked_sweep_of_no_set_exits_one(self, capsys):
        # on K2 no set is small enough for Ia3 (|X| <= 3n/8 = 3/4)
        code, out, err = run(capsys, "audit-iso", "--graph", "hypercube:1",
                             "--property", "one", "--size-cap", "1")
        assert code == 1
        assert out == ""
        assert "empty sweep" in err

    @pytest.mark.parametrize("option", [
        ("--mode", "exhaustive"), ("--mode", "linked"), ("--mode", "sampled"),
        ("--seed", "0"), ("--samples", "5")])
    def test_audit_iso_has_no_sweep_options(self, capsys, option):
        code, out, err = run(capsys, "audit-iso", "--graph", "cycle:6",
                             "--size-cap", "2", *option)
        assert code == 1
        assert out == ""
        assert option[0] in err

    def test_linked_audit_iso_runs_past_the_exhaustive_budget(self, capsys):
        # Q8 at size cap 4 covers 2 * 11,017,632 subsets, over the 2^20
        # walk ceiling, and sweeps 46,426 rooted 2-linked sets under it
        code, out, _ = run(capsys, "audit-iso", "--graph", "hypercube:8",
                           "--size-cap", "4")
        assert code == 0
        assert {row.get("checked") for row in json.loads(out)} == \
            {22035264, None}

    @pytest.mark.parametrize("ceiling,code", [(40, 2), (39, 1)])
    def test_container_hypothesis_budget_counts_the_swept_sets(
            self, capsys, monkeypatch, ceiling, code):
        # Q4 sweeps the 4 + 1 subsets of more than two of the four vertices
        # of each of the 8 neighborhoods N(y): 40 sets, not 8 * 2^4
        monkeypatch.setattr("isingpoly.graphs.WALK_CEILING", ceiling)
        got, out, err = run(capsys, "audit-container", "--graph",
                            "hypercube:4", "--lambda", "1", "--p", "1/2",
                            "--a", "1", "--b", "4", "--hypothesis-c2", "2")
        assert got == code
        if code == 2:
            assert json.loads(out)["hypothesis_checked"] == 40
        else:
            assert out == ""
            assert err == ("isingpoly: budget exceeded: the neighborhood "
                           "subset sweep would need 40 sets, past the "
                           "ceiling of 39 sets\n")

    @pytest.mark.parametrize("graph,k_max,message", [
        ("hypercube:3", "3", "the 2-linked enumeration to size 3 would "
                             "need at least 11 sets, past the ceiling of 10 "
                             "sets"),
        ("cycle:6", "5", "the cluster walk to size 5 would need at least 11 "
                         "multisets, past the ceiling of 10 multisets")])
    def test_clusters_budget_exceeded(self, capsys, monkeypatch, graph,
                                      k_max, message):
        # Q3 refuses in its polymer enumeration, C6 in the cluster walk
        monkeypatch.setattr("isingpoly.graphs.WALK_CEILING", 10)
        code, out, err = run(capsys, "clusters", "--graph", graph,
                             "--lambda", "1/20", "--p", "1", "--k-max",
                             k_max)
        assert code == 1
        assert out == ""
        assert err == f"isingpoly: budget exceeded: {message}\n"

    def test_kp_sum_budget_exceeded(self, capsys, monkeypatch):
        monkeypatch.setattr("isingpoly.graphs.WALK_CEILING", 16)
        code, out, err = run(capsys, "audit-kp", "--graph", "hypercube:4",
                             "--lambda", "1/10", "--p", "1", "--mode", "sum")
        assert code == 1
        assert out == ""
        assert err == ("isingpoly: budget exceeded: the 2-linked enumeration "
                       "to size 3 would need at least 17 sets, past the "
                       "ceiling of 16 sets\n")

    @pytest.mark.parametrize("mode,option,value", [
        ("truncation", "--c1", "2"), ("truncation", "--c2", "0"),
        ("truncation", "--c3", "3"), ("truncation", "--c5", "0.5"),
        ("truncation", "--size-max", "2"), ("truncation", "--tail-depth", "2"),
        ("sum", "--k-max", "2"), ("sum", "--fg-denom", "10"),
        ("sum", "--c4", "1"), ("truncation", "--c4", "1"),
    ])
    def test_kp_options_of_the_other_mode_exit_one(self, capsys, mode,
                                                   option, value):
        code, out, err = run(capsys, "audit-kp", "--graph", "cycle:6",
                             "--lambda", "1/10", "--p", "1", "--mode", mode,
                             option, value)
        assert code == 1
        assert out == ""
        assert option in err

    @pytest.mark.parametrize("cmd,selector,mode,flag", [
        (cmd, selector, mode, flag) for (cmd, selector), modes in READS.items()
        for mode in modes for flag in out_of_scope(cmd, selector, mode)])
    def test_options_a_mode_does_not_read_exit_one(self, capsys, cmd,
                                                   selector, mode, flag):
        code, out, err = run(capsys, cmd, *BASE_ARGV[cmd], selector, mode,
                             *FAMILY_NEEDS.get(mode, []), flag,
                             OPTION_VALUE.get(flag, "2"))
        assert code == 1
        assert out == ""
        assert scope_refusal(cmd, selector, flag) in err

    def test_the_table_scopes_what_the_modes_read(self):
        assert {(cmd, selector): {mode: list(options)
                                  for mode, options in modes.items()}
                for cmd, selectors in MODE_OPTIONS.items()
                for selector, modes in selectors.items()} == READS

    @pytest.mark.parametrize("family,flag", [
        (family, flag) for family, needs in FAMILY_NEEDS.items()
        for flag in needs[::2]])
    def test_missing_required_option_exits_one(self, capsys, family, flag):
        needs = FAMILY_NEEDS[family]
        i = needs.index(flag)
        code, out, err = run(capsys, "closed-form", "--family", family,
                             *BASE_ARGV["closed-form"], *needs[:i],
                             *needs[i + 2:])
        assert code == 1
        assert out == ""
        assert f"--family {family} needs {flag}" in err

    @pytest.mark.parametrize("argv,message", [
        (("closed-form", "--family", "torus", "--m", "6", "--t", "2", "--p",
          "1/2", "--lambda", "5", "--verify"),
         "--lambda applies only to --family l1"),
        (("closed-form", "--family", "l1", "--graph", "cycle:6", "--p", "1/2",
          "--t", "2"), "--t applies only to --family torus or kss or hypercube"),
        (("audit-iso", "--graph", "cycle:6", "--property", "two", "--c2", "0"),
         "--c2 applies only to --property one"),
        (("audit-iso", "--graph", "cycle:6", "--s", "2"),
         "--s applies only to --property product"),
        (("gen", "--graph", "cycle:6", "--format", "csv"),
         "unrecognized arguments: --format csv"),
    ])
    def test_ignored_options_are_refused(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("denom", ["0", "-1"])
    def test_kp_fg_denom_below_one_exits_one(self, capsys, denom):
        code, out, err = run(capsys, "audit-kp", "--graph", "cycle:6",
                             "--lambda", "1/10", "--p", "1", "--mode",
                             "truncation", "--fg-denom", denom)
        assert code == 1
        assert out == ""
        assert f"fg-denom must be >= 1, got {denom}" in err

    @pytest.mark.parametrize("argv,message", [
        (("audit-z", "--d", "4", "--lambda", "1", "--p", "1/2", "--C", "2",
          "--singletons", "0"), "singletons must be >= 1, got 0"),
        (("audit-z", "--d", "4", "--lambda", "1", "--p", "1/2", "--C", "2",
          "--singletons", "-1"), "singletons must be >= 1, got -1"),
        (("audit-kp", "--graph", "cycle:6", "--lambda", "1/40", "--p", "1",
          "--tail-depth", "-1"), "tail depth must be >= 0, got -1"),
        # a is checked whichever side of a the neighborhood size b lies
        (("audit-container", "--graph", "cycle:6", "--lambda", "1", "--p",
          "1/2", "--a", "0", "--b", "-1"), "closure size a must be >= 1"),
        (("audit-container", "--graph", "cycle:6", "--lambda", "1", "--p",
          "1/2", "--a", "0", "--b", "2"), "closure size a must be >= 1"),
        (("audit-iso", "--graph", "cycle:6", "--size-cap", "0"),
         "size cap must be >= 1, got 0"),
        (("polymers", "--graph", "cycle:6", "--lambda", "1", "--p", "1/2",
          "--size-max", "0"), "size max must be >= 1, got 0"),
        (("audit-kp", "--graph", "cycle:6", "--lambda", "1/40", "--p", "1",
          "--mode", "sum", "--size-max", "0"), "size max must be >= 1, got 0"),
    ])
    def test_values_out_of_range_exit_one(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert message in err
        assert "Traceback" not in err

    def test_walk_ceiling_caps_the_sets_not_the_graph(self, capsys,
                                                       monkeypatch):
        # the walk ceiling caps xi's sets walked, not the graph's vertices
        monkeypatch.setattr("isingpoly.graphs.WALK_CEILING", 5)
        code, out, err = run(capsys, "xi", "--graph", "cycle:6", "--lambda",
                             "1", "--p", "1")
        assert (code, out) == (1, "")
        assert err == ("isingpoly: budget exceeded: the 2-linked enumeration "
                       "to size 2 would need at least 6 sets, past the "
                       "ceiling of 5 sets\n")

    def test_kp_truncation_refuses_a_sum_constant(self, capsys):
        code, out, err = run(capsys, "audit-kp", "--graph", "cycle:6",
                             "--lambda", "1/10", "--p", "1", "--mode",
                             "truncation", "--c2", "0", "--k-max", "2")
        assert code == 1
        assert "--c2 applies only to --mode sum" in err

    def test_only_audit_violations_exit_two(self, capsys, monkeypatch):
        def violated(*args, **kwargs):
            raise AuditViolation("bound violated")

        def buggy(*args, **kwargs):
            raise AssertionError("not an audit verdict")

        monkeypatch.setattr("isingpoly.cli.check_property_i", violated)
        code, out, err = run(capsys, "audit-iso", "--graph", "cycle:6")
        assert code == 2
        assert "bound violated" in err
        monkeypatch.setattr("isingpoly.cli.check_property_i", buggy)
        with pytest.raises(AssertionError, match="not an audit verdict"):
            main(["audit-iso", "--graph", "cycle:6"])

    @settings(max_examples=60, deadline=None)
    @given(audit_argv())
    def test_audit_commands_exit_with_a_code(self, drawn):
        argv, stray = drawn
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code == 1 if stray else code in (0, 1, 2)

    @settings(max_examples=60, deadline=None)
    @given(kp_argv())
    # the c2 regime of g on hypercube:4, which divided by c2 = 0
    @example(["audit-kp", "--graph", "hypercube:4", "--lambda", "1/10",
              "--p", "1", "--mode", "sum", "--c1", "0.5", "--c2", "0",
              "--c3", "10", "--c5", "0.5"])
    # f = g = size/0, which ended in a ZeroDivisionError
    @example(["audit-kp", "--graph", "cycle:6", "--lambda", "1/10", "--p",
              "1", "--mode", "truncation", "--k-max", "2", "--fg-denom", "0"])
    # a polymer weight past the float64 range, which ended in an
    # OverflowError
    @example(["audit-kp", "--graph", "cycle:6", "--lambda", "1e400", "--p",
              "1/2", "--mode", "truncation", "--fg-denom", "10"])
    def test_cluster_and_kp_commands_exit_with_a_code(self, argv):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2)

    @pytest.mark.parametrize("argv", [
        # criterion 8's false premise, and C6's near-half expansion failure
        ("audit-kp", "--graph", "cycle:6", "--lambda", "1/10", "--p", "1",
         "--mode", "truncation", "--fg-denom", "10"),
        ("audit-iso", "--graph", "cycle:6", "--property", "one",
         "--size-cap", "3"),
    ])
    def test_audit_failures_exit_two_under_python_optimize(self, argv):
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "isingpoly.cli", *argv],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr

    def test_violated_half_ell_bound_exits_two(self, capsys, monkeypatch):
        # the hypotheses hold at d = 1000, so a partition sum far above
        # the bound is a failed assertion
        monkeypatch.setattr("isingpoly.audit.z_psi",
                            lambda family, params: F(10) ** 400)
        code, out, err = run(capsys, "audit-z", "--d", "1000", "--lambda",
                             "1", "--p", "1", "--C", "1", "--singletons",
                             "10")
        assert code == 2
        assert out == ""
        assert err == ("isingpoly: audit assertion failed: half-ell bound "
                       "violated with hypotheses holding\n")

    def test_kp_failure_exits_two(self, capsys):
        code, out, _ = run(capsys, "audit-kp", "--graph", "cycle:6",
                           "--lambda", "1/10", "--p", "1",
                           "--mode", "truncation", "--fg-denom", "10",
                           "--k-max", "2")
        assert code == 2
        rows = json.loads(out)
        assert all(r["kp_holds"] is False for r in rows)

    def test_container_hypothesis_failure_exits_two(self, capsys):
        code, out, _ = run(capsys, "audit-container", "--graph", "cycle:6",
                           "--lambda", "1", "--p", "1/2",
                           "--a", "1", "--b", "2",
                           "--hypothesis-c2", "0.01")
        assert code == 2
        assert json.loads(out)["hypothesis_holds"] is False


class TestComputeCommands:
    def test_zexact_value(self, capsys):
        code, out, _ = run(capsys, "zexact", "--graph", "cycle:6",
                           "--lambda", "1/1", "--p", "1/2")
        assert code == 0
        assert json.loads(out) == {"value": "2041/64"}

    def test_percolation_identity_verify(self, capsys):
        code, out, _ = run(capsys, "percolate-exact", "--graph", "cycle:6",
                           "--lambda", "2/3", "--p", "3/4", "--verify")
        assert code == 0
        record = json.loads(out)
        assert record["match"] is True
        assert record["value"] == record["z_value"]

    def test_torus_8_2_count_by_both_routes(self, capsys):
        code, out, _ = run(capsys, "zexact", "--graph", "torus:8,2",
                           "--lambda", "1", "--p", "1")
        assert code == 0
        z = json.loads(out)["value"]
        code, out, _ = run(capsys, "isets", "--graph", "torus:8,2")
        assert code == 0
        assert z == str(json.loads(out)["count"]) == "213256442503"

    def test_isets_dual_route(self, capsys):
        code, out, _ = run(capsys, "isets", "--graph", "hypercube:3",
                           "--verify")
        assert code == 0
        record = json.loads(out)
        assert record["count"] == 35 and record["match"] is True

    def test_percolate_mc_deterministic(self, capsys):
        args = ("percolate-mc", "--graph", "hypercube:3", "--lambda", "1",
                "--p", "1/2", "--samples", "500", "--seed", "7")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        record = json.loads(out1)
        assert record["samples"] == 500 and record["stderr"] > 0

    def test_gen_round_trip(self, capsys, tmp_path, monkeypatch):
        code, out, _ = run(capsys, "gen", "--graph", "torus:6,2")
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        code2, out2, _ = run(capsys, "gen", "--graph", "-")
        assert code2 == 0
        assert out == out2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "z.json"
        code, out, _ = run(capsys, "zexact", "--graph", "cycle:4",
                           "--lambda", "1", "--p", "1",
                           "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text()) == {"value": "7"}

    def test_polymers_csv(self, capsys):
        code, out, _ = run(capsys, "polymers", "--graph", "cycle:6",
                           "--lambda", "1", "--p", "1/2", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "side,vertices,closure_size,boundary_size,weight"
        assert len(lines) == 4  # three singleton polymers on side E
        assert all(line.endswith("9/16") for line in lines[1:])

    def test_xi_matches_library(self, capsys):
        code, out, _ = run(capsys, "xi", "--graph", "cycle:6",
                           "--lambda", "1/10", "--p", "1", "--side", "O")
        assert code == 0
        assert json.loads(out) == {"side": "O", "xi": "151/121"}

    def test_clusters_terms(self, capsys):
        code, out, _ = run(capsys, "clusters", "--graph", "hypercube:3",
                           "--lambda", "1/20", "--p", "1", "--k-max", "3")
        assert code == 0
        rows = json.loads(out)
        assert [r["k"] for r in rows] == [1, 2, 3]
        assert rows[0]["L_k"] == "1600/9261"
        assert rows[0]["xi"] == "10861/9261"
        residuals = [r["residual"] for r in rows]
        assert residuals == sorted(residuals, reverse=True)

    def test_clusters_depth_six(self, capsys):
        code, out, _ = run(capsys, "clusters", "--graph", "cycle:6",
                           "--lambda", "1/40", "--p", "1", "--k-max", "6")
        assert code == 0
        rows = json.loads(out)
        assert [r["k"] for r in rows] == [1, 2, 3, 4, 5, 6]
        residuals = [r["residual"] for r in rows]
        assert residuals == sorted(residuals, reverse=True)

    def test_tv_matches_library(self, capsys):
        code, out, _ = run(capsys, "tv", "--graph", "cycle:6",
                           "--lambda", "1/2", "--p", "1")
        assert code == 0
        g = build_cycle(6)
        params = ModelParams(F(1, 2), 1)
        expected = tv_distance(mu_table(g, params),
                               mu_hat_table(g, params))
        assert json.loads(out)["tv"] == f"{expected.numerator}/{expected.denominator}"

    @settings(max_examples=25, deadline=None)
    @given(spec=st.sampled_from(["cycle:4", "cycle:6", "cycle:8",
                                 "hypercube:3", "kss:3"]),
           lam=st.fractions(min_value=F(1, 50), max_value=3,
                            max_denominator=50),
           p=st.fractions(min_value=0, max_value=1, max_denominator=50))
    @example(spec="torus:4,2", lam=F(2, 3), p=F(1, 3))
    def test_tv_by_capture_classes_equals_the_table_distance(self, spec,
                                                             lam, p):
        g = build_graph_from_spec(spec)
        for pr in (p, F(0), F(1)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["tv", "--graph", spec, "--lambda", str(lam),
                             "--p", str(pr)])
            assert code == 0
            params = ModelParams(lam, pr)
            expected = tv_distance(mu_table(g, params),
                                   mu_hat_table(g, params))
            assert parse_rational(json.loads(out.getvalue())["tv"]) == \
                expected

    def test_sample_muhat_deterministic_and_complete(self, capsys):
        args = ("sample-muhat", "--graph", "cycle:4", "--lambda", "1",
                "--p", "1", "--samples", "300", "--seed", "5")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0 and out1 == out2
        rows = json.loads(out1)
        assert sum(r["count"] for r in rows) == 300
        assert all(r["side"] in ("E", "O") for r in rows)

    # K1,1 has a closure cutoff of floor(3/4 * 1) = 0, so no polymer: the
    # default size max leaves every family empty and Xi = 1
    @pytest.mark.parametrize("argv", [
        ("xi",), ("polymers",), ("clusters",),
        ("audit-kp", "--mode", "truncation"), ("audit-kp", "--mode", "sum"),
        ("sample-muhat", "--samples", "20", "--seed", "3"),
    ])
    def test_k11_has_an_empty_polymer_family(self, capsys, argv):
        code, out, err = run(capsys, argv[0], "--graph", "kss:1",
                             "--lambda", "1", "--p", "1/2", *argv[1:])
        assert (code, err) == (0, "")
        if argv[0] == "xi":
            assert json.loads(out)["xi"] == "1"
        if argv[0] == "polymers":
            assert json.loads(out) == []

    def test_k11_sample_muhat_draws_equal_the_list_sampler(self, capsys):
        code, out, _ = run(capsys, "sample-muhat", "--graph", "kss:1",
                           "--lambda", "1", "--p", "1/2", "--samples", "200",
                           "--seed", "9")
        assert code == 0
        oracle = ListMuHatSampler(build_complete_bipartite(1),
                                  ModelParams(1, F(1, 2)))
        drawn = collections.Counter(oracle.draw(9, k) for k in range(200))
        assert {(r["mask"], r["side"]): r["count"]
                for r in json.loads(out)} == drawn


class TestClosedFormCommand:
    def test_every_family_choice_has_a_closed_form(self, capsys):
        subcommands, = (action.choices for action in build_parser()._actions
                        if action.dest == "cmd")
        family, = (action for action in subcommands["closed-form"]._actions
                   if action.dest == "family")
        assert list(family.choices) == list(CLOSED_FORMS) == \
            list(FAMILY_NEEDS)
        for name in family.choices:
            code, out, _ = run(capsys, "closed-form", "--family", name,
                               *FAMILY_NEEDS[name], "--p", "1/2")
            assert code == 0
            assert json.loads(out)["family"] == name

    def test_torus_in_regime(self, capsys):
        code, out, _ = run(capsys, "closed-form", "--family", "torus",
                           "--m", "6", "--t", "2", "--p", "1/1", "--verify")
        assert code == 0
        record = json.loads(out)
        assert record["formula_value"] == record["oracle_value"] == "135/256"
        assert record["regime_ok"] is True and record["match"] is True

    def test_torus_out_of_regime_documented(self, capsys):
        code, out, _ = run(capsys, "closed-form", "--family", "torus",
                           "--m", "6", "--t", "1", "--p", "1", "--verify")
        assert code == 0  # disagreement outside the regime is expected
        record = json.loads(out)
        assert record["formula_value"] == "3/32"
        assert record["oracle_value"] == "-9/32"
        assert record["regime_ok"] is False

    @pytest.mark.parametrize("family", [["hypercube", "--t", "1"],
                                        ["kss", "--s", "1", "--t", "1"]])
    def test_single_edge_out_of_regime_exits_zero(self, capsys, family):
        code, out, _ = run(capsys, "closed-form", "--family", *family,
                           "--p", "1/2", "--verify")
        assert code == 0
        record = json.loads(out)
        assert record["formula_value"] == "-9/32"
        assert record["oracle_value"] == "0"
        assert record["regime_ok"] is False

    def test_midlayer(self, capsys):
        code, out, _ = run(capsys, "closed-form", "--family", "midlayer",
                           "--d", "3", "--p", "1", "--verify")
        assert code == 0
        record = json.loads(out)
        assert record["match"] is True and record["regime_ok"] is True

    def test_kss_product(self, capsys):
        code, out, _ = run(capsys, "closed-form", "--family", "kss",
                           "--s", "2", "--t", "2", "--p", "1/2", "--verify")
        assert code == 0
        assert json.loads(out)["match"] is True

    def test_hypercube(self, capsys):
        code, out, _ = run(capsys, "closed-form", "--family", "hypercube",
                           "--t", "4", "--p", "1/2", "--verify")
        assert code == 0
        record = json.loads(out)
        assert record["match"] is True and record["regime_ok"] is True

    def test_l1_with_graph(self, capsys):
        code, out, _ = run(capsys, "closed-form", "--family", "l1",
                           "--graph", "cycle:6", "--lambda", "1",
                           "--p", "1/2", "--verify")
        assert code == 0
        record = json.loads(out)
        assert record["formula_value"] == "27/16"
        assert record["match"] is True

    @pytest.mark.parametrize("graph,regime_ok", [
        # no side-E singleton is a polymer on these, so L_1 = 0
        ("kss:3", False), ("cycle:4", False),
        ("cycle:6", True), ("hypercube:3", True),
    ])
    def test_l1_regime(self, capsys, graph, regime_ok):
        code, out, _ = run(capsys, "closed-form", "--family", "l1",
                           "--graph", graph, "--p", "1/2", "--verify")
        assert code == 0  # disagreement outside the regime is expected
        record = json.loads(out)
        assert record["regime_ok"] is regime_ok
        assert record["match"] is regime_ok
        if not regime_ok:
            assert record["oracle_value"] == "0"

    @pytest.mark.parametrize("argv,value", [
        (("--family", "midlayer", "--d", "12"), l2_middle_layer(12, F(1, 2))),
        (("--family", "torus", "--m", "60", "--t", "3"),
         l2_torus_bracket(60, 3, F(1, 2))),
    ])
    def test_formula_alone_builds_no_graph(self, capsys, argv, value):
        # the oracle graphs would have 2,704,156 and 216,000 vertices
        code, out, _ = run(capsys, "closed-form", *argv, "--p", "1/2")
        assert code == 0
        assert json.loads(out) == {"family": argv[1],
                                   "formula_value": format_rational(value)}

    @pytest.mark.parametrize("argv,message", [
        (("midlayer", "--d", "1"), "middle layer formula needs d >= 2, got 1"),
        (("midlayer", "--d", "0"), "middle layer formula needs d >= 2, got 0"),
        (("kss", "--s", "0", "--t", "2"),
         "need s >= 1 and t >= 1, got s=0, t=2"),
        (("hypercube", "--t", "0"), "need s >= 1 and t >= 1, got s=1, t=0"),
        (("torus", "--m", "4", "--t", "2"),
         "torus formula needs even m >= 6, got 4"),
        (("torus", "--m", "6", "--t", "0"), "dimension must be >= 1, got 0"),
    ])
    def test_out_of_range_family_refused_before_arithmetic(
            self, capsys, monkeypatch, argv, message):
        def no_arithmetic(*args):
            raise AssertionError("the formula ran before the guard")
        monkeypatch.setattr("isingpoly.cli.l2_codegree", no_arithmetic)
        monkeypatch.setattr("isingpoly.formulas.l2_codegree", no_arithmetic)
        code, out, err = run(capsys, "closed-form", "--family", *argv,
                             "--p", "1/2")
        assert code == 1
        assert out == ""
        assert err == f"isingpoly: error: {message}\n"

    def test_l1_requires_graph(self, capsys):
        code, _, err = run(capsys, "closed-form", "--family", "l1",
                           "--p", "1/2")
        assert code == 1
        assert "needs --graph" in err

    def test_missing_family_argument(self, capsys):
        code, _, err = run(capsys, "closed-form", "--family", "torus",
                           "--m", "6", "--p", "1")
        assert code == 1
        assert "--t" in err


class TestAuditCommands:
    def test_iso_product_passes(self, capsys):
        code, out, _ = run(capsys, "audit-iso", "--graph",
                           "product:kss:2+kss:2", "--property", "product")
        assert code == 0
        rows = {r["condition"]: r for r in json.loads(out)}
        assert rows["codegree"]["holds"] is True
        assert rows["codegree"]["value"] == 2
        assert rows["near_half"]["holds"] is True
        assert rows["worst_c"]["value"] > 0

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_iso_product_reads_the_torus_label(self, capsys, fmt):
        runs = [run(capsys, "audit-iso", "--graph", spec, "--property",
                    "product", "--size-cap", "3", "--format", fmt)
                for spec in ("torus:6,2", "product:cycle:6+cycle:6")]
        assert runs[0] == runs[1]
        assert runs[0][0] == 0

    def test_iso_product_of_a_product(self, capsys):
        # the inner product:cycle:4 is one factor of four vertices
        code, out, _ = run(capsys, "audit-iso", "--graph",
                           "product:product:cycle:4+cycle:4+cycle:6",
                           "--property", "product", "--size-cap", "1")
        assert code == 0
        rows = {r["condition"]: r for r in json.loads(out)}
        assert rows["codegree"]["bound"] == 6
        assert rows["near_half"]["checked"] == 96

    def test_exhaustive_size_cap_past_the_side(self, capsys):
        # a side of Q3 has 4 vertices, so no swept set is larger than 4
        start = time.perf_counter()
        huge = run(capsys, "audit-iso", "--graph", "hypercube:3",
                   "--size-cap", "1000000000")
        assert time.perf_counter() - start < 1
        assert huge == run(capsys, "audit-iso", "--graph", "hypercube:3",
                           "--size-cap", "4")

    def test_iso_property_one_passes_on_hypercube(self, capsys):
        code, out, _ = run(capsys, "audit-iso", "--graph", "hypercube:4",
                           "--property", "one", "--size-cap", "3")
        assert code == 0
        rows = json.loads(out)
        names = [r["condition"] for r in rows]
        assert names[:3] == ["Ia1", "Ia2", "Ia3"]
        assert any(n.startswith("Ib.") for n in names)

    def test_iso_property_one_rows_on_q4(self, capsys):
        # the README command: each condition covers the 324 subsets of at
        # most four of the eight vertices of either side
        code, out, _ = run(capsys, "audit-iso", "--graph", "hypercube:4",
                           "--property", "one", "--size-cap", "4", "--c1",
                           "2", "--c2", "10", "--c3", "3", "--c4", "1",
                           "--c5", "0.5")
        assert code == 0
        assert json.loads(out) == [
            {"condition": "Ia1", "holds": True, "checked": 324,
             "margin": 2.0, "witness": [0], "witness_side": "E",
             "neighborhood": 4, "bound": 2.0},
            {"condition": "Ia2", "holds": True, "checked": 324,
             "margin": 3.6, "witness": [0], "witness_side": "E",
             "neighborhood": 4, "bound": 0.4},
            {"condition": "Ia3", "holds": True, "checked": 324,
             "margin": 1.0, "witness": [0, 3, 5, 9], "witness_side": "E",
             "neighborhood": 7, "bound": 6.0},
            {"condition": "Ib.n_over_d_power", "value": 0.0078125},
            {"condition": "Ib.log_n_over_d", "value": 0.6931471805599453}]

    def test_iso_property_two(self, capsys):
        code, out, _ = run(capsys, "audit-iso", "--graph", "torus:6,2",
                           "--property", "two", "--size-cap", "2")
        assert code == 0
        rows = {r["condition"]: r for r in json.loads(out)}
        assert rows["IIb"]["value"] == 2

    def test_kp_sum_mode(self, capsys):
        code, out, _ = run(capsys, "audit-kp", "--graph", "hypercube:3",
                           "--lambda", "1/20", "--p", "1", "--mode", "sum")
        assert code == 0
        record = json.loads(out)
        assert record["holds"] is True
        assert record["polymer_count"] == 4
        assert len(record["tail_shapes"]) == 3

    def test_kp_sum_tail_shapes_past_float64_only_report(self, capsys):
        # alpha_tilde ~ 1e300 raised to a positive power at depth 2 is past
        # the float64 range; the shape keeps its magnitude as an mpmath
        # string and the verdict stands
        argv = ("audit-kp", "--graph", "cycle:6", "--lambda", "1e300",
                "--p", "1", "--mode", "sum", "--tail-depth")
        code, out, err = run(capsys, *argv, "1")
        assert code == 0, err
        shallow = json.loads(out)
        code, out, err = run(capsys, *argv, "2")
        assert code == 0, err
        deep = json.loads(out)
        assert deep["worst_vertex_sum"] == shallow["worst_vertex_sum"]
        assert deep["holds"] == shallow["holds"]
        *head, last = deep["tail_shapes"]
        assert head == shallow["tail_shapes"]
        assert last.endswith("e+1204")
        assert abs(mpmath.mpf(last) / mpmath.mpf("6.9511425e1204") - 1) < 1e-7

    def test_z_split_asserted(self, capsys):
        code, out, _ = run(capsys, "audit-z", "--d", "1000",
                           "--lambda", "1", "--p", "1", "--C", "1",
                           "--singletons", "10", "--ell", "100")
        assert code == 0
        record = json.loads(out)
        assert record["s"] == "225"
        assert record["asserted"] is True
        assert record["low_ok"] is True and record["high_ok"] is True

    def test_z_halfell_report_only(self, capsys):
        code, out, _ = run(capsys, "audit-z", "--d", "4", "--lambda", "1",
                           "--p", "1/2", "--C", "1", "--psi", "0;1;0,1")
        assert code == 0
        record = json.loads(out)
        assert record["mode"] == "halfell"
        assert record["asserted"] is False

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_z_constant_must_be_positive_and_finite(self, capsys, value):
        for source in (["--singletons", "2"], ["--psi", "0;1"]):
            code, _, err = run(capsys, "audit-z", "--d", "3", "--lambda", "1",
                               "--p", "1/2", "--C", value, *source)
            assert code == 1
            assert "C must be positive and finite" in err

    def test_z_source_exclusivity(self, capsys):
        code, _, err = run(capsys, "audit-z", "--d", "4", "--lambda", "1",
                           "--p", "1", "--C", "1")
        assert code == 1
        assert "exactly one" in err
        code, _, err = run(capsys, "audit-z", "--d", "4", "--lambda", "1",
                           "--p", "1", "--C", "1", "--psi", "0",
                           "--singletons", "2")
        assert code == 1

    def test_container_report(self, capsys):
        code, out, _ = run(capsys, "audit-container", "--graph", "cycle:6",
                           "--lambda", "1", "--p", "1/2",
                           "--a", "1", "--b", "2", "--hypothesis-c2", "10")
        assert code == 0
        record = json.loads(out)
        assert record["lhs"] == "27/16"
        assert record["count"] == 3
        assert record["hypothesis_holds"] is True

    def test_nonpolymer_report(self, capsys):
        code, out, _ = run(capsys, "audit-nonpolymer", "--graph", "cycle:6",
                           "--lambda", "1", "--p", "1/2")
        assert code == 0
        record = json.loads(out)
        assert record["ratio"] == "121/2041"
        assert record["count"] == 16


# A valid run of each subcommand in each of its modes, on tiny inputs; the
# fuzz below replaces one int or float option at a time by -1 and by 0.
FUZZ_BASES = {
    "gen": [["--graph", "cycle:6"]],
    "zexact": [["--graph", "cycle:6", "--lambda", "1", "--p", "1/2"]],
    "isets": [["--graph", "cycle:6", "--verify"]],
    "percolate-exact": [["--graph", "cycle:6", "--lambda", "1", "--p", "1/2",
                         "--verify"]],
    "percolate-mc": [["--graph", "cycle:6", "--lambda", "1", "--p", "1/2",
                      "--samples", "10", "--seed", "1"]],
    "polymers": [["--graph", "cycle:6", "--lambda", "1", "--p", "1/2",
                  "--size-max", "2"]],
    "xi": [["--graph", "cycle:6", "--lambda", "1", "--p", "1/2"]],
    "clusters": [["--graph", "cycle:6", "--lambda", "1", "--p", "1/2"]],
    "closed-form": [
        ["--p", "1/2", "--family", family, *FAMILY_NEEDS[family], *verify]
        for family in FAMILY_NEEDS for verify in ([], ["--verify"])],
    "tv": [["--graph", "cycle:6", "--lambda", "1", "--p", "1/2"]],
    "sample-muhat": [["--graph", "cycle:6", "--lambda", "1", "--p", "1/2",
                      "--samples", "10", "--seed", "1"]],
    "audit-iso": [["--graph", "product:kss:2+kss:2", "--size-cap", "2",
                   "--property", prop] for prop in ("one", "two", "product")],
    "audit-kp": [["--graph", "cycle:6", "--lambda", "1/40", "--p", "1",
                  "--mode", mode] for mode in ("sum", "truncation")],
    "audit-z": [["--d", "4", "--lambda", "1", "--p", "1/2", "--C", "2",
                 *source, *ell] for source in (["--singletons", "2"],
                                               ["--psi", "0;1"])
                for ell in ([], ["--ell", "1"])],
    # the first has b < a, an empty class
    "audit-container": [["--graph", "cycle:6", "--lambda", "1", "--p", "1/2",
                         "--a", "1", "--b", "0"],
                        ["--graph", "cycle:6", "--lambda", "1", "--p", "1/2",
                         "--a", "1", "--b", "2", "--hypothesis-c2", "10"]],
    "audit-nonpolymer": [["--graph", "cycle:6", "--lambda", "1", "--p",
                          "1/2"]],
}


def numeric_options(cmd, argv):
    """The int and float options a run of cmd reads: the subcommand's own,
    and those the modes selected in argv read."""
    flags = [flag for flag, kwargs in (
        (option, OPTIONS[option]) if isinstance(option, str) else option
        for option in COMMANDS[cmd][2])
        if kwargs.get("type") in (int, float)]
    for selector, modes in MODE_OPTIONS.get(cmd, {}).items():
        mode = argv[argv.index(selector) + 1]
        flags += [flag for flag, (kind, _) in modes[mode].items()
                  if kind in (int, float)]
    return flags


def with_value(argv, flag, value):
    if flag not in argv:
        return [*argv, flag, value]
    i = argv.index(flag) + 1
    return [*argv[:i], value, *argv[i + 1:]]


def may_exit_zero(argv, flag, value):
    """The runs at -1 or 0 that are valid: seed 0, audit-container's empty
    class b < a, and no tail shapes."""
    if flag == "--seed":
        return value == "0"
    empty_class = "--b" in argv and int(argv[argv.index("--b") + 1]) < \
        int(argv[argv.index("--a") + 1])
    if flag in ("--a", "--b"):
        return empty_class
    return (argv[0], flag, value) == ("audit-kp", "--tail-depth", "0")


def test_numeric_options_at_minus_one_and_zero():
    assert set(FUZZ_BASES) == set(COMMANDS)
    exit_zero, allowed, escaped = set(), set(), []
    for cmd, bases in FUZZ_BASES.items():
        for base in bases:
            for flag in numeric_options(cmd, base):
                for value in ("-1", "0"):
                    argv = [cmd, *with_value(base, flag, value)]
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        try:
                            code = main(argv)
                        except Exception as exc:
                            escaped.append((argv, repr(exc)))
                            continue
                    if code == 0:
                        exit_zero.add(" ".join(argv))
                    if may_exit_zero(argv, flag, value):
                        allowed.add(" ".join(argv))
    assert escaped == []
    assert exit_zero == allowed
    # two seeds of 0, four empty classes, and one depth of 0
    assert len(allowed) == 7


SRC = Path(__file__).resolve().parent.parent / "src" / "isingpoly"
# sweep_cap stays only on the two functions the benchmark's exact_Z and
# isets jobs pass it to, until they stop passing it
SWEEP_CAP_TAKERS = {"exact_Z", "count_independent_sets"}


def test_no_function_takes_a_cap():
    # every limit is a constant in graphs, read when a call starts, and the
    # closure cutoff is polymers.closure_cutoff's alone
    takers = collections.defaultdict(set)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                args = node.args
                for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
                    if arg.arg in ("enum_cap", "edge_cap", "budget",
                                   "sweep_cap", "rho", "limit"):
                        takers[arg.arg].add(getattr(node, "name", "lambda"))
    assert takers == {"sweep_cap": SWEEP_CAP_TAKERS}


CEILINGS = {"VERTEX_CEILING", "BYTE_CEILING", "WALK_CEILING", "SWEEP_CEILING",
            "EDGE_SWEEP_CEILING", "MASK_CEILING", "DECORATION_CEILING",
            "URSELL_CEILING"}


class RefusalScan(ast.NodeVisitor):
    """Per module: the functions that build or raise a BudgetError, and
    the names compared in the functions that refuse, through graphs.refuse
    or graphs.charge_bytes, each under its innermost enclosing function."""

    def __init__(self):
        self.stack = ["<module>"]
        self.raisers = set()
        self.compared = collections.defaultdict(set)
        self.refusers = set()

    def visit_FunctionDef(self, node):
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    def visit_Call(self, node):
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name == "BudgetError":
            self.raisers.add(self.stack[-1])
        if name in ("refuse", "charge_bytes"):
            self.refusers.add(self.stack[-1])
        self.generic_visit(node)

    def visit_Raise(self, node):
        if node.exc is not None and "BudgetError" in ast.unparse(node.exc):
            self.raisers.add(self.stack[-1])
        self.generic_visit(node)

    def visit_Compare(self, node):
        for part in ast.walk(node):
            if isinstance(part, ast.Name):
                self.compared[self.stack[-1]].add(part.id)
            elif isinstance(part, ast.Attribute):
                self.compared[self.stack[-1]].add(ast.unparse(part))
        self.generic_visit(node)


def module_limits(tree) -> tuple[set, dict]:
    """A module's own constants (upper-case names assigned at top level or
    imported from a module other than graphs) and its aliases, each local
    name assigned straight from a name or from a tuple of names."""
    constants = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            constants |= {t.id for t in node.targets
                          if isinstance(t, ast.Name)}
        elif isinstance(node, ast.ImportFrom) and node.module != "graphs":
            constants |= {a.asname or a.name for a in node.names}
    constants = {c for c in constants if c.lstrip("_").isupper()}
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            pairs = ([(target, value)] if not isinstance(target, ast.Tuple)
                     else zip(target.elts, getattr(value, "elts", ())))
            for t, v in pairs:
                if isinstance(t, ast.Name) and isinstance(
                        v, (ast.Name, ast.Attribute)):
                    aliases.setdefault(t.id, set()).add(ast.unparse(v))
    return constants, aliases


def test_every_refusal_goes_through_graphs():
    # graphs.refuse raises every BudgetError, and every constant a refusal
    # compares against is a ceiling defined in graphs. subgraphs._MEMO_CAP
    # is the one exception: past it subgraph_z drops its memo, which
    # bounds memory and refuses nothing.
    assert {name for name in vars(graphs) if name.endswith("_CEILING")} \
        == CEILINGS
    raisers, limits, refusing = set(), set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        scan = RefusalScan()
        scan.visit(tree)
        raisers |= {(path.name, f) for f in scan.raisers}
        if scan.refusers:
            refusing.add(path.name)
        if path.name == "graphs.py":
            continue
        constants, aliases = module_limits(tree)
        for func in scan.refusers:
            names = set(scan.compared[func])
            while True:  # follow local names to what they were set from
                grown = names.union(*(aliases.get(n, ()) for n in names))
                if grown == names:
                    break
                names = grown
            for name in names:
                head, _, attr = name.partition(".")
                if name in constants or (attr.isupper() and head != "graphs"):
                    limits.add((path.name, name))
    assert raisers == {("graphs.py", "refuse")}
    assert limits == {("subgraphs.py", "_MEMO_CAP")}
    assert refusing == {"audit.py", "clusters.py", "graphs.py", "model.py",
                        "polymers.py", "subgraphs.py"}


@pytest.mark.parametrize("cmd", COMMANDS)
def test_every_subcommand_refuses_budget(capsys, cmd):
    # no option sets a limit or the closure cutoff: each limit is a fixed
    # ceiling in graphs, and the cutoff is fixed at 3/4 of a side
    argv = (cmd, *FUZZ_BASES[cmd][0])
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert json.loads(out)
    for extra in (("--budget", "100"), ("--rho", "3/4")):
        code, out, err = run(capsys, *argv, *extra)
        assert (code, out) == (1, "")
        assert f"unrecognized arguments: {' '.join(extra)}" in err


README = Path(__file__).resolve().parent.parent / "README.md"
CRITERION_8 = ("isingpoly audit-kp --graph cycle:6 --lambda 1/10 --p 1 "
               "--mode truncation --fg-denom 10")


def readme_commands():
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(),
                        re.M | re.S)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("isingpoly ")]


def test_readme_lists_its_commands():
    commands = readme_commands()
    assert len(commands) == 8
    assert CRITERION_8 in commands


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_runs(capsys, line):
    # criterion 8's documented false premise exits 2
    code, out, err = run(capsys, *shlex.split(line)[1:])
    assert code == (2 if line == CRITERION_8 else 0), err
    assert json.loads(out)


# Cold runs of these subcommands import no mpmath, and no numpy but for the
# seeded routes. clusters and audit-kp report on the log scale, so they load
# mpmath: the positive controls.
LIGHT_COMMANDS = ("gen", "zexact", "isets", "percolate-exact", "percolate-mc",
                  "polymers", "xi", "tv", "sample-muhat", "closed-form",
                  "audit-iso")
SEEDED_COMMANDS = ("percolate-mc", "sample-muhat")
LOG_SCALE_COMMANDS = ("clusters", "audit-kp")


@pytest.mark.parametrize("case", ["isingpoly", "isingpoly.cli",
                                  *LIGHT_COMMANDS, *LOG_SCALE_COMMANDS])
def test_cold_run_imports_only_what_it_uses(case):
    # numpy costs most of the CLI's start-up and mpmath most of the rest:
    # only the seeded routes import numpy, and only the log-scale reports
    # import mpmath. No run imports dataclasses, whose import of inspect
    # (with ast, dis and tokenize) only numpy's may bring, and no case,
    # each writing json, imports csv. -X importtime lists every module a
    # cold run imports on stderr.
    argv = ["-c", f"import {case}"] if case.startswith("isingpoly") else \
        ["-m", "isingpoly.cli", case, *FUZZ_BASES[case][-1]]
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[-1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "isingpoly.model" in imported
    if case not in SEEDED_COMMANDS:
        assert "numpy" not in imported
        assert "inspect" not in imported
    assert ("mpmath" in imported) == (case in LOG_SCALE_COMMANDS)
    assert "dataclasses" not in imported
    assert "csv" not in imported


def test_value_types_keep_their_record_behaviour():
    # what the library's consumers rely on in its value types: equal,
    # equally hashed parameters (PolymerFamily keys weights by them),
    # fields that cannot be assigned, cluster equality blind to the
    # family, and the validation messages
    params = ModelParams(1, F(1, 2))
    assert params == ModelParams(F(1), F(1, 2))
    assert hash(params) == hash(ModelParams(F(1), F(1, 2)))
    assert params != ModelParams(1, F(1, 3))
    cluster = max(enumerate_clusters(build_cycle(6), "E", params),
                  key=lambda c: len(c.entries))
    poly = cluster.entries[0][0]
    for obj, name in ((params, "lam"), (poly, "vertices"),
                      (cluster, "size")):
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
    twin = Cluster(cluster.entries, cluster.size, cluster.orderings,
                   cluster.ursell_value, family=None)
    assert twin == cluster
    assert Cluster(cluster.entries, cluster.size, cluster.orderings + 1,
                   cluster.ursell_value, cluster.family) != cluster
    for build, message in (
            (lambda: ModelParams(0, F(1, 2)), "lambda must be positive, "
                                              "got 0"),
            (lambda: ModelParams(1, F(3, 2)), "p must lie in [0, 1], "
                                              "got 3/2"),
            (lambda: ExpansionEstimate(6, 2, F(-1, 2), 1),
             "lambda must be positive, got -1/2"),
            (lambda: PropertyConstants(c1=1, c4=1, c5=1, c2=0, c3=-1),
             "c2 must be positive and finite, got 0"),
            (lambda: PropertyConstants(c1=1, c4=1, c5=2),
             "c5 must be < 2, got 2"),
            (lambda: KPFunctions(3, 2.0, c1=1, c2=1, c3=math.inf, c5=0),
             "c3 must be positive and finite, got inf"),
            (lambda: PsiFamily(3, ({0}, {3})),
             "coordinate 3 outside range(0, 3)")):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()
