"""Command-line front end.

Builds or ingests graphs, runs the exact computations and audits, and emits
machine-readable records. JSON is the canonical format (one object, or an
array when a run produces several records); CSV is a flat row-per-record
rendering for plotting pipelines. Rationals travel as "p/q" strings.

No numerical logic lives here: main parses the inputs several subcommands
share (the graph, --lambda with --p, --rho and --seed) once, and each
subcommand calls one or two library functions and formats their output.
Exit codes: 0 success, 2 when a verification or audit found a mismatch, 1
for usage, budget, or input errors.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from collections import Counter
from fractions import Fraction
from itertools import chain
from typing import Iterable

from .audit import (
    PropertyConstants,
    PsiFamily,
    check_product_iso,
    check_property_i,
    check_property_ii,
    container_hypothesis_check,
    container_sum_report,
    nonpolymer_weight_report,
    z_psi_halfell_audit,
    z_psi_split_audit,
)
from .clusters import kp_sum_audit, l_k, log_xi_truncation_report
from .formulas import (
    kss_expected_histogram,
    l1_closed,
    l2_codegree,
    l2_midlayer,
    l2_regime_report,
    l2_torus,
    midlayer_expected_histogram,
    singletons_are_polymers,
    torus_expected_histogram,
)
from .graphs import (
    AuditViolation,
    BipartiteGraph,
    BudgetError,
    bits,
    build_cartesian_product,
    build_complete_bipartite,
    build_cycle,
    build_even_torus,
    build_hypercube,
    build_middle_layer,
    graph_from_json,
    graph_json_chunks,
)
from .model import (
    ModelParams,
    MuHatSampler,
    capture_classes,
    count_independent_sets,
    exact_Z,
    percolation_expectation_exact,
    percolation_mc,
)
from .polymers import enumerate_polymers, polymer_to_json_dict, xi_brute
from .rationals import TOO_MANY_DIGITS, format_rational, parse_rational

REQUIRED = "required"
# the isoperimetry and KP constants; audit-kp's sum mode reads all but c4
_CONSTANTS = {"--c1": (float, 2.0), "--c2": (float, 10.0),
              "--c3": (float, 3.0), "--c4": (float, 1.0), "--c5": (float, 0.5)}
# closed-form's families, each declared once: family -> (the options it
# reads, as in MODE_OPTIONS; formula value, given the histogram; oracle
# graph; expected codegree histogram). The second-order rows feed the one
# formula l2_codegree their side size, degree and histogram, the torus and
# midlayer rows through l2_torus and l2_midlayer. The histogram
# functions refuse bad values, so the histogram is taken first; it also
# drives the regime test. l1 has none: its regime is that every singleton
# is a polymer. The lambdas look the library functions up when called, so
# tracing can wrap them.
CLOSED_FORMS = {
    "l1": ({"--graph": (str, REQUIRED), "--lambda": (str, "1")},
           lambda a, h: l1_closed(a.graph.n, a.graph.d, a.params.lam,
                                  a.params.p),
           lambda a: a.graph, lambda a: None),
    "torus": ({"--m": (int, REQUIRED), "--t": (int, REQUIRED)},
              lambda a, h: l2_torus(a.m, a.t, a.params.p),
              lambda a: build_even_torus(a.m, a.t),
              lambda a: torus_expected_histogram(a.t)),
    "midlayer": ({"--d": (int, REQUIRED)},
                 lambda a, h: l2_midlayer(a.d, a.params.p),
                 lambda a: build_middle_layer(a.d),
                 lambda a: midlayer_expected_histogram(a.d)),
    "kss": ({"--s": (int, REQUIRED), "--t": (int, REQUIRED)},
            lambda a, h: l2_codegree((2 * a.s) ** a.t // 2, a.s * a.t, h, 1,
                                     a.params.p),
            lambda a: build_cartesian_product(
                [build_complete_bipartite(a.s)] * a.t),
            lambda a: kss_expected_histogram(a.s, a.t)),
    # the kss family at s = 1
    "hypercube": ({"--t": (int, REQUIRED)},
                  lambda a, h: l2_codegree(2 ** a.t // 2, a.t, h, 1,
                                           a.params.p),
                  lambda a: build_hypercube(a.t),
                  lambda a: kss_expected_histogram(1, a.t)),
}
# subcommand -> option that selects a mode -> mode -> the options that mode
# reads, as flag -> (type, default or REQUIRED). Each is declared with
# default None; scope_options fills in the chosen mode's defaults and
# refuses the options it does not read.
MODE_OPTIONS = {
    "audit-kp": {"--mode": {
        "sum": {**{f: _CONSTANTS[f] for f in ("--c1", "--c2", "--c3", "--c5")},
                "--size-max": (int, 3), "--tail-depth": (int, 3)},
        "truncation": {"--k-max": (int, 3), "--fg-denom": (int, None)},
    }},
    "audit-iso": {
        "--property": {
            "one": _CONSTANTS,
            "two": {f: _CONSTANTS[f] for f in ("--c1", "--c4", "--c5")},
            "product": {"--s": (int, None), "--t": (int, None)},
        },
    },
    "closed-form": {"--family": {family: form[0]
                                 for family, form in CLOSED_FORMS.items()}},
}


class CliError(Exception):
    """Usage-level problem: bad spec, missing file, malformed value."""


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _torus(arg: str) -> BipartiteGraph:
    m, t = arg.split(",")
    return build_even_torus(int(m), int(t))


# family -> (the spec's argument, the builder from that argument). Each
# builder refuses a graph past graphs.VERTEX_CEILING before it lists a
# vertex. The builders are looked up when called, so tracing can wrap them.
GRAPH_FAMILIES = {
    "hypercube": ("d", lambda arg: build_hypercube(int(arg))),
    "cycle": ("m", lambda arg: build_cycle(int(arg))),
    "torus": ("m,t", _torus),
    "kss": ("s", lambda arg: build_complete_bipartite(int(arg))),
    "midlayer": ("d", lambda arg: build_middle_layer(int(arg))),
    "product": ("spec+spec", lambda arg: build_cartesian_product(
        [build_graph_from_spec(part) for part in arg.split("+")])),
}


def build_graph_from_spec(spec: str) -> BipartiteGraph:
    kind, _, arg = spec.partition(":")
    if kind not in GRAPH_FAMILIES:
        raise CliError(f"unknown graph family {kind!r} "
                       f"(known: {', '.join(GRAPH_FAMILIES)})")
    try:
        return GRAPH_FAMILIES[kind][1](arg)
    except (ValueError, TypeError) as exc:
        raise CliError(f"bad graph spec {spec!r}: {exc}") from exc


def load_graph(source: str) -> BipartiteGraph:
    """A builder spec, a JSON file path, or '-' for JSON on stdin."""
    if source == "-":
        return graph_from_json(sys.stdin.read())
    if source.partition(":")[0] in GRAPH_FAMILIES:
        return build_graph_from_spec(source)
    if os.path.exists(source):
        with open(source, encoding="utf-8") as fh:
            return graph_from_json(fh.read())
    raise CliError(f"graph source {source!r} is neither a builder spec "
                   "nor an existing file")


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return format_rational(obj)
    # an mpf exists only once a log-scale report has loaded mpmath
    mpmath = sys.modules.get("mpmath")
    if mpmath is not None and isinstance(obj, mpmath.mpf):
        value = float(obj)
        if mpmath.isfinite(obj) and (math.isinf(value)
                                     or (value == 0 and obj != 0)):
            # a finite value past the float64 range keeps its magnitude
            return mpmath.nstr(obj, 17)
        obj = value
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)  # "inf", "-inf", "nan"
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _csv_cell(value):
    value = _jsonable(value)
    if isinstance(value, list):
        return " ".join(str(v) for v in value)
    if value is None:
        return ""
    return value


def emit_records(records: list[dict], fmt: str, out) -> None:
    if fmt == "json":
        payload = records[0] if len(records) == 1 else records
        out.write(json.dumps(_jsonable(payload), sort_keys=True))
        out.write("\n")
        return
    import csv  # json runs, the default, never load it

    fields: list[str] = []
    for record in records:
        for key in record:
            if key not in fields:
                fields.append(key)
    writer = csv.DictWriter(out, fieldnames=fields, restval="")
    writer.writeheader()
    for record in records:
        writer.writerow({k: _csv_cell(v) for k, v in record.items()})


def _render(records: list, args) -> Iterable[str]:
    """The output in pieces: gen's graph as JSON, written as it is made, or
    the records in args.format, rendered whole before any is written. The
    one ValueError here is Python's int-to-string limit, as in
    parse_rational."""
    if "format" not in args:
        return chain(graph_json_chunks(records[0]), ["\n"])
    buffer = io.StringIO()
    try:
        emit_records(records, args.format, buffer)
    except ValueError as exc:
        raise ValueError(TOO_MANY_DIGITS) from exc
    return [buffer.getvalue()]


# -- subcommand handlers; each returns (records, ok) --------------------------
# main has already replaced the shared inputs: args.graph is the graph,
# args.params holds --lambda and --p, and args.rho is a Fraction. gen's one
# record is the graph, which _render writes as JSON.


def cmd_gen(args):
    return [args.graph], True


def cmd_zexact(args):
    value = exact_Z(args.graph, args.params, sweep_cap=args.budget)
    return [{"value": value}], True


def cmd_isets(args):
    count = count_independent_sets(args.graph, sweep_cap=args.budget)
    record = {"count": count}
    ok = True
    if args.verify:
        z_count = exact_Z(args.graph, ModelParams(1, 1), sweep_cap=args.budget)
        record["z_count"] = z_count
        record["match"] = ok = z_count == count
    return [record], ok


def cmd_percolate_exact(args):
    value = percolation_expectation_exact(args.graph, args.params,
                                          edge_cap=args.budget)
    record = {"value": value}
    ok = True
    if args.verify:
        z = exact_Z(args.graph, args.params, sweep_cap=args.budget)
        record["z_value"] = z
        record["match"] = ok = z == value
    return [record], ok


def cmd_percolate_mc(args):
    mean, stderr = percolation_mc(args.graph, args.params, args.samples,
                                  args.seed)
    return [{"mean": mean, "stderr": stderr, "samples": args.samples,
             "seed": args.seed}], True


def cmd_polymers(args):
    records = [polymer_to_json_dict(args.graph, args.params, poly)
               for poly in enumerate_polymers(args.graph, args.side, args.rho,
                                              size_max=args.size_max,
                                              enum_cap=args.budget)]
    return records, True


def cmd_xi(args):
    value = xi_brute(args.graph, args.side, args.params, args.rho,
                     enum_cap=args.budget)
    return [{"side": args.side, "xi": value}], True


def cmd_clusters(args):
    report = log_xi_truncation_report(args.graph, args.side, args.params,
                                      args.rho, k_max=args.k_max,
                                      enum_cap=args.budget)
    return [dict(term, xi=report["xi"], log_xi=report["log_xi"])
            for term in report["terms"]], True


def cmd_closed_form(args):
    _, formula, oracle_graph, histogram = CLOSED_FORMS[args.family]
    expected = histogram(args)
    record = {"family": args.family, "formula_value": formula(args, expected)}
    ok = True
    if args.verify:
        # only the oracle builds a graph, so only it meets the vertex ceiling
        g = oracle_graph(args)
        # l1 is the first term at the given fugacity; main puts the
        # second-order forms at fugacity 1
        oracle = l_k(g, "E", args.params, k=1 if expected is None else 2,
                     enum_cap=args.budget)
        record["oracle_value"] = oracle
        record["match"] = ok = record["formula_value"] == oracle
        if expected is None:
            regime_ok = singletons_are_polymers(g, "E")
        else:
            regime_ok = l2_regime_report(g, "E", expected)["regime_ok"]
        record["regime_ok"] = regime_ok
        # out-of-regime disagreement is documented behavior, not an error
        ok = ok or not regime_ok
    return [record], ok


def cmd_tv(args):
    w0, w1, w2, _ = capture_classes(args.graph, args.params, args.rho,
                                    sweep_cap=args.budget)
    z, z_hat = w0 + w1 + w2, w1 + 2 * w2
    # mu-hat / mu is h * Z / Z-hat on the subsets captured on h sides
    tv = (w0 * z_hat + w1 * abs(z_hat - z) + w2 * abs(z_hat - 2 * z)) / \
        (2 * z * z_hat)
    return [{"tv": tv}], True


def cmd_sample_muhat(args):
    if args.samples < 1:
        raise ValueError(f"samples must be >= 1, got {args.samples}")
    sampler = MuHatSampler(args.graph, args.params, args.rho,
                           enum_cap=args.budget)
    counts = Counter(sampler.draw(args.seed, k) for k in range(args.samples))
    records = []
    for (mask, side), count in sorted(counts.items()):
        records.append({"mask": mask, "vertices": list(bits(mask)),
                        "side": side, "count": count,
                        "samples": args.samples, "seed": args.seed})
    return records, True


def _property_constants(args) -> PropertyConstants:
    return PropertyConstants(c1=args.c1, c4=args.c4, c5=args.c5,
                             c2=args.c2, c3=args.c3)


def _condition_rows(report) -> list[dict]:
    rows = []
    for name, entry in report["conditions"].items():
        worst = entry["worst"]
        rows.append({"condition": name, "holds": entry["holds"],
                     "checked": entry["checked"], "margin": worst["margin"],
                     "witness": list(worst["set"]),
                     "witness_side": worst["side"],
                     "neighborhood": worst["neighborhood"],
                     "bound": worst["bound"]})
    return rows


def cmd_audit_iso(args):
    sweep = dict(size_cap=args.size_cap, enum_cap=args.budget)
    if args.property == "product":
        report = check_product_iso(args.graph, s=args.s, t=args.t, **sweep)
        extra = [{"condition": "codegree", "holds": report["codegree_holds"],
                  "value": report["max_codegree"], "bound": report["s"]},
                 {"condition": "worst_c", "value": report["worst_c"]}]
    elif args.property == "one":
        report = check_property_i(args.graph, _property_constants(args),
                                  **sweep)
        extra = [{"condition": f"Ib.{key}", "value": value}
                 for key, value in report["Ib"].items()]
    else:
        report = check_property_ii(args.graph, _property_constants(args),
                                   **sweep)
        extra = [{"condition": "IIb", "holds": report["IIb"]["holds"],
                  "value": report["IIb"]["max_codegree"],
                  "bound": report["IIb"]["bound"]},
                 {"condition": "IIc.n_over_d6",
                  "value": report["IIc"]["n_over_d6"]}]
    return _condition_rows(report) + extra, report["holds"]


def cmd_audit_kp(args):
    if args.mode == "sum":
        report = kp_sum_audit(args.graph, args.side, args.params, args.c1,
                              args.c2, args.c3, args.c5, args.rho,
                              size_max=args.size_max,
                              tail_depth=args.tail_depth,
                              enum_cap=args.budget)
        record = {
            "mode": "sum",
            "target": report["target"],
            "worst_vertex_sum": report["worst_vertex_sum"],
            "worst_ratio": report["worst_ratio"],
            "holds": report["holds_at_desk_scale"],
            "polymer_count": report["polymer_count"],
            "size_max": report["size_max"],
            "tail_shapes": report["tail_shapes"],
        }
        return [record], report["holds_at_desk_scale"]
    f_of_size = g_of_size = None
    if args.fg_denom is not None:
        denom = args.fg_denom
        if denom < 1:
            raise ValueError(f"fg-denom must be >= 1, got {denom}")

        def f_of_size(size):
            return Fraction(size, denom)
        g_of_size = f_of_size
    report = log_xi_truncation_report(args.graph, args.side, args.params,
                                      args.rho, k_max=args.k_max,
                                      f_of_size=f_of_size,
                                      g_of_size=g_of_size,
                                      enum_cap=args.budget)
    kp_holds = report["kp"].holds if report["kp"] is not None else None
    records = []
    for i, term in enumerate(report["terms"]):
        row = {
            "mode": "truncation",
            "k": term["k"],
            "L_k": term["L_k"],
            "residual_before": term["residual_before"],
            "residual": term["residual"],
            "log_xi": report["log_xi"],
            "kp_holds": kp_holds,
        }
        if report["tail_bounds"] is not None:
            row["tail_bound"] = report["tail_bounds"][i]
            row["tail_shape_ok"] = report["tail_shape_ok"]
        records.append(row)
    return records, kp_holds is not False


def parse_psi_spec(spec: str, d: int) -> PsiFamily:
    """Members separated by ';', coordinates by ','; '-' is the empty set."""
    members = []
    for part in spec.split(";"):
        part = part.strip()
        if part == "-":
            members.append(frozenset())
        elif part:
            try:
                members.append(frozenset(int(x) for x in part.split(",")))
            except ValueError as exc:
                raise CliError(f"bad family member {part!r}") from exc
        else:
            raise CliError("empty member spec; write '-' for the empty set")
    return PsiFamily(d, tuple(members))


def cmd_audit_z(args):
    if (args.psi is None) == (args.singletons is None):
        raise CliError("need exactly one of --psi or --singletons")
    if args.psi is not None:
        family = parse_psi_spec(args.psi, args.d)
    elif args.singletons < 1:
        raise ValueError(f"singletons must be >= 1, got {args.singletons}")
    else:
        family = PsiFamily(args.d, tuple(frozenset({i})
                                         for i in range(args.singletons)))
    if args.ell is not None:
        report = z_psi_split_audit(family, parse_rational(args.ell),
                                   args.params, args.capital_c)
        record = {
            "mode": "split",
            "s": report["s"],
            "ell": report["ell"],
            "hypotheses_hold": report["hypotheses"]["holds"],
            "split_identity_ok": report["split_identity_ok"],
            "low_ok": report["low"]["ok"],
            "high_ok": report["high"]["ok"],
            "low_log_lhs": report["low"]["log_lhs"],
            "low_log_rhs": report["low"]["log_rhs"],
            "high_log_lhs": report["high"]["log_lhs"],
            "high_log_rhs": report["high"]["log_rhs"],
            "asserted": report["asserted"],
        }
    else:
        report = z_psi_halfell_audit(family, args.params, args.capital_c)
        record = {
            "mode": "halfell",
            "ell_psi": report["ell_psi"],
            "hypotheses_hold": report["hypotheses"]["holds"],
            "ok": report["ok"],
            "log_lhs": report["log_lhs"],
            "log_rhs": report["log_rhs"],
            "asserted": report["asserted"],
        }
    # an asserted bound that fails has raised AuditViolation (exit 2)
    return [record], True


def cmd_audit_container(args):
    report = container_sum_report(args.graph, args.side, args.a, args.b,
                                  args.params, enum_cap=args.budget)
    record = dict(report)
    ok = True
    if args.hypothesis_c2 is not None:
        hyp = container_hypothesis_check(args.graph, args.side,
                                         args.hypothesis_c2,
                                         enum_cap=args.budget)
        record["hypothesis_holds"] = ok = hyp["holds"]
        record["hypothesis_checked"] = hyp["checked"]
        record["hypothesis_worst_margin"] = hyp["worst"]["margin"]
    return [record], ok


def cmd_audit_nonpolymer(args):
    report = nonpolymer_weight_report(args.graph, args.params, args.rho,
                                      sweep_cap=args.budget)
    return [report], True


# -- argument wiring -----------------------------------------------------------


def _dest(flag: str) -> str:
    return "lam" if flag == "--lambda" else flag[2:].replace("-", "_")


def _readers(modes: dict, flag: str) -> str:
    return " or ".join(mode for mode, options in modes.items()
                       if flag in options)


def scope_options(args) -> None:
    """Fill in the defaults of the options the chosen modes read; refuse a
    missing required option and any scoped option the mode does not read."""
    for selector, modes in MODE_OPTIONS.get(args.cmd, {}).items():
        mode = getattr(args, _dest(selector))
        for flag in dict.fromkeys(f for opts in modes.values() for f in opts):
            given = getattr(args, _dest(flag)) is not None
            if flag not in modes[mode]:
                if given:
                    raise CliError(f"{flag} applies only to {selector} "
                                   f"{_readers(modes, flag)}")
            elif not given:
                default = modes[mode][flag][1]
                if default is REQUIRED:
                    raise CliError(f"{selector} {mode} needs {flag}")
                setattr(args, _dest(flag), default)


_SPECS = ", ".join(f"{family}:{arg}"
                   for family, (arg, _) in GRAPH_FAMILIES.items())
# flag -> argparse keywords of the options several subcommands share
OPTIONS = {
    "--out": dict(default=None, help="output file (default stdout)"),
    # one unit per subcommand; gen, percolate-mc and audit-z sweep and walk
    # nothing, so they take no --budget. Graph size has a fixed ceiling.
    "--budget": dict(type=int, default=None,
                     help="cap on the subcommand's one unit of work: the "
                          "vertices of a 2^n sweep (zexact, isets, tv, "
                          "audit-nonpolymer), the edges of a 2^|E| sweep "
                          "(percolate-exact), or the sets walked (every "
                          "other); default: the module default"),
    "--graph": dict(required=True,
                    help=f"builder spec ({_SPECS}), a JSON file path, or - "
                         f"for stdin"),
    "--lambda": dict(dest="lam", required=True, help="fugacity as p/q"),
    "--p": dict(required=True, help="percolation parameter as p/q in [0, 1]"),
    "--rho": dict(default="3/4",
                  help="closure-size cutoff as a fraction of a side"),
    "--side": dict(choices=("E", "O"), default="E"),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--samples": dict(type=int, required=True),
    "--seed": dict(type=int, required=True),
}
_GRAPH = ("--budget", "--graph")
_MODEL = (*_GRAPH, "--lambda", "--p")
# subcommand -> (handler, help, options in --help order after --out). An
# option is a flag of OPTIONS or a (flag, argparse keywords) pair. A
# subcommand without --format writes its one record as it is.
COMMANDS = {
    "gen": (cmd_gen, "build a graph and emit its JSON", ("--graph",)),
    "zexact": (cmd_zexact, "exact partition function", (*_MODEL, "--format")),
    "isets": (cmd_isets, "count independent sets by memoised recursion", (
        *_GRAPH, "--format",
        ("--verify", dict(action="store_true",
                          help="also compare against the hard-core partition "
                               "function; mismatch exits 2")))),
    "percolate-exact": (cmd_percolate_exact, "exact percolation expectation", (
        *_MODEL, "--format",
        ("--verify", dict(action="store_true",
                          help="compare against exact Z; mismatch exits 2")))),
    "percolate-mc": (cmd_percolate_mc,
                     "seeded Monte Carlo percolation estimate",
                     ("--graph", "--lambda", "--p", "--format", "--samples",
                      "--seed")),
    "polymers": (cmd_polymers, "enumerate one side's polymers with weights", (
        *_MODEL, "--rho", "--side", "--format",
        ("--size-max", dict(type=int, default=None)))),
    "xi": (cmd_xi, "polymer partition function by memoised recursion",
           (*_MODEL, "--rho", "--side", "--format")),
    "clusters": (cmd_clusters, "cluster expansion terms and residuals", (
        *_MODEL, "--rho", "--side", "--format",
        ("--k-max", dict(type=int, default=2)))),
    "closed-form": (cmd_closed_form,
                    "closed-form expansion terms, optionally verified", (
        "--budget", "--format", ("--family", dict(required=True)),
        ("--p", dict(required=True)),
        ("--verify", dict(action="store_true",
                          help="compare against the cluster-sum oracle on the "
                               "matching graph; in-regime mismatch exits 2")))),
    "tv": (cmd_tv, "total variation between the model measure and the polymer "
                   "approximation", (*_MODEL, "--rho", "--format")),
    "sample-muhat": (cmd_sample_muhat,
                     "seeded draws from the two-sided polymer measure, "
                     "aggregated by outcome",
                     (*_MODEL, "--rho", "--format", "--samples", "--seed")),
    "audit-iso": (cmd_audit_iso, "vertex-isoperimetry condition sweeps", (
        *_GRAPH, "--format", ("--property", dict(default="one")),
        ("--size-cap", dict(type=int, default=4)))),
    "audit-kp": (cmd_audit_kp, "convergence-condition audits", (
        *_MODEL, "--rho", "--side", "--format",
        ("--mode", dict(default="sum")))),
    "audit-z": (cmd_audit_z, "coordinate-family partition sum bounds", (
        "--format", ("--d", dict(type=int, required=True)), "--lambda", "--p",
        ("--C", dict(dest="capital_c", type=float, required=True)),
        ("--psi", dict(default=None,
                       help="family spec: members ';'-separated, coordinates "
                            "','-separated, '-' for the empty set")),
        ("--singletons", dict(type=int, default=None,
                              help="use the first K singleton coordinate "
                                   "sets")),
        ("--ell", dict(default=None,
                       help="split mode at this ell (rational); default "
                            "audits the half-ell bound")))),
    "audit-container": (cmd_audit_container, "container class weight sums", (
        *_MODEL, "--side", "--format",
        ("--a", dict(type=int, required=True, help="closure size")),
        ("--b", dict(type=int, required=True, help="neighborhood size")),
        ("--hypothesis-c2", dict(
            type=float, default=None,
            help="also check the neighborhood-expansion hypothesis with "
                 "this constant; failure exits 2")))),
    "audit-nonpolymer": (cmd_audit_nonpolymer,
                         "weight of configurations captured on neither side",
                         (*_MODEL, "--rho", "--format")),
}


def _arguments(name: str, options):
    """(flag, argparse keywords) of one subcommand in --help order. A
    selector's choices are its modes; the options its modes read follow
    --format, each with default None for scope_options to fill in."""
    selectors = MODE_OPTIONS.get(name, {})
    for option in ("--out", *options):
        flag, kwargs = (option, OPTIONS[option]) if isinstance(option, str) \
            else option
        if flag in selectors:
            kwargs = dict(kwargs, choices=tuple(selectors[flag]))
        yield flag, kwargs
        if flag != "--format":
            continue
        for selector, modes in selectors.items():
            for scoped, (kind, default) in {
                    f: spec for opts in modes.values()
                    for f, spec in opts.items()}.items():
                text = default if default is REQUIRED else f"default {default}"
                yield scoped, dict(
                    dest=_dest(scoped), type=kind, default=None,
                    help=f"{selector} {_readers(modes, scoped)} only; {text}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="isingpoly",
                     description="Exact enumeration and verification engine "
                                 "for hard-core and Ising-type models on "
                                 "regular bipartite graphs.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, (handler, text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.set_defaults(handler=handler)
        for flag, kwargs in _arguments(name, options):
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else 1
    try:
        scope_options(args)
        if getattr(args, "seed", 0) < 0:
            raise CliError(f"seed must be >= 0, got {args.seed}")
        if getattr(args, "graph", None) is not None:
            args.graph = load_graph(args.graph)
        if hasattr(args, "p"):
            # the second-order closed forms read no --lambda: fugacity 1
            lam = "1" if args.lam is None else args.lam
            args.params = ModelParams(parse_rational(lam),
                                      parse_rational(args.p))
        if hasattr(args, "rho"):
            args.rho = parse_rational(args.rho)
        records, ok = args.handler(args)
        chunks = _render(records, args)
        if args.out is None:
            sys.stdout.writelines(chunks)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
    except BudgetError as exc:
        print(f"isingpoly: budget exceeded: {exc}", file=sys.stderr)
        return 1
    except (CliError, ValueError, OSError) as exc:
        print(f"isingpoly: error: {exc}", file=sys.stderr)
        return 1
    except AuditViolation as exc:
        print(f"isingpoly: audit assertion failed: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
