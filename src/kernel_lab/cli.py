"""Command-line front end.

kernel-lab <command> [--scenario path] [--out dir] [--nodes n] [--seed u64]

Commands: kernel, reproduce, hadamard, limit, residual, selftest.  Every
command merges the scenario file over the pinned defaults, writes a JSON
report (and CSV tables where applicable) into --out, prints a one-line
summary per failing check, and exits 0 on pass, 1 on verification
failure, 2 on invalid input, 3 on internal numeric failure.  Identical
scenarios produce byte-identical artifacts except for the single
volatile field of the report.
"""

import argparse
import contextlib
import csv
import sys
from pathlib import Path

import numpy as np

from .acceptance import run_selftest
from .debug import DEBUG_CONTROLS
from .domains import DISK, INTERVAL
from .errors import (
    ConsistencyError,
    DomainError,
    GridMismatchError,
    ScenarioError,
    SingularityError,
    ToleranceError,
)
from .fracop import residual_check
from .hadamard import hadamard_report
from .report import Report, check, flag
from .rkhs import (
    gram_matrix,
    kernel_classical_spectral_oracle,
    limit_consistency,
    reproduce_report,
)
from .scenarios import COMMANDS, boundary_data_function, load_scenario

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_NUMERIC = 3


def _fmt(value):
    # repr round-trips doubles exactly; CSV cells stay diff-able
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _point_columns(domain, prefix):
    if domain.kind == INTERVAL:
        return [prefix]
    return [f"{prefix}_0", f"{prefix}_1"]


def _point_cells(domain, p):
    if domain.kind == INTERVAL:
        return [float(p)]
    return [float(p[0]), float(p[1])]


def cmd_kernel(scenario, out_dir):
    domain = scenario.domain()
    config = scenario.config
    kind = config.get("kernel_type", "classical")
    if kind not in ("classical", "fractional"):
        raise ScenarioError(f"kernel_type must be classical or fractional, got {kind!r}")
    params = scenario.frac_params()
    pts = scenario.interior_points("points")

    rep = Report(
        "kernel",
        scenario={
            "domain": domain.kind,
            "R": domain.R,
            "kernel_type": kind,
            "a": params.a,
            "s": params.s,
            "n_nodes": scenario.n_nodes(),
            "points": [np.asarray(p).tolist() for p in pts],
        },
    )
    header = ["i", "j", *_point_columns(domain, "x_i"), *_point_columns(domain, "x_j"), "K"]
    with_oracle = kind == "classical" and domain.kind == DISK
    if with_oracle:
        header += ["K_oracle", "discrepancy"]

    rows = []
    if pts:
        sel_params = params.s if kind == "classical" else params
        km = gram_matrix(domain, kind, sel_params, pts, n_nodes=scenario.n_nodes())
        for i in range(len(pts)):
            for j in range(i, len(pts)):
                row = [i, j, *_point_cells(domain, pts[i]), *_point_cells(domain, pts[j]),
                       km.entries[i, j]]
                if with_oracle:
                    oracle = kernel_classical_spectral_oracle(domain, params.s, pts[i], pts[j])
                    row += [oracle, abs(km.entries[i, j] - oracle)]
                    rep.add(check(f"K[{i},{j}] vs spectral oracle",
                                  km.entries[i, j], oracle, 1e-8, rel=True))
                rows.append(row)
        lo, hi, psd = km.psd_verdict()
        rep.add(flag(f"Gram PSD (min {lo:.3e}, max {hi:.3e})", psd))
        rep.add(flag("assembled matrix exactly symmetric",
                     bool(np.array_equal(km.entries, km.entries.T))))
        rep.metadata["has_duplicates"] = km.has_duplicates
    table = out_dir / "kernel_table.csv"
    _write_csv(table, header, rows)
    return rep, [table]


def cmd_reproduce(scenario, out_dir):
    params = scenario.frac_params()
    grid = scenario.grid()
    spec = scenario.config.get("boundary_data")
    data = boundary_data_function(grid, spec)
    x = scenario.interior_point("x")
    d_values = scenario.number_list("d_values", lo=1e-12, hi=grid.domain.R / 2.0)
    rep = reproduce_report(grid, params.a, params.s, data, x, d_values)
    rep.scenario["boundary_data"] = spec
    return rep, []


def cmd_hadamard(scenario, out_dir):
    domain = scenario.domain()
    params = scenario.frac_params()
    pairs = scenario.point_pairs("pairs")
    t_list = scenario.number_list("t_list", lo=1e-5, hi=0.5)
    rep = hadamard_report(domain, params.a, pairs, t_list=t_list,
                          n_nodes=scenario.n_nodes())
    rows = []
    for idx, entry in enumerate(rep.metadata.get("pairs", [])):
        exact = entry["exact"]
        for t_str, fd_val in entry["fd"].items():
            rows.append([idx, float(t_str), fd_val, abs(fd_val - exact)])
    table = out_dir / "hadamard_fd.csv"
    _write_csv(table, ["pair", "t", "fd", "abs_error"], rows)
    return rep, [table]


def cmd_limit(scenario, out_dir):
    domain = scenario.domain()
    params = scenario.frac_params()
    x = scenario.interior_point("x")
    y = scenario.interior_point("y")
    a_values = scenario.number_list("a_values", lo=1e-6, hi=1.0)
    rep = limit_consistency(domain, params.s, x, y, a_values)
    rows = list(zip(a_values, rep.metadata["errors"]))
    table = out_dir / "limit_errors.csv"
    _write_csv(table, ["a", "abs_error"], rows)
    return rep, [table]


def cmd_residual(scenario, out_dir):
    domain = scenario.domain()
    if domain.kind != INTERVAL:
        raise ScenarioError("the residual command runs on the interval domain")
    rep = residual_check(domain, scenario.frac_params().a, scenario.mollifier(),
                         scenario.interior_points("points"),
                         tolerance=scenario.positive("tolerance"),
                         budget=scenario.positive("budget", kind=int))
    return rep, []


def cmd_selftest(scenario, out_dir):
    return run_selftest(seed=scenario.seed()), []


_DISPATCH = {
    "kernel": cmd_kernel,
    "reproduce": cmd_reproduce,
    "hadamard": cmd_hadamard,
    "limit": cmd_limit,
    "residual": cmd_residual,
    "selftest": cmd_selftest,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="kernel-lab",
        description="Machine verification of Green-function, boundary-trace "
        "and Hadamard-derivative identities on model domains.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--scenario", metavar="PATH", help="YAML overrides for the pinned defaults")
    parser.add_argument("--out", default=".", metavar="DIR", help="artifact directory")
    parser.add_argument("--nodes", type=int, help="boundary node count override")
    parser.add_argument("--seed", type=int, help="RNG seed override")
    parser.add_argument(
        "--debug",
        choices=sorted(DEBUG_CONTROLS),
        action="append",
        default=[],
        help="negative control: deliberately corrupt one constant",
    )
    args = parser.parse_args(argv)

    try:
        scenario = load_scenario(args.command, args.scenario,
                                 nodes=args.nodes, seed=args.seed)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        with contextlib.ExitStack() as stack:
            for name in args.debug:
                stack.enter_context(DEBUG_CONTROLS[name]())
            report, tables = _DISPATCH[args.command](scenario, out_dir)
        report_path = out_dir / f"{args.command}_report.json"
        report.write(report_path)
    except ScenarioError as exc:
        print(f"kernel-lab: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (DomainError, GridMismatchError) as exc:
        print(f"kernel-lab: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ToleranceError, ConsistencyError, SingularityError) as exc:
        print(f"kernel-lab: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    n_fail = len(report.failing())
    print(f"{args.command}: {len(report.records)} checks, {n_fail} failed "
          f"-> {report_path}")
    for rec in report.failing():
        print(f"  FAIL {rec.name}: computed={rec.computed!r} "
              f"reference={rec.reference!r} tolerance={rec.tolerance!r}")
    for table in tables:
        print(f"  wrote {table}")
    return EXIT_PASS if report.overall_pass else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
