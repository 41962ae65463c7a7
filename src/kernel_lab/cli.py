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
import math
import sys
from pathlib import Path

import numpy as np

from .acceptance import run_selftest
from .debug import DEBUG_CONTROLS
from .domains import DISK, INTERVAL, BoundaryGrid
from .errors import (
    ConsistencyError,
    DomainError,
    GridMismatchError,
    ScenarioError,
    SingularityError,
    ToleranceError,
)
from .fracop import (
    MollifierSpec,
    boundary_singular_field,
    frac_laplacian_apply,
    getoor_field,
    getoor_reference,
    residual_check,
)
from .hadamard import hadamard_report
from .quadrature import QuadratureSpec
from .report import Report, check, flag
from .rkhs import (
    gram_matrix,
    kernel_classical_spectral_oracle,
    limit_consistency,
    poisson_extend_fractional,
    reproducing_residual,
)
from .scenarios import COMMANDS, boundary_data_field, load_scenario

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


def _preset_target(spec, theta=None, endpoint=None):
    preset = spec["preset"]
    if preset == "constant":
        return float(spec["value"])
    if preset == "cosine":
        return float(spec.get("amplitude", 1.0)) * math.cos(int(spec.get("mode", 1)) * theta)
    return float(spec["values"][0 if endpoint < 0 else 1])


def _recovery_grid_n(base_n, d):
    # the trace kernel has angular width ~ d; node count tracks it
    n = base_n
    while n < 64.0 / d and n < (1 << 16):
        n *= 2
    return n


def cmd_reproduce(scenario, out_dir):
    domain = scenario.domain()
    params = scenario.frac_params()
    a, s = params.a, params.s
    grid = scenario.grid()
    spec = scenario.config.get("boundary_data")
    phi = boundary_data_field(grid, spec)
    x = scenario.interior_point("x")
    d_values = sorted(scenario.number_list("d_values", lo=1e-12, hi=domain.R / 2.0),
                      reverse=True)
    if len(set(d_values)) != len(d_values):
        raise ScenarioError("d_values must be distinct")

    rep = Report(
        "reproduce",
        scenario={
            "domain": domain.kind,
            "R": domain.R,
            "a": a,
            "s": s,
            "n_nodes": grid.n,
            "boundary_data": spec,
            "x": np.asarray(x).tolist(),
            "d_values": d_values,
        },
    )
    residual = reproducing_residual(domain, a, s, phi, x)
    res_tol = 1e-12 if domain.kind == INTERVAL else 1e-8
    rep.add(check("two-resolution reproducing residual", residual, 0.0, res_tol))

    # weighted-trace recovery u((R-d) nu) d^(1-a) -> phi at probe nodes
    if domain.kind == INTERVAL:
        probes = [(-1.0, None), (1.0, None)]
    else:
        probes = [(None, 2.0 * math.pi * j / 8.0 + math.pi / 8.0) for j in range(8)]
    scale = max(1.0, float(np.max(np.abs(phi.values))))
    errors = []
    for d in d_values:
        if domain.kind == INTERVAL:
            phi_d = phi
        else:
            n_d = _recovery_grid_n(grid.n, d / domain.R)
            phi_d = boundary_data_field(BoundaryGrid(domain, n_d), spec)
        worst = 0.0
        for endpoint, theta in probes:
            if domain.kind == INTERVAL:
                xd = endpoint * (domain.R - d)
                target = _preset_target(spec, endpoint=endpoint)
            else:
                zhat = np.array([math.cos(theta), math.sin(theta)])
                xd = (domain.R - d) * zhat
                target = _preset_target(spec, theta=theta)
            u = poisson_extend_fractional(domain, a, s, phi_d, xd)
            worst = max(worst, abs(u * d ** (1.0 - a) - target))
        errors.append(worst)
    rep.metadata["trace_recovery_errors"] = errors
    monotone = all(e1 > e2 for e1, e2 in zip(errors, errors[1:]))
    rep.add(flag("trace-recovery errors decrease along d_values", monotone))
    rep.add(check("final trace-recovery error", errors[-1], 0.0, 1e-2 * scale))
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
    params = scenario.frac_params()
    a = params.a
    config = scenario.config
    mspec = config.get("mollifier", {})
    try:
        moll = MollifierSpec(domain, float(mspec.get("center", 0.0)),
                             float(mspec.get("width", 0.0)))
    except (TypeError, ValueError, DomainError) as exc:
        raise ScenarioError(f"invalid mollifier: {exc}") from exc
    points = scenario.interior_points("points")
    tolerance = scenario.positive("tolerance")
    budget = scenario.positive("budget", kind=int)
    quad = QuadratureSpec(rel_tol=1e-3, abs_tol=0.1 * tolerance,
                          resolution=64, budget=budget)

    inner = residual_check(domain, a, moll, points, quad=quad, tolerance=tolerance)
    rep = Report(
        "residual",
        scenario=dict(inner.scenario, budget=budget),
        metadata={"getoor_reference": getoor_reference(domain.N, a)},
    )
    rep.extend(inner.records)

    u = getoor_field(domain, a)
    ref = getoor_reference(domain.N, a)
    for frac in (0.0, 0.4, -0.4):
        xq = frac * domain.R
        got = frac_laplacian_apply(u, a, xq, quad)
        rep.add(check(f"Getoor identity at x={xq:g}", got, ref, 1e-3, rel=True))
    v = boundary_singular_field(domain, a)
    got = frac_laplacian_apply(v, a, 0.0, quad)
    rep.add(check("a-harmonic profile annihilated at x=0", got, 0.0, 1e-3))
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
