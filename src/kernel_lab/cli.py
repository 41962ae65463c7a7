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
import itertools
import sys
from pathlib import Path

import numpy as np

from .acceptance import run_selftest
from .debug import DEBUG_CONTROLS
from .domains import INTERVAL
from .errors import (
    ConsistencyError,
    DomainError,
    GridMismatchError,
    ScenarioError,
    ToleranceError,
)
from .fracop import residual_check
from .hadamard import hadamard_report
from .rkhs import kernel_report, limit_consistency, reproduce_report
from .scenarios import COMMANDS, boundary_data_function, load_scenario

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_NUMERIC = 3


def _write_csv(path, header, columns):
    """Write columns of cells under a header line.

    A column is numeric, or a sequence of preformatted cells (str).
    Numbers print as repr of Python scalars (tolist, never numpy's), which
    round-trips doubles exactly, so the cells stay diff-able.
    """

    def cells(column):
        values = column if isinstance(column, list) else np.asarray(column).tolist()
        return values if values and isinstance(values[0], str) else list(map(repr, values))

    rows = map(",".join, zip(*map(cells, columns)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        # blocks of rows: one string per block, none the size of the file
        while block := list(itertools.islice(rows, 4096)):
            fh.write("\n".join(block) + "\n")


def _point_columns(domain, prefix):
    if domain.kind == INTERVAL:
        return [prefix]
    return [f"{prefix}_0", f"{prefix}_1"]


def cmd_kernel(scenario, out_dir):
    domain = scenario.domain()
    kind = scenario.config.get("kernel_type", "classical")
    if kind not in ("classical", "fractional"):
        raise ScenarioError(f"kernel_type must be classical or fractional, got {kind!r}")
    # a classical kernel only echoes a, so the FracParams constraint on
    # (a, s) applies in kernel_report to the fractional kernel alone
    a, s = scenario.params()
    rep, columns = kernel_report(domain, kind, a, s, scenario.interior_points("points"),
                                 n_nodes=scenario.n_nodes())
    i, j = columns.pop("i"), columns.pop("j")
    # each point's index and coordinate cells are formatted once, then
    # taken by i and by j
    m = len(rep.scenario["points"])
    index_cells = np.array(list(map(repr, range(m))), dtype=object)
    point_cells = np.array(
        [",".join(map(repr, p)) for p in np.reshape(rep.scenario["points"], (m, -1)).tolist()],
        dtype=object,
    )
    header = ["i", "j", *_point_columns(domain, "x_i"), *_point_columns(domain, "x_j"),
              *columns]
    table = out_dir / "kernel_table.csv"
    _write_csv(table, header, [index_cells[i], index_cells[j], point_cells[i], point_cells[j],
                               *columns.values()])
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
    a = scenario.order()
    pairs = scenario.point_pairs("pairs")
    t_list = scenario.number_list("t_list")
    rep = hadamard_report(domain, a, pairs, t_list=t_list,
                          n_nodes=scenario.n_nodes())
    rows = [
        (idx, float(t_str), fd_val, abs(fd_val - entry["exact"]))
        for idx, entry in enumerate(rep.metadata["pairs"])
        for t_str, fd_val in entry["fd"].items()
    ]
    table = out_dir / "hadamard_fd.csv"
    _write_csv(table, ["pair", "t", "fd", "abs_error"], zip(*rows))
    return rep, [table]


def cmd_limit(scenario, out_dir):
    domain = scenario.domain()
    # the orders come from a_values, each checked with s by
    # limit_consistency, so params.a is never read
    _, s = scenario.params()
    x = scenario.interior_point("x")
    y = scenario.interior_point("y")
    a_values = scenario.number_list("a_values", lo=1e-6, hi=1.0)
    rep = limit_consistency(domain, s, x, y, a_values, n_nodes=scenario.n_nodes())
    table = out_dir / "limit_errors.csv"
    _write_csv(table, ["a", "abs_error"], [a_values, rep.metadata["errors"]])
    return rep, [table]


def cmd_residual(scenario, out_dir):
    domain = scenario.domain()
    if domain.kind != INTERVAL:
        raise ScenarioError("the residual command runs on the interval domain")
    rep = residual_check(domain, scenario.order(), scenario.mollifier(),
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
    except (ScenarioError, DomainError, GridMismatchError) as exc:
        print(f"kernel-lab: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ToleranceError, ConsistencyError) as exc:
        print(f"kernel-lab: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    failing = report.failing()
    print(f"{args.command}: {len(report.records)} checks, {len(failing)} failed "
          f"-> {report_path}")
    for rec in failing:
        print(f"  FAIL {rec.name}: computed={rec.computed!r} "
              f"reference={rec.reference!r} tolerance={rec.tolerance!r}")
    for table in tables:
        print(f"  wrote {table}")
    return EXIT_PASS if report.overall_pass else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
