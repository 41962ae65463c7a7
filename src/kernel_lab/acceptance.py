"""The acceptance gate: every pinned verification criterion in one place.

Each criterion function returns the CheckRecords for one numbered
criterion; run_selftest aggregates all of them into a single report.
C7, C9 and C10 are the report builders behind the reproduce, limit and
residual commands (rkhs.reproduce_report, rkhs.limit_consistency,
fracop.residual_check) run at inputs written out here, never read from
the defaults file, with each record name prefixed by "C<n>: ".
The tolerances here are contractual: loosening one to make a failing
build pass defeats the point of the gate.  tests/test_acceptance.py
asserts each criterion individually through the same functions.
"""

import math
from dataclasses import replace

import numpy as np

from .domains import BoundaryGrid, disk, interval
from .fracop import MollifierSpec, residual_check
from .green import green_mass, poisson_kernel_classical, torsion_reference
from .boundary import boundary_integrate
from .hadamard import (
    PerturbationField,
    dilation_derivative_exact,
    dilation_derivative_fd,
    hadamard_prediction,
)
from .report import Report, check, flag
from .rkhs import (
    gram_matrix,
    kernel_classical_spectral_oracle,
    kernel_fractional,
    limit_consistency,
    poisson_extend_fractional,
    reproduce_report,
)
from .specfun import FracParams

DEFAULT_SEED = 1842


def _prefixed(number, rep):
    """A report's records, named as criterion `number`'s."""
    return [replace(r, name=f"C{number}: {r.name}") for r in rep.records]


def criterion_1_getoor_mass():
    """green_mass reproduces sqrt(1-x^2) for a=1/2 on the interval."""
    dom = interval(1.0)
    out = []
    for x in (0.0, 0.5, -0.5):
        mass = green_mass(dom, 0.5, x)
        ref = torsion_reference(dom, 0.5, x)
        out.append(check(f"C1: Getoor mass at x={x:g}", mass, ref, 1e-6, rel=True))
    return out


def criterion_2_singular_reproduction():
    """Constant data 2^(a-1) extends to (1-x^2)^(a-1), closed form."""
    dom = interval(1.0)
    grid = BoundaryGrid(dom, 2)
    out = []
    for a in (0.25, 0.5, 0.75):
        phi = grid.constant_field(2.0 ** (a - 1.0))
        worst = 0.0
        for x in np.linspace(-0.95, 0.95, 20):
            got = poisson_extend_fractional(dom, a, 0.0, phi, float(x))
            worst = max(worst, abs(got - (1.0 - x * x) ** (a - 1.0)))
        out.append(check(f"C2: worst extension error, a={a}", worst, 0.0, 1e-10))
    return out


def criterion_3_fractional_hadamard():
    """Three routes agree on the fractional interval dilation derivative."""
    dom = interval(1.0)
    a, x, y = 0.5, 0.0, 0.5
    ref = 2.0 / (math.pi * math.sqrt(3.0))
    exact = dilation_derivative_exact(dom, a, x, y)
    alpha = PerturbationField.dilation(BoundaryGrid(dom, 2))
    pred = hadamard_prediction(dom, a, x, y, alpha)
    fd2 = dilation_derivative_fd(dom, a, x, y, 1e-2)
    fd3 = dilation_derivative_fd(dom, a, x, y, 1e-3)
    ratio = abs(fd2 - ref) / abs(fd3 - ref)
    return [
        check("C3: exact derivative equals 2/(pi sqrt(3))", exact, ref, 1e-10),
        check("C3: boundary integral equals exact", pred, exact, 1e-10),
        check("C3: central FD at t=1e-3", fd3, ref, 1e-5),
        flag(f"C3: FD error ratio t=1e-2 vs 1e-3 in [30, 300] (got {ratio:.1f})",
             30.0 <= ratio <= 300.0),
    ]


def criterion_4_classical_hadamard():
    """Classical dilation derivative on disk and interval."""
    dd = disk(1.0)
    ref = 1.0 / (2.0 * math.pi)
    alpha = PerturbationField.dilation(BoundaryGrid(dd, 256))
    pred = hadamard_prediction(dd, 1.0, [0.0, 0.0], [0.5, 0.0], alpha)
    fd = dilation_derivative_fd(dd, 1.0, [0.0, 0.0], [0.5, 0.0], 1e-3)
    di = interval(1.0)
    exact_i = dilation_derivative_exact(di, 1.0, 0.0, 0.5)
    fd_i = dilation_derivative_fd(di, 1.0, 0.0, 0.5, 1e-3)
    pred_i = hadamard_prediction(
        di, 1.0, 0.0, 0.5, PerturbationField.dilation(BoundaryGrid(di, 2))
    )
    return [
        check("C4: disk boundary integral equals 1/(2 pi)", pred, ref, 1e-8),
        check("C4: disk central FD at t=1e-3", fd, ref, 1e-6),
        check("C4: interval exact route", exact_i, 0.5, 1e-12),
        check("C4: interval FD route", fd_i, 0.5, 1e-12),
        check("C4: interval boundary integral", pred_i, 0.5, 1e-12),
    ]


def criterion_5_kernel_vs_oracle():
    """Quadrature kernel against the Fourier oracle on the disk, n=512."""
    dd = disk(1.0)
    pts = [
        [0.3, 0.0],
        [0.3 * math.cos(math.pi / 3.0), 0.3 * math.sin(math.pi / 3.0)],
        [0.6, 0.0],
        [0.6 * math.cos(math.pi / 3.0), 0.6 * math.sin(math.pi / 3.0)],
    ]
    i, j = np.triu_indices(len(pts))
    out = []
    for s in (-1.0, 0.0, 1.0):
        km = gram_matrix(dd, "classical", s, pts, n_nodes=512)
        grid_vals = km.entries[i, j]
        oracle = kernel_classical_spectral_oracle(dd, s, km.points[i], km.points[j])
        worst = float(np.max(np.abs(grid_vals - oracle) / np.abs(oracle)))
        out.append(check(f"C5: worst kernel-vs-oracle relative gap, s={s:g}",
                         worst, 0.0, 1e-8))
    return out


def criterion_6_fractional_kernel_value():
    """Closed-form fractional kernel value at the interval center."""
    val = kernel_fractional(interval(1.0), 0.5, 0.0, 0.0, 0.0)
    return [check("C6: interval K_{1/2,0}(0,0)", val, 1.0, 1e-12)]


def criterion_7_reproducing_property():
    """Two-resolution reproducing residual and weighted-trace recovery."""
    rep = reproduce_report(BoundaryGrid(disk(1.0), 256), 0.5, 0.0, math.cos,
                           [0.3, 0.0], [1e-1, 1e-2, 1e-3])
    return _prefixed(7, rep)


def criterion_8_psd_and_cauchy_schwarz(seed=DEFAULT_SEED):
    """Gram positivity and Cauchy-Schwarz for both kernel families."""
    dd = disk(1.0)
    rng = np.random.default_rng(seed)

    def draw(count):
        r = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, count))
        th = rng.uniform(0.0, 2.0 * math.pi, count)
        return np.column_stack([r * np.cos(th), r * np.sin(th)])

    pts = draw(10)
    out = []
    for label, kind, params in (
        ("classical s=0", "classical", 0.0),
        ("classical s=1", "classical", 1.0),
        ("fractional a=1/2 s=0", "fractional", FracParams(0.5, 0.0)),
    ):
        km = gram_matrix(dd, kind, params, pts)
        lo, hi, psd = km.psd_verdict()
        out.append(flag(f"C8: Gram PSD, {label} (min {lo:.3e}, max {hi:.3e})", psd))

    worst = math.inf
    for _ in range(200):
        p, q = draw(2)
        kxy = kernel_fractional(dd, 0.5, 0.0, p, q, n_nodes=64)
        kxx = kernel_fractional(dd, 0.5, 0.0, p, p, n_nodes=64)
        kyy = kernel_fractional(dd, 0.5, 0.0, q, q, n_nodes=64)
        worst = min(worst, kxx * kyy - kxy * kxy)
    out.append(flag(
        f"C8: Cauchy-Schwarz slack >= -1e-12 over 200 pairs (worst {worst:.3e})",
        worst >= -1e-12,
    ))
    return out


def criterion_9_limit_consistency():
    """K_{a,0} approaches the classical order-3/2 kernel as a -> 1."""
    rep = limit_consistency(disk(1.0), 0.0, [0.0, 0.0], [0.5, 0.0], [0.9, 0.99, 0.999])
    return _prefixed(9, rep)


def criterion_10_fracop_oracle():
    """The principal-value oracle hits the residual and Getoor identities."""
    dom = interval(1.0)
    rep = residual_check(dom, 0.5, MollifierSpec(dom, 0.0, 0.4), [0.0, 0.2, 0.55],
                         tolerance=1e-2, budget=10**6)
    return _prefixed(10, rep)


def criterion_11_poisson_normalization():
    """Unit mass of the classical Poisson kernel."""
    out = []
    grid = BoundaryGrid(disk(1.0), 64)
    mass = boundary_integrate(poisson_kernel_classical(grid, [0.3, -0.2]))
    out.append(check("C11: circle Poisson mass, n=64", mass, 1.0, 1e-12))
    gi = BoundaryGrid(interval(1.0), 2)
    for x in (0.0, 0.5, -0.5):
        mass = boundary_integrate(poisson_kernel_classical(gi, x))
        out.append(check(f"C11: interval Poisson mass at x={x:g}", mass, 1.0, 0.0))
    return out


CRITERIA = (
    (1, criterion_1_getoor_mass),
    (2, criterion_2_singular_reproduction),
    (3, criterion_3_fractional_hadamard),
    (4, criterion_4_classical_hadamard),
    (5, criterion_5_kernel_vs_oracle),
    (6, criterion_6_fractional_kernel_value),
    (7, criterion_7_reproducing_property),
    (8, criterion_8_psd_and_cauchy_schwarz),
    (9, criterion_9_limit_consistency),
    (10, criterion_10_fracop_oracle),
    (11, criterion_11_poisson_normalization),
)


def run_selftest(seed=DEFAULT_SEED):
    """Run criteria 1-11 with pinned defaults; criterion 12 (determinism of
    this very report) is checked from the outside by comparing runs."""
    rep = Report("selftest", scenario={"seed": seed})
    for number, fn in CRITERIA:
        records = fn(seed) if number == 8 else fn()
        rep.extend(records)
    return rep
