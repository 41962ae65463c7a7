"""Hadamard variational formulas under domain dilation.

For the dilation family t -> (1+t) Omega the perturbed Green function is
available in closed form through the scaling law
G_{a,R}(x,y) = R^{2a-N} G_{a,1}(x/R, y/R), so the shape derivative

  DG(x,y) = d/dt|_{t=0} G_{(1+t)Omega}(x,y)

can be computed three independent ways: analytically (chain rule in R),
by central finite differences of the scaled closed forms, and by the
boundary-integral predictions

  classical   DG = int P(x,.) P(y,.) alpha dsigma,
  fractional  DG = Gamma(1+a)^2 int psi_x psi_y alpha dsigma,

with normal speed alpha.  Dilating a radius-R domain moves the boundary
at speed R, so the cross-checked perturbation is alpha identically R,
not 1.  The prediction side accepts arbitrary alpha; only dilations get
the exact and FD cross-checks.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import green
from .boundary import boundary_integrate
from .domains import INTERVAL, BoundaryField, boundary_grid, squared_norm
from .errors import DomainError, GridMismatchError, SingularityError
from .green import boundary_representer, green_classical, green_fractional
from .report import Report, check, flag
from .specfun import boundary_integral_B_derivative

# central differences below this step lose the quotient to cancellation
# (|G(1+t) - G(1-t)| approaches the 1e-12 |G| roundoff floor)
MIN_FD_STEP = 1e-5
MAX_FD_STEP = 0.5


@dataclass
class PerturbationField:
    """Normal-speed field alpha on the boundary of the unperturbed domain."""

    field: BoundaryField

    @classmethod
    def dilation(cls, grid):
        """alpha for t -> (1+t) Omega: the constant R, not 1."""
        return cls(grid.constant_field(grid.domain.R))


def _require_distinct_interior(domain, x, y):
    # refuses every pair whose squared distance, the divisor of r0,
    # underflows to 0, not only x == y
    x = domain.require_interior(x)
    y = domain.require_interior(y)
    if squared_norm(np.reshape(x - y, -1)) == 0.0:
        raise SingularityError("the Green derivative is singular at x == y")
    return x, y


def dilation_derivative_exact(domain, a, x, y):
    """d/dt|_0 G_{(1+t)Omega}(x, y) in closed form; a = 1 means classical."""
    x, y = _require_distinct_interior(domain, x, y)
    R = domain.R
    if a == 1.0:
        if domain.kind == INTERVAL:
            lo, hi = min(x, y), max(x, y)
            G = (R + lo) * (R - hi) / (2.0 * R)
            return (2.0 * R + lo - hi) / 2.0 - G
        xy = float(x @ y)
        q = float(x @ x) * float(y @ y) - 2.0 * R * R * xy + R**4
        return (2.0 * R * R * (R * R - xy) / q - 1.0) / (2.0 * math.pi)

    N = domain.N
    x, y = np.reshape(x, -1), np.reshape(y, -1)
    diff = x - y
    dist2 = float(diff @ diff)
    A = R * R - float(x @ x)
    B2 = R * R - float(y @ y)
    r0 = A * B2 / (R * R * dist2)
    # R * dr0/dR, with r0 = A B2 / (R^2 dist2) and dA/dR = dB2/dR = 2R
    r_dr0 = (2.0 / dist2) * (A + B2 - A * B2 / (R * R))
    return (
        green.green_constant(N, a)
        * dist2 ** (0.5 * (2.0 * a - N))
        * boundary_integral_B_derivative(r0, a, N)
        * r_dr0
    )


def _require_fd_step(t):
    if not MIN_FD_STEP <= t <= MAX_FD_STEP:
        raise DomainError(
            f"FD step {t} outside [{MIN_FD_STEP}, {MAX_FD_STEP}]; smaller steps "
            "lose the difference quotient to cancellation"
        )


def dilation_derivative_fd(domain, a, x, y, t):
    """Central difference of the scaled closed forms at radii (1 +- t) R."""
    _require_fd_step(t)
    x, y = _require_distinct_interior(domain, x, y)
    shrunk = domain.scaled(1.0 - t)
    shrunk.require_interior(x)
    shrunk.require_interior(y)
    grown = domain.scaled(1.0 + t)
    if a == 1.0:
        g_plus = green_classical(grown, x, y)
        g_minus = green_classical(shrunk, x, y)
    else:
        g_plus = green_fractional(grown, a, x, y)
        g_minus = green_fractional(shrunk, a, x, y)
    return (g_plus - g_minus) / (2.0 * t)


def hadamard_prediction(domain, a, x, y, alpha):
    """Boundary-integral prediction of the shape derivative for speed alpha."""
    grid = alpha.field.grid
    if grid.domain != domain:
        raise GridMismatchError("alpha lives on a different domain")
    x, y = _require_distinct_interior(domain, x, y)
    fx = boundary_representer(grid, a, x)
    fy = boundary_representer(grid, a, y)
    return math.gamma(1.0 + a) ** 2 * boundary_integrate(
        fx.pointwise_product(fy).pointwise_product(alpha.field)
    )


def hadamard_report(domain, a, pairs, t_list=(1e-2, 1e-3), n_nodes=256):
    """Three-route comparison of the dilation derivative over point pairs.

    Tabulates the exact derivative, central differences per step, the
    boundary-integral prediction with alpha = R, a Richardson check on
    the last two steps, an FD convergence-order flag (skipped when FD
    already sits at the roundoff floor) and a sign flag.  An order a
    outside (0, 1] (1 is classical), an empty pair list, fewer than two
    steps, a repeated step or one outside [MIN_FD_STEP, MAX_FD_STEP]
    raises DomainError before any work.
    """
    if not 0.0 < a <= 1.0:  # also refuses NaN
        raise DomainError(f"hadamard_report needs an order a in (0, 1], got {a}")
    t_list = list(t_list)
    if len(pairs) == 0:
        raise DomainError("hadamard_report needs at least one point pair")
    if len(set(t_list)) != len(t_list) or len(t_list) < 2:
        raise DomainError(f"t_list needs at least two distinct FD steps, got {t_list}")
    for t in t_list:
        _require_fd_step(t)
    grid = boundary_grid(domain, n_nodes)
    alpha = PerturbationField.dilation(grid)

    rep = Report(
        "hadamard",
        scenario={
            "domain": domain.kind,
            "R": domain.R,
            "a": a,
            "pairs": [
                [np.asarray(x).tolist(), np.asarray(y).tolist()] for x, y in pairs
            ],
            "t_list": t_list,
            "n_nodes": grid.n,
        },
        metadata={"alpha": "dilation normal speed: constant R (not 1)"},
    )
    table = []
    # the boundary sum is finite arithmetic on the interval, quadrature
    # on the circle
    pred_tol = 1e-10 if domain.kind == INTERVAL else 1e-6

    for idx, (x, y) in enumerate(pairs):
        exact = dilation_derivative_exact(domain, a, x, y)
        pred = hadamard_prediction(domain, a, x, y, alpha)
        fds = [dilation_derivative_fd(domain, a, x, y, t) for t in t_list]
        label = f"pair {idx}"
        rep.add(check(f"{label}: boundary integral vs exact", pred, exact, pred_tol, rel=True))

        entry = {
            "x": np.asarray(x).tolist(),
            "y": np.asarray(y).tolist(),
            "exact": exact,
            "prediction": pred,
            "fd": {repr(t): v for t, v in zip(t_list, fds)},
        }
        t1, t2 = t_list[-2], t_list[-1]
        r = (t1 / t2) ** 2
        rich = (r * fds[-1] - fds[-2]) / (r - 1.0)
        rep.add(check(f"{label}: extrapolated FD vs exact", rich, exact, 1e-6, rel=True))
        e1 = abs(fds[-2] - exact)
        e2 = abs(fds[-1] - exact)
        floor = 1e-12 * max(1.0, abs(exact))
        if e2 > floor:
            order = math.log(e1 / e2) / math.log(t1 / t2)
            entry["order"] = order
            rep.add(flag(f"{label}: FD order close to 2", 1.4 <= order <= 2.6))
        else:
            entry["order"] = None
        rep.add(flag(f"{label}: derivative nonnegative for growing domain",
                     exact >= 0.0 and pred >= 0.0))
        table.append(entry)

    rep.metadata["pairs"] = table
    return rep
