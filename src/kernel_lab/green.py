"""Closed-form Green functions and their boundary traces on model domains.

Classical Laplacian:
  interval (-R, R):  G(x, y) = (R + min)(R - max) / (2R)
  disk of radius R:  method of images, written in the symmetric form
      G(x, y) = (1/2pi) [ -ln|x-y| + (1/2) ln(|x|^2|y|^2 - 2R^2 x.y + R^4) - ln R ]

Fractional Laplacian of order a on the ball:
      G_a(x, y) = kappa_{N,a} |x-y|^(2a-N) B(r0; a, N),
      r0 = (R^2 - |x|^2)(R^2 - |y|^2) / (R^2 |x-y|^2),
extended by zero as soon as one argument leaves the domain.  The weighted
boundary trace G_a(x, y)/d(y)^a has the closed limit

      (kappa_{N,a}/a) (2/R)^a (R^2 - |x|^2)^a |x - z|^(-N),

and the domain integral of G_a(x, .) reproduces the torsion function
kappa* (R^2 - |x|^2)^a, which is the Getoor oracle used throughout the
test-suite to pin down every constant.

The fractional formula is written once, in green_fractional_radial, and
reads kappa from this module at call time, so a control that patches
green.green_constant reaches every caller.  boundary_representer is the one
representer of point evaluation: the weighted trace, the Poisson kernel at a = 1.
"""

import math

import numpy as np

from .domains import INTERVAL, BoundaryField, ray_nodes, rays, squared_norm
from .errors import DomainError, SingularityError, ToleranceError
from .quadrature import (
    EvalBudget,
    QuadratureSpec,
    exit_graded_rule,
    graded_mesh,
    origin_graded_rule,
    panel_nodes_weights,
)
from .specfun import boundary_integral_B_array, green_constant, torsion_constant


def green_classical(domain, x, y):
    """Green function of -Delta with Dirichlet data on the model domain."""
    x = domain.require_interior(x)
    y = domain.require_interior(y)
    if domain.kind == INTERVAL:
        if x == y:
            raise SingularityError("green_classical is singular at x == y")
        R = domain.R
        return (R + min(x, y)) * (R - max(x, y)) / (2.0 * R)
    diff = x - y
    dist2 = float(diff @ diff)
    if dist2 == 0.0:
        raise SingularityError("green_classical is singular at x == y")
    R = domain.R
    xy = float(x @ y)
    q = float(x @ x) * float(y @ y) - 2.0 * R * R * xy + R**4
    return (0.5 * math.log(q) - 0.5 * math.log(dist2) - math.log(R)) / (2.0 * math.pi)


def green_fractional_radial(N, a, R, x2, y2, dist2):
    """kappa_{N,a} |x-y|^(2a-N) B(r0) from |x|^2, |y|^2, |x-y|^2 (broadcast).

    R^2 - |y|^2 is clamped at 0.  Callers pass dist2 (a quadrature in the
    distance u passes u*u, so the singular factor never meets a rounded
    x - y) and handle dist2 == 0 themselves.
    """
    R2 = R * R
    r0 = (R2 - x2) * np.maximum(R2 - y2, 0.0) / (R2 * dist2)
    return (
        green_constant(N, a) * dist2 ** (a - 0.5 * N) * boundary_integral_B_array(r0, a, N)
    )


def green_fractional(domain, a, x, y):
    """Green function of (-Delta)^a on the model domain, zero outside it.

    y is one point or an array of points, as ModelDomain.points reads
    them; the result is a float or one value per point.  NaN raises
    DomainError, y == x inside raises SingularityError.
    """
    N = domain.N
    x = np.reshape(domain.point(x), N)
    pts, single = domain.points(y)
    y = pts.reshape(-1, N)
    x2, y2, dist2 = float(x @ x), squared_norm(y), squared_norm(x - y)
    if math.isnan(x2) or np.isnan(y2).any():
        raise DomainError("green_fractional got a NaN coordinate")
    R2 = domain.R**2
    inside = (y2 < R2) & (x2 < R2)
    if np.any(dist2[inside] == 0.0):
        raise SingularityError("green_fractional is singular at x == y")
    out = np.zeros(len(y))
    out[inside] = green_fractional_radial(N, a, domain.R, x2, y2[inside], dist2[inside])
    return float(out[0]) if single else out.reshape(pts.shape[:-1])


def _interior_points(domain, x):
    """(points, single): x read by ModelDomain.points, each point refused
    unless interior and coerced as require_interior returns it, so points
    is an (m,) array on the interval and an (m, 2) array on the disk."""
    arr, single = domain.points(x)
    return np.array([domain.require_interior(p) for p in arr.reshape(-1, domain.N)]), single


def poisson_kernel_classical(grid, x):
    """The positive, unit-mass Poisson kernel P(x, .) sampled on the grid.

    This is minus the Neumann trace of the classical Green function; with
    -Delta G = delta that sign makes the kernel positive and reproduces
    u == 1 with boundary integral exactly 1.  x is one point, or an array
    of points as ModelDomain.points reads them, which gives a stack of
    fields, one row per point.
    """
    domain = grid.domain
    pts, single = _interior_points(domain, x)
    R = domain.R
    if domain.kind == INTERVAL:
        values = np.stack([R - pts, R + pts], axis=-1) / (2.0 * R)
    else:
        # |x|^2 as float(x @ x) per point: that BLAS dot may round
        # differently from a column sum
        num = R * R - np.array([float(p @ p) for p in pts])
        dist2 = squared_norm(grid.nodes - pts[:, None, :])
        values = num[:, None] / (2.0 * math.pi * R * dist2)
    return BoundaryField(grid, values[0] if single else values)


def fractional_trace_green(grid, a, x):
    """Weighted boundary trace gamma_0^a of G_a(x, .), sampled on the grid.

    Pointwise this is the limit of G_a(x, y) / d(y)^a as y approaches the
    boundary node; the closed form is
    (kappa_{N,a}/a) (2/R)^a (R^2-|x|^2)^a |x - z|^(-N).  x is one point, or
    an array of points as ModelDomain.points reads them, which gives a
    stack of fields, one row per point.
    """
    domain = grid.domain
    pts, single = _interior_points(domain, x)
    N = domain.N
    R = domain.R
    c = green_constant(N, a) / a * (2.0 / R) ** a
    # each point's prefactor in Python floats, as for a single point
    front = np.array([c * (R * R - domain.norm(p) ** 2) ** a for p in pts])
    # |z - x|^2 one coordinate at a time, as squared_norm sums it, with no
    # (points, nodes, N) difference array; then |z - x|^N and the quotient
    # in the same buffer
    pts = np.reshape(pts, (-1, N))
    values = np.subtract(grid.nodes[:, 0], pts[:, :1])
    values *= values
    for k in range(1, N):
        diff = np.subtract(grid.nodes[:, k], pts[:, k, None])
        diff *= diff
        values += diff
    values **= N / 2
    np.divide(front[:, None], values, out=values)
    return BoundaryField(grid, values[0] if single else values)


def boundary_representer(grid, a, x):
    """Representer of point evaluation at x: the weighted trace psi_x, and at
    a = 1 its formal limit P(x, .) (G_1 vanishes on the boundary, so
    gamma_0^1 G_1 = -gamma_N G_1).  An array of points gives the stack of
    their representers."""
    if a == 1.0:
        return poisson_kernel_classical(grid, x)
    return fractional_trace_green(grid, a, x)


def torsion_reference(domain, a, x):
    """Exact Getoor mass kappa* (R^2 - |x|^2)^a at an interior point."""
    x = domain.require_interior(x)
    return torsion_constant(domain.N, a) * (domain.R**2 - domain.norm(x) ** 2) ** a


def green_mass(domain, a, x, quad=None):
    """Domain integral of y -> G_a(x, y), by polar quadrature around x.

    On the disk Gauss-Jacobi end panels carry the powers r^(2a-1) at the
    point and d^a at the boundary, so the estimates agree at 8 and 16
    panels for every a in (0, 1); on the interval the meshes are graded
    with exponent 2/a toward both ends.  The panel count doubles until two
    consecutive estimates agree within the quadrature tolerance.
    Exhausting the evaluation budget first raises ToleranceError carrying
    the estimate, as does an estimate that is not finite, at once.
    """
    if quad is None:
        quad = QuadratureSpec()
    x = domain.require_interior(x)
    budget = EvalBudget(quad.budget, label="green_mass")
    return _refine(lambda m: _mass(domain, a, x, m, budget), quad)


def _refine(evaluate, quad):
    m = max(4, quad.resolution // 4)
    prev = None
    while True:
        try:
            cur = evaluate(m)
        except Exception as exc:
            if hasattr(exc, "estimate"):
                exc.estimate = prev
            raise
        if not math.isfinite(cur):
            raise ToleranceError(f"green_mass is not finite ({cur}) at {m} panels",
                                 estimate=prev)
        if prev is not None and abs(cur - prev) <= quad.tolerance_for(cur):
            return cur
        prev = cur
        m *= 2


def _mass(domain, a, x, panels, budget):
    # one rule in s = r/T on [0, 1/2] and [1/2, 1] maps onto every ray's
    # [0, T] (ray_nodes), a block of rays at a time.  On the disk the
    # integrand behaves like s^(2a-1) at the point and (1-s)^a at the
    # boundary, and a Gauss-Jacobi panel carries each power: the rule
    # converges at 8 and 16 panels for every a.  On the interval G_a is
    # r^(2a-1) plus a part that is logarithmic (a = 1/2) or bounded, which
    # no one Jacobi weight fits, so both ends are graded with exponent 2/a.
    # The singular factor is computed from r itself, so grading toward
    # r = 0 cannot collide with the singularity in floating point
    dirs, weight = rays(domain)
    if domain.kind == INTERVAL:
        grading = 2.0 / a
        s, w = panel_nodes_weights(np.concatenate([
            graded_mesh(0.0, 0.5, panels, grading, toward="lo"),
            graded_mesh(0.5, 1.0, panels, grading, toward="hi"),
        ]))
    else:
        s0, w0 = origin_graded_rule(panels, 2.0, 2.0 * a - 1.0)
        s1, w1 = exit_graded_rule(panels, 2.0, a)
        s = np.concatenate([0.5 * s0, 0.5 + 0.5 * s1])
        w = 0.5 * np.concatenate([w0, w1])
    budget.spend(len(dirs) * s.size)
    xv = np.reshape(x, -1)
    x2, N = float(xv @ xv), domain.N
    rows = np.empty(len(dirs))
    for idx, r, pts, T in ray_nodes(domain, x, dirs, s):
        g = green_fractional_radial(N, a, domain.R, x2, squared_norm(pts), r * r)
        rows[idx] = (g * r ** (N - 1)) @ w
    return weight * float(T @ rows)
