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
"""

import math

import numpy as np

from .domains import INTERVAL, BoundaryField, ray_exit
from .errors import DomainError, SingularityError
from .quadrature import EvalBudget, QuadratureSpec, graded_mesh, panel_integrate
from .specfun import (
    boundary_integral_B,
    boundary_integral_B_array,
    green_constant,
    torsion_constant,
)


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


def _r0(domain, x, y, dist2):
    R2 = domain.R**2
    if domain.kind == INTERVAL:
        return (R2 - x * x) * (R2 - y * y) / (R2 * dist2)
    return (R2 - float(x @ x)) * (R2 - float(y @ y)) / (R2 * dist2)


def green_fractional(domain, a, x, y):
    """Green function of (-Delta)^a on the model domain, zero outside it."""
    x = domain.point(x)
    y = domain.point(y)
    if domain.norm(x) >= domain.R or domain.norm(y) >= domain.R:
        return 0.0
    if domain.kind == INTERVAL:
        dist2 = (x - y) ** 2
    else:
        diff = x - y
        dist2 = float(diff @ diff)
    if dist2 == 0.0:
        raise SingularityError("green_fractional is singular at x == y")
    N = domain.N
    r0 = _r0(domain, x, y, dist2)
    return green_constant(N, a) * dist2 ** (0.5 * (2.0 * a - N)) * boundary_integral_B(r0, a, N)


def green_fractional_profile(domain, a, x, y_arr):
    """green_fractional at one interior x against an array of interval points."""
    if domain.kind != INTERVAL:
        raise DomainError("array profile is implemented for the interval")
    x = domain.require_interior(x)
    y = np.asarray(y_arr, dtype=float)
    R2 = domain.R**2
    out = np.zeros_like(y)
    inside = np.abs(y) < domain.R
    yi = y[inside]
    dist2 = (x - yi) ** 2
    if np.any(dist2 == 0.0):
        raise SingularityError("green_fractional is singular at x == y")
    r0 = (R2 - x * x) * (R2 - yi * yi) / (R2 * dist2)
    out[inside] = (
        green_constant(1, a) * dist2 ** (a - 0.5) * boundary_integral_B_array(r0, a, 1)
    )
    return out


def poisson_kernel_classical(grid, x):
    """The positive, unit-mass Poisson kernel P(x, .) sampled on the grid.

    This is minus the Neumann trace of the classical Green function; with
    -Delta G = delta that sign makes the kernel positive and reproduces
    u == 1 with boundary integral exactly 1.
    """
    domain = grid.domain
    x = domain.require_interior(x)
    R = domain.R
    if domain.kind == INTERVAL:
        return BoundaryField(grid, np.array([(R - x), (R + x)]) / (2.0 * R))
    nodes = grid.nodes
    diff = nodes - x
    dist2 = np.sum(diff * diff, axis=1)
    values = (R * R - float(x @ x)) / (2.0 * math.pi * R * dist2)
    return BoundaryField(grid, values)


def fractional_trace_green(grid, a, x):
    """Weighted boundary trace gamma_0^a of G_a(x, .), sampled on the grid.

    Pointwise this is the limit of G_a(x, y) / d(y)^a as y approaches the
    boundary node; the closed form is
    (kappa_{N,a}/a) (2/R)^a (R^2-|x|^2)^a |x - z|^(-N).
    """
    domain = grid.domain
    x = domain.require_interior(x)
    N = domain.N
    R = domain.R
    front = (
        green_constant(N, a) / a * (2.0 / R) ** a * (R * R - domain.norm(x) ** 2) ** a
    )
    if domain.kind == INTERVAL:
        dist = np.abs(np.array([-R, R]) - x)
        return BoundaryField(grid, front / dist)
    diff = grid.nodes - x
    dist2 = np.sum(diff * diff, axis=1)
    return BoundaryField(grid, front / dist2)


def torsion_reference(domain, a, x):
    """Exact Getoor mass kappa* (R^2 - |x|^2)^a at an interior point."""
    x = domain.require_interior(x)
    return torsion_constant(domain.N, a) * (domain.R**2 - domain.norm(x) ** 2) ** a


def green_mass(domain, a, x, quad=None):
    """Domain integral of y -> G_a(x, y), by graded quadrature around x.

    Meshes are graded with exponent 2/a toward the singular point and
    toward the boundary; the panel count doubles until two consecutive
    estimates agree within the quadrature tolerance.  Exhausting the
    evaluation budget first raises ToleranceError carrying the estimate.
    """
    if quad is None:
        quad = QuadratureSpec()
    x = domain.require_interior(x)
    budget = EvalBudget(quad.budget, label="green_mass")
    if domain.kind == INTERVAL:
        estimate = _refine(
            lambda m: _mass_interval(domain, a, x, m, quad.gl_order, budget),
            quad,
            budget,
        )
    else:
        estimate = _refine(
            lambda m: _mass_disk(domain, a, x, m, quad, budget), quad, budget
        )
    return estimate


def _refine(evaluate, quad, budget):
    m = max(4, quad.resolution // 4)
    prev = evaluate(m)
    while True:
        m *= 2
        try:
            cur = evaluate(m)
        except Exception as exc:
            if hasattr(exc, "estimate"):
                exc.estimate = prev
            raise
        if abs(cur - prev) <= quad.tolerance_for(cur):
            return cur
        prev = cur


def _mass_interval(domain, a, x, panels, order, budget):
    # integrate in the distance variable u = |y - x| on each side; grading
    # toward u = 0 cannot collide with the singularity in floating point
    # because the singular factor is computed from u itself
    R = domain.R
    R2 = R * R
    kappa = green_constant(1, a)
    side_front = R2 - x * x
    grading = 2.0 / a
    total = 0.0
    for sgn, L in ((-1.0, x + R), (1.0, R - x)):

        def f(u):
            budget.spend(u.size)
            y = x + sgn * u
            dist2 = u * u
            r0 = side_front * np.maximum(R2 - y * y, 0.0) / (R2 * dist2)
            return kappa * dist2 ** (a - 0.5) * boundary_integral_B_array(r0, a, 1)

        # cluster toward the point singularity at u = 0 and toward the
        # boundary weight at u = L
        mid = 0.5 * L
        total += panel_integrate(
            f, graded_mesh(0.0, mid, panels, grading, toward="lo"), order
        )
        total += panel_integrate(
            f, graded_mesh(mid, L, panels, grading, toward="hi"), order
        )
    return total


def _mass_disk(domain, a, x, panels, quad, budget):
    grading = 2.0 / a
    kappa = green_constant(2, a)
    R2 = domain.R**2
    ax2 = float(x @ x)
    total = 0.0
    angles = 2.0 * math.pi * np.arange(quad.n_angles) / quad.n_angles
    dphi = 2.0 * math.pi / quad.n_angles
    for phi in angles:
        e = np.array([math.cos(phi), math.sin(phi)])
        T = ray_exit(domain, x, e)

        def radial(r):
            budget.spend(r.size)
            pts = x[None, :] + r[:, None] * e[None, :]
            y2 = np.sum(pts * pts, axis=1)
            dist2 = r * r
            r0 = (R2 - ax2) * np.maximum(R2 - y2, 0.0) / (R2 * dist2)
            return kappa * dist2 ** (a - 1.0) * boundary_integral_B_array(r0, a, 2) * r

        mid = 0.5 * T
        total += dphi * panel_integrate(
            radial, graded_mesh(0.0, mid, panels, grading, toward="lo"), quad.gl_order
        )
        total += dphi * panel_integrate(
            radial, graded_mesh(mid, T, panels, grading, toward="hi"), quad.gl_order
        )
    return total
