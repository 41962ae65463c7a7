"""Principal-value evaluation of the fractional Laplacian.

This module is the independent oracle of the package: it applies
(-Delta)^a to sampled fields by direct singular quadrature, with no use of
the closed-form identities it is meant to validate.  The principal value
at an interior point x is split three ways:

  near field   (c/2) int_{|h|<=h0} (2u(x)-u(x+h)-u(x-h)) |h|^(-N-2a) dh,
               which cancels the principal value for C^2 fields; one unit
               rule, composite Gauss-Legendre with nodes clustered as j^2
               toward h = 0, on every ray's [0, h0], h0 = min(d(x)/2, 0.1R),
               ray j paired with its antipode j + n/2,
  far field    c int_{Omega, |y-x|>h0} (u(x)-u(y)) |x-y|^(-N-2a) dy,
               by one fixed rule on every ray's [h0, T], Gauss-Legendre
               panels graded toward h0 and a Gauss-Jacobi exit panel
               carrying the boundary exponent of the field's tag,
  exact tail   c u(x) int_{|y-x|>T} |y-x|^(-N-2a) dy once y has left the
               support, integrated analytically.

Both domains run the same rules: the interval is the 1-D ball, with the
two rays -1 and +1 of measure 1 each (domains.rays).  The convergence
estimate compares the half-resolution and full-resolution rules in both
the near and the far field.  Each field's two rules on [0, 1] are built
once per process as one concatenated rule (quadrature's memoized rules)
and reach the rays through one domains.ray_nodes walk: the field is
evaluated once per block of rays on all (ray, node) points of both rules,
and each block's row sums split by slice into the coarse and the fine
value.  A block holds a ray's antipode along with it, the far walk finds
each ray's exit distance once, u(x) is evaluated once per principal
value, and the field hands its profile the |y|^2 its inside test
computed, so no point's norm is formed twice.  The walk yields each
block's |y|^2 rather than its points: a radial field (the Getoor and
a-harmonic profiles) is evaluated on it with no point array at all, and
only the other fields' blocks are turned into points (domains.ray_points).

The same machinery powers the mollified-Green residual oracle: with
v(z) = int G_a(z,y) rho_eps(y-x) dy one must get (-Delta)^a v = rho_eps(.-x),
which pins down every constant in specfun and green at once.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .domains import DISK, INTERVAL, ModelDomain, ray_nodes, ray_points, rays, squared_norm
from .errors import DomainError, ToleranceError
from .green import green_fractional_radial
from .quadrature import (
    EvalBudget,
    QuadratureSpec,
    _exit_rule,
    _graded_rule,
    _memoized_rule,
    graded_mesh,
    panel_nodes_weights,
)
from .report import Report, check
from .specfun import frac_laplacian_constant, torsion_constant


# scipy's adaptive quad, imported on first use (scipy.integrate pulls in
# scipy.optimize).  No routine of this module calls it; bench/tracing.py
# wraps this module attribute by name.
def _scipy_quad(f, lo, hi, **kw):
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(f, lo, hi, **kw)


quad = _scipy_quad


TAG_DEGENERATE = "boundary-degenerate"
TAG_SINGULAR = "boundary-singular"
TAG_SMOOTH = "smooth-compact"

# evaluation clearance from the boundary, as a fraction of R
_DELTA_FRACTION = {TAG_DEGENERATE: 0.05, TAG_SINGULAR: 0.2, TAG_SMOOTH: 0.0}

# validation-oracle accuracy: the identities this module checks carry
# tolerances of 1e-2 / 1e-3, and the j^2-graded near field converges slowly
# for a near 1, so the default convergence demand is kept commensurate
_DEFAULT_QUAD = QuadratureSpec(
    rel_tol=1e-3, abs_tol=1e-6, resolution=64, budget=1_000_000
)


class SampledInteriorField:
    """Scalar field on a model domain, extended by zero outside the closure.

    The field takes one point or an array of points, as ModelDomain.points
    reads them, and returns a float or one value per point.  profile is a
    vectorized callable on interior points only, "(pts, r2) in, (...) out"
    on both domains: it receives the point array pts with the coordinates
    on its last axis and r2 = squared_norm(pts), the |y|^2 the field's
    inside test has already computed, and it must not depend on which other
    points share the call.  When every point of a call is inside, as the
    principal value's quadrature nodes always are, the profile is called
    once on the whole array; otherwise it is called on the inside points
    and their r2 entries alone and the wrapper writes 0 elsewhere (also at
    +-inf).  Either way the result is a new float array, the profile's
    own when it returns one of the right shape that is no view.  A NaN point
    fails the inside test too; it raises DomainError instead of reading
    as 0.  The smoothness tag states the boundary behavior (d^a, d^(a-1),
    or compactly supported smooth) and fixes the clearance delta_min below
    which the principal-value quadrature refuses to evaluate.  On both
    domains it also sets the exponent beta (a, a-1, 0) of the far field's
    Gauss-Jacobi exit panel; a tag that claims a milder boundary than the
    profile has makes that rule disagree with itself under refinement, and
    the principal value refuses.  radial marks a profile that reads r2
    alone (getoor_field and boundary_singular_field set it): the polar
    rules then evaluate it on the |y|^2 of their walk, with pts None, and
    never form the points.
    """

    def __init__(self, domain, profile, tag, grid=None, radial=False):
        if tag not in _DELTA_FRACTION:
            raise DomainError(f"unknown smoothness tag {tag!r}")
        self.domain = domain
        self.profile = profile
        self.tag = tag
        self.delta_min = _DELTA_FRACTION[tag] * domain.R
        self.grid = grid
        self.radial = radial

    def __call__(self, pts):
        y, single = self.domain.points(pts)
        out = self._values(y, squared_norm(y))
        return float(out[0]) if single else out

    def _values(self, y, r2):
        # the field at the points y with |y|^2 = r2; y is None on a radial
        # field's polar route
        inside = r2 < self.domain.R**2
        if inside.all():
            out = self.profile(y, r2)
            # the profile's own new float array is the result as it stands;
            # a view (of pts, say), a read-only array, another shape or
            # another dtype is copied
            if not (isinstance(out, np.ndarray) and out.dtype == np.float64
                    and out.shape == r2.shape and out.flags.owndata
                    and out.flags.writeable):
                out = np.array(np.broadcast_to(out, r2.shape), dtype=float)
        else:
            _refuse_nan(y, r2)
            out = np.zeros(r2.shape)
            if inside.any():
                out[inside] = self.profile(None if y is None else y[inside], r2[inside])
        return out

    def _on_rays(self, x, dirs, r, y2):
        """The field at the points x + r e of a ray_nodes block, whose
        |y|^2 is y2: from y2 alone for a radial field, otherwise through
        __call__ on the block's points."""
        if self.radial:
            return self._values(None, y2)
        return self(ray_points(x, dirs, r).reshape(-1, dirs.shape[1])).reshape(r.shape)

    def require_evaluable(self, x):
        d = self.domain.distance_to_boundary(x)
        if not d >= self.delta_min:  # also refuses NaN
            raise DomainError(
                f"point at boundary distance {d:.3g} violates the field's "
                f"clearance delta_min={self.delta_min:.3g} ({self.tag})"
            )
        return d


def _refuse_nan(y, r2):
    # a NaN coordinate makes |y|^2 NaN, which fails every inside test: the
    # point would read as lying outside, where the field is 0.  Without
    # the points y (a radial field's polar route) the error names none
    nan = np.isnan(r2)
    if nan.any():
        if y is None:
            raise DomainError("a point has a NaN |y|^2")
        point = y.reshape(-1, y.shape[-1])[np.argmax(nan.reshape(-1))]
        raise DomainError(f"point {point.tolist()} has a NaN coordinate")


def getoor_field(domain, a):
    """u = (R^2 - |y|^2)^a_+, whose fractional Laplacian is the constant
    1/kappa*(N, a) on the whole domain (the Getoor identity)."""
    R2 = domain.R**2
    profile = lambda pts, r2: (R2 - r2) ** a
    return SampledInteriorField(domain, profile, TAG_DEGENERATE, radial=True)


def getoor_reference(N, a):
    """The constant value of (-Delta)^a (R^2-|y|^2)^a_+ (radius-independent)."""
    return 1.0 / torsion_constant(N, a)


def boundary_singular_field(domain, a):
    """u = (R^2 - |y|^2)^(a-1)_+, a-harmonic inside the domain."""
    R2 = domain.R**2
    profile = lambda pts, r2: (R2 - r2) ** (a - 1.0)
    return SampledInteriorField(domain, profile, TAG_SINGULAR, radial=True)


@lru_cache(maxsize=None)
def _bump_base_mass(kind):
    # mass of exp(-1/(1-r^2)) on the unit ball, 32 Gauss-Legendre panels on
    # every ray from the center; the bump is C-infinity with all derivatives
    # flat at the edge, so the rule converges to machine precision
    ball = ModelDomain(kind)
    dirs, weight = rays(ball)
    s, w = panel_nodes_weights(np.linspace(0.0, 1.0, 33))
    rows = np.empty(len(dirs))
    for idx, r, _, lengths in ray_nodes(ball, np.zeros(ball.N), dirs, s):
        rows[idx] = (np.exp(-1.0 / (1.0 - r * r)) * r ** (ball.N - 1)) @ w
    return weight * float(lengths @ rows)


@dataclass(frozen=True)
class MollifierSpec:
    """A C-infinity bump rho_eps centered at an interior point.

    rho_eps(y) = C exp(-1/(1 - |y-x|^2/eps^2)) on the ball of radius eps,
    normalized to unit mass under the package's own composite rule.
    """

    domain: object
    center: object
    width: float

    def __post_init__(self):
        center = self.domain.require_interior(self.center)
        object.__setattr__(self, "center", center)
        if not self.width > 0.0:
            raise DomainError(f"mollifier width must be positive, got {self.width}")
        if self.width >= self.domain.distance_to_boundary(center):
            raise DomainError("mollifier support must sit strictly inside the domain")

    @property
    def normalization(self):
        return 1.0 / (_bump_base_mass(self.domain.kind) * self.width**self.domain.N)

    def density(self, pts):
        """rho_eps evaluated at one point or an array of points; a NaN
        point raises DomainError."""
        y, single = self.domain.points(pts)
        r2 = squared_norm((y - self.center) / self.width)
        out = np.zeros_like(r2)
        on = r2 < 1.0
        if not on.all():
            _refuse_nan(y, r2)
        out[on] = self.normalization * np.exp(-1.0 / (1.0 - r2[on]))
        return float(out[0]) if single else out


def frac_laplacian_apply(field, a, x, quad=None):
    """c_{N,a} p.v. integral of (u(x)-u(y)) |x-y|^(-N-2a) over R^N.

    The near and far fields' panel counts follow quad.resolution.  The
    same walk along the rays also evaluates the rules at half that
    resolution, and the gap between the two values is the convergence
    estimate; it trips a tolerance error when it exceeds the quad spec.
    The budget is charged every evaluation of both resolutions before the
    field is first called, so a budget below it refuses at once.
    """
    if quad is None:
        quad = _DEFAULT_QUAD
    domain = field.domain
    x = domain.require_interior(x)
    d = field.require_evaluable(x)
    c = frac_laplacian_constant(domain.N, a)
    h0 = min(0.5 * d, 0.1 * domain.R)
    budget = EvalBudget(quad.budget, label="frac_laplacian_apply")
    value, estimate = _apply(field, a, x, h0, quad, budget, c)
    # a NaN value or estimate refuses too
    if not estimate <= quad.tolerance_for(value):
        raise ToleranceError(
            "principal-value quadrature did not converge to the requested "
            f"tolerance (estimate {estimate:.3g})",
            estimate=value,
            achieved_tol=estimate,
        )
    return value


@_memoized_rule
def _coarse_and_fine(rule, panels, *args):
    """The nodes and weights of rule(panels // 2, *args) followed by those
    of rule(panels, *args), so that one walk along the rays evaluates both."""
    coarse, fine = rule(panels // 2, *args), rule(panels, *args)
    return np.concatenate([coarse[0], fine[0]]), np.concatenate([coarse[1], fine[1]])


def _pv_rules(tag, a, panels):
    """The near and far fields' (nodes, weights, m) on [0, 1]: the coarse
    and fine rules concatenated, the coarse one in the first m entries."""
    beta = {TAG_DEGENERATE: a, TAG_SINGULAR: a - 1.0, TAG_SMOOTH: 0.0}[tag]
    return [
        (*_coarse_and_fine(rule, panels, *args), rule(panels // 2, *args)[0].size)
        for rule, args in ((_graded_rule, (2.0,)), (_exit_rule, (2.0, beta)))
    ]


def _apply(u, a, x, h0, quad, budget, c):
    dirs, weight = rays(u.domain)
    near, far = _pv_rules(u.tag, a, quad.resolution)
    budget.spend(len(dirs) * (near[0].size + far[0].size))
    ux = u(x)
    near_half, near_full = _near(u, a, x, h0, dirs, weight, ux, *near)
    far_half, far_full = _far(u, a, x, h0, dirs, weight, ux, *far)
    value = c * (near_full + far_full)
    # the near field's |Q_m - Q_(m/2)| is Q_m's error times 2^p - 1, which
    # is below 1 for a > 3/4; scaled by its inverse there, the estimate is
    # that error again.  The factor is 1 at a <= 3/4
    rate = max(1.0, 1.0 / (2.0 ** (4.0 * (1.0 - a)) - 1.0))
    estimate = c * (rate * abs(near_full - near_half) + abs(far_full - far_half))
    return value, estimate


def _near(u, a, x, h0, dirs, weight, ux, s, w, m):
    """Near field of the principal value, summed over rays, by the coarse
    rule s[:m] and the fine rule s[m:].

    One unit rule graded toward h = 0 maps onto every ray's [0, h0]; ray
    j + n/2 is minus ray j, so pairing the two cancels the first-order
    term, and each pair at twice the ray weight cancels the 1/2.  Graded as
    j^2, the rule converges like panels^(-p), p = 4(1 - a), on the
    h^(1-2a) integrand.
    """
    half = len(dirs) // 2
    coarse, fine = np.empty(half), np.empty(half)
    kernel = None
    for idx, r, y2, lengths in ray_nodes(u.domain, x, dirs, s, stop=h0):
        b = len(idx) // 2
        vals = u._on_rays(x, dirs[idx], r, y2)
        if kernel is None:
            # one stop: every block shares this radii row
            kernel = r[0] ** (-1.0 - 2.0 * a)
        f = (2.0 * ux - vals[b:] - vals[:b]) * kernel
        coarse[idx[:b]] = f[:, :m] @ w[:m]
        fine[idx[:b]] = f[:, m:] @ w[m:]
    return (weight * float(lengths[half:] @ coarse), weight * float(lengths[half:] @ fine))


def _far(u, a, x, h0, dirs, weight, ux, s, w, m):
    """Far field plus exact tail of the principal value, summed over rays,
    by the coarse rule s[:m] and the fine rule s[m:].

    Per ray e, int_{h0}^{T} (u(x) - u(x+re)) r^(-1-2a) dr and the tail
    u(x) T^(-2a)/(2a) add up to u(x) h0^(-2a)/(2a) - int_{h0}^{T} u(x+re)
    r^(-1-2a) dr.  Each exit_graded_rule on [0, 1] maps onto every ray's
    [h0, T], its exit panel fitted to the boundary exponent that the field's
    tag declares.
    """
    coarse, fine = np.empty(len(dirs)), np.empty(len(dirs))
    for idx, r, y2, lengths in ray_nodes(u.domain, x, dirs, s, start=h0):
        vals = u._on_rays(x, dirs[idx], r, y2) * r ** (-1.0 - 2.0 * a)
        coarse[idx] = vals[:, :m] @ w[:m]
        fine[idx] = vals[:, m:] @ w[m:]
    tails = weight * len(dirs) * ux * h0 ** (-2.0 * a) / (2.0 * a)
    return (tails - weight * float(lengths @ coarse), tails - weight * float(lengths @ fine))


# Chebyshev resolution of the interval mollified_green build
_CHEBYSHEV_N = 512

# z rows evaluated together by _moll_values_interval.  At the default
# resolution a block's (rows, y-nodes) arrays take 96 KB each, so every
# block reuses the heap pages the block before it freed; with 384 KB arrays
# (64 rows) the allocator hands their pages back to the kernel and the next
# block faults them in again.  A multiple of 4, because OpenBLAS sums the
# rows of f @ w in fours and a block that split a four would move rows onto
# its tail path.  At the residual command's mollifier the values are then
# bitwise those of one block per group; at other mollifiers a row can
# still move in its last bit
_Z_BLOCK = 16


def _moll_values_interval(domain, a, moll, zs, quad):
    """v_{x,eps} at an array of interior z, each checked coarse against fine.

    Inside the bump's support the rule is split at the Green singularity and
    taken in the distance variable on each side; graded_mesh(0, L) is
    L * graded_mesh(0, 1), so every z scales one unit rule by its own L.
    Outside the support all z on one side share the y-nodes and the density
    values, and the Green values form one (z, y) array.  The first z in
    array order whose rule meets y == z, or whose coarse and fine values
    disagree, raises ToleranceError: the zs are the build's own nodes, so
    a rule node on z (the 2/a grading puts one there at a small a) is the
    rule's failure, not invalid input.
    """
    zs = np.array([domain.require_interior(z) for z in np.atleast_1d(zs)])
    lo, hi = moll.center - moll.width, moll.center + moll.width
    grading = max(2.0, 2.0 / a)
    groups = [
        (rows, toward)
        for rows, toward in (
            (np.flatnonzero(zs <= lo), "lo"),
            (np.flatnonzero((lo < zs) & (zs < hi)), None),
            (np.flatnonzero(zs >= hi), "hi"),
        )
        if rows.size
    ]
    singular = np.zeros(zs.shape, dtype=bool)

    def green_rows(rows, y, dist2):
        # G_a(z, y) for z = zs[rows] against y; a row that meets y == z is
        # flagged here and refused below, as is any non-finite value
        z = zs[rows, None]
        singular[rows] |= np.any(dist2 == 0.0, axis=1)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return green_fractional_radial(1, a, domain.R, z * z, y * y, dist2)

    def inside(rows, t, w):
        z = zs[rows]
        total = 0.0
        for sgn, L in ((-1.0, z - lo), (1.0, hi - z)):
            uu = L[:, None] * t
            y = z[:, None] + sgn * uu
            total = total + L * ((green_rows(rows, y, uu * uu) * moll.density(y)) @ w)
        return total

    def value(panels):
        out = np.empty(zs.shape)
        for idx, toward in groups:
            if toward is None:
                t, w = _graded_rule(panels, grading)
            else:
                y, w = panel_nodes_weights(graded_mesh(lo, hi, panels, 2.0, toward=toward))
                rho = moll.density(y)
            for start in range(0, idx.size, _Z_BLOCK):
                rows = idx[start:start + _Z_BLOCK]
                if toward is None:
                    out[rows] = inside(rows, t, w)
                else:
                    dist2 = (zs[rows, None] - y) ** 2
                    out[rows] = (green_rows(rows, y, dist2) * rho) @ w
        return out

    coarse = value(quad.resolution // 2)
    fine = value(quad.resolution)
    err = np.abs(fine - coarse)
    tol = np.array([quad.tolerance_for(v) for v in fine])
    failed = singular | ~(err <= tol)
    if failed.any():
        i = int(np.argmax(failed))
        if singular[i]:
            raise ToleranceError("mollified Green quadrature put a node on its "
                                 f"singularity at z={float(zs[i])!r}")
        raise ToleranceError(
            "mollified Green quadrature did not converge near the singularity",
            estimate=float(fine[i]),
            achieved_tol=float(err[i]),
        )
    return fine


def _moll_value_disk(domain, a, moll, z, quad):
    # polar rule on every ray's [0, eps] around the mollifier center;
    # accurate for z outside the support (analytic integrand), not
    # convergent when the Green singularity sits inside it, where
    # mollified_green refuses z
    s, w = panel_nodes_weights(np.linspace(0.0, 1.0, max(8, quad.resolution // 4) + 1))
    dirs, weight = rays(domain)
    rows = np.empty(len(dirs))
    for idx, r, y2, lengths in ray_nodes(domain, moll.center, dirs, s, stop=moll.width):
        pts = ray_points(moll.center, dirs[idx], r).reshape(-1, 2)
        dist2 = squared_norm(pts - z)
        vals = np.zeros(len(pts))
        ok = dist2 > 0.0
        vals[ok] = green_fractional_radial(2, a, domain.R, float(z @ z), y2.reshape(-1)[ok],
                                           dist2[ok])
        rows[idx] = ((vals * moll.density(pts)).reshape(r.shape) * r) @ w
    return weight * float(lengths @ rows)


def _not_a_knot_spline(x, y):
    """The cubic spline through (x, y), x increasing with at least 4
    entries, with not-a-knot ends (scipy's CubicSpline default); the
    returned callable extrapolates with the end pieces.

    The slopes s solve the tridiagonal system of C^2 continuity, written
    as scipy writes it, by one O(n) elimination; each piece is then the
    Hermite cubic of its end values and slopes, evaluated by Horner's rule.
    """
    n = len(x)
    dx = np.diff(x)
    slope = np.diff(y) / dx
    lower, diag, upper, rhs = (np.empty(n) for _ in range(4))
    # row i: dx_i s_(i-1) + 2 (dx_(i-1) + dx_i) s_i + dx_(i-1) s_(i+1)
    lower[1:-1] = dx[1:]
    diag[1:-1] = 2.0 * (dx[:-1] + dx[1:])
    upper[1:-1] = dx[:-1]
    rhs[1:-1] = 3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    # not-a-knot: the third derivative is continuous at x_1 and x_(n-2)
    d = x[2] - x[0]
    diag[0], upper[0] = dx[1], d
    rhs[0] = ((dx[0] + 2.0 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    lower[-1], diag[-1] = d, dx[-2]
    rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2.0 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    # Python floats: a scalar loop over n rows beats n numpy calls
    lo, di, up, s = lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()
    for i in range(1, n):
        m = lo[i] / di[i - 1]
        di[i] -= m * up[i - 1]
        s[i] -= m * s[i - 1]
    s[-1] /= di[-1]
    for i in range(n - 2, -1, -1):
        s[i] = (s[i] - up[i] * s[i + 1]) / di[i]
    s = np.array(s)
    t = (s[:-1] + s[1:] - 2.0 * slope) / dx
    c3, c2, c1, c0 = t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]

    def spline(z):
        i = np.clip(np.searchsorted(x, z, side="right") - 1, 0, n - 2)
        h = z - x[i]
        return ((c3[i] * h + c2[i]) * h + c1[i]) * h + c0[i]

    return spline


def mollified_green(domain, a, moll, quad=None):
    """The field v_{x,eps} = G_a * rho_eps as a SampledInteriorField.

    On the interval the field is sampled at the _CHEBYSHEV_N - 1 interior
    Chebyshev nodes R cos(pi k / _CHEBYSHEV_N), all evaluated in one
    batched call that refuses the whole build if any node's coarse and fine
    rules disagree, and stored through the weight (R^2-z^2)^a, so the spline
    interpolates the smooth quotient v/(R^2-z^2)^a right up to the boundary
    (this is what makes the field's own weighted trace extractable).  On the
    disk the field evaluates the convolution on demand, outside the
    mollifier's support only: the polar rule does not converge when the
    Green singularity sits inside it (83% off at a = 0.25, center 0, width
    0.4, z = (0.3, 0)), so a call with any z closer to the center than the
    width raises DomainError naming the first such z.
    """
    if quad is None:
        quad = _DEFAULT_QUAD
    if domain.kind == DISK:
        def profile(pts, r2):
            zs = pts.reshape(-1, 2)
            inside = squared_norm(zs - moll.center) < moll.width**2
            if inside.any():
                z = zs[np.argmax(inside)]
                raise DomainError(
                    f"z = ({float(z[0])!r}, {float(z[1])!r}) lies inside the mollifier's "
                    "support, where the disk mollified Green value is not certified"
                )
            return np.array(
                [_moll_value_disk(domain, a, moll, p, quad) for p in zs]
            ).reshape(pts.shape[:-1])

        return SampledInteriorField(domain, profile, TAG_DEGENERATE)
    R = domain.R
    k = np.arange(1, _CHEBYSHEV_N)
    zs = np.sort(R * np.cos(np.pi * k / _CHEBYSHEV_N))
    vals = _moll_values_interval(domain, a, moll, zs, quad)
    weight = (R * R - zs * zs) ** a
    spline = _not_a_knot_spline(zs, vals / weight)

    def profile(pts, r2):
        return spline(pts[..., 0]) * np.maximum(R * R - r2, 0.0) ** a

    return SampledInteriorField(domain, profile, TAG_DEGENERATE, grid=zs)


def residual_check(domain, a, moll, points, tolerance=1e-2,
                   budget=_DEFAULT_QUAD.budget):
    """Verify (-Delta)^a v_{x,eps} = rho_eps(. - x) at interior points, the
    Getoor identity at 0 and +-0.4R, and the a-harmonic profile at 0.

    The residual is the oracle that jointly validates c_{N,a}, kappa_{N,a}
    and the closed-form Green function: any normalization typo shows up as
    a residual far above tolerance.  Every operation runs under one spec
    whose convergence demand tracks the requested check tolerance (rho_eps
    vanishes at points outside the support, where only abs_tol is
    meaningful) and whose budget caps each operation.  Interval only; the
    disk constants are exercised through the Getoor identity instead.
    """
    if domain.kind != INTERVAL:
        raise DomainError("the residual oracle runs on the interval")
    if not points:
        raise DomainError("points must not be empty")
    quad = QuadratureSpec(rel_tol=1e-3, abs_tol=0.1 * tolerance,
                          resolution=_DEFAULT_QUAD.resolution, budget=budget)
    ref = getoor_reference(domain.N, a)
    rep = Report(
        "residual",
        scenario={
            "domain": domain.kind,
            "R": domain.R,
            "a": a,
            "mollifier_center": float(moll.center),
            "mollifier_width": moll.width,
            "points": [float(p) for p in points],
            "tolerance": tolerance,
            "budget": budget,
        },
        metadata={"getoor_reference": ref},
    )
    field = mollified_green(domain, a, moll, quad)
    for p in points:
        got = frac_laplacian_apply(field, a, p, quad)
        rep.add(check(f"residual at x={float(p):g}", got, moll.density(p), tolerance))

    u = getoor_field(domain, a)
    for frac in (0.0, 0.4, -0.4):
        xq = frac * domain.R
        got = frac_laplacian_apply(u, a, xq, quad)
        rep.add(check(f"Getoor identity at x={xq:g}", got, ref, 1e-3, rel=True))
    got = frac_laplacian_apply(boundary_singular_field(domain, a), a, 0.0, quad)
    rep.add(check("a-harmonic profile annihilated at x=0", got, 0.0, 1e-3))
    return rep
