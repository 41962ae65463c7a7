"""Poisson extensions and two-point reproducing kernels.

The order-s harmonic extension and its fractional counterpart are
isometries from multiplier-weighted boundary Sobolev spaces into the
interior.  Point evaluation of the extensions is reproduced by the
two-point kernels

  K_s(x,y)     = int (M^{-s/2} P_x)(M^{-s/2} P_y) dsigma,
  K_{a,s}(x,y) = Gamma(a)^2 Gamma(a+1)^2
                 int (M^{-theta} psi_x)(M^{-theta} psi_y) dsigma,

with theta = s/2 + a/2 + 1/4, P_x the classical Poisson kernel and
psi_x the weighted boundary trace of the fractional Green function.

Every extension value is computed by two routes, the plain boundary
integral and the multiplier pairing; their agreement rests on the exact
cancellation <f, M^{-t} g>_t = <f, g>_0, so any disagreement beyond
roundoff indicates a broken transform and raises ConsistencyError.

As a -> 1 the weighted trace collapses onto the Poisson kernel and
K_{a,s} -> K_{s+3/2}.  kernel_fractional accepts a = 1 as that formal
limit, which makes the trend checkable end to end.
"""

import math
from dataclasses import dataclass

import numpy as np

from .boundary import apply_M_power, boundary_integrate, dual_pairing
from .domains import DISK, INTERVAL, boundary_grid
from .errors import ConsistencyError, DomainError, GridMismatchError, ToleranceError
from .green import boundary_representer, fractional_trace_green, poisson_kernel_classical
from .report import Report, check, check_columns, flag
from .specfun import FracParams, _gamma_checked

# default circle quadrature resolution for kernel assembly; acceptance
# runs a second resolution to bound the quadrature error empirically
DEFAULT_NODES = 256

_ROUTE_TOL = 1e-12

# the most samples (rows x nodes) of a representer stack built at once:
# the 8 trace-recovery probes share one stack up to n = 8,192 and go one
# by one at 65,536, where the whole stack's temporaries would raise the
# peak memory of a `reproduce` run from ~38 to ~54 MB
_STACK_ELEMENTS = 1 << 16


def _route_guard(name, points, direct, spectral):
    # scale-guarded: traces blow up near the boundary, so a raw 1e-12
    # absolute gap would misfire on perfectly healthy large values; a NaN
    # on either route refuses.  One comparison per block of points, which
    # names the first failing one
    direct, spectral = np.broadcast_arrays(direct, spectral)
    ok = np.abs(direct - spectral) <= _ROUTE_TOL * np.maximum(1.0, np.abs(direct))
    bad = np.flatnonzero(~ok)
    if bad.size:
        i = bad[0]
        raise ConsistencyError(
            f"{name} at x={np.squeeze(points[i]).tolist()}: "
            "boundary-integral and multiplier routes disagree",
            route_a=float(direct[i]),
            route_b=float(spectral[i]),
        )


def _check_field_domain(f, domain):
    if f.grid.domain != domain:
        raise GridMismatchError("boundary field lives on a different domain")


def _gamma_factor(a):
    return _gamma_checked(a, lambda: math.gamma(a) * math.gamma(a + 1.0))


def _multiplier_route(front, side, rep):
    # front * <g, M^{-t} rep>_t from g's prebuilt side = dual_pairing(g, t),
    # which the cancellation makes front * int g rep
    return front * side.pair(rep)


def _extend(name, domain, front, t, g, representer, x):
    """front * int g rep_x dsigma at each point x, rep_x = representer(grid,
    points)'s row for x, checked against its multiplier route
    front * <g, M^{-t} rep_x>_t.

    x is one point (float out) or an array of points as ModelDomain.points
    reads them (one value per point, in the points' shape).  The
    representers are built and paired in row blocks of at most 65,536
    samples (rows x nodes) against one data side, g's spectrum and
    multipliers built once per call; each point's two routes are compared
    on their own, and each value is bitwise equal to that of a call at its
    point alone.
    """
    pts, single = domain.points(x)
    flat = pts.reshape(-1, domain.N)
    rows = max(1, _STACK_ELEMENTS // g.grid.n)
    side = dual_pairing(g, t)
    out = []
    for block in np.split(flat, range(rows, len(flat), rows)):
        rep = representer(g.grid, block)
        direct = front * boundary_integrate(g.pointwise_product(rep))
        _route_guard(name, block, direct, _multiplier_route(front, side, rep))
        out.append(direct)
    out = np.concatenate(out)
    return float(out[0]) if single else out.reshape(pts.shape[:-1])


def poisson_extend_classical(domain, s, g, x):
    """Value at x of the harmonic extension of boundary data g.

    Computed as <g, M^{-s} P(x,.)>_s and as int g P(x,.) dsigma; the two
    must agree to roundoff and the direct value is returned.  x is one
    point or an array of points, as for poisson_extend_fractional.
    """
    _check_field_domain(g, domain)
    return _extend("poisson_extend_classical", domain, 1.0, s, g, poisson_kernel_classical, x)


def poisson_extend_fractional(domain, a, s, phi, x):
    """Value at x of the a-harmonic extension of weighted trace data phi.

    u(x) = Gamma(a)Gamma(a+1) <phi, M^{-2 theta} psi_x>_{2 theta}
         = Gamma(a)Gamma(a+1) int phi psi_x dsigma,

    psi_x = gamma_0^a G_a(x,.).  On the interval with phi constant equal
    to (2R)^{a-1} this reproduces the singular a-harmonic profile
    (R^2-|x|^2)^{a-1} exactly, which pins the Gamma normalization.

    x is one point (float out) or an array of points as
    ModelDomain.points reads them (one value per point, in the points'
    shape), built and paired in row blocks against one data side (_extend).
    """
    _check_field_domain(phi, domain)
    t = 2.0 * FracParams(a, s).theta
    return _extend("poisson_extend_fractional", domain, _gamma_factor(a), t, phi,
                   lambda grid, pts: fractional_trace_green(grid, a, pts), x)


def _representers(grid, kind, params, points):
    """(front, V): the kernel's prefactor and the (m, n) rows M^{-t} rep(x_i)
    over a point array, t = s/2 for kind "classical" (params = s), theta
    for "fractional"; one stack of representers, one FFT pair."""
    if kind == "classical":
        front, a, t = 1.0, 1.0, 0.5 * float(params)
    elif kind == "fractional":
        front = _gamma_checked(params.a, lambda: _gamma_factor(params.a) ** 2)
        a, t = params.a, params.theta
    else:
        raise ValueError(f"unknown kernel selector {kind!r}")
    return front, apply_M_power(boundary_representer(grid, a, points), -t).values


def _gram(front, V, weights):
    """The kernel pairing front * sum_j w_j V_x(z_j) V_y(z_j) over the rows of
    an (m, n) representer stack, or of each block of a (b, m, n) stack; the
    upper triangle mirrors the lower, so each block is exactly symmetric."""
    K = front * ((V * weights) @ np.swapaxes(V, -1, -2))
    return np.where(np.tri(V.shape[-2], dtype=bool), K, np.swapaxes(K, -1, -2))


def kernel_classical(domain, s, x, y, n_nodes=DEFAULT_NODES):
    """Two-point kernel of the order-s harmonic extension isometry."""
    return float(gram_matrix(domain, "classical", s, [x, y], n_nodes).entries[1, 0])


# the most terms the spectral oracle sums per pair
_ORACLE_TERMS = 200_000


def _oracle_multipliers(s, R, rho):
    """The multipliers (1 + k^2/R^2)^(-s) of the live terms of the order s
    series at ratio rho: k = 1, ... up to, not including, its first term
    mult_k rho^k below 1e-16.  Built in chunks, each multiplier as Python's
    float ** float (float_power is libm pow).  A term live at
    k = _ORACLE_TERMS raises ToleranceError, a live term whose doubled
    multiplier is not a finite double DomainError."""
    parts, lo, hi = [], 1, 256
    while lo <= _ORACLE_TERMS:
        k = np.arange(lo, min(hi, _ORACLE_TERMS) + 1, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            mult = np.float_power(1.0 + np.float_power(k / R, 2), -s)
            stops = np.flatnonzero(mult * np.float_power(rho, k) < 1e-16)
            live = mult[:stops[0]] if stops.size else mult
            bad = np.flatnonzero(~np.isfinite(2.0 * live))
        if bad.size:
            raise DomainError(
                f"the spectral oracle cannot sum the order s={s:g} series: "
                f"its multiplier at k={int(k[bad[0]])} overflows")
        parts.append(live)
        if stops.size:
            return np.concatenate(parts)
        lo, hi = hi + 1, 4 * hi
    raise ToleranceError(
        f"the spectral oracle's order s={s:g} series at rho={rho:.17g} has terms "
        f"above 1e-16 past k={_ORACLE_TERMS}")


def kernel_classical_spectral_oracle(domain, s, x, y):
    """Fourier-series evaluation of the classical disk kernel.

    K_s(x,y) = (1/2piR) [1 + 2 sum_{k>=1} (1+k^2/R^2)^{-s} rho^k cos(k D)]
    with rho = r1 r2/R^2 and D the angle between x and y; each pair's
    series is truncated at its first term whose magnitude (cosine bounded
    away) is below 1e-16.  x and y are points (float out) or (P, 2) arrays
    of them ((P,) array out).  Before any term is summed, one multiplier
    table decides both refusals: a live term whose doubled multiplier is
    too large for a double, as at a strongly negative s, raises
    DomainError, and a series still above 1e-16 at its 200,000th term (rho
    near 1) raises ToleranceError.
    Independent of the grid machinery, hence an oracle for it.
    """
    if domain.kind != DISK:
        raise DomainError("the spectral oracle is defined on the disk")
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    if x.ndim not in (1, 2) or x.shape[-1] != 2:
        raise DomainError(f"disk points are 2-vectors, got shape {x.shape}")
    R = domain.R
    P = x.size // 2
    pts = np.concatenate([x.reshape(-1, 2), y.reshape(-1, 2)])
    r = np.hypot(pts[:, 0], pts[:, 1])
    if not np.all(R - r > 0.0):  # also refuses NaN
        raise DomainError(f"spectral oracle points must be interior to the disk of radius {R}")
    theta = np.arctan2(pts[:, 1], pts[:, 0])
    rho = r[:P] * r[P:] / R**2
    delta = theta[P:] - theta[:P]
    # every term grows with rho, so the pair of largest rho stops last
    table = _oracle_multipliers(s, R, float(rho.max(initial=0.0)))
    total = np.ones_like(rho)
    live = np.arange(rho.size)
    for k, mult in enumerate(table.tolist(), 1):
        # float_power is libm pow, as Python's float ** int
        mag = mult * np.float_power(rho[live], k)
        keep = mag >= 1e-16
        live, mag = live[keep], mag[keep]
        total[live] += 2.0 * mag * np.cos(k * delta[live])
    out = total / (2.0 * math.pi * R)
    return float(out[0]) if x.ndim == 1 else out


def kernel_fractional(domain, a, s, x, y, n_nodes=DEFAULT_NODES):
    """Two-point kernel of the (a, s) fractional extension isometry."""
    return float(gram_matrix(domain, "fractional", FracParams(a, s), [x, y], n_nodes).entries[1, 0])


@dataclass
class KernelMatrix:
    """Gram matrix of kernel representers at a fixed point set.

    params is the classical order s (a float) or a FracParams; entries is
    exactly symmetric because its upper triangle mirrors the lower one.
    """

    params: object
    points: np.ndarray
    entries: np.ndarray
    has_duplicates: bool = False

    def eigenvalues(self):
        """Dense symmetric eigensolve, ascending."""
        return np.linalg.eigvalsh(self.entries)

    def psd_verdict(self):
        """(min eigenvalue, max eigenvalue, is_psd) from one eigensolve;
        PSD means the min eigenvalue is above -1e-10 times the max."""
        lam = self.eigenvalues()
        return lam[0], lam[-1], bool(lam[0] >= -1e-10 * max(lam[-1], 0.0))


def gram_matrix(domain, kind, params, points, n_nodes=DEFAULT_NODES):
    """Assemble the Gram matrix K(x_i, x_j) over interior points.

    kind selects the kernel: "classical" (params = order s) or
    "fractional" (params = FracParams).  Duplicate points are allowed and
    flagged; they make the matrix singular, which is not an error.
    """
    pts = np.array([domain.point(p) for p in points])
    if not len(pts):
        raise DomainError("gram_matrix needs at least one point")
    grid = boundary_grid(domain, n_nodes)
    entries = _gram(*_representers(grid, kind, params, pts), grid.weights)

    # a duplicate is a pair closer than 1e-14 R in every coordinate
    near = np.ones((len(pts),) * 2, dtype=bool)
    for c in pts.reshape(len(pts), -1).T:
        near &= np.abs(c[:, None] - c[None, :]) < 1e-14 * domain.R
    return KernelMatrix(params, pts, entries, has_duplicates=bool(np.any(np.tril(near, -1))))


def kernel_report(domain, kind, a, s, points, n_nodes):
    """Report on the Gram matrix of one kernel over points, and its table.

    kind is "classical" (order s; a is only echoed) or "fractional"
    (FracParams(a, s)).  On the classical disk every pair (i, j >= i) is
    checked against kernel_classical_spectral_oracle at relative 1e-8, as
    one CheckColumns block; then come the Gram PSD flag (one eigensolve)
    and the exact-symmetry flag.  Returns (report, columns, checks):
    columns maps "i", "j" and "K" to arrays over the pairs in row-major
    order; checks is the oracle block, whose computed, reference and
    abs_error columns are K, the oracle values and their discrepancy, or
    None off the classical disk.
    """
    params = float(s) if kind == "classical" else FracParams(a, s)
    km = gram_matrix(domain, kind, params, points, n_nodes=n_nodes)
    rep = Report(
        "kernel",
        scenario={
            "domain": domain.kind,
            "R": domain.R,
            "kernel_type": kind,
            "a": a,
            "s": s,
            "n_nodes": n_nodes,
            "points": km.points.tolist(),
        },
        metadata={"has_duplicates": km.has_duplicates},
    )
    i, j = np.triu_indices(len(km.points))
    K = km.entries[i, j]
    columns = {"i": i, "j": j, "K": K}
    checks = None
    if kind == "classical" and domain.kind == DISK:
        oracle = kernel_classical_spectral_oracle(domain, s, km.points[i], km.points[j])
        names = [f"K[{pi},{pj}] vs spectral oracle" for pi, pj in zip(i.tolist(), j.tolist())]
        checks = rep.add(check_columns(names, K, oracle, 1e-8, rel=True))
    lo, hi, psd = km.psd_verdict()
    rep.add(flag(f"Gram PSD (min {lo:.3e}, max {hi:.3e})", psd))
    rep.add(flag("assembled matrix exactly symmetric",
                 bool(np.array_equal(km.entries, km.entries.T))))
    return rep, columns, checks


def reproducing_residual(domain, a, s, phi, x):
    """|<phi, K_x> - u(x)| with the representer built on an independent grid.

    u(x) comes from poisson_extend_fractional on phi's own grid; the
    pairing rebuilds psi_x at twice the resolution (boundary_grid keeps the
    interval's two nodes), so the residual bounds the quadrature error of
    the kernel machinery.
    """
    params = FracParams(a, s)
    u = poisson_extend_fractional(domain, a, s, phi, x)
    phi_fine = phi.resample(boundary_grid(domain, 2 * phi.grid.n).n)
    psi = fractional_trace_green(phi_fine.grid, a, x)
    side = dual_pairing(phi_fine, 2.0 * params.theta)
    pairing = _multiplier_route(_gamma_factor(a), side, psi)
    return abs(pairing - u)


def _recovery_grid_n(base_n, d):
    # the trace kernel has angular width ~ d; node count tracks it
    n = base_n
    while n < 64.0 / d and n < (1 << 16):
        n *= 2
    return n


def reproduce_report(grid, a, s, data, x, d_values):
    """Report on the reproducing residual and weighted-trace recovery of data.

    data is the boundary function, called with an array of angles on the
    circle or of nodes on the interval (one value per entry out).  It is
    sampled on grid for the two-resolution reproducing residual at x, and
    on circle grids refined as 1/d (the interval keeps its two nodes) for
    the recovery u((R-d) z) d^(1-a) -> data(z) at probe points z, where one
    call gives the targets; the circle probes sit off the zeros of cos.
    Each d extends its grid's data at all probes in one
    poisson_extend_fractional call.  d_values are sorted decreasing and
    must be distinct; the recovery error at every probe must decrease
    strictly along them, and the worst last one is bounded by
    1e-2 max(1, max |data|) over the grid.
    """
    domain = grid.domain
    d_values = sorted((float(d) for d in d_values), reverse=True)
    if not d_values:
        raise DomainError("d_values must not be empty")
    if len(set(d_values)) != len(d_values):
        raise DomainError("d_values must be distinct")
    phi = grid.field_from_function(data)

    rep = Report(
        "reproduce",
        scenario={
            "domain": domain.kind,
            "R": domain.R,
            "a": a,
            "s": s,
            "n_nodes": grid.n,
            "x": np.asarray(x).tolist(),
            "d_values": d_values,
        },
    )
    residual = reproducing_residual(domain, a, s, phi, x)
    res_tol = 1e-12 if domain.kind == INTERVAL else 1e-8
    rep.add(check("two-resolution reproducing residual", residual, 0.0, res_tol))

    # probes: the boundary directions z, and the arguments data takes there
    if domain.kind == INTERVAL:
        zs, args = np.array([-1.0, 1.0]), np.array([-domain.R, domain.R])
    else:
        args = np.array([2.0 * math.pi * j / 8.0 + math.pi / 8.0 for j in range(8)])
        zs = np.array([[math.cos(t), math.sin(t)] for t in args.tolist()])
    targets = data(args)
    errs = np.empty((len(d_values), len(zs)))
    for row, d in zip(errs, d_values):
        n_d = _recovery_grid_n(grid.n, d / domain.R)
        phi_d = boundary_grid(domain, n_d).field_from_function(data)
        u = poisson_extend_fractional(domain, a, s, phi_d, (domain.R - d) * zs)
        row[:] = np.abs(u * d ** (1.0 - a) - targets)
    errors = errs.max(axis=1).tolist()
    rep.metadata["trace_recovery_errors"] = errors
    scale = max(1.0, float(np.max(np.abs(phi.values))))
    monotone = bool(np.all(errs[:-1] > errs[1:]))
    rep.add(flag("trace-recovery errors decrease along d_values", monotone))
    rep.add(check("final trace-recovery error", errors[-1], 0.0, 1e-2 * scale))
    return rep


def limit_consistency(domain, s, x, y, a_list, n_nodes=DEFAULT_NODES):
    """Report on K_{a,s} -> K_{s+3/2} as a increases toward 1.

    Records the error sequence against the classical kernel of order
    s + 3/2, a strict-monotonicity flag, the formal a=1 agreement, and a
    final-error bound of 1e-2 times the classical value.  Every kernel is
    evaluated on n_nodes boundary nodes.  An empty a_list, or one that does
    not increase strictly, raises DomainError.
    """
    a_list = [float(a) for a in a_list]
    if not a_list:
        raise DomainError("a_list must not be empty")
    if any(a1 >= a2 for a1, a2 in zip(a_list, a_list[1:])):
        raise DomainError("a_list must increase strictly toward 1")
    for a in a_list:
        FracParams(a, s)
    ref = kernel_classical(domain, s + 1.5, x, y, n_nodes)
    errors = [abs(kernel_fractional(domain, a, s, x, y, n_nodes) - ref) for a in a_list]
    formal = kernel_fractional(domain, 1.0, s, x, y, n_nodes)

    rep = Report(
        "limit",
        scenario={
            "domain": domain.kind,
            "R": domain.R,
            "s": s,
            "x": np.asarray(x).tolist(),
            "y": np.asarray(y).tolist(),
            "a_values": a_list,
        },
        metadata={"errors": errors, "classical_reference": ref},
    )
    decreasing = all(e1 > e2 for e1, e2 in zip(errors, errors[1:]))
    rep.add(flag("kernel errors strictly decreasing", decreasing))
    rep.add(check("formal a=1 matches classical order s+3/2", formal, ref, 1e-10))
    rep.add(
        check(
            "final error within trend bound",
            errors[-1],
            0.0,
            1e-2 * abs(ref),
        )
    )
    return rep
