"""Gamma-family special functions and normalization constants.

Every closed form used elsewhere in the package (Green functions on the
interval and the disk, their weighted boundary traces, torsion-function
oracles) reduces to the gamma function, the radial profile integral

    B(r0; a, N) = int_0^{r0} t^(a-1) (1+t)^(-N/2) dt,

and a handful of constants assembled from them.  The constants are scalar
closed forms in math.gamma; B is evaluated by fixed Gauss-Jacobi rules over
numpy arrays (boundary_integral_B_array), which the tests pin against an
independent scalar adaptive-quadrature route.  Everything is deterministic
and reentrant.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .quadrature import _gj_nodes


@dataclass(frozen=True)
class FracParams:
    """The index triple (a, s, theta) of a fractional trace space.

    a is the operator order in (0, 1] (1 is the classical limit), s the
    boundary Sobolev index with s > -a - 1/2, and theta = s/2 + a/2 + 1/4
    the derived pairing order.  theta is always computed, never supplied.
    """

    a: float
    s: float

    def __post_init__(self):
        if not (0.0 < self.a <= 1.0):
            raise DomainError(f"fractional order a must lie in (0, 1], got {self.a}")
        if not self.s > -self.a - 0.5:
            raise DomainError(
                f"Sobolev index s={self.s} violates s > -a - 1/2 for a={self.a}"
            )

    @property
    def theta(self):
        return 0.5 * self.s + 0.5 * self.a + 0.25


def _check_domain(N, a, a_max_inclusive=False):
    if N not in (1, 2):
        raise DomainError(f"dimension N must be 1 or 2, got {N}")
    hi_ok = a <= 1.0 if a_max_inclusive else a < 1.0
    if not (0.0 < a and hi_ok):
        upper = "(0, 1]" if a_max_inclusive else "(0, 1)"
        raise DomainError(f"order a must lie in {upper}, got {a}")


def frac_laplacian_constant(N, a):
    """Normalization constant of the pointwise singular-integral operator.

    Uses the convention matching the Fourier multiplier |xi|^(2a):

        c_{N,a} = 4^a * a * Gamma((N + 2a)/2) / (pi^(N/2) * Gamma(1 - a)).

    Validated downstream against the Getoor torsion identity.
    """
    _check_domain(N, a)
    return (
        4.0**a * a * math.gamma(0.5 * (N + 2.0 * a))
        / (math.pi ** (0.5 * N) * math.gamma(1.0 - a))
    )


def _gamma_checked(a, evaluate):
    # evaluate() of a product of Gamma factors at order a, refused where it
    # leaves the doubles: Gamma(a) ~ 1/a, so Gamma(a)^2 overflows below
    # a ~ 7.5e-155 (** raises), kappa's denominator below ~ 1.3e-154 (* gives
    # inf, and dividing by it gives 0), and Gamma(a) itself at subnormal a
    try:
        value = evaluate()
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise DomainError(f"order a={a!r} is too small: Gamma(a)^2 overflows a double")
    return value


def green_constant(N, a):
    """Prefactor kappa_{N,a} = Gamma(N/2) / (4^a pi^(N/2) Gamma(a)^2) of the
    ball Green function of order a."""
    _check_domain(N, a)
    return _gamma_checked(
        a, lambda: math.gamma(0.5 * N) / (4.0**a * math.pi ** (0.5 * N) * math.gamma(a) ** 2))


def torsion_constant(N, a):
    """Constant kappa* with (-Delta)^a [kappa* (1-|x|^2)^a] = 1 on the unit ball."""
    _check_domain(N, a, a_max_inclusive=True)
    return math.gamma(0.5 * N) / (4.0**a * math.gamma(0.5 * N + a) * math.gamma(1.0 + a))


# Gauss-Jacobi order of the array route of B: each of its integrands is
# analytic at distance >= 1 from [0, 1], so 12 nodes reach rounding level
_B_ORDER = 12

# r0 values per block of boundary_integral_B_array: the temporaries of one
# block take 128 KB each, so a call's peak memory is its output plus a
# few blocks however long its input
_B_BLOCK = 16384


def _unit_jacobi(beta):
    # nodes and weights on [0, 1] for the weight u^beta
    x, w = _gj_nodes(_B_ORDER, beta)
    return 0.5 * (1.0 - x), w * 2.0 ** (-beta - 1.0)


def boundary_integral_B_array(r0, a, N):
    """B(r0; a, N) over an array of r0 values.

    Closed forms at a = 1/2.  Otherwise fixed 12-node Gauss-Jacobi rules,
    split at r0 = 1 so that no integrand has a singularity within distance
    1 of [0, 1]:

      r0 <= 1:  B = r0^a int_0^1 u^(a-1) (1 + r0 u)^(-N/2) du,
      r0 > 1:   B = B(1) + (1 - r0^(-c))/c + int_0^1 w^c g(w) dw
                    - r0^(-c-1) int_0^1 t^c g(t/r0) dt,

    with c = N/2 - a, g(w) = ((1 + w)^(-N/2) - 1)/w, and log r0 in place of
    (1 - r0^(-c))/c at c = 0.  The second form writes t^(a-1) (1+t)^(-N/2)
    on [1, r0] as t^(-c-1) (1 + g(1/t)/t), so it holds wherever B grows
    without bound too (N = 1, a > 1/2).  Each sum runs node by node over a
    block of r0 values, with no (points, nodes) temporary.  Tests pin the
    route against a scalar adaptive quadrature that shares nothing with it,
    the hypergeometric form (r0^a/a) 2F1(N/2, a; a+1; -r0) and the a = 1
    closed forms.
    """
    _check_domain(N, a, a_max_inclusive=True)
    r0 = np.asarray(r0, dtype=float)
    if np.any(r0 < 0.0):
        raise DomainError("r0 must be nonnegative")
    if a == 0.5 and N == 1:
        return 2.0 * np.arcsinh(np.sqrt(r0))
    if a == 0.5 and N == 2:
        return 2.0 * np.arctan(np.sqrt(r0))
    out = np.empty(r0.shape)
    flat, dest = r0.reshape(-1), out.reshape(-1)
    for start in range(0, flat.size, _B_BLOCK):
        block = slice(start, start + _B_BLOCK)
        dest[block] = _B_gauss_jacobi(flat[block], a, 0.5 * N)
    return out


def _B_gauss_jacobi(r0, a, half_n):
    # at r0 > 1 the first rule runs at min(r0, 1) = 1 and gives B(1)
    head = np.minimum(r0, 1.0)
    out = np.zeros(r0.shape)
    for u, w in zip(*_unit_jacobi(a - 1.0)):
        out += w * (1.0 + head * u) ** -half_n
    out *= head**a
    far = r0 > 1.0
    if not far.any():
        return out

    def g(w):
        return np.expm1(-half_n * np.log1p(w)) / w

    t = r0[far]
    c = half_n - a
    s, v = _unit_jacobi(c)
    tail = np.zeros(t.shape)
    for sj, vj in zip(s, v):
        tail += vj * g(sj / t)
    log_t = np.log(t)
    power = log_t if c == 0.0 else -np.expm1(-c * log_t) / c
    out[far] += power + float(v @ g(s)) - t ** (-c - 1.0) * tail
    return out


def boundary_integral_B_derivative(r0, a, N):
    """d/dr0 of B(r0; a, N), i.e. r0^(a-1) (1+r0)^(-N/2)."""
    _check_domain(N, a, a_max_inclusive=True)
    if r0 < 0.0:
        raise DomainError(f"r0 must be nonnegative, got {r0}")
    return r0 ** (a - 1.0) * (1.0 + r0) ** (-0.5 * N)
