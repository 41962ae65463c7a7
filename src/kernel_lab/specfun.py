"""Gamma-family special functions and normalization constants.

Every closed form used elsewhere in the package (Green functions on the
interval and the disk, their weighted boundary traces, torsion-function
oracles) reduces to the gamma function, the radial profile integral

    B(r0; a, N) = int_0^{r0} t^(a-1) (1+t)^(-N/2) dt,

and a handful of constants assembled from them.  All routines here are
pure scalar arithmetic, deterministic and reentrant.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import hyp2f1

from .errors import DomainError


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


def green_constant(N, a):
    """Prefactor kappa_{N,a} = Gamma(N/2) / (4^a pi^(N/2) Gamma(a)^2) of the
    ball Green function of order a."""
    _check_domain(N, a)
    return math.gamma(0.5 * N) / (4.0**a * math.pi ** (0.5 * N) * math.gamma(a) ** 2)


def torsion_constant(N, a):
    """Constant kappa* with (-Delta)^a [kappa* (1-|x|^2)^a] = 1 on the unit ball."""
    _check_domain(N, a, a_max_inclusive=True)
    return math.gamma(0.5 * N) / (4.0**a * math.gamma(0.5 * N + a) * math.gamma(1.0 + a))


def boundary_integral_B(r0, a, N):
    """Radial profile B(r0; a, N) = int_0^{r0} t^(a-1) (1+t)^(-N/2) dt.

    Closed antiderivatives are used for (a, N) in {(1/2, 1), (1/2, 2)};
    everything else goes through adaptive Gauss-Kronrod after the
    substitution t = u^(1/a), which removes the endpoint singularity.
    The two routes agree to 1e-10 (tested).
    """
    _check_domain(N, a, a_max_inclusive=True)
    if r0 < 0.0:
        raise DomainError(f"r0 must be nonnegative, got {r0}")
    if r0 == 0.0:
        return 0.0
    if a == 0.5 and N == 1:
        return 2.0 * math.asinh(math.sqrt(r0))
    if a == 0.5 and N == 2:
        return 2.0 * math.atan(math.sqrt(r0))
    return _B_quadrature(r0, a, N)


def _B_quadrature(r0, a, N):
    # imported here: scipy.integrate is slow to load and most runs never
    # reach the scalar-quad route
    from scipy.integrate import quad

    half_n = 0.5 * N
    inv_a = 1.0 / a
    total = 0.0
    # [0, min(r0, 1)] with t = u^(1/a): dt t^(a-1) = du / a, integrand smooth
    head = min(r0, 1.0)
    val, _ = quad(
        lambda u: (1.0 + u**inv_a) ** (-half_n),
        0.0,
        head**a,
        epsabs=0.0,
        epsrel=1e-12,
        limit=200,
    )
    total += val / a
    if r0 > 1.0:
        # log substitution t = e^v keeps large upper limits well conditioned
        val, _ = quad(
            lambda v: math.exp(a * v) * (1.0 + math.exp(v)) ** (-half_n),
            0.0,
            math.log(r0),
            epsabs=0.0,
            epsrel=1e-12,
            limit=200,
        )
        total += val
    return total


def boundary_integral_B_array(r0, a, N):
    """Vectorized boundary_integral_B over an array of r0 values.

    Same closed forms at a = 1/2; otherwise the hypergeometric form
    B = (r0^a / a) 2F1(N/2, a; a+1; -r0), which the operation contract
    admits as an alternative route.  Agreement with the scalar routine
    is pinned by tests at 1e-10.
    """
    _check_domain(N, a, a_max_inclusive=True)
    r0 = np.asarray(r0, dtype=float)
    if np.any(r0 < 0.0):
        raise DomainError("r0 must be nonnegative")
    if a == 0.5 and N == 1:
        return 2.0 * np.arcsinh(np.sqrt(r0))
    if a == 0.5 and N == 2:
        return 2.0 * np.arctan(np.sqrt(r0))
    return (r0**a / a) * hyp2f1(0.5 * N, a, a + 1.0, -r0)


def boundary_integral_B_derivative(r0, a, N):
    """d/dr0 of boundary_integral_B, i.e. r0^(a-1) (1+r0)^(-N/2)."""
    _check_domain(N, a, a_max_inclusive=True)
    if r0 < 0.0:
        raise DomainError(f"r0 must be nonnegative, got {r0}")
    return r0 ** (a - 1.0) * (1.0 + r0) ** (-0.5 * N)
