"""Reference routes that only the tests compare against.

The scalar adaptive-quadrature B(r0; a, N), the independent check on
specfun.boundary_integral_B_array, and the composite Gauss-Legendre
integrator, the reference rule of the mass and trace tests.  They live
here, beside the tests, so that the package itself needs no SciPy.
"""

import math

import numpy as np

from kernel_lab.errors import DomainError
from kernel_lab.quadrature import GL_ORDER, panel_nodes_weights
from kernel_lab.specfun import _check_domain


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
    # imported here: scipy.integrate is slow to load, and only this scalar
    # route, the independent check on boundary_integral_B_array, needs it
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


def panel_integrate(fn, breakpoints, order=GL_ORDER):
    """Composite Gauss-Legendre over consecutive panels, fixed order.

    fn is called once, on every node of the flattened rule that
    panel_nodes_weights returns, so it must be vectorized: it takes a numpy
    array of abscissae and returns an array of values of the same length.
    Zero-width panels are dropped.
    """
    nodes, weights = panel_nodes_weights(breakpoints, order)
    return float(np.dot(weights, fn(nodes)))
