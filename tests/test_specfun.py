import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import hyp2f1

from kernel_lab.errors import DomainError
from kernel_lab.specfun import (
    FracParams,
    boundary_integral_B_array,
    boundary_integral_B_derivative,
    frac_laplacian_constant,
    green_constant,
    torsion_constant,
)
from reference import boundary_integral_B


def test_frac_laplacian_constant_anchors():
    # c_{1,1/2} = 1/pi and c_{2,1/2} = 1/(2 pi) are the classic
    # half-Laplacian kernel constants
    assert frac_laplacian_constant(1, 0.5) == pytest.approx(1.0 / math.pi, rel=1e-14)
    assert frac_laplacian_constant(2, 0.5) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)


def test_green_constant_anchors():
    assert green_constant(1, 0.5) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)
    assert green_constant(2, 0.5) == pytest.approx(1.0 / (2.0 * math.pi**2), rel=1e-14)


@pytest.mark.parametrize("a", [0.1, 0.25, 0.5, 0.75, 0.9])
def test_trace_normalization_identity(a):
    # Gamma(a) Gamma(a+1) 4^a kappa_{1,a} / a = 1; the weighted-trace
    # normalization of the whole package hangs on this
    val = math.gamma(a) * math.gamma(a + 1.0) * 4.0**a * green_constant(1, a) / a
    assert abs(val - 1.0) < 1e-12


def test_torsion_constant_anchors():
    # a = 1 must reduce to the classical torsion profile (R^2-|x|^2)/(2N)
    assert torsion_constant(1, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert torsion_constant(2, 1.0) == pytest.approx(0.25, abs=1e-15)
    assert torsion_constant(1, 0.5) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("r0", [0.5, 1.0, 3.0])
def test_B_three_routes(r0, a, N):
    closed = boundary_integral_B(r0, a, N)
    hyp = (r0**a / a) * hyp2f1(N / 2.0, a, a + 1.0, -r0)
    integral, _ = quad(lambda t: t ** (a - 1.0) * (1.0 + t) ** (-N / 2.0), 0.0, r0)
    assert abs(closed - hyp) < 1e-10 * abs(hyp)
    assert abs(closed - integral) < 1e-9 * abs(integral)


def test_B_closed_forms_at_half():
    # the a = 1/2 branches use asinh/atan instead of hyp2f1
    for r0 in (0.3, 1.7):
        assert boundary_integral_B(r0, 0.5, 1) == pytest.approx(
            2.0 * math.asinh(math.sqrt(r0)), rel=1e-14
        )
        assert boundary_integral_B(r0, 0.5, 2) == pytest.approx(
            2.0 * math.atan(math.sqrt(r0)), rel=1e-14
        )


@pytest.fixture(scope="module")
def log_uniform_r0():
    rng = np.random.default_rng(20260101)
    return np.concatenate([10.0 ** rng.uniform(-8.0, 12.0, 200_000), [0.0, 1e-300, 1.0, 1e300]])


@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize("a", [0.1, 0.25, 0.3, 0.6, 0.75, 0.9, 0.95, 0.99])
def test_B_array_matches_hypergeometric_form(log_uniform_r0, a, N):
    # B = (r0^a / a) 2F1(N/2, a; a+1; -r0), across both sides of the r0 = 1
    # split and 20 decades, at both ends of the float range too
    r0 = log_uniform_r0
    hyp = (r0**a / a) * hyp2f1(N / 2.0, a, a + 1.0, -r0)
    np.testing.assert_allclose(boundary_integral_B_array(r0, a, N), hyp, rtol=2e-13, atol=0.0)


def test_B_array_at_a_one_matches_closed_forms():
    # B(r0; 1, 2) = log(1 + r0) and B(r0; 1, 1) = 2 (sqrt(1 + r0) - 1); the
    # hypergeometric form was 1.3e-9 off at N = 2, r0 = 1e9 and 7.2e-7 off
    # at 9.9e11
    r0 = np.array([1e-8, 0.3, 1.0, 2.5, 1e3, 1e9, 9.9e11, 1e300])
    np.testing.assert_allclose(boundary_integral_B_array(r0, 1.0, 2), np.log1p(r0),
                               rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(boundary_integral_B_array(r0, 1.0, 1),
                               2.0 * r0 / (1.0 + np.sqrt(1.0 + r0)), rtol=1e-13, atol=0.0)
    for N in (1, 2):
        for t in (0.3, 2.5, 1e9):
            assert boundary_integral_B_array(t, 1.0, N) == pytest.approx(
                boundary_integral_B(t, 1.0, N), rel=1e-10
            )


def test_B_monotone_and_array_route():
    r0 = np.linspace(0.05, 6.0, 40)
    vals = boundary_integral_B_array(r0, 0.6, 2)
    assert np.all(np.diff(vals) > 0)
    singles = np.array([boundary_integral_B(t, 0.6, 2) for t in r0])
    assert np.max(np.abs(vals - singles)) < 1e-13


@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize("a", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("r0", [0.5, 1.0, 3.0])
def test_B_derivative(r0, a, N):
    h = 1e-6 * max(1.0, r0)
    fd = (boundary_integral_B(r0 + h, a, N) - boundary_integral_B(r0 - h, a, N)) / (2.0 * h)
    exact = boundary_integral_B_derivative(r0, a, N)
    assert abs(fd - exact) < 1e-6 * abs(exact)
    assert exact == pytest.approx(r0 ** (a - 1.0) * (1.0 + r0) ** (-N / 2.0), rel=1e-14)


def test_frac_params_validation():
    p = FracParams(0.5, 0.0)
    assert p.theta == pytest.approx(0.5, abs=1e-16)
    assert FracParams(1.0, 0.0).a == 1.0
    with pytest.raises(DomainError):
        FracParams(0.0, 0.0)
    with pytest.raises(DomainError):
        FracParams(1.2, 0.0)
    with pytest.raises(DomainError):
        FracParams(0.5, -1.0)  # s must stay above -a - 1/2


def test_constant_domain_validation():
    with pytest.raises(DomainError):
        green_constant(1, 1.0)  # kappa_{N,a} diverges as a -> 1
    with pytest.raises(DomainError):
        frac_laplacian_constant(3, 0.5)
    with pytest.raises(DomainError):
        torsion_constant(1, 1.5)
    # Gamma(a)^2 passes the largest double below a ~ 7.5e-155 (OverflowError),
    # the denominator a little above it (kappa would read 0.0), and Gamma(a)
    # itself at subnormal a
    for a in (1e-154, 1e-200, 5e-324):
        with pytest.raises(DomainError, match="too small"):
            green_constant(2, a)
