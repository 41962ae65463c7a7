import math

import contextlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kernel_lab import debug
from kernel_lab.debug import DEBUG_CONTROLS
from kernel_lab.domains import BoundaryGrid, boundary_grid, disk, interval
from kernel_lab.errors import DomainError, GridMismatchError, SingularityError
from kernel_lab.hadamard import (
    MIN_FD_STEP,
    PerturbationField,
    dilation_derivative_exact,
    dilation_derivative_fd,
    hadamard_prediction,
    hadamard_report,
)

IV = interval(1.0)
DK = disk(1.0)


def test_exact_anchor_interval_classical():
    # R d/dR G_1(0,0) on (-R,R) at R=1 equals 1/2
    assert dilation_derivative_exact(IV, 1.0, 0.0, 1e-12) == pytest.approx(0.5, abs=1e-10)


def test_exact_anchor_disk_classical_center():
    # independent of y: R d/dR G_1(0,y) = 1/(2 pi)
    for y in (np.array([0.3, 0.1]), np.array([-0.6, 0.2])):
        got = dilation_derivative_exact(DK, 1.0, np.zeros(2), y)
        assert got == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)


def test_exact_anchor_interval_fractional():
    # a = 1/2, x = 0, y = 1/2 on (-1,1): closed form is 2/(pi sqrt(3))
    got = dilation_derivative_exact(IV, 0.5, 0.0, 0.5)
    assert got == pytest.approx(2.0 / (math.pi * math.sqrt(3.0)), rel=1e-12)


@pytest.mark.parametrize(
    "domain,x,y",
    [(IV, 0.0, 0.5), (DK, np.zeros(2), np.array([0.5, 0.0]))],
    ids=["interval", "disk"],
)
def test_corrupt_kappa_reaches_exact_and_fd_routes(domain, x, y):
    # both routes are linear in kappa, so the control must scale both alike
    # rather than show up only as a disagreement between them
    exact = dilation_derivative_exact(domain, 0.5, x, y)
    fd = dilation_derivative_fd(domain, 0.5, x, y, 1e-3)
    with debug.corrupted_green_constant():
        bad_exact = dilation_derivative_exact(domain, 0.5, x, y)
        bad_fd = dilation_derivative_fd(domain, 0.5, x, y, 1e-3)
    assert bad_exact == pytest.approx(1.02 * exact, rel=1e-14)
    assert bad_fd == pytest.approx(1.02 * fd, rel=1e-12)


def test_fd_error_and_order():
    x, y = np.array([0.3, -0.1]), np.array([-0.2, 0.4])
    exact = dilation_derivative_exact(DK, 1.0, x, y)
    e2 = abs(dilation_derivative_fd(DK, 1.0, x, y, 1e-2) - exact)
    e3 = abs(dilation_derivative_fd(DK, 1.0, x, y, 1e-3) - exact)
    assert e3 < 1e-5
    assert 30.0 < e2 / e3 < 300.0  # central differences are O(t^2)


def test_fd_matches_exact_fractional():
    exact = dilation_derivative_exact(IV, 0.5, 0.2, -0.3)
    fd = dilation_derivative_fd(IV, 0.5, 0.2, -0.3, 1e-3)
    assert abs(fd - exact) < 1e-5 * max(1.0, abs(exact))


@pytest.mark.parametrize(
    "domain,a,x,y",
    [
        (IV, 1.0, 0.25, -0.4),
        (IV, 0.5, 0.25, -0.4),
        (DK, 1.0, np.array([0.3, 0.0]), np.array([0.0, 0.45])),
        (DK, 0.5, np.array([0.3, 0.0]), np.array([0.0, 0.45])),
    ],
    ids=["iv-classical", "iv-fractional", "dk-classical", "dk-fractional"],
)
def test_prediction_matches_exact(domain, a, x, y):
    n = 2 if domain.kind == "interval" else 512
    alpha = PerturbationField.dilation(BoundaryGrid(domain, n))
    exact = dilation_derivative_exact(domain, a, x, y)
    pred = hadamard_prediction(domain, a, x, y, alpha)
    tol = 1e-10 if domain.kind == "interval" else 1e-6
    assert abs(pred - exact) < tol * max(1.0, abs(exact))


def test_prediction_linear_in_alpha():
    grid = BoundaryGrid(DK, 128)
    x, y = np.array([0.2, 0.3]), np.array([-0.4, 0.1])
    a1 = PerturbationField(grid.field(np.cos(grid.angles) + 2.0))
    a2 = PerturbationField(grid.field(np.sin(2.0 * grid.angles) - 0.5))
    both = PerturbationField(a1.field + a2.field)
    lhs = hadamard_prediction(DK, 0.5, x, y, both)
    rhs = hadamard_prediction(DK, 0.5, x, y, a1) + hadamard_prediction(DK, 0.5, x, y, a2)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_prediction_zero_speed_and_scaling():
    grid = BoundaryGrid(DK, 128)
    x, y = np.array([0.2, 0.3]), np.array([-0.4, 0.1])
    zero = PerturbationField(grid.constant_field(0.0))
    assert hadamard_prediction(DK, 0.5, x, y, zero) == 0.0
    # dilation speed is the constant R, so unit speed gives exact / R
    unit = PerturbationField(grid.constant_field(1.0))
    dil = PerturbationField.dilation(grid)
    assert np.all(dil.field.values == DK.R)
    p_unit = hadamard_prediction(DK, 0.5, x, y, unit)
    p_dil = hadamard_prediction(DK, 0.5, x, y, dil)
    assert p_dil == pytest.approx(DK.R * p_unit, rel=1e-14)


def test_prediction_symmetry_positivity():
    x, y = np.array([0.5, 0.1]), np.array([-0.3, -0.2])
    alpha = PerturbationField.dilation(BoundaryGrid(DK, 128))
    pxy = hadamard_prediction(DK, 0.6, x, y, alpha)
    pyx = hadamard_prediction(DK, 0.6, y, x, alpha)
    assert pxy == pytest.approx(pyx, rel=1e-13)
    assert pxy > 0.0  # dilation can only increase the Green function


def _interior_point(data, domain):
    if domain.kind == "interval":
        return domain.R * data.draw(st.floats(-0.95, 0.95))
    r, th = data.draw(st.floats(0.0, 0.95)), data.draw(st.floats(0.0, 2.0 * math.pi))
    return domain.R * np.array([r * math.cos(th), r * math.sin(th)])


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["interval", "disk"]), R=st.sampled_from([1e-3, 1.0, 2.5, 1e3]),
       a=st.just(1.0) | st.floats(0.01, 1.0), control=st.sampled_from([None, *DEBUG_CONTROLS]),
       data=st.data())
def test_dilation_derivative_positive(kind, R, a, control, data):
    # a growing domain raises the Green function at every distinct pair:
    # every factor of the exact route is positive, and the prediction
    # integrates psi_x psi_y R with psi > 0
    domain = disk(R) if kind == "disk" else interval(R)
    x, y = _interior_point(data, domain), _interior_point(data, domain)
    assume(np.linalg.norm(np.atleast_1d(x - y)) >= 1e-3 * R)
    alpha = PerturbationField.dilation(boundary_grid(domain, 64))
    with DEBUG_CONTROLS[control]() if control else contextlib.nullcontext():
        assert dilation_derivative_exact(domain, a, x, y) > 0.0
        assert hadamard_prediction(domain, a, x, y, alpha) > 0.0


def test_singular_pair_guard():
    x = np.array([0.2, 0.2])
    with pytest.raises(SingularityError):
        dilation_derivative_exact(DK, 0.5, x, x)
    with pytest.raises(SingularityError):
        hadamard_prediction(DK, 0.5, x, x, PerturbationField.dilation(BoundaryGrid(DK, 64)))


@pytest.mark.parametrize("a", [0.5, 1.0])
@pytest.mark.parametrize("domain, x, y", [
    (IV, 1.0e-200, 2.0e-200),
    (DK, np.array([1.0e-200, 0.0]), np.array([2.0e-200, 0.0])),
], ids=["interval", "disk"])
def test_underflowing_gap_is_singular(domain, x, y, a):
    # distinct points whose squared distance, the divisor of r0, is 0
    with pytest.raises(SingularityError):
        dilation_derivative_exact(domain, a, x, y)


@pytest.mark.parametrize("a", [1.5, 0.0, -0.5, math.nan])
def test_report_refuses_order_outside_its_range(a):
    with pytest.raises(DomainError, match=r"\(0, 1\]"):
        hadamard_report(IV, a, [(0.0, 0.5)])


def test_fd_step_guards():
    with pytest.raises(DomainError):
        dilation_derivative_fd(IV, 1.0, 0.2, -0.3, MIN_FD_STEP / 10.0)
    with pytest.raises(DomainError):
        dilation_derivative_fd(IV, 1.0, 0.2, -0.3, 0.6)
    # shrinking by t = 0.5 expels the point and must refuse
    with pytest.raises(DomainError):
        dilation_derivative_fd(IV, 1.0, 0.8, -0.1, 0.5)


def test_alpha_domain_guard():
    alpha = PerturbationField.dilation(BoundaryGrid(disk(2.0), 64))
    with pytest.raises(GridMismatchError):
        hadamard_prediction(DK, 0.5, np.array([0.2, 0.0]), np.array([0.0, 0.3]), alpha)


def test_report_passes_and_tabulates():
    pairs = [(np.array([0.0, 0.0]), np.array([0.5, 0.0]))]
    rep = hadamard_report(DK, 0.5, pairs)
    assert rep.overall_pass
    entry = rep.metadata["pairs"][0]
    assert set(entry["fd"]) == {repr(1e-2), repr(1e-3)}
    assert entry["order"] is None or 1.4 <= entry["order"] <= 2.6


def test_report_empty_pairs_or_steps_refused():
    with pytest.raises(DomainError, match="at least one point pair"):
        hadamard_report(IV, 0.5, [])
    with pytest.raises(DomainError, match="t_list"):
        hadamard_report(IV, 0.5, [(0.0, 0.5)], t_list=[])
    # one step leaves the FD route compared to nothing
    with pytest.raises(DomainError, match="at least two distinct FD steps"):
        hadamard_report(IV, 0.5, [(0.0, 0.5)], t_list=[1e-2])
