"""Fail closed: a certifying routine that meets a non-finite value refuses.

A principal value, a Green mass or a two-route extension compares two
evaluations of one quantity (two resolutions, or two routes) before it
returns; the Gram matrix, the Hadamard report and the Green mass first
check their points.  Fed a NaN or an infinity, each must raise a
KernelLabError and never return a value.  numpy warns as those
values pass through the arithmetic; the warnings are not under test, the
refusal is.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_lab import green
from kernel_lab.domains import BoundaryGrid, disk, interval, squared_norm
from kernel_lab.errors import DomainError, KernelLabError, ToleranceError
from kernel_lab.fracop import TAG_DEGENERATE, SampledInteriorField, frac_laplacian_apply
from kernel_lab.green import green_mass
from kernel_lab.hadamard import hadamard_report
from kernel_lab.rkhs import gram_matrix, poisson_extend_classical, poisson_extend_fractional
from kernel_lab.specfun import FracParams

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

IV = interval(1.0)
DK = disk(1.0)
DOMAINS = {"interval": IV, "disk": DK}

_BAD = st.sampled_from([math.nan, math.inf, -math.inf])


def _point(domain, radius, angle):
    if domain.kind == "interval":
        return radius * math.cos(angle)
    return np.array([radius * math.cos(angle), radius * math.sin(angle)])


def test_route_guard_refuses_nan_multiplier_route():
    # (1 + k^2)^401 overflows, so the multiplier route's pairing refuses
    # before it could return NaN from inf * 0
    grid = BoundaryGrid(DK, 256)
    g = grid.field(np.cos(grid.angles))
    with pytest.raises(DomainError, match="t=401 has a non-finite multiplier at mode k=3"):
        poisson_extend_fractional(DK, 0.5, 400.0, g, np.array([0.3, 0.0]))


def test_principal_value_refuses_nan_field_values():
    # 1 - |y|^2, NaN outside |y|^2 <= 0.8: the far field's nodes meet the NaN
    profile = lambda p: np.where(squared_norm(p) <= 0.8, 1.0 - squared_norm(p), math.nan)
    field = SampledInteriorField(DK, profile, TAG_DEGENERATE)
    with pytest.raises(ToleranceError, match="estimate nan"):
        frac_laplacian_apply(field, 0.5, np.array([0.1, 0.0]))


@pytest.mark.parametrize("domain", [IV, DK], ids=["interval", "disk"])
def test_green_mass_refuses_a_non_finite_mass_at_once(monkeypatch, domain):
    # a mass that is NaN at every panel count is refused at the first, not
    # after the budget.  On the interval the grading 2/a = 200 puts nodes on
    # the point itself at a = 0.01; the disk rule's Jacobi panel at the
    # point has no grading to underflow, so a NaN constant poisons it
    if domain is DK:
        monkeypatch.setattr(green, "green_constant", lambda N, a: math.nan)
    with pytest.raises(ToleranceError, match=r"green_mass is not finite \(nan\) at 8 panels"):
        green_mass(domain, 0.01, _point(domain, 0.3, 0.0))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(kind=st.sampled_from(sorted(DOMAINS)), bad=_BAD,
       a=st.floats(0.25, 0.75),
       radius=st.floats(0.0, 0.6), angle=st.floats(0.0, 2.0 * math.pi),
       cut_angle=st.floats(0.0, 2.0 * math.pi), cut=st.floats(-1.0, 0.5))
def test_principal_value_refuses_non_finite_field(kind, bad, a, radius, angle, cut_angle, cut):
    # the Getoor field, poisoned on the half-space {y . e > cut} for a unit
    # vector e, cut <= 0.5; from |x| <= 0.6 the ray nearest e leaves the
    # domain where y . e > 0.5, so its last far-field nodes meet the poison
    domain = DOMAINS[kind]
    if kind == "interval":
        e = np.array([math.copysign(1.0, math.cos(cut_angle))])
    else:
        e = _point(domain, 1.0, cut_angle)

    def profile(p):
        out = (1.0 - squared_norm(p)) ** a
        out[p @ e > cut] = bad
        return out

    field = SampledInteriorField(domain, profile, TAG_DEGENERATE)
    with pytest.raises(KernelLabError):
        frac_laplacian_apply(field, a, _point(domain, radius, angle))


@settings(max_examples=24, deadline=None, derandomize=True)
@given(kind=st.sampled_from(sorted(DOMAINS)), route=st.sampled_from(["classical", "fractional"]),
       bad=_BAD, data=st.data(),
       radius=st.floats(0.0, 0.9), angle=st.floats(0.0, 2.0 * math.pi))
def test_extensions_refuse_non_finite_data(kind, route, bad, data, radius, angle):
    domain = DOMAINS[kind]
    grid = BoundaryGrid(domain, 2 if kind == "interval" else 64)
    values = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=grid.n, max_size=grid.n))
    values[data.draw(st.integers(0, grid.n - 1))] = bad
    g = grid.field(np.array(values))
    x = _point(domain, radius, angle)
    with pytest.raises(KernelLabError):
        if route == "classical":
            poisson_extend_classical(domain, 0.0, g, x)
        else:
            poisson_extend_fractional(domain, 0.5, 0.0, g, x)


@settings(max_examples=24, deadline=None, derandomize=True)
@given(kind=st.sampled_from(sorted(DOMAINS)), routine=st.sampled_from(["gram", "hadamard", "mass"]),
       m=st.integers(2, 4), angle=st.floats(0.0, 2.0 * math.pi), data=st.data())
def test_nan_coordinates_refused(kind, routine, m, angle, data):
    # m distinct interior points, one coordinate of one of them NaN
    domain = DOMAINS[kind]
    pts = np.array([_point(domain, 0.2 * i + 0.1, angle + i) for i in range(m)]).reshape(m, -1)
    k = data.draw(st.integers(0, m - 1))
    pts[k, data.draw(st.integers(0, pts.shape[1] - 1))] = math.nan
    points = list(pts[:, 0] if kind == "interval" else pts)
    with pytest.raises(DomainError, match="nan"):
        if routine == "gram":
            gram_matrix(domain, "fractional", FracParams(0.5, 0.0), points, n_nodes=64)
        elif routine == "hadamard":
            hadamard_report(domain, 0.5, list(zip(points[:-1], points[1:])), n_nodes=64)
        else:
            green_mass(domain, 0.5, points[k])
