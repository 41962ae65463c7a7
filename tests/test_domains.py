import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kernel_lab.domains import (
    BoundaryGrid,
    disk,
    interval,
    ray_directions,
    ray_exit,
    rays,
    squared_norm,
)
from kernel_lab.errors import DomainError, GridMismatchError, ToleranceError
from kernel_lab.quadrature import (
    EvalBudget,
    QuadratureSpec,
    exit_graded_rule,
    graded_mesh,
    panel_integrate,
    panel_nodes_weights,
)


def test_domain_basics():
    dk = disk(2.0)
    assert dk.N == 2
    assert dk.distance_to_boundary(np.array([1.0, 0.0])) == pytest.approx(1.0)
    iv = interval(1.0)
    assert iv.N == 1
    assert iv.distance_to_boundary(-0.25) == pytest.approx(0.75)
    assert iv.scaled(0.5).R == 0.5
    with pytest.raises(DomainError):
        iv.require_interior(1.0)
    with pytest.raises(DomainError):
        dk.require_interior(np.array([2.0, 0.1]))
    with pytest.raises(DomainError):
        iv.require_interior(math.nan)
    with pytest.raises(DomainError):
        dk.require_interior(np.array([math.nan, 0.1]))
    with pytest.raises(DomainError):
        iv.distance_to_boundary(math.nan)
    with pytest.raises(DomainError):
        dk.distance_to_boundary(np.array([math.nan, 0.1]))
    with pytest.raises(DomainError):
        interval(-1.0)


def test_ray_exit_disk():
    dk = disk(1.0)
    x = np.array([0.5, 0.0])
    assert ray_exit(dk, x, np.array([1.0, 0.0])) == pytest.approx(0.5, rel=1e-14)
    assert ray_exit(dk, x, np.array([-1.0, 0.0])) == pytest.approx(1.5, rel=1e-14)
    t = ray_exit(dk, x, np.array([0.0, 1.0]))
    assert np.hypot(0.5, t) == pytest.approx(1.0, rel=1e-14)
    # an (n, 2) array of directions gives each direction's scalar answer
    dirs = ray_directions(12)
    np.testing.assert_allclose(np.hypot(dirs[:, 0], dirs[:, 1]), 1.0, rtol=1e-15)
    np.testing.assert_allclose(dirs[3], [0.0, 1.0], atol=1e-15)
    y = np.array([0.3, -0.45])
    exits = ray_exit(dk, y, dirs)
    assert exits.shape == (12,)
    assert exits.tolist() == [ray_exit(dk, y, e) for e in dirs]
    ends = y + exits[:, None] * dirs
    np.testing.assert_allclose(np.hypot(ends[:, 0], ends[:, 1]), 1.0, rtol=1e-14)
    # the interval is the 1-D ball: its rays -1, +1 exit at R - e x
    iv = interval(2.0)
    assert ray_exit(iv, 0.5, np.array([1.0])) == pytest.approx(1.5, rel=1e-15)
    assert ray_exit(iv, 0.5, np.array([[-1.0], [1.0]])).tolist() == [2.5, 1.5]


@pytest.mark.parametrize("domain, measure", [(interval(3.0), 2.0), (disk(3.0), 2.0 * math.pi)])
def test_rays_pair_antipodally(domain, measure):
    # the principal value's near field runs on the second half of the rays
    # only, each standing for itself and its antipode
    dirs, weight = rays(domain)
    n = len(dirs)
    assert dirs.shape == (n, domain.N) and n % 2 == 0
    np.testing.assert_allclose(dirs[n // 2:], -dirs[: n // 2], rtol=0.0, atol=1e-15)
    assert weight * n == pytest.approx(measure, rel=1e-15)


# ModelDomain.points: input, expected array shape, expected single flag
_POINTS_TABLE = {
    "interval": [
        (0.3, (1, 1), True),
        (np.float64(-0.2), (1, 1), True),
        (np.array([0.3]), (1, 1), False),
        (np.zeros(5), (5, 1), False),
        (np.zeros((5, 1)), (5, 1, 1), False),
        (np.zeros((3, 5)), (3, 5, 1), False),
    ],
    "disk": [
        (np.array([0.3, -0.1]), (1, 2), True),
        ([0.3, -0.1], (1, 2), True),
        (np.zeros((5, 2)), (5, 2), False),
        (np.zeros((3, 5, 2)), (3, 5, 2), False),
    ],
}


@pytest.mark.parametrize("domain", [interval(1.0), disk(1.0)], ids=["interval", "disk"])
def test_points_shape_table(domain):
    for p, shape, single in _POINTS_TABLE[domain.kind]:
        arr, got_single = domain.points(p)
        assert arr.shape == shape and arr.dtype == np.float64, p
        assert got_single is single, p
        # the coordinates are the input's, in its order
        assert np.array_equal(arr.reshape(-1), np.reshape(p, -1))


def test_points_disk_refuses_other_lengths():
    dk = disk(1.0)
    for p in (np.zeros(3), 0.3, np.zeros((5, 3)), np.zeros((2, 1))):
        with pytest.raises(DomainError, match="2-vectors"):
            dk.points(p)


def test_interval_nodes_are_one_column():
    grid = BoundaryGrid(interval(2.0), 2)
    assert grid.nodes.tolist() == [[-2.0], [2.0]]
    # field_from_function still hands each node to fn as a float
    seen = []
    field = grid.field_from_function(lambda node: seen.append(node) or 3.0 * node)
    assert seen == [-2.0, 2.0] and all(type(v) is float for v in seen)
    assert field.values.tolist() == [-6.0, 6.0]


def test_grid_constraints():
    with pytest.raises(DomainError):
        BoundaryGrid(interval(1.0), 3)
    with pytest.raises(DomainError):
        BoundaryGrid(disk(1.0), 6)
    with pytest.raises(DomainError):
        BoundaryGrid(disk(1.0), 33)
    grid = BoundaryGrid(disk(1.5), 16)
    assert np.sum(grid.weights) == pytest.approx(3.0 * math.pi, rel=1e-14)
    assert grid.nodes.shape == (16, 2)


def test_field_algebra_and_guards():
    grid = BoundaryGrid(disk(1.0), 16)
    other = BoundaryGrid(disk(1.0), 32)
    f = grid.constant_field(2.0)
    g = grid.field(np.cos(grid.angles))
    assert np.max(np.abs((f + g * 2.0).values - (2.0 + 2.0 * np.cos(grid.angles)))) == 0.0
    with pytest.raises(GridMismatchError):
        f + other.constant_field(1.0)
    with pytest.raises(GridMismatchError):
        grid.field(np.zeros(8))


def test_graded_mesh_shape_and_collapse():
    mesh = graded_mesh(0.0, 1.0, 16, 4.0, toward="lo")
    assert mesh[0] == 0.0 and mesh[-1] == 1.0
    assert np.all(np.diff(mesh) > 0.0)
    widths = np.diff(mesh)
    assert widths[0] < widths[-1]  # clustered toward lo
    # steep grading with many panels must not produce zero-width panels
    steep = graded_mesh(0.0, 1e-3, 512, 8.0, toward="lo")
    assert np.all(np.diff(steep) > 0.0)
    hi_mesh = graded_mesh(0.0, 1.0, 16, 4.0, toward="hi")
    assert np.diff(hi_mesh)[-1] < np.diff(hi_mesh)[0]


def _graded_mesh_loop(lo, hi, panels, exponent, toward):
    # the breakpoint-by-breakpoint collapse rule, kept as the reference
    t = (np.arange(panels + 1) / panels) ** exponent
    pts = lo + (hi - lo) * t if toward == "lo" else hi - (hi - lo) * t[::-1]
    eps = 8.0 * np.finfo(float).eps
    keep = [pts[0]]
    for p in pts[1:]:
        if p - keep[-1] >= eps * max(abs(p), abs(keep[-1])):
            keep.append(p)
    if keep[-1] != pts[-1]:
        if len(keep) == 1:
            keep.append(pts[-1])
        else:
            keep[-1] = pts[-1]
    return np.asarray(keep)


@pytest.mark.parametrize(
    "lo, hi, panels, exponent, toward, collapses",
    [
        (0.0, 1.0, 64, 2.0, "lo", False),
        (0.0, 1e-3, 512, 8.0, "lo", False),
        (0.5, 1.0, 64, 8.0, "hi", False),
        (0.5, 1.0, 256, 8.0, "hi", True),
        (1.0, 2.0, 512, 8.0, "lo", True),
        (-1.0, -0.5, 256, 8.0, "hi", True),
        (-2.0, -1.0, 512, 8.0, "hi", True),
    ],
)
def test_graded_mesh_equals_sequential_collapse(lo, hi, panels, exponent, toward, collapses):
    mesh = graded_mesh(lo, hi, panels, exponent, toward=toward)
    ref = _graded_mesh_loop(lo, hi, panels, exponent, toward)
    assert mesh.dtype == np.float64
    assert np.array_equal(mesh, ref)
    assert (len(mesh) < panels + 1) == collapses
    assert mesh[0] == lo and mesh[-1] == hi
    assert np.all(np.diff(mesh) > 0.0)


_COORDS = st.floats(allow_nan=False, width=64) | st.sampled_from(
    [1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324, -0.0, 1.3e154, -1.3e154]
)


@given(
    arrays(
        np.float64,
        st.one_of(
            st.tuples(st.integers(1, 40), st.just(1)),
            st.tuples(st.integers(1, 40), st.just(2)),
            st.tuples(st.integers(1, 4), st.integers(1, 40), st.just(2)),
        ),
        elements=_COORDS,
    )
)
def test_squared_norm_bitwise_equals_sum(p):
    with np.errstate(over="ignore"):
        got = squared_norm(p)
        ref = np.sum(p * p, axis=-1)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()


def test_panel_integrate_polynomial_exact():
    # degree-11 polynomial is exact under 12-point Gauss panels
    mesh = np.linspace(0.0, 1.0, 5)
    val = panel_integrate(lambda x: x**11, mesh, 12)
    assert val == pytest.approx(1.0 / 12.0, rel=1e-14)
    nodes, weights = panel_nodes_weights(mesh, 12)
    assert float(np.dot(weights, nodes**11)) == pytest.approx(1.0 / 12.0, rel=1e-14)


def test_panel_integrate_one_call_drops_empty_panels():
    calls = []

    def fn(x):
        calls.append(x.size)
        return np.exp(x)

    mesh = np.array([0.0, 0.3, 0.7, 1.0])
    val = panel_integrate(fn, mesh, 12)
    assert calls == [36]  # every node of the three panels, in one call
    repeated = np.array([0.0, 0.3, 0.3, 0.7, 1.0, 1.0])
    assert panel_integrate(fn, repeated, 12) == val
    assert calls == [36, 36]
    assert val == pytest.approx(math.e - 1.0, rel=1e-14)


def test_eval_budget():
    budget = EvalBudget(100, label="unit")
    budget.spend(60)
    budget.spend(40)
    with pytest.raises(ToleranceError):
        budget.spend(1)


def test_quadrature_spec_tolerance():
    spec = QuadratureSpec(rel_tol=1e-3, abs_tol=1e-6, resolution=32, budget=10)
    assert spec.tolerance_for(0.0) == 1e-6
    assert spec.tolerance_for(10.0) == pytest.approx(1e-2)


@pytest.mark.parametrize("beta", [-0.75, -0.5, 0.0, 0.25, 0.9])
def test_exit_graded_rule_endpoint_weight(beta):
    # exact for (1-s)^beta times a polynomial on the exit panel, and plain
    # Gauss-Legendre on the graded panels before it
    s, w = exit_graded_rule(16, 2.0, beta)
    assert s.size == 16 * 12 and np.all((0.0 < s) & (s < 1.0))
    assert np.all(np.diff(s) > 0.0)
    assert np.dot(w, (1.0 - s) ** beta) == pytest.approx(1.0 / (1.0 + beta), rel=1e-14)
    moment = 2.0 / ((1.0 + beta) * (2.0 + beta) * (3.0 + beta))
    assert np.dot(w, (1.0 - s) ** beta * s * s) == pytest.approx(moment, rel=1e-14)
