import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse import lil_matrix
from scipy.sparse.linalg import spsolve

from kernel_lab import green
from kernel_lab.domains import BoundaryGrid, disk, interval
from kernel_lab.errors import DomainError, SingularityError, ToleranceError
from kernel_lab.green import (
    fractional_trace_green,
    green_classical,
    green_fractional,
    green_mass,
    poisson_kernel_classical,
    torsion_reference,
)
from kernel_lab.quadrature import EvalBudget, QuadratureSpec
from kernel_lab.specfun import green_constant
from reference import boundary_integral_B

IV = interval(1.0)
DK = disk(1.0)


def test_interval_green_against_tridiagonal_solve():
    # the 1D discrete Green function is exact at the nodes: G is piecewise
    # linear in y and the three-point stencil integrates that exactly
    n = 199
    h = 2.0 / (n + 1)
    nodes = -1.0 + h * np.arange(1, n + 1)
    main = np.full(n, 2.0 / h**2)
    off = np.full(n - 1, -1.0 / h**2)
    A = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
    j = 60
    rhs = np.zeros(n)
    rhs[j] = 1.0 / h
    col = np.linalg.solve(A, rhs)
    # the implementation refuses x == y, so skip the source node itself
    others = [i for i in range(n) if i != j]
    exact = np.array([green_classical(IV, nodes[i], nodes[j]) for i in others])
    assert np.max(np.abs(col[others] - exact)) < 1e-12


def test_disk_green_center_log():
    for r in (0.2, 0.5, 0.8):
        got = green_classical(DK, np.array([r, 0.0]), np.array([0.0, 0.0]))
        assert got == pytest.approx(-math.log(r) / (2.0 * math.pi), rel=1e-14)


def test_disk_green_against_five_point_solve():
    nn = 61  # grid includes the origin; h = 1/30
    h = 2.0 / (nn - 1)
    xs = -1.0 + h * np.arange(nn)
    idx = -np.ones((nn, nn), dtype=int)
    pts = []
    for i in range(nn):
        for j in range(nn):
            if xs[i] ** 2 + xs[j] ** 2 < (1.0 - 1e-12) ** 2:
                idx[i, j] = len(pts)
                pts.append((i, j))
    m = len(pts)
    A = lil_matrix((m, m))
    for k, (i, j) in enumerate(pts):
        A[k, k] = 4.0 / h**2
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            kk = idx[i + di, j + dj]
            if kk >= 0:
                A[k, kk] = -1.0 / h**2
    rhs = np.zeros(m)
    center = idx[nn // 2, nn // 2]
    rhs[center] = 1.0 / h**2
    sol = spsolve(A.tocsr(), rhs)
    worst = 0.0
    for k, (i, j) in enumerate(pts):
        r = math.hypot(xs[i], xs[j])
        if 0.3 < r < 0.7:  # away from the log singularity and the boundary
            exact = -math.log(r) / (2.0 * math.pi)
            worst = max(worst, abs(sol[k] - exact))
    assert worst < 5e-3


@pytest.mark.parametrize("domain", [IV, DK], ids=["interval", "disk"])
def test_green_symmetry_positivity(domain):
    rng = np.random.default_rng(11)
    for _ in range(200):
        if domain.kind == "interval":
            x, y = rng.uniform(-0.97, 0.97, size=2)
        else:
            r = 0.97 * np.sqrt(rng.uniform(size=2))
            th = rng.uniform(0.0, 2.0 * math.pi, size=2)
            x = r[0] * np.array([math.cos(th[0]), math.sin(th[0])])
            y = r[1] * np.array([math.cos(th[1]), math.sin(th[1])])
        g1 = green_classical(domain, x, y)
        g2 = green_classical(domain, y, x)
        assert abs(g1 - g2) <= 1e-14 * max(1.0, abs(g1))
        assert g1 > 0.0
        gf1 = green_fractional(domain, 0.7, x, y)
        gf2 = green_fractional(domain, 0.7, y, x)
        assert abs(gf1 - gf2) <= 1e-12 * max(1.0, abs(gf1))
        assert gf1 > 0.0


def test_green_vanishes_toward_boundary():
    assert green_classical(IV, 0.2, 1.0 - 1e-12) < 1e-11
    assert green_fractional(IV, 0.5, 0.2, 1.0 - 1e-12) < 1e-5  # only d^a decay


@pytest.mark.parametrize("domain", [IV, DK], ids=["interval", "disk"])
@pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
def test_fractional_green_hypergeometric_oracle(domain, a):
    # green_fractional evaluates B through its hypergeometric form; recompute
    # kappa |x-y|^{2a-N} B(r0) with the independent scalar-quad B instead.
    # This also crosses the closed-form asinh/atan branches at a = 1/2
    rng = np.random.default_rng(5)
    N = domain.N
    for _ in range(50):
        if N == 1:
            x, y = rng.uniform(-0.95, 0.95, size=2)
            dist2 = (x - y) ** 2
            fx, fy = 1.0 - x * x, 1.0 - y * y
        else:
            r = 0.95 * np.sqrt(rng.uniform(size=2))
            th = rng.uniform(0.0, 2.0 * math.pi, size=2)
            x = r[0] * np.array([math.cos(th[0]), math.sin(th[0])])
            y = r[1] * np.array([math.cos(th[1]), math.sin(th[1])])
            dist2 = float(np.sum((x - y) ** 2))
            fx, fy = 1.0 - float(x @ x), 1.0 - float(y @ y)
        if dist2 < 1e-8:
            continue
        r0 = fx * fy / dist2
        oracle = green_constant(N, a) * dist2 ** (a - N / 2.0) * boundary_integral_B(r0, a, N)
        got = green_fractional(domain, a, x, y)
        assert abs(got - oracle) <= 1e-11 * abs(oracle)


def test_fractional_green_zero_outside():
    assert green_fractional(IV, 0.5, 0.3, 1.5) == 0.0
    assert green_fractional(DK, 0.5, np.array([0.3, 0.0]), np.array([1.1, 0.9])) == 0.0


def test_fractional_green_singularity_guard():
    with pytest.raises(SingularityError):
        green_fractional(IV, 0.5, 0.3, 0.3)
    with pytest.raises(SingularityError):
        green_fractional(DK, 0.5, np.array([0.1, 0.2]), np.array([0.1, 0.2]))


@pytest.mark.parametrize("domain", [IV, DK], ids=["interval", "disk"])
def test_green_array_matches_pointwise(domain):
    # the last two points lie on and outside the boundary, where G_a is 0
    t = np.append(np.linspace(-0.9, 0.9, 41), [1.0, 1.3])
    if domain.kind == "interval":
        x, ys = 0.17, t
    else:
        x, ys = np.array([0.17, -0.05]), np.column_stack([t, 0.3 * t])
    got = green_fractional(domain, 0.6, x, ys)
    singles = np.array([green_fractional(domain, 0.6, x, y) for y in ys])
    assert isinstance(singles[0], float)
    np.testing.assert_allclose(got, singles, rtol=1e-15, atol=0.0)
    assert np.all(got[:-2] > 0.0) and np.all(got[-2:] == 0.0)


@pytest.mark.parametrize("domain", [IV, DK], ids=["interval", "disk"])
def test_fractional_green_refuses_nan(domain):
    inside = 0.2 if domain.kind == "interval" else np.array([0.2, 0.1])
    nan = math.nan if domain.kind == "interval" else np.array([math.nan, 0.1])
    for x, y in ((nan, inside), (inside, nan), (inside, np.stack([inside, nan]))):
        with pytest.raises(DomainError):
            green_fractional(domain, 0.5, x, y)


def _draw_point(data, domain, radius):
    if domain.kind == "interval":
        return data.draw(st.floats(-radius, radius))
    r = data.draw(st.floats(0.0, radius))
    th = data.draw(st.floats(0.0, 2.0 * math.pi))
    return r * np.array([math.cos(th), math.sin(th)])


@pytest.mark.parametrize("domain", [IV, DK], ids=["interval", "disk"])
@given(data=st.data(), a=st.floats(0.05, 0.95), scale=st.floats(0.25, 4.0))
def test_fractional_green_symmetry_and_scaling(domain, data, a, scale):
    # symmetry, and G_R(x, y) = R^(2a-N) G_1(x/R, y/R)
    x = _draw_point(data, domain, 0.95)
    y = _draw_point(data, domain, 0.95)
    assume(np.max(np.abs(np.asarray(x) - np.asarray(y))) > 1e-3)
    g1 = green_fractional(domain, a, x, y)
    assert green_fractional(domain, a, y, x) == pytest.approx(g1, rel=1e-12)
    big = domain.scaled(scale)
    gR = green_fractional(big, a, scale * np.asarray(x), scale * np.asarray(y))
    assert gR == pytest.approx(scale ** (2.0 * a - domain.N) * g1, rel=1e-12)


def test_green_mass_matches_torsion():
    got = green_mass(IV, 0.5, 0.3)
    ref = torsion_reference(IV, 0.5, 0.3)
    assert abs(got - ref) < 1e-6 * ref
    got = green_mass(DK, 0.5, np.array([0.2, 0.1]))
    ref = torsion_reference(DK, 0.5, np.array([0.2, 0.1]))
    assert abs(got - ref) < 1e-8 * ref


@pytest.mark.parametrize("a", [0.01, 0.05, 0.1, 0.25, 0.75, 0.9, 0.99])
def test_disk_green_mass_converges_at_two_levels(monkeypatch, a):
    # Gauss-Jacobi panels carry s^(2a-1) at the point and (1-s)^a at the
    # boundary, so levels m = 8 and 16 agree at every a: 64 rays * 12 nodes
    # * 2m per level, 36,864 evaluations in all
    budgets = []

    class CountingBudget(EvalBudget):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            budgets.append(self)

    monkeypatch.setattr(green, "EvalBudget", CountingBudget)
    x = np.array([0.3, -0.2])
    got = green_mass(DK, a, x)
    assert got == pytest.approx(torsion_reference(DK, a, x), rel=1e-8)
    assert [b.used for b in budgets] == [36_864]


@settings(max_examples=40)
@given(domain=st.sampled_from([IV, DK]), a=st.floats(0.05, 0.99),
       frac=st.floats(0.0, 0.95), angle=st.floats(0.0, 2.0 * math.pi))
def test_certified_mass_lies_within_its_tolerance(domain, a, frac, angle):
    # at the default spec the Green mass either refuses or lands within
    # the tolerance it certified of the torsion function
    if domain.kind == "interval":
        x = math.copysign(frac, angle - math.pi)
    else:
        x = frac * np.array([math.cos(angle), math.sin(angle)])
    try:
        got = green_mass(domain, a, x)
    except ToleranceError:
        return
    assert abs(got - torsion_reference(domain, a, x)) <= QuadratureSpec().tolerance_for(got)


def test_green_mass_budget_exhaustion():
    quad = QuadratureSpec(rel_tol=1e-14, abs_tol=1e-16, resolution=64, budget=1000)
    with pytest.raises(ToleranceError) as exc:
        green_mass(IV, 0.5, 0.0, quad=quad)
    assert exc.value.estimate is not None
    assert abs(exc.value.estimate - torsion_reference(IV, 0.5, 0.0)) < 0.05


@pytest.mark.parametrize("a", [0.01, 0.02, 0.03])
def test_interval_mass_at_small_order_refuses_without_warning(a):
    # the 2/a-graded rule's first nodes lie so close to x that r * r
    # underflows and G_a overflows there: the mass is not finite, and the
    # refusal says so with no RuntimeWarning on the way
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ToleranceError, match="not finite"):
            green_mass(IV, a, 0.3)
    assert [str(w.message) for w in caught] == []


def test_disk_mass_budget_refusal_level():
    # at a = 0.25 level m = 8 spends 64 rays * 12 nodes * 2m = 12,288
    # evaluations; level 16 needs 24,576 more than a 20,000 budget allows,
    # so the refusal carries the m = 8 value.  The default budget lets the
    # rule converge at m = 16
    x = np.array([0.2, 0.1])
    ref = torsion_reference(DK, 0.25, x)
    with pytest.raises(ToleranceError) as exc:
        green_mass(DK, 0.25, x, QuadratureSpec(budget=20_000))
    level_8 = green._mass(DK, 0.25, x, 8, EvalBudget(10**9))
    assert exc.value.estimate == level_8
    assert level_8 == pytest.approx(ref, rel=1e-7)
    assert green_mass(DK, 0.25, x) == pytest.approx(ref, rel=1e-8)


def test_poisson_kernel_normalization():
    grid = BoundaryGrid(DK, 64)
    P = poisson_kernel_classical(grid, np.array([0.3, -0.4]))
    assert np.all(P.values > 0.0)
    assert float(np.dot(grid.weights, P.values)) == pytest.approx(1.0, abs=1e-13)
    giv = BoundaryGrid(IV, 2)
    Piv = poisson_kernel_classical(giv, 0.5)
    assert float(np.sum(Piv.values * giv.weights)) == pytest.approx(1.0, abs=1e-15)
    # interval kernel is the harmonic (affine) interpolation weight
    assert Piv.values[1] == pytest.approx(0.75, abs=1e-15)


def test_fractional_trace_closed_form():
    grid = BoundaryGrid(DK, 32)
    a = 0.6
    x = np.array([0.25, 0.35])
    psi = fractional_trace_green(grid, a, x)
    kappa = green_constant(2, a)
    front = (kappa / a) * (2.0 / DK.R) ** a * (DK.R**2 - float(x @ x)) ** a
    d2 = np.sum((grid.nodes - x[None, :]) ** 2, axis=1)
    assert np.max(np.abs(psi.values - front / d2)) < 1e-14 * np.max(psi.values)
    with pytest.raises(DomainError):
        fractional_trace_green(grid, 1.0, x)


@given(R=st.floats(0.5, 3.0), a=st.floats(0.05, 0.95), t=st.floats(-0.999, 0.999))
def test_interval_trace_matches_deleted_branch(R, a, t):
    # the interval's own formula front / |z - x| at z = -R, R, bit for bit
    x = t * R
    front = green_constant(1, a) / a * (2.0 / R) ** a * (R * R - abs(x) ** 2) ** a
    ref = front / np.abs(np.array([-R, R]) - x)
    got = fractional_trace_green(BoundaryGrid(interval(R), 2), a, x).values
    assert got.tobytes() == ref.tobytes()


def test_green_fractional_keeps_abscissa_shape():
    ys = np.array([[0.1, -0.4, 0.95], [1.2, 0.0, -0.7]])
    flat = green_fractional(IV, 0.4, 0.3, ys.reshape(-1))
    for pts in (ys, ys[:, :, None]):
        got = green_fractional(IV, 0.4, 0.3, pts)
        assert got.shape == pts.shape and got.tobytes() == flat.tobytes()
    with pytest.raises(DomainError):
        green_fractional(DK, 0.4, np.zeros(2), np.zeros(3))


def test_interior_point_guards():
    with pytest.raises(DomainError):
        green_classical(IV, 1.2, 0.0)
    with pytest.raises(DomainError):
        green_mass(DK, 0.5, np.array([1.0, 0.0]))


@pytest.mark.parametrize("domain,n", [(IV, 2), (DK, 64), (disk(1.7), 4096)],
                         ids=["interval", "disk-64", "disk-4096"])
@pytest.mark.parametrize("a", [0.3, 0.5, 0.85])
def test_trace_stack_matches_broadcast_expression(domain, n, a):
    # |z - x|^2 summed one coordinate at a time, then powered and divided
    # in place: bitwise the (points, nodes, N) broadcast it replaces
    grid = BoundaryGrid(domain, n)
    rng = np.random.default_rng(5)
    R, N = domain.R, domain.N
    radius = R * rng.uniform(0.0, 0.999, 6)
    angle = rng.uniform(0.0, 2.0 * math.pi, 6)
    if N == 1:
        pts = radius * np.sign(np.cos(angle))
    else:
        pts = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
    c = green_constant(N, a) / a * (2.0 / R) ** a
    front = np.array([c * (R * R - domain.norm(p) ** 2) ** a for p in pts])
    diff = grid.nodes - np.reshape(pts, (-1, 1, N))
    ref = front[:, None] / np.sum(diff * diff, axis=-1) ** (N / 2)
    assert fractional_trace_green(grid, a, pts).values.tobytes() == ref.tobytes()
