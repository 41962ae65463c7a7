import inspect
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kernel_lab.domains import (
    _RAY_BLOCK_ELEMENTS,
    N_ANGLES,
    BoundaryGrid,
    disk,
    interval,
    ray_directions,
    ray_exit,
    ray_nodes,
    rays,
    squared_norm,
)
from kernel_lab.errors import DomainError, GridMismatchError, ToleranceError
from kernel_lab.green import _mass_rule
from kernel_lab.quadrature import (
    _RULE_CACHE_SIZE,
    EvalBudget,
    QuadratureSpec,
    _exit_rule,
    _gj_nodes,
    _gl_nodes,
    _graded_rule,
    exit_graded_rule,
    graded_mesh,
    origin_graded_rule,
    panel_nodes_weights,
)
from reference import panel_integrate


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
    # e.x by column sums is bitwise the reduction np.sum(e * x, axis=-1)
    rng = np.random.default_rng(3)
    for domain in (dk, disk(2.5), iv):
        dirs = np.concatenate([rays(domain)[0], ray_directions(12)[:, : domain.N],
                               rng.standard_normal((40, domain.N))])
        dirs /= np.sqrt(squared_norm(dirs))[:, None]
        for x in rng.uniform(-0.6, 0.6, (20, domain.N)) * domain.R:
            b = np.sum(dirs * x, axis=-1)
            ref = -b + np.sqrt(b * b - (float(x @ x) - domain.R**2))
            assert ray_exit(domain, x, dirs).tobytes() == ref.tobytes()
            assert [ray_exit(domain, x, e) for e in dirs] == ref.tolist()


@pytest.mark.parametrize("domain, measure", [(interval(3.0), 2.0), (disk(3.0), 2.0 * math.pi)])
def test_rays_pair_antipodally(domain, measure):
    # the principal value's near field pairs ray j with ray j + n/2, its
    # antipode
    dirs, weight = rays(domain)
    n = len(dirs)
    assert dirs.shape == (n, domain.N) and n % 2 == 0
    np.testing.assert_allclose(dirs[n // 2:], -dirs[: n // 2], rtol=0.0, atol=1e-15)
    assert weight * n == pytest.approx(measure, rel=1e-15)


@given(
    kind=st.sampled_from(["interval", "disk"]),
    R=st.sampled_from([1.0, 2.5]),
    rho=st.floats(0.0, 0.7),
    angle=st.floats(0.0, 2.0 * math.pi),
    start_frac=st.floats(0.0, 0.45),
    stop_frac=st.floats(0.5, 1.0),
)
def test_ray_nodes_map_a_unit_rule_onto_every_ray(kind, R, rho, angle, start_frac, stop_frac):
    domain = interval(R) if kind == "interval" else disk(R)
    if kind == "interval":
        x = R * rho * math.cos(angle)
    else:
        x = R * rho * np.array([math.cos(angle), math.sin(angle)])
    d = domain.distance_to_boundary(x)
    start, h = start_frac * d, stop_frac * d
    dirs, weight = rays(domain)
    s, w = panel_nodes_weights(np.linspace(0.0, 1.0, 5))
    N = domain.N

    def ball(radius):
        return 2.0 * radius if N == 1 else math.pi * radius**2

    def polar_measure(lo, blocks):
        # the callers' reduction: rows filled block by block, then one dot
        rows = np.full(len(dirs), np.nan)
        for idx, r, pts, lengths in blocks:
            # the broadcast formulas, bit for bit
            assert r.tobytes() == (lo + lengths[idx, None] * s[None, :]).tobytes()
            ref = np.reshape(x, -1) + r[..., None] * dirs[idx, None, :]
            assert pts.shape == ref.shape == (len(idx), s.size, N)
            assert pts.tobytes() == ref.tobytes()
            rows[idx] = r ** (N - 1) @ w
        return lengths, weight * float(lengths @ rows)

    for lo in (0.0, start):
        lengths, measure = polar_measure(lo, ray_nodes(domain, x, dirs, s, start=lo))
        assert lengths.tobytes() == (ray_exit(domain, x, dirs) - lo).tobytes()
        # the polar rule integrates 1 over the domain minus the ball of
        # radius lo around x
        assert measure == pytest.approx(ball(R) - ball(lo), rel=1e-13)
        lengths, measure = polar_measure(lo, ray_nodes(domain, x, dirs, s, start=lo, stop=h))
        assert lengths.tolist() == [h - lo] * len(dirs)
        assert measure == pytest.approx(ball(h) - ball(lo), rel=1e-13)


@pytest.mark.parametrize("domain", [interval(1.0), disk(1.0)], ids=["interval", "disk"])
@pytest.mark.parametrize("m", [1, 12, 192, 384, 768, 1536, 3072, 12_288])
def test_ray_blocks_cover_every_ray_once_in_antipodal_pairs(domain, m):
    dirs, _ = rays(domain)
    n, half = len(dirs), len(dirs) // 2
    x = np.full(domain.N, 0.1)
    s = np.linspace(0.0, 1.0, m)
    lengths = ray_exit(domain, x, dirs)
    blocks = list(ray_nodes(domain, x, dirs, s))
    seen = np.concatenate([idx for idx, *_ in blocks])
    assert sorted(seen.tolist()) == list(range(n))
    for idx, r, pts, block_lengths in blocks:
        b = len(idx) // 2
        assert len(idx) == 2 * b and b >= 1
        # rays j.. then their antipodes j + n/2.., so vals[b:] + vals[:b]
        # pairs every ray with its antipode inside the block
        assert idx[b:].tolist() == (idx[:b] + half).tolist()
        np.testing.assert_allclose(dirs[idx[b:]], -dirs[idx[:b]], rtol=0.0, atol=1e-15)
        assert r.tobytes() == (lengths[idx, None] * s[None, :]).tobytes()
        assert pts.shape == (2 * b, m, domain.N)
        assert block_lengths.tobytes() == lengths.tobytes()
        # within the sample cap, unless a single pair of rays exceeds it
        assert r.size <= max(_RAY_BLOCK_ELEMENTS, 2 * m)
    if domain.kind == "interval":
        assert len(blocks) == 1 and blocks[0][0].tolist() == [0, 1]
    elif 2 * m <= _RAY_BLOCK_ELEMENTS:
        # as few blocks as the cap allows, within a factor of two
        assert len(blocks) < 2 * n * m / _RAY_BLOCK_ELEMENTS + 1


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
    # field_from_function hands fn the column of abscissae
    field = grid.field_from_function(lambda node: 3.0 * node)
    assert field.values.tolist() == [-6.0, 6.0]


@pytest.mark.parametrize("grid", [BoundaryGrid(interval(2.0), 2), BoundaryGrid(disk(1.5), 16)],
                         ids=["interval", "disk"])
def test_field_from_function_samples_in_one_call(grid):
    seen = []
    field = grid.field_from_function(lambda args: seen.append(args) or args)
    # one call, on the (n,) node angles or interval abscissae
    assert len(seen) == 1 and seen[0].shape == (grid.n,)
    ref = grid.angles if grid.domain.kind == "disk" else grid.nodes[:, 0]
    assert np.array_equal(field.values, ref)
    # the field owns its samples: an identity fn does not alias the nodes
    assert not np.shares_memory(field.values, grid.nodes)
    field.values[0] = 7.0
    assert grid.nodes[0, 0] != 7.0
    # a result that is not one value per node is refused, a scalar too
    for bad in (lambda args: 1.0, lambda args: args[:-1], lambda args: np.zeros(grid.n + 2)):
        with pytest.raises(GridMismatchError):
            grid.field_from_function(bad)


@pytest.mark.parametrize("domain,n", [(interval(2.0), 2), (disk(1.5), 16), (disk(0.5), 4096)],
                         ids=["interval", "disk-16", "disk-4096"])
def test_grid_nodes_are_built_once_and_read_only(domain, n):
    grid = BoundaryGrid(domain, n)
    nodes = grid.nodes
    assert grid.nodes is nodes
    with pytest.raises(ValueError):
        nodes[0, 0] = 0.0
    if domain.kind == "interval":
        expected = np.array([[-domain.R], [domain.R]])
    else:
        expected = domain.R * ray_directions(n)
    assert nodes.tobytes() == expected.tobytes() and nodes.shape == expected.shape
    # the cache is not a field: grids still compare and hash by (domain, n)
    fresh = BoundaryGrid(domain, n)
    assert fresh == grid and hash(fresh) == hash(grid)
    assert "nodes" not in vars(fresh) and "nodes" in vars(grid)


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
    # a stack holds whole fields on the grid, one per row
    assert grid.field(np.zeros((3, 16))).values.shape == (3, 16)
    for shape in ((3, 8), (2, 3, 16), ()):
        with pytest.raises(GridMismatchError):
            grid.field(np.zeros(shape))


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


@pytest.mark.parametrize("resolution", [*range(8), 16.0, "32", None])
def test_quadrature_spec_refuses_resolution_below_8(resolution):
    # the convergence estimates compare the resolution // 2 rule with the
    # full one; at 4 the two coincided and certified an estimate of 0
    with pytest.raises(DomainError, match="integer >= 8"):
        QuadratureSpec(resolution=resolution)
    assert QuadratureSpec(resolution=8).resolution == 8
    assert QuadratureSpec(resolution=np.int64(64)).resolution == 64


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


@pytest.mark.parametrize("panels", [4, 16])
@pytest.mark.parametrize("beta", [-0.98, -0.5, 0.0, 0.8])
def test_origin_graded_rule_endpoint_weight(beta, panels):
    # s^beta times every monomial of degree < 24: the Gauss-Jacobi panel at
    # s = 0 is exact to rounding, and the graded Gauss-Legendre panels after
    # it meet s^beta as a smooth function, 1.3e-13 relative at worst
    # (beta = -0.98, where the first of them holds the mass s^beta puts
    # just past the Jacobi panel)
    s, w = origin_graded_rule(panels, 2.0, beta)
    assert s.size == panels * 12 and np.all((0.0 < s) & (s < 1.0))
    assert np.all(np.diff(s) > 0.0)
    k = np.arange(24)
    moments = (s[None, :] ** (beta + k[:, None])) @ w
    np.testing.assert_allclose(moments, 1.0 / (beta + k + 1.0), rtol=5e-13, atol=0.0)
    first = s < panels**-2.0
    assert first.sum() == 12
    exact = panels ** (-2.0 * (beta + k + 1.0)) / (beta + k + 1.0)
    np.testing.assert_allclose((s[first] ** (beta + k[:, None])) @ w[first], exact,
                               rtol=5e-14, atol=0.0)


def _fresh_mass_rule(kind, panels, a):
    # green's mass rule, built from the public rules with no memo
    if kind == "interval":
        return panel_nodes_weights(np.concatenate([
            graded_mesh(0.0, 0.5, panels, 2.0 / a, toward="lo"),
            graded_mesh(0.5, 1.0, panels, 2.0 / a, toward="hi"),
        ]))
    s0, w0 = origin_graded_rule(panels, 2.0, 2.0 * a - 1.0)
    s1, w1 = exit_graded_rule(panels, 2.0, a)
    return np.concatenate([0.5 * s0, 0.5 + 0.5 * s1]), 0.5 * np.concatenate([w0, w1])


_MEMOS = (_gl_nodes, _gj_nodes, _graded_rule, _exit_rule, _mass_rule)


def test_memoized_rules_equal_fresh_builds_bitwise_and_are_read_only():
    memo_and_fresh = [
        ((_gl_nodes, (order,)), np.polynomial.legendre.leggauss(order)) for order in (12, 24)
    ]
    for beta in (-0.75, 0.0, 0.4):
        memo_and_fresh.append(((_gj_nodes, (12, beta)), inspect.unwrap(_gj_nodes)(12, beta)))
    for panels in (4, 16, 32, 64):
        for exponent in (2.0, 2.0 / 0.3, 8.0):
            memo_and_fresh.append((
                (_graded_rule, (panels, exponent)),
                panel_nodes_weights(graded_mesh(0.0, 1.0, panels, exponent, toward="lo"))))
            for beta in (-0.75, 0.0, 0.4):
                memo_and_fresh.append(((_exit_rule, (panels, exponent, beta)),
                                       exit_graded_rule(panels, exponent, beta)))
        for kind in ("interval", "disk"):
            for a in (0.1, 0.25, 0.75, 0.9):
                memo_and_fresh.append(((_mass_rule, (kind, panels, a)),
                                       _fresh_mass_rule(kind, panels, a)))
    for (memo, args), fresh in memo_and_fresh:
        rule = memo(*args)
        # built once: a second request returns the same arrays
        assert memo(*args) is rule
        assert [arr.tobytes() for arr in rule] == [arr.tobytes() for arr in fresh], args
        for arr in rule:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
    for domain in (interval(2.0), disk(2.0)):
        dirs, weight = rays(domain)
        assert rays(domain)[0] is dirs
        with pytest.raises(ValueError, match="read-only"):
            dirs[0] = 0.0
    assert rays(disk())[0].tobytes() == ray_directions(N_ANGLES).tobytes()


def test_rule_memos_are_bounded():
    # a property test over random a requests a new rule per draw; each
    # memo keeps at most _RULE_CACHE_SIZE of them
    for memo in _MEMOS:
        assert memo.cache_info().maxsize == _RULE_CACHE_SIZE
    for i in range(_RULE_CACHE_SIZE + 8):
        _exit_rule(4, 2.0, 0.01 * i)
    assert _exit_rule.cache_info().currsize == _RULE_CACHE_SIZE


# Jacobi exponents of the Gauss-Jacobi exactness and reference tests
_GJ_BETAS = np.linspace(-0.95, 0.9, 38)


@pytest.mark.parametrize("order", [12, 24])
def test_gauss_jacobi_moments_exact(order):
    # sum w (1-x)^k = int (1-x)^(beta+k) dx on [-1, 1] for every k < 2 order
    k = np.arange(2 * order)
    for beta in _GJ_BETAS:
        x, w = _gj_nodes(order, float(beta))
        got = ((1.0 - x)[None, :] ** k[:, None]) @ w
        exact = 2.0 ** (beta + k + 1.0) / (beta + k + 1.0)
        np.testing.assert_allclose(got, exact, rtol=1e-13, atol=0.0, err_msg=f"beta={beta}")


def test_gauss_jacobi_refuses_non_integrable_weight():
    # at beta = -1 the recurrence divides by zero; below it mu0 has no meaning
    for beta in (-1.0, -1.5, float("nan")):
        with pytest.raises(DomainError, match="beta > -1"):
            _gj_nodes(12, beta)


@pytest.mark.parametrize("order", [12, 24])
def test_gauss_jacobi_matches_scipy(order):
    from scipy.special import roots_jacobi

    for beta in _GJ_BETAS:
        x, w = _gj_nodes(order, float(beta))
        x_ref, w_ref = roots_jacobi(order, beta, 0.0)
        np.testing.assert_allclose(x, x_ref, rtol=0.0, atol=1e-14, err_msg=f"beta={beta}")
        np.testing.assert_allclose(w, w_ref, rtol=1e-11, atol=0.0, err_msg=f"beta={beta}")
