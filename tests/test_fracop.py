import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import IntegrationWarning, quad

from kernel_lab import debug, domains, fracop
from kernel_lab.domains import disk, interval, ray_directions, ray_exit, rays, squared_norm
from kernel_lab.errors import DomainError, ToleranceError
from kernel_lab.fracop import (
    TAG_DEGENERATE,
    TAG_SINGULAR,
    TAG_SMOOTH,
    MollifierSpec,
    SampledInteriorField,
    boundary_singular_field,
    frac_laplacian_apply,
    getoor_field,
    getoor_reference,
    mollified_green,
    residual_check,
)
from kernel_lab.green import green_classical, green_fractional, green_mass
from kernel_lab.quadrature import EvalBudget, QuadratureSpec
from kernel_lab.specfun import frac_laplacian_constant, green_constant
from reference import panel_integrate, pv_apply_four_walks

IV = interval(1.0)
DK = disk(1.0)

# (all inside, mixed, expected inside-mask of mixed, one point) per domain;
# the mixed arrays hold interior, boundary and outside points
_FIELD_POINTS = {
    "interval": (
        np.array([0.0, 0.3, -0.7, 0.99]),
        np.array([0.3, 1.0, -1.0, 1.5, -0.2, -3.0]),
        np.array([True, False, False, False, True, False]),
        0.4,
    ),
    "disk": (
        np.array([[0.0, 0.0], [0.3, -0.2], [-0.5, 0.6], [0.0, -0.99]]),
        np.array([[0.3, -0.2], [1.0, 0.0], [0.0, -1.0], [2.0, 0.0], [-0.1, 0.4], [0.8, 0.8]]),
        np.array([True, False, False, False, True, False]),
        np.array([0.4, -0.1]),
    ),
}


@pytest.mark.parametrize("domain", [IV, DK], ids=["interval", "disk"])
def test_field_call_profile_once_and_zero_extension(domain):
    # the d^(a-1) profile is infinite on the boundary and NaN outside, so
    # every zero below comes from the extension, not from the profile
    field_profile = boundary_singular_field(domain, 0.5).profile
    inner = lambda p: field_profile(p, squared_norm(p))
    calls, r2s = [], []

    def profile(p, r2):
        calls.append(p.copy())
        r2s.append(r2.copy())
        return field_profile(p, r2)

    u = SampledInteriorField(domain, profile, TAG_SINGULAR)
    inside, mixed, mask, one = _FIELD_POINTS[domain.kind]
    # the profile sees (m, N) point arrays on both domains
    col = lambda p: domain.points(p)[0]

    got = u(inside)
    assert got.shape == (len(inside),) and got.dtype == np.float64
    assert not np.shares_memory(got, inside)
    assert len(calls) == 1 and np.array_equal(calls[0], col(inside))
    assert np.array_equal(got, inner(col(inside)))
    # the profile gets the field's own |y|^2 of the points it gets
    assert len(r2s) == 1 and r2s[0].tobytes() == squared_norm(calls[0]).tobytes()

    calls.clear()
    r2s.clear()
    got = u(mixed)
    assert got.shape == (len(mixed),) and got.dtype == np.float64
    assert len(calls) == 1 and np.array_equal(calls[0], col(mixed)[mask])
    assert np.array_equal(got[mask], inner(col(mixed)[mask]))
    assert np.all(got[~mask] == 0.0)
    assert len(r2s) == 1 and r2s[0].tobytes() == squared_norm(calls[0]).tobytes()

    value = u(one)
    assert isinstance(value, float)
    assert value == float(inner(col(one))[0])


# The interval formulas and the field wrapper as they stood before one body
# served both domains: abscissae of any shape in, the same shape out.  The
# one-body code must reproduce them bit for bit.
def _interval_field_reference(profile, R, pts):
    y = np.asarray(pts, dtype=float)
    scalar = y.ndim == 0
    y = np.atleast_1d(y)
    out = np.zeros_like(y)
    inside = np.abs(y) < R
    if inside.all():
        out[...] = profile(y)
    elif inside.any():
        out[inside] = profile(y[inside])
    return float(out[0]) if scalar else out


def _interval_density_reference(moll, pts):
    y = np.asarray(pts, dtype=float)
    scalar = y.ndim == 0
    y = np.atleast_1d(y)
    r2 = ((y - moll.center) / moll.width) ** 2
    out = np.zeros_like(r2)
    on = r2 < 1.0
    out[on] = moll.normalization * np.exp(-1.0 / (1.0 - r2[on]))
    return float(out[0]) if scalar else out


def _same_bits(got, ref):
    if isinstance(ref, float):
        return isinstance(got, float) and np.float64(got).tobytes() == np.float64(ref).tobytes()
    return got.shape == ref.shape and got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


@st.composite
def _abscissae(draw, lo, hi):
    """A float, or an (m,), (m, 1) or (k, m) array of abscissae in [lo, hi]."""
    elements = st.floats(lo, hi) | st.sampled_from([lo, hi, 0.0, -0.0])
    shape = draw(st.sampled_from(["float", "m", "m1", "km"]))
    if shape == "float":
        return draw(elements)
    m = draw(st.integers(1, 9))
    dims = {"m": (m,), "m1": (m, 1), "km": (draw(st.integers(1, 4)), m)}[shape]
    return draw(arrays(np.float64, dims, elements=elements))


@settings(max_examples=150)
@given(R=st.floats(0.5, 3.0), a=st.floats(0.05, 0.95), t=_abscissae(-1.5, 1.5))
def test_interval_fields_match_deleted_branch(R, a, t):
    domain = interval(R)
    pts = t * R
    R2 = R * R
    for make, ref_profile in (
        (getoor_field, lambda y: (R2 - y * y) ** a),
        (boundary_singular_field, lambda y: (R2 - y * y) ** (a - 1.0)),
    ):
        with np.errstate(divide="ignore", invalid="ignore"):
            got = make(domain, a)(pts)
            ref = _interval_field_reference(ref_profile, R, pts)
        assert _same_bits(got, ref), make.__name__


@settings(max_examples=150)
@given(c=st.floats(-0.4, 0.4), w=st.floats(0.05, 0.5), t=_abscissae(-1.0, 1.0))
def test_interval_density_matches_deleted_branch(c, w, t):
    moll = MollifierSpec(IV, c, w)
    assert _same_bits(moll.density(t), _interval_density_reference(moll, t))


@pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("x", [0.0, 0.4])
def test_getoor_identity_interval(a, x):
    u = getoor_field(IV, a)
    ref = getoor_reference(1, a)
    got = frac_laplacian_apply(u, a, x)
    assert abs(got - ref) < 1e-3 * ref


def test_getoor_identity_disk():
    u = getoor_field(DK, 0.5)
    ref = getoor_reference(2, 0.5)
    got = frac_laplacian_apply(u, 0.5, np.array([0.3, -0.2]))
    assert abs(got - ref) < 1e-6 * ref


@given(
    a=st.floats(0.2, 0.7),
    radius=st.floats(0.0, 0.6),
    angle=st.floats(0.0, 2.0 * math.pi),
)
@settings(max_examples=10)
def test_getoor_identity_disk_property(a, radius, angle):
    x = radius * np.array([math.cos(angle), math.sin(angle)])
    ref = getoor_reference(2, a)
    got = frac_laplacian_apply(getoor_field(DK, a), a, x)
    assert abs(got - ref) < 1e-3 * ref


@given(a=st.floats(0.2, 0.7), x=st.floats(-0.6, 0.6))
@settings(max_examples=10, derandomize=True)
def test_getoor_identity_interval_property(a, x):
    ref = getoor_reference(1, a)
    got = frac_laplacian_apply(getoor_field(IV, a), a, x)
    assert abs(got - ref) < 1e-3 * ref


# Getoor values whose true error exceeded the default rel_tol 1e-3 (by
# 1.03e-3 to 1.28e-3) while the raw estimate |Q_m - Q_(m/2)| certified
# them: past a = 3/4 the near field's raw estimate is below its error
@pytest.mark.parametrize("domain, a, x", [
    (IV, 0.8, 0.6), (IV, 0.8, 0.65), (IV, 0.8, 0.7), (IV, 0.78, 0.9), (IV, 0.78, -0.9),
    (DK, 0.8, np.array([0.7, 0.0])), (DK, 0.8, np.array([0.75, 0.0])),
    (DK, 0.8, np.array([0.8, 0.0])),
])
def test_getoor_value_outside_its_tolerance_refuses(domain, a, x):
    with pytest.raises(ToleranceError):
        frac_laplacian_apply(getoor_field(domain, a), a, x)


def _interior_point(domain, clearance, frac, angle):
    # a point at fraction frac of the way from the center to the field's
    # clearance from the boundary (frac = 1 can round past it)
    r = frac * (domain.R - clearance)
    if domain.kind == "interval":
        return math.copysign(r, angle - math.pi)
    return r * np.array([math.cos(angle), math.sin(angle)])


@settings(max_examples=150)
@given(domain=st.sampled_from([IV, DK]), a=st.floats(0.05, 0.99),
       make=st.sampled_from([getoor_field, boundary_singular_field]),
       frac=st.floats(0.0, 0.99), angle=st.floats(0.0, 2.0 * math.pi))
def test_certified_value_lies_within_its_tolerance(domain, a, make, frac, angle):
    # at the default spec a principal value either refuses or lands within
    # the tolerance it certified of the closed form
    u = make(domain, a)
    x = _interior_point(domain, u.delta_min, frac, angle)
    ref = getoor_reference(domain.N, a) if make is getoor_field else 0.0
    try:
        got = frac_laplacian_apply(u, a, x)
    except ToleranceError:
        return
    assert abs(got - ref) <= fracop._DEFAULT_QUAD.tolerance_for(got)


# the C10 spec of the a-harmonic checks
C10_QUAD = QuadratureSpec(rel_tol=1e-3, abs_tol=1e-4, resolution=64, budget=10**6)


@pytest.mark.parametrize("a", [0.25, 0.5, 0.75, 0.9])
@pytest.mark.parametrize("make", [getoor_field, boundary_singular_field])
@pytest.mark.parametrize(
    "domain, x",
    [(DK, np.array([0.3, -0.2])), (DK, np.array([0.0, 0.45])), (IV, 0.3), (IV, -0.45)],
    ids=["x0", "x1", "interval-x0", "interval-x1"],
)
def test_disk_far_field_matches_per_ray_quad(a, make, domain, x):
    # far field plus exact tail, ray by ray with adaptive Gauss-Kronrod on
    # the profile written out in floats (eight rays keep the disk reference
    # cheap; the rule is the same on every ray); the interval's rays are
    # -1 and +1, each of weight 1
    u = make(domain, a)
    p = a if make is getoor_field else a - 1.0
    h0 = min(0.5 * domain.distance_to_boundary(x), 0.1 * domain.R)
    dirs, weight = rays(domain) if domain is IV else (ray_directions(8), 2.0 * math.pi / 8)
    ux = u(x)
    xs = np.reshape(x, -1).tolist()
    ref = 0.0
    for e in dirs:
        T = ray_exit(domain, x, e)

        def g(r, e=e.tolist()):
            y2 = sum((xi + r * ei) ** 2 for xi, ei in zip(xs, e))
            return (ux - (1.0 - y2) ** p) * r ** (-1.0 - 2.0 * a)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            val, _ = quad(g, h0, T, epsabs=1e-12, epsrel=1e-12, limit=200)
        ref += weight * (val + ux * T ** (-2.0 * a) / (2.0 * a))
    _, far = fracop._pv_rules(u.tag, a, 64)
    _, got = fracop._far(u, a, x, h0, dirs, weight, ux, *far)
    assert abs(got - ref) < 1e-9


# the near field's relative error at resolution 64 is about 2e-8 at
# a = 0.25, 2e-7 at a = 0.5 and 5.5e-4 at a = 0.75, where the j^2 grading
# toward h = 0 meets the h^(1-2a) singularity of the integrand
_NEAR_REL_TOL = {0.25: 1e-7, 0.5: 1e-6, 0.75: 1e-3}


@pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("make", [getoor_field, boundary_singular_field])
@pytest.mark.parametrize(
    "domain, x",
    [(DK, np.array([0.3, -0.2])), (DK, np.array([0.0, 0.45])), (IV, 0.3), (IV, -0.45)],
    ids=["x0", "x1", "interval-x0", "interval-x1"],
)
def test_near_field_matches_per_ray_quad(a, make, domain, x):
    # the near field, value / c minus the far field, against adaptive
    # Gauss-Kronrod on each antipodal pair of rays.  With c0 = R^2 - |x|^2,
    # al = 2 h x.e / c0 and be = h^2 / c0, the second difference
    # 2 u(x) - u(x + he) - u(x - he) of u = (R^2 - |y|^2)^p is
    # -2 c0^p (expm1(sig) cosh(dl) + 2 sinh(dl/2)^2) with
    # sig = (p/2) log1p(be^2 - 2 be - al^2) and
    # dl = (p/2) log1p(2 al / (1 - be - al)), free of cancellation near h = 0
    u = make(domain, a)
    p = a if make is getoor_field else a - 1.0
    h0 = min(0.5 * domain.distance_to_boundary(x), 0.1 * domain.R)
    c = frac_laplacian_constant(domain.N, a)
    spec = fracop._DEFAULT_QUAD
    value, _ = fracop._apply(u, a, x, h0, spec, EvalBudget(10**9), c)
    dirs, weight = rays(domain)
    _, far = fracop._pv_rules(u.tag, a, spec.resolution)
    near = value / c - fracop._far(u, a, x, h0, dirs, weight, u(x), *far)[1]
    xs = np.reshape(x, -1).tolist()
    c0 = domain.R**2 - sum(xi * xi for xi in xs)
    ref = 0.0
    for e in dirs[len(dirs) // 2:]:
        b = sum(xi * ei for xi, ei in zip(xs, e.tolist()))

        def g(h, b=b):
            al, be = 2.0 * b * h / c0, h * h / c0
            sig = 0.5 * p * math.log1p(be * be - 2.0 * be - al * al)
            dl = 0.5 * p * math.log1p(2.0 * al / (1.0 - be - al))
            second = math.expm1(sig) * math.cosh(dl) + 2.0 * math.sinh(0.5 * dl) ** 2
            return -2.0 * c0**p * second * h ** (-1.0 - 2.0 * a)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            val, _ = quad(g, 0.0, h0, epsabs=1e-13, epsrel=1e-13, limit=200)
        ref += weight * val
    assert abs(near - ref) < _NEAR_REL_TOL[a] * abs(ref)


def test_disk_a_harmonic_certified_at_quarter():
    # per-ray Gauss-Kronrod refused this point (estimate 1.2e-4 > 1e-4)
    x = np.array([0.5283134308537349, -0.28081405199583165])
    got = frac_laplacian_apply(boundary_singular_field(DK, 0.25), 0.25, x, C10_QUAD)
    assert abs(got) < 1e-3


@pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
@pytest.mark.parametrize(
    "domain, tag",
    [(DK, TAG_DEGENERATE), (DK, TAG_SMOOTH), (IV, TAG_DEGENERATE), (IV, TAG_SMOOTH)],
    ids=[TAG_DEGENERATE, TAG_SMOOTH, f"interval-{TAG_DEGENERATE}", f"interval-{TAG_SMOOTH}"],
)
def test_disk_mislabelled_boundary_exponent_refuses(a, domain, tag):
    # a d^(a-1) profile tagged with a milder exponent: the exit panel is
    # fitted to the wrong weight, and coarse and fine far fields disagree
    # (values 0.1 and more off); the honest tag certifies the same point
    x = np.array([0.1, 0.05]) if domain is DK else 0.1
    profile = boundary_singular_field(domain, a).profile
    honest = SampledInteriorField(domain, profile, TAG_SINGULAR)
    assert abs(frac_laplacian_apply(honest, a, x, C10_QUAD)) < 1e-3
    field = SampledInteriorField(domain, profile, tag)
    with pytest.raises(ToleranceError):
        frac_laplacian_apply(field, a, x, C10_QUAD)


def test_disk_budget_counts_every_node(monkeypatch):
    budgets = []

    class Recorded(EvalBudget):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            budgets.append(self)

    monkeypatch.setattr(fracop, "EvalBudget", Recorded)
    frac_laplacian_apply(getoor_field(DK, 0.5), 0.5, np.array([0.3, -0.2]))
    frac_laplacian_apply(getoor_field(IV, 0.5), 0.5, 0.3)
    # 12 nodes per panel, 32 + 64 panels in each of the near field (two
    # evaluations per node, at x + h e and x - h e, on half the rays) and
    # the far field (every ray): 64 rays on the disk, 2 on the interval
    assert [b.used for b in budgets] == [
        2 * 64 * 12 * (32 + 64), 2 * 2 * 12 * (32 + 64)
    ]


def _pv_outcome(u, a, x, quad):
    # the value, or a refusal's (estimate, achieved_tol), as bytes
    try:
        return np.float64(frac_laplacian_apply(u, a, x, quad)).tobytes()
    except ToleranceError as exc:
        return np.array([exc.estimate, exc.achieved_tol]).tobytes()


@settings(max_examples=120, derandomize=True, deadline=None)
@given(domain=st.sampled_from([IV, DK]), a=st.floats(0.2, 0.95),
       make=st.sampled_from([getoor_field, boundary_singular_field]),
       frac=st.floats(0.0, 0.99), angle=st.floats(0.0, 2.0 * math.pi),
       resolution=st.sampled_from([8, 16, 32, 64]))
def test_one_walk_is_bitwise_the_four_walks(domain, a, make, frac, angle, resolution):
    # the coarse and fine rules of each field in one walk along the rays
    # against one walk per rule: the same value, or the same refusal
    u = make(domain, a)
    x = _interior_point(domain, u.delta_min, frac, angle)
    quad = QuadratureSpec(rel_tol=1e-3, abs_tol=1e-6, resolution=resolution, budget=10**6)
    got = _pv_outcome(u, a, x, quad)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fracop, "_apply", pv_apply_four_walks)
        assert got == _pv_outcome(u, a, x, quad)


@pytest.mark.parametrize("domain, x", [(DK, np.array([0.3, -0.2])), (IV, 0.3)],
                         ids=["disk", "interval"])
def test_budget_below_the_total_refuses_before_the_field_is_called(domain, x):
    # 2 * rays * 12 * (32 + 64) evaluations at the default resolution
    total = 2 * len(rays(domain)[0]) * 12 * (32 + 64)
    profile = getoor_field(domain, 0.5).profile
    calls = []

    def counted(p, r2):
        calls.append(len(r2))
        return profile(p, r2)

    u = SampledInteriorField(domain, counted, TAG_DEGENERATE)
    quad = QuadratureSpec(rel_tol=1e-3, abs_tol=1e-6, resolution=64, budget=total - 1)
    with pytest.raises(ToleranceError, match="budget"):
        frac_laplacian_apply(u, 0.5, x, quad)
    assert calls == []
    quad = QuadratureSpec(rel_tol=1e-3, abs_tol=1e-6, resolution=64, budget=total)
    frac_laplacian_apply(u, 0.5, x, quad)
    # u(x) once, then every sample of the rules, the two u(x) of the far
    # walks gone
    assert calls[0] == 1 and sum(calls) == 1 + total


@pytest.mark.parametrize("domain", [IV, DK], ids=["interval", "disk"])
@pytest.mark.parametrize("profile", [
    lambda p, r2: p[..., 0],
    lambda p, r2: r2,
    lambda p, r2: 1.0 - r2,
], ids=["view-of-points", "its-r2", "new-array"])
def test_field_result_never_aliases_the_points(domain, profile):
    # writing into a field call's result leaves the caller's points as
    # they were, also when the profile hands back a view of its input
    inside = _FIELD_POINTS[domain.kind][0]
    pts = inside.copy()
    u = SampledInteriorField(domain, profile, TAG_SMOOTH)
    got = u(pts)
    assert got.flags.writeable and not np.shares_memory(got, pts)
    want = got.copy()
    got[...] = 7.0
    assert np.array_equal(pts, inside)
    assert np.array_equal(u(pts), want)


# certifies any value: the block tests compare values, not convergence
_LOOSE_QUAD = QuadratureSpec(rel_tol=1.0, abs_tol=1.0, resolution=64, budget=10**7)
# the Green mass's default demand, with the budget to meet it at a = 0.25
_MASS_QUAD = QuadratureSpec(budget=10**6)


def _polar_values(domain, a):
    """Every polar rule's value at one order: the principal value of the
    Getoor and a-harmonic fields, the Green mass, the mollifier's base mass
    and, on the disk, the mollified Green value."""
    x = np.array([0.3, -0.2]) if domain is DK else 0.3
    fracop._bump_base_mass.cache_clear()
    vals = [frac_laplacian_apply(make(domain, a), a, x, _LOOSE_QUAD)
            for make in (getoor_field, boundary_singular_field)]
    vals += [green_mass(domain, a, x, _MASS_QUAD), fracop._bump_base_mass(domain.kind)]
    if domain is DK:
        moll = MollifierSpec(DK, np.array([0.1, 0.0]), 0.2)
        vals.append(mollified_green(DK, a, moll, _LOOSE_QUAD)(np.array([-0.3, 0.2])))
    fracop._bump_base_mass.cache_clear()
    return vals


@pytest.mark.parametrize("block", ["default", "one pair"])
@pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("domain", [IV, DK], ids=["interval", "disk"])
def test_ray_blocks_match_one_block(monkeypatch, domain, a, block):
    # with one block of every ray, each rule runs the whole-array arithmetic
    # of an unblocked evaluation; blocks only split its row dot products
    if block == "one pair":
        monkeypatch.setattr(domains, "_RAY_BLOCK_ELEMENTS", 1)
    got = _polar_values(domain, a)
    monkeypatch.setattr(domains, "_RAY_BLOCK_ELEMENTS", 1 << 30)
    one = _polar_values(domain, a)
    if domain is IV:
        # two rays: one block at any cap, so bitwise unchanged
        assert got == one
    else:
        # values of order 1, or an a-harmonic value near 0 on that scale
        assert got == pytest.approx(one, rel=1e-14, abs=1e-14)


def test_getoor_a09_exceeds_quadrature_grading():
    # at a = 0.9 the distance-squared grading leaves an edge error decaying
    # like m^(-0.4); the operator must refuse rather than return it quietly
    u = getoor_field(IV, 0.9)
    with pytest.raises(ToleranceError) as exc:
        frac_laplacian_apply(u, 0.9, 0.0)
    assert exc.value.estimate == pytest.approx(getoor_reference(1, 0.9), rel=0.2)


@pytest.mark.parametrize("a", [0.9, 0.95])
@pytest.mark.parametrize(
    "domain, x", [(IV, 0.3), (DK, np.array([0.3, -0.2]))], ids=["interval", "disk"]
)
def test_getoor_near_one_refuses_at_lowest_resolution(a, domain, x):
    # at resolution 4 the half-resolution rule was the full rule itself, so
    # values 9.2 % (a = 0.9) and 31 % (a = 0.95) off certified with an
    # estimate of 0; such a spec is now refused, and the lowest resolution
    # left refuses these values
    with pytest.raises(DomainError):
        QuadratureSpec(rel_tol=1e-3, abs_tol=1e-6, resolution=4, budget=10**6)
    quad = QuadratureSpec(rel_tol=1e-3, abs_tol=1e-6, resolution=8, budget=10**6)
    with pytest.raises(ToleranceError) as exc:
        frac_laplacian_apply(getoor_field(domain, a), a, x, quad)
    assert exc.value.achieved_tol > 0.01


def test_a_harmonic_profile():
    v = boundary_singular_field(IV, 0.5)
    quad = QuadratureSpec(rel_tol=1e-3, abs_tol=1e-4, resolution=64, budget=10**6)
    got = frac_laplacian_apply(v, 0.5, 0.2, quad)
    assert abs(got) < 1e-3


def test_linearity_via_superposition():
    # (-Delta)^a (u + 2v) = ref + 0 when u is the Getoor profile and v is
    # the a-harmonic one
    a = 0.5
    R2 = IV.R**2
    combo = SampledInteriorField(
        IV,
        lambda p, r2: (R2 - p[..., 0] ** 2) ** a + 2.0 * (R2 - p[..., 0] ** 2) ** (a - 1.0),
        "boundary-singular",
    )
    quad = QuadratureSpec(rel_tol=1e-3, abs_tol=1e-3, resolution=64, budget=10**6)
    got = frac_laplacian_apply(combo, a, 0.1, quad)
    assert abs(got - getoor_reference(1, a)) < 5e-3


@pytest.mark.parametrize("a", [0.6, 0.75])
def test_near_field_refinement_converges(a):
    u = getoor_field(IV, a)
    ref = getoor_reference(1, a)
    errs = []
    for res in (8, 16, 32):
        quad = QuadratureSpec(rel_tol=0.5, abs_tol=0.5, resolution=res, budget=10**6)
        errs.append(abs(frac_laplacian_apply(u, a, 0.0, quad) - ref))
    assert errs[0] > errs[1] > errs[2]
    assert errs[0] / errs[2] > 2.5


def test_apply_budget_exhaustion():
    u = getoor_field(IV, 0.5)
    quad = QuadratureSpec(rel_tol=1e-3, abs_tol=1e-6, resolution=64, budget=100)
    with pytest.raises(ToleranceError):
        frac_laplacian_apply(u, 0.5, 0.0, quad)


def test_evaluable_margin_guards():
    v = boundary_singular_field(IV, 0.5)
    with pytest.raises(DomainError):
        v.require_evaluable(0.99)  # singular tag keeps a 0.2 R margin
    u = getoor_field(IV, 0.5)
    assert u.require_evaluable(0.9) == pytest.approx(0.1, abs=1e-15)
    with pytest.raises(DomainError):
        u.require_evaluable(math.nan)
    with pytest.raises(DomainError):
        getoor_field(DK, 0.5).require_evaluable(np.array([math.nan, 0.0]))


@pytest.mark.parametrize("domain", [IV, DK], ids=["interval", "disk"])
def test_mollifier_unit_mass(domain):
    if domain.kind == "interval":
        moll = MollifierSpec(domain, 0.1, 0.35)
        mass = panel_integrate(
            moll.density, np.linspace(0.1 - 0.35, 0.1 + 0.35, 65), 12
        )
    else:
        c = np.array([0.2, -0.1])
        moll = MollifierSpec(domain, c, 0.3)

        def ring(r):
            out = np.zeros_like(r)
            for k, rk in enumerate(r):
                ang = 2.0 * math.pi * np.arange(256) / 256.0
                pts = c[None, :] + rk * np.stack([np.cos(ang), np.sin(ang)], axis=1)
                out[k] = rk * np.mean(moll.density(pts)) * 2.0 * math.pi
            return out

        mass = panel_integrate(ring, np.linspace(0.0, 0.3, 33), 12)
    assert mass == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("domain", [IV, DK], ids=["interval", "disk"])
def test_bump_base_mass_matches_mpmath(domain):
    # the mass of exp(-1/(1-r^2)) on the unit ball, which normalizes every
    # mollifier: on the interval by 30-digit quadrature, on the disk
    # pi E_2(1), from the substitution t = 1 - r^2
    import mpmath

    with mpmath.workdps(30):
        if domain.N == 1:
            ref = mpmath.quad(lambda r: mpmath.exp(-1 / (1 - r * r)), [-1, 0, 1])
        else:
            ref = mpmath.pi * mpmath.expint(2, 1)
    assert fracop._bump_base_mass(domain.kind) == pytest.approx(float(ref), rel=1e-15)


def _mollified_value(domain, a, moll, z, quad=fracop._DEFAULT_QUAD):
    # v_{x,eps}(z) by direct quadrature at one point: the interval build's
    # batched evaluator on z alone, or the disk field, which evaluates the
    # convolution on demand
    if domain.kind == "interval":
        return float(fracop._moll_values_interval(domain, a, moll, [z], quad)[0])
    return mollified_green(domain, a, moll, quad)(z)


def test_mollifier_validation():
    with pytest.raises(DomainError):
        MollifierSpec(IV, 0.8, 0.3)  # support pokes through the boundary
    with pytest.raises(DomainError):
        MollifierSpec(IV, 0.0, -0.1)
    with pytest.raises(DomainError):
        MollifierSpec(DK, np.array([1.2, 0.0]), 0.1)


@pytest.mark.parametrize("domain", [IV, DK], ids=["interval", "disk"])
def test_mollified_value_shrinks_to_green(domain):
    a = 0.5
    if domain.kind == "interval":
        c, z = 0.1, -0.5
    else:
        c, z = np.array([0.1, 0.0]), np.array([-0.5, 0.2])
    exact = green_fractional(domain, a, z, c)
    errs = []
    for w in (0.4, 0.2, 0.1):
        moll = MollifierSpec(domain, c, w)
        errs.append(abs(_mollified_value(domain, a, moll, z) - exact))
    # smooth Green function away from the bump: O(eps^2) averaging error
    assert errs[0] > errs[1] > errs[2]
    assert errs[0] / errs[1] > 2.5 and errs[1] / errs[2] > 2.5


def test_disk_mollified_green_refuses_inside_the_support():
    # the polar rule around the center does not converge when z sits inside
    # the support: at a = 0.25, center 0, width 0.4 and z = (0.3, 0) it read
    # 2.10, 6.59 and 12.58 at resolutions 64, 1,024 and 4,096
    moll = MollifierSpec(DK, np.zeros(2), 0.4)
    field = mollified_green(DK, 0.25, moll)
    with pytest.raises(DomainError, match=r"z = \(0\.3, 0\.0\) lies inside"):
        field(np.array([0.3, 0.0]))
    # a call names its first point inside the support
    zs = np.array([[0.5, 0.0], [0.1, 0.05], [0.3, 0.0]])
    with pytest.raises(DomainError, match=r"z = \(0\.1, 0\.05\) lies inside"):
        field(zs)


@pytest.mark.parametrize("a, center, width, z, quad", [
    # test_ray_blocks_match_one_block
    *[(a, (0.1, 0.0), 0.2, (-0.3, 0.2), _LOOSE_QUAD) for a in (0.25, 0.5, 0.75)],
    # test_mollified_value_shrinks_to_green
    *[(0.5, (0.1, 0.0), w, (-0.5, 0.2), fracop._DEFAULT_QUAD) for w in (0.4, 0.2, 0.1)],
    # test_corrupt_kappa_reaches_whole_mollified_field
    (0.5, (0.2, -0.1), 0.3, (-0.5, 0.2), fracop._DEFAULT_QUAD),
])
def test_disk_mollified_green_outside_the_support_is_unguarded(a, center, width, z, quad):
    # the support check only refuses: outside the support the field is
    # bitwise the per-point polar rule, alone and in an array of points
    moll = MollifierSpec(DK, np.array(center), width)
    z = np.array(z)
    direct = fracop._moll_value_disk(DK, a, moll, z, quad)
    field = mollified_green(DK, a, moll, quad)
    assert field(z) == direct
    np.testing.assert_array_equal(field(np.stack([z, z])), [direct, direct])


@pytest.fixture(scope="module")
def interval_mollified():
    moll = MollifierSpec(IV, 0.0, 0.4)
    return moll, mollified_green(IV, 0.5, moll)


def test_mollified_green_spline_matches_direct(interval_mollified):
    moll, field = interval_mollified
    for z in (-0.63, 0.11, 0.4):
        direct = _mollified_value(IV, 0.5, moll, z)
        assert abs(field(z) - direct) < 1e-6 * max(1.0, abs(direct))


@pytest.mark.parametrize("data", ["smooth", "mollified quotient"])
def test_not_a_knot_spline_matches_scipy(interval_mollified, data):
    # the build's nodes and quotient v/(R^2 - z^2)^a; the queries cover
    # [-R, R], so they include the end pieces the profile extrapolates
    from scipy.interpolate import CubicSpline

    moll, field = interval_mollified
    zs = field.grid
    if data == "smooth":
        y = np.exp(zs) * np.sin(3.0 * zs) / (1.0 + zs * zs)
    else:
        vals = fracop._moll_values_interval(IV, 0.5, moll, zs, fracop._DEFAULT_QUAD)
        y = vals / (1.0 - zs * zs) ** 0.5
    z = np.concatenate([np.linspace(-1.0, 1.0, 4001), zs, [(zs[0] - 1.0) / 2, (zs[-1] + 1.0) / 2]])
    got = fracop._not_a_knot_spline(zs, y)(z)
    np.testing.assert_allclose(got, CubicSpline(zs, y)(z), rtol=0.0, atol=1e-14)


@given(
    a=st.floats(0.2, 0.8),
    center=st.floats(-0.6, 0.6),
    frac=st.floats(0.05, 0.95),
    offset=st.integers(0, 6),
)
@settings(max_examples=8)
def test_batched_build_matches_pointwise(a, center, frac, offset):
    # the build evaluates all nodes in row blocks; each node alone must give
    # the same value (every 7th node keeps the check cheap and still spans
    # every block and both sides of the support)
    moll = MollifierSpec(IV, center, frac * (1.0 - abs(center)))
    field = mollified_green(IV, a, moll)
    zs = field.grid[offset::7]
    pointwise = np.array([_mollified_value(IV, a, moll, z) for z in zs])
    np.testing.assert_allclose(field(zs), pointwise, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("center", [0.0, 0.1])
def test_mollified_green_refusal_names_first_node(interval_mollified, center):
    # off center, v is not even in z, so the first node's figures differ
    # from the last node's
    moll = MollifierSpec(IV, center, 0.4)
    first_node = interval_mollified[1].grid[0]
    quad = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300, resolution=8)
    with pytest.raises(ToleranceError) as batched:
        mollified_green(IV, 0.5, moll, quad)
    with pytest.raises(ToleranceError) as first:
        _mollified_value(IV, 0.5, moll, first_node, quad)
    est, tol = batched.value.estimate, batched.value.achieved_tol
    assert est == pytest.approx(first.value.estimate, rel=1e-12)
    assert tol == pytest.approx(first.value.achieved_tol, rel=1e-3)
    if center == 0.0:
        assert est == pytest.approx(1.979e-3, rel=1e-3)
        assert tol == pytest.approx(4.59e-9, rel=1e-2)


def test_mollified_green_refuses_underflowing_distance():
    # at a = 0.01 the 2/a grading puts the first node so close to z that
    # its squared distance underflows to 0: refuse rather than return NaN,
    # as the rule's failure, since z is the build's own node
    moll = MollifierSpec(IV, 0.0, 0.4)
    with pytest.raises(ToleranceError):
        _mollified_value(IV, 0.01, moll, 0.1)


def test_corrupt_kappa_reaches_whole_mollified_field(interval_mollified):
    moll, clean = interval_mollified
    disk_moll = MollifierSpec(DK, np.array([0.2, -0.1]), 0.3)
    z = np.array([-0.5, 0.2])
    disk_clean = _mollified_value(DK, 0.5, disk_moll, z)
    with debug.corrupted_green_constant():
        bad = mollified_green(IV, 0.5, moll)
        disk_bad = _mollified_value(DK, 0.5, disk_moll, z)
    np.testing.assert_allclose(
        bad(clean.grid), 1.02 * clean(clean.grid), rtol=1e-13, atol=0.0
    )
    assert disk_bad == pytest.approx(1.02 * disk_clean, rel=1e-13)


def test_residual_check_report(interval_mollified):
    moll, _ = interval_mollified
    rep = residual_check(IV, 0.5, moll, [0.0, 0.2, 0.55], tolerance=1e-2)
    assert rep.overall_pass
    # three residuals, then Getoor at 0 and +-0.4 and the a-harmonic point
    assert len(rep.records) == 7
    # x = 0.55 sits outside the bump support, so the target there is zero
    assert rep.records[2].reference == 0.0
    assert [r.reference for r in rep.records[3:6]] == [getoor_reference(1, 0.5)] * 3


def test_disk_mollified_weighted_trace():
    # v = int G(., y) rho(y) dy has weighted trace int psi_y(z) rho(y) dy;
    # extrapolate v((1-d) z)/d^a in d with exponents {1, 3/2}
    a = 0.5
    c = np.array([0.2, -0.1])
    moll = MollifierSpec(DK, c, 0.3)
    theta = 0.7
    zhat = np.array([math.cos(theta), math.sin(theta)])

    kappa = green_constant(2, a)

    def trace_integrand(r):
        out = np.zeros_like(r)
        for k, rk in enumerate(r):
            ang = 2.0 * math.pi * np.arange(128) / 128.0
            pts = c[None, :] + rk * np.stack([np.cos(ang), np.sin(ang)], axis=1)
            front = (kappa / a) * 2.0**a * (1.0 - np.sum(pts * pts, axis=1)) ** a
            d2 = np.sum((pts - zhat[None, :]) ** 2, axis=1)
            out[k] = rk * np.mean(front / d2 * moll.density(pts)) * 2.0 * math.pi
        return out

    target = panel_integrate(trace_integrand, np.linspace(0.0, 0.3, 17), 12)

    ds = np.array([0.1, 0.05, 0.025])
    vals = np.array(
        [_mollified_value(DK, a, moll, (1.0 - d) * zhat) / d**a for d in ds]
    )
    A = np.stack([np.ones(3), ds, ds**1.5], axis=1)
    fit = np.linalg.solve(A, vals)
    assert abs(fit[0] - target) < 1e-3 * max(1.0, abs(target))


def test_mollified_value_bounds():
    # sanity bracket: averaging a unit-mass bump around 0 cannot exceed the
    # maximum of G(z, .) over the support by much at z far away
    moll = MollifierSpec(IV, 0.0, 0.2)
    val = _mollified_value(IV, 0.5, moll, 0.6)
    assert 0.0 < val < green_fractional(IV, 0.5, 0.6, 0.0) * 1.5


def _chebyshev_values(a, center, width):
    # the interval build's values at its Chebyshev nodes, under the
    # residual command's spec (its tolerance only decides refusals)
    k = np.arange(1, fracop._CHEBYSHEV_N)
    zs = np.sort(np.cos(np.pi * k / fracop._CHEBYSHEV_N))
    quad = QuadratureSpec(rel_tol=1e-3, abs_tol=1e-3, resolution=64, budget=10**6)
    return fracop._moll_values_interval(IV, a, MollifierSpec(IV, center, width), zs, quad)


@pytest.mark.parametrize("block", [4, 64, 511])
def test_z_blocks_match_default_block_at_residual_default(monkeypatch, block):
    # rows in blocks of a multiple of 4, or of a whole group at once, keep
    # OpenBLAS's row sums on one path: bitwise the default build's values
    default = _chebyshev_values(0.5, 0.0, 0.4)
    monkeypatch.setattr(fracop, "_Z_BLOCK", block)
    assert _chebyshev_values(0.5, 0.0, 0.4).tobytes() == default.tobytes()


@given(a=st.floats(0.3, 0.9), center=st.floats(-0.5, 0.5), frac=st.floats(0.1, 0.9))
@settings(max_examples=5)
def test_z_blocks_agree_on_any_mollifier(a, center, frac):
    # a row may fall into another BLAS tail path, so agreement is to
    # rounding, not bitwise
    width = frac * (1.0 - abs(center))
    default = _chebyshev_values(a, center, width)
    for block in (4, 511):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fracop, "_Z_BLOCK", block)
            got = _chebyshev_values(a, center, width)
        np.testing.assert_allclose(got, default, rtol=1e-14, atol=0.0)
