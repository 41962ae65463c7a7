import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_lab.boundary as boundary
from kernel_lab.boundary import (
    apply_M_power,
    boundary_integrate,
    from_spectrum,
    laplace_beltrami_eigenvalues,
    sobolev_inner,
    to_spectrum,
)
from kernel_lab.domains import BoundaryGrid, disk, interval
from kernel_lab.errors import DomainError, GridMismatchError


def _random_field(grid, seed):
    rng = np.random.default_rng(seed)
    return grid.field(rng.standard_normal(grid.n))


@pytest.fixture
def circle():
    return BoundaryGrid(disk(1.0), 64)


@pytest.fixture
def circle_r2():
    return BoundaryGrid(disk(2.0), 64)


def test_round_trip(circle):
    f = _random_field(circle, 3)
    back = from_spectrum(to_spectrum(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-13


def test_integrate_measures():
    assert boundary_integrate(BoundaryGrid(disk(2.0), 32).constant_field(1.0)) == pytest.approx(
        4.0 * math.pi, rel=1e-14
    )
    # interval boundary is two points with unit counting weights
    assert boundary_integrate(BoundaryGrid(interval(1.0), 2).constant_field(1.0)) == 2.0


def test_eigenvalues_layout(circle_r2):
    lam = laplace_beltrami_eigenvalues(circle_r2)
    assert lam[0] == 0.0
    # mode k has eigenvalue (k/R)^2
    assert lam[1] == pytest.approx(0.25, rel=1e-14)
    assert np.min(lam) == 0.0


def test_single_mode_multiplier(circle):
    f = circle.field(np.cos(3.0 * circle.angles))
    cond = 1.0 + (circle.n // 2) ** 2  # largest multiplier base on the grid
    for t in (-1.5, -0.5, 0.5, 2.0):
        g = apply_M_power(f, t)
        # spectral noise floor of the input gets scaled by the top multiplier
        assert np.max(np.abs(g.values - 10.0**t * f.values)) < 1e-13 * cond ** max(t, 0.0)


def test_cosine_norm_closed_form(circle_r2):
    # <cos k theta, cos k theta>_s = pi R (1 + (k/R)^2)^s on radius R
    R = 2.0
    for k, s in ((1, 0.0), (2, 0.7), (5, -1.3)):
        f = circle_r2.field(np.cos(k * circle_r2.angles))
        expect = math.pi * R * (1.0 + (k / R) ** 2) ** s
        assert sobolev_inner(f, f, s) == pytest.approx(expect, rel=1e-12)


def test_parseval_s0(circle):
    f = _random_field(circle, 4)
    g = _random_field(circle, 5)
    direct = boundary_integrate(f.pointwise_product(g))
    assert sobolev_inner(f, g, 0.0) == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("t", [-1.5, -0.5, 0.5, 2.0])
def test_multiplier_self_adjoint(circle, t):
    f = _random_field(circle, 6)
    g = _random_field(circle, 7)
    lhs = sobolev_inner(apply_M_power(f, t), g, 0.0)
    rhs = sobolev_inner(f, apply_M_power(g, t), 0.0)
    scale = max(abs(lhs), 1.0)
    assert abs(lhs - rhs) < 1e-12 * scale


def test_norm_positive_and_monotone(circle):
    f = _random_field(circle, 8)
    n_m1 = sobolev_inner(f, f, -1.0)
    n_0 = sobolev_inner(f, f, 0.0)
    n_15 = sobolev_inner(f, f, 1.5)
    assert 0.0 < n_m1 <= n_0 * (1.0 + 1e-14)
    assert n_0 <= n_15 * (1.0 + 1e-14)


@pytest.mark.parametrize("s", [0.7, 2.0, -1.3])
def test_multiplier_cancellation(circle, s):
    # <g, M^{-s} h>_s = <g, h>_0; the dual-route consistency checks in the
    # extension code all reduce to this identity
    g = _random_field(circle, 9)
    h = _random_field(circle, 10)
    lhs = sobolev_inner(g, apply_M_power(h, -s), s)
    rhs = sobolev_inner(g, h, 0.0)
    # fft round-trip noise gets amplified by the largest multiplier
    cond = (1.0 + (circle.n // 2) ** 2) ** abs(s)
    assert abs(lhs - rhs) < 1e-13 * cond * max(1.0, abs(rhs))


@settings(max_examples=40)
@given(R=st.floats(1.0, 2.0), t=st.floats(-2.0, 2.0),
       g=st.lists(st.floats(-1.0, 1.0), min_size=64, max_size=64),
       h=st.lists(st.floats(-1.0, 1.0), min_size=64, max_size=64))
def test_multiplier_cancellation_random(R, t, g, h):
    # the identity above for random fields, radii and orders, under the
    # same condition-scaled bound (k/R <= k on radii R >= 1)
    grid = BoundaryGrid(disk(R), 64)
    g, h = grid.field(g), grid.field(h)
    lhs = sobolev_inner(g, apply_M_power(h, -t), t)
    rhs = sobolev_inner(g, h, 0.0)
    cond = (1.0 + (grid.n // 2) ** 2) ** abs(t)
    assert abs(lhs - rhs) < 1e-13 * cond * max(1.0, abs(rhs))


def test_interval_identity_multiplier():
    grid = BoundaryGrid(interval(1.0), 2)
    f = grid.field([2.0, -3.0])
    g = apply_M_power(f, 1.7)
    assert np.array_equal(g.values, f.values)
    assert sobolev_inner(f, f, 2.0) == sobolev_inner(f, f, 0.0) == 13.0


def test_M_power_refuses_an_overflowing_multiplier(circle):
    # (1 + k^2)^200 passes the largest double from k = 6 on, silently in
    # the multipliers; M^-200 only underflows, which is finite
    f = _random_field(circle, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"M\^t at t=200 has a non-finite multiplier at mode k=6$"):
            apply_M_power(f, 200.0)
        assert np.isfinite(apply_M_power(f, -200.0).values).all()


_FINITE = st.floats(-1e150, 1e150) | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300])


@given(f=st.tuples(_FINITE, _FINITE), g=st.tuples(_FINITE, _FINITE), t=st.floats(-3.0, 3.0))
def test_interval_generic_path_matches_deleted_branch(f, g, t):
    # the interval multipliers are (1 + 0)^t = 1: M^t returns a copy of the
    # values, and the order-t pairing is f(-R) g(-R) + f(R) g(R)
    grid = BoundaryGrid(interval(1.3), 2)
    ff, gg = grid.field(f), grid.field(g)
    out = apply_M_power(ff, t)
    assert out.values.tobytes() == ff.values.copy().tobytes()
    assert not np.shares_memory(out.values, ff.values)
    got = sobolev_inner(ff, gg, t)
    p0, p1 = f[0] * g[0], f[1] * g[1]
    # bit for bit up to the sign of a zero sum (+ 0.0 maps -0.0 to 0.0)
    assert np.float64(got + 0.0).tobytes() == np.float64(p0 + p1 + 0.0).tobytes()
    # np.dot, the deleted branch, may fuse the second product into an FMA
    # (OpenBLAS does for length 2), so it agrees to one rounding of a product
    assert abs(got - float(np.dot(ff.values, gg.values))) <= 2.0**-52 * (abs(p0) + abs(p1))


def test_grid_mismatch_guard(circle):
    other = BoundaryGrid(disk(1.0), 32)
    with pytest.raises(GridMismatchError):
        sobolev_inner(_random_field(circle, 11), _random_field(other, 12), 0.0)


def test_resample_band_limited(circle):
    f = circle.field(np.cos(5.0 * circle.angles) + 0.3 * np.sin(2.0 * circle.angles))
    up = f.resample(256)
    fine = BoundaryGrid(disk(1.0), 256)
    expect = np.cos(5.0 * fine.angles) + 0.3 * np.sin(2.0 * fine.angles)
    assert np.max(np.abs(up.values - expect)) < 1e-12


# Full-spectrum references: numpy's complex FFT over all n modes, with the
# multipliers in fftfreq order (k = 0 .. n/2, -n/2+1 .. -1).  The calculus
# keeps the half spectrum k = 0 .. n/2 of the real fields instead.
def _full_multipliers(grid, t):
    k = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    return (1.0 + (k / grid.domain.R) ** 2) ** t


def _full_coefficients(grid, values):
    return math.sqrt(2.0 * math.pi * grid.domain.R) / grid.n * np.fft.fft(values)


def _full_resample(values, n_new):
    n = values.size
    spec = np.fft.fft(values)
    out = np.zeros(n_new, dtype=complex)
    half = n // 2
    out[:half] = spec[:half]
    out[half] = out[n_new - half] = 0.5 * spec[half]
    out[n_new - half + 1:] = spec[half + 1:]
    return np.fft.ifft(out).real * (n_new / n)


@st.composite
def _circle_stack(draw, min_rows=1, max_rows=1):
    # circle sizes with and without odd factors, so n/2 is odd at 10 and
    # 18; every row carries Nyquist-mode content (-1)^j on top of its noise
    n = draw(st.sampled_from([8, 10, 18, 64, 256]))
    grid = BoundaryGrid(disk(draw(st.floats(0.5, 2.0))), n)
    rows = []
    for _ in range(draw(st.integers(min_rows, max_rows))):
        noise = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
        nyquist = draw(st.floats(0.25, 2.0)) * (-1.0) ** np.arange(n)
        rows.append(np.array(noise) + nyquist)
    return grid, np.array(rows)


# Both routes round differently, and the multipliers scale that roundoff
# by up to their largest value (1 + (n/2R)^2)^|t|, so each error is
# measured relative to the operator's bound: max multiplier times the
# input norms.
@settings(max_examples=60)
@given(case=_circle_stack(min_rows=2, max_rows=2), s=st.floats(-2.0, 2.0))
def test_half_spectrum_inner_matches_full_fft(case, s):
    grid, (f, g) = case
    mult = _full_multipliers(grid, s)
    F, G = _full_coefficients(grid, f), _full_coefficients(grid, g)
    ref = float(np.sum(mult * F * np.conj(G)).real)
    got = sobolev_inner(grid.field(f), grid.field(g), s)
    bound = np.max(mult) * np.linalg.norm(F) * np.linalg.norm(G)
    assert abs(got - ref) <= 1e-13 * bound


@settings(max_examples=60)
@given(case=_circle_stack(max_rows=4), t=st.floats(-2.0, 2.0))
def test_half_spectrum_M_power_matches_full_fft(case, t):
    grid, stack = case
    mult = _full_multipliers(grid, t)
    out = apply_M_power(grid.field(stack), t).values
    assert out.shape == stack.shape
    for row, values in zip(out, stack):
        # a stack transforms each row exactly as the single-field call
        assert row.tobytes() == apply_M_power(grid.field(values), t).values.tobytes()
        ref = np.fft.ifft(mult * np.fft.fft(values)).real
        assert np.max(np.abs(row - ref)) <= 1e-13 * np.max(mult) * np.max(np.abs(values))


@settings(max_examples=60)
@given(case=_circle_stack(max_rows=4), data=st.data())
def test_half_spectrum_resample_matches_full_fft(case, data):
    grid, stack = case
    n_new = grid.n + 2 * data.draw(st.integers(1, grid.n))
    out = grid.field(stack).resample(n_new)
    assert out.grid == BoundaryGrid(grid.domain, n_new)
    for row, values in zip(out.values, stack):
        assert row.tobytes() == grid.field(values).resample(n_new).values.tobytes()
        ref = _full_resample(values, n_new)
        assert np.max(np.abs(row - ref)) <= 1e-13 * np.max(np.abs(values))


@pytest.mark.parametrize("m", [1, 3, 8])
@pytest.mark.parametrize("domain,n", [(interval(1.5), 2), (disk(0.7), 64), (disk(1.0), 4096),
                                      (disk(1.0), 65536)],
                         ids=["interval", "disk-64", "disk-4096", "disk-65536"])
def test_pairings_of_a_stack_match_each_row(domain, n, m):
    # one value per row, each bitwise equal to the single-field call, with
    # the stack on either side of sobolev_inner
    grid = BoundaryGrid(domain, n)
    rng = np.random.default_rng(m * n)
    f = grid.field(rng.standard_normal(n))
    stack = grid.field(rng.standard_normal((m, n)))
    integrals = boundary_integrate(stack)
    assert integrals.shape == (m,)
    for s in (0.0, 0.75):
        assert sobolev_inner(f, stack, s).shape == (m,)
        for k, row in enumerate(stack.values):
            one = grid.field(row)
            assert sobolev_inner(f, stack, s)[k].tobytes() == np.float64(
                sobolev_inner(f, one, s)).tobytes()
            assert sobolev_inner(stack, f, s)[k].tobytes() == np.float64(
                sobolev_inner(one, f, s)).tobytes()
    for k, row in enumerate(stack.values):
        assert integrals[k].tobytes() == np.float64(boundary_integrate(grid.field(row))).tobytes()
    # a single field still pairs to a float
    assert type(boundary_integrate(f)) is float
    assert type(sobolev_inner(f, f, 0.5)) is float


# doubles an in-place rewrite must carry as the out-of-place expression
# did: signed zeros, subnormals, the largest finite values and ordinary ones
_SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
                     1e300, -1e300, 1.7976931348623157e308, 1.0, -0.75, 3.0e-7])


def _same_bits(got, ref):
    # bitwise equal, except that a NaN may carry either sign: x86 keeps the
    # sign of the first NaN operand, so it follows operand order; no report
    # or CSV writes it, and a NaN refuses in every route guard
    got, ref = np.asarray(got).view(float), np.asarray(ref).view(float)
    nan = np.isnan(ref)
    return np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == ref[~nan].tobytes()


@pytest.mark.parametrize("n", [16, 256, 8192])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_in_place_scaling_matches_old_expressions(monkeypatch, n, seed):
    # the transforms scale, and the multipliers act, in the new spectrum's
    # buffer; every result is bitwise the out-of-place expression's.  Any
    # multiplier set, special values too, reaches apply_M_power through
    # its _multipliers
    rng = np.random.default_rng(seed)
    grid = BoundaryGrid(disk(1.5), n)
    values = np.where(rng.random((4, n)) < 0.5, rng.choice(_SPECIAL, size=(4, n)),
                      rng.standard_normal((4, n)))
    half = n // 2 + 1
    mults = [boundary._multipliers(grid, t) for t in (-1.25, 0.0, 0.5)]
    mults.append(rng.choice(_SPECIAL, size=half))
    forward = math.sqrt(2.0 * math.pi * grid.domain.R) / n
    inverse = n / math.sqrt(2.0 * math.pi * grid.domain.R)
    with np.errstate(all="ignore"):
        spectrum = to_spectrum(grid.field(values)).coefficients
        assert _same_bits(spectrum, forward * np.fft.rfft(values))
        back = from_spectrum(boundary.Spectrum(grid, spectrum.copy())).values
        assert _same_bits(back, inverse * np.fft.irfft(spectrum, n=n))
        for mult in mults:
            monkeypatch.setattr(boundary, "_multipliers", lambda grid, t: mult)
            got = apply_M_power(grid.field(values), 0.0).values
            ref = inverse * np.fft.irfft(mult * (forward * np.fft.rfft(values)), n=n)
            assert _same_bits(got, ref)
        two = BoundaryGrid(interval(1.0), 2)
        for mult in (np.array([0.5, 3.0]), _SPECIAL[[1, 4]], _SPECIAL[[8, 2]]):
            monkeypatch.setattr(boundary, "_multipliers", lambda grid, t: mult)
            got = apply_M_power(two.field(values[:, :2]), 0.0).values
            assert _same_bits(got, (mult * values[:, :2].astype(complex)).real)
