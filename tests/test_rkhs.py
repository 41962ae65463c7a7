import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_lab.boundary as boundary
import kernel_lab.rkhs as rkhs
from kernel_lab.boundary import apply_M_power, boundary_integrate, dual_pairing, sobolev_inner
from kernel_lab.domains import BoundaryGrid, boundary_grid, disk, interval
from kernel_lab.errors import ConsistencyError, DomainError, GridMismatchError, ToleranceError
from kernel_lab.rkhs import (
    gram_matrix,
    kernel_classical,
    kernel_classical_spectral_oracle,
    kernel_fractional,
    kernel_report,
    limit_consistency,
    poisson_extend_classical,
    poisson_extend_fractional,
    reproduce_report,
    reproducing_residual,
)
from kernel_lab.green import boundary_representer, fractional_trace_green
from kernel_lab.report import check
from kernel_lab.specfun import FracParams, green_constant

IV = interval(1.0)
DK = disk(1.0)


def _circle_pt(r, th):
    return r * np.array([math.cos(th), math.sin(th)])


def test_classical_extension_constant_and_mode():
    grid = BoundaryGrid(DK, 128)
    ones = grid.constant_field(1.0)
    assert poisson_extend_classical(DK, 0.0, ones, _circle_pt(0.3, 1.1)) == pytest.approx(
        1.0, abs=1e-13
    )
    # the harmonic extension of cos(theta) is x_1
    g = grid.field(np.cos(grid.angles))
    assert poisson_extend_classical(DK, 0.7, g, np.array([0.5, 0.0])) == pytest.approx(
        0.5, abs=1e-13
    )
    assert poisson_extend_classical(DK, 0.7, g, np.array([0.0, 0.25])) == pytest.approx(
        0.0, abs=1e-13
    )


@pytest.mark.parametrize("domain", [IV, DK], ids=["interval", "disk"])
@pytest.mark.parametrize("a", [0.3, 0.5, 0.8])
def test_fractional_extension_constant_data(domain, a):
    # data 2^(a-1) extends to (R^2-|x|^2)^(a-1) on the unit-radius domain
    grid = BoundaryGrid(domain, 2 if domain.kind == "interval" else 128)
    phi = grid.constant_field(2.0 ** (a - 1.0))
    for xr in (0.0, 0.3, -0.6):
        x = xr if domain.kind == "interval" else _circle_pt(abs(xr), 0.4)
        u = poisson_extend_fractional(domain, a, 0.0, phi, x)
        r2 = xr * xr
        assert u == pytest.approx((1.0 - r2) ** (a - 1.0), rel=1e-12)


def test_route_guard_trips(monkeypatch):
    grid = BoundaryGrid(DK, 64)
    g = grid.field(np.cos(grid.angles))
    monkeypatch.setattr(rkhs, "_multiplier_route", lambda front, side, rep: 123.0)
    with pytest.raises(ConsistencyError):
        poisson_extend_classical(DK, 0.0, g, np.array([0.2, 0.1]))


def test_field_domain_guard():
    grid = BoundaryGrid(IV, 2)
    phi = grid.constant_field(1.0)
    with pytest.raises(GridMismatchError):
        poisson_extend_fractional(DK, 0.5, 0.0, phi, np.array([0.1, 0.0]))


def test_kernel_anchor_interval():
    assert kernel_fractional(IV, 0.5, 0.0, 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_kernel_anchor_disk_center():
    # s = 0 kernel at the center is the boundary measure inverse 1/(2 pi R)
    assert kernel_classical(DK, 0.0, np.zeros(2), np.zeros(2)) == pytest.approx(
        1.0 / (2.0 * math.pi), abs=1e-14
    )


def test_kernel_symmetry():
    x, y = _circle_pt(0.5, 0.3), _circle_pt(0.2, 2.1)
    assert kernel_classical(DK, 0.6, x, y) == pytest.approx(
        kernel_classical(DK, 0.6, y, x), rel=1e-14
    )
    assert kernel_fractional(DK, 0.7, 0.3, x, y) == pytest.approx(
        kernel_fractional(DK, 0.7, 0.3, y, x), rel=1e-14
    )


@pytest.mark.parametrize("s", [-1.0, 0.0, 1.0])
def test_classical_kernel_matches_spectral_oracle(s):
    pts = [_circle_pt(0.3, 0.0), _circle_pt(0.6, math.pi / 3.0), np.zeros(2)]
    for i in range(len(pts)):
        for j in range(i, len(pts)):
            grid_route = kernel_classical(DK, s, pts[i], pts[j], n_nodes=256)
            oracle = kernel_classical_spectral_oracle(DK, s, pts[i], pts[j])
            assert abs(grid_route - oracle) < 1e-10 * max(1.0, abs(oracle))


# an oracle value as a perturbation leaves it: NaN fails, and so does an
# infinite reference, where inf <= inf would have passed a relative check
_SLIPS = {
    "nan": lambda v: math.nan,
    "inf": lambda v: math.inf,
    "-inf": lambda v: -math.inf,
    "1e-7": lambda v: v * (1.0 + 1e-7),
}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 12), s=st.sampled_from([-1.0, 0.0, 1.0]),
       slips=st.lists(st.tuples(st.integers(0, 77), st.sampled_from(sorted(_SLIPS))),
                      max_size=4))
def test_kernel_report_verdict_is_the_pairwise_conjunction(seed, m, s, slips):
    # the oracle perturbed at drawn pairs: the report names exactly the
    # pairs check fails, in row-major order, or else the one pair of
    # largest margin, and its verdict is the conjunction of all of them
    rng = np.random.default_rng(seed)
    r, th = 0.7 * np.sqrt(rng.uniform(0.0, 1.0, m)), rng.uniform(0.0, 2.0 * math.pi, m)
    pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
    i, j = np.triu_indices(m)
    oracle = kernel_classical_spectral_oracle(DK, s, pts[i], pts[j]).tolist()
    for k, slip in slips:
        oracle[k % len(oracle)] = _SLIPS[slip](oracle[k % len(oracle)])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rkhs, "kernel_classical_spectral_oracle",
                   lambda domain, s, x, y: np.array(oracle))
        rep, columns = kernel_report(DK, "classical", 1.0, s, pts, n_nodes=256)
    K = columns["K"].tolist()
    assert repr(columns["K_oracle"].tolist()) == repr(oracle)
    assert repr(columns["discrepancy"].tolist()) == repr(
        [abs(k - o) for k, o in zip(K, oracle)])
    pairs = [check(f"K[{pi},{pj}] vs spectral oracle", k, o, 1e-8, rel=True)
             for pi, pj, k, o in zip(i.tolist(), j.tolist(), K, oracle)]
    assert rep.metadata["oracle_pairs"] == len(pairs) == m * (m + 1) // 2
    assert rep.overall_pass == all(c.passed for c in pairs)
    failing = [c for c in pairs if not c.passed]
    if not failing:
        # abs_error / tolerance with 0/0 read as 0; a NaN margin (inf / inf)
        # ranks first, and a tie goes to the first pair
        margins = [c.abs_error / c.tolerance if c.abs_error else 0.0 for c in pairs]
        failing = [max(zip(pairs, margins), key=lambda cm: (math.isnan(cm[1]), cm[1]))[0]]
    assert repr(rep.records) == repr(failing)


def _scalar_series(R, s, x, y):
    # one pair's series as a scalar loop, the array oracle's reference;
    # also returns the sum of |terms|, the scale of its roundoff
    rho = float(np.hypot(*x)) * float(np.hypot(*y)) / R**2
    delta = math.atan2(y[1], y[0]) - math.atan2(x[1], x[0])
    total, scale = 1.0, 1.0
    k = 1
    while True:
        mag = (1.0 + (k / R) ** 2) ** (-s) * rho**k
        if mag < 1e-16 or k > 200_000:
            break
        total += 2.0 * mag * math.cos(k * delta)
        scale += 2.0 * mag
        k += 1
    return total / (2.0 * math.pi * R), scale / (2.0 * math.pi * R)


_ORACLE_POINT = st.builds(
    lambda r, th: [r * math.cos(th), r * math.sin(th)],
    st.one_of(st.just(0.0), st.floats(0.0, 0.95)),
    st.floats(0.0, 2.0 * math.pi),
)


@st.composite
def _oracle_pairs(draw):
    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        x = draw(_ORACLE_POINT)
        pairs.append((x, x if draw(st.booleans()) else draw(_ORACLE_POINT)))
    return pairs


@settings(max_examples=100)
@given(_oracle_pairs(), st.floats(-1.0, 1.0), st.sampled_from([1.0, 2.5]))
def test_array_oracle_matches_scalar_series(pairs, s, R):
    # rho = 0 (a point at the center) and coincident points included;
    # 2e-15 relative to the series' absolute sum, the bound on its roundoff
    dom = disk(R)
    xs = R * np.array([p[0] for p in pairs])
    ys = R * np.array([p[1] for p in pairs])
    got = kernel_classical_spectral_oracle(dom, s, xs, ys)
    assert got.shape == (len(pairs),)
    for x, y, value in zip(xs, ys, got):
        want, scale = _scalar_series(R, s, x, y)
        assert abs(value - want) <= 2e-15 * scale
        assert kernel_classical_spectral_oracle(dom, s, x, y) == value


@settings(max_examples=100)
@given(_oracle_pairs(), st.floats(-2.0, 2.0), st.sampled_from([1.0, 2.5]), st.data())
def test_oracle_values_follow_a_shuffle_of_the_pairs(pairs, s, R, data):
    # each pair beside its swap (equal rho, so ties in the sort), centers
    # (rho = 0) and coincident points: shuffling the pairs permutes the
    # values bit for bit
    pairs = pairs + [(y, x) for x, y in pairs]
    perm = np.array(data.draw(st.permutations(range(len(pairs)))))
    dom = disk(R)
    xs = R * np.array([p[0] for p in pairs])
    ys = R * np.array([p[1] for p in pairs])
    got = kernel_classical_spectral_oracle(dom, s, xs, ys)
    shuffled = kernel_classical_spectral_oracle(dom, s, xs[perm], ys[perm])
    assert shuffled.tobytes() == got[perm].tobytes()


def _closed_form_kernel(R, s, x, y):
    # the s = 0 and s = -1 series summed in closed form at the exact points,
    # z = conj(x) y / R^2: 1 + 2 Re sum z^k = Re (1 + z)/(1 - z), and
    # 2 Re sum k^2 z^k = 2 Re z(1 + z)/(1 - z)^3
    z = mpmath.mpc(x[0], -x[1]) * mpmath.mpc(y[0], y[1]) / R**2
    series = (1 + z) / (1 - z)
    if s == -1.0:
        series += 2 * z * (1 + z) / (1 - z) ** 3 / R**2
    return float(mpmath.re(series) / (2 * mpmath.pi * R))


@pytest.mark.parametrize("R", [1.0, 2.5])
@pytest.mark.parametrize("s, bound", [(0.0, 4e-15), (-1.0, 4e-13)])
def test_oracle_matches_closed_form_series(R, s, bound):
    # 256 seeded pairs with |x|, |y| <= 0.9 R, error relative to |K|.  Worst
    # at R = 1 / 2.5: s = 0, 2.43e-15 / 2.61e-15; s = -1, 7.39e-14 / 1.73e-13,
    # at pairs whose |K| is 2.3e-4 / 3.5e-3 of their sum of |terms|.  Summed
    # with libm pow and cos(k delta) per term the worst was 7.93e-15 /
    # 6.24e-15 and 2.24e-12 / 1.58e-13: the rounding of k delta grows with k
    rng = np.random.default_rng(0)
    r = 0.9 * R * np.sqrt(rng.uniform(0.0, 1.0, (2, 256)))
    th = rng.uniform(0.0, 2.0 * math.pi, (2, 256))
    xs, ys = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
    got = kernel_classical_spectral_oracle(disk(R), s, xs, ys)
    with mpmath.workdps(30):
        want = np.array([_closed_form_kernel(R, s, x, y) for x, y in zip(xs, ys)])
    assert np.max(np.abs(got - want) / np.abs(want)) <= bound


def test_array_oracle_tells_signed_zeros_apart():
    # (-0.5, 0.0) and (-0.5, -0.0) are one point at angles pi and -pi:
    # each distinct set of bits keeps its own angle, as a lone pair does
    pts = np.array([[-0.5, 0.0], [-0.5, -0.0], [0.0, -0.0], [-0.0, 0.0], [0.3, 0.4]])
    i, j = np.triu_indices(len(pts))
    got = kernel_classical_spectral_oracle(DK, 0.5, pts[i], pts[j])
    for x, y, value in zip(pts[i], pts[j], got):
        assert kernel_classical_spectral_oracle(DK, 0.5, x, y) == value


def test_array_oracle_refuses_bad_points():
    good = np.array([[0.1, 0.2], [0.0, 0.0]])
    with pytest.raises(DomainError):
        kernel_classical_spectral_oracle(IV, 0.0, 0.1, 0.2)
    for bad in ([math.nan, 0.0], [1.0, 0.0], [0.8, 0.7], [math.inf, 0.0]):
        with pytest.raises(DomainError):
            kernel_classical_spectral_oracle(DK, 0.0, bad, [0.1, 0.0])
        with pytest.raises(DomainError):
            kernel_classical_spectral_oracle(DK, 0.0, good, np.array([[0.1, 0.0], bad]))
    with pytest.raises(DomainError):
        kernel_classical_spectral_oracle(DK, 0.0, [0.1, 0.2, 0.3], [0.1, 0.2, 0.3])


def test_oracle_refuses_an_order_whose_series_overflows(monkeypatch):
    # the kernel command meets s = -200 first at the grid kernel's
    # multipliers; the oracle refuses it on its own at a default point.
    # At rho = 0.99998 the multipliers decide before any term is summed
    # (only the sum calls np.cos): s = -30 summed 137,271 terms first, and
    # s = -60 overflowed the sum's doubled term with a RuntimeWarning
    x = _circle_pt(0.5, 0.0)
    with pytest.raises(DomainError, match="the spectral oracle cannot sum the order s=-200 series"):
        kernel_classical_spectral_oracle(DK, -200.0, x, x)
    x, y = np.array([0.99999, 0.0]), np.array([0.99999, 1e-3])
    summed = []
    monkeypatch.setattr(np, "cos", lambda *args: summed.append(args))
    for s, k in ((-30.0, 135695), (-60.0, 369)):
        with pytest.raises(DomainError, match=f"order s={s:g} series: its multiplier at k={k} "):
            kernel_classical_spectral_oracle(DK, s, x, y)
    assert summed == []


def test_oracle_refuses_a_series_still_live_at_its_cap(monkeypatch):
    # rho = 0.99998: the closed form (1-rho^2)/(2pi(1-2rho cos D+rho^2))
    # reads 6.20 where 200,000 terms summed to 0.526; the multipliers
    # decide before any term is summed (only the sum calls np.cos; s = -0.5
    # once summed all 200,000 first, about 2 s)
    x, y = np.array([0.99999, 0.0]), np.array([0.99999, 1e-3])
    r = math.sqrt(0.99998)
    summed = []
    monkeypatch.setattr(np, "cos", lambda *args: summed.append(args))
    for s in (0.0, 1.0, -0.5, -2.0):
        with pytest.raises(ToleranceError, match=r"rho=0\.99998.* past k=200000"):
            kernel_classical_spectral_oracle(DK, s, x, y)
        with pytest.raises(ToleranceError, match=r"rho=0\.9999799.* past k=200000"):
            kernel_classical_spectral_oracle(DK, s, [r, 0.0], [0.0, r])
    assert summed == []
    monkeypatch.undo()
    monkeypatch.setattr(rkhs, "_ORACLE_TERMS", 50)
    with pytest.raises(ToleranceError, match=r"order s=-0\.5 series .* past k=50"):
        kernel_classical_spectral_oracle(DK, -0.5, x, y)
    # a pair that converges within the cap still sums
    z = _circle_pt(0.5, 0.0)
    assert kernel_classical_spectral_oracle(DK, -0.5, z, z) > 0.0


def _series_loop(R, s, xs, ys, cap):
    # the oracle in Python floats, one k at a time over all pairs: a pair
    # stops at its first term below 1e-16; a live term whose doubled
    # multiplier is not finite raises DomainError, a pair live past the cap
    # ToleranceError.  Returns each pair's value and sum of |terms|
    rho = [float(np.hypot(*x)) * float(np.hypot(*y)) / R**2 for x, y in zip(xs, ys)]
    delta = [math.atan2(y[1], y[0]) - math.atan2(x[1], x[0]) for x, y in zip(xs, ys)]
    total, scale = [1.0] * len(rho), [1.0] * len(rho)
    live = list(range(len(rho)))
    for k in range(1, cap + 1):
        try:
            mult = (1.0 + (k / R) ** 2) ** (-s)
        except OverflowError:
            mult = math.inf
        live = [i for i in live if not mult * rho[i] ** k < 1e-16]
        if live and not math.isfinite(2.0 * mult):
            raise DomainError(f"the spectral oracle cannot sum the order s={s:g} series: "
                              f"its multiplier at k={k} overflows")
        for i in live:
            mag = mult * rho[i] ** k
            total[i] += 2.0 * mag * math.cos(k * delta[i])
            scale[i] += 2.0 * mag
    if live:
        raise ToleranceError(
            f"the spectral oracle's order s={s:g} series at rho={max(rho[i] for i in live):.17g} "
            f"has terms above 1e-16 past k={cap}")
    return [(t / (2.0 * math.pi * R), a / (2.0 * math.pi * R)) for t, a in zip(total, scale)]


@settings(max_examples=200)
@given(_oracle_pairs(), st.one_of(st.floats(-2.0, 2.0), st.floats(-120.0, 0.0)),
       st.sampled_from([0.25, 1.0, 2.5, 30.0]), st.sampled_from([50, 200]),
       st.floats(0.8, 1.0, exclude_max=True))
def test_oracle_refuses_as_the_scalar_loop(pairs, s, R, cap, reach):
    # the multiplier table decides the same refusals, at the same k and
    # rho, as a loop that sums term by term; points out to reach R, so
    # that the series run past the caps
    dom = disk(R)
    xs = reach * R * np.array([p[0] for p in pairs])
    ys = reach * R * np.array([p[1] for p in pairs])
    try:
        want = _series_loop(R, s, xs, ys, cap)
    except (DomainError, ToleranceError) as exc:
        want = exc
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rkhs, "_ORACLE_TERMS", cap)
        if isinstance(want, Exception):
            with pytest.raises(type(want)) as got:
                kernel_classical_spectral_oracle(dom, s, xs, ys)
            assert str(got.value) == str(want)
            return
        got = kernel_classical_spectral_oracle(dom, s, xs, ys)
    for value, (ref, scale) in zip(got, want):
        assert abs(value - ref) <= 2e-15 * scale


def test_oracle_sums_a_negative_order_series_that_dips_below_its_cutoff(monkeypatch):
    # at s < 0 the term (1 + k^2/R^2)^(-s) rho^k falls, rises and falls: here
    # it drops below 1e-16 near k = 0.49 R and is back at 0.54 by the cap,
    # so the loop stops at the dip and the up-front check must not refuse
    monkeypatch.setattr(rkhs, "_ORACLE_TERMS", 50)
    R, s = 100.0 / 3.0, -254.0
    r = R * math.exp(-3.0)  # rho = r^2 / R^2 = e^-6
    rho = (r / R) ** 2
    assert (1.0 + (50 / R) ** 2) ** (-s) * rho**50 > 0.5
    got = kernel_classical_spectral_oracle(disk(R), s, [r, 0.0], [0.0, r])
    want, scale = _scalar_series(R, s, [r, 0.0], [0.0, r])
    assert abs(got - want) <= 2e-15 * scale


def test_oracle_monotone_in_s():
    x = _circle_pt(0.5, 0.0)
    vals = [kernel_classical_spectral_oracle(DK, s, x, x) for s in (-1.0, 0.0, 1.0)]
    assert vals[0] > vals[1] > vals[2]


def test_formal_limit_matches_classical():
    x, y = _circle_pt(0.4, 0.2), _circle_pt(0.1, 1.0)
    lhs = kernel_fractional(DK, 1.0, 0.25, x, y)
    rhs = kernel_classical(DK, 1.75, x, y)
    assert abs(lhs - rhs) < 1e-10 * abs(rhs)


def test_gram_psd_and_shapes():
    rng = np.random.default_rng(21)
    for size in (1, 4, 9, 17):
        r = 0.9 * np.sqrt(rng.uniform(size=size))
        th = rng.uniform(0.0, 2.0 * math.pi, size=size)
        pts = [_circle_pt(r[k], th[k]) for k in range(size)]
        km = gram_matrix(DK, "classical", 0.5, pts, n_nodes=64)
        assert km.entries.shape == (size, size)
        assert km.psd_verdict()[2]
        assert not km.has_duplicates
        lam = km.eigenvalues()
        assert lam[-1] > 0.0


def test_gram_duplicate_flagged_degenerate():
    pts = [0.3, 0.3, -0.5]
    km = gram_matrix(IV, "fractional", FracParams(0.5, 0.0), pts, n_nodes=2)
    assert km.has_duplicates
    lam = km.eigenvalues()
    # a repeated point makes the matrix exactly rank deficient
    assert lam[0] < 1e-12 * lam[-1]
    assert km.psd_verdict()[2]


def _draw_points(data, domain, max_size):
    if domain.kind == "interval":
        point = st.floats(-0.9, 0.9)
    else:
        point = st.builds(_circle_pt, st.floats(0.0, 0.9), st.floats(0.0, 2.0 * math.pi))
    return data.draw(st.lists(point, min_size=1, max_size=max_size))


@pytest.mark.parametrize("domain", [IV, DK], ids=["interval", "disk"])
@settings(max_examples=20)
@given(data=st.data(), kind=st.sampled_from(["classical", "fractional"]),
       a=st.floats(0.2, 1.0), s=st.floats(-0.6, 1.0))
def test_gram_symmetric_and_matches_two_point_kernels(domain, data, kind, a, s):
    pts = _draw_points(data, domain, 6)
    if kind == "classical":
        params = s
        kernel = lambda x, y: kernel_classical(domain, s, x, y, n_nodes=64)
    else:
        params = FracParams(a, s)
        kernel = lambda x, y: kernel_fractional(domain, a, s, x, y, n_nodes=64)
    K = gram_matrix(domain, kind, params, pts, n_nodes=64).entries
    assert np.array_equal(K, K.T)
    for i in range(len(pts)):
        for j in range(i, len(pts)):
            # relative to the Cauchy-Schwarz scale, which bounds |K[i, j]|
            scale = math.sqrt(K[i, i] * K[j, j])
            assert abs(K[i, j] - kernel(pts[i], pts[j])) <= 1e-13 * scale


@pytest.mark.parametrize("domain", [IV, DK], ids=["interval", "disk"])
@settings(max_examples=20)
@given(data=st.data(), kind=st.sampled_from(["classical", "fractional"]),
       a=st.floats(0.2, 1.0), s=st.floats(-0.6, 1.0))
def test_gram_psd_at_random_points(domain, data, kind, a, s):
    pts = _draw_points(data, domain, 8)
    params = s if kind == "classical" else FracParams(a, s)
    lo, hi, psd = gram_matrix(domain, kind, params, pts, n_nodes=64).psd_verdict()
    assert psd, (lo, hi)
    assert hi > 0.0


@pytest.mark.parametrize("domain", [IV, DK], ids=["interval", "disk"])
@given(picks=st.lists(st.integers(0, 5), min_size=1, max_size=8))
def test_has_duplicates_exactly_when_a_point_repeats(domain, picks):
    if domain.kind == "interval":
        pool = [-0.8 + 0.3 * k for k in range(6)]
    else:
        pool = [_circle_pt(0.1 + 0.15 * k, 0.7 * k) for k in range(6)]
    km = gram_matrix(domain, "classical", 0.0, [pool[k] for k in picks], n_nodes=16)
    assert km.has_duplicates == (len(set(picks)) < len(picks))


def _gap_flag_reference(pts, R):
    # the flag from an (m, m, N) array of coordinate gaps
    m = len(pts)
    gaps = np.abs(pts[:, None] - pts[None, :]).reshape(m, m, -1).max(axis=2)
    return bool(np.any(np.tril(gaps < 1e-14 * R, -1)))


# coordinate offsets in units of R: on, just below, at and just above the
# 1e-14 R threshold, and one far past it
_OFFSETS = [0.0, -0.0, 1e-15, -1e-15, np.nextafter(1e-14, 0.0), 1e-14,
            np.nextafter(1e-14, 1.0), -1e-14, 0.1]
_COORD = st.sampled_from([0.0, -0.0]) | st.floats(-0.5, 0.5)


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["interval", "disk"]), R=st.sampled_from([1e-3, 1.0, 2.5, 1e3]),
       base=st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=4),
       near=st.lists(st.tuples(st.integers(0, 3), st.sampled_from(_OFFSETS),
                               st.sampled_from(_OFFSETS)), max_size=4))
def test_has_duplicates_matches_gap_array_flag(kind, R, base, near):
    # each near point shifts one base point by an offset per coordinate
    domain = disk(R) if kind == "disk" else interval(R)
    coords = base + [tuple(c + o for c, o in zip(base[i % len(base)], off))
                     for i, *off in near]
    pts = [R * np.array(c) if kind == "disk" else R * c[0] for c in coords]
    km = gram_matrix(domain, "classical", 0.0, pts, n_nodes=8)
    assert km.has_duplicates == _gap_flag_reference(km.points, R)


def _representer_values(grid, a, x):
    # one point's representer from its closed form, in Python floats where
    # the prefactor allows: the reference for the stacked builder
    R = grid.domain.R
    if grid.domain.kind == "interval":
        x = float(x)
        if a == 1.0:
            return np.array([(R - x), (R + x)]) / (2.0 * R)
        dist2 = (grid.nodes[:, 0] - x) ** 2
        front = green_constant(1, a) / a * (2.0 / R) ** a * (R * R - abs(x) ** 2) ** a
        return front / dist2 ** 0.5
    diff = grid.nodes - x
    dist2 = diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1]
    if a == 1.0:
        return (R * R - float(x @ x)) / (2.0 * math.pi * R * dist2)
    front = green_constant(2, a) / a * (2.0 / R) ** a * (
        R * R - float(np.hypot(*x)) ** 2) ** a
    return front / dist2 ** 1.0


@pytest.mark.parametrize("domain", [IV, disk(1.0), disk(2.5)], ids=["interval", "disk", "disk-R"])
@pytest.mark.parametrize("n", [8, 64, 256])
@settings(max_examples=12)
@given(data=st.data(), a=st.sampled_from([0.25, 0.5, 0.75, 1.0]),
       s=st.sampled_from([-0.2, 0.0, 0.5, 1.0, 2.5]))
def test_stacked_representers_match_per_point_bitwise(domain, n, data, a, s):
    grid = boundary_grid(domain, n)
    pts = domain.R * np.array(_draw_points(data, domain, 6))
    kinds = [("fractional", FracParams(a, s), FracParams(a, s).theta)]
    if a == 1.0:
        kinds.append(("classical", s, 0.5 * s))
    for kind, params, t in kinds:
        _, V = rkhs._representers(grid, kind, params, pts)
        assert V.shape == (len(pts), grid.n)
        for row, p in zip(V, pts):
            want = apply_M_power(boundary_representer(grid, a, p), -t).values
            assert row.tobytes() == want.tobytes()
            closed = apply_M_power(grid.field(_representer_values(grid, a, p)), -t).values
            assert row.tobytes() == closed.tobytes()


def test_gram_selector_validation():
    with pytest.raises(ValueError):
        gram_matrix(IV, "sobolev", 0.5, [0.0], n_nodes=2)


def test_cauchy_schwarz_sampled():
    rng = np.random.default_rng(33)
    a, s = 0.5, 0.0
    worst = 0.0
    for _ in range(50):
        r = 0.9 * np.sqrt(rng.uniform(size=2))
        th = rng.uniform(0.0, 2.0 * math.pi, size=2)
        x, y = _circle_pt(r[0], th[0]), _circle_pt(r[1], th[1])
        kxy = kernel_fractional(DK, a, s, x, y, n_nodes=64)
        kxx = kernel_fractional(DK, a, s, x, x, n_nodes=64)
        kyy = kernel_fractional(DK, a, s, y, y, n_nodes=64)
        worst = min(worst, kxx * kyy - kxy * kxy)
    assert worst >= -1e-12


@pytest.mark.parametrize("domain", [IV, DK], ids=["interval", "disk"])
def test_reproducing_residual_small(domain):
    grid = BoundaryGrid(domain, 2 if domain.kind == "interval" else 256)
    if domain.kind == "interval":
        phi = grid.field([0.8, -0.3])
    else:
        phi = grid.field(np.cos(grid.angles) + 0.5 * np.cos(3.0 * grid.angles))
    x = 0.25 if domain.kind == "interval" else _circle_pt(0.35, 0.9)
    assert reproducing_residual(domain, 0.5, 0.0, phi, x) < 1e-10


@given(v=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)), t=st.floats(-0.9, 0.9),
       a=st.floats(0.05, 0.95), s=st.floats(-0.5, 2.0))
def test_interval_reproducing_residual_is_exactly_zero(v, t, a, s):
    # on the interval the pairing and the boundary integral are the same
    # two-term sum, rounded the same way; a fused dot product on one route
    # would leave one rounding (5.6e-17 at data (-1.35, 0.94), x = 0.1,
    # a = 0.22)
    phi = BoundaryGrid(IV, 2).field(v)
    assert reproducing_residual(IV, a, s, phi, t) == 0.0


def test_classical_reproduction_two_routes():
    # u(x) = <g, P_x>_0 = <g, M^{-s} P_x>_s for band-limited data
    from kernel_lab.boundary import apply_M_power, sobolev_inner
    from kernel_lab.green import poisson_kernel_classical

    grid = BoundaryGrid(DK, 128)
    g = grid.field(np.cos(2.0 * grid.angles) - 0.4 * np.sin(5.0 * grid.angles))
    x = _circle_pt(0.45, 0.7)
    P = poisson_kernel_classical(grid, x)
    s = 0.8
    direct = sobolev_inner(g, P, 0.0)
    dual = sobolev_inner(g, apply_M_power(P, -s), s)
    assert abs(direct - dual) < 1e-10 * max(1.0, abs(direct))
    assert poisson_extend_classical(DK, s, g, x) == pytest.approx(direct, rel=1e-12)


def test_limit_consistency_report():
    rep = limit_consistency(DK, 0.0, np.zeros(2), np.array([0.5, 0.0]), [0.9, 0.99, 0.999])
    assert rep.overall_pass
    errs = rep.metadata["errors"]
    assert errs[0] > errs[1] > errs[2]
    ref = rep.metadata["classical_reference"]
    assert ref == pytest.approx(
        kernel_classical_spectral_oracle(DK, 1.5, np.zeros(2), np.array([0.5, 0.0])),
        rel=1e-10,
    )


def test_limit_consistency_input_validation():
    from kernel_lab.errors import DomainError

    with pytest.raises(DomainError):
        limit_consistency(DK, 0.0, np.zeros(2), np.array([0.5, 0.0]), [0.99, 0.9])
    with pytest.raises(DomainError):
        limit_consistency(DK, 0.0, np.zeros(2), np.array([0.5, 0.0]), [0.5, 1.2])
    with pytest.raises(DomainError):
        limit_consistency(DK, 0.0, np.zeros(2), np.array([0.5, 0.0]), [])


def test_interval_trace_recovery():
    a, s = 0.5, 0.0
    grid = BoundaryGrid(IV, 2)
    phi = grid.field([2.0, -1.0])
    errs = []
    for d in (1e-1, 1e-2, 1e-3):
        worst = 0.0
        for sgn, target in ((-1.0, 2.0), (1.0, -1.0)):
            u = poisson_extend_fractional(IV, a, s, phi, sgn * (1.0 - d))
            worst = max(worst, abs(u * d ** (1.0 - a) - target))
        errs.append(worst)
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-2 * 2.0

    # the report builder takes the data as one function of the node array,
    # sorts d decreasing, and finds the same errors
    data = lambda node: np.where(node < 0.0, 2.0, -1.0)
    rep = reproduce_report(grid, a, s, data, 0.25, [1e-3, 1e-1, 1e-2])
    assert rep.overall_pass
    assert rep.scenario["d_values"] == [1e-1, 1e-2, 1e-3]
    assert rep.metadata["trace_recovery_errors"] == errs
    from kernel_lab.errors import DomainError

    for bad in ([], [1e-2, 1e-2]):
        with pytest.raises(DomainError):
            reproduce_report(grid, a, s, data, 0.25, bad)


def test_reproduce_report_flags_each_probe(monkeypatch):
    # the worst error falls along d (0.1, 0.01, 0.001 at the right end),
    # but the left probe's error grows (1e-4, 2e-4, 4e-4) below it: the
    # monotonicity flag must fail, while the final bound still holds
    a = 0.5

    def fake_extend(domain, a_, s_, phi, x):
        # one value per point, as the stacked extension gives
        x = np.asarray(x, dtype=float)
        d = domain.R - np.abs(x)
        err = np.where(x > 0, d, 1e-4 * (0.1 / d) ** (math.log10(2.0)))
        return err / d ** (1.0 - a)

    monkeypatch.setattr(rkhs, "poisson_extend_fractional", fake_extend)
    rep = reproduce_report(BoundaryGrid(IV, 2), a, 0.0, np.zeros_like,
                           0.25, [1e-1, 1e-2, 1e-3])
    errs = rep.metadata["trace_recovery_errors"]
    assert errs[0] > errs[1] > errs[2]
    by_name = {r.name: r for r in rep.records}
    assert not by_name["trace-recovery errors decrease along d_values"].passed
    assert by_name["final trace-recovery error"].passed


# n = 65,536 stacks one row per block, so its points cross the row blocks
@pytest.mark.parametrize("domain,n", [(IV, 2), (DK, 256), (DK, 65536)],
                         ids=["interval", "disk-256", "disk-65536"])
@settings(max_examples=6)
@given(data=st.data(), a=st.sampled_from([0.3, 0.5, 0.8]), s=st.floats(-0.5, 1.0))
def test_stacked_extension_matches_per_point_bitwise(domain, n, data, a, s):
    grid = BoundaryGrid(domain, n)
    # smooth data on the circle: white noise would put roundoff at every
    # mode, where (1 + k^2)^t separates the two routes
    c = np.random.default_rng(n).standard_normal(3)
    if domain.kind == "interval":
        phi = grid.field(c[:2])
    else:
        phi = grid.field(c[0] + c[1] * np.cos(grid.angles) + c[2] * np.sin(3.0 * grid.angles))
    last = -0.5 if domain.kind == "interval" else _circle_pt(0.5, 1.0)
    pts = _draw_points(data, domain, 8) + [last]
    # the classical extension runs through the same routine
    for extend in (lambda x: poisson_extend_fractional(domain, a, s, phi, x),
                   lambda x: poisson_extend_classical(domain, s, phi, x)):
        got = extend(np.array(pts))
        assert got.shape == (len(pts),)
        for value, p in zip(got, pts):
            one = extend(p)
            assert type(one) is float
            assert value.tobytes() == np.float64(one).tobytes()
        # any array of points, one value per point in the points' shape
        if domain.kind == "disk":
            grid_pts = np.array([pts[:2], pts[-2:]])
            assert extend(grid_pts).tobytes() == np.array([got[:2], got[-2:]]).tobytes()


@pytest.mark.parametrize("n", [256, 65536])
def test_stacked_extension_guards_each_row(monkeypatch, n):
    # corrupting one point's multiplier route refuses, naming that point
    grid = BoundaryGrid(DK, n)
    phi = grid.field(np.cos(grid.angles))
    pts = np.array([[0.5 * math.cos(k), 0.5 * math.sin(k)] for k in range(8)])
    pts[5] = [0.25, -0.5]
    original = rkhs._multiplier_route
    seen = [0]

    def corrupt_row_5(front, side, rep):
        out = np.array(original(front, side, rep))
        rows = np.arange(seen[0], seen[0] + len(out))
        seen[0] += len(out)
        return np.where(rows == 5, out + 1e-6, out)

    monkeypatch.setattr(rkhs, "_multiplier_route", corrupt_row_5)
    with pytest.raises(ConsistencyError, match=r"at x=\[0\.25, -0\.5\]: boundary-integral"):
        poisson_extend_fractional(DK, 0.5, 0.0, phi, pts)


def _probes(domain, m):
    # m interior points, as a stack's rows
    r = np.linspace(0.1, 0.95, m)
    if domain.kind == "interval":
        return r * np.where(np.arange(m) % 2, 1.0, -1.0)
    return np.array([_circle_pt(rk, 2.0 * math.pi * k / m + 0.3) for k, rk in enumerate(r)])


@pytest.mark.parametrize("domain,n", [(IV, 2), (DK, 256), (DK, 65536)],
                         ids=["interval", "disk-256", "disk-65536"])
@pytest.mark.parametrize("m", [None, 1, 3, 8], ids=["field", "m1", "m3", "m8"])
@pytest.mark.parametrize("a,s", [(0.3, -0.5), (0.7, 1.0)])
def test_dual_pairing_route_matches_sobolev_inner_bitwise(domain, n, m, a, s):
    # the data side built once pairs each row bitwise as that row alone,
    # and agrees with the direct route at the stability property's bound
    # (not bitwise with sobolev_inner(g, apply_M_power(rep, -t), t), whose
    # inverse transform rounds the modes that M^{-t} shrank)
    grid = BoundaryGrid(domain, n)
    g = grid.field(np.random.default_rng(n).standard_normal(n))
    t = 2.0 * FracParams(a, s).theta
    front = rkhs._gamma_factor(a)
    side = dual_pairing(g, t)
    pts = _probes(domain, 1 if m is None else m)
    rep = fractional_trace_green(grid, a, pts[0] if m is None else pts)
    got = rkhs._multiplier_route(front, side, rep)
    direct = front * boundary_integrate(g.pointwise_product(rep))
    assert np.all(np.abs(got - direct) <= _STABLE_TOL * np.maximum(1.0, np.abs(direct)))
    if m is None:
        assert type(got) is float
        return
    assert got.shape == (m,)
    for k in range(m):
        alone = rkhs._multiplier_route(front, side, grid.field(rep.values[k]))
        assert got[k].tobytes() == np.float64(alone).tobytes()


def test_extension_transforms_the_data_once(monkeypatch):
    # eight probes on 65,536 nodes go one per row block, against one data
    # side: phi is transformed once and the multipliers are built twice
    # (M^{-t} and the pairing's M^t), not once and twice per block; each
    # probe takes one forward transform and no inverse one
    grid = BoundaryGrid(DK, 65536)
    phi = grid.field(np.cos(grid.angles))
    calls = {"phi spectra": 0, "multipliers": 0, "rfft": 0, "irfft": 0}
    to_spectrum, multipliers = boundary.to_spectrum, boundary._multipliers
    rfft, irfft = np.fft.rfft, np.fft.irfft

    def counted_spectrum(field):
        calls["phi spectra"] += field.values.shape == phi.values.shape
        return to_spectrum(field)

    def counted_multipliers(grid, t):
        calls["multipliers"] += 1
        return multipliers(grid, t)

    def counted(name, transform):
        def run(*args, **kwargs):
            calls[name] += 1
            return transform(*args, **kwargs)
        return run

    monkeypatch.setattr(boundary, "to_spectrum", counted_spectrum)
    monkeypatch.setattr(boundary, "_multipliers", counted_multipliers)
    monkeypatch.setattr(np.fft, "rfft", counted("rfft", rfft))
    monkeypatch.setattr(np.fft, "irfft", counted("irfft", irfft))
    assert poisson_extend_fractional(DK, 0.5, 0.0, phi, _probes(DK, 8)).shape == (8,)
    assert calls == {"phi spectra": 1, "multipliers": 2, "rfft": 9, "irfft": 0}


@pytest.mark.parametrize("domain", [IV, DK], ids=["interval", "disk"])
def test_extension_refuses_a_perturbed_data_spectrum(monkeypatch, domain):
    # one coefficient of phi's prebuilt spectrum off by 1e-9 relative: the
    # direct route still checks the data side, so every probe refuses
    grid = BoundaryGrid(domain, 2 if domain.kind == "interval" else 256)
    phi = grid.field(np.array([1.0, 2.0]) if domain.kind == "interval" else np.cos(grid.angles))
    original = rkhs._multiplier_route

    def perturbed(front, side, rep):
        spectrum = side.spectrum.copy()
        spectrum[1] *= 1.0 + 1e-9
        return original(front, dataclasses.replace(side, spectrum=spectrum), rep)

    pts = _probes(domain, 8)
    for p in pts:
        poisson_extend_fractional(domain, 0.5, 0.0, phi, p)
    monkeypatch.setattr(rkhs, "_multiplier_route", perturbed)
    for p in pts:
        with pytest.raises(ConsistencyError, match="boundary-integral and multiplier routes"):
            poisson_extend_fractional(domain, 0.5, 0.0, phi, p)


@pytest.mark.parametrize("n", [256, 65536])
@pytest.mark.parametrize("mutant", ["sign-of-t", "one-multiplier", "representer-transform"])
def test_extension_refuses_mutated_multipliers(monkeypatch, n, mutant):
    # the multiplier route runs no inverse transform, so the forward
    # transform and M^{-t} must carry its check: M^{+t} in place of M^{-t},
    # or one M^{-t} multiplier or one representer coefficient off by 1e-9
    # relative (mode 1, all of cos theta's data), and every probe refuses
    grid = BoundaryGrid(DK, n)
    phi = grid.field(np.cos(grid.angles))
    pts = _probes(DK, 8)
    for p in pts:
        poisson_extend_fractional(DK, 0.5, 0.0, phi, p)
    original, spectrum = rkhs.dual_pairing, boundary.to_spectrum

    def mutated_side(g, t):
        side = original(g, t)
        if mutant == "sign-of-t":
            return dataclasses.replace(side, down=boundary._multipliers(g.grid, t))
        down = side.down.copy()
        down[1] *= 1.0 + 1e-9
        return dataclasses.replace(side, down=down)

    def mutated_spectrum(field):
        out = spectrum(field)
        if field.values.ndim == 2:  # a representer block, not the data
            out.coefficients[:, 1] *= 1.0 + 1e-9
        return out

    if mutant == "representer-transform":
        monkeypatch.setattr(boundary, "to_spectrum", mutated_spectrum)
    else:
        monkeypatch.setattr(rkhs, "dual_pairing", mutated_side)
    for p in pts:
        with pytest.raises(ConsistencyError, match="boundary-integral and multiplier routes"):
            poisson_extend_fractional(DK, 0.5, 0.0, phi, p)


@pytest.mark.parametrize("data,n,a,s", [
    ("noise", 4096, 0.5, 0.0), ("noise", 65536, 0.5, 0.0), ("cos3", 65536, 0.7, 1.5),
], ids=["noise-4096", "noise-65536", "cos3-65536"])
def test_extension_is_not_falsely_refused(data, n, a, s):
    # M^{-t} shrinks the high modes, and the pairing's M^t lifts them by up
    # to (1 + k^2)^t: a route that rounded the shrunk modes through an
    # inverse transform refused each of these values, though it was right
    grid = BoundaryGrid(DK, n)
    if data == "noise":
        phi = grid.field(np.random.default_rng(1).standard_normal(n))
    else:
        phi = grid.field(np.cos(3.0 * grid.angles))
    pts = np.array([[0.3, -0.2], [0.5, 0.5], [-0.9, 0.1]])
    got = poisson_extend_fractional(DK, a, s, phi, pts)
    rep = fractional_trace_green(grid, a, pts)
    direct = rkhs._gamma_factor(a) * boundary_integrate(phi.pointwise_product(rep))
    assert got.tobytes() == direct.tobytes()


# the multiplier route's agreement with the direct integral, relative to
# max(1, |direct|): a hundredth of the route guard's 1e-12
_STABLE_TOL = 1e-14


@settings(max_examples=150)
@given(data=st.data(), kind=st.sampled_from(["interval", "disk"]),
       R=st.sampled_from([1.0, 2.5]), n=st.sampled_from([256, 1024, 4096]),
       a=st.floats(0.05, 0.95), noise=st.booleans())
def test_multiplier_route_is_stable(data, kind, R, n, a, noise):
    # every order s > -a - 1/2 up to 3, noise or a single mode cos(l theta)
    # up to the grid's last, points out to 0.95 R: the two routes agree to
    # roundoff, and the extension returns the direct value
    s = data.draw(st.floats(-a - 0.5, 3.0, exclude_min=True))
    if kind == "interval":
        domain, n = interval(R), 2
        point = st.floats(-0.95 * R, 0.95 * R)
    else:
        domain = disk(R)
        point = st.builds(_circle_pt, st.floats(0.0, 0.95 * R), st.floats(0.0, 2.0 * math.pi))
    grid = BoundaryGrid(domain, n)
    if noise:
        seed = data.draw(st.integers(0, 2**32 - 1))
        phi = grid.field(np.random.default_rng(seed).standard_normal(n))
    else:
        mode = data.draw(st.integers(0, n // 2))
        phi = grid.field_from_function(lambda th: np.cos(mode * th))
    pts = np.array(data.draw(st.lists(point, min_size=1, max_size=4)))
    t = 2.0 * FracParams(a, s).theta
    front = rkhs._gamma_factor(a)
    rep = fractional_trace_green(grid, a, pts)
    direct = front * boundary_integrate(phi.pointwise_product(rep))
    got = rkhs._multiplier_route(front, dual_pairing(phi, t), rep)
    assert np.all(np.abs(got - direct) <= _STABLE_TOL * np.maximum(1.0, np.abs(direct)))
    assert poisson_extend_fractional(domain, a, s, phi, pts).tobytes() == direct.tobytes()


@pytest.mark.parametrize("domain", [IV, DK], ids=["interval", "disk"])
def test_stacked_extension_refuses_nan_data(domain):
    grid = BoundaryGrid(domain, 2 if domain.kind == "interval" else 64)
    values = np.ones(grid.n)
    values[1] = math.nan
    pts = np.array([0.2, -0.7]) if domain.kind == "interval" else np.array(
        [_circle_pt(0.2, 0.3), _circle_pt(0.7, 2.0)])
    with np.errstate(invalid="ignore"), pytest.raises(ConsistencyError):
        poisson_extend_fractional(domain, 0.5, 0.0, grid.field(values), pts)
