"""Model domains and boundary grids.

Two model geometries carry every closed form in the package: the interval
(-R, R) in one dimension and the disk of radius R in two.  The interval is
the 1-ball: every formula that reads the same in each N is written once,
on point arrays whose last axis holds the N coordinates, and
ModelDomain.points is the one place that decides what such an array looks
like (an interval abscissa gains a length-1 coordinate axis).  The interval
boundary is the two-point set {-R, +R} with counting measure (so a boundary
integral is just f(-R) + f(R)); the circle carries n equispaced nodes with
trapezoidal weights 2*pi*R/n, which is spectrally accurate for smooth
periodic integrands.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridMismatchError
from .quadrature import N_ANGLES

INTERVAL = "interval"
DISK = "disk"


@dataclass(frozen=True)
class ModelDomain:
    """Interval (-R, R) or disk of radius R, centered at the origin."""

    kind: str
    R: float = 1.0

    def __post_init__(self):
        if self.kind not in (INTERVAL, DISK):
            raise DomainError(f"unknown domain kind {self.kind!r}")
        if not self.R > 0.0:
            raise DomainError(f"radius must be positive, got {self.R}")

    @property
    def N(self):
        return 1 if self.kind == INTERVAL else 2

    def point(self, p):
        """Coerce p to a float (interval) or a length-2 array (disk)."""
        if self.kind == INTERVAL:
            arr = np.asarray(p, dtype=float)
            if arr.ndim == 1 and arr.size == 1:
                arr = arr[0]
            if arr.ndim != 0:
                raise DomainError(f"interval points are scalars, got shape {arr.shape}")
            return float(arr)
        arr = np.asarray(p, dtype=float)
        if arr.shape != (2,):
            raise DomainError(f"disk points are 2-vectors, got shape {arr.shape}")
        return arr

    def points(self, p):
        """(array, single): p as a point array with the N coordinates on its
        last axis, and whether p was one point.

        The array has at least two axes; one point becomes one row.  An
        interval abscissa, or an array of them of any shape, gains a length-1
        coordinate axis; a disk array must end in an axis of length 2.
        """
        arr = np.asarray(p, dtype=float)
        if self.kind == INTERVAL:
            single = arr.ndim == 0
            arr = arr[..., None]
        else:
            if arr.shape[-1:] != (2,):
                raise DomainError(f"disk points are 2-vectors, got shape {arr.shape}")
            single = arr.ndim == 1
        return (arr[None] if single else arr), single

    def norm(self, p):
        if self.kind == INTERVAL:
            return abs(self.point(p))
        return float(np.hypot(*self.point(p)))

    def distance_to_boundary(self, p):
        d = self.R - self.norm(p)
        if not d >= 0.0:  # also refuses NaN
            raise DomainError(f"point {p} lies outside the domain")
        return d

    def require_interior(self, p):
        if not self.R - self.norm(p) > 0.0:  # also refuses NaN
            raise DomainError(f"point {p} is not interior to the {self.kind} of radius {self.R}")
        return self.point(p)

    def scaled(self, factor):
        """The dilated domain factor * Omega."""
        return ModelDomain(self.kind, self.R * factor)


def squared_norm(p):
    """|p|^2 over the last axis of a point array, summed column by column.

    Bitwise equal to np.sum(p * p, axis=-1) for N <= 2, where the sum has a
    single rounding order, and several times faster on (n, N) arrays, whose
    reduction would otherwise walk a length-N axis once per point.
    """
    out = p[..., 0] * p[..., 0]
    for k in range(1, p.shape[-1]):
        out = out + p[..., k] * p[..., k]
    return out


def ray_directions(n):
    """The n unit vectors at angles 2 pi k / n, as an (n, 2) array."""
    phis = 2.0 * math.pi * np.arange(n) / n
    return np.column_stack([np.cos(phis), np.sin(phis)])


def rays(domain):
    """The rays of every polar rule around an interior point, as
    (directions, weight per ray).

    The interval is the 1-D ball: its two rays -1, +1 carry measure 1 each.
    The disk has N_ANGLES equispaced rays of weight 2 pi / N_ANGLES.  Either
    way, summing weight * int_0^T f(x + r e) r^(N-1) dr over the rays is
    the integral of f over the ball around x.  Ray k + n/2 is minus ray k.
    """
    if domain.kind == INTERVAL:
        return np.array([[-1.0], [1.0]]), 1.0
    return ray_directions(N_ANGLES), 2.0 * math.pi / N_ANGLES


def ray_exit(domain, x, direction):
    """Distance from an interior point to the boundary along a unit ray.

    direction is one unit N-vector (float out) or an (n, N) array of them
    ((n,) array out); on the interval this is R - e x.
    """
    x = np.reshape(domain.point(x), domain.N)
    direction = np.asarray(direction, dtype=float)
    b = np.sum(direction * x, axis=-1)
    c = float(x @ x) - domain.R**2
    dist = -b + np.sqrt(b * b - c)
    return float(dist) if direction.ndim == 1 else dist


def interval(R=1.0):
    return ModelDomain(INTERVAL, R)


def disk(R=1.0):
    return ModelDomain(DISK, R)


@dataclass(frozen=True)
class BoundaryGrid:
    """Quadrature nodes and weights on the boundary of a model domain."""

    domain: ModelDomain
    n: int = 256

    def __post_init__(self):
        if self.domain.kind == INTERVAL:
            if self.n != 2:
                raise DomainError("the interval boundary has exactly 2 nodes")
        else:
            if self.n < 8 or self.n % 2 != 0:
                raise DomainError(f"circle grids need an even node count >= 8, got {self.n}")

    @property
    def angles(self):
        if self.domain.kind != DISK:
            raise DomainError("angles are defined for circle grids only")
        return 2.0 * math.pi * np.arange(self.n) / self.n

    @property
    def nodes(self):
        """(n, N) array: [[-R], [R]] for the interval, n points on the circle."""
        R = self.domain.R
        if self.domain.kind == INTERVAL:
            return np.array([[-R], [R]])
        return R * ray_directions(self.n)

    @property
    def weights(self):
        if self.domain.kind == INTERVAL:
            return np.ones(2)
        return np.full(self.n, 2.0 * math.pi * self.domain.R / self.n)

    def field(self, values):
        return BoundaryField(self, np.asarray(values, dtype=float))

    def constant_field(self, c):
        return BoundaryField(self, np.full(self.n, float(c)))

    def field_from_function(self, fn):
        """Sample fn over the nodes; fn takes an angle (circle) or node (interval)."""
        args = self.angles if self.domain.kind == DISK else self.nodes[:, 0]
        return BoundaryField(self, np.fromiter(map(fn, args.tolist()), float, self.n))


def boundary_grid(domain, n):
    """The boundary grid of domain: n circle nodes, or the interval's two
    (n is then ignored)."""
    return BoundaryGrid(domain, 2 if domain.kind == INTERVAL else n)


@dataclass
class BoundaryField:
    """Real samples of a function on a boundary grid."""

    grid: BoundaryGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n,):
            raise GridMismatchError(
                f"expected {self.grid.n} samples, got shape {self.values.shape}"
            )

    def same_grid(self, other):
        if self.grid != other.grid:
            raise GridMismatchError("boundary fields live on different grids")

    def __add__(self, other):
        self.same_grid(other)
        return BoundaryField(self.grid, self.values + other.values)

    def __sub__(self, other):
        self.same_grid(other)
        return BoundaryField(self.grid, self.values - other.values)

    def __mul__(self, scalar):
        return BoundaryField(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def pointwise_product(self, other):
        self.same_grid(other)
        return BoundaryField(self.grid, self.values * other.values)

    def resample(self, n_new):
        """Band-limited upsampling onto a finer circle grid (exact for
        trigonometric polynomials of degree < n/2).

        The interval field (two nodes) is returned unchanged.
        """
        if self.grid.domain.kind == INTERVAL:
            if n_new != 2:
                raise DomainError("interval grids always have 2 nodes")
            return self
        n = self.grid.n
        if n_new == n:
            return self
        if n_new < n or n_new % 2 != 0:
            raise DomainError("resample only refines circle grids (even n_new > n)")
        new_grid = BoundaryGrid(self.grid.domain, n_new)
        spec = np.fft.fft(self.values)
        out = np.zeros(n_new, dtype=complex)
        half = n // 2
        out[:half] = spec[:half]
        # Nyquist bin splits evenly between +n/2 and -n/2 on the fine grid
        out[half] = 0.5 * spec[half]
        out[n_new - half] = 0.5 * spec[half]
        out[n_new - half + 1 :] = spec[half + 1 :]
        values = np.fft.ifft(out).real * (n_new / n)
        return BoundaryField(new_grid, values)
