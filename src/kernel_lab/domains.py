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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridMismatchError

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


# the number of rays (equispaced angles) of every polar rule on the disk
N_ANGLES = 64


def rays(domain):
    """The rays of every polar rule around an interior point, as
    (directions, weight per ray).

    The interval is the 1-D ball: its two rays -1, +1 carry measure 1 each.
    The disk has N_ANGLES equispaced rays of weight 2 pi / N_ANGLES.  Either
    way, summing weight * int_0^T f(x + r e) r^(N-1) dr over the rays is
    the integral of f over the ball around x.  Ray k + n/2 is minus ray k.
    The table is built once per kind and is read-only.
    """
    return _ray_table(domain.kind)


@functools.lru_cache(maxsize=2)
def _ray_table(kind):
    if kind == INTERVAL:
        dirs, weight = np.array([[-1.0], [1.0]]), 1.0
    else:
        dirs, weight = ray_directions(N_ANGLES), 2.0 * math.pi / N_ANGLES
    dirs.flags.writeable = False
    return dirs, weight


def ray_exit(domain, x, direction):
    """Distance from an interior point to the boundary along a unit ray.

    direction is one unit N-vector (float out) or an (n, N) array of them
    ((n,) array out); on the interval this is R - e x.
    """
    x = np.reshape(domain.point(x), domain.N)
    direction = np.asarray(direction, dtype=float)
    # e.x column by column, as squared_norm sums: bitwise np.sum(direction
    # * x, axis=-1) for N <= 2
    b = direction[..., 0] * x[0]
    for k in range(1, domain.N):
        b = b + direction[..., k] * x[k]
    c = float(x @ x) - domain.R**2
    dist = -b + np.sqrt(b * b - c)
    return float(dist) if direction.ndim == 1 else dist


# samples (rays x nodes) per block of ray_nodes: a block's radii, |y|^2
# and field values stay in a core's L2 cache, where one array of every
# (ray, node) sample of a disk rule does not
_RAY_BLOCK_ELEMENTS = 1 << 14


def ray_nodes(domain, x, dirs, s, start=0.0, stop=None):
    """Yield (idx, r, y2, lengths): the rule s on [0, 1] mapped onto
    [start, stop] along the rays of dirs from the interior point x, in
    blocks of rays.

    dirs is an (n, N) array of unit vectors, n even with ray j + n/2 minus
    ray j (as rays() gives them), and s an (m,) array of nodes; stop is one
    radius for every ray, or by default each ray's ray_exit.  lengths is
    the (n,) array stop - start of all rays, the same in every block.  A
    block holds rays j, ..., j + b - 1 followed by their antipodes
    j + n/2, ..., j + n/2 + b - 1, in the index array idx; every ray is in
    exactly one block, and the interval's two rays form one.  b is the
    largest power of two that keeps a block within _RAY_BLOCK_ELEMENTS
    samples, one pair of rays at least.  With 32 pairs on the disk the
    blocks are equal, and at b >= 4 each block's row dot products f @ w
    round as the whole array's do (OpenBLAS's gemv takes rows in fours),
    so the blocked sums are bitwise the unblocked ones there.  s may be two
    rules concatenated, as the principal value walks its coarse and fine
    rules at once; the block then holds as many pairs as s.size allows,
    which is 4 pairs for the disk's 1152 near-field nodes at resolution 64
    (16 and 8 for its two rules apart), and below 4 from resolution 128 on,
    where a sum can move in its last bits from that of a walk per rule.
    r is the block's (2b, m) radii start + lengths[idx] * s.  Under one
    stop for every ray the radii are the same on every ray: r is then the
    one row start + length * s, built once and broadcast read-only to
    (2b, m) in every block; under the rays' exits each block gets its own
    r.  y2 is the block's (2b, m) array of |y|^2 at the points
    y = x + r e, summed one coordinate at a time in contiguous temporaries
    with no point array formed: the same operations in the same order as
    squared_norm(ray_points(x, dirs[idx], r)), so bitwise equal to it.  A
    caller that needs the points themselves builds them with ray_points.
    With the rule's weights w and the ray weight of rays(), filling
    rows[idx] = (f(y) * r^(N-1)) @ w block by block and summing
    weight * lengths @ rows integrates f over the rays' [start, stop] in
    polar coordinates.
    """
    xv = np.reshape(domain.point(x), domain.N)
    shared = None
    if stop is None:
        lengths = ray_exit(domain, xv, dirs) - start
    else:
        lengths = np.full(len(dirs), float(stop)) - start
        shared = start + lengths[0] * s
    half = len(dirs) // 2
    b = min(half, 1 << max(0, (_RAY_BLOCK_ELEMENTS // (2 * s.size)).bit_length() - 1))
    for j in range(0, half, b):
        pair = np.arange(j, min(j + b, half))
        idx = np.concatenate([pair, pair + half])
        if shared is None:
            r = start + lengths[idx, None] * s[None, :]
        else:
            r = np.broadcast_to(shared, (len(idx), s.size))
        e = dirs[idx]
        y2 = np.multiply(r, e[:, :1])
        y2 += xv[0]
        y2 *= y2
        if domain.N > 1:
            c = np.empty_like(y2)
            for k in range(1, domain.N):
                np.multiply(r, e[:, k, None], out=c)
                c += xv[k]
                c *= c
                y2 += c
        yield idx, r, y2, lengths


def ray_points(x, dirs, r):
    """The (n, m, N) points x + r e of a block of ray_nodes, for the rays'
    (n, N) directions dirs (dirs[idx]) and their (n, m) radii r.

    The array is filled in place one coordinate at a time, bitwise equal to
    the broadcast x + r[..., None] * dirs[:, None], which numpy would run
    two elements at a time.
    """
    x = np.reshape(x, -1)
    pts = np.empty(r.shape + (len(x),))
    for k in range(len(x)):
        coord = pts[..., k]
        np.multiply(r, dirs[:, k, None], out=coord)
        coord += x[k]
    return pts


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

    @functools.cached_property
    def nodes(self):
        """(n, N) array: [[-R], [R]] for the interval, n points on the circle.

        Built on first access and kept read-only on the grid, so every
        representer sampled on one grid shares one cos/sin table; the cache
        is not a field, so grids still compare and hash by (domain, n).
        """
        R = self.domain.R
        if self.domain.kind == INTERVAL:
            nodes = np.array([[-R], [R]])
        else:
            nodes = R * ray_directions(self.n)
        nodes.flags.writeable = False
        return nodes

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
        """fn maps the (n,) node angles (circle) or abscissae (interval) to n values."""
        args = self.angles if self.domain.kind == DISK else self.nodes[:, 0]
        return BoundaryField(self, np.array(fn(args), dtype=float))


def boundary_grid(domain, n):
    """The boundary grid of domain: n circle nodes, or the interval's two
    (n is then ignored)."""
    return BoundaryGrid(domain, 2 if domain.kind == INTERVAL else n)


@dataclass
class BoundaryField:
    """Real samples of a function on a boundary grid.

    values has shape (n,), or (m, n) for a stack of m fields on the grid.
    apply_M_power and resample transform a stack row by row, and
    boundary_integrate and sobolev_inner give one value per row; the
    arithmetic operators broadcast a single field against a stack.
    """

    grid: BoundaryGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim not in (1, 2) or self.values.shape[-1] != self.grid.n:
            raise GridMismatchError(
                f"expected {self.grid.n} samples per field, got shape {self.values.shape}"
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
        # half spectra (modes 0 .. n/2) of real fields, row by row
        spec = np.fft.rfft(self.values)
        out = np.zeros(self.values.shape[:-1] + (n_new // 2 + 1,), dtype=complex)
        half = n // 2
        out[..., :half] = spec[..., :half]
        # the Nyquist bin splits evenly between +n/2 and -n/2 on the fine
        # grid; irfft supplies the -n/2 half as the conjugate of this one
        out[..., half] = 0.5 * spec[..., half]
        values = np.fft.irfft(out, n=n_new) * (n_new / n)
        return BoundaryField(new_grid, values)
