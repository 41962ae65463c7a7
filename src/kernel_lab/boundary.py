"""Spectral calculus on the boundary.

The smoothed Laplace-Beltrami operator M = 1 - Delta_boundary diagonalizes
in the Fourier basis of the circle with eigenvalues 1 + k^2/R^2; its real
powers act as multipliers on the coefficients, and the order-s inner
product is the multiplier-weighted coefficient pairing.  The interval
boundary is a 0-dimensional manifold, so there M is the identity and every
Sobolev order collapses to the plain two-point pairing.

Basis convention: orthonormal in L^2(dsigma).  On the circle of radius R
the basis functions are e^(ik theta) / sqrt(2 pi R) with modes
k = -n/2+1 .. n/2 (the unmatched k = n/2 mode stays real for real fields);
on the interval they are the indicator functions of the two nodes under
counting measure, so coefficients coincide with node values.

Half spectrum: boundary fields are real, so the coefficient of mode -k is
the conjugate of that of mode k, and the circle transforms (np.fft.rfft and
irfft) keep only the modes k = 0, 1, ..., n/2.  The multipliers depend on
k^2 alone, so M^t acts on the kept modes as on the full set; a pairing
sum_k fhat_k conj(ghat_k) counts each mode 0 < k < n/2 twice (k and its
conjugate partner -k) and the self-conjugate modes k = 0 and k = n/2 once.
"""

import math
from dataclasses import dataclass

import numpy as np

from .domains import INTERVAL, BoundaryField, BoundaryGrid
from .errors import DomainError, GridMismatchError


@dataclass
class Spectrum:
    """Coefficients of a boundary field in the orthonormal eigenbasis.

    Circle coefficients are the half spectrum of np.fft.rfft, modes
    k = 0, 1, ..., n/2 (n/2 + 1 of them, along the last axis); mode -k is
    the conjugate of mode k and is not stored.  Interval coefficients are
    just the two node values.
    """

    grid: BoundaryGrid
    coefficients: np.ndarray


def laplace_beltrami_eigenvalues(grid):
    """Eigenvalues of L = -Delta_boundary per mode, in coefficient order."""
    if grid.domain.kind == INTERVAL:
        return np.zeros(2)
    k = np.arange(grid.n // 2 + 1)
    return (k / grid.domain.R) ** 2


def _multipliers(grid, t):
    """Multipliers (1 + lambda_k)^t of M^t on grid, in coefficient order;
    one that overflows is inf, without a warning."""
    with np.errstate(over="ignore"):
        return (1.0 + laplace_beltrami_eigenvalues(grid)) ** t


def _pair_weights(grid):
    """How often each stored coefficient counts in a pairing: 2 for the
    circle modes 0 < k < n/2, which stand for k and -k, else 1."""
    if grid.domain.kind == INTERVAL:
        return np.ones(2)
    w = np.full(grid.n // 2 + 1, 2.0)
    w[0] = w[-1] = 1.0
    return w


def to_spectrum(field):
    """Forward transform into the orthonormal boundary basis (the half
    spectrum on the circle), row by row for a stack."""
    grid = field.grid
    if grid.domain.kind == INTERVAL:
        return Spectrum(grid, field.values.astype(complex))
    scale = math.sqrt(2.0 * math.pi * grid.domain.R) / grid.n
    return Spectrum(grid, scale * np.fft.rfft(field.values))


def from_spectrum(spectrum):
    """Inverse of to_spectrum.  The field is real: the interval drops the
    imaginary parts, and irfft those of the modes 0 and n/2."""
    grid = spectrum.grid
    if grid.domain.kind == INTERVAL:
        return BoundaryField(grid, spectrum.coefficients.real)
    scale = grid.n / math.sqrt(2.0 * math.pi * grid.domain.R)
    return BoundaryField(grid, scale * np.fft.irfft(spectrum.coefficients, n=grid.n))


def apply_M_power(field, t):
    """Apply M^t, to each row of a stack at once; the identity on the
    interval, whose multipliers are 1.  A multiplier that overflows a
    double raises DomainError."""
    mult = _multipliers(field.grid, t)
    bad = np.flatnonzero(~np.isfinite(mult))
    if bad.size:
        raise DomainError(f"M^t at t={t:g} has a non-finite multiplier at mode k={bad[0]}")
    spec = to_spectrum(field)
    return from_spectrum(Spectrum(field.grid, mult * spec.coefficients))


def sobolev_inner(f, g, s):
    """Order-s inner product <f, g>_s = sum_k (1+lambda_k)^s fhat_k conj(ghat_k).

    Exactly real for real fields.  On the circle the sum runs over the half
    spectrum, each mode 0 < k < n/2 counted twice for its conjugate partner
    -k, whose term is the conjugate of its own: the real parts add and the
    imaginary parts cancel.  On the interval this is
    f(-R) g(-R) + f(R) g(R) for every s.
    """
    if f.grid != g.grid:
        raise GridMismatchError("sobolev_inner requires fields on one grid")
    mult = _pair_weights(f.grid) * _multipliers(f.grid, s)
    fh = to_spectrum(f).coefficients
    gh = to_spectrum(g).coefficients
    # Re(fhat conj(ghat)), without the complex product
    return float(np.sum(mult * (fh.real * gh.real + fh.imag * gh.imag)))


def boundary_integrate(field):
    """The boundary integral of a sampled field (weighted node sum)."""
    return float(np.dot(field.grid.weights, field.values))
