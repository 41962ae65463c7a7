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
"""

import math
from dataclasses import dataclass

import numpy as np

from .domains import INTERVAL, BoundaryField, BoundaryGrid
from .errors import GridMismatchError


@dataclass
class Spectrum:
    """Coefficients of a boundary field in the orthonormal eigenbasis.

    Circle coefficients follow numpy FFT ordering (k = 0, 1, ..., n/2,
    -n/2+1, ..., -1); interval coefficients are just the two node values.
    """

    grid: BoundaryGrid
    coefficients: np.ndarray


def laplace_beltrami_eigenvalues(grid):
    """Eigenvalues of L = -Delta_boundary per mode, in coefficient order."""
    if grid.domain.kind == INTERVAL:
        return np.zeros(2)
    k = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    return (k / grid.domain.R) ** 2


def _multipliers(grid, t):
    """Multipliers (1 + lambda_k)^t of M^t on grid, in coefficient order."""
    return (1.0 + laplace_beltrami_eigenvalues(grid)) ** t


def to_spectrum(field):
    """Forward transform into the orthonormal boundary basis."""
    grid = field.grid
    if grid.domain.kind == INTERVAL:
        return Spectrum(grid, field.values.astype(complex))
    scale = math.sqrt(2.0 * math.pi * grid.domain.R) / grid.n
    return Spectrum(grid, scale * np.fft.fft(field.values))


def from_spectrum(spectrum):
    """Inverse of to_spectrum; imaginary residue (roundoff) is dropped."""
    grid = spectrum.grid
    if grid.domain.kind == INTERVAL:
        return BoundaryField(grid, spectrum.coefficients.real)
    scale = grid.n / math.sqrt(2.0 * math.pi * grid.domain.R)
    return BoundaryField(grid, scale * np.fft.ifft(spectrum.coefficients).real)


def apply_M_power(field, t):
    """Apply M^t; the identity on the interval, whose multipliers are 1."""
    spec = to_spectrum(field)
    mult = _multipliers(field.grid, t)
    return from_spectrum(Spectrum(field.grid, mult * spec.coefficients))


def sobolev_inner(f, g, s):
    """Order-s inner product <f, g>_s = sum_k (1+lambda_k)^s fhat_k conj(ghat_k).

    Exactly real for real fields (the real part is returned).  On the
    interval this is f(-R) g(-R) + f(R) g(R) for every s.
    """
    if f.grid != g.grid:
        raise GridMismatchError("sobolev_inner requires fields on one grid")
    mult = _multipliers(f.grid, s)
    fh = to_spectrum(f).coefficients
    gh = to_spectrum(g).coefficients
    return float(np.sum(mult * fh * np.conj(gh)).real)


def boundary_integrate(field):
    """The boundary integral of a sampled field (weighted node sum)."""
    return float(np.dot(field.grid.weights, field.values))
