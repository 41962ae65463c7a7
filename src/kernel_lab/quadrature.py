"""Quadrature controls and graded composite Gauss-Legendre panels.

Singular integrands (Green-function masses, the principal-value kernel of
the fractional Laplacian) are handled by composite Gauss-Legendre rules on
meshes graded algebraically toward the singular endpoint; the grading
exponent is chosen by the caller.  Where the endpoint behaviour is a known
power, exit_graded_rule and origin_graded_rule end the mesh in a
Gauss-Jacobi panel that carries that power exactly (the disk Green mass
at s = 0 and at the boundary, the principal value's far field at the
boundary).  Everything is deterministic: fixed node tables, and each
composite rule is applied as one flattened node/weight array.
"""

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, ToleranceError

# Gauss-Legendre order of every composite panel
GL_ORDER = 12


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy / resolution knobs shared by the singular-integral routines.

    resolution is the panel count of each graded mesh; doubling it is the
    refinement step tested by the convergence suites, and the convergence
    estimates compare the resolution // 2 rule against it.  resolution must
    be an integer >= 8, so that the coarse rule has at least 4 panels and
    differs from the fine one; two equal rules would estimate 0 and certify
    any value.  budget caps the number of integrand evaluations a single
    operation may spend.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    resolution: int = 32
    budget: int = 100_000

    def __post_init__(self):
        res = self.resolution
        if not isinstance(res, numbers.Integral) or res < 8:
            raise DomainError(f"resolution must be an integer >= 8, got {res!r}")

    def tolerance_for(self, value):
        return max(self.abs_tol, self.rel_tol * abs(value))


@lru_cache(maxsize=None)
def _gl_nodes(order):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


@lru_cache(maxsize=None)
def _gj_nodes(order, beta):
    """Gauss-Jacobi nodes and weights on [-1, 1] for the weight (1 - x)^beta.

    Golub-Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of
    the symmetric tridiagonal Jacobi matrix of the monic Jacobi polynomials
    P^(beta, 0), and each weight is mu0 = int (1 - x)^beta dx times the
    squared first component of its unit eigenvector.  beta <= -1 is
    refused: the weight is not integrable there.
    """
    if not beta > -1.0:
        raise DomainError(f"the Jacobi weight (1 - x)^beta needs beta > -1, got {beta}")
    k = np.arange(1, order, dtype=float)
    p = 2.0 * k + beta
    diag = np.empty(order)
    # the general term's n = 0 case is 0/0 at beta = 0
    diag[0] = -beta / (beta + 2.0)
    diag[1:] = -beta * beta / (p * (p + 2.0))
    off = 2.0 * k * (k + beta) / (p * np.sqrt((p + 1.0) * (p - 1.0)))
    jacobi = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    x, vecs = np.linalg.eigh(jacobi)
    mu0 = 2.0 ** (beta + 1.0) / (beta + 1.0)
    return x, mu0 * vecs[0] ** 2


def graded_mesh(lo, hi, panels, exponent, toward="lo"):
    """Panel breakpoints on [lo, hi] clustered at one end as (j/m)^exponent.

    Breakpoints closer together than a few ulps are collapsed so that the
    Gauss nodes of the thinnest panel stay strictly clear of the graded
    endpoint in floating point (steep gradings with many panels would
    otherwise produce zero-width panels whose midpoint rounds onto the
    singularity).
    """
    t = (np.arange(panels + 1) / panels) ** exponent
    if toward == "lo":
        pts = lo + (hi - lo) * t
    else:
        pts = hi - (hi - lo) * t[::-1]
    eps = 8.0 * np.finfo(float).eps
    # when no gap is too thin the loop below keeps every breakpoint, so
    # check all gaps at once first
    gaps = pts[1:] - pts[:-1]
    if np.all(gaps >= eps * np.maximum(np.abs(pts[1:]), np.abs(pts[:-1]))):
        return pts
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


def panel_nodes_weights(breakpoints, order=GL_ORDER):
    """Flattened Gauss-Legendre nodes and weights of the composite rule,
    panel by panel in breakpoint order, zero-width panels dropped."""
    x, w = _gl_nodes(order)
    b = np.asarray(breakpoints, dtype=float)
    lo, hi = b[:-1], b[1:]
    keep = hi != lo
    half = 0.5 * (hi[keep] - lo[keep])
    mid = 0.5 * (hi[keep] + lo[keep])
    nodes = mid[:, None] + half[:, None] * x[None, :]
    weights = half[:, None] * w[None, :]
    return nodes.ravel(), weights.ravel()


def exit_graded_rule(panels, exponent, beta, order=GL_ORDER):
    """Nodes and weights on [0, 1] for integrands that behave like
    (1 - s)^beta at s = 1.

    Composite Gauss-Legendre on panels graded toward s = 0 as
    (j/panels)^exponent, except the last panel, which is Gauss-Jacobi with
    the weight (1 - s)^beta folded into its weights: sum(w * f(s)) is exact
    there for f = (1 - s)^beta times a polynomial of degree < 2 order.
    """
    mesh = graded_mesh(0.0, 1.0, panels, exponent, toward="lo")
    nodes, weights = panel_nodes_weights(mesh[:-1], order)
    x, w = _gj_nodes(order, beta)
    half = 0.5 * (1.0 - mesh[-2])
    return (
        np.concatenate([nodes, 1.0 - half * (1.0 - x)]),
        np.concatenate([weights, half * w * (1.0 - x) ** -beta]),
    )


def origin_graded_rule(panels, exponent, beta, order=GL_ORDER):
    """Nodes and weights on [0, 1] for integrands that behave like s^beta
    at s = 0: the twin of exit_graded_rule at the other end.

    The first panel [0, panels^(-exponent)] is Gauss-Jacobi with the weight
    s^beta folded into its weights, exact there for f = s^beta times a
    polynomial of degree < 2 order; composite Gauss-Legendre follows on the
    panels graded toward s = 0 as (j/panels)^exponent.
    """
    mesh = graded_mesh(0.0, 1.0, panels, exponent, toward="lo")
    nodes, weights = panel_nodes_weights(mesh[1:], order)
    x, w = _gj_nodes(order, beta)
    # s = half (1 - x) runs down as x runs up; reversed, the nodes ascend
    half = 0.5 * mesh[1]
    return (
        np.concatenate([(half * (1.0 - x))[::-1], nodes]),
        np.concatenate([(half * w * (1.0 - x) ** -beta)[::-1], weights]),
    )


class EvalBudget:
    """Counts integrand evaluations and raises once the cap is exceeded."""

    def __init__(self, limit, label="quadrature"):
        self.limit = int(limit)
        self.used = 0
        self.label = label

    def spend(self, n):
        self.used += int(n)
        if self.used > self.limit:
            raise ToleranceError(
                f"{self.label} exceeded its evaluation budget ({self.limit})"
            )
