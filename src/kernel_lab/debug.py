"""Negative controls.

Each context manager deliberately breaks one normalization so that a
verification run under it must fail.  A suite that still passes with a
corrupted constant is not testing that constant; the CLI exposes these
through --debug so the failure paths stay exercised.
"""

from contextlib import contextmanager

from . import green as _green
from . import rkhs as _rkhs


@contextmanager
def unit_gamma_normalization():
    """Replace the Gamma(a)Gamma(a+1) Poisson prefactor by 1.

    Both routes inside one extension scale together, so route-consistency
    checks stay green; only oracles pinning the absolute normalization
    (trace recovery, closed-form values) catch this.
    """
    original = _rkhs._gamma_factor
    _rkhs._gamma_factor = lambda a: 1.0
    try:
        yield
    finally:
        _rkhs._gamma_factor = original


@contextmanager
def corrupted_green_constant(scale=1.02):
    """Scale kappa_{N,a} as every consumer reads it, via green.green_constant."""
    original = _green.green_constant

    def crooked(N, a):
        return scale * original(N, a)

    _green.green_constant = crooked
    try:
        yield
    finally:
        _green.green_constant = original


DEBUG_CONTROLS = {
    "unit-gamma": unit_gamma_normalization,
    "corrupt-kappa": corrupted_green_constant,
}
