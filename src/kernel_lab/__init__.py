"""Numerical verification of closed-form Green functions, weighted
boundary traces, boundary Sobolev calculus, reproducing kernels and
Hadamard shape derivatives for classical and fractional Laplacians on
the interval and the disk.

Everything here is an identity with two independent evaluation routes;
the package exists to compute both sides and compare.
"""

from .boundary import (
    apply_M_power,
    boundary_integrate,
    from_spectrum,
    laplace_beltrami_eigenvalues,
    sobolev_inner,
    to_spectrum,
)
from .domains import DISK, INTERVAL, BoundaryField, BoundaryGrid, ModelDomain, disk, interval
from .errors import (
    ConsistencyError,
    DomainError,
    GridMismatchError,
    KernelLabError,
    ScenarioError,
    SingularityError,
    ToleranceError,
)
from .fracop import (
    MollifierSpec,
    SampledInteriorField,
    boundary_singular_field,
    frac_laplacian_apply,
    getoor_field,
    getoor_reference,
    mollified_green,
    residual_check,
)
from .green import (
    fractional_trace_green,
    green_classical,
    green_fractional,
    green_mass,
    poisson_kernel_classical,
    torsion_reference,
)
from .hadamard import (
    PerturbationField,
    dilation_derivative_exact,
    dilation_derivative_fd,
    hadamard_prediction,
    hadamard_report,
)
from .quadrature import QuadratureSpec
from .report import SCHEMA_VERSION, CheckRecord, Report, check, flag
from .rkhs import (
    KernelMatrix,
    gram_matrix,
    kernel_classical,
    kernel_classical_spectral_oracle,
    kernel_fractional,
    limit_consistency,
    poisson_extend_classical,
    poisson_extend_fractional,
    reproduce_report,
    reproducing_residual,
)
from .specfun import (
    FracParams,
    boundary_integral_B_derivative,
    frac_laplacian_constant,
    green_constant,
    torsion_constant,
)

__version__ = "0.1.0"

__all__ = [
    "SCHEMA_VERSION",
    "BoundaryField",
    "BoundaryGrid",
    "CheckRecord",
    "ConsistencyError",
    "DISK",
    "DomainError",
    "FracParams",
    "GridMismatchError",
    "INTERVAL",
    "KernelLabError",
    "KernelMatrix",
    "ModelDomain",
    "MollifierSpec",
    "PerturbationField",
    "QuadratureSpec",
    "Report",
    "SampledInteriorField",
    "ScenarioError",
    "SingularityError",
    "ToleranceError",
    "apply_M_power",
    "boundary_integral_B_derivative",
    "boundary_integrate",
    "boundary_singular_field",
    "check",
    "disk",
    "dilation_derivative_exact",
    "dilation_derivative_fd",
    "flag",
    "frac_laplacian_apply",
    "frac_laplacian_constant",
    "fractional_trace_green",
    "from_spectrum",
    "getoor_field",
    "getoor_reference",
    "gram_matrix",
    "green_classical",
    "green_constant",
    "green_fractional",
    "green_mass",
    "hadamard_prediction",
    "hadamard_report",
    "interval",
    "kernel_classical",
    "kernel_classical_spectral_oracle",
    "kernel_fractional",
    "laplace_beltrami_eigenvalues",
    "limit_consistency",
    "mollified_green",
    "poisson_extend_classical",
    "poisson_extend_fractional",
    "poisson_kernel_classical",
    "reproduce_report",
    "reproducing_residual",
    "residual_check",
    "sobolev_inner",
    "to_spectrum",
    "torsion_constant",
    "torsion_reference",
]
