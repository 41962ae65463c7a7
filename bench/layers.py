"""Per-layer metrics of the traced run.

Each entry names a metric, its unit, and the end-to-end metric and
workload it is expected to move; a later performance change cites these
names when it states its claim.  BENCHMARK.json lists the same names and
units (bench/tests/test_bench.py keeps the two in step).

Metric names are ``<span>.<suffix>``.  The suffix ``calls`` counts calls,
``self_s`` is span time minus the time of direct child spans, ``s`` is
inclusive span time; ``points``, ``panels``, ``nodes``, ``pairs``,
``refused`` and ``bytes`` are work counts recorded at the same boundary
(see tracing.py).  A layer a workload never calls reads 0 there.
"""

LAYER_METRICS = (
    ("specfun.boundary_integral_B.calls", "count", "run_s on cli-defaults and getoor"),
    ("specfun.boundary_integral_B.self_s", "s", "run_s on cli-defaults and getoor"),
    ("specfun.boundary_integral_B_array.calls", "count", "run_s on cli-defaults and getoor"),
    ("specfun.boundary_integral_B_array.points", "count", "run_s on cli-defaults and getoor"),
    ("specfun.boundary_integral_B_array.self_s", "s", "run_s on cli-defaults and getoor"),
    ("quadrature.panel_integrate.calls", "count",
     "run_s on cli-defaults, and on getoor through green_mass; peak_rss_mb when batched"),
    ("quadrature.panel_integrate.panels", "count",
     "run_s on cli-defaults, and on getoor through green_mass; peak_rss_mb when batched"),
    ("quadrature.panel_integrate.self_s", "s",
     "run_s on cli-defaults, and on getoor through green_mass; peak_rss_mb when batched"),
    ("quadrature.graded_mesh.calls", "count", "run_s on cli-defaults, and on getoor"),
    ("quadrature.graded_mesh.self_s", "s", "run_s on cli-defaults, and on getoor"),
    ("green.green_mass.calls", "count", "run_s on getoor"),
    ("green.green_mass.self_s", "s", "run_s on getoor"),
    ("green.green_fractional_profile.calls", "count", "run_s on cli-defaults"),
    ("green.green_fractional_profile.points", "count", "run_s on cli-defaults"),
    ("green.fractional_trace_green.calls", "count", "run_s on kernel"),
    ("green.fractional_trace_green.self_s", "s", "run_s on kernel"),
    ("green.poisson_kernel_classical.calls", "count", "run_s on kernel"),
    ("green.poisson_kernel_classical.self_s", "s", "run_s on kernel"),
    ("fracop.frac_laplacian_apply.calls", "count", "run_s and fail_ratio on getoor"),
    ("fracop.frac_laplacian_apply.refused", "count", "fail_ratio on getoor"),
    ("fracop.frac_laplacian_apply.self_s", "s", "run_s on getoor, and on cli-defaults"),
    ("fracop.quad.calls", "count", "run_s on getoor, and on cli-defaults"),
    ("fracop.quad.self_s", "s", "run_s on getoor, and on cli-defaults"),
    ("fracop.SampledInteriorField.points", "count", "run_s on getoor, and on cli-defaults"),
    ("fracop.mollified_green.calls", "count", "run_s on cli-defaults"),
    ("fracop.mollified_green.self_s", "s", "run_s on cli-defaults"),
    ("fracop.MollifierSpec.density.points", "count", "run_s on cli-defaults"),
    ("boundary.apply_M_power.calls", "count",
     "run_s on kernel, and on cli-defaults through reproduce and C7"),
    ("boundary.apply_M_power.nodes", "count",
     "run_s on kernel, and on cli-defaults through reproduce and C7"),
    ("boundary.apply_M_power.self_s", "s",
     "run_s on kernel, and on cli-defaults through reproduce and C7"),
    ("boundary.sobolev_inner.calls", "count",
     "run_s on kernel, and on cli-defaults through reproduce and C7"),
    ("boundary.sobolev_inner.self_s", "s",
     "run_s on kernel, and on cli-defaults through reproduce and C7"),
    ("domains.BoundaryGrid.field_from_function.nodes", "count", "run_s on cli-defaults"),
    ("domains.BoundaryGrid.field_from_function.self_s", "s", "run_s on cli-defaults"),
    ("rkhs.gram_matrix.calls", "count", "run_s on kernel, and on cli-defaults through C8"),
    ("rkhs.gram_matrix.pairs", "count", "run_s on kernel, and on cli-defaults through C8"),
    ("rkhs.gram_matrix.self_s", "s", "run_s on kernel, and on cli-defaults through C8"),
    ("rkhs.kernel_classical_spectral_oracle.calls", "count", "run_s on kernel"),
    ("rkhs.kernel_classical_spectral_oracle.self_s", "s", "run_s on kernel"),
    ("rkhs.KernelMatrix.eigenvalues.self_s", "s", "run_s on kernel"),
    ("rkhs.kernel_fractional.calls", "count", "run_s on cli-defaults through C8"),
    ("rkhs.kernel_fractional.self_s", "s", "run_s on cli-defaults through C8"),
    ("rkhs.poisson_extend_fractional.calls", "count",
     "run_s on cli-defaults through C7 and reproduce"),
    ("rkhs.poisson_extend_fractional.self_s", "s",
     "run_s on cli-defaults through C7 and reproduce"),
    ("hadamard.hadamard_report.s", "s", "run_s on cli-defaults"),
    ("report.check.calls", "count", "run_s on kernel"),
    ("report.Report.to_json.self_s", "s", "run_s on kernel"),
    ("report.bytes", "bytes", "run_s on kernel"),
    ("scenarios.load_scenario.self_s", "s", "setup_s on every workload"),
    *((f"cli.cmd_{cmd}.s", "s", "run_s on cli-defaults and kernel")
      for cmd in ("kernel", "reproduce", "hadamard", "limit", "residual", "selftest")),
    *((f"acceptance.criterion_{n}.s", "s", "run_s on cli-defaults")
      for n in range(1, 12)),
    ("fail_ratio", "ratio", "pass_ratio on the same workload (fail_ratio = 1 - pass_ratio)"),
    ("trace_overhead_s", "s", "none: traced minus untraced wall seconds of one pass"),
)


def metric_value(name, summary, counts, criteria):
    """The traced value of one span-derived metric.

    summary maps span names to calls / s / self_s (Tracer.summary),
    counts holds the work counts, criteria maps criterion numbers to the
    acceptance function names.
    """
    span, _, suffix = name.rpartition(".")
    if span.startswith("acceptance.criterion_"):
        span = "acceptance." + criteria[int(span.rsplit("_", 1)[1])]
    if suffix in ("s", "self_s"):
        return summary.get(span, {}).get(suffix, 0.0)
    return counts.get(name, 0)
