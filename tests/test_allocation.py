"""Peak traced memory of the hot blocks of the default commands.

numpy reports its array buffers to tracemalloc, so these peaks repeat
exactly from run to run, where resident memory and page-fault counts
depend on the allocator's state.  Each block runs once untraced first,
so caches that outlive a call (Gauss tables, the bump's base mass, the
grid's node table) are not counted.
"""

import math
import tracemalloc

import numpy as np

from kernel_lab.domains import boundary_grid, disk, interval
from kernel_lab.fracop import MollifierSpec, mollified_green
from kernel_lab.rkhs import poisson_extend_fractional
from kernel_lab.scenarios import boundary_data_function


def _traced_peak(fn):
    """Bytes fn's call holds at its peak beyond what was held before it."""
    fn()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_default_mollified_build_peak():
    # the residual command's build (a = 0.5, center 0, width 0.4), 0.92 MB
    # in z-blocks of 16 rows; blocks of 64 rows peak at 3.58 MB
    domain = interval(1.0)
    moll = MollifierSpec(domain, 0.0, 0.4)
    assert _traced_peak(lambda: mollified_green(domain, 0.5, moll)) <= 2_000_000


def test_recovery_extension_peak():
    # the trace recovery's last step: the 8 probes at d = 1e-3 on the
    # 65,536-node grid, one representer row per block, 2.63 MB; building
    # the traces through a (points, nodes, 2) difference array raises it to
    # 3.68 MB
    domain = disk(1.0)
    grid = boundary_grid(domain, 1 << 16)
    data = boundary_data_function(grid, {"preset": "cosine", "mode": 1, "amplitude": 1.0})
    phi = grid.field_from_function(data)
    angles = 2.0 * math.pi * np.arange(8) / 8.0 + math.pi / 8.0
    probes = (1.0 - 1e-3) * np.column_stack([np.cos(angles), np.sin(angles)])
    peak = _traced_peak(lambda: poisson_extend_fractional(domain, 0.5, 0.0, phi, probes))
    assert peak <= 3_620_000
