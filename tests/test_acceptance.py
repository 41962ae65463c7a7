"""Acceptance gate: one test per pinned criterion.

Criteria 1-11 run the library-level criterion functions directly and
require every record to pass at its pinned tolerance.  Criterion 12
runs `python -m kernel_lab.cli selftest` twice and demands
byte-identical reports modulo the volatile timing field.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from kernel_lab import acceptance, rkhs
from kernel_lab.acceptance import CRITERIA, DEFAULT_SEED, run_selftest
from kernel_lab.debug import DEBUG_CONTROLS
from kernel_lab.domains import disk
from kernel_lab.rkhs import KernelMatrix, kernel_fractional

_BY_NUMBER = dict(CRITERIA)


def _run(number):
    fn = _BY_NUMBER[number]
    return fn(DEFAULT_SEED) if number == 8 else fn()


def _assert_all_pass(records):
    assert records, "criterion produced no records"
    failed = [r for r in records if not r.passed]
    msg = "; ".join(
        f"{r.name}: computed={r.computed!r} reference={r.reference!r} "
        f"tol={r.tolerance!r}"
        for r in failed
    )
    assert not failed, msg


def test_criterion_01_getoor_mass():
    _assert_all_pass(_run(1))


def test_criterion_02_boundary_singular_reproduction():
    _assert_all_pass(_run(2))


def test_criterion_03_fractional_hadamard_routes():
    # 4 report records per domain and 3 closed-form checks
    records = _run(3)
    _assert_all_pass(records)
    assert len(records) == 11


def test_criterion_04_classical_hadamard_routes():
    # 4 disk and 3 interval report records (no order flag at the
    # roundoff floor) and 5 closed-form checks
    records = _run(4)
    _assert_all_pass(records)
    assert len(records) == 12


def test_criterion_05_kernel_matches_spectral_oracle(monkeypatch):
    # per s: 10 pair checks, the PSD and the symmetry flag, one eigensolve
    solves = []
    eigenvalues = KernelMatrix.eigenvalues
    monkeypatch.setattr(
        KernelMatrix, "eigenvalues", lambda km: solves.append(km) or eigenvalues(km)
    )
    records = _run(5)
    _assert_all_pass(records)
    assert len(records) == 36
    assert len(solves) == 3


def test_criterion_06_fractional_kernel_unit_value():
    _assert_all_pass(_run(6))


def test_criterion_07_reproducing_and_trace_recovery():
    _assert_all_pass(_run(7))


def test_criterion_08_psd_and_cauchy_schwarz(monkeypatch):
    # one eigensolve per Gram matrix serves the flag name and the verdict
    solves = []
    eigenvalues = KernelMatrix.eigenvalues
    monkeypatch.setattr(
        KernelMatrix, "eigenvalues", lambda km: solves.append(km) or eigenvalues(km)
    )
    _assert_all_pass(_run(8))
    assert len(solves) == 3


def _per_pair_cauchy_schwarz(seed):
    # the reference scan: the points drawn pair by pair after the ten Gram
    # points, three kernel_fractional calls per pair
    dd = disk(1.0)
    rng = np.random.default_rng(seed)

    def draw(count):
        r = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, count))
        th = rng.uniform(0.0, 2.0 * math.pi, count)
        return np.column_stack([r * np.cos(th), r * np.sin(th)])

    draw(10)
    pairs, worst = [], math.inf
    for _ in range(200):
        p, q = draw(2)
        kxy = kernel_fractional(dd, 0.5, 0.0, p, q, n_nodes=64)
        kxx = kernel_fractional(dd, 0.5, 0.0, p, p, n_nodes=64)
        kyy = kernel_fractional(dd, 0.5, 0.0, q, q, n_nodes=64)
        worst = min(worst, kxx * kyy - kxy * kxy)
        pairs += [p, q]
    return np.array(pairs), worst


def test_criterion_08_scan_is_one_representer_stack(monkeypatch):
    scans, transforms = [], []
    slacks = acceptance._cauchy_schwarz_slacks

    def scan(*args):
        scans.append((args, slacks(*args)))
        return scans[-1][1]

    monkeypatch.setattr(acceptance, "_cauchy_schwarz_slacks", scan)
    apply = rkhs.apply_M_power
    monkeypatch.setattr(rkhs, "apply_M_power",
                        lambda f, t: transforms.append(f.values.shape) or apply(f, t))
    _assert_all_pass(_run(8))
    # one transform per Gram matrix, then one (400, 64) stack for the scan
    assert transforms == [(10, 256)] * 3 + [(400, 64)]
    assert len(scans) == 1
    (_, _, pairs, n_nodes), got = scans[0]
    want_pairs, want_worst = _per_pair_cauchy_schwarz(DEFAULT_SEED)
    assert n_nodes == 64
    assert pairs.tobytes() == want_pairs.tobytes()
    assert float(np.min(got)) == want_worst


def test_criterion_09_classical_limit():
    _assert_all_pass(_run(9))


def test_criterion_10_pv_quadrature_oracles():
    _assert_all_pass(_run(10))


def test_criterion_11_poisson_kernel_normalization():
    _assert_all_pass(_run(11))


def test_selftest_record_names_unique():
    names = [r.name for r in run_selftest().records]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("control, tripped", [
    ("unit-gamma", {2, 6, 7}),
    ("corrupt-kappa", {1, 2, 3, 6, 7, 9, 10}),
])
def test_control_matrix(control, tripped):
    # the criteria each negative control fails, read off the record prefixes
    with DEBUG_CONTROLS[control]():
        records = run_selftest().records
    failed = {int(r.name.split(":")[0][1:]) for r in records if not r.passed}
    assert failed == tripped


def test_criterion_12_selftest_determinism(tmp_path, cli_env):
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "kernel_lab.cli", "selftest", "--out", str(out)],
            capture_output=True,
            text=True,
            env=cli_env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs.append(out / "selftest_report.json")
    reports = []
    for path in outs:
        with open(path, "r", encoding="utf-8") as fh:
            d = json.load(fh)
        vol = d.pop("volatile")
        assert set(vol) == {"timestamp_utc", "wall_time_s"}
        reports.append(d)
    assert reports[0] == reports[1]
    assert reports[0]["overall_pass"] is True
    assert len(reports[0]["records"]) >= 30
