"""Acceptance gate: one test per pinned criterion.

Criteria 1-11 run the library-level criterion functions directly and
require every record to pass at its pinned tolerance.  Criterion 12
runs `python -m kernel_lab.cli selftest` twice and demands
byte-identical reports modulo the volatile timing field.
"""

import json
import subprocess
import sys

import pytest

from kernel_lab import acceptance, green, rkhs
from kernel_lab.acceptance import CRITERIA, DEFAULT_SEED, run_selftest
from kernel_lab.debug import DEBUG_CONTROLS
from kernel_lab.rkhs import KernelMatrix

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
    # 3 report records per domain and 3 closed-form checks
    records = _run(3)
    _assert_all_pass(records)
    assert len(records) == 9


def test_criterion_04_classical_hadamard_routes():
    # 3 disk and 2 interval report records (no order flag at the
    # roundoff floor) and 5 closed-form checks
    records = _run(4)
    _assert_all_pass(records)
    assert len(records) == 10


def test_criterion_05_kernel_matches_spectral_oracle(monkeypatch):
    # per s: 10 pairs compared, one record (the worst pair), and no
    # eigensolve
    solves = []
    eigenvalues = KernelMatrix.eigenvalues
    monkeypatch.setattr(
        KernelMatrix, "eigenvalues", lambda km: solves.append(km) or eigenvalues(km)
    )
    records = _run(5)
    _assert_all_pass(records)
    assert len(records) == 3
    assert not solves


def test_criterion_06_fractional_kernel_unit_value():
    _assert_all_pass(_run(6))


def test_criterion_07_reproducing_and_trace_recovery():
    _assert_all_pass(_run(7))


def test_criterion_08_psd_and_cauchy_schwarz(monkeypatch):
    # one Gram PSD flag, whose name and verdict share one eigensolve
    solves = []
    eigenvalues = KernelMatrix.eigenvalues
    monkeypatch.setattr(
        KernelMatrix, "eigenvalues", lambda km: solves.append(km) or eigenvalues(km)
    )
    records = _run(8)
    _assert_all_pass(records)
    assert len(records) == len(solves) == 1


def test_criterion_08_fails_on_a_negative_weight(monkeypatch):
    # the flag checks the assembly: one quadrature weight of the pairing
    # set to minus the circle's length makes the Gram matrix indefinite
    # (flipping the sign of one of 256 weights does not: that needs a
    # node of leverage above 1/2, and the largest here is 0.10)
    gram = rkhs._gram

    def mutant(front, V, weights):
        weights = weights.copy()
        weights[0] = -weights.sum()
        return gram(front, V, weights)

    monkeypatch.setattr(rkhs, "_gram", mutant)
    (record,) = _run(8)
    assert not record.passed


def test_criterion_09_classical_limit():
    _assert_all_pass(_run(9))


def test_criterion_10_pv_quadrature_oracles():
    _assert_all_pass(_run(10))


def test_criterion_11_poisson_kernel_normalization():
    _assert_all_pass(_run(11))


def test_selftest_record_names_unique():
    names = [r.name for r in run_selftest().records]
    assert len(names) == len(set(names))


_C2_WORST = {f"C2: worst extension error, a={a}" for a in (0.25, 0.5, 0.75)}
# the records each negative control fails, by name: 5 and 17
_TRIPPED_RECORDS = {
    "unit-gamma": _C2_WORST | {
        "C6: interval K_{1/2,0}(0,0)",
        "C7: final trace-recovery error",
    },
    "corrupt-kappa": _C2_WORST | {
        "C1: Getoor mass at x=-0.5",
        "C1: Getoor mass at x=0",
        "C1: Getoor mass at x=0.5",
        "C3: FD error ratio t=1e-2 vs 1e-3 in [30, 300] (got 1.0)",
        "C3: central FD at t=1e-3",
        "C3: disk: pair 0: boundary integral vs exact",
        "C3: exact derivative equals 2/(pi sqrt(3))",
        "C3: interval: pair 0: boundary integral vs exact",
        "C6: interval K_{1/2,0}(0,0)",
        "C7: final trace-recovery error",
        "C7: trace-recovery errors decrease along d_values",
        "C9: final error within trend bound",
        "C10: residual at x=0",
        "C10: residual at x=0.2",
    },
}


@pytest.mark.parametrize("control, tripped", [
    ("unit-gamma", {2, 6, 7}),
    ("corrupt-kappa", {1, 2, 3, 6, 7, 9, 10}),
])
def test_control_matrix(control, tripped):
    # the criteria each negative control fails, read off the record
    # prefixes, and the exact records it fails
    with DEBUG_CONTROLS[control]():
        records = run_selftest().records
    failed = {r.name for r in records if not r.passed}
    assert {int(name.split(":")[0][1:]) for name in failed} == tripped
    assert failed == _TRIPPED_RECORDS[control]


# the classical criteria, which no control reaches, each pinned by a
# mutant that fails it: C5 at every pair and s, C4's and C11's Poisson
# boundary integrals
_C5_PAIRS = {f"C5: s={s:g}: K[{i},{j}] vs spectral oracle"
             for s in (-1.0, 0.0, 1.0) for i in range(4) for j in range(i, 4)}


def _scaled_gram(mp):
    gram = rkhs._gram
    mp.setattr(rkhs, "_gram", lambda front, V, weights: gram(front, V, weights) * (1.0 + 1e-7))


def _scaled_poisson(mp):
    # at every module attribute that binds the classical Poisson kernel
    poisson = green.poisson_kernel_classical
    for module in (green, rkhs, acceptance):
        mp.setattr(module, "poisson_kernel_classical",
                   lambda grid, x: poisson(grid, x) * (1.0 + 1e-6))


_MUTANTS = {
    "gram-1e-7": (_scaled_gram, _C5_PAIRS | {"C6: interval K_{1/2,0}(0,0)"}),
    "poisson-1e-6": (_scaled_poisson, _C5_PAIRS | {
        "C4: disk boundary integral equals 1/(2 pi)",
        "C4: disk: pair 0: boundary integral vs exact",
        "C4: interval boundary integral",
        "C4: interval: pair 0: boundary integral vs exact",
        "C11: circle Poisson mass, n=64",
        "C11: interval Poisson mass at x=-0.5",
        "C11: interval Poisson mass at x=0",
        "C11: interval Poisson mass at x=0.5",
    }),
}


@pytest.mark.parametrize("mutant", sorted(_MUTANTS))
def test_mutant_matrix(monkeypatch, mutant):
    # the exact records a mutant fails
    patch, tripped = _MUTANTS[mutant]
    patch(monkeypatch)
    assert {r.name for r in run_selftest().records if not r.passed} == tripped


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
