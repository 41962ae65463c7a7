"""The benchmark's workloads.

A workload turns the seed into a fixed list of operations, drawn once per
run so that every pass sees identical inputs.  Each operation is timed on
its own, then checked outside the timed region:

* ``ok``: the answer meets its tolerance (CLI: exit code 0 and
  ``overall_pass``) and is byte-identical to the first pass's answer;
  for reports this is judged on ``report.comparable_form``, which drops
  the ``volatile`` field (criterion C12);
* ``refused``: the program declined to certify an answer
  (``ToleranceError`` or ``ConsistencyError``; CLI exit code 3);
* ``wrong``: anything else, i.e. a value outside its tolerance, a
  non-identical report, another exception or another exit code.

Refused and wrong operations both count against ``pass_ratio`` (and in
``fail_ratio``).  Only a wrong operation, or a refusal that is not one of
KNOWN_REFUSALS, counts as ``failed`` in the result line; only a wrong one
makes the run incorrect.  A known refusal is the program's documented
answer on an input it cannot certify yet: it is expected, so it is no
failure of the run, but it is still not a verified answer.
"""

import contextlib
import hashlib
import importlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass

import numpy as np

OK, REFUSED, WRONG = "ok", "refused", "wrong"

CLI_COMMANDS = ("kernel", "reproduce", "hadamard", "limit", "residual", "selftest")

GETOOR_ORDERS = (0.25, 0.5, 0.75, 0.9)

# Refusals the program is known to make on this workload, as (call,
# domain, a): every frac_laplacian_apply at a = 0.9, the disk a-harmonic
# field at a = 0.75 and disk green_mass at a = 0.25 (budget exhausted)
# refuse at every point; the a-harmonic field also refuses at some points
# on the interval at a = 0.25 and 0.75 and on the disk at a = 0.25.  The
# inputs stay in the workload so that fixing them shows as fewer failures;
# the ledger marks each failure as known or not.
KNOWN_REFUSALS = frozenset({
    ("frac_laplacian_apply/getoor_field", "interval", 0.9),
    ("frac_laplacian_apply/getoor_field", "disk", 0.9),
    ("frac_laplacian_apply/boundary_singular_field", "interval", 0.9),
    ("frac_laplacian_apply/boundary_singular_field", "disk", 0.9),
    ("frac_laplacian_apply/boundary_singular_field", "disk", 0.75),
    ("green_mass", "disk", 0.25),
    ("frac_laplacian_apply/boundary_singular_field", "interval", 0.25),
    ("frac_laplacian_apply/boundary_singular_field", "interval", 0.75),
    ("frac_laplacian_apply/boundary_singular_field", "disk", 0.25),
})


@dataclass
class Outcome:
    status: str
    error: str = ""
    fingerprint: str = ""


def _kl(name=""):
    # resolved at call time, so a traced pass calls through the wrappers
    return importlib.import_module("kernel_lab" + (f".{name}" if name else ""))


def _disk_points(rng, count, radius):
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, count))
    th = rng.uniform(0.0, 2.0 * math.pi, count)
    return np.column_stack([r * np.cos(th), r * np.sin(th)])


class CliOperation:
    """One ``kernel_lab.cli.main`` invocation writing into its own directory."""

    def __init__(self, argv, out_dir, label):
        self.argv = [*argv, "--out", str(out_dir)]
        self.out_dir = out_dir
        self.labels = {"call": f"cli {label}", "domain": None, "a": None, "point": None}

    def prepare(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def run(self):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return _kl("cli").main(self.argv)

    def check(self, code):
        if code == 3:
            return Outcome(REFUSED, "exit 3")
        if code != 0:
            return Outcome(WRONG, f"exit {code}")
        comparable_form = _kl("report").comparable_form
        digest = hashlib.sha256()
        for path in sorted(self.out_dir.iterdir()):
            data = path.read_bytes()
            if path.name.endswith("_report.json"):
                report = comparable_form(data.decode("utf-8"))
                if report.get("overall_pass") is not True:
                    return Outcome(WRONG, "overall_pass false")
                data = json.dumps(report).encode("utf-8")
            digest.update(path.name.encode("utf-8") + b"\0" + data + b"\0")
        return Outcome(OK, fingerprint=digest.hexdigest())


class LibraryOperation:
    """One library call whose value is checked against a reference."""

    def __init__(self, call, domain, a, point, fn, reference, tolerance, rel):
        self.labels = {"call": call, "domain": domain.kind, "a": a,
                       "point": np.asarray(point).tolist()}
        self.fn = fn
        self.reference = reference
        self.tolerance = tolerance * abs(reference) if rel else tolerance

    def prepare(self):
        pass

    def run(self):
        return self.fn()

    def check(self, value):
        value = float(value)
        if not abs(value - self.reference) <= self.tolerance:
            return Outcome(WRONG, f"value {value!r} misses {self.reference!r} "
                                  f"by more than {self.tolerance!r}")
        return Outcome(OK, fingerprint=repr(value))


def cli_defaults(seed, out_dir):
    """The six CLI commands at the packaged defaults."""
    return [
        CliOperation([cmd, "--seed", str(seed)], out_dir / cmd, cmd)
        for cmd in CLI_COMMANDS
    ]


def kernel(seed, out_dir):
    """Two kernel commands on the unit disk at seeded points, |x| <= 0.9."""
    rng = np.random.default_rng(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    ops = []
    for label, m, extra in (
        ("classical", 192, {}),
        ("fractional", 384, {"params": {"a": 0.5, "s": 0.0}}),
    ):
        scenario = {
            "domain": {"kind": "disk", "R": 1.0},
            **extra,
            "kernel": {"kernel_type": label,
                       "points": _disk_points(rng, m, 0.9).tolist()},
        }
        # JSON is YAML; floats keep their shortest round-trip digits
        path = out_dir / f"{label}.scenario.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        ops.append(CliOperation(
            ["kernel", "--scenario", str(path), "--seed", str(seed)],
            out_dir / label, f"kernel {label} m={m}"))
    return ops


def getoor(seed, out_dir):
    """Getoor identity, a-harmonic annihilation and Green mass, library API."""
    kl = _kl()
    rng = np.random.default_rng(seed)
    c10_quad = kl.QuadratureSpec(rel_tol=1e-3, abs_tol=1e-4, resolution=64,
                                 budget=10**6)
    domains = (kl.interval(1.0), kl.disk(1.0))

    def draw(domain, count):
        if domain.kind == "interval":
            return [float(x) for x in rng.uniform(-0.6, 0.6, count)]
        return list(_disk_points(rng, count, 0.6))

    ops = []
    for a in GETOOR_ORDERS:
        for domain in domains:
            ref = kl.getoor_reference(domain.N, a)
            for x in draw(domain, 8 if domain.kind == "interval" else 3):
                ops.append(LibraryOperation(
                    "frac_laplacian_apply/getoor_field", domain, a, x,
                    lambda d=domain, a=a, x=x: _kl().frac_laplacian_apply(
                        _kl().getoor_field(d, a), a, x),
                    ref, 1e-3, rel=True))
        for domain in domains:
            (x,) = draw(domain, 1)
            ops.append(LibraryOperation(
                "frac_laplacian_apply/boundary_singular_field", domain, a, x,
                lambda d=domain, a=a, x=x: _kl().frac_laplacian_apply(
                    _kl().boundary_singular_field(d, a), a, x, c10_quad),
                0.0, 1e-3, rel=False))
        for domain in domains:
            (x,) = draw(domain, 1)
            ops.append(LibraryOperation(
                "green_mass", domain, a, x,
                lambda d=domain, a=a, x=x: _kl().green_mass(d, a, x),
                kl.torsion_reference(domain, a, x), 1e-6, rel=True))
    return ops


WORKLOADS = {
    "cli-defaults": cli_defaults,
    "kernel": kernel,
    "getoor": getoor,
}


def run_operation(op):
    """Run one operation; (elapsed seconds, Outcome)."""
    errors = _kl("errors")
    op.prepare()
    t0 = time.perf_counter()
    try:
        value = op.run()
    except (errors.ToleranceError, errors.ConsistencyError) as exc:
        return time.perf_counter() - t0, Outcome(REFUSED, type(exc).__name__)
    except Exception as exc:  # any other exception is a wrong answer
        return time.perf_counter() - t0, Outcome(WRONG, f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - t0
    return elapsed, op.check(value)
