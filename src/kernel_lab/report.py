"""Machine-readable verification reports.

A Report is a schema-versioned list of checks plus a scenario echo.  Every
check is one CheckRecord made by one formula, check.  A report holds
verdicts; a command's values go into its CSV table.  Everything in a
report is deterministic except the single "volatile" field, which holds the
timestamp and wall time; consumers comparing two reports drop that field and
may then compare bytes.
"""

import json
import math
import time
from dataclasses import dataclass

SCHEMA_VERSION = "kernel-lab-report/1"


@dataclass(frozen=True)
class CheckRecord:
    name: str
    computed: float
    reference: float
    abs_error: float
    rel_error: float
    tolerance: float
    passed: bool


def check(name, computed, reference, tolerance, rel=False):
    """The check of computed against reference, in Python floats.

    tolerance is absolute; with rel=True it is scaled by |reference| first.
    rel_error falls back to the absolute error where the reference is zero.
    inf - inf and inf * 0 give NaN, which fails.  A reference or tolerance
    that is not finite fails too: against an infinite tolerance, or
    (rel=True) an infinite reference, inf <= inf would pass any value.
    """
    computed, reference, tolerance = float(computed), float(reference), float(tolerance)
    abs_error = abs(computed - reference)
    rel_error = abs_error / abs(reference) if reference != 0.0 else abs_error
    tol = tolerance * abs(reference) if rel else tolerance
    passed = abs_error <= tol and math.isfinite(reference) and math.isfinite(tolerance)
    return CheckRecord(name, computed, reference, abs_error, rel_error, tol, passed)


def flag(name, ok):
    """A boolean check rendered as a 0/1 record with zero tolerance."""
    return check(name, 1.0 if ok else 0.0, 1.0, 0.0)


class Report:
    """Ordered record collection with overall pass = conjunction (empty passes)."""

    def __init__(self, command, scenario=None, metadata=None):
        self.command = command
        self.scenario = dict(scenario) if scenario else {}
        self.metadata = dict(metadata) if metadata else {}
        self.records = []
        self._t0 = time.perf_counter()

    def add(self, record):
        """Append a CheckRecord; return it."""
        self.records.append(record)
        return record

    def extend(self, records):
        """Append a list of CheckRecords."""
        self.records.extend(records)

    @property
    def overall_pass(self):
        return all(r.passed for r in self.records)

    def failing(self):
        return [r for r in self.records if not r.passed]

    def _volatile(self):
        return {
            "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "wall_time_s": time.perf_counter() - self._t0,
        }

    def to_dict(self):
        return {
            "schema": SCHEMA_VERSION,
            "command": self.command,
            "scenario": self.scenario,
            "metadata": self.metadata,
            # a shallow copy of each record's fields: they are scalars
            "records": [dict(vars(r)) for r in self.records],
            "overall_pass": self.overall_pass,
            "volatile": self._volatile(),
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def write(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_json())


def comparable_form(report_json):
    """Parse report JSON and drop the volatile field, for byte comparisons."""
    parsed = json.loads(report_json)
    parsed.pop("volatile", None)
    return parsed
