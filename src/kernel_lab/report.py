"""Machine-readable verification reports.

A Report is a schema-versioned bundle of CheckRecords plus a scenario echo.
Everything in it is deterministic except the single "volatile" field, which
holds the timestamp and wall time; consumers comparing two reports drop
that field and may then compare bytes.
"""

import json
import time
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from operator import attrgetter

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
    """Build a CheckRecord.

    tolerance is absolute; with rel=True it is scaled by |reference| first.
    rel_error falls back to the absolute error when the reference is zero.
    """
    computed = float(computed)
    reference = float(reference)
    abs_error = abs(computed - reference)
    rel_error = abs_error / abs(reference) if reference != 0.0 else abs_error
    tol = float(tolerance) * abs(reference) if rel else float(tolerance)
    return CheckRecord(
        name=name,
        computed=computed,
        reference=reference,
        abs_error=abs_error,
        rel_error=rel_error,
        tolerance=tol,
        passed=bool(abs_error <= tol),
    )


def flag(name, ok):
    """A boolean check rendered as a 0/1 record with zero tolerance."""
    value = 1.0 if ok else 0.0
    return CheckRecord(
        name=name,
        computed=value,
        reference=1.0,
        abs_error=1.0 - value,
        rel_error=1.0 - value,
        tolerance=0.0,
        passed=bool(ok),
    )


_FIELDS = tuple(f.name for f in fields(CheckRecord))
# one record at its indent inside the report's "records" list
_RECORD = (
    "    {\n"
    + ",\n".join(f'      "{name}": %s' for name in _FIELDS)
    + "\n    }"
)
_JSON_BOOL = {True: "true", False: "false"}
# json.dumps writes a float as float.__repr__ does (the shortest digits that
# round-trip the exact double), except for these three
_JSON_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_cells(values):
    cells = list(map(float.__repr__, values))
    if _JSON_SPECIAL.keys() & set(cells):
        cells = [_JSON_SPECIAL.get(c, c) for c in cells]
    return cells


def _records_json(records):
    """The records list as json.dumps(..., indent=2) writes it at depth 1."""
    if not records:
        return "[]"
    name, *numbers, passed = zip(*map(attrgetter(*_FIELDS), records))
    columns = (
        map(encode_basestring_ascii, name),
        *map(_float_cells, numbers),
        map(_JSON_BOOL.__getitem__, passed),
    )
    return "[\n" + ",\n".join(map(_RECORD.__mod__, zip(*columns))) + "\n  ]"


class Report:
    """Ordered record collection with overall pass = conjunction (empty passes)."""

    def __init__(self, command, scenario=None, metadata=None):
        self.command = command
        self.scenario = dict(scenario) if scenario else {}
        self.metadata = dict(metadata) if metadata else {}
        self.records = []
        self._t0 = time.perf_counter()

    def add(self, record):
        self.records.append(record)
        return record

    def extend(self, records):
        for r in records:
            self.add(r)

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
        """The bytes of ``json.dumps(self.to_dict(), indent=2) + "\n"``.

        With an indent, json.dumps runs its pure-Python encoder, so the
        records, which are nearly all of a large report, are written here
        from one template at their final indent instead.
        """

        def nested(value):
            # a top-level value, re-indented one level; JSON strings hold
            # no raw newline, so every "\n" is a line break
            return json.dumps(value, indent=2).replace("\n", "\n  ")

        return (
            "{\n"
            f'  "schema": {json.dumps(SCHEMA_VERSION)},\n'
            f'  "command": {json.dumps(self.command)},\n'
            f'  "scenario": {nested(self.scenario)},\n'
            f'  "metadata": {nested(self.metadata)},\n'
            f'  "records": {_records_json(self.records)},\n'
            f'  "overall_pass": {_JSON_BOOL[self.overall_pass]},\n'
            f'  "volatile": {nested(self._volatile())}\n'
            "}\n"
        )

    def write(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_json())


def comparable_form(report_json):
    """Parse report JSON and drop the volatile field, for byte comparisons."""
    parsed = json.loads(report_json)
    parsed.pop("volatile", None)
    return parsed
