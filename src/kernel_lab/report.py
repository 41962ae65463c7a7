"""Machine-readable verification reports.

A Report is a schema-versioned list of checks plus a scenario echo.  Every
check is made by one formula, check_columns, and is stored in a CheckColumns
block: a record added alone is a one-row block, a list extended at once is
one block.  Readers see the checks one CheckRecord each.  Everything in a
report is deterministic except the single "volatile" field, which holds the
timestamp and wall time; consumers comparing two reports drop that field and
may then compare bytes.
"""

import json
import time
from collections.abc import Sequence
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from operator import attrgetter

import numpy as np

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


def check_columns(names, computed, reference, tolerance, rel=False):
    """The checks of computed against reference, one per name, as a block.

    tolerance is absolute; with rel=True it is scaled by |reference| first.
    rel_error falls back to the absolute error where the reference is zero.
    The formula runs on float64 arrays, whose IEEE operations round as
    Python's float operations do, so row k is the record check builds for
    the k-th values.
    """
    computed = np.asarray(computed, dtype=float)
    reference = np.asarray(reference, dtype=float)
    # inf - inf, inf / inf and overflow give NaN and inf silently, as in
    # Python float arithmetic
    with np.errstate(all="ignore"):
        abs_error = np.abs(computed - reference)
        scale = np.abs(reference)
        rel_error = np.divide(abs_error, scale, out=abs_error.copy(), where=reference != 0.0)
        tol = float(tolerance) * scale if rel else np.full(scale.shape, float(tolerance))
    return CheckColumns(list(names), computed, reference, abs_error, rel_error, tol,
                        abs_error <= tol)


def check(name, computed, reference, tolerance, rel=False):
    """Build a CheckRecord: the one row of check_columns for these values."""
    block = check_columns([name], [float(computed)], [float(reference)], tolerance, rel)
    return next(iter(block))


def flag(name, ok):
    """A boolean check rendered as a 0/1 record with zero tolerance."""
    return check(name, 1.0 if ok else 0.0, 1.0, 0.0)


_FIELDS = tuple(f.name for f in fields(CheckRecord))
_FLOAT_FIELDS = _FIELDS[1:-1]


class CheckColumns:
    """A block of checks held column by column.

    names is a list of str; computed, reference, abs_error, rel_error and
    tolerance are float64 arrays and passed a bool array, all of one
    length.  Iterating yields the rows as CheckRecords.
    """

    def __init__(self, names, computed, reference, abs_error, rel_error, tolerance, passed):
        self.names = names
        self.computed = computed
        self.reference = reference
        self.abs_error = abs_error
        self.rel_error = rel_error
        self.tolerance = tolerance
        self.passed = passed
        self._cells = {}

    @classmethod
    def from_records(cls, records):
        """The block whose rows are these CheckRecords (at least one)."""
        name, *numbers, passed = zip(*map(attrgetter(*_FIELDS), records))
        return cls(list(name), *(np.array(c, dtype=float) for c in numbers),
                   np.array(passed, dtype=bool))

    def __len__(self):
        return len(self.names)

    def __iter__(self):
        return self._rows(range(len(self)))

    def _rows(self, index):
        numbers = (getattr(self, f)[index].tolist() for f in _FLOAT_FIELDS)
        return map(CheckRecord, [self.names[k] for k in index], *numbers,
                   self.passed[index].tolist())

    def failing(self):
        return list(self._rows(np.flatnonzero(~self.passed).tolist()))

    def cells(self, field):
        """A float column as repr writes each double (the shortest digits
        that round-trip it, and nan, inf, -inf), formatted on first use and
        kept, so every writer of the column shares one formatting."""
        if field not in self._cells:
            self._cells[field] = list(map(float.__repr__, getattr(self, field).tolist()))
        return self._cells[field]


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


def _json_cells(cells):
    if _JSON_SPECIAL.keys() & set(cells):
        return [_JSON_SPECIAL.get(c, c) for c in cells]
    return cells


def _records_json(blocks):
    """The records list as json.dumps(..., indent=2) writes it at depth 1,
    written column by column."""
    rows = [
        ",\n".join(map(_RECORD.__mod__, zip(
            map(encode_basestring_ascii, block.names),
            *(_json_cells(block.cells(f)) for f in _FLOAT_FIELDS),
            map(_JSON_BOOL.__getitem__, block.passed.tolist()),
        )))
        for block in blocks
    ]
    return "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"


class _Records(Sequence):
    """A report's checks in order, one CheckRecord each; a block's rows are
    built as they are read."""

    def __init__(self, blocks):
        self._blocks = blocks

    def __len__(self):
        return sum(map(len, self._blocks))

    def __iter__(self):
        for block in self._blocks:
            yield from block

    def __getitem__(self, index):
        return list(self)[index]


class Report:
    """Ordered record collection with overall pass = conjunction (empty passes).

    The checks are kept as CheckColumns blocks; records reads them one
    CheckRecord each.
    """

    def __init__(self, command, scenario=None, metadata=None):
        self.command = command
        self.scenario = dict(scenario) if scenario else {}
        self.metadata = dict(metadata) if metadata else {}
        # nonempty CheckColumns blocks, in order
        self._blocks = []
        self._t0 = time.perf_counter()

    @property
    def records(self):
        return _Records(self._blocks)

    def add(self, record):
        """Append a CheckRecord (as a one-row block) or a CheckColumns
        block; return the argument."""
        block = record if isinstance(record, CheckColumns) else CheckColumns.from_records([record])
        if len(block):
            self._blocks.append(block)
        return record

    def extend(self, records):
        """Append a list of CheckRecords as one block."""
        if records:
            self._blocks.append(CheckColumns.from_records(records))

    @property
    def overall_pass(self):
        return all(bool(np.all(block.passed)) for block in self._blocks)

    def failing(self):
        return [r for block in self._blocks for r in block.failing()]

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
            f'  "records": {_records_json(self._blocks)},\n'
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
