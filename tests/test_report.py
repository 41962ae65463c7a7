import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_lab.report import CheckRecord, Report, check, check_columns, flag

# names that exercise JSON string escaping: quotes, backslashes, control
# characters, non-ASCII text and astral code points
_NAMES = st.one_of(
    st.text(),
    st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f ;é中 \U0001f600'),
)
# every class of double json.dumps writes apart: specials, signed zeros,
# subnormals and the extremes of the exponent range
_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 1e-7]),
)
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS, _NAMES)
_NESTED = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_NAMES, inner, max_size=4)),
    max_leaves=8,
)
_RECORDS = st.builds(CheckRecord, name=_NAMES, computed=_FLOATS, reference=_FLOATS,
                     abs_error=_FLOATS, rel_error=_FLOATS, tolerance=_FLOATS,
                     passed=st.booleans())


def _cells(record):
    # repr tells -0.0 from 0.0 and makes every NaN equal to every other
    return {key: repr(value) for key, value in record.items()}


class _FixedClock(Report):
    """A report whose volatile field is the same on every call."""

    def _volatile(self):
        return {"timestamp_utc": "2000-01-01T00:00:00Z", "wall_time_s": 0.125}


@settings(max_examples=80)
@given(command=_NAMES,
       scenario=st.dictionaries(_NAMES, _NESTED, max_size=4),
       metadata=st.dictionaries(_NAMES, _NESTED, max_size=4),
       records=st.lists(_RECORDS, max_size=6))
def test_to_json_writes_what_json_dumps_writes(command, scenario, metadata, records):
    rep = Report(command, scenario=scenario, metadata=metadata)
    rep.extend(records)
    s = rep.to_json()
    assert s == json.dumps(json.loads(s), indent=2) + "\n"
    assert [_cells(r) for r in json.loads(s)["records"]] == [
        _cells(r) for r in rep.to_dict()["records"]
    ]
    fixed = _FixedClock(command, scenario=scenario, metadata=metadata)
    fixed.extend(records)
    assert fixed.to_json() == json.dumps(fixed.to_dict(), indent=2) + "\n"


def test_to_json_empty_and_special_values():
    fixed = _FixedClock("kernel")
    assert fixed.to_json() == json.dumps(fixed.to_dict(), indent=2) + "\n"
    assert '  "records": [],\n' in fixed.to_json()
    fixed.extend([
        check("nan \"quoted\" name", math.nan, 1.0, 1e-8),
        check("inf\n", math.inf, -math.inf, 1e-8),
        check("signed zero", -0.0, 0.0, 0.0),
        flag("subnormal é", True),
    ])
    s = fixed.to_json()
    assert s == json.dumps(fixed.to_dict(), indent=2) + "\n"
    for token in ('"computed": NaN', '"computed": Infinity', '"reference": -Infinity',
                  '"computed": -0.0', '"name": "subnormal \\u00e9"', '"passed": false'):
        assert token in s


def _rows(records):
    return [_cells(vars(r)) for r in records]


def _check_reference(name, computed, reference, tolerance, rel):
    # the check formula in Python floats, one record at a time
    abs_error = abs(computed - reference)
    rel_error = abs_error / abs(reference) if reference != 0.0 else abs_error
    tol = tolerance * abs(reference) if rel else tolerance
    return CheckRecord(name, computed, reference, abs_error, rel_error, tol,
                       abs_error <= tol)


# columns of (computed, reference) pairs, zero references among them
_PAIRS = st.lists(st.tuples(_FLOATS, st.one_of(_FLOATS, st.sampled_from([0.0, -0.0]))),
                  max_size=12)
_TOLERANCES = st.one_of(st.floats(min_value=0.0, allow_infinity=True),
                        st.sampled_from([0.0, 1e-8, 1e-12]))


@settings(max_examples=150)
@given(pairs=_PAIRS, tolerance=_TOLERANCES, rel=st.booleans())
def test_check_columns_rows_are_check_records(pairs, tolerance, rel):
    names = [f"pair {k}" for k in range(len(pairs))]
    computed = [c for c, _ in pairs]
    reference = [r for _, r in pairs]
    block = check_columns(names, computed, reference, tolerance, rel=rel)
    assert len(block) == len(pairs)
    rows = list(block)
    for name, c, r, row in zip(names, computed, reference, rows):
        for want in (check(name, c, r, tolerance, rel=rel),
                     _check_reference(name, c, r, tolerance, rel)):
            assert _cells(vars(row)) == _cells(vars(want))
    assert _rows(block.failing()) == _rows(row for row in rows if not row.passed)
    assert block.cells("rel_error") == [repr(row.rel_error) for row in rows]


@settings(max_examples=80)
@given(before=st.lists(_RECORDS, max_size=3), pairs=_PAIRS,
       after=st.lists(_RECORDS, max_size=3), rel=st.booleans())
def test_to_json_mixes_blocks_and_records(before, pairs, after, rel):
    fixed = _FixedClock("kernel")
    fixed.extend(before)
    names = [f"K[{k},{k}] \"quoted\" é" for k in range(len(pairs))]
    block = fixed.add(check_columns(names, [c for c, _ in pairs], [r for _, r in pairs],
                                    1e-8, rel=rel))
    fixed.extend(after)
    records = [*before, *block, *after]
    assert _rows(fixed.records) == _rows(records)
    assert len(fixed.records) == len(records)
    assert _rows(fixed.failing()) == _rows(r for r in records if not r.passed)
    assert fixed.overall_pass == all(r.passed for r in records)
    assert fixed.to_json() == json.dumps(fixed.to_dict(), indent=2) + "\n"
