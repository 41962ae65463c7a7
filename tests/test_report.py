import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_lab.report import CheckRecord, Report, check, flag

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
    # the check formula in Python floats, one record at a time; a reference
    # or tolerance that is not finite fails
    abs_error = abs(computed - reference)
    rel_error = abs_error / abs(reference) if reference != 0.0 else abs_error
    tol = tolerance * abs(reference) if rel else tolerance
    finite = math.isfinite(reference) and math.isfinite(tolerance)
    return CheckRecord(name, computed, reference, abs_error, rel_error, tol,
                       finite and abs_error <= tol)


# lists of (computed, reference) pairs, zero references among them
_PAIRS = st.lists(st.tuples(_FLOATS, st.one_of(_FLOATS, st.sampled_from([0.0, -0.0]))),
                  max_size=12)
_TOLERANCES = st.one_of(st.floats(min_value=0.0, allow_infinity=True),
                        st.sampled_from([0.0, 1e-8, 1e-12]))


@settings(max_examples=150)
@given(pairs=_PAIRS, tolerance=_TOLERANCES, rel=st.booleans())
def test_check_is_the_reference_formula(pairs, tolerance, rel):
    for k, (c, r) in enumerate(pairs):
        got = check(f"pair {k}", c, r, tolerance, rel=rel)
        want = _check_reference(f"pair {k}", c, r, tolerance, rel)
        assert _cells(vars(got)) == _cells(vars(want))
        assert type(got.passed) is bool


@pytest.mark.parametrize("computed, reference, tolerance, rel", [
    (1.0, math.inf, 1e-8, True),
    (math.inf, -math.inf, 1e-8, True),
    (1.0, 1.0, math.inf, False),
], ids=["finite-vs-inf-reference", "inf-vs-minus-inf", "inf-tolerance"])
def test_check_fails_a_reference_or_tolerance_that_is_not_finite(computed, reference,
                                                                 tolerance, rel):
    # inf <= inf held in each case, so each record passed
    got = check("not finite", computed, reference, tolerance, rel=rel)
    assert got.passed is False
    assert _cells(vars(got)) == _cells(vars(
        _check_reference("not finite", computed, reference, tolerance, rel)))


def _flag_reference(name, ok):
    # flag as it was written out by hand before it called check
    value = 1.0 if ok else 0.0
    return CheckRecord(name=name, computed=value, reference=1.0, abs_error=1.0 - value,
                       rel_error=1.0 - value, tolerance=0.0, passed=bool(ok))


@given(name=_NAMES, ok=st.one_of(st.booleans(), st.sampled_from([0, 1, 2, None, "", "x"])))
def test_flag_is_the_hand_built_record(name, ok):
    got, want = flag(name, ok), _flag_reference(name, ok)
    for key in vars(want):
        assert type(getattr(got, key)) is type(getattr(want, key))
        assert repr(getattr(got, key)) == repr(getattr(want, key))
    assert type(got.passed) is bool


_CHECKS = st.builds(check, name=_NAMES, computed=_FLOATS, reference=_FLOATS,
                    tolerance=_TOLERANCES, rel=st.booleans())
_FLAGS = st.builds(flag, name=_NAMES, ok=st.booleans())
_ONE = st.one_of(_CHECKS, _FLAGS, _RECORDS)
_OPERATIONS = st.lists(st.one_of(
    st.tuples(st.just("add"), _ONE),
    st.tuples(st.just("extend"), st.lists(_ONE, max_size=4)),
), max_size=8)


@settings(max_examples=150)
@given(operations=_OPERATIONS)
def test_report_reads_back_what_was_added(operations):
    # the report against a plain list of its records, whatever mix of
    # single records and lists built it
    rep, model = _FixedClock("selftest"), []
    for op, *args in operations:
        if op == "add":
            assert rep.add(args[0]) is args[0]
            model.append(args[0])
        else:
            rep.extend(args[0])
            model += args[0]
    assert _rows(rep.records) == _rows(model)
    assert len(rep.records) == len(model)
    assert _rows(rep.failing()) == _rows(r for r in model if not r.passed)
    assert rep.overall_pass is all(r.passed for r in model)
    assert rep.to_json() == json.dumps(rep.to_dict(), indent=2) + "\n"
