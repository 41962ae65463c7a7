import csv
import json
import math
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kernel_lab.rkhs as rkhs
from kernel_lab.acceptance import CRITERIA
from kernel_lab.cli import main
from kernel_lab.report import SCHEMA_VERSION
from kernel_lab.domains import disk, interval
from kernel_lab.rkhs import (
    KernelMatrix,
    gram_matrix,
    kernel_classical,
    kernel_classical_spectral_oracle,
)
from kernel_lab.scenarios import DEFAULTS_ENV
from kernel_lab.specfun import FracParams


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _comparable(path):
    d = _load(path)
    d.pop("volatile")
    return d


def test_kernel_defaults(tmp_path, monkeypatch):
    # one eigensolve serves the PSD flag's name and its verdict
    solves = []
    eigenvalues = KernelMatrix.eigenvalues
    monkeypatch.setattr(
        KernelMatrix, "eigenvalues", lambda km: solves.append(km) or eigenvalues(km)
    )
    out = tmp_path / "k"
    assert main(["kernel", "--out", str(out)]) == 0
    assert len(solves) == 1
    rep = _load(out / "kernel_report.json")
    assert rep["schema"] == SCHEMA_VERSION
    assert rep["overall_pass"] is True
    raw = (out / "kernel_table.csv").read_bytes()
    assert b"\r" not in raw  # LF only
    rows = list(csv.reader(raw.decode("utf-8").splitlines()))
    assert rows[0] == ["i", "j", "x_i_0", "x_i_1", "x_j_0", "x_j_1", "K",
                       "K_oracle", "discrepancy"]
    assert len(rows) == 4  # two default points -> three unordered pairs
    # cells round-trip as exact doubles
    assert float(rows[1][6]) == pytest.approx(float(rows[1][7]), abs=1e-12)


def test_kernel_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["kernel", "--out", str(a)]) == 0
    assert main(["kernel", "--out", str(b)]) == 0
    assert (a / "kernel_table.csv").read_bytes() == (b / "kernel_table.csv").read_bytes()
    assert _comparable(a / "kernel_report.json") == _comparable(b / "kernel_report.json")


def test_kernel_empty_points(tmp_path, capsys):
    # no points, no kernel: refused as invalid input, with nothing written
    scn = tmp_path / "empty.yaml"
    scn.write_text("kernel:\n  points: []\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["kernel", "--scenario", str(scn), "--out", str(out)]) == 2
    assert "at least one point" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("kind, m", [("classical", 7), ("fractional", 5)])
def test_kernel_table_columns(tmp_path, kind, m):
    rng = np.random.default_rng(m)
    r = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, m))
    th = rng.uniform(0.0, 2.0 * math.pi, m)
    pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
    pts[3] = 0.0  # rho = 0 for every pair with the center
    scn = tmp_path / "k.yaml"
    scn.write_text(yaml.safe_dump({"domain": {"kind": "disk"}, "kernel": {
        "kernel_type": kind, "points": pts.tolist()}}), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["kernel", "--scenario", str(scn), "--out", str(out)]) == 0
    rows = (out / "kernel_table.csv").read_text(encoding="utf-8").splitlines()
    cells = [row.split(",") for row in rows[1:]]
    assert [(int(c[0]), int(c[1])) for c in cells] == [
        (i, j) for i in range(m) for j in range(i, m)
    ]
    values = [[float(v) for v in c] for c in cells]  # every cell parses
    for row in values:
        assert row[2:6] == [*pts[int(row[0])], *pts[int(row[1])]]
    records = _load(out / "kernel_report.json")["records"]
    if kind == "classical":
        assert len(records) == len(values) + 2
        for row, rec in zip(values, records):
            i, j, k, oracle, gap = int(row[0]), int(row[1]), *row[6:]
            assert rec["name"] == f"K[{i},{j}] vs spectral oracle"
            assert (k, oracle) == (rec["computed"], rec["reference"])
            assert gap == abs(k - oracle)
    else:
        assert len(rows[0].split(",")) == 7 and len(records) == 2


def test_kernel_reports_a_failing_oracle_pair(tmp_path, monkeypatch, capsys):
    # one perturbed oracle value out of 18,528 pairs: the column block must
    # fail that pair alone, and the report must still hold every record
    rng = np.random.default_rng(11)
    m, bad = 192, 1000
    r = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, m))
    th = rng.uniform(0.0, 2.0 * math.pi, m)
    pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
    oracle = rkhs.kernel_classical_spectral_oracle

    def perturbed(domain, s, x, y):
        out = oracle(domain, s, x, y)
        out[bad] *= 1.0 + 1e-6
        return out

    monkeypatch.setattr(rkhs, "kernel_classical_spectral_oracle", perturbed)
    scn = tmp_path / "k.yaml"
    scn.write_text(yaml.safe_dump({"kernel": {"points": pts.tolist()}}), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["kernel", "--scenario", str(scn), "--out", str(out)]) == 1
    i, j = (int(v[bad]) for v in np.triu_indices(m))
    fails = [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
    assert len(fails) == 1
    assert fails[0].startswith(f"  FAIL K[{i},{j}] vs spectral oracle: computed=")
    rep = _load(out / "kernel_report.json")
    assert rep["overall_pass"] is False
    assert len(rep["records"]) == m * (m + 1) // 2 + 2 == 18530
    assert [r["name"] for r in rep["records"] if not r["passed"]] == [
        f"K[{i},{j}] vs spectral oracle"
    ]


@pytest.mark.parametrize("command, scenario", [
    ("kernel", "domain: {kind: disk, R: 1.0e160}\nkernel: {points: [[0, 0], [1.0e159, 0]]}\n"),
    ("hadamard", "domain: {kind: interval, R: 1.0e160}\nhadamard: {pairs: [[0.0, 1.0e159]]}\n"),
])
def test_huge_radius_is_invalid_input(tmp_path, cli_env, command, scenario):
    # past MAX_RADIUS the closed forms' powers of R overflow
    scn = tmp_path / "huge.yaml"
    scn.write_text(scenario, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "kernel_lab.cli", command, "--scenario", str(scn),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=cli_env,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "invalid input: domain.R must lie in [1e-64, 1e+64]" in proc.stderr


def test_kernel_order_whose_oracle_series_overflows(tmp_path, capsys):
    # at s = -200 the grid kernel's multipliers pass the largest double
    # (so would the oracle's terms (1 + k^2)^200 rho^k at the default
    # points): invalid input, not an OverflowError;
    # at s = -50 both stay finite, while the grid kernel's multipliers, up
    # to (1 + 128^2)^25, lift its roundoff far past the oracle: the pair
    # checks fail, an honest verification failure
    scn = tmp_path / "s.yaml"
    scn.write_text("params: {a: 1.0, s: -200}\n", encoding="utf-8")
    assert main(["kernel", "--scenario", str(scn), "--out", str(tmp_path / "a")]) == 2
    err = capsys.readouterr().err
    assert "invalid input: M^t at t=100 has a non-finite multiplier at mode k=" in err
    scn.write_text("params: {a: 1.0, s: -50}\n", encoding="utf-8")
    assert main(["kernel", "--scenario", str(scn), "--out", str(tmp_path / "b")]) == 1
    rep = _load(tmp_path / "b" / "kernel_report.json")
    assert [r["name"] for r in rep["records"] if not r["passed"]] == [
        f"K[{i},{j}] vs spectral oracle" for i, j in ((0, 0), (0, 1), (1, 1))
    ]


def _rowwise_kernel_table(domain, kind, params, points):
    # the table written one row at a time, every cell by repr: the
    # reference the column writer must reproduce byte for byte
    km = gram_matrix(domain, kind, params.s if kind == "classical" else params, points)
    m = len(points)
    coords = km.points.reshape(m, -1).tolist()
    oracle = kind == "classical" and domain.kind == "disk"
    if domain.kind == "interval":
        header = ["i", "j", "x_i", "x_j", "K"]
    else:
        header = ["i", "j", "x_i_0", "x_i_1", "x_j_0", "x_j_1", "K"]
    if oracle:
        header += ["K_oracle", "discrepancy"]
    lines = [",".join(header)]
    for i in range(m):
        for j in range(i, m):
            k = float(km.entries[i, j])
            row = [i, j, *coords[i], *coords[j], k]
            if oracle:
                ref = float(kernel_classical_spectral_oracle(domain, params.s, km.points[i],
                                                             km.points[j]))
                row += [ref, abs(k - ref)]
            lines.append(",".join(map(repr, row)))
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("kind", ["classical", "fractional"])
@pytest.mark.parametrize("domain, points", [
    (interval(1.0), [0.25, -0.0, 0.0, -0.7, 1.5e-300, 0.1 + 0.2]),
    (disk(1.0), [[0.0, 0.0], [-0.0, 0.5], [0.3, -0.4], [1.0 / 3.0, 2e-310], [-0.6, -0.25]]),
], ids=["interval", "disk"])
def test_kernel_table_bytes_match_rowwise_writer(tmp_path, domain, points, kind):
    params = FracParams(0.4, 0.3)
    scn = tmp_path / "k.yaml"
    scn.write_text(yaml.safe_dump({
        "domain": {"kind": domain.kind, "R": domain.R},
        "params": {"a": params.a, "s": params.s},
        "kernel": {"kernel_type": kind, "points": points},
    }), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["kernel", "--scenario", str(scn), "--out", str(out)]) == 0
    want = _rowwise_kernel_table(domain, kind, params, np.array(points))
    assert (out / "kernel_table.csv").read_bytes() == want


def test_csv_cells_are_plain_numbers(tmp_path):
    # repr of a numpy scalar would write np.float64(...) into a cell
    for command, table in (("kernel", "kernel_table.csv"), ("hadamard", "hadamard_fd.csv"),
                           ("limit", "limit_errors.csv")):
        assert main([command, "--out", str(tmp_path)]) == 0
        text = (tmp_path / table).read_text(encoding="utf-8")
        assert "np." not in text
        for row in text.splitlines()[1:]:
            [float(cell) for cell in row.split(",")]


def test_kernel_interval_fractional(tmp_path):
    scn = tmp_path / "iv.yaml"
    scn.write_text(
        "domain: {kind: interval, R: 1.0}\n"
        "kernel:\n  kernel_type: fractional\n  points: [0.0, 0.3]\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["kernel", "--scenario", str(scn), "--out", str(out)]) == 0
    rows = list(csv.reader((out / "kernel_table.csv").read_text().splitlines()))
    assert rows[0] == ["i", "j", "x_i", "x_j", "K"]
    # K_{1/2,0}(0,0) = 1 on the unit interval
    assert float(rows[1][4]) == pytest.approx(1.0, abs=1e-12)


def test_exponent_floats_in_scenarios(tmp_path):
    # floats written as 1e-3 are numbers, so the scenario runs; a
    # malformed one stays a string and is refused
    scn = tmp_path / "exp.yaml"
    for command, text, code in (
        ("hadamard", "hadamard: {t_list: [1e-2, 1e-3]}", 0),
        ("hadamard", "hadamard: {t_list: [1e-2, 1e-3x]}", 2),
        ("kernel", "domain: {kind: interval}\nkernel: {kernel_type: fractional, "
                   "points: [1e-300, 0.5]}", 0),
        ("kernel", "domain: {kind: interval}\nkernel: {points: [1e5x]}", 2),
    ):
        scn.write_text(text + "\n", encoding="utf-8")
        assert main([command, "--scenario", str(scn), "--out", str(tmp_path)]) == code, text


def test_reproduce_defaults(tmp_path):
    out = tmp_path / "r"
    assert main(["reproduce", "--out", str(out)]) == 0
    rep = _load(out / "reproduce_report.json")
    errs = rep["metadata"]["trace_recovery_errors"]
    assert errs[0] > errs[1] > errs[2]


def test_hadamard_csv(tmp_path):
    out = tmp_path / "h"
    assert main(["hadamard", "--out", str(out)]) == 0
    rows = (out / "hadamard_fd.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0] == "pair,t,fd,abs_error"
    assert len(rows) == 3  # one pair, two steps


def test_limit_honours_n_nodes(tmp_path):
    # the limit kernels run on the scenario's grid, not a fixed one
    out = tmp_path / "l16"
    assert main(["limit", "--nodes", "16", "--out", str(out)]) == 0
    ref = _load(out / "limit_report.json")["metadata"]["classical_reference"]
    x, y = np.zeros(2), np.array([0.5, 0.0])
    assert ref == kernel_classical(disk(1.0), 1.5, x, y, n_nodes=16)
    assert ref != kernel_classical(disk(1.0), 1.5, x, y)


def test_limit_csv(tmp_path):
    out = tmp_path / "l"
    assert main(["limit", "--out", str(out)]) == 0
    rows = list(csv.reader((out / "limit_errors.csv").read_text().splitlines()))
    assert rows[0] == ["a", "abs_error"]
    errs = [float(r[1]) for r in rows[1:]]
    assert errs == sorted(errs, reverse=True)


def test_residual_defaults(tmp_path):
    out = tmp_path / "res"
    assert main(["residual", "--out", str(out)]) == 0
    rep = _load(out / "residual_report.json")
    names = [r["name"] for r in rep["records"]]
    assert any("Getoor" in n for n in names)


def test_selftest(tmp_path):
    out = tmp_path / "s"
    assert main(["selftest", "--out", str(out), "--seed", "99"]) == 0
    rep = _load(out / "selftest_report.json")
    assert rep["schema"] == SCHEMA_VERSION
    assert rep["scenario"]["seed"] == 99
    assert rep["overall_pass"] is True


def test_exit_2_invalid_inputs(tmp_path, capsys):
    assert main(["kernel", "--scenario", str(tmp_path / "nope.yaml"),
                 "--out", str(tmp_path)]) == 2
    bad = tmp_path / "bad.yaml"
    bad.write_text("domain: {kind: hexagon}\n", encoding="utf-8")
    assert main(["kernel", "--scenario", str(bad), "--out", str(tmp_path)]) == 2
    unparseable = tmp_path / "broken.yaml"
    unparseable.write_text("domain: [unclosed\n", encoding="utf-8")
    assert main(["kernel", "--scenario", str(unparseable), "--out", str(tmp_path)]) == 2
    assert main(["kernel", "--nodes", "7", "--out", str(tmp_path)]) == 2
    for command, override in (
        ("residual", "mollifier: {center: .nan}"),
        ("residual", "points: [.nan]"),
        ("residual", "mollifier: 5"),
        ("residual", "tolerance: .inf"),
        ("reproduce", "d_values: []"),
        ("reproduce", "boundary_data: {preset: cosine, amplitude: .nan}"),
        ("reproduce", "boundary_data: {preset: constant, value: .inf}"),
        ("limit", "a_values: []"),
        ("residual", "points: []"),
        ("residual", "budget: 0.5"),
        ("kernel", "params: {s: .inf}"),
        ("kernel", "params: {a: true}"),
        ("kernel", "params: 5"),
        ("kernel", "domain: 5"),
        ("kernel", "domain: {kind: disk, R: .inf}"),
        ("kernel", "domain: {kind: disk, R: 1.0e-65}"),
        ("kernel", "seed: true"),
        ("kernel", "points: []"),
        ("hadamard", "pairs: []"),
        ("hadamard", "t_list: []"),
        ("hadamard", "t_list: [1.0e-2, 1.0e-2]"),
        ("hadamard", "t_list: [1.0e-2]"),
        ("hadamard", "t_list: [1.0e-6, 1.0e-3]"),
        ("hadamard", "t_list: [0.6, 1.0e-3]"),
        ("limit", "a_values: [0.9, 0.9]"),
        ("limit", "n_nodes: 7"),
    ):
        scn = tmp_path / "invalid.yaml"
        scn.write_text(f"{command}:\n  {override}\n", encoding="utf-8")
        assert main([command, "--scenario", str(scn), "--out", str(tmp_path)]) == 2, override
    err = capsys.readouterr().err
    assert "invalid input" in err


def test_classical_kernel_leaves_a_unchecked(tmp_path):
    # s = -1 violates s > -a - 1/2 at the default a = 1/2; a classical
    # kernel only echoes a, so only the fractional kernel refuses it
    for kind, code in (("classical", 0), ("fractional", 2)):
        scn = tmp_path / f"{kind}.yaml"
        scn.write_text(f"params: {{s: -1}}\nkernel: {{kernel_type: {kind}}}\n",
                       encoding="utf-8")
        assert main(["kernel", "--scenario", str(scn), "--out", str(tmp_path / kind)]) == code


@pytest.mark.parametrize("command", ["hadamard", "residual"])
def test_order_only_commands_leave_s_unchecked(tmp_path, command):
    # hadamard and residual read a alone: s = -1, which violates
    # s > -a - 1/2 at a = 1/2, is accepted; an order outside (0, 1] is not
    for params, code in (("{a: 0.5, s: -1}", 0), ("{a: 1.5}", 2), ("{a: 0}", 2)):
        scn = tmp_path / "params.yaml"
        scn.write_text(f"params: {params}\n", encoding="utf-8")
        assert main([command, "--scenario", str(scn), "--out", str(tmp_path)]) == code, params


def test_limit_reads_s_alone(tmp_path):
    # limit takes its orders from a_values (default 0.9, 0.99, 0.999) and
    # checks each with s, so params.a is not validated; an s that one of
    # the orders rejects (s > -a - 1/2 fails at a = 0.9) still exits 2
    for params, code in (("{a: 1.5, s: 0}", 0), ("{a: 0.5, s: -1.2}", 0), ("{s: -1.45}", 2)):
        scn = tmp_path / "params.yaml"
        scn.write_text(f"params: {params}\n", encoding="utf-8")
        assert main(["limit", "--scenario", str(scn), "--out", str(tmp_path)]) == code, params


@pytest.mark.parametrize("domain, pair", [
    ("interval", "[1.0e-200, 2.0e-200]"),
    ("disk", "[[1.0e-200, 0.0], [2.0e-200, 0.0]]"),
])
def test_hadamard_underflowing_gap_exits_2(tmp_path, capsys, domain, pair):
    scn = tmp_path / "gap.yaml"
    scn.write_text(f"domain: {{kind: {domain}}}\nhadamard:\n  pairs: [{pair}]\n",
                   encoding="utf-8")
    assert main(["hadamard", "--scenario", str(scn), "--out", str(tmp_path)]) == 2
    assert "singular at x == y" in capsys.readouterr().err


# keys each command parses, with the sub-keys of the mapping-valued ones
_PARSED_KEYS = (
    ("reproduce", "boundary_data", ("preset", "mode", "amplitude")),
    ("reproduce", "x", None),
    ("reproduce", "d_values", None),
    ("limit", "x", None),
    ("limit", "y", None),
    ("limit", "a_values", None),
    ("residual", "mollifier", ("center", "width")),
    ("residual", "points", None),
    ("residual", "tolerance", None),
    ("residual", "budget", None),
    ("kernel", "kernel_type", None),
    ("kernel", "points", None),
    ("hadamard", "pairs", None),
    ("hadamard", "t_list", None),
    ("limit", "n_nodes", None),
)
_BAD_ATOMS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, True, False, None]),
    st.text(alphabet="abxyz", max_size=3),
)
_NOT_A_MAPPING = st.one_of(_BAD_ATOMS, st.just([]), st.lists(_BAD_ATOMS, min_size=1, max_size=3))


@st.composite
def _malformed_override(draw):
    command, key, sub_keys = draw(st.sampled_from(_PARSED_KEYS))
    if sub_keys is None:
        value = draw(st.one_of(
            _NOT_A_MAPPING, st.dictionaries(st.just("k"), _BAD_ATOMS, max_size=1)
        ))
    else:
        value = draw(st.one_of(
            _NOT_A_MAPPING, st.fixed_dictionaries({draw(st.sampled_from(sub_keys)): _BAD_ATOMS})
        ))
    return command, {command: {key: value}}


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_malformed_override())
def test_fuzzed_scenario_exits_2(tmp_path, override):
    command, doc = override
    scn = tmp_path / "fuzz.yaml"
    scn.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert main([command, "--scenario", str(scn), "--out", str(tmp_path)]) == 2, doc


def _criterion_records(monkeypatch, tmp_path, number, prefix):
    # the criterion's records under prefix, stripped of it; a criterion
    # that read the defaults would fail to load them here
    monkeypatch.setenv(DEFAULTS_ENV, str(tmp_path / "missing.yaml"))
    return [
        dict(asdict(rec), name=rec.name[len(prefix):])
        for rec in dict(CRITERIA)[number]()
        if rec.name.startswith(prefix)
    ]


@pytest.mark.parametrize("command, number, prefix", [
    pytest.param(command, number, prefix, id=f"{command}-{number}")
    for command, number, prefix in (
        ("reproduce", 7, "C7: "),
        ("limit", 9, "C9: "),
        ("residual", 10, "C10: "),
        ("hadamard", 3, "C3: disk: "),
    )
])
def test_command_equals_its_criterion(tmp_path, monkeypatch, command, number, prefix):
    # the command at the packaged defaults and the criterion at its own
    # written-out inputs build the same records
    assert main([command, "--out", str(tmp_path)]) == 0
    got = _load(tmp_path / f"{command}_report.json")["records"]
    assert got == _criterion_records(monkeypatch, tmp_path, number, prefix)


@pytest.mark.parametrize("number, kind, a, pair, count", [
    (3, "interval", 0.5, [0.0, 0.5], 4),
    (4, "disk", 1.0, [[0.0, 0.0], [0.5, 0.0]], 4),
    # the classical interval FD sits at the roundoff floor: no order flag
    (4, "interval", 1.0, [0.0, 0.5], 3),
])
def test_hadamard_equals_criterion_block(tmp_path, monkeypatch, number, kind, a, pair, count):
    # hadamard on a scenario holding one C3/C4 block's written-out inputs
    # builds that block's records
    scn = tmp_path / "block.yaml"
    scn.write_text(yaml.safe_dump({
        "domain": {"kind": kind, "R": 1.0},
        "params": {"a": a, "s": 0.0},
        "n_nodes": 256,
        "hadamard": {"pairs": [pair], "t_list": [1e-2, 1e-3]},
    }), encoding="utf-8")
    assert main(["hadamard", "--scenario", str(scn), "--out", str(tmp_path)]) == 0
    rep = _load(tmp_path / "hadamard_report.json")
    want = _criterion_records(monkeypatch, tmp_path, number, f"C{number}: {kind}: ")
    assert len(want) == count
    assert rep["records"] == want
    flagged = any(r["name"] == "pair 0: FD order close to 2" for r in want)
    assert flagged == (rep["metadata"]["pairs"][0]["order"] is not None) == (count == 4)


@pytest.mark.parametrize("s", [-1.0, 0.0, 1.0])
def test_kernel_equals_criterion_5(tmp_path, monkeypatch, s):
    # kernel on a scenario holding C5's written-out inputs builds C5's
    # records for that s: 10 pair checks, the PSD and the symmetry flag
    c, sn = math.cos(math.pi / 3.0), math.sin(math.pi / 3.0)
    points = [[0.3, 0.0], [0.3 * c, 0.3 * sn], [0.6, 0.0], [0.6 * c, 0.6 * sn]]
    scn = tmp_path / "c5.yaml"
    scn.write_text(yaml.safe_dump({
        "domain": {"kind": "disk", "R": 1.0},
        "params": {"a": 1.0, "s": s},
        "n_nodes": 512,
        "kernel": {"kernel_type": "classical", "points": points},
    }), encoding="utf-8")
    assert main(["kernel", "--scenario", str(scn), "--out", str(tmp_path)]) == 0
    got = _load(tmp_path / "kernel_report.json")["records"]
    want = _criterion_records(monkeypatch, tmp_path, 5, f"C5: s={s:g}: ")
    assert len(want) == 12
    assert got == want


def test_unknown_command_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_exit_3_numeric_failure(tmp_path, capsys):
    scn = tmp_path / "tiny.yaml"
    scn.write_text("residual:\n  budget: 200\n", encoding="utf-8")
    assert main(["residual", "--scenario", str(scn), "--out", str(tmp_path)]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_debug_corrupt_kappa_fails_selftest(tmp_path):
    out = tmp_path / "dbg"
    assert main(["selftest", "--debug", "corrupt-kappa", "--out", str(out)]) == 1
    rep = _load(out / "selftest_report.json")
    assert rep["overall_pass"] is False
    failing = {r["name"] for r in rep["records"] if not r["passed"]}
    assert any("C1" in name for name in failing)
    # the exact Hadamard route reads kappa through the same seam
    assert "C3: exact derivative equals 2/(pi sqrt(3))" in failing
    # the residual oracle integrates the corrupted Green function
    assert "C10: residual at x=0" in failing


def test_debug_corrupt_kappa_fails_residual(tmp_path):
    out = tmp_path / "dbg3"
    assert main(["residual", "--debug", "corrupt-kappa", "--out", str(out)]) == 1
    rep = _load(out / "residual_report.json")
    failing = {r["name"] for r in rep["records"] if not r["passed"]}
    # x = 0 is the bump's center: the corrupted kappa reaches the part of the
    # field computed inside the support too
    assert "residual at x=0" in failing


def test_debug_unit_gamma_fails_reproduce(tmp_path):
    out = tmp_path / "dbg2"
    assert main(["reproduce", "--debug", "unit-gamma", "--out", str(out)]) == 1


def test_debug_unit_gamma_fails_c7(tmp_path):
    out = tmp_path / "dbg4"
    assert main(["selftest", "--debug", "unit-gamma", "--out", str(out)]) == 1
    rep = _load(out / "selftest_report.json")
    failing = {r["name"] for r in rep["records"] if not r["passed"]}
    assert "C7: final trace-recovery error" in failing


def test_setup_leaves_scipy_integrate_and_interpolate_unloaded(cli_env):
    # both are imported on first use; loading them costs about 0.5 s
    code = (
        "import sys, kernel_lab.cli\n"
        "from kernel_lab.scenarios import COMMANDS, load_scenario\n"
        "[load_scenario(c) for c in COMMANDS]\n"
        "print([m for m in ('scipy.integrate', 'scipy.interpolate') if m in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=cli_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_console_script_entry(tmp_path, cli_env):
    proc = subprocess.run(
        [sys.executable, "-m", "kernel_lab.cli", "kernel", "--out", "out"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=cli_env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "kernel: " in proc.stdout
    # the relative --out resolves against the child's cwd
    assert (tmp_path / "out" / "kernel_report.json").exists()
