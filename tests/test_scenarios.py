import json
import math
from importlib import resources

import numpy as np
import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

from kernel_lab.domains import BoundaryGrid, disk, interval
from kernel_lab.errors import ScenarioError
from kernel_lab.report import Report, check, flag
from kernel_lab.scenarios import (
    DEFAULTS_ENV,
    _load_yaml,
    boundary_data_function,
    load_defaults,
    load_scenario,
)


def test_defaults_ship_with_package():
    d = load_defaults()
    assert d["schema"] == "kernel-lab-defaults/1"
    assert d["domain"]["kind"] == "disk"


def test_loader_reads_exponent_floats():
    # YAML 1.1 leaves a float without a decimal point or exponent sign a
    # string; the scenario loader reads it as a number
    got = _load_yaml("v: [1e-3, 1.0e5, 2E+4, -1e-300, 1_0e2, 1e5x, 1.5, 12, .inf]", "t")["v"]
    assert got == [1e-3, 1e5, 2e4, -1e-300, 1e3, "1e5x", 1.5, 12, math.inf]
    # yaml's own loaders keep their tables
    for loader in {yaml.SafeLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader)}:
        assert yaml.load("[1e-3]", Loader=loader) == ["1e-3"]


def test_defaults_parse_as_before():
    text = resources.files("kernel_lab").joinpath("data/defaults.yaml").read_text("utf-8")
    assert _load_yaml(text, "defaults") == yaml.load(text, Loader=yaml.SafeLoader)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8))
def test_json_floats_load_as_floats(values):
    # a scenario written with json.dumps reads back the same doubles
    got = _load_yaml(json.dumps({"v": values}), "json")["v"]
    assert got == values and all(isinstance(v, float) for v in got)


def test_defaults_env_override(tmp_path, monkeypatch):
    alt = tmp_path / "alt.yaml"
    alt.write_text(
        "schema: kernel-lab-defaults/1\n"
        "seed: 7\n"
        "domain: {kind: interval, R: 2.0}\n"
        "params: {a: 0.75, s: 0.0}\n"
        "n_nodes: 16\n",
        encoding="utf-8",
    )
    monkeypatch.setenv(DEFAULTS_ENV, str(alt))
    scn = load_scenario("selftest")
    assert scn.seed() == 7
    assert scn.domain().R == 2.0
    monkeypatch.setenv(DEFAULTS_ENV, str(tmp_path / "missing.yaml"))
    with pytest.raises(ScenarioError):
        load_scenario("selftest")


def test_deep_merge_preserves_siblings(tmp_path):
    scn_file = tmp_path / "s.yaml"
    # override only the mollifier width; points and tolerance must survive
    scn_file.write_text("residual:\n  mollifier: {width: 0.3}\n", encoding="utf-8")
    scn = load_scenario("residual", str(scn_file))
    assert scn.config["mollifier"]["width"] == 0.3
    assert scn.config["mollifier"]["center"] == 0.0
    assert scn.config["points"] == [0.0, 0.2, 0.55]


def test_shared_keys_apply_across_commands(tmp_path):
    scn_file = tmp_path / "s.yaml"
    scn_file.write_text("params: {a: 0.25, s: 0.5}\n", encoding="utf-8")
    for command in ("kernel", "hadamard"):
        scn = load_scenario(command, str(scn_file))
        assert scn.frac_params().a == 0.25


def test_cli_overrides_win(tmp_path):
    scn_file = tmp_path / "s.yaml"
    scn_file.write_text("n_nodes: 128\nseed: 5\n", encoding="utf-8")
    scn = load_scenario("kernel", str(scn_file), nodes=64, seed=11)
    assert scn.n_nodes() == 64
    assert scn.seed() == 11


def test_scenario_validation_errors(tmp_path):
    scn = load_scenario("kernel")
    with pytest.raises(ScenarioError):
        load_scenario("bogus")
    bad_pt = tmp_path / "p.yaml"
    bad_pt.write_text("kernel:\n  points: [[3.0, 0.0]]\n", encoding="utf-8")
    with pytest.raises(ScenarioError):
        load_scenario("kernel", str(bad_pt)).interior_points("points")
    assert scn.interior_points("points")  # defaults are valid


def test_boundary_data_presets():
    circle = BoundaryGrid(disk(1.0), 32)
    f = circle.field_from_function(
        boundary_data_function(circle, {"preset": "cosine", "mode": 2, "amplitude": 0.5})
    )
    assert np.max(np.abs(f.values - 0.5 * np.cos(2.0 * circle.angles))) < 1e-15
    two = BoundaryGrid(interval(1.0), 2)
    g = two.field_from_function(
        boundary_data_function(two, {"preset": "endpoints", "values": [1.0, -2.0]})
    )
    assert list(g.values) == [1.0, -2.0]
    for grid in (circle, two):
        c = grid.field_from_function(
            boundary_data_function(grid, {"preset": "constant", "value": 3.0})
        )
        assert c.values.shape == (grid.n,) and np.all(c.values == 3.0)
    for grid, spec in (
        (two, {"preset": "cosine", "mode": 1}),
        (circle, {"preset": "cosine", "mode": 99}),
        (circle, {"preset": "cosine", "mode": True}),
        (circle, {"preset": "cosine", "amplitude": math.nan}),
        (circle, {"preset": "constant", "value": math.inf}),
        (two, {"preset": "endpoints", "values": [1.0, -math.inf]}),
        (circle, {"preset": "mystery"}),
    ):
        with pytest.raises(ScenarioError):
            boundary_data_function(grid, spec)


@pytest.mark.parametrize("n", [256, 1024, 8192, 65536])
def test_cosine_preset_matches_libm_bitwise(n):
    # the preset samples with np.cos, whose agreement with libm's cos
    # depends on the numpy build and the CPU; the recovery grids of
    # reproduce run up to 65,536 nodes
    grid = BoundaryGrid(disk(1.0), n)
    angles = grid.angles.tolist()
    for mode, amplitude in ((1, 1.0), (2, 0.5), (3, 1.0), (7, -2.5), (17, 1.0)):
        data = boundary_data_function(grid, {"preset": "cosine", "mode": mode,
                                             "amplitude": amplitude})
        ref = np.array([amplitude * math.cos(mode * t) for t in angles])
        got = grid.field_from_function(data).values
        assert got.tobytes() == ref.tobytes(), (mode, amplitude)


def test_report_json_round_trip(tmp_path):
    rep = Report("kernel", scenario={"seed": 3})
    rep.add(check("third", 1.0 / 3.0, 0.3333333333333333, 1e-12))
    rep.add(flag("ok", True))
    path = tmp_path / "r.json"
    rep.write(path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    d = json.loads(raw.decode("utf-8"))
    # repr-style serialization round-trips doubles exactly
    assert d["records"][0]["computed"] == 1.0 / 3.0
    assert d["records"][1]["passed"] is True
    assert set(d["volatile"]) == {"timestamp_utc", "wall_time_s"}


def test_report_overall_logic():
    rep = Report("kernel")
    assert rep.overall_pass  # vacuous
    rep.add(check("near pi", math.pi, 3.14159265358979, 1e-10))
    assert rep.overall_pass
    rep.add(flag("broken", False))
    assert not rep.overall_pass
    assert [r.name for r in rep.failing()] == ["broken"]
