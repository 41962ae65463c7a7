"""Scenario ingestion for the command-line front end.

A scenario is a YAML mapping merged over the pinned defaults shipped with
the package (data/defaults.yaml; override the path with the
KERNEL_LAB_DEFAULTS environment variable).  Merging is by key at any
depth, the command section sits on top of the shared keys, and every
derived object (domain, params, grids, boundary data) is validated here
so the commands can assume a well-formed configuration.
"""

import math
import os
import re
from dataclasses import dataclass
from importlib import resources

import numpy as np
import yaml

from .domains import DISK, INTERVAL, ModelDomain, boundary_grid
from .errors import DomainError, ScenarioError
from .fracop import MollifierSpec
from .specfun import FracParams

DEFAULTS_ENV = "KERNEL_LAB_DEFAULTS"
DEFAULTS_SCHEMA = "kernel-lab-defaults/1"

COMMANDS = ("kernel", "reproduce", "hadamard", "limit", "residual", "selftest")

MAX_NODES = 1 << 20

# admitted radii: the closed forms raise R and interior coordinates to
# powers up to the fourth (green_classical's R^4), which stays a normal
# double here; past it Python's float ** raises OverflowError
MIN_RADIUS, MAX_RADIUS = 1e-64, 1e64


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The safe loader (libyaml's parser when present), also reading 1e-3,
    1.0e5 and 2E+4 as floats, which the YAML 1.1 rule leaves as strings.
    add_implicit_resolver gives the subclass its own copy of the table."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?[0-9][0-9_]*(\.[0-9_]*)?[eE][-+]?[0-9]+$"),
    list("-+0123456789"),
)


def _load_yaml(text, origin):
    try:
        data = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{origin}: not valid YAML ({exc})") from exc
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ScenarioError(f"{origin}: top level must be a mapping")
    return data


def load_defaults():
    override = os.environ.get(DEFAULTS_ENV)
    if override:
        try:
            with open(override, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ScenarioError(f"cannot read {DEFAULTS_ENV}={override}: {exc}") from exc
        data = _load_yaml(text, override)
    else:
        text = resources.files("kernel_lab").joinpath("data/defaults.yaml").read_text("utf-8")
        data = _load_yaml(text, "packaged defaults")
    if data.get("schema") != DEFAULTS_SCHEMA:
        raise ScenarioError(
            f"defaults schema {data.get('schema')!r} != {DEFAULTS_SCHEMA!r}"
        )
    return data


def _deep_merge(base, extra):
    out = dict(base)
    for key, val in extra.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = val
    return out


def _finite(val):
    return isinstance(val, (int, float)) and not isinstance(val, bool) and math.isfinite(val)


@dataclass
class Scenario:
    """A validated command configuration."""

    command: str
    config: dict

    def _mapping(self, key):
        spec = self.config.get(key, {})
        if not isinstance(spec, dict):
            raise ScenarioError(f"{key} must be a mapping, got {spec!r}")
        return spec

    def domain(self):
        spec = self._mapping("domain")
        kind = spec.get("kind")
        if kind not in (INTERVAL, DISK):
            raise ScenarioError(f"domain.kind must be interval or disk, got {kind!r}")
        R = spec.get("R", 1.0)
        if not (_finite(R) and MIN_RADIUS <= R <= MAX_RADIUS):
            raise ScenarioError(
                f"domain.R must lie in [{MIN_RADIUS:g}, {MAX_RADIUS:g}], got {R!r}")
        return ModelDomain(kind, float(R))

    def params(self):
        """(a, s) as finite floats, not yet checked as a FracParams pair."""
        spec = self._mapping("params")
        a, s = spec.get("a", 0.5), spec.get("s", 0.0)
        if not (_finite(a) and _finite(s)):
            raise ScenarioError(f"params a and s must be finite numbers, got a={a!r}, s={s!r}")
        return float(a), float(s)

    def order(self):
        """The fractional order a alone, checked to lie in (0, 1], for the
        commands that never read s."""
        a, _ = self.params()
        if not 0.0 < a <= 1.0:
            raise ScenarioError(f"invalid params: fractional order a must lie in (0, 1], got {a}")
        return a

    def frac_params(self):
        try:
            return FracParams(*self.params())
        except DomainError as exc:
            raise ScenarioError(f"invalid params: {exc}") from exc

    def n_nodes(self):
        n = self.config.get("n_nodes", 256)
        if not isinstance(n, int) or n < 2 or n > MAX_NODES:
            raise ScenarioError(f"n_nodes must be an int in [2, {MAX_NODES}], got {n!r}")
        return n

    def seed(self):
        seed = self.config.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed <= 2**64 - 1:
            raise ScenarioError(f"seed must be a u64, got {seed!r}")
        return seed

    def grid(self):
        return boundary_grid(self.domain(), self.n_nodes())

    def interior_point(self, key):
        domain = self.domain()
        raw = self.config.get(key)
        if raw is None:
            raise ScenarioError(f"scenario is missing the point {key!r}")
        return self._coerce_interior(domain, raw, key)

    def interior_points(self, key):
        domain = self.domain()
        raw = self.config.get(key)
        if raw is None:
            raise ScenarioError(f"scenario is missing the point list {key!r}")
        if not isinstance(raw, list):
            raise ScenarioError(f"{key} must be a list of points")
        return [self._coerce_interior(domain, p, f"{key}[{i}]") for i, p in enumerate(raw)]

    def point_pairs(self, key):
        domain = self.domain()
        raw = self.config.get(key, [])
        if not isinstance(raw, list):
            raise ScenarioError(f"{key} must be a list of [x, y] pairs")
        pairs = []
        for i, entry in enumerate(raw):
            if not isinstance(entry, list) or len(entry) != 2:
                raise ScenarioError(f"{key}[{i}] must be a two-element [x, y] pair")
            pairs.append(
                (
                    self._coerce_interior(domain, entry[0], f"{key}[{i}][0]"),
                    self._coerce_interior(domain, entry[1], f"{key}[{i}][1]"),
                )
            )
        return pairs

    def positive(self, key, kind=float):
        val = self.config.get(key)
        if not _finite(val) or not val > 0 or (kind is int and not isinstance(val, int)):
            raise ScenarioError(f"{key} must be a finite positive {kind.__name__}, got {val!r}")
        return kind(val)

    def number_list(self, key, lo=None, hi=None):
        raw = self.config.get(key)
        if not isinstance(raw, list) or not all(map(_finite, raw)):
            raise ScenarioError(f"{key} must be a list of finite numbers")
        vals = [float(v) for v in raw]
        for v in vals:
            if (lo is not None and v < lo) or (hi is not None and v > hi):
                raise ScenarioError(f"{key} entries must lie in [{lo}, {hi}], got {v}")
        return vals

    def mollifier(self):
        domain = self.domain()
        spec = self._mapping("mollifier")
        center, width = spec.get("center", 0.0), spec.get("width", 0.0)
        if not (_finite(center) and _finite(width)):
            raise ScenarioError("mollifier center and width must be finite numbers")
        try:
            return MollifierSpec(domain, float(center), float(width))
        except DomainError as exc:
            raise ScenarioError(f"invalid mollifier: {exc}") from exc

    @staticmethod
    def _coerce_interior(domain, raw, label):
        if not all(map(_finite, raw if isinstance(raw, list) else [raw])):
            raise ScenarioError(f"{label} must be a finite number or a list of them, got {raw!r}")
        try:
            return domain.require_interior(raw)
        except DomainError as exc:
            raise ScenarioError(f"{label}: {exc}") from exc


def boundary_data_function(grid, spec):
    """The boundary data of a named preset, as a function for grid.

    The function maps an array of angles (circle) or nodes (interval) to
    one value per entry, as BoundaryGrid.field_from_function calls it.

    constant: {preset: constant, value: c}
    cosine:   {preset: cosine, mode: k, amplitude: A}   (circle only)
    endpoints:{preset: endpoints, values: [v_minus, v_plus]} (interval only)
    """
    if not isinstance(spec, dict) or "preset" not in spec:
        raise ScenarioError("boundary_data must be a mapping with a 'preset' key")
    preset = spec["preset"]
    if preset == "constant":
        value = spec.get("value")
        if not _finite(value):
            raise ScenarioError("constant preset needs a finite numeric 'value'")
        value = float(value)
        return lambda x: np.full(np.shape(x), value)
    if preset == "cosine":
        if grid.domain.kind != DISK:
            raise ScenarioError("the cosine preset lives on the circle")
        mode = spec.get("mode", 1)
        if not isinstance(mode, int) or isinstance(mode, bool) or not 0 <= mode < grid.n // 2:
            raise ScenarioError(
                f"cosine mode must be an int in [0, {grid.n // 2 - 1}], got {mode!r}"
            )
        amplitude = spec.get("amplitude", 1.0)
        if not _finite(amplitude):
            raise ScenarioError("cosine amplitude must be finite and numeric")
        amplitude = float(amplitude)

        def cosine(theta):
            # amplitude * cos(mode * theta), in one new buffer
            values = np.array(theta, dtype=float)
            values *= mode
            np.cos(values, out=values)
            values *= amplitude
            return values

        return cosine
    if preset == "endpoints":
        if grid.domain.kind != INTERVAL:
            raise ScenarioError("the endpoints preset lives on the interval")
        values = spec.get("values")
        if not isinstance(values, list) or len(values) != 2 or not all(map(_finite, values)):
            raise ScenarioError("endpoints preset needs finite 'values: [v_minus, v_plus]'")
        v_minus, v_plus = float(values[0]), float(values[1])
        return lambda node: np.where(node < 0.0, v_minus, v_plus)
    raise ScenarioError(f"unknown boundary_data preset {preset!r}")


def load_scenario(command, path=None, nodes=None, seed=None):
    """Defaults, optional scenario file, and CLI overrides, merged in order."""
    if command not in COMMANDS:
        raise ScenarioError(f"unknown command {command!r}; expected one of {COMMANDS}")
    defaults = load_defaults()
    shared = {
        k: v for k, v in defaults.items() if k not in COMMANDS and k != "schema"
    }
    config = _deep_merge(shared, defaults.get(command, {}) or {})

    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
        user = _load_yaml(text, path)
        user_shared = {k: v for k, v in user.items() if k not in COMMANDS}
        config = _deep_merge(config, user_shared)
        config = _deep_merge(config, user.get(command, {}) or {})

    if nodes is not None:
        config["n_nodes"] = nodes
    if seed is not None:
        config["seed"] = seed

    scenario = Scenario(command, config)
    # eager validation of the shared keys so bad input fails before work starts
    scenario.domain()
    scenario.params()
    scenario.n_nodes()
    scenario.seed()
    return scenario
