"""Strict JSON run configuration.

One JSON document describes a model, its ambiguity set, and the grid,
solver, and simulation settings of a run.  Parsing is strict: unknown
keys anywhere are rejected, ``schema_version`` must equal 1, and every
malformed field raises :class:`ConfigurationError` with the offending
location.  Coefficients are given as numbers or expression strings in
the variables x1, x2, ...
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .coefficients import CoefficientFn
from .errors import ConfigurationError
from .gcore import UncertaintySet
from .model import ModelSpec, _coeff_grid
from .pde import _RETIRED, Grid
from .sim import ConstantControl, PiecewiseControl, extreme_controls, worst_case_policy

__all__ = [
    "SolverSettings",
    "SimSettings",
    "OutputSettings",
    "RunConfig",
    "parse_config",
    "load_config",
    "build_control",
]

SCHEMA_VERSION = 1

_TOP_KEYS = {
    "schema_version", "label", "model", "uncertainty", "grid",
    "solver", "sim", "assumption_box", "payoff", "output",
}
_MODEL_KEYS = {"m", "d", "b", "sigma", "r", "k", "v", "h"}
_UNC_KEYS_INTERVAL = {"kind", "lo", "hi"}
_UNC_KEYS_FINITE = {"kind", "members"}
_GRID_KEYS = {"bounds", "nodes", "horizon", "time_steps"}
_SIM_KEYS = {"x0", "horizon", "dt", "n_steps", "n_paths", "seed", "control",
             "checkpoints"}
_BOX_KEYS = {"bounds", "nodes"}
_OUTPUT_KEYS = {"dir", "formats"}
_OUTPUT_FORMATS = {"csv", "json"}


def _require_mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{where} must be an object, got {type(obj).__name__}")
    return obj


def _reject_unknown(obj: dict, allowed: set, where: str) -> None:
    extra = sorted(set(obj) - allowed)
    if extra:
        raise ConfigurationError(f"unknown key(s) in {where}: {', '.join(extra)}")


def _number(val, where: str) -> float:
    """A JSON number as a float; anything else, booleans included, is named."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigurationError(f"{where} must be a number")
    try:
        return float(val)
    except OverflowError:
        raise ConfigurationError(f"{where} is too large for a float") from None


def _numbers(seq, where: str) -> tuple:
    """A JSON list of numbers as a tuple of floats."""
    if not isinstance(seq, list):
        raise ConfigurationError(f"{where} must be a list of numbers")
    return tuple(_number(v, f"{where}[{i}]") for i, v in enumerate(seq))


def _finite(values: tuple, where: str) -> tuple:
    """``values`` if every entry is finite (json reads NaN and Infinity); else
    the first that is not is named."""
    for i, v in enumerate(values):
        if not math.isfinite(v):
            raise ConfigurationError(f"{where}[{i}] must be finite, got {v}")
    return values


def _get_number(obj: dict, key: str, where: str, default=None, required=False):
    if key not in obj:
        if required:
            raise ConfigurationError(f"{where} is missing required key {key!r}")
        return default
    return _number(obj[key], f"{where}.{key}")


def _get_int(obj: dict, key: str, where: str, default=None, required=False):
    if key not in obj:
        if required:
            raise ConfigurationError(f"{where} is missing required key {key!r}")
        return default
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigurationError(f"{where}.{key} must be an integer")
    return int(val)


def _path_count(n: int, where: str) -> int:
    """A simulation needs at least one path; ``where`` names the setting."""
    if n < 1:
        raise ConfigurationError(f"{where} must be at least 1, got {n}")
    return n


@contextmanager
def _located(where: str):
    """Prefix ``where`` to the input errors raised inside, and turn the
    ValueError and TypeError of numpy's float conversion into them."""
    try:
        yield
    except ConfigurationError as exc:
        exc.args = (f"{where}: {exc}",)
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigurationError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class SolverSettings:
    tol: float = 1e-6
    gamma1: float = -1.0
    gamma2: tuple | None = None
    max_sweeps: int = 500_000
    anchor: tuple | None = None
    # the retired settings of solve_ergodic, which accepts each only as None;
    # no config key sets them
    delta0: None = None
    tol_inner: None = None
    max_halvings: None = None
    mode: None = None
    gradient_cap: None = None


@dataclass(frozen=True)
class SimSettings:
    x0: tuple
    horizon: float
    dt: float
    n_paths: int
    seed: int = 0
    control: object = "worst_case"
    checkpoints: tuple | None = None

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


@dataclass(frozen=True)
class OutputSettings:
    dir: str | None = None
    formats: tuple = ("csv", "json")


@dataclass(frozen=True)
class RunConfig:
    label: str
    model: ModelSpec
    grid: Grid | None
    solver: SolverSettings
    sim: SimSettings | None
    assumption_box: tuple  # (bounds, nodes)
    payoff: CoefficientFn | None
    output: OutputSettings = field(default_factory=OutputSettings)


def _parse_uncertainty(obj, where: str) -> UncertaintySet:
    obj = _require_mapping(obj, where)
    kind = obj.get("kind")
    if kind == "interval":
        _reject_unknown(obj, _UNC_KEYS_INTERVAL, where)
        lo = _get_number(obj, "lo", where, required=True)
        hi = _get_number(obj, "hi", where, required=True)
        with _located(where):
            return UncertaintySet.interval(lo, hi)
    if kind == "finite":
        _reject_unknown(obj, _UNC_KEYS_FINITE, where)
        members = obj.get("members")
        if not isinstance(members, list) or not members:
            raise ConfigurationError(f"{where}.members must be a nonempty list")
        with _located(where):
            return UncertaintySet.finite([np.asarray(m, dtype=float) for m in members])
    raise ConfigurationError(f"{where}.kind must be 'interval' or 'finite'")


def _parse_model(obj, uncertainty: UncertaintySet, label: str) -> ModelSpec:
    where = "model"
    obj = _require_mapping(obj, where)
    _reject_unknown(obj, _MODEL_KEYS, where)
    m = _get_int(obj, "m", where, required=True)
    d = _get_int(obj, "d", where, required=True)
    if "r" not in obj:
        raise ConfigurationError("model is missing required key 'r'")
    try:
        return ModelSpec.build(
            m=m, d=d, b=obj.get("b"), sigma=obj.get("sigma"), r=obj["r"], k=obj.get("k"),
            v=obj.get("v"), h=obj.get("h"), uncertainty=uncertainty, label=label,
        )
    except ConfigurationError as exc:  # the model names the entry; add the block
        exc.args = (f"model.{exc}",)
        raise


def _parse_bounds_nodes(obj: dict, where: str):
    bounds = obj.get("bounds")
    nodes = obj.get("nodes")
    if not isinstance(bounds, list) or not all(
        isinstance(p, list) and len(p) == 2 for p in bounds
    ):
        raise ConfigurationError(f"{where}.bounds must be a list of [lo, hi] pairs")
    if not isinstance(nodes, list) or len(nodes) != len(bounds):
        raise ConfigurationError(f"{where}.nodes must list one count per axis")
    for n in nodes:
        if isinstance(n, bool) or not isinstance(n, int):
            raise ConfigurationError(f"{where}.nodes entries must be integers")
    return [_finite(_numbers(p, f"{where}.bounds[{i}]"), f"{where}.bounds[{i}]")
            for i, p in enumerate(bounds)], nodes


def _parse_grid(obj, where: str = "grid") -> Grid:
    obj = _require_mapping(obj, where)
    _reject_unknown(obj, _GRID_KEYS, where)
    bounds, nodes = _parse_bounds_nodes(obj, where)
    horizon = _get_number(obj, "horizon", where)
    time_steps = _get_int(obj, "time_steps", where)
    with _located(where):
        return Grid.build(bounds, nodes, horizon=horizon, time_steps=time_steps)


def _parse_solver(obj, m: int) -> SolverSettings:
    if obj is None:
        return SolverSettings()
    where = "solver"
    obj = _require_mapping(obj, where)
    _reject_unknown(obj, {f.name for f in fields(SolverSettings)} - set(_RETIRED), where)
    values = {}
    gamma2 = obj.get("gamma2")
    if gamma2 is not None:
        if not isinstance(gamma2, list):
            raise ConfigurationError("solver.gamma2 must be a nested list")
        values["gamma2"] = tuple(_numbers(row, f"solver.gamma2[{i}]")
                                 for i, row in enumerate(gamma2))
    anchor = obj.get("anchor")
    if anchor is not None:
        values["anchor"] = anchor = _numbers(anchor, "solver.anchor")
        if len(anchor) != m or not all(math.isfinite(a) for a in anchor):
            raise ConfigurationError(f"solver.anchor must list {m} finite coordinates")
    # the dataclass declares the settings: a numeric default gives the key's
    # type, and a key left out keeps the default
    for f in fields(SolverSettings):
        if f.name in obj and isinstance(f.default, (int, float)):
            get = _get_int if isinstance(f.default, int) else _get_number
            values[f.name] = get(obj, f.name, where)
    return SolverSettings(**values)


def _parse_sim(obj, m: int) -> SimSettings | None:
    if obj is None:
        return None
    where = "sim"
    obj = _require_mapping(obj, where)
    _reject_unknown(obj, _SIM_KEYS, where)
    x0 = obj.get("x0")
    if not isinstance(x0, list) or len(x0) != m:
        raise ConfigurationError(f"sim.x0 must list {m} coordinates")
    x0 = _finite(_numbers(x0, "sim.x0"), "sim.x0")
    control = obj.get("control", "worst_case")
    if not isinstance(control, (str, dict)):
        raise ConfigurationError("sim.control must be a string or an object")
    checkpoints = obj.get("checkpoints")
    if checkpoints is not None:
        checkpoints = _finite(_numbers(checkpoints, "sim.checkpoints"), "sim.checkpoints")
    horizon = _get_number(obj, "horizon", where, required=True)
    if not math.isfinite(horizon):
        raise ConfigurationError(f"sim.horizon must be finite, got {horizon}")
    if ("dt" in obj) == ("n_steps" in obj):
        raise ConfigurationError("sim needs exactly one of 'dt' or 'n_steps'")
    if "dt" in obj:
        dt = _get_number(obj, "dt", where, required=True)
    else:
        n_steps = _get_int(obj, "n_steps", where, required=True)
        if n_steps < 1:
            raise ConfigurationError("sim.n_steps must be positive")
        dt = horizon / n_steps
    if not (dt > 0.0 and dt <= horizon):
        raise ConfigurationError("sim.dt must lie in (0, horizon]")
    return SimSettings(
        x0=x0,
        horizon=horizon,
        dt=dt,
        n_paths=_path_count(_get_int(obj, "n_paths", where, required=True), "sim.n_paths"),
        seed=_get_int(obj, "seed", where, default=0),
        control=control,
        checkpoints=checkpoints,
    )


def _parse_output(obj) -> OutputSettings:
    if obj is None:
        return OutputSettings()
    where = "output"
    obj = _require_mapping(obj, where)
    _reject_unknown(obj, _OUTPUT_KEYS, where)
    out_dir = obj.get("dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigurationError("output.dir must be a string path")
    formats = obj.get("formats")
    if formats is None:
        return OutputSettings(dir=out_dir)
    if not isinstance(formats, list) or not formats:
        raise ConfigurationError("output.formats must be a nonempty list")
    bad = sorted(set(formats) - _OUTPUT_FORMATS)
    if bad:
        raise ConfigurationError(
            f"output.formats entries must be in {sorted(_OUTPUT_FORMATS)}, "
            f"got {bad}"
        )
    return OutputSettings(dir=out_dir, formats=tuple(formats))


def parse_config(doc: dict) -> RunConfig:
    doc = _require_mapping(doc, "configuration")
    _reject_unknown(doc, _TOP_KEYS, "configuration")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigurationError(
            f"schema_version must be {SCHEMA_VERSION}, got {version!r}"
        )
    label = doc.get("label", "run")
    if not isinstance(label, str):
        raise ConfigurationError("label must be a string")
    if "model" not in doc or "uncertainty" not in doc:
        raise ConfigurationError("configuration needs 'model' and 'uncertainty'")

    uncertainty = _parse_uncertainty(doc["uncertainty"], "uncertainty")
    model = _parse_model(doc["model"], uncertainty, label)

    grid = _parse_grid(doc["grid"]) if "grid" in doc else None
    solver = _parse_solver(doc.get("solver"), model.m)
    sim = _parse_sim(doc.get("sim"), model.m)

    if "assumption_box" in doc:
        box = _require_mapping(doc["assumption_box"], "assumption_box")
        _reject_unknown(box, _BOX_KEYS, "assumption_box")
        bounds, nodes = _parse_bounds_nodes(box, "assumption_box")
        if any(n < 10 for n in nodes):
            raise ConfigurationError("assumption_box needs at least 10 nodes per axis")
        assumption_box = (tuple(tuple(p) for p in bounds), tuple(nodes))
    elif grid is not None:
        assumption_box = (grid.bounds, tuple([12] * grid.m))
    else:
        raise ConfigurationError("configuration needs a grid or an assumption_box")

    payoff = _coeff_grid(doc["payoff"], (), "payoff") if "payoff" in doc else None

    return RunConfig(
        label=label, model=model, grid=grid, solver=solver,
        sim=sim, assumption_box=assumption_box, payoff=payoff,
        output=_parse_output(doc.get("output")),
    )


def load_config(path) -> RunConfig:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read configuration {p}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"invalid JSON in {p}: {exc}") from exc
    return parse_config(doc)


def build_control(spec, model: ModelSpec, solution=None):
    """Materialize the control named by a config ``sim.control`` entry."""
    if isinstance(spec, str):
        if spec == "worst_case":
            if solution is None:
                raise ConfigurationError(
                    "the worst-case control needs a solved valuation problem"
                )
            return worst_case_policy(solution, model)
        for ctl in extreme_controls(model.uncertainty):
            if ctl.label == spec:
                return ctl
        known = ["worst_case"] + [c.label for c in extreme_controls(model.uncertainty)]
        raise ConfigurationError(
            f"unknown control {spec!r}; expected one of {known} or an object"
        )
    if isinstance(spec, dict):
        if set(spec) == {"constant"}:
            with _located("sim.control.constant"):
                return ConstantControl(np.asarray(spec["constant"], dtype=float))
        if set(spec) == {"piecewise"}:
            inner = _require_mapping(spec["piecewise"], "sim.control.piecewise")
            _reject_unknown(inner, {"times", "matrices"}, "sim.control.piecewise")
            with _located("sim.control.piecewise"):
                return PiecewiseControl(
                    np.asarray(inner.get("times"), dtype=float),
                    [np.asarray(m, dtype=float) for m in inner.get("matrices")],
                )
    raise ConfigurationError(
        "sim.control must be 'worst_case', an extreme-scenario name, "
        "or an object with key 'constant' or 'piecewise'"
    )
