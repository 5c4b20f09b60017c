"""JSON run-configuration parsing with field-level diagnostics.

Keys are snake_case with unit suffixes so that a config is a literal
transcription of a parameter table: geometry r_i_mm / r_interface_mm (with
an adventitia only) / r_o_mm / l_mm / alpha_deg (sectors R_i_mm / R_o_mm /
L_mm / alpha_deg), materials c1_kpa / c2_kpa / k1_kpa / k2 / beta_deg and
Maxwell constants mu_matrix_kpa / eta_matrix_kpa_s / k1_visc_kpa / k2_visc /
eta_fibre_kpa_s.
"""

from __future__ import annotations

import json
import math
from typing import Optional

import numpy as np

from .driver import LoadProgram
from .errors import ConfigError, DomainError
from .materials import PreStressField
from .tube import MaterialLayer, OpeningMap, SectorGeometry, TubeGeometry

WORKFLOWS = ("inverse-sf", "load-free", "energy-scan", "point-test")
# largest sizes a config may set, checked before anything is allocated
MAX_QUAD_POINTS = 512      # Gauss points per layer; the quadrature check doubles them
MAX_GRID_ANGLES = 3600     # energy-scan angles: a 0.1 deg grid over the circle
MAX_STEPS = 100_000        # point-test steps, t_end / dt


def load_config(path: str):
    """Parse a JSON config file; returns (dict, raw bytes for hashing)."""
    try:
        with open(path, 'rb') as fh:
            raw = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}")
    try:
        cfg = json.loads(raw.decode('utf-8'))
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON (line {e.lineno}, column {e.colno}): {e.msg}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg, raw


def _require(block: dict, key: str, ctx: str):
    if key not in block:
        raise ConfigError(f'missing field "{ctx}.{key}"')
    return block[key]


def _number(v, field: str) -> float:
    """v as a float, for a JSON number: no string, no boolean."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ConfigError(f'field "{field}" must be a number (got {v!r})')
    return float(v)


def _matrix(v, field: str) -> np.ndarray:
    """v as a 3x3 float array, for three lists of three JSON numbers."""
    if not (isinstance(v, list) and len(v) == 3
            and all(isinstance(row, list) and len(row) == 3 for row in v)):
        raise ConfigError(f'field "{field}" must be a 3x3 array of numbers')
    return np.array([[_number(x, f"{field}[{i}][{j}]") for j, x in enumerate(row)]
                     for i, row in enumerate(v)])


def get_number(block: dict, key: str, ctx: str) -> float:
    return _number(_require(block, key, ctx), f"{ctx}.{key}")


def _optional_number(block: dict, key: str, default: Optional[float], ctx: str) -> Optional[float]:
    v = block.get(key, default)
    return None if v is None else _number(v, f"{ctx}.{key}")


def get_block(cfg: dict, key: str, ctx: str = "config") -> dict:
    v = _require(cfg, key, ctx)
    if not isinstance(v, dict):
        raise ConfigError(f'field "{ctx}.{key}" must be an object')
    return v


def parse_workflow(cfg: dict, expected: Optional[str] = None) -> str:
    wf = cfg.get("workflow", expected)
    if wf not in WORKFLOWS:
        raise ConfigError(f'field "workflow" must be one of {WORKFLOWS} (got {wf!r})')
    if expected is not None and wf != expected:
        raise ConfigError(f'config workflow "{wf}" does not match the requested command "{expected}"')
    return wf


def parse_sector(block: dict, ctx: str) -> SectorGeometry:
    try:
        return SectorGeometry(get_number(block, "R_i_mm", ctx), get_number(block, "R_o_mm", ctx),
                              get_number(block, "L_mm", ctx),
                              math.radians(get_number(block, "alpha_deg", ctx)))
    except ValueError as e:
        raise ConfigError(f'invalid sector "{ctx}": {e}')


def parse_tube(block: dict, ctx: str, need_interface: bool) -> TubeGeometry:
    """Tube radii r_i_mm, r_interface_mm (two-layer walls only), r_o_mm and l_mm."""
    keys = ("r_i_mm", "r_interface_mm", "r_o_mm") if need_interface else ("r_i_mm", "r_o_mm")
    if not need_interface and "r_interface_mm" in block:
        raise ConfigError(f'field "{ctx}.r_interface_mm" is not used by a one-layer wall '
                          '(no "adventitia")')
    try:
        return TubeGeometry([get_number(block, key, ctx) for key in keys],
                            get_number(block, "l_mm", ctx))
    except ValueError as e:
        raise ConfigError(f'invalid geometry "{ctx}": {e}')


def parse_layer(block: dict, ctx: str, need_sector: bool = False,
                need_maxwell: bool = False) -> MaterialLayer:
    kwargs = dict(
        c1=get_number(block, "c1_kpa", ctx),
        c2=get_number(block, "c2_kpa", ctx),
        k1=get_number(block, "k1_kpa", ctx),
        k2=get_number(block, "k2", ctx),
        beta_deg=get_number(block, "beta_deg", ctx),
    )
    has_maxwell = need_maxwell or "mu_matrix_kpa" in block
    if has_maxwell:
        kwargs.update(
            mu=get_number(block, "mu_matrix_kpa", ctx),
            eta_matrix=get_number(block, "eta_matrix_kpa_s", ctx),
            k1v=get_number(block, "k1_visc_kpa", ctx),
            k2v=get_number(block, "k2_visc", ctx),
            eta_fibre=get_number(block, "eta_fibre_kpa_s", ctx),
        )
    if need_sector or "sector" in block:
        sector_block = _require(block, "sector", ctx)
        if not isinstance(sector_block, dict):
            raise ConfigError(f'field "{ctx}.sector" must be an object')
        kwargs["sector"] = parse_sector(sector_block, f"{ctx}.sector")
    try:
        return MaterialLayer.from_constants(**kwargs)
    except ValueError as e:
        raise ConfigError(f'invalid material "{ctx}": {e}')


def parse_layers(cfg: dict, need_sector: bool = False):
    """The media layer plus, when present, the adventitia layer."""
    layers = [parse_layer(get_block(cfg, "media"), "media", need_sector)]
    if "adventitia" in cfg:
        layers.append(parse_layer(get_block(cfg, "adventitia"), "adventitia", need_sector))
    return layers


def parse_f0(cfg: dict) -> PreStressField:
    """F0 either as an explicit 3x3 matrix or from an opening map at one radius."""
    if "f0" in cfg and "f0_opening_map" in cfg:
        raise ConfigError('fields "f0" and "f0_opening_map" exclude each other: give one')
    if "f0" in cfg:
        arr = _matrix(cfg["f0"], "f0")
        try:
            return PreStressField(arr)
        except ValueError as e:
            raise ConfigError(f'invalid "f0": {e}')
    if "f0_opening_map" in cfg:
        ctx = "f0_opening_map"
        b = get_block(cfg, ctx)
        k, c = get_number(b, "k", ctx), get_number(b, "c", ctx)
        ri, Ri, r = (get_number(b, key, ctx) for key in ("ri_mm", "Ri_mm", "r_mm"))
        if not 1.0 <= k < math.inf:
            raise ConfigError(f'field "{ctx}.k" must be finite and >= 1 (got {k})')
        for key, v in (("c", c), ("ri_mm", ri), ("Ri_mm", Ri), ("r_mm", r)):
            if not 0.0 < v < math.inf:
                raise ConfigError(f'field "{ctx}.{key}" must be finite and > 0 (got {v})')
        try:
            return PreStressField(OpeningMap(k, c, ri, Ri).F0(r))
        except DomainError:
            raise ConfigError(f'field "{ctx}.r_mm" = {r} lies outside the layer the map covers')
    raise ConfigError('missing field "f0" (or "f0_opening_map")')


def parse_program(cfg: dict, dt_override: Optional[float] = None) -> LoadProgram:
    b = get_block(cfg, "program")
    dt = dt_override if dt_override is not None else get_number(b, "dt_s", "program")
    frames = _require(b, "keyframes", "program")
    if not isinstance(frames, list) or not frames:
        raise ConfigError('field "program.keyframes" must be a non-empty list of [t_s, F] pairs')
    keyframes = []
    for i, item in enumerate(frames):
        field = f"program.keyframes[{i}]"
        if not isinstance(item, list) or len(item) != 2:
            raise ConfigError(f'field "{field}" must be [t_s, 3x3 matrix]')
        keyframes.append((_number(item[0], f"{field}[0]"), _matrix(item[1], f"{field}[1]")))
    try:
        program = LoadProgram(tuple(keyframes), dt)
    except ValueError as e:
        raise ConfigError(f'invalid "program": {e}')
    if program.t_end / program.dt > MAX_STEPS:
        source = "" if dt_override is None else " (from --dt)"
        raise ConfigError(f'field "program.dt_s"{source} makes {program.t_end / program.dt:.4g} '
                          f'> {MAX_STEPS} steps')
    return program


def parse_grid(cfg: dict, start=None, end=None, step=None):
    """Energy-scan angle grid (start_deg, end_deg, step_deg); CLI flags override fields."""
    b = get_block(cfg, "grid") if "grid" in cfg else {}
    start, end, step = (v if v is not None else _optional_number(b, key, default, "grid")
                        for v, key, default in ((start, "start_deg", 0.0), (end, "end_deg", 180.0),
                                                (step, "step_deg", 2.0)))
    # the scan samples start, start + step, ... below end + step/2
    for key, ok, want in (("start_deg", 0.0 <= start, ">= 0"),
                          ("step_deg", 0.0 < step < 360.0, "in (0, 360)"),
                          ("end_deg", start < end <= 360.0 - 0.5 * step,
                           "above start_deg and at most 360 - step_deg/2")):
        if not ok:
            raise ConfigError(f'field "grid.{key}" must be {want} '
                              f'(grid {start}..{end} step {step})')
    if math.ceil((end - start) / step + 0.5) > MAX_GRID_ANGLES:
        raise ConfigError(f'field "grid.step_deg" gives more than {MAX_GRID_ANGLES} angles '
                          f'(grid {start}..{end} step {step})')
    return start, end, step


def parse_solver(cfg: dict, workflow: str, tol_override: Optional[float] = None) -> dict:
    """The solver block as the solvers' keyword arguments tol, max_iter and npts
    (from quad_points), the given ones only; energy-scan takes quad_points alone."""
    b = cfg.get("solver", {})
    if not isinstance(b, dict):
        raise ConfigError('field "solver" must be an object')
    tol, source = _optional_number(b, "tol", None, "solver"), ""
    if tol_override is not None:
        tol, source = tol_override, " (from --tol)"
    if tol is not None and not 0.0 < tol < math.inf:
        raise ConfigError(f'field "solver.tol"{source} must be a finite number > 0 (got {tol})')
    kwargs = {"tol": tol}
    for key, name, least, most, want in (
            ("max_iter", "max_iter", 1, math.inf, "a positive integer"),
            ("quad_points", "npts", 2, MAX_QUAD_POINTS, f"an integer in [2, {MAX_QUAD_POINTS}]")):
        v = kwargs[name] = b.get(key)
        if v is not None and (type(v) is not int or not least <= v <= most):   # no bool either
            raise ConfigError(f'field "solver.{key}" must be {want} (got {v!r})')
    if workflow == "energy-scan":
        for key in ("tol", "max_iter"):
            if kwargs[key] is not None:
                raise ConfigError(f'field "solver.{key}" is not used by energy-scan')
    return {name: v for name, v in kwargs.items() if v is not None}
