"""JSON run-configuration parsing with field-level diagnostics.

Keys are snake_case with unit suffixes so that a config is a literal
transcription of a parameter table: geometry radii r_i_mm / r_interface_mm /
r_o_mm by boundary_keys, which follows the layer count, then l_mm / alpha_deg
(sectors R_i_mm / R_o_mm / L_mm / alpha_deg), materials EQUILIBRIUM_KEYS and
MAXWELL_KEYS.  A wall workflow reads the Maxwell constants of a material that
has them and uses its relaxed equilibrium response, so one material block
serves all four workflows.

One rule for every field: a key that no parser of the workflow reads, at the
top level or inside a block it reads, is a config error (reject_unread), and
so is a key repeated within one object.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .driver import LoadProgram
from .errors import ConfigError
from .materials import PreStressField
from .tube import MaterialLayer, SectorGeometry, TubeGeometry

# largest sizes a config may set, checked before anything is allocated
MAX_QUAD_POINTS = 512      # Gauss points per layer; the quadrature check doubles them
MAX_GRID_ANGLES = 3600     # energy-scan angles: a 0.1 deg grid over the circle
MAX_STEPS = 100_000        # point-test steps, t_end / dt
# a material block's keys by MaterialLayer.from_constants argument
EQUILIBRIUM_KEYS = dict(c1="c1_kpa", c2="c2_kpa", k1="k1_kpa", k2="k2", beta_deg="beta_deg")
MAXWELL_KEYS = dict(mu="mu_matrix_kpa", eta_matrix="eta_matrix_kpa_s", k1v="k1_visc_kpa",
                    k2v="k2_visc", eta_fibre="eta_fibre_kpa_s")


class _Fields(dict):
    """A JSON object that records the keys a parser reads through [] or get (a
    membership test reads nothing); a repeated key is a config error."""
    __slots__ = ("read",)

    def __init__(self, pairs):
        super().__init__(pairs)
        if len(self) < len(pairs):
            keys = [key for key, _ in pairs]
            raise ConfigError(f'repeated field "{next(k for k in keys if keys.count(k) > 1)}"')
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def reject_unread(block: _Fields, ctx: str = ""):
    """Config error for a key no parser read, at the top level or inside a read block:
    a workflow calls it once its parsers are done, before it solves or writes."""
    for key, v in block.items():
        if key not in block.read:
            raise ConfigError(f'unknown field "{ctx}{key}"')
        if isinstance(v, _Fields):
            reject_unread(v, f"{ctx}{key}.")


def load_config(path: str):
    """Parse a JSON config file; returns (dict, raw bytes for hashing)."""
    try:
        with open(path, 'rb') as fh:
            raw = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}")
    try:
        cfg = json.loads(raw.decode('utf-8'), object_pairs_hook=_Fields)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON (line {e.lineno}, column {e.colno}): {e.msg}")
    except ValueError as e:   # not UTF-8, or an integer of more digits than int() reads
        raise e if isinstance(e, ConfigError) else ConfigError(f"config is not valid JSON: {e}")
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
    try:
        return float(v)
    except OverflowError:   # an integer beyond the float range
        raise ConfigError(f'field "{field}" must be a finite number (got {len(str(abs(v)))} digits)')


def _matrix(v, field: str) -> np.ndarray:
    """v as a 3x3 float array, for three lists of three JSON numbers."""
    if not (isinstance(v, list) and len(v) == 3
            and all(isinstance(row, list) and len(row) == 3 for row in v)):
        raise ConfigError(f'field "{field}" must be a 3x3 array of numbers')
    return np.array([[_number(x, f"{field}[{i}][{j}]") for j, x in enumerate(row)]
                     for i, row in enumerate(v)])


def get_number(block: dict, key: str, ctx: str) -> float:
    return _number(_require(block, key, ctx), f"{ctx}.{key}")


def get_block(cfg: dict, key: str, ctx: str = "config") -> dict:
    v = _require(cfg, key, ctx)
    if not isinstance(v, dict):
        raise ConfigError(f'field "{ctx}.{key}" must be an object')
    return v


def parse_workflow(cfg: dict, expected: str):
    wf = cfg.get("workflow", expected)
    if wf != expected:
        raise ConfigError(f'config workflow "{wf}" does not match the requested command "{expected}"')


def boundary_keys(n_layers: int, inner: str, interface: str, outer: str) -> tuple:
    """The keys of the n_layers + 1 boundary radii of a wall, inner to outer."""
    return (inner,) + (interface,) * (n_layers - 1) + (outer,)


def _build(what: str, ctor, /, *args, **kwargs):
    """ctor(*args, **kwargs) from fields already read: its ValueError is a config error."""
    try:
        return ctor(*args, **kwargs)
    except ValueError as e:
        raise ConfigError(f"{what}: {e}")


def parse_sector(block: dict, ctx: str) -> SectorGeometry:
    Ri, Ro, L, alpha_deg = (get_number(block, key, ctx)
                            for key in ("R_i_mm", "R_o_mm", "L_mm", "alpha_deg"))
    return _build(f'invalid sector "{ctx}"', SectorGeometry, Ri, Ro, L, math.radians(alpha_deg))


def parse_tube(block: dict, ctx: str, n_layers: int):
    """The tube of an n_layers wall, radii by boundary_keys(n_layers, "r_i_mm",
    "r_interface_mm", "r_o_mm") and l_mm, and its opening angle alpha_deg in [0, 360):
    returns (TubeGeometry, alpha in rad)."""
    keys = boundary_keys(n_layers, "r_i_mm", "r_interface_mm", "r_o_mm")
    radii = [get_number(block, key, ctx) for key in keys]
    l, alpha_deg = get_number(block, "l_mm", ctx), get_number(block, "alpha_deg", ctx)
    if not 0.0 <= alpha_deg < 360.0:
        raise ConfigError(f'field "{ctx}.alpha_deg" must be in [0, 360) (got {alpha_deg})')
    return _build(f'invalid geometry "{ctx}"', TubeGeometry, radii, l), math.radians(alpha_deg)


def parse_layer(block: dict, ctx: str, need_sector: bool = False,
                need_maxwell: bool = False) -> MaterialLayer:
    """A material: its Maxwell constants too when need_maxwell or it has mu_matrix_kpa."""
    keys = EQUILIBRIUM_KEYS | (MAXWELL_KEYS if need_maxwell or "mu_matrix_kpa" in block else {})
    kwargs = {name: get_number(block, key, ctx) for name, key in keys.items()}
    if need_sector:
        kwargs["sector"] = parse_sector(get_block(block, "sector", ctx), f"{ctx}.sector")
    return _build(f'invalid material "{ctx}"', MaterialLayer.from_constants, **kwargs)


def parse_layers(cfg: dict, need_sector: bool = False):
    """The media layer plus, when present, the adventitia layer."""
    return [parse_layer(get_block(cfg, key), key, need_sector)
            for key in ("media", "adventitia") if key == "media" or key in cfg]


def parse_f0(cfg: dict) -> PreStressField:
    """F0 either as an explicit 3x3 matrix or, without one, from an opening map at one radius."""
    if "f0" in cfg:
        return _build('invalid "f0"', PreStressField, _matrix(cfg["f0"], "f0"))
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
        # F0 = diag(c f, 1/f, 1/c), f = k r / R, R^2 = Ri^2 + k c (r^2 - ri^2) (tube.py); on
        # floats an overflow gives inf or nan, not an error
        R2 = Ri * Ri + k * c * (r * r - ri * ri)
        if -math.inf < R2 <= 0.0:
            raise ConfigError(f'field "{ctx}.r_mm" = {r} lies outside the layer the map covers')
        f = k * r / math.sqrt(R2) if 0.0 < R2 < math.inf else math.nan
        d = (c * f, 1.0 / f if f else math.inf, 1.0 / c)
        if not all(0.0 < v < math.inf for v in d):
            raise ConfigError(f'field "{ctx}" gives an F0 outside the float range '
                              f'(R^2 = {R2:g} mm^2, diagonal {d[0]:g}, {d[1]:g}, {d[2]:g})')
        return PreStressField(np.diag(d))
    raise ConfigError('missing field "f0" (or "f0_opening_map")')


def parse_program(cfg: dict) -> LoadProgram:
    b = get_block(cfg, "program")
    dt = get_number(b, "dt_s", "program")
    frames = _require(b, "keyframes", "program")
    if not isinstance(frames, list) or not frames:
        raise ConfigError('field "program.keyframes" must be a non-empty list of [t_s, F] pairs')
    keyframes = []
    for i, item in enumerate(frames):
        field = f"program.keyframes[{i}]"
        if not isinstance(item, list) or len(item) != 2:
            raise ConfigError(f'field "{field}" must be [t_s, 3x3 matrix]')
        keyframes.append((_number(item[0], f"{field}[0]"), _matrix(item[1], f"{field}[1]")))
    program = _build('invalid "program"', LoadProgram, tuple(keyframes), dt)
    if program.t_end / program.dt > MAX_STEPS:
        raise ConfigError(f'field "program.dt_s" makes {program.t_end / program.dt:.4g} '
                          f'> {MAX_STEPS} steps')
    return program


def parse_grid(cfg: dict):
    """Energy-scan angle grid (start_deg, end_deg, step_deg); absent fields take defaults."""
    b = get_block(cfg, "grid") if "grid" in cfg else {}
    start, end, step = (_number(b[key], f"grid.{key}") if key in b else default
                        for key, default in (("start_deg", 0.0), ("end_deg", 180.0),
                                             ("step_deg", 2.0)))
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


def parse_solver(cfg: dict, keys=("tol", "max_iter", "quad_points")) -> dict:
    """The solver block's fields among keys (a solver's own) as its keyword arguments
    tol, max_iter and npts (from quad_points), the given ones only."""
    b = get_block(cfg, "solver") if "solver" in cfg else {}
    kwargs = {}
    if "tol" in keys and "tol" in b:
        tol = kwargs["tol"] = _number(b["tol"], "solver.tol")
        if not 0.0 < tol < math.inf:
            raise ConfigError(f'field "solver.tol" must be a finite number > 0 (got {tol})')
    for key, name, least, most, want in (
            ("max_iter", "max_iter", 1, math.inf, "a positive integer"),
            ("quad_points", "npts", 2, MAX_QUAD_POINTS, f"an integer in [2, {MAX_QUAD_POINTS}]")):
        v = kwargs[name] = b.get(key) if key in keys else None
        if v is not None and (type(v) is not int or not least <= v <= most):   # no bool either
            raise ConfigError(f'field "solver.{key}" must be {want} (got {v!r})')
    return {name: v for name, v in kwargs.items() if v is not None}
