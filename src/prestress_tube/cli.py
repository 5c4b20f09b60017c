"""Command-line surface: one workflow per invocation, CSV out, JSON summary on stdout.

Exit codes: 0 converged, 1 invalid input, 2 numerical failure (also a run that
finished with "converged": false).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
try:  # the builtin module first, as random.py does: hashlib loads OpenSSL (~3.5 MB peak RSS)
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

import numpy as np

from . import __version__, config, maxwell
from .errors import (ConfigError, DomainError, NoConvergence, NonPositiveDeterminant,
                     NonPositiveStretch, SingularTensor)
from .opening import find_opening_angle
from .driver import run_point
from .tube import SolverReport, solve_inverse_sf, solve_load_free, wall_stress_profile

FLOAT_FMT = "{:.12g}"
PROFILE_HEADER = ["r_mm", "T_rr_kpa", "T_theta_kpa", "T_zz_kpa"]


def _write_csv(path: str, header, rows, cfg_hash: str):
    """A comment line, then the header and FLOAT_FMT rows as csv.writer writes them: one
    "%.12g" %-format for all rows, written as one buffer.  An existing file is overwritten
    in place (no O_TRUNC), then trimmed to the new length if it is a regular file
    (/dev/null and other non-regular targets take no trim).  Opening with truncation
    freed and discarded every block of the old file first: 0.1-0.5 ms per ~16 KB rewrite
    on ext4 mounted with discard, against 9-15 us to overwrite and trim.  Not atomic, as
    truncate-on-open was not: a kill during the write leaves a broken file.  A new file
    gets mode 0o666 & ~umask, as open(path, 'w') gives it."""
    line = ",".join(["%.12g"] * len(header)) + "\r\n"
    data = (f"# prestress-tube {__version__} config_sha256={cfg_hash}\n" + ",".join(header)
            + "\r\n" + (line * len(rows)) % tuple(np.asarray(rows, dtype=float).ravel().tolist())
            ).encode()
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
            fh.write(data)
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    except OSError as e:
        raise ConfigError(f"cannot write output file {path}: {e}")


def _summary(workflow: str, report: SolverReport, key: dict, out_path: str) -> dict:
    """The JSON summary a workflow prints: its run record, key results and CSV path,
    with the quadrature-refinement check under diagnostics when the solver made one."""
    summary = {"workflow": workflow, "converged": report.converged,
               "iterations": report.iterations, "residuals": report.residuals,
               "key_results": key, "csv": out_path}
    if report.quad_check is not None:
        summary["diagnostics"] = {"quad_check": report.quad_check}
    return summary


def cmd_inverse_sf(cfg: dict, out_path: str, cfg_hash: str) -> dict:
    layers = config.parse_layers(cfg)
    tube_geom, alpha = config.parse_tube(config.get_block(cfg, "geometry"), "geometry",
                                         len(layers))
    solver = config.parse_solver(cfg)
    config.reject_unread(cfg)

    sol = solve_inverse_sf(tube_geom, alpha, layers, **solver)
    _write_csv(out_path, PROFILE_HEADER,
               wall_stress_profile(layers, sol.sectors, sol.tube.radii, sol.tube.l), cfg_hash)
    radii = [sol.sectors[0].Ri] + [sector.Ro for sector in sol.sectors]
    key = dict(zip(config.boundary_keys(len(layers), "Ri_mm", "R_interface_mm", "Ro_mm"), radii),
               L_mm=sol.sectors[0].L, alpha_deg=math.degrees(alpha))
    return _summary("inverse-sf", sol.report, key, out_path)


def cmd_load_free(cfg: dict, out_path: str, cfg_hash: str) -> dict:
    layers = config.parse_layers(cfg, need_sector=True)
    solver = config.parse_solver(cfg)
    config.reject_unread(cfg)

    sol = solve_load_free(layers, **solver)
    _write_csv(out_path, PROFILE_HEADER,
               wall_stress_profile(layers, sol.sectors, sol.tube.radii, sol.tube.l), cfg_hash)
    key = dict(zip(config.boundary_keys(len(layers), "r_i_mm", "r_interface_mm", "r_o_mm"),
                   sol.tube.radii), l_mm=sol.tube.l)
    return _summary("load-free", sol.report, key, out_path)


def cmd_energy_scan(cfg: dict, out_path: str, cfg_hash: str) -> dict:
    layers = config.parse_layers(cfg, need_sector=True)
    grid = config.parse_grid(cfg)
    solver = config.parse_solver(cfg, keys=("quad_points",))
    config.reject_unread(cfg)

    curve = find_opening_angle(layers, *grid, **solver)
    _write_csv(out_path, ["alpha_deg", "E_microJ"], curve.samples, cfg_hash)
    key = {"argmin_deg": curve.argmin_deg, "e_min_microj": curve.e_min_microj,
           "rho_interface_mm": curve.rho_interface, "l_open_mm": curve.l_open}
    return _summary("energy-scan", curve.report, key, out_path)


def cmd_point_test(cfg: dict, out_path: str, cfg_hash: str) -> dict:
    layer = config.parse_layer(config.get_block(cfg, "material"), "material", need_maxwell=True)
    f0 = config.parse_f0(cfg)
    program = config.parse_program(cfg)
    config.reject_unread(cfg)

    trace = run_point(program, layer, f0)
    _write_csv(out_path, trace.header(), trace.rows(), cfg_hash)
    key = {"steps": int(trace.t.size - 1),
           "peak_overstress_kpa": float(trace.overstress_norm.max()),
           "final_overstress_kpa": float(trace.overstress_norm[-1])}
    summary = _summary("point-test", trace.report, key, out_path)
    if not trace.report.converged:
        summary["error"] = (f"fibre stretch update ended at |r| = "
                            f"{trace.report.residuals['fibre_r_max']:.3e} > "
                            f"maxwell.NEWTON_TOL = {maxwell.NEWTON_TOL:g}")
    return summary


_COMMANDS = {
    "inverse-sf": cmd_inverse_sf,
    "load-free": cmd_load_free,
    "energy-scan": cmd_energy_scan,
    "point-test": cmd_point_test,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prestress-tube",
        description="Pre-stressed viscoelastic fibre-reinforced tube workflows.")
    sub = parser.add_subparsers(dest="workflow", required=True)
    for name, helptext in [
        ("inverse-sf", "solve for the stress-free sector geometry of a load-free tube"),
        ("load-free", "close per-layer sectors into an equilibrated load-free tube"),
        ("energy-scan", "stored energy vs trial opening angle; locking argmin"),
        ("point-test", "material-point viscoelastic driver along an F(t) program"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=f"{name.replace('-', '_')}.csv", help="output CSV path")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:   # argparse's usage error (exit 2) is invalid input: exit 1
        raise SystemExit(1 if e.code == 2 else e.code) from None
    try:
        cfg, raw = config.load_config(args.config)
        config.parse_workflow(cfg, args.workflow)
        if not args.out:
            raise ConfigError("--out must be a non-empty path")
        cfg_hash = sha256(raw).hexdigest()
        with np.errstate(over="raise", divide="raise", invalid="raise"):  # exit 2, not a warning
            summary = _COMMANDS[args.workflow](cfg, args.out, cfg_hash)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (NoConvergence, DomainError, SingularTensor, NonPositiveDeterminant,
            NonPositiveStretch, ArithmeticError) as e:
        summary = {"workflow": args.workflow, "converged": False,
                   "error": f"{type(e).__name__}: {e}", "residuals": {}}
        if isinstance(e, NoConvergence):  # a solver's failure: its message, residuals, last iterate
            summary.update(error=str(e), residuals=e.residuals or {},
                           last_iterate=None if e.last_iterate is None else
                           np.atleast_1d(np.asarray(e.last_iterate, dtype=float)).tolist())
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0 if summary["converged"] else 2


if __name__ == "__main__":
    raise SystemExit(main())
