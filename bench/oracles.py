"""Invariant checks on CLI outputs, one per workload.

Each check accepts any correct implementation: it tests physics invariants
of the outputs, never digests or stored reference values.  A check returns a
list of violations (empty when the output passes) plus observations the
traced run reports (step counts, unsampled keyframes).
"""

from __future__ import annotations

import csv
import math

ROUND_TRIP_RTOL = 1e-8
DET_CI_TOL = 1e-10
# relative to the largest stress component in the run
INITIAL_OVERSTRESS_RTOL = 1e-10
ENERGY_TOL = 1e-9
KEYFRAME_TIME_TOL = 1e-9


def read_csv(path: str):
    """(header, rows of floats) of a CLI CSV; the first line is a comment."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    return header, [[float(v) for v in row] for row in reader]


def tube_round_trip(geometry: dict, load_free_key: dict):
    """load-free(inverse-sf(tube)) must reproduce the tube within ROUND_TRIP_RTOL."""
    bad = []
    for name in ("r_i_mm", "r_interface_mm", "r_o_mm", "l_mm"):
        if name not in geometry:
            continue
        want, got = geometry[name], load_free_key.get(name)
        if not isinstance(got, (int, float)) or not math.isfinite(got) \
                or abs(got - want) > ROUND_TRIP_RTOL * abs(want):
            bad.append(f"round trip {name}: {got!r} vs input {want!r}")
    if "r_interface_mm" not in geometry and "r_interface_mm" in load_free_key:
        bad.append("single-layer round trip reported an interface radius")
    return bad, {}


def opening_scan(cfg: dict, key: dict, csv_path: str):
    """Locking (argmin below both layer angles) and argmin energy <= every sample."""
    bad = []
    argmin, e_min = key.get("argmin_deg"), key.get("e_min_microj")
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in (argmin, e_min)):
        return [f"non-finite argmin/energy: {argmin!r}, {e_min!r}"], {}
    for layer in ("media", "adventitia"):
        alpha = cfg[layer]["sector"]["alpha_deg"]
        if not argmin < alpha:
            bad.append(f"no locking: argmin {argmin:.6g} deg >= {layer} angle {alpha:.6g} deg")
    _, rows = read_csv(csv_path)
    if not rows:
        bad.append("empty energy curve")
    for angle, energy in rows:
        if not math.isfinite(energy):
            bad.append(f"non-finite energy at {angle} deg")
        elif e_min > energy + ENERGY_TOL * max(1.0, abs(energy)):
            bad.append(f"argmin energy {e_min!r} above the sample {energy!r} at {angle} deg")
    return bad, {}


def point_drive(cfg: dict, csv_path: str):
    """det Ci = 1 on every row, zero overstress at t = 0, finite stresses."""
    header, rows = read_csv(csv_path)
    bad = []
    if not rows:
        return ["empty trace"], {"steps": 0, "unsampled_keyframes": 0}
    col = {name: j for j, name in enumerate(header)}
    stress_cols = [j for name, j in col.items() if name.startswith("s") and name.endswith("_kpa")]
    if len(stress_cols) != 6 or "det_ci" not in col or "overstress_kpa" not in col:
        return [f"unexpected trace columns {header}"], {"steps": 0, "unsampled_keyframes": 0}
    scale = 1.0
    for n, row in enumerate(rows):
        if not all(math.isfinite(v) for v in row):
            bad.append(f"non-finite value in row {n}")
            continue
        scale = max(scale, *(abs(row[j]) for j in stress_cols))
        if abs(row[col["det_ci"]] - 1.0) > DET_CI_TOL:
            bad.append(f"det Ci = {row[col['det_ci']]!r} in row {n}")
    first = rows[0]
    if first[col["t_s"]] != 0.0:
        bad.append(f"first row at t = {first[col['t_s']]!r}, not 0")
    if not abs(first[col["overstress_kpa"]]) <= INITIAL_OVERSTRESS_RTOL * scale:
        bad.append(f"overstress {first[col['overstress_kpa']]!r} kPa at t = 0")
    times = [row[col["t_s"]] for row in rows]
    unsampled = sum(
        1 for t_k, _ in cfg["program"]["keyframes"]
        if not any(abs(t - t_k) <= KEYFRAME_TIME_TOL * max(1.0, t_k) for t in times))
    return bad, {"steps": len(rows) - 1, "unsampled_keyframes": unsampled}
