"""Seeded input generation for the three benchmark workloads.

Every draw comes from one ``random.Random`` stream per workload and seed, so
the same seed gives identical JSON configs on any machine.  Configs are plain
dicts in the CLI's documented format; the worker writes them to disk before
timing starts, and the program only ever sees those files.  Nothing here is
re-drawn or filtered after a failure.
"""

from __future__ import annotations

import itertools
import math
import random

# reference constitutive constants (kPa, kPa s, degrees)
MEDIA = {"c1_kpa": 3.0, "c2_kpa": 2.0, "k1_kpa": 2.3632, "k2": 0.8393, "beta_deg": 29.0}
ADVENTITIA = {"c1_kpa": 0.3, "c2_kpa": 0.2, "k1_kpa": 0.562, "k2": 0.7112, "beta_deg": 62.0}
# fast: relaxation times 0.1 s (matrix) and 0.025 s (fibres); slow: 1 s and 0.25 s
MAXWELL = {
    "fast": {"mu_matrix_kpa": 5.0, "eta_matrix_kpa_s": 0.5, "k1_visc_kpa": 5.3,
             "k2_visc": 0.8393, "eta_fibre_kpa_s": 0.53},
    "slow": {"mu_matrix_kpa": 5.0, "eta_matrix_kpa_s": 5.0, "k1_visc_kpa": 5.3,
             "k2_visc": 0.8393, "eta_fibre_kpa_s": 5.3},
}
SCAN_GRID_POINTS = 12
# Discrete choices that change a unit's cost are cycled, not drawn, so every
# run sees the same mix and only the continuous draws depend on the seed.
STRATA = {
    # (two layers, quadrature points)
    "tube-solve": list(itertools.product((False, True), (16, 32, 64))),
    # grid step, deg
    "opening-scan": [8, 9, 10],
    # (Maxwell constants, ramp-hold rather than cyclic, deformation mode)
    "point-drive": list(itertools.product(("fast", "slow"), (True, False),
                                          ("axial", "hoop", "shear"))),
}
IDENTITY = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]

# Per-workload pool sizes: comfortably more units than one run completes today,
# so a several-fold speed-up still sees distinct inputs before the pool cycles.
POOL_SIZE = {"tube-solve": 4096, "opening-scan": 256, "point-drive": 2048}


def _stratum(workload: str, i: int):
    return STRATA[workload][i % len(STRATA[workload])]


def tube_solve(rng: random.Random, i: int) -> dict:
    """inverse-sf config: one- or two-layer load-free tube plus opening angle."""
    two_layer, quad_points = _stratum("tube-solve", i)
    r_i = rng.uniform(0.5, 1.2)
    r_o = r_i + r_i * rng.uniform(0.25, 0.6)
    geometry = {"r_i_mm": r_i, "r_o_mm": r_o, "l_mm": rng.uniform(1.0, 4.0),
                "alpha_deg": rng.uniform(90.0, 200.0)}
    cfg = {"workflow": "inverse-sf", "geometry": geometry, "media": dict(MEDIA),
           "solver": {"quad_points": quad_points}}
    if two_layer:
        geometry["r_interface_mm"] = r_i + (r_o - r_i) * rng.uniform(0.4, 0.8)
        cfg["adventitia"] = dict(ADVENTITIA)
    return cfg


def load_free_from_inverse(inverse_cfg: dict, key: dict) -> dict:
    """load-free config gluing the sectors an inverse-sf run returned."""
    two_layer = "R_interface_mm" in key
    split = key["R_interface_mm"] if two_layer else key["Ro_mm"]

    def sector(lo, hi):
        return {"R_i_mm": lo, "R_o_mm": hi, "L_mm": key["L_mm"], "alpha_deg": key["alpha_deg"]}

    cfg = {"workflow": "load-free", "media": dict(MEDIA, sector=sector(key["Ri_mm"], split)),
           "solver": dict(inverse_cfg["solver"])}
    if two_layer:
        cfg["adventitia"] = dict(ADVENTITIA, sector=sector(split, key["Ro_mm"]))
    return cfg


def opening_scan(rng: random.Random, i: int) -> dict:
    """energy-scan config: incompatible media/adventitia sectors and an angle grid.

    The adventitia's inner radius exceeds the media's outer radius and the
    media sector opens wider; that is the mutually locking regime, where the
    composite's energy argmin lies below both layer angles.  The grid has a
    fixed number of points and always extends past both layer angles, so the
    locking check is a real constraint on the argmin.
    """
    Ri = rng.uniform(0.9, 1.1)
    Ro = Ri + rng.uniform(0.35, 0.45)
    Ri_a = Ro + rng.uniform(0.08, 0.15)
    Ro_a = Ri_a + rng.uniform(0.25, 0.35)
    L = rng.uniform(0.8, 1.2)
    alpha_a = rng.uniform(110.0, 150.0)
    alpha_m = alpha_a + rng.uniform(5.0, 20.0)
    step = _stratum("opening-scan", i)
    end = math.ceil(alpha_m) + rng.randrange(step)
    return {
        "workflow": "energy-scan",
        "media": dict(MEDIA, sector={"R_i_mm": Ri, "R_o_mm": Ro, "L_mm": L,
                                     "alpha_deg": alpha_m}),
        "adventitia": dict(ADVENTITIA, sector={"R_i_mm": Ri_a, "R_o_mm": Ro_a,
                                               "L_mm": L * rng.uniform(1.0, 1.1),
                                               "alpha_deg": alpha_a}),
        "grid": {"start_deg": float(end - (SCAN_GRID_POINTS - 1) * step),
                 "end_deg": float(end), "step_deg": float(step)},
    }


def _deformation(rng: random.Random, mode: str):
    """Isochoric target F: uniaxial stretch along z or theta, or simple shear."""
    if mode == "shear":
        g = rng.uniform(0.05, 0.3)
        return [[1.0, g, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    s = 1.0 + rng.uniform(0.05, 0.3)
    t = s ** -0.5
    diag = [t, t, s] if mode == "axial" else [t, s, t]
    return [[diag[0], 0.0, 0.0], [0.0, diag[1], 0.0], [0.0, 0.0, diag[2]]]


def point_drive(rng: random.Random, i: int) -> dict:
    """point-test config: ramp-hold or cyclic F(t) on a pre-stressed point.

    Keyframe times are drawn independently of dt, so most of them fall off the
    k*dt step grid; the run has 40-160 steps.
    """
    speed, ramp, mode = _stratum("point-drive", i)
    tau_min = 0.025 if speed == "fast" else 0.25
    dt = tau_min / 10.0 * rng.uniform(0.5, 0.95)
    t_end = dt * rng.uniform(40.0, 160.0)
    F = _deformation(rng, mode)
    if ramp:
        frames = [[0.0, IDENTITY], [t_end * rng.uniform(0.1, 0.5), F], [t_end, F]]
    else:
        n = 2 * rng.choice((2, 3, 4))
        frames = [[t_end * j / n, F if j % 2 else IDENTITY] for j in range(n + 1)]
    alpha = math.radians(rng.uniform(90.0, 200.0))
    k = 2.0 * math.pi / (2.0 * math.pi - alpha)
    ri = rng.uniform(0.5, 1.2)
    return {
        "workflow": "point-test",
        "material": dict(MEDIA, **MAXWELL[speed]),
        "f0_opening_map": {"k": k, "c": rng.uniform(0.9, 1.1), "ri_mm": ri,
                           "Ri_mm": k * ri * rng.uniform(0.8, 1.2),
                           "r_mm": ri * (1.0 + rng.uniform(0.0, 0.5))},
        "program": {"dt_s": dt, "keyframes": frames},
    }


GENERATORS = {"tube-solve": tube_solve, "opening-scan": opening_scan,
              "point-drive": point_drive}



def generate(workload: str, seed: int, count: int):
    """`count` configs of one workload drawn from `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    return [GENERATORS[workload](rng, i) for i in range(count)]


def warmup(workload: str) -> dict:
    """The untimed warm-up unit's config.

    It does not depend on the seed, so the set-up time of every seed covers
    the same work.  The scan's warm-up runs every code path of a scan (pool,
    minimizer, refinement) at half the cost, on a two-point grid that brackets
    this config's energy minimum at 87.1 deg.
    """
    cfg = GENERATORS[workload](random.Random(f"{workload}:warm-up"), 0)
    if workload == "opening-scan":
        cfg["grid"] = {"start_deg": 86.0, "end_deg": 88.0, "step_deg": 2.0}
    return cfg
