"""Stored energy of a cut composite sector versus trial opening angle.

When a layered tube with incompatible stress-free sectors is cut open, it
springs to an opened sector whose angle minimizes the total stored energy.
For a trial angle alpha_t the opened sector is assumed circular: the layers'
sectors glued into one sector of that angle (tube.sector_residuals).  Its
anchor radius rho_interface and length l_open minimize the energy at that
angle, that is, they satisfy sector equilibrium, which the tube solvers'
Newton (complex-step Jacobian) solves.

At an equilibrated state dE/dalpha = -l_open * M, where M = 1/2 int (T_theta -
T_rr) r dr is the bending moment on the cut face.  The argmin is therefore the
angle at which the cut face carries no moment (Chuong & Fung 1986).  The scan
equilibrates its whole angle grid in one batched Newton, each angle from the
same cold start, and evaluates every energy and moment in one broadcast call;
the argmin solve reuses that solve's node table (tube.sector_residuals).
When M changes sign next to the lowest sample, the argmin is the Newton root
of (p_net, F_red, M) in (rho_interface, l_open, alpha) inside that grid cell.

The argmin exhibits the mutual locking of the layers: the composite's opening
angle is smaller than each layer's own angle.  All energies are
equilibrium-only (Maxwell branches relaxed); units are microjoule (kPa mm^3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NoConvergence
from .tube import (N_QUAD, NEWTON_MAXIT, NEWTON_TOL, TWO_PI, MaterialLayer, SolverReport,
                   _solve_sector, _solve_wall, sector_residuals)


@dataclass(frozen=True)
class OpenedStateCandidate:
    """Trial opened configuration: angle (rad), anchor radius and length (mm).

    rho_interface is the current radius at which the innermost layer's outer
    sf radius sits: its interface with the next layer, or the outer radius of
    a one-layer wall.
    """
    alpha_trial: float
    rho_interface: float
    l_open: float

    def __post_init__(self):
        if not 0.0 <= self.alpha_trial < TWO_PI:
            raise ValueError("need 0 <= alpha_trial < 2*pi")
        if self.rho_interface <= 0.0 or self.l_open <= 0.0:
            raise ValueError("need positive rho_interface and l_open")


@dataclass
class EnergyCurve:
    """Energy samples over the angle grid plus the argmin."""
    samples: list              # (alpha_deg, E_microJ), sorted by angle
    argmin_deg: float
    e_min_microj: float
    candidate: OpenedStateCandidate   # equilibrated state at the argmin
    report: SolverReport       # residuals p_net_kpa, F_red_kpa_mm2, moment_kpa_mm2 of the
                               # candidate; iterations of the argmin's (rho, l, alpha)
                               # solve, 0 when the argmin is a grid sample


def opened_energy(wall, cand: OpenedStateCandidate) -> float:
    """Stored equilibrium energy (microJ) of the opened composite on a tube.sector_residuals
    wall: E = (2*pi - alpha) l_open int W r dr = sum_j (2*pi - alpha_j) L_j int W R dR."""
    e = wall(cand.rho_interface, cand.l_open, cand.alpha_trial, energy=True)[3]
    return float((TWO_PI - cand.alpha_trial) * cand.l_open * e)


def find_opening_angle(layers: Sequence[MaterialLayer], grid_start_deg: float = 0.0,
                       grid_end_deg: float = 180.0, grid_step_deg: float = 2.0,
                       npts: int = N_QUAD) -> EnergyCurve:
    """Scan the energy over an angle grid and solve for its argmin.

    The grid is equilibrated in one batch.  The argmin is the cut-face
    moment's root in the grid cell next to the lowest sample, solved together
    with sector equilibrium for (rho, l, alpha); without a sign change there
    (minimum on a grid end) it is the lowest sample.
    """
    if grid_step_deg <= 0.0 or grid_end_deg <= grid_start_deg:
        raise ValueError("invalid angle grid")
    angles = np.arange(grid_start_deg, grid_end_deg + 0.5 * grid_step_deg, grid_step_deg)
    if angles[0] < 0.0 or angles[-1] >= 360.0:
        raise ValueError("angle grid leaves [0, 360) deg")

    alpha = np.radians(angles)
    wall = sector_residuals(layers, npts)
    x, f, _ = _solve_sector(layers, wall, alpha)
    *_, moments, e = wall(x[0, :, None], x[1, :, None], alpha[:, None], energy=True)
    energies = (TWO_PI - alpha) * x[1] * e
    samples = list(zip(angles.tolist(), energies.tolist()))

    i = int(np.argmin(energies))
    j = i + 1 if moments[i] > 0.0 else i - 1   # M > 0 below the argmin, < 0 above
    y, res, iterations = np.array([x[0, i], x[1, i], alpha[i]]), (*f[:, i], moments[i]), 0
    if moments[i] != 0.0 and 0 <= j < len(angles) and (moments[j] > 0.0) != (moments[i] > 0.0):
        y, res, iterations = _solve_wall(layers, wall, y, y[0], NEWTON_TOL, NEWTON_MAXIT)
        if (y[2] - alpha[i]) * (y[2] - alpha[j]) > 0.0:
            raise NoConvergence(f"cut-moment root left the grid cell {angles[min(i, j)]:g}.."
                                f"{angles[max(i, j)]:g} deg", y,
                                {'moment_kpa_mm2': float(res[2])}, iterations)
    cand = OpenedStateCandidate(float(y[2]), float(y[0]), float(y[1]))
    a_min, e_min = ((math.degrees(y[2]), opened_energy(wall, cand)) if iterations
                    else (float(angles[i]), float(energies[i])))
    residuals = dict(zip(('p_net_kpa', 'F_red_kpa_mm2', 'moment_kpa_mm2'), map(float, res)))
    return EnergyCurve(samples, a_min, e_min, cand, SolverReport(True, iterations, residuals))
