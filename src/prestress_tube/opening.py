"""Stored energy of a cut composite sector versus trial opening angle.

find_opening_angle equilibrates the opened composite at every angle of a grid and
solves for the energy argmin, the angle at which the cut face carries no moment;
opened_energy is one state's energy.  Energies are equilibrium-only (Maxwell branches
relaxed), in microjoule (kPa mm^3).  The derivation is in README ("Opening-angle
energy scan" and "Numerical notes").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, NoConvergence
from .tube import (N_QUAD, TWO_PI, MaterialLayer, SolverReport, _solve_sector, _solve_wall,
                   glued_radii, sector_residuals, wall_sectors)


@dataclass
class EnergyCurve:
    """Energy samples over the angle grid plus the argmin."""
    samples: list              # (alpha_deg, E_microJ), sorted by angle
    argmin_deg: float
    e_min_microj: float
    rho_interface: float       # the argmin's state (mm): the current radius of the first
    l_open: float              # layer's outer sf radius, and the length
    report: SolverReport       # residuals p_net_kpa, F_red_kpa_mm2, moment_kpa_mm2 there;
                               # iterations of its (ri, l, alpha) solve, 0 at a grid sample


def opened_energy(wall, ri, l, alpha) -> float:
    """Stored equilibrium energy (microJ) of the opened composite on a tube.sector_residuals
    wall at its unknowns (ri, l, alpha): E = (2*pi - alpha) l int W r dr = sum_j (2*pi -
    alpha_j) L_j int W R dR; DomainError for alpha >= 2*pi, where no sector is left."""
    if not alpha < TWO_PI:
        raise DomainError(f"need alpha < 2*pi (got {alpha})")
    return float((TWO_PI - alpha) * l * wall(ri, l, alpha, energy=True)[3])


def find_opening_angle(layers: Sequence[MaterialLayer], grid_start_deg: float,
                       grid_end_deg: float, grid_step_deg: float,
                       npts: int = N_QUAD) -> EnergyCurve:
    """Scan the energy over an angle grid and solve for its argmin.

    The grid is equilibrated in one batch.  The argmin is the cut-face
    moment's root in the grid cell next to the lowest sample, solved together
    with sector equilibrium for (ri, l, alpha) from the linear interpolation of
    the cell's two samples to zero moment; without a sign change there
    (minimum on a grid end) it is the lowest sample.
    """
    if not (0.0 < grid_step_deg < math.inf and -math.inf < grid_start_deg < grid_end_deg < math.inf):
        raise ValueError("invalid angle grid")
    angles = np.arange(grid_start_deg, grid_end_deg + 0.5 * grid_step_deg, grid_step_deg)
    if angles[0] < 0.0 or angles[-1] >= 360.0:
        raise ValueError("angle grid leaves [0, 360) deg")

    alpha, secs = np.radians(angles), wall_sectors(layers)
    wall = sector_residuals(layers)(npts)
    x, f, _ = _solve_sector(layers, wall, alpha)
    *_, moments, e = wall(x[0, :, None], x[1, :, None], alpha[:, None], energy=True)
    energies = (TWO_PI - alpha) * x[1] * e
    samples = list(zip(angles.tolist(), energies.tolist()))

    i = int(np.argmin(energies))
    j = i + 1 if moments[i] > 0.0 else i - 1   # M > 0 below the argmin, < 0 above
    y, res, iterations = np.array([x[0, i], x[1, i], alpha[i]]), (*f[:, i], moments[i]), 0
    if moments[i] != 0.0 and 0 <= j < len(angles) and (moments[j] > 0.0) != (moments[i] > 0.0):
        # start where the moments of samples i and j interpolate to zero
        y = y + moments[i] / (moments[i] - moments[j]) * (
            np.array([x[0, j], x[1, j], alpha[j]]) - y)
        y, res, iterations = _solve_wall(layers, wall, y, secs[-1].Ro)
        if (y[2] - alpha[i]) * (y[2] - alpha[j]) > 0.0:
            raise NoConvergence(f"cut-moment root left the grid cell {angles[min(i, j)]:g}.."
                                f"{angles[max(i, j)]:g} deg", y,
                                {'moment_kpa_mm2': float(res[2])}, iterations)
    ri, l, alpha_min = map(float, y)
    a_min, e_min = ((math.degrees(alpha_min), opened_energy(wall, ri, l, alpha_min)) if iterations
                    else (float(angles[i]), float(energies[i])))
    rho = float(glued_radii(secs, ri, l, alpha_min)[1])
    residuals = dict(zip(('p_net_kpa', 'F_red_kpa_mm2', 'moment_kpa_mm2'), map(float, res)))
    return EnergyCurve(samples, a_min, e_min, rho, l, SolverReport(True, iterations, residuals))
