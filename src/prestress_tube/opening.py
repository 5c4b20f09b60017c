"""Stored energy of a cut composite sector versus trial opening angle.

When a layered tube with incompatible stress-free sectors is cut open, it
springs to an opened sector whose angle minimizes the total stored energy.
For a trial angle alpha_t the opened sector is assumed circular: the layers'
sectors glued into one sector of that angle (tube.sector_residuals).  Its
inner radius and length l_open minimize the energy at that angle, that is,
they satisfy sector equilibrium, which the tube solvers' Newton (complex-step
Jacobian) solves in (ln r_i, ln l_open).

At an equilibrated state dE/dalpha = -l_open * M, where M = 1/2 int (T_theta -
T_rr) r dr is the bending moment on the cut face.  The argmin is therefore the
angle at which the cut face carries no moment (Chuong & Fung 1986).  The scan
equilibrates its whole angle grid in one batched Newton, each angle from its
own closed-form start (tube._solve_sector), and evaluates every energy and
moment in one broadcast call; the argmin solve reuses that solve's node table
(tube.sector_residuals).  When M changes sign next to the lowest sample, the
argmin is the Newton root of (p_net, F_red, M) in (ln r_i, ln l_open,
ln(2*pi - alpha)) inside that grid cell, started where the two samples' moments
interpolate linearly to zero; its rho_interface follows from tube.glued_radii.

The argmin exhibits the mutual locking of the layers: the composite's opening
angle is smaller than each layer's own angle.  All energies are
equilibrium-only (Maxwell branches relaxed); units are microjoule (kPa mm^3).
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
    wall = sector_residuals(layers, npts)
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
