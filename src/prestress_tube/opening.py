"""Stored energy of a cut composite sector versus trial opening angle.

When a two-layer tube with incompatible stress-free sectors is cut open, it
springs to an opened sector whose angle minimizes the total stored energy.
For a trial angle alpha_t the opened sector is assumed circular; its remaining
kinematic freedoms are the interface radius rho_interface and the length
l_open, fixed by minimizing the energy at that angle (which is equivalent to
sector equilibrium: at the inner minimum the net pressure and reduced axial
force of the opened sector vanish).

The argmin over the angle grid exhibits the mutual locking of the layers: the
composite's opening angle is smaller than either layer's own angle.  All
energies are equilibrium-only (Maxwell branches relaxed); units are
microjoule (kPa mm^3).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import minimize

from .errors import DomainError, NoConvergence
from .materials import equilibrium_energy_sf
from .tensor import transpose
from .tube import (N_QUAD, TWO_PI, MaterialLayer, gauss_segment, newton2, sector_segments,
                   wall_sectors)

GRAD_TOL = 1e-8        # required infinity-norm of dE/d(rho, l) at the inner optimum
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
THREADS_ENV = "PRESTRESS_TUBE_THREADS"


@dataclass(frozen=True)
class OpenedStateCandidate:
    """Trial opened configuration: angle (rad), interface radius and length (mm)."""
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
    """Energy samples over the angle grid plus the refined argmin."""
    samples: list              # (alpha_deg, E_microJ), sorted by angle
    argmin_deg: float
    e_min_microj: float
    candidate: OpenedStateCandidate   # equilibrated state at the refined argmin


def opened_segments(layers: Sequence[MaterialLayer], cand: OpenedStateCandidate):
    """Wall segments of the opened sector: the glued wall at the trial angle."""
    return sector_segments(layers, cand.alpha_trial, cand.rho_interface, cand.l_open)


def opened_energy(layers: Sequence[MaterialLayer], cand: OpenedStateCandidate,
                  npts: int = N_QUAD) -> float:
    """Total stored equilibrium energy of the opened composite (microJ).

    E = sum_j (2*pi - alpha_j) * L_j * int W(C_sf(R)) R dR over each layer's
    sf volume.
    """
    e = 0.0
    for seg in opened_segments(layers, cand):
        sec = seg.layer.sector
        R, w = gauss_segment(sec.Ri, sec.Ro, npts)
        F = seg.map.deformation_gradient(seg.map.radius_current(R), R)
        wdens = equilibrium_energy_sf(transpose(F) @ F, seg.layer.equilibrium)
        e += (TWO_PI - sec.alpha) * sec.L * float(np.sum(w * wdens * R))
    return e


def equilibrate_opened(layers: Sequence[MaterialLayer], alpha_trial: float,
                       npts: int = N_QUAD):
    """Equilibrated opened state at a fixed trial angle.

    Minimizes the energy over (rho_interface, l_open) by Nelder-Mead, then
    polishes with a finite-difference-gradient Newton step loop.  Returns
    (OpenedStateCandidate, energy).
    """
    sec = wall_sectors(layers)
    kappa0 = (TWO_PI - alpha_trial) / (TWO_PI - sec[0].alpha)
    x0 = np.array([sec[0].Ro * math.sqrt(1.0 / kappa0), sum(s.L for s in sec) / len(sec)])

    def energy(x):
        if x[0] <= 0.0 or x[1] <= 0.0:
            return 1e30
        try:
            return opened_energy(layers, OpenedStateCandidate(alpha_trial, x[0], x[1]), npts)
        except DomainError:
            return 1e30

    res = minimize(energy, x0, method='Nelder-Mead',
                   options={'xatol': 1e-10, 'fatol': 1e-12, 'maxiter': 4000, 'maxfev': 4000})
    x = np.asarray(res.x, dtype=float)

    def grad(x):
        g = np.empty(2)
        for j in range(2):
            h = 1e-6 * max(1.0, abs(x[j]))
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            g[j] = (energy(xp) - energy(xm)) / (2.0 * h)
        return g

    try:
        x_pol, gval, _ = newton2(grad, x, tol=GRAD_TOL, max_iter=12)
        if energy(x_pol) <= energy(x) + 1e-14:
            x = x_pol
    except NoConvergence:
        pass  # keep the Nelder-Mead iterate; the gradient check below decides

    g = grad(x)
    if np.max(np.abs(g)) > GRAD_TOL:
        raise NoConvergence(f"inner equilibration stalled at |dE| = {np.max(np.abs(g)):.3e}",
                            last_iterate=x, residuals={'grad': g.tolist()})
    cand = OpenedStateCandidate(alpha_trial, float(x[0]), float(x[1]))
    return cand, float(energy(x))


def _thread_count(threads: Optional[int]) -> int:
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get(THREADS_ENV)
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def find_opening_angle(layers: Sequence[MaterialLayer], grid_start_deg: float = 0.0,
                       grid_end_deg: float = 180.0, grid_step_deg: float = 2.0,
                       npts: int = N_QUAD, threads: Optional[int] = None,
                       refine_tol_deg: float = 0.1) -> EnergyCurve:
    """Scan the energy over an angle grid and refine the argmin.

    Grid points are independent and evaluated in a thread pool (capped by the
    PRESTRESS_TUBE_THREADS environment variable); the argmin cell is then
    refined by golden-section search down to refine_tol_deg.
    """
    if grid_step_deg <= 0.0 or grid_end_deg <= grid_start_deg:
        raise ValueError("invalid angle grid")
    angles = np.arange(grid_start_deg, grid_end_deg + 0.5 * grid_step_deg, grid_step_deg)

    def eval_deg(a_deg: float) -> float:
        return equilibrate_opened(layers, math.radians(a_deg), npts)[1]

    with ThreadPoolExecutor(max_workers=_thread_count(threads)) as pool:
        energies = list(pool.map(eval_deg, angles))

    samples = [(float(a), float(e)) for a, e in zip(angles, energies)]
    i_min = int(np.argmin(energies))
    lo = angles[max(i_min - 1, 0)]
    hi = angles[min(i_min + 1, len(angles) - 1)]

    # golden-section refinement inside the bracketing cell
    a, b = float(lo), float(hi)
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = eval_deg(c), eval_deg(d)
    while b - a > refine_tol_deg:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = eval_deg(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = eval_deg(d)
    argmin_deg = 0.5 * (a + b)
    cand, e_min = equilibrate_opened(layers, math.radians(argmin_deg), npts)
    return EnergyCurve(samples, argmin_deg, e_min, cand)
