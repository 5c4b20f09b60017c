"""Stored energy of a cut composite sector versus trial opening angle.

When a layered tube with incompatible stress-free sectors is cut open, it
springs to an opened sector whose angle minimizes the total stored energy.
For a trial angle alpha_t the opened sector is assumed circular: the layers'
sectors glued into one sector of that angle (tube.sector_segments).  Its
anchor radius rho_interface and length l_open minimize the energy at that
angle, that is, they satisfy sector equilibrium, which the tube solvers'
Newton (complex-step Jacobian) solves.

At an equilibrated state dE/dalpha = -l_open * M, where M = 1/2 int (T_theta -
T_rr) r dr is the bending moment on the cut face.  The argmin is therefore the
angle at which the cut face carries no moment (Chuong & Fung 1986): the scan
brackets it on an angle grid and solves M = 0 in the bracket.

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
from .materials import diagonal_energy
from .tube import N_QUAD, TWO_PI, MaterialLayer, _solve_sector, sector_segments

REFINE_MAXIT = 50      # secant iterations on the cut-face moment


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
    """Energy samples over the angle grid plus the refined argmin."""
    samples: list              # (alpha_deg, E_microJ), sorted by angle
    argmin_deg: float
    e_min_microj: float
    candidate: OpenedStateCandidate   # equilibrated state at the refined argmin
    residuals: dict            # p_net_kpa, F_red_kpa_mm2, moment_kpa_mm2 of the candidate
    iterations: int            # secant iterations on the cut-face moment


def opened_segments(layers: Sequence[MaterialLayer], cand: OpenedStateCandidate):
    """Wall segments of the opened sector: the glued wall at the trial angle."""
    return sector_segments(layers, cand.alpha_trial, cand.rho_interface, cand.l_open)


def cut_moment(layers: Sequence[MaterialLayer], cand: OpenedStateCandidate,
               npts: int = N_QUAD) -> float:
    """Bending moment on the cut face, M = 1/2 int (T_theta - T_rr) r dr (kPa mm^2).

    At equilibrium T_rr vanishes on both faces, so M = int T_theta r dr.
    """
    m = 0.0
    for seg in opened_segments(layers, cand):
        r, R, w = seg.nodes(npts)
        dth, _ = seg.stress_differences(r, R)
        m += 0.5 * float(np.sum(w * dth * r))
    return m


def opened_energy(layers: Sequence[MaterialLayer], cand: OpenedStateCandidate,
                  npts: int = N_QUAD) -> float:
    """Total stored equilibrium energy of the opened composite (microJ).

    E = (2*pi - alpha) * l_open * int W(C_sf) r dr over the opened wall; the
    maps are isochoric, so each layer's part equals its sf-volume integral
    (2*pi - alpha_j) * L_j * int W R dR.
    """
    e = 0.0
    for seg in opened_segments(layers, cand):
        r, R, w = seg.nodes(npts)
        wdens = diagonal_energy(seg.map.sq_stretches(r, R), seg.layer.equilibrium)
        e += float(np.sum(w * wdens * r))
    return (TWO_PI - cand.alpha_trial) * cand.l_open * e


def equilibrate_opened(layers: Sequence[MaterialLayer], alpha_trial: float,
                       npts: int = N_QUAD, start=None):
    """(OpenedStateCandidate, energy, (p_net, F_red)) equilibrated at a fixed trial angle
    by Newton on sector equilibrium, from `start` = (rho_interface, l_open) if given."""
    x, f, _ = _solve_sector(layers, alpha_trial, npts, start=start)
    cand = OpenedStateCandidate(alpha_trial, float(x[0]), float(x[1]))
    return cand, opened_energy(layers, cand, npts), f


def find_opening_angle(layers: Sequence[MaterialLayer], grid_start_deg: float = 0.0,
                       grid_end_deg: float = 180.0, grid_step_deg: float = 2.0,
                       npts: int = N_QUAD, refine_tol_deg: float = 0.1) -> EnergyCurve:
    """Scan the energy over an angle grid and solve for its argmin.

    The grid is equilibrated in order, each angle starting from its neighbours'
    states.  The argmin is the cut-face moment's root in the grid cell next to
    the lowest sample, bracketed to refine_tol_deg; without a sign change there
    (minimum on a grid end) it is the lowest sample.
    """
    if grid_step_deg <= 0.0 or grid_end_deg <= grid_start_deg:
        raise ValueError("invalid angle grid")
    angles = np.arange(grid_start_deg, grid_end_deg + 0.5 * grid_step_deg, grid_step_deg)
    if angles[0] < 0.0 or angles[-1] >= 360.0:
        raise ValueError("angle grid leaves [0, 360) deg")

    states = []        # (candidate, energy, residual) per grid angle
    for a_deg in angles:
        # start on the line through the two previous states
        xs = [np.array([s[0].rho_interface, s[0].l_open]) for s in states[-2:]]
        start = 2.0 * xs[1] - xs[0] if len(xs) == 2 else (xs[0] if xs else None)
        states.append(equilibrate_opened(layers, math.radians(a_deg), npts, start))
    samples = [(float(a_deg), s[1]) for a_deg, s in zip(angles, states)]

    def moment_at(a_deg):
        nonlocal best
        start = (best[0].rho_interface, best[0].l_open)
        best = equilibrate_opened(layers, math.radians(a_deg), npts, start)
        return cut_moment(layers, best[0], npts)

    i_min = int(np.argmin([e for _, e in samples]))
    a_best, best = float(angles[i_min]), states[i_min]
    m_best = cut_moment(layers, best[0], npts)
    j = i_min + 1 if m_best > 0.0 else i_min - 1   # M > 0 below the argmin, < 0 above
    iterations = 0
    if m_best != 0.0 and 0 <= j < len(angles):
        m_j = cut_moment(layers, states[j][0], npts)
        if (m_j > 0.0) != (m_best > 0.0):
            a_best, m_best, iterations = _illinois(moment_at, a_best, m_best, float(angles[j]),
                                                   m_j, refine_tol_deg)
    cand, e_min, (p, fz) = best
    residuals = {'p_net_kpa': float(p), 'F_red_kpa_mm2': float(fz), 'moment_kpa_mm2': m_best}
    return EnergyCurve(samples, a_best, e_min, cand, residuals, iterations)


def _illinois(f, a, fa, b, fb, tol):
    """Root of f between a and b (fa, fb of opposite sign) by Illinois regula falsi:
    the last iterate, f there and the iteration count once the bracket is below tol."""
    side = 0
    for it in range(1, REFINE_MAXIT + 1):
        c = b - fb * (b - a) / (fb - fa)
        fc = f(c)
        if (fc > 0.0) == (fa > 0.0):
            a, fa = c, fc
            fb *= 0.5 if side == 1 else 1.0
            side = 1
        else:
            b, fb = c, fc
            fa *= 0.5 if side == -1 else 1.0
            side = -1
        if fc == 0.0 or abs(b - a) <= tol:
            return c, fc, it
    raise NoConvergence(f"cut-moment root not bracketed within {tol} deg in {REFINE_MAXIT} "
                        "iterations", last_iterate=[a, b], iterations=REFINE_MAXIT)
