"""Material-point driver: deformation-gradient histories through the full model.

The driver composes all constitutive pieces at one material point carrying a
pre-stress map F0: at every time step the load-free deformation gradient F_lf
is converted to the stress-free one (F_sf = F_lf F0^{-1}), the Maxwell internal
variables are advanced implicitly, and the total PK2 stress (equilibrium +
overstresses) is pulled back to the lf-configuration and pushed forward to a
Cauchy stress.

The model carries no volumetric energy: the reported stress is the
constitutively determinate ("extra") part, to which an arbitrary hydrostatic
pressure may be superposed for incompressible motions.

Initial conditions are the relaxed-in-load-free state, so the t = 0 overstress
is zero and a constant F_lf = identity program is a fixed point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tn
from .errors import DomainError
from .materials import (PreStressField, cauchy_from_pk2, equilibrium_pk2_sf,
                        pull_back_pk2)
from .maxwell import (fibre_evolve_step, initial_state, iso_evolve_step,
                      overstress_pk2_sf)
from .tube import MaterialLayer

# a Maxwell branch's relaxation time must be resolved by at least this many steps
MIN_STEPS_PER_TAU = 10
# a k*dt grid point closer than this fraction of dt to a keyframe merges into it
MERGE_FRACTION = 1e-9


@dataclass(frozen=True)
class LoadProgram:
    """Piecewise-linear F_lf history: keyframes (t_s, F 3x3), step at most dt."""
    keyframes: tuple
    dt: float

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if not self.keyframes:
            raise ValueError("need at least one keyframe")
        times = [float(t) for t, _ in self.keyframes]
        if times[0] != 0.0:
            raise ValueError("first keyframe must be at t = 0")
        if not all(t2 - t1 >= MERGE_FRACTION * self.dt for t1, t2 in zip(times, times[1:])):
            raise ValueError(f"keyframe times must increase by at least {MERGE_FRACTION:g} dt")
        frames = tuple((float(t), np.asarray(F, dtype=float)) for t, F in self.keyframes)
        for t, F in frames:
            if F.shape != (3, 3):
                raise ValueError("keyframe deformation gradients must be 3x3")
            if not tn.det(F) > 0.0:  # also rejects NaN entries
                raise ValueError(f"keyframe at t = {t} has det F <= 0")
        object.__setattr__(self, 'keyframes', frames)

    @property
    def t_end(self) -> float:
        return self.keyframes[-1][0]

    def F_at(self, t: float):
        """Componentwise linear interpolation; held constant beyond the last keyframe."""
        times = [kf[0] for kf in self.keyframes]
        if t <= times[0]:
            return self.keyframes[0][1]
        if t >= times[-1]:
            return self.keyframes[-1][1]
        j = int(np.searchsorted(times, t, side='right')) - 1
        t0, f0 = self.keyframes[j]
        t1, f1 = self.keyframes[j + 1]
        w = (t - t0) / (t1 - t0)
        return (1.0 - w) * f0 + w * f1


def step_times(program: LoadProgram) -> np.ndarray:
    """Row times of a run: the k*dt grid below t_end plus every keyframe time.

    Grid points within MERGE_FRACTION*dt of a keyframe merge into it, so no
    step is shorter than MERGE_FRACTION*dt or longer than (1 + MERGE_FRACTION)*dt,
    and the last row is at t_end.
    """
    keys = np.array([t for t, _ in program.keyframes])
    grid = np.arange(math.ceil(program.t_end / program.dt)) * program.dt
    j = np.searchsorted(keys, grid)
    gap = np.minimum(np.abs(keys[np.minimum(j, keys.size - 1)] - grid),
                     np.abs(grid - keys[np.maximum(j - 1, 0)]))
    return np.sort(np.concatenate((grid[gap >= MERGE_FRACTION * program.dt], keys)))


@dataclass
class PointTrace:
    """Per-step records of a driver run."""
    t: np.ndarray               # (n,)
    cauchy: np.ndarray          # (n, 3, 3)
    det_ci: np.ndarray          # (n,)
    lambda_i: np.ndarray        # (n, n_families)
    overstress_norm: np.ndarray  # (n,) Frobenius norm of the Cauchy overstress, kPa

    CSV_STRESS_COLS = ("s11_kpa", "s22_kpa", "s33_kpa", "s12_kpa", "s13_kpa", "s23_kpa")

    def header(self):
        cols = ["t_s", *self.CSV_STRESS_COLS, "det_ci"]
        cols += [f"lambda_i_{j + 1}" for j in range(self.lambda_i.shape[1])]
        cols.append("overstress_kpa")
        return cols

    def rows(self):
        ij = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]
        for n in range(self.t.size):
            row = [self.t[n]]
            row += [self.cauchy[n, i, j] for i, j in ij]
            row.append(self.det_ci[n])
            row += list(self.lambda_i[n])
            row.append(self.overstress_norm[n])
            yield row


def _check_dt_resolves(layer: MaterialLayer, dt: float):
    taus = []
    if layer.iso_maxwell is not None:
        taus.append(layer.iso_maxwell.eta / layer.iso_maxwell.mu)
    for fp in layer.fibre_maxwell:
        taus.append(fp.eta_f / (4.0 * fp.k1v))  # linearized relaxation rate near lam_e = 1
    if taus and dt > min(taus) / MIN_STEPS_PER_TAU:
        raise DomainError(f"dt = {dt} does not resolve the fastest relaxation time "
                          f"{min(taus):.4g} s by {MIN_STEPS_PER_TAU} steps")


def run_point(program: LoadProgram, layer: MaterialLayer, f0: PreStressField) -> PointTrace:
    """Integrate the full constitutive response along a load program."""
    _check_dt_resolves(layer, program.dt)
    f0inv = tn.inverse(f0.F0)
    fibres_v = layer.fibre_maxwell
    times = step_times(program)

    F_lf0 = program.F_at(0.0)
    state = initial_state(f0, tn.transpose(F_lf0) @ F_lf0, fibres_v)

    rec_t, rec_cauchy, rec_det, rec_li, rec_over = [], [], [], [], []
    for n, t in enumerate(times):
        F_lf = program.F_at(float(t))
        F_sf = F_lf @ f0inv
        c_sf = tn.transpose(F_sf) @ F_sf
        if n > 0:
            h = float(t - times[n - 1])
            if layer.iso_maxwell is not None:
                state.Ci = iso_evolve_step(c_sf, state.Ci, h, layer.iso_maxwell)
            if fibres_v:
                cbar = tn.unimodular(c_sf)
                for j, fp in enumerate(fibres_v):
                    lam = math.sqrt(float(np.einsum('ij,i,j->', cbar, fp.a, fp.a)))
                    state.lambda_i[j] = fibre_evolve_step(lam, state.lambda_i[j], h, fp)
        t_eq_sf = equilibrium_pk2_sf(c_sf, layer.equilibrium)
        t_over_sf = overstress_pk2_sf(c_sf, state, layer.iso_maxwell, fibres_v)
        t_lf = pull_back_pk2(t_eq_sf + t_over_sf, f0)
        cauchy = cauchy_from_pk2(t_lf, F_lf)
        over_cauchy = cauchy_from_pk2(t_over_sf, F_sf)

        rec_t.append(float(t))
        rec_cauchy.append(cauchy)
        rec_det.append(float(tn.det(state.Ci)))
        rec_li.append(state.lambda_i.copy())
        rec_over.append(float(np.linalg.norm(over_cauchy)))

    return PointTrace(np.asarray(rec_t), np.asarray(rec_cauchy), np.asarray(rec_det),
                      np.asarray(rec_li) if fibres_v else np.zeros((len(rec_t), 0)),
                      np.asarray(rec_over))
