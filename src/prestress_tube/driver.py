"""Material-point driver: deformation-gradient histories through the full model.

The driver composes all constitutive pieces at one material point carrying a
pre-stress map F0: the load-free deformation gradient F_lf is converted to the
stress-free one (F_sf = F_lf F0^{-1}), the Maxwell internal variables are
advanced implicitly, and the total PK2 stress (equilibrium + overstresses) is
pulled back to the lf-configuration and pushed forward to a Cauchy stress.

A run is batched over its rows: F_lf, C_sf, Cbar, the fibre stretches, the
stresses (one isochoric projection for equilibrium and overstress, so one C_sf
inverse per run) and their transforms, det Ci and the overstress norms come
from whole-run tensor calls.  Only the recurrences step, each in one
plain-float loop over the run: the isotropic Ci update and each fibre family's
scalar Newton.  Per-step checks apply to the whole history: det C > 0 before
the recurrences, a valid ViscousState history (unimodular symmetric Ci,
positive lambda_i) before the stresses.

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
from .materials import (PreStressField, cauchy_from_pk2, equilibrium_sbar, isochoric_pk2,
                        pull_back_pk2)
from .maxwell import ViscousState, fibre_evolve, initial_state, iso_evolve, overstress_sbar
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
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be a finite number > 0 (got {self.dt})")
        if not self.keyframes:
            raise ValueError("need at least one keyframe")
        times = [float(t) for t, _ in self.keyframes]
        if times[0] != 0.0 or not all(map(math.isfinite, times)):
            raise ValueError("keyframe times must be finite numbers, the first one 0")
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

    def F_at(self, t):
        """Componentwise linear interpolation at a time or an array of times (shape
        (..., 3, 3)); held constant beyond the last keyframe."""
        times = np.array([kf[0] for kf in self.keyframes])
        frames = np.array([kf[1] for kf in self.keyframes])
        t = np.asarray(t, dtype=float)
        if times.size == 1:
            return np.broadcast_to(frames[0], t.shape + (3, 3)).copy()
        j = np.clip(np.searchsorted(times, t, side='right') - 1, 0, times.size - 2)
        w = np.clip((t - times[j]) / (times[j + 1] - times[j]), 0.0, 1.0)[..., None, None]
        return (1.0 - w) * frames[j] + w * frames[j + 1]


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
    """Per-step records of a driver run, with the fibre local solves' statistics."""
    t: np.ndarray               # (n,)
    cauchy: np.ndarray          # (n, 3, 3)
    det_ci: np.ndarray          # (n,)
    lambda_i: np.ndarray        # (n, n_families)
    overstress_norm: np.ndarray  # (n,) Frobenius norm of the Cauchy overstress, kPa
    fibre_iterations: int = 0   # most iterations of one fibre Newton solve
    fibre_r_max: float = 0.0    # largest final |r| of a fibre Newton solve

    CSV_STRESS_COLS = ("s11_kpa", "s22_kpa", "s33_kpa", "s12_kpa", "s13_kpa", "s23_kpa")

    def header(self):
        return ["t_s", *self.CSV_STRESS_COLS, "det_ci",
                *(f"lambda_i_{j + 1}" for j in range(self.lambda_i.shape[1])), "overstress_kpa"]

    def rows(self):
        return np.column_stack((self.t, self.cauchy[:, [0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]],
                                self.det_ci, self.lambda_i, self.overstress_norm))


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
    iso, fibres_v = layer.iso_maxwell, layer.fibre_maxwell
    times = step_times(program)
    h = np.diff(times)

    F_lf = program.F_at(times)
    F_sf = F_lf @ tn.inverse(f0.F0)
    c_sf = tn.transpose(F_sf) @ F_sf
    cbar = tn.unimodular(c_sf) if iso is not None or fibres_v else None
    state = initial_state(f0, tn.transpose(F_lf[0]) @ F_lf[0], fibres_v)

    ci = iso_evolve(state.Ci, cbar[1:], h, iso) if iso is not None else \
        np.broadcast_to(state.Ci, c_sf.shape)
    lam_i = np.empty((times.size, len(fibres_v)))
    its, r_max = 0, 0.0
    for j, fp in enumerate(fibres_v):
        lam = np.sqrt(np.einsum('nij,i,j->n', cbar, fp.a, fp.a))[1:]
        lam_i[:, j], k, r = fibre_evolve(lam, state.lambda_i[j], h, fp)
        its, r_max = max(its, k), max(r_max, r)
    history = ViscousState(ci, lam_i)

    t_eq_sf, t_over_sf = isochoric_pk2(c_sf, lambda cbar: np.stack((
        equilibrium_sbar(cbar, layer.equilibrium), overstress_sbar(cbar, history, iso, fibres_v))))
    return PointTrace(times, cauchy_from_pk2(pull_back_pk2(t_eq_sf + t_over_sf, f0), F_lf),
                      tn.det(history.Ci), lam_i,
                      np.linalg.norm(cauchy_from_pk2(t_over_sf, F_sf), axis=(1, 2)), its, r_max)
