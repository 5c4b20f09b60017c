"""Material-point driver: a deformation-gradient program through the full model.

run_point carries one material point with a pre-stress map F0 along a LoadProgram,
from the state relaxed in the load-free configuration, and returns a PointTrace of
its extra Cauchy stress, overstress and internal variables.  How a run is batched
and checked is in README ("Material-point driver" and "Numerical notes").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tn
from .errors import DomainError, NonPositiveDeterminant
from .materials import PreStressField, equilibrium_sbar, fibre_f, isochoric_kirchhoff
from .maxwell import (NEWTON_TOL, ViscousState, fibre_evolve, fibre_overstress_scalar,
                      initial_state, iso_evolve, overstress_sbar)
from .tube import MaterialLayer, SolverReport

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
        frames = [np.asarray(F, dtype=float) for _, F in self.keyframes]
        if any(F.shape != (3, 3) for F in frames):
            raise ValueError("keyframe deformation gradients must be 3x3")
        ok = np.isfinite(stack := np.array(frames)).all(axis=(1, 2))
        ok[ok] = tn.det(stack[ok]) > 0.0   # one det for all finite keyframes
        if not ok.all():
            raise ValueError(f"keyframe at t = {times[ok.argmin()]} needs finite F with det F > 0")
        object.__setattr__(self, 'keyframes', tuple(zip(times, frames)))

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
    """Per-step records of a driver run, with the record of its fibre local solves."""
    t: np.ndarray               # (n,)
    cauchy: np.ndarray          # (n, 3, 3)
    det_ci: np.ndarray          # (n,)
    lambda_i: np.ndarray        # (n, n_families)
    overstress_norm: np.ndarray  # (n,) Frobenius norm of the Cauchy overstress, kPa
    report: SolverReport | None = None  # fibre solves and det Ci check; set by run_point

    CSV_STRESS_COLS = ("s11_kpa", "s22_kpa", "s33_kpa", "s12_kpa", "s13_kpa", "s23_kpa")

    def header(self):
        return ["t_s", *self.CSV_STRESS_COLS, "det_ci",
                *(f"lambda_i_{j + 1}" for j in range(self.lambda_i.shape[1])), "overstress_kpa"]

    def rows(self):
        return np.column_stack((self.t, self.cauchy[:, [0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]],
                                self.det_ci, self.lambda_i, self.overstress_norm))


def _check_dt_resolves(layer: MaterialLayer, dt: float):
    taus = [fp.eta_f / (4.0 * fp.k1v) for fp in layer.fibre_maxwell]  # linearized at lam_e = 1
    if layer.iso_maxwell is not None:
        taus.append(layer.iso_maxwell.eta / layer.iso_maxwell.mu)
    if taus and dt > min(taus) / MIN_STEPS_PER_TAU:
        raise DomainError(f"dt = {dt} does not resolve the fastest relaxation time "
                          f"{min(taus):.4g} s by {MIN_STEPS_PER_TAU} steps")


def _shared(fn, keys):
    """[fn(j) for each family j], computed once per distinct key (constants, history bytes)."""
    done = {}
    return [done[k] if k in done else done.setdefault(k, fn(j)) for j, k in enumerate(keys)]


def run_point(program: LoadProgram, layer: MaterialLayer, f0: PreStressField) -> PointTrace:
    """Integrate the full constitutive response along a load program."""
    _check_dt_resolves(layer, program.dt)
    iso, fibres_v, eq = layer.iso_maxwell, layer.fibre_maxwell, layer.equilibrium.fibres
    times = step_times(program)
    h = np.diff(times)

    F_lf = program.F_at(times)
    F_sf = F_lf @ f0._inv
    c_sf = tn.transpose(F_sf) @ F_sf
    d_sf = tn.det(c_sf)
    cbar = tn.unimodular(c_sf, d_sf) if iso is not None or fibres_v else None
    state = initial_state(f0, tn.transpose(F_lf[0]) @ F_lf[0], fibres_v)

    ci = iso_evolve(state.Ci, cbar[1:], h, iso) if iso is not None else \
        np.broadcast_to(state.Ci, c_sf.shape)
    # one a . Cbar a history per direction, one fibre term per group of equivalent families
    a = [fp.a for fp in eq + fibres_v]
    lam2 = [] if cbar is None else _shared(lambda j: np.einsum('nij,i,j->n', cbar, a[j], a[j]),
                                           [x.tobytes() for x in a])
    f_eq = _shared(lambda j: fibre_f(lam2[j], eq[j].k1, eq[j].k2),
                   [(fp.k1, fp.k2, x.tobytes()) for fp, x in zip(eq, lam2)])
    lam = [np.sqrt(x) for x in lam2[len(eq):]]
    keys = [(fp.k1v, fp.k2v, fp.eta_f, state.lambda_i[j], lam[j].tobytes())
            for j, fp in enumerate(fibres_v)]
    fams = _shared(lambda j: fibre_evolve(lam[j][1:], state.lambda_i[j], h, fibres_v[j]), keys)
    lam_i = np.column_stack([s[0] for s in fams] or [np.empty((times.size, 0))])
    its, r_max = max([0] + [s[1] for s in fams]), max([0.0] + [s[2] for s in fams])
    history = ViscousState(ci, lam_i)
    pref = _shared(lambda j: fibre_overstress_scalar(lam[j], lam_i[:, j], fibres_v[j]), keys)

    tau = isochoric_kirchhoff(F_sf, c_sf, d_sf, lambda cbar: np.stack((
        equilibrium_sbar(cbar, layer.equilibrium, f_eq),
        overstress_sbar(cbar, history, iso, fibres_v, pref))))
    if np.any((j_lf := tn.det(F_lf)) <= 0.0):
        raise NonPositiveDeterminant(f"push-forward needs det F > 0 (min = {np.min(j_lf):.3e})")
    # converged: every fibre solve ended below the local Newton tolerance
    report = SolverReport(r_max < NEWTON_TOL, its,
                          {"det_ci_max_dev": float(np.max(np.abs(history._det - 1.0))),
                           "fibre_r_max": r_max})
    return PointTrace(times, (tau[0] + tau[1]) / j_lf[:, None, None], history._det, lam_i,
                      np.linalg.norm(tau[1], axis=(1, 2)) / np.sqrt(d_sf), report)
