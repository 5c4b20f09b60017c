"""Isotropic and fibre-like Maxwell bodies on the stress-free configuration.

Internal variables (per material point):

* Ci       -- inelastic right Cauchy-Green tensor of the isotropic branch,
              unimodular by construction of the flow and of the update;
* lambda_i -- inelastic stretch of each viscous fibre family.

Only these invariant combinations of the elastic/inelastic split are ever
needed, so the split factors themselves are never stored.

The isotropic update is the closed-form solution of implicit Euler applied to

    dCi/dt = (mu/eta) (Cbar Ci^{-1})^D Ci ,

namely  Ci_new = unimodular( Ci_old + (dt mu/eta) Cbar_new ),  which is
unconditionally stable and preserves det Ci = 1 exactly.  The fibre update is
backward Euler on x = ln(lambda_i) with a safeguarded Newton (bisection
fallback); the root is bracketed by [x_old, ln(lambda)] because the flow drives
lambda_i monotonically toward lambda.  iso_evolve and fibre_evolve step whole
histories in plain floats (the *_step functions are one-step calls).  Each
overstress is materials.isochoric_pk2 of its fictitious stress.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tn
from .errors import NoConvergence, NonPositiveDeterminant, NonPositiveStretch
from .materials import PreStressField, csf_from_clf, isochoric_pk2

# fibre local solve
NEWTON_TOL = 1e-12
NEWTON_MAXIT = 50
LAM_E_RANGE = (0.2, 5.0)  # outside this the exp() argument is meaningless; refuse the step

# the six symmetric components 11, 22, 33, 12, 13, 23 of a 3x3 tensor, and back
_SYM = ([0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2])
_FULL = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])


@dataclass(frozen=True)
class IsoMaxwellParams:
    """Neo-Hookean Maxwell branch of the matrix: shear modulus mu (kPa), viscosity eta (kPa s)."""
    mu: float
    eta: float

    def __post_init__(self):
        if self.mu <= 0.0 or self.eta <= 0.0:
            raise ValueError(f"need mu > 0 and eta > 0 (got mu={self.mu}, eta={self.eta})")


@dataclass(frozen=True)
class FibreMaxwellParams:
    """Viscous fibre family: k1v (kPa), k2v (dimensionless), eta_f (kPa s), unit direction a."""
    k1v: float
    k2v: float
    eta_f: float
    a: np.ndarray

    def __post_init__(self):
        if self.k1v <= 0.0 or self.k2v <= 0.0 or self.eta_f <= 0.0:
            raise ValueError(f"need k1v, k2v, eta_f > 0 (got {self.k1v}, {self.k2v}, {self.eta_f})")
        a = np.asarray(self.a, dtype=float)
        if abs(np.linalg.norm(a) - 1.0) > 1e-12:
            raise ValueError("fibre direction must be unit length")
        object.__setattr__(self, 'a', a)


@dataclass
class ViscousState:
    """Internal variables of one material point (one isotropic branch + n fibre families),
    or of a history of them: Ci of shape (..., 3, 3), lambda_i of shape (..., n)."""
    Ci: np.ndarray
    lambda_i: np.ndarray

    def __post_init__(self):
        self.Ci = np.asarray(self.Ci, dtype=float)
        self.lambda_i = np.atleast_1d(np.asarray(self.lambda_i, dtype=float))
        dev = np.abs(tn.det(self.Ci) - 1.0)
        if not np.all(dev <= 1e-10):  # also rejects NaN entries
            raise ValueError(f"Ci must be unimodular (|det - 1| up to {np.max(dev):.3e})")
        if not tn.is_symmetric(self.Ci):
            raise ValueError("Ci must be symmetric")
        if np.any(self.lambda_i <= 0.0):
            raise NonPositiveStretch("inelastic stretches must be positive")

    def copy(self):
        return ViscousState(self.Ci.copy(), self.lambda_i.copy())


# ---------------------------------------------------------------------------
# isotropic branch
# ---------------------------------------------------------------------------

def iso_energy(c_sf, ci, p: IsoMaxwellParams):
    """mu/2 (tr(Cbar Ci^{-1}) - 3), the stored energy of the elastic spring."""
    cbar = tn.unimodular(c_sf)
    return 0.5 * p.mu * (np.einsum('...ij,...ji->...', cbar, tn.inverse(ci)) - 3.0)


def iso_overstress(c_sf, ci, p: IsoMaxwellParams):
    """PK2 overstress 2 d(energy)/dC at fixed Ci, of fictitious stress mu Ci^{-1}."""
    ciinv = tn.inverse(ci)
    return isochoric_pk2(c_sf, lambda cbar: p.mu * ciinv)


def iso_evolve(ci0, cbar, h, p: IsoMaxwellParams):
    """Ci history [ci0, Ci_1, ..., Ci_n] (n + 1, 3, 3) of the isotropic flow with
    Ci_k = unimodular(Ci_{k-1} + h_k mu/eta Cbar_k), Cbar (n, 3, 3), steps h (n,),
    stepped in plain floats over the six symmetric components from ci0, which
    must have |det ci0 - 1| <= 1e-8."""
    ks = (np.asarray(h, dtype=float) * (p.mu / p.eta)).tolist()
    if not all(k > 0.0 for k in ks):
        raise ValueError("dt must be positive")
    ci0 = np.asarray(ci0, dtype=float)
    if abs(tn.det(ci0) - 1.0) > 1e-8:
        raise ValueError(f"det Ci_old = {tn.det(ci0):.10f}, expected 1")
    a00, a11, a22, a01, a02, a12 = ci0[_SYM].tolist()
    rows = [(a00, a11, a22, a01, a02, a12)]
    for (b00, b11, b22, b01, b02, b12), k in zip(np.asarray(cbar)[:, _SYM[0], _SYM[1]].tolist(), ks):
        a00, a11, a22 = a00 + k * b00, a11 + k * b11, a22 + k * b22
        a01, a02, a12 = a01 + k * b01, a02 + k * b02, a12 + k * b12
        d = a00 * (a11 * a22 - a12 * a12) - a01 * (a01 * a22 - a12 * a02) + a02 * (a01 * a12 - a11 * a02)
        if not d > 0.0:
            raise NonPositiveDeterminant(f"unimodular part needs det > 0 (det = {d:.3e})")
        s = d ** (-1.0 / 3.0)
        a00, a11, a22, a01, a02, a12 = a00 * s, a11 * s, a22 * s, a01 * s, a02 * s, a12 * s
        rows.append((a00, a11, a22, a01, a02, a12))
    return np.array(rows)[:, _FULL]


def iso_evolve_step(c_sf_new, ci_old, dt: float, p: IsoMaxwellParams):
    """One implicit step of the isotropic flow; returns the new (unimodular) Ci."""
    return iso_evolve(ci_old, tn.unimodular(c_sf_new)[None], (dt,), p)[1]


def iso_flow_rhs(c_sf, ci, p: IsoMaxwellParams):
    """Right-hand side (mu/eta) (Cbar Ci^{-1})^D Ci of the isotropic flow (for reference
    integrators and tests)."""
    cbar = tn.unimodular(c_sf)
    return (p.mu / p.eta) * tn.deviator(cbar @ tn.inverse(ci)) @ np.asarray(ci, dtype=float)


# ---------------------------------------------------------------------------
# fibre branch
# ---------------------------------------------------------------------------

def visc_fibre_f(lam2, k1v: float, k2v: float):
    """f_v(lam2) = 2 k1v (lam2 - 1) exp(k2v (lam2 - 1)^2) = d(energy)/d(lam2)."""
    u = np.asarray(lam2, dtype=float) - 1.0
    return 2.0 * k1v * u * np.exp(k2v * u * u)


def visc_fibre_energy(lam2, k1v: float, k2v: float):
    """k1v/k2v (exp(k2v (lam2 - 1)^2) - 1)."""
    u = np.asarray(lam2, dtype=float) - 1.0
    return k1v / k2v * (np.exp(k2v * u * u) - 1.0)


def fibre_overstress_scalar(lam, lam_i, p: FibreMaxwellParams):
    """Prefactor f_v(lam_e^2) / lam_i^2 with lam_e = lam/lam_i."""
    lam, lam_i = np.asarray(lam, dtype=float), np.asarray(lam_i, dtype=float)
    if np.any(lam <= 0.0) or np.any(lam_i <= 0.0):
        raise NonPositiveStretch("stretches must be positive")
    lam_e2 = (lam / lam_i) ** 2
    return visc_fibre_f(lam_e2, p.k1v, p.k2v) / lam_i ** 2


def fibre_overstress(c_sf, lam_i, p: FibreMaxwellParams):
    """(prefactor, PK2 overstress tensor) of one viscous fibre family at fixed lam_i."""
    pref, sbar = fibre_sbar(tn.unimodular(c_sf), lam_i, p)
    return pref, isochoric_pk2(c_sf, lambda cbar: sbar)


def fibre_sbar(cbar, lam_i, p: FibreMaxwellParams):
    """(prefactor, fictitious stress 2 (f_v(lam_e^2)/lam_i^2) a(x)a), lam^2 = a . Cbar a."""
    pref = fibre_overstress_scalar(np.sqrt(np.einsum('...ij,i,j->...', cbar, p.a, p.a)), lam_i, p)
    return pref, 2.0 * np.asarray(pref)[..., None, None] * tn.dyad(p.a)


def fibre_flow_rhs(lam, lam_i, p: FibreMaxwellParams):
    """d(lambda_i)/dt = (lambda_i/eta) f_v(lam_e^2) lam_e^2 (for reference integrators)."""
    lam_e2 = (lam / lam_i) ** 2
    return lam_i / p.eta_f * visc_fibre_f(lam_e2, p.k1v, p.k2v) * lam_e2


def fibre_evolve(lam, lam_i0: float, h, p: FibreMaxwellParams):
    """Backward-Euler history (n + 1,) of one fibre family's lambda_i from lam_i0 under
    stretches lam (n,) and steps h (n,), with the most Newton iterations and largest final
    |r| of a step.  Each step solves r = x - x_old - (dt/eta) f_v(lam_e^2) lam_e^2 = 0,
    lam_e^2 = lam^2 exp(-2x), for x = ln(lambda_i) from the midpoint of [x_old, ln(lam)];
    |r| can exceed NEWTON_TOL when the iterate stops moving before it gets there."""
    k2v, a1, b2 = p.k2v, 2.0 * p.k1v, 2.0 * p.k2v
    rows, its, r_max = [float(lam_i0)], 0, 0.0
    for lam_new, dt in zip(np.asarray(lam, float).tolist(), np.asarray(h, float).tolist()):
        lam_i_old = rows[-1]
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        if lam_new <= 0.0 or lam_i_old <= 0.0:
            raise NonPositiveStretch("stretches must be positive")
        lam_e0 = lam_new / lam_i_old
        if not LAM_E_RANGE[0] <= lam_e0 <= LAM_E_RANGE[1]:
            raise NoConvergence(f"elastic fibre stretch {lam_e0:.4f} outside safe range "
                                f"{LAM_E_RANGE}", last_iterate=lam_i_old)
        x_old, x_star = math.log(lam_i_old), math.log(lam_new)  # x_star: the flow's fixed point
        lo, hi = (x_old, x_star) if x_old < x_star else (x_star, x_old)
        lam2, k, k2 = lam_new * lam_new, dt / p.eta_f, dt / p.eta_f * 2.0
        x = 0.5 * (lo + hi)
        for it in range(NEWTON_MAXIT + 1):
            u = lam2 * math.exp(-2.0 * x) - 1.0     # lam_e^2 - 1
            w, e = u + 1.0, math.exp(k2v * u * u)
            fv = a1 * u * e                         # f_v(lam_e^2)
            r = x - x_old - k * (fv * w)
            if it == NEWTON_MAXIT:
                raise NoConvergence("fibre stretch update did not converge "
                                    f"(dt={dt}, lam={lam_new}, lam_i={lam_i_old})",
                                    last_iterate=math.exp(x), residuals={'r': r})
            if abs(r) < NEWTON_TOL:
                break
            lo, hi = (lo, x) if r > 0.0 else (x, hi)
            dr = 1.0 + k2 * w * (a1 * e * (1.0 + b2 * u * u) * w + fv)  # du/dx = -2 w
            x_new = x - (r / dr if dr != 0.0 else math.inf)
            if not lo < x_new < hi:          # Newton left the bracket: bisect
                x_new = 0.5 * (lo + hi)
            if x_new == x:
                break
            x = x_new
        rows.append(math.exp(x))
        its, r_max = max(its, it), max(r_max, abs(r))
    return np.array(rows), its, r_max


def fibre_evolve_step(lam_new: float, lam_i_old: float, dt: float, p: FibreMaxwellParams):
    """One backward-Euler step of fibre_evolve; returns (lambda_i, iterations, |r|)."""
    lam_i, its, r = fibre_evolve((lam_new,), lam_i_old, (dt,), p)
    return float(lam_i[1]), its, r


# ---------------------------------------------------------------------------
# assembled overstress and initial conditions
# ---------------------------------------------------------------------------

def overstress_sbar(cbar, state: ViscousState, iso, fibres):
    """Total fictitious overstress (isotropic branch, if any, + all fibre families)."""
    s = iso.mu * tn.inverse(state.Ci) if iso is not None else np.zeros(np.shape(cbar))
    return sum((fibre_sbar(cbar, state.lambda_i[..., j], fp)[1] for j, fp in enumerate(fibres)), s)


def overstress_pk2_sf(c_sf, state: ViscousState, iso, fibres):
    """Total viscous PK2 overstress; broadcasts over a history of C and of states."""
    return isochoric_pk2(c_sf, lambda cbar: overstress_sbar(cbar, state, iso, fibres))


def initial_state(f0: PreStressField, c_lf_initial, fibres) -> ViscousState:
    """Relaxed-in-the-load-free-state initial conditions.

    Ci = Cbar_sf at t = 0 and lambda_i = lambda at t = 0, so that every
    overstress vanishes identically at the start of the run.
    """
    cbar0 = tn.unimodular(csf_from_clf(c_lf_initial, f0))
    lam_i0 = [math.sqrt(float(np.einsum('ij,i,j->', cbar0, fp.a, fp.a))) for fp in fibres]
    return ViscousState(cbar0, np.asarray(lam_i0, dtype=float))
