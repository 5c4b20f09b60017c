"""Shared fixtures: reference parameter sets, random-tensor factories, oracles."""

import math
from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from prestress_tube import (
    MaterialLayer,
    SectorGeometry,
    TubeGeometry,
    fibre_evolve,
    initial_state,
    iso_evolve,
    opened_energy,
)
from prestress_tube import tensor as tn
from prestress_tube.driver import PointTrace, step_times
from prestress_tube.errors import NoConvergence, NonPositiveStretch
from prestress_tube.materials import equilibrium_sbar
from prestress_tube.maxwell import LAM_E_RANGE, NEWTON_MAXIT, NEWTON_TOL, overstress_sbar
from prestress_tube.tube import (N_QUAD, _solve_sector, glued_radii, sector_residuals,
                                 wall_stress_profile)

from reference import cauchy_from_pk2, isochoric_pk2, pull_back_pk2

# ---------------------------------------------------------------------------
# reference parameter sets (kPa, kPa*s, degrees).  "media" = stiff inner
# layer, "adventitia" = compliant outer layer; the *_fast Maxwell constants
# give relaxation times ~0.1 s, the *_slow ones ~1 s.
# ---------------------------------------------------------------------------

MEDIA_EQ = dict(c1=3.0, c2=2.0, k1=2.3632, k2=0.8393, beta_deg=29.0)
ADV_EQ = dict(c1=0.3, c2=0.2, k1=0.562, k2=0.7112, beta_deg=62.0)

MEDIA_VISC_FAST = dict(mu=5.0, eta_matrix=0.5, k1v=5.3, k2v=0.8393, eta_fibre=0.53)
ADV_VISC_FAST = dict(mu=1.0, eta_matrix=0.1, k1v=1.3, k2v=0.7112, eta_fibre=0.13)
MEDIA_VISC_SLOW = dict(mu=5.0, eta_matrix=5.0, k1v=5.3, k2v=0.8393, eta_fibre=5.3)

# load-free two-layer tube whose stress-free sectors are sought (mm / deg)
T1_TUBE = TubeGeometry(radii=(0.71, 0.97, 1.1), l=3.0)
T1_ALPHA_DEG = 160.0
T1_TARGET = dict(Ri_mm=1.3948, R_interface_mm=1.6589, Ro_mm=1.8024, L_mm=2.9251)

# per-layer stress-free sectors to be glued into one load-free tube
MEDIA_SECTOR = SectorGeometry(1.0, 1.4, 1.0, math.radians(160.0))
ADV_SECTOR = SectorGeometry(1.5, 1.8, 1.0, math.radians(140.0))
T3_TARGET = dict(r_i_mm=0.4852, r_interface_mm=0.8749, r_o_mm=1.1691, l_mm=1.0063)


def equilibrium_layers():
    """Media + adventitia equilibrium-only layers (inverse problem input)."""
    return [MaterialLayer.from_constants(**MEDIA_EQ),
            MaterialLayer.from_constants(**ADV_EQ)]


def sectored_layers():
    """Media + adventitia layers carrying their stress-free sectors."""
    return [MaterialLayer.from_constants(**MEDIA_EQ, sector=MEDIA_SECTOR),
            MaterialLayer.from_constants(**ADV_EQ, sector=ADV_SECTOR)]


def split_sectored_layer(layers, j, t):
    """The wall with sectored layer j split at the fraction t of its thickness
    into two layers of the same material; returns (layers, split sf radius)."""
    sec = layers[j].sector
    Rs = sec.Ri + t * (sec.Ro - sec.Ri)
    halves = [replace(layers[j], sector=SectorGeometry(lo, hi, sec.L, sec.alpha))
              for lo, hi in ((sec.Ri, Rs), (Rs, sec.Ro))]
    return list(layers[:j]) + halves + list(layers[j + 1:]), Rs


# an opened sector's state: the glued wall's unknowns (mm, mm, rad) in its kernel's order
OpenedState = namedtuple("OpenedState", "r_inner l_open alpha_trial")


def equilibrate_opened(layers, alpha_trial, npts=N_QUAD):
    """(OpenedState, energy, (p_net, F_red)) equilibrated at a fixed trial angle
    by Newton on sector equilibrium."""
    wall = sector_residuals(layers)(npts)
    x, f, _ = _solve_sector(layers, wall, alpha_trial)
    state = OpenedState(float(x[0]), float(x[1]), alpha_trial)
    return state, opened_energy(wall, *state), f


def opened_profile(layers, state):
    """Stress profile of the opened sector: the glued wall at the trial angle."""
    secs = [layer.sector for layer in layers]
    radii = glued_radii(secs, *state)
    return wall_stress_profile(layers, secs, radii, state.l_open, state.alpha_trial)


def opened_residuals(layers, state, npts=N_QUAD):
    """(p_net, F_red, M) of the opened sector at an OpenedState."""
    return sector_residuals(layers)(npts)(*state)


@pytest.fixture
def two_layers():
    return equilibrium_layers()


@pytest.fixture
def t3_layers():
    return sectored_layers()


# ---------------------------------------------------------------------------
# random-tensor factories
# ---------------------------------------------------------------------------

def rand_rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diagonal(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def rand_spd(rng, lo=0.5, hi=2.0):
    """Random SPD 3x3 with eigenvalues uniform in [lo, hi]."""
    q = rand_rotation(rng)
    eig = rng.uniform(lo, hi, size=3)
    return (q * eig) @ q.T


def rand_unimodular(rng, spread=0.4):
    """Random well-conditioned F with det = 1."""
    while True:
        f = np.eye(3) + spread * rng.standard_normal((3, 3))
        d = np.linalg.det(f)
        if d > 0.3:
            return f * d ** (-1.0 / 3.0)


def rand_motion(rng, spread=0.3):
    """Random deformation gradient with a safely positive determinant."""
    while True:
        f = np.eye(3) + spread * rng.standard_normal((3, 3))
        if np.linalg.det(f) > 0.3:
            return f


def rand_unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def fd_pk2(energy, c, h=1e-6):
    """2 * d(energy)/dC by entrywise central differences (the gradient oracle)."""
    g = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            cp, cm = c.copy(), c.copy()
            cp[i, j] += h
            cm[i, j] -= h
            g[i, j] = (energy(cp) - energy(cm)) / (2.0 * h)
    return 2.0 * g


def rel_err(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def rk4_path(rhs, y0, t_end, dt):
    """Fixed-step classical RK4 on dy/dt = rhs(y); returns y(t_end)."""
    y = np.asarray(y0, dtype=float).copy()
    n = int(round(t_end / dt))
    for _ in range(n):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def ode_reference(rhs, y0, t_eval):
    """High-accuracy adaptive Runge-Kutta reference trajectory (n_t, n_y)."""
    sol = solve_ivp(lambda t, y: rhs(y), (0.0, float(t_eval[-1])),
                    np.asarray(y0, dtype=float).ravel(),
                    t_eval=t_eval, rtol=1e-12, atol=1e-14)
    assert sol.success
    return sol.y.T


def constant_strain_ci(c_sf, ci0, dt, n, p):
    """Ci after each of n implicit isotropic steps of dt from ci0 at the constant
    strain c_sf, (n, 3, 3): one maxwell.iso_evolve history."""
    return iso_evolve(ci0, np.broadcast_to(tn.unimodular(c_sf), (n, 3, 3)), np.full(n, dt), p)[1:]


def constant_stretch_lambda_i(lam, li0, dt, n, p):
    """lambda_i after each of n backward-Euler fibre steps of dt from li0 at the
    constant stretch lam, (n,): one maxwell.fibre_evolve history."""
    return fibre_evolve(np.full(n, lam), li0, np.full(n, dt), p)[0][1:]


def reference_iso_step(c_sf_new, ci_old, dt, p):
    """One isotropic Maxwell update as a single numpy expression on 3x3 tensors."""
    if abs(tn.det(ci_old) - 1.0) > 1e-8:
        raise ValueError(f"det Ci_old = {tn.det(ci_old):.10f}, expected 1")
    return tn.unimodular(ci_old + (dt * p.mu / p.eta) * tn.unimodular(c_sf_new))


def reference_fibre_step(lam_new, lam_i_old, dt, p):
    """One backward-Euler fibre update with its residual as a closure (the
    per-step oracle of maxwell.fibre_evolve); returns (lambda_i, iterations, |r|)."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if lam_new <= 0.0 or lam_i_old <= 0.0:
        raise NonPositiveStretch("stretches must be positive")
    lam_e0 = lam_new / lam_i_old
    if not LAM_E_RANGE[0] <= lam_e0 <= LAM_E_RANGE[1]:
        raise NoConvergence("elastic fibre stretch outside safe range", last_iterate=lam_i_old)

    x_old = math.log(lam_i_old)
    x_star = math.log(lam_new)
    lo, hi = min(x_old, x_star), max(x_old, x_star)
    lam2 = lam_new * lam_new
    k1v, k2v, eta = p.k1v, p.k2v, p.eta_f

    def resid(x):
        u = lam2 * math.exp(-2.0 * x) - 1.0
        e = math.exp(k2v * u * u)
        fv = 2.0 * k1v * u * e
        h = fv * (u + 1.0)
        dfv = 2.0 * k1v * e * (1.0 + 2.0 * k2v * u * u)
        hp = dfv * (u + 1.0) + fv
        r = x - x_old - dt / eta * h
        dr = 1.0 + dt / eta * 2.0 * (u + 1.0) * hp
        return r, dr

    x = 0.5 * (lo + hi)
    r, dr = resid(x)
    for it in range(NEWTON_MAXIT):
        if abs(r) < NEWTON_TOL:
            return math.exp(x), it, abs(r)
        lo, hi = (lo, x) if r > 0.0 else (x, hi)
        step = r / dr if dr != 0.0 else math.inf
        x_new = x - step
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        if x_new == x:
            return math.exp(x), it, abs(r)
        x = x_new
        r, dr = resid(x)
    raise NoConvergence("fibre stretch update did not converge", last_iterate=math.exp(x),
                        residuals={'r': r})


def reference_run_point(program, layer, f0, iso_step=reference_iso_step):
    """The driver as a per-step loop over single 3x3 tensors (oracle of run_point)."""
    f0inv = tn.inverse(f0.F0)
    fibres_v = layer.fibre_maxwell
    times = step_times(program)
    F_lf0 = program.F_at(0.0)
    state = initial_state(f0, tn.transpose(F_lf0) @ F_lf0, fibres_v)

    rec_cauchy, rec_det, rec_li, rec_over = [], [], [], []
    for n, t in enumerate(times):
        F_lf = program.F_at(float(t))
        F_sf = F_lf @ f0inv
        c_sf = tn.transpose(F_sf) @ F_sf
        if n > 0:
            h = float(t - times[n - 1])
            if layer.iso_maxwell is not None:
                state.Ci = iso_step(c_sf, state.Ci, h, layer.iso_maxwell)
            if fibres_v:
                cbar = tn.unimodular(c_sf)
                for j, fp in enumerate(fibres_v):
                    lam = math.sqrt(float(np.einsum('ij,i,j->', cbar, fp.a, fp.a)))
                    state.lambda_i[j] = fibre_evolve((lam,), state.lambda_i[j], (h,), fp)[0][1]
        t_eq_sf = isochoric_pk2(c_sf, lambda cb: equilibrium_sbar(cb, layer.equilibrium))
        t_over_sf = isochoric_pk2(
            c_sf, lambda cb: overstress_sbar(cb, state, layer.iso_maxwell, fibres_v))
        t_lf = pull_back_pk2(t_eq_sf + t_over_sf, f0)
        rec_cauchy.append(cauchy_from_pk2(t_lf, F_lf))
        rec_det.append(float(tn.det(state.Ci)))
        rec_li.append(state.lambda_i.copy())
        rec_over.append(float(np.linalg.norm(cauchy_from_pk2(t_over_sf, F_sf))))

    return PointTrace(times, np.asarray(rec_cauchy), np.asarray(rec_det),
                      np.asarray(rec_li).reshape(times.size, len(fibres_v)),
                      np.asarray(rec_over))
