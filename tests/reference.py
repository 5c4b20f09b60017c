"""Reference forms of the constitutive laws, for the oracles of the tests.

Each function states a law on its own terms, independently of the closed-form
and fictitious-stress kernels the workflows run: the stored energies on the
3x3 tensor route (whose finite-difference gradients the PK2 stresses must
match), the extra Cauchy stress, the Maxwell flow right-hand sides (integrated
by the Runge-Kutta references), the lf <- sf strain transform and the wall
integrals built segment by segment from OpeningMaps.  The tensor-route laws
call the package's fictitious-stress kernels and fibre law; the wall integrals
use their own closed forms, written family by family.
"""

import math

import numpy as np

from prestress_tube import tensor as tn
from prestress_tube.errors import DomainError
from prestress_tube.materials import (EquilibriumMaterial, MooneyRivlinParams, PreStressField,
                                      equilibrium_sbar, fibre_energy, fibre_f, isochoric_pk2)
from prestress_tube import tube
from prestress_tube.tube import gauss_segment
from prestress_tube.maxwell import FibreMaxwellParams, IsoMaxwellParams


# ---------------------------------------------------------------------------
# tensor algebra
# ---------------------------------------------------------------------------

def identity(shape=()):
    """Identity tensor broadcast to leading shape `shape`."""
    out = np.zeros(tuple(shape) + (3, 3))
    out[..., 0, 0] = out[..., 1, 1] = out[..., 2, 2] = 1.0
    return out


def deviator(a):
    """a - (tr a / 3) * 1."""
    a = np.asarray(a, dtype=float)
    out = a.copy()
    t3 = tn.trace(a) / 3.0
    out[..., 0, 0] -= t3
    out[..., 1, 1] -= t3
    out[..., 2, 2] -= t3
    return out


def sym(a):
    return 0.5 * (a + tn.transpose(a))


# ---------------------------------------------------------------------------
# configuration transform
# ---------------------------------------------------------------------------

def clf_from_csf(c_sf, f0: PreStressField):
    """Inverse transform C_lf = F0^T C_sf F0."""
    f = np.asarray(f0.F0, dtype=float)
    return tn.transpose(f) @ np.asarray(c_sf, dtype=float) @ f


# ---------------------------------------------------------------------------
# equilibrium energies and stress on the tensor route
# ---------------------------------------------------------------------------

def mooney_rivlin_energy(c_sf, p: MooneyRivlinParams):
    """c1/2 (tr Cbar - 3) + c2/2 (tr Cbar^{-1} - 3), per unit reference volume."""
    cbar = tn.unimodular(c_sf)
    return 0.5 * p.c1 * (tn.trace(cbar) - 3.0) + 0.5 * p.c2 * (tn.trace(tn.inverse(cbar)) - 3.0)


def fibre_sq_stretch(c_sf, a):
    """Squared unimodular fibre stretch lam2 = a . Cbar a."""
    return np.einsum('...ij,i,j->...', tn.unimodular(c_sf), a, a)


def equilibrium_energy_sf(c_sf, mat: EquilibriumMaterial):
    """Total stored equilibrium energy per unit reference volume (kPa = microJ/mm^3)."""
    w = mooney_rivlin_energy(c_sf, mat.matrix)
    for fp in mat.fibres:
        w = w + fibre_energy(fibre_sq_stretch(c_sf, fp.a), fp.k1, fp.k2)
    return w


def extra_cauchy_equilibrium(f, mat: EquilibriumMaterial):
    """Pressure-indeterminate Cauchy stress F_sf T_pk2 F_sf^T for det F_sf = 1.

    Only differences of its normal components are meaningful; they equal the
    corresponding differences of the true Cauchy stress, the incompressibility
    pressure having cancelled.
    """
    f = np.asarray(f, dtype=float)
    d = tn.det(f)
    if np.any(np.abs(d - 1.0) > 1e-10):
        raise DomainError(f"extra stress assumes det F_sf = 1 (worst |det-1| = {np.max(np.abs(d - 1.0)):.3e})")
    c = tn.transpose(f) @ f
    return f @ isochoric_pk2(c, lambda cbar: equilibrium_sbar(cbar, mat)) @ tn.transpose(f)


# ---------------------------------------------------------------------------
# wall integrals, segment by segment
# ---------------------------------------------------------------------------

class OpeningMap(tube.OpeningMap):
    """The package's sector<->tube map with the segment route's inverse and stretches."""

    def radius_current(self, R):
        """The load-free radius r of the stress-free radius R."""
        rad = self.ri ** 2 + (np.asarray(R) ** 2 - self.Ri ** 2) / (self.k * self.c)
        if (np.real(rad) <= 0.0).any():
            raise DomainError("current radius radicand not positive")
        return np.sqrt(rad)

    def sq_stretches(self, r, R):
        """Squared stretches (lam_r^2, lam_theta^2, lam_z^2) of the closing gradient;
        lam_r^2 = 1 / (lam_theta^2 lam_z^2), so det = 1 by construction."""
        lt, lz = (self.k * r / R) ** 2, self.c ** 2
        return 1.0 / (lt * lz), lt, lz


def diagonal_stress_and_energy(l2, mat: EquilibriumMaterial):
    """(T_theta - T_rr, T_zz - T_rr, W) at C_sf = diag(l2), det = 1, family by family:
    the Mooney-Rivlin extra stress c1 l2_i - c2 / l2_i and energy c1/2 (I1 - 3) + c2/2
    (I2 - 3), plus per fibre family, lam2 = sum_i a_i^2 l2_i and u = lam2 - 1, the
    stress 2 k1 u exp(k2 u^2) a_i^2 l2_i and energy k1/(2 k2) (exp(k2 u^2) - 1).
    Only arithmetic and exp, so complex-step inputs pass through."""
    c1, c2 = mat.matrix.c1, mat.matrix.c2
    t = [c1 * li - c2 / li for li in l2]
    w = 0.5 * c1 * (sum(l2) - 3.0) + 0.5 * c2 * (sum(1.0 / li for li in l2) - 3.0)
    for fp in mat.fibres:
        u = sum(ai * ai * li for ai, li in zip(fp.a, l2)) - 1.0
        e = np.exp(fp.k2 * u * u)
        t = [ti + 2.0 * fp.k1 * u * e * ai * ai * li for ti, ai, li in zip(t, fp.a, l2)]
        w = w + fp.k1 / (2.0 * fp.k2) * (e - 1.0)
    return t[1] - t[0], t[2] - t[0], w


def glued_opening_maps(sectors, alpha, rho, l):
    """One OpeningMap per sector of the sectors glued into one sector of angle
    alpha: the first anchored at the current radius rho by its outer sf radius,
    each later one by its inner sf radius at the outer current radius of the
    one inside it."""
    span, r, maps = 2.0 * math.pi - alpha, rho, []
    for j, sec in enumerate(sectors):
        m = OpeningMap(span / (2.0 * math.pi - sec.alpha), l / sec.L, r, sec.Ri if j else sec.Ro)
        maps.append(m)
        r = m.radius_current(sec.Ro)
    return maps


def segment_wall_integrals(materials, maps, spans, npts, magnitudes=False):
    """(p_net, F_red, M, int W r dr) of a wall, one layer at a time: Gauss nodes
    over each span in the sf radius R, their current radii, weights dr/dR and
    squared stretches from the layer's OpeningMap.  With magnitudes, each is
    instead the sum of its terms' real parts' magnitudes: the scale of its roundoff."""
    part = (lambda v: abs(np.real(v))) if magnitudes else (lambda v: v)
    p = fz = mo = e = 0.0
    for mat, m, span in zip(materials, maps, spans):
        R, w = gauss_segment(*span, npts)
        r = m.radius_current(R)
        w = w * R / (m.k * m.c * r)
        dth, dzz, energy = diagonal_stress_and_energy(m.sq_stretches(r, R), mat)
        p = p + part(w * dth / r).sum(axis=-1)
        fz = fz + math.pi * part(w * (2.0 * dzz - dth) * r).sum(axis=-1)
        mo = mo + 0.5 * part(w * dth * r).sum(axis=-1)
        e = e + part(w * energy * r).sum(axis=-1)
    return p, fz, mo, e


def segment_sector_residuals(layers, npts):
    """tube.sector_residuals on the segment route: the glued wall's (rho, l,
    alpha=0, energy=False) -> segment_wall_integrals at glued_opening_maps."""
    secs = [layer.sector for layer in layers]
    mats, spans = [layer.equilibrium for layer in layers], [(s.Ri, s.Ro) for s in secs]

    def wall(rho, l, alpha=0.0, energy=False):
        out = segment_wall_integrals(mats, glued_opening_maps(secs, alpha, rho, l), spans, npts)
        return out if energy else out[:3]
    return wall


# ---------------------------------------------------------------------------
# Maxwell branches
# ---------------------------------------------------------------------------

def iso_energy(c_sf, ci, p: IsoMaxwellParams):
    """mu/2 (tr(Cbar Ci^{-1}) - 3), the stored energy of the elastic spring."""
    cbar = tn.unimodular(c_sf)
    return 0.5 * p.mu * (np.einsum('...ij,...ji->...', cbar, tn.inverse(ci)) - 3.0)


def iso_flow_rhs(c_sf, ci, p: IsoMaxwellParams):
    """Right-hand side (mu/eta) (Cbar Ci^{-1})^D Ci of the isotropic flow (for reference
    integrators and tests)."""
    cbar = tn.unimodular(c_sf)
    return (p.mu / p.eta) * deviator(cbar @ tn.inverse(ci)) @ np.asarray(ci, dtype=float)


def fibre_flow_rhs(lam, lam_i, p: FibreMaxwellParams):
    """d(lambda_i)/dt = (lambda_i/eta) f_v(lam_e^2) lam_e^2, f_v = 2 fibre_f (for
    reference integrators)."""
    lam_e2 = (lam / lam_i) ** 2
    return lam_i / p.eta_f * 2.0 * fibre_f(lam_e2, p.k1v, p.k2v) * lam_e2
