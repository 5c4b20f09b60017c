"""Reference forms of the constitutive laws, for the oracles of the tests.

Each function states a law on its own terms, independently of the closed-form
and fictitious-stress kernels the workflows run: the stored energies on the
3x3 tensor route (whose finite-difference gradients the PK2 stresses must
match), the extra Cauchy stress, the Maxwell flow right-hand sides (integrated
by the Runge-Kutta references), the PK2 route of the isochoric projection (the
C^{-1} projection, the pull-back by F0 and the push-forward) that the driver's
Kirchhoff projection replaces, the lf <- sf strain transform, one layer's
sector<->tube map (OpeningMap), the wall integrals built segment by segment
from OpeningMaps, on Gauss nodes uniform in ln r, and the stress profile laid
out sample-major as np.linspace samples it.  The tensor-route laws
call the package's fictitious-stress kernels and fibre law, and the stress
profile its closed-form kernel; the wall integrals use their own closed forms,
written family by family.
"""

import math
from dataclasses import dataclass

import numpy as np

from prestress_tube import tensor as tn
from prestress_tube.errors import DomainError, NonPositiveDeterminant
from prestress_tube.materials import (EquilibriumMaterial, MooneyRivlinParams, PreStressField,
                                      diagonal_stress_differences, equilibrium_sbar,
                                      fibre_energy, fibre_f, material_columns)
from prestress_tube.tube import PROFILE_POINTS, neo_hookean_closing
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
# configuration transforms and the PK2 route
# ---------------------------------------------------------------------------

def clf_from_csf(c_sf, f0: PreStressField):
    """Inverse transform C_lf = F0^T C_sf F0."""
    f = np.asarray(f0.F0, dtype=float)
    return tn.transpose(f) @ np.asarray(c_sf, dtype=float) @ f


def pull_back_pk2(t_sf, f0: PreStressField):
    """PK2 re-referencing sf -> lf: T_lf = F0^{-1} T_sf F0^{-T}."""
    return f0._inv @ np.asarray(t_sf, dtype=float) @ tn.transpose(f0._inv)


def cauchy_from_pk2(t_pk2, f):
    """Push-forward T = (det F)^{-1} F T_pk2 F^T."""
    f = np.asarray(f, dtype=float)
    d = tn.det(f)
    if np.any(d <= 0.0):
        raise NonPositiveDeterminant(f"push-forward needs det F > 0 (min = {np.min(d):.3e})")
    return (f @ np.asarray(t_pk2, dtype=float) @ tn.transpose(f)) / d[..., None, None]


def isochoric_pk2(c_sf, fictitious, d=None):
    """PK2 stress J^(-2/3) Dev Sbar, Dev(.) = (.) - 1/3 [(.) : C] C^{-1}, for Sbar =
    fictitious(Cbar) of shape (..., 3, 3), or (k, ..., 3, 3) for k stresses at once;
    det C (d, if known) and C^{-1} are formed once for all of them."""
    c = np.asarray(c_sf, dtype=float)
    d = tn.det(c) if d is None else d
    cinv = tn.inverse(c, d)
    if np.any(d <= 0.0):
        raise NonPositiveDeterminant(f"unimodular part needs det > 0 (min det = {np.min(d):.3e})")
    j23 = d[..., None, None] ** (-1.0 / 3.0)
    sbar = fictitious(c * j23)
    return j23 * (sbar - (tn.ddot(sbar, c) / 3.0)[..., None, None] * cinv)


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

@dataclass(frozen=True)
class OpeningMap:
    """One layer's sector<->tube map, anchored at the radius pair (ri, Ri).

    R^2 - Ri^2 = k c (r^2 - ri^2) links the load-free radius r to the stress-free
    radius R.  k < 1 is admissible: an opened sector whose angle exceeds the
    layer's own stretches the layer circumferentially.  Constants of shape (m, 1),
    complex in a Jacobian, map m states at once (radii get a leading state axis);
    admissibility is checked on real parts.
    """

    k: float
    c: float
    ri: float
    Ri: float

    def __post_init__(self):
        if np.any(np.real(self.k) <= 0.0) or np.any(np.real(self.c) <= 0.0):
            raise DomainError(f"need k > 0 and c > 0 (got k={self.k}, c={self.c})")

    def radius_sf(self, r):
        """The stress-free radius R of the load-free radius r."""
        rad = self.Ri ** 2 + self.k * self.c * (np.asarray(r) ** 2 - self.ri ** 2)
        if (np.real(rad) <= 0.0).any():
            raise DomainError("sf radius radicand not positive")
        return np.sqrt(rad)

    def radius_current(self, R):
        """The load-free radius r of the stress-free radius R."""
        rad = self.ri ** 2 + (np.asarray(R) ** 2 - self.Ri ** 2) / (self.k * self.c)
        if (np.real(rad) <= 0.0).any():
            raise DomainError("current radius radicand not positive")
        return np.sqrt(rad)

    def F0(self, r):
        """Pre-stress map lf -> sf at load-free radius r: the inverse closing gradient
        diag(c f, 1/f, 1/c), f = k r / R."""
        f = self.k * np.asarray(r, float) / self.radius_sf(r)
        d = np.broadcast_arrays(self.c * f, 1.0 / f, 1.0 / self.c)
        return np.stack(d, axis=-1)[..., None] * np.eye(3)

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


def glued_opening_maps(sectors, alpha, ri, l):
    """One OpeningMap per sector of the sectors glued into one sector of angle
    alpha: each anchored by its inner sf radius, the first at the current radius
    ri, each later one at the outer current radius of the one inside it."""
    span, r, maps = 2.0 * math.pi - alpha, ri, []
    for sec in sectors:
        m = OpeningMap(span / (2.0 * math.pi - sec.alpha), l / sec.L, r, sec.Ri)
        maps.append(m)
        r = m.radius_current(sec.Ro)
    return maps


def gauss_segment(a: float, b: float, n: int):
    """Gauss-Legendre nodes/weights mapped to [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def closing_maps(layers):
    """The glued wall's neo-Hookean closing (tube.neo_hookean_closing): one OpeningMap
    per layer, at alpha = 0 and l = L_1, and each layer's span of current radii."""
    secs = [layer.sector for layer in layers]
    r = np.sqrt(neo_hookean_closing(layers))
    return glued_opening_maps(secs, 0.0, r[0], secs[0].L), list(zip(r, r[1:]))


def segment_wall_integrals(materials, maps, spans, npts, magnitudes=False, closing=None):
    """(p_net, F_red, M, int W r dr) of a wall, one layer at a time, on Gauss nodes
    uniform in ln r over each span of current radii: of the maps' own wall (the
    inverse solve's nodes, fixed in the load-free r), whose sf radii follow from the
    maps, or of the closing maps' wall, whose sf radii R stay fixed and give the
    current radii, weights dr/dR and squared stretches from the maps.  With
    magnitudes, each is instead the sum of its terms' real parts' magnitudes: the
    scale of its roundoff."""
    part = (lambda v: abs(np.real(v))) if magnitudes else (lambda v: v)
    p = fz = mo = e = 0.0
    for j, (mat, m, span) in enumerate(zip(materials, maps, spans)):
        t, w = gauss_segment(*np.log(span), npts)
        r = np.exp(t)
        w = w * r
        if closing is None:
            R = m.radius_sf(r)
        else:
            mc = closing[j]
            R = mc.radius_sf(r)
            w = w * mc.k * mc.c * r / R
            r = m.radius_current(R)
            w = w * R / (m.k * m.c * r)
        dth, dzz, energy = diagonal_stress_and_energy(m.sq_stretches(r, R), mat)
        p = p + part(w * dth / r).sum(axis=-1)
        fz = fz + math.pi * part(w * (2.0 * dzz - dth) * r).sum(axis=-1)
        mo = mo + 0.5 * part(w * dth * r).sum(axis=-1)
        e = e + part(w * energy * r).sum(axis=-1)
    return p, fz, mo, e


def segment_sector_residuals(layers, npts, check=False):
    """tube.sector_residuals on the segment route: the glued wall's (ri, l,
    alpha=0, energy=False) -> segment_wall_integrals at glued_opening_maps; with
    check, also the same wall at 2 * npts nodes."""
    secs = [layer.sector for layer in layers]
    mats, (closing, spans) = [layer.equilibrium for layer in layers], closing_maps(layers)

    def at(n):
        def wall(ri, l, alpha=0.0, energy=False):
            out = segment_wall_integrals(mats, glued_opening_maps(secs, alpha, ri, l), spans, n,
                                         closing=closing)
            return out if energy else out[:3]
        return wall
    return (at(npts), at(2 * npts)) if check else at(npts)


def linspace_wall_stress_profile(layers, sectors, radii, l, alpha=0.0):
    """tube.wall_stress_profile as sampled sample-major by np.linspace: (r, T_rr,
    T_theta, T_zz) at PROFILE_POINTS radii per layer, T_rr summed from the inner
    surface over a 3-point Gauss rule on every sample interval, whose nodes and
    half-widths come from the samples."""
    n, (x, w) = PROFILE_POINTS, np.polynomial.legendre.leggauss(3)
    rb = np.asarray(radii, dtype=float)
    rs = np.linspace(rb[:-1], rb[1:], n)   # (sample, layer); the layers on the last axis
    mid, half = 0.5 * (rs[1:] + rs[:-1]), 0.5 * np.diff(rs, axis=0)
    nodes = mid[:, None] + half[:, None] * x[:, None]
    r = np.concatenate((rs, nodes.reshape(-1, len(rb) - 1)))
    a, L, Ri = np.array([[2.0 * math.pi - sec.alpha, sec.L, sec.Ri] for sec in sectors]).T
    s = 2.0 * math.pi - alpha
    R2 = Ri ** 2 + s * l / (a * L) * (r ** 2 - rb[:-1] ** 2)
    lt, lz = (s * r / a) ** 2 / R2, (l / L) ** 2
    dth, dzz = diagonal_stress_differences((1.0 / (lt * lz), lt, lz),
                                           material_columns([layer.equilibrium for layer in layers]))
    c = np.cumsum((half * (w @ (dth / r)[n:].reshape(nodes.shape))).T).reshape(half.T.shape)
    t_rr = np.column_stack((np.r_[0.0, c[:-1, -1]], c))
    return np.column_stack([v.ravel() for v in (rs.T, t_rr, t_rr + dth[:n].T, t_rr + dzz[:n].T)])


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
