"""Equilibrium (hyperelastic) constitutive laws on the stress-free configuration.

Conventions used throughout:

* Two reference configurations per particle: the load-free one (lf, the shape
  of the unloaded body, possibly residually stressed) and the stress-free one
  (sf, the locally unloaded state).  The unimodular tensor F0 carries lf -> sf,
  so the deformation gradients relate by  F_sf = F_lf @ inv(F0).
* Energies are stored per unit reference volume (units kPa), so the mass
  density never appears as a separate parameter.
* Every PK2 stress below is the exact gradient 2 * d(energy)/dC of the stored
  energy it accompanies; the finite-difference tests rely on that.
* The matrix is an incompressible Mooney-Rivlin solid acting on the unimodular
  part of C; fibre families use an exponential stored energy in the squared
  unimodular fibre stretch lam2 = a . (det C)^(-1/3) C a.

All stress functions broadcast over leading axes of C (shape (..., 3, 3)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as tn
from .errors import DomainError, NonPositiveDeterminant, SingularTensor


@dataclass(frozen=True)
class MooneyRivlinParams:
    """Incompressible Mooney-Rivlin matrix: c1, c2 shear moduli in kPa."""
    c1: float
    c2: float

    def __post_init__(self):
        if self.c1 < 0.0 or self.c2 < 0.0 or self.c1 + self.c2 <= 0.0:
            raise ValueError(f"need c1 >= 0, c2 >= 0, c1 + c2 > 0 (got c1={self.c1}, c2={self.c2})")


@dataclass(frozen=True)
class HolzapfelFibreParams:
    """Exponential fibre family: k1 (kPa), k2 (dimensionless), unit direction a
    in the sf configuration."""
    k1: float
    k2: float
    a: np.ndarray

    def __post_init__(self):
        if self.k1 <= 0.0 or self.k2 <= 0.0:
            raise ValueError(f"need k1 > 0, k2 > 0 (got k1={self.k1}, k2={self.k2})")
        a = np.asarray(self.a, dtype=float)
        if abs(np.linalg.norm(a) - 1.0) > 1e-12:
            raise ValueError(f"fibre direction must be unit length (|a| = {np.linalg.norm(a):.3e})")
        object.__setattr__(self, 'a', a)


@dataclass(frozen=True)
class PreStressField:
    """The unimodular map F0 from the load-free to the stress-free configuration."""
    F0: np.ndarray

    def __post_init__(self):
        f0 = np.asarray(self.F0, dtype=float)
        d = tn.det(f0)
        if not np.all(np.abs(d - 1.0) <= 1e-10):  # also rejects NaN entries
            raise ValueError(f"F0 must be unimodular (det = {np.max(np.abs(d - 1.0)):.3e} from 1)")
        object.__setattr__(self, 'F0', f0)


def fibre_directions(beta_rad: float):
    """The +/- beta pair measured from the hoop direction in the (theta, z) plane."""
    cb, sb = np.cos(beta_rad), np.sin(beta_rad)
    return np.array([0.0, cb, sb]), np.array([0.0, cb, -sb])


# ---------------------------------------------------------------------------
# configuration transforms
# ---------------------------------------------------------------------------

def csf_from_clf(c_lf, f0: PreStressField):
    """C_sf = F0^{-T} C_lf F0^{-1}."""
    f0inv = tn.inverse(f0.F0)
    return tn.transpose(f0inv) @ np.asarray(c_lf, dtype=float) @ f0inv


def clf_from_csf(c_sf, f0: PreStressField):
    """Inverse transform C_lf = F0^T C_sf F0."""
    f = np.asarray(f0.F0, dtype=float)
    return tn.transpose(f) @ np.asarray(c_sf, dtype=float) @ f


def pull_back_pk2(t_sf, f0: PreStressField):
    """PK2 re-referencing sf -> lf: T_lf = F0^{-1} T_sf F0^{-T}."""
    f0inv = tn.inverse(f0.F0)
    return f0inv @ np.asarray(t_sf, dtype=float) @ tn.transpose(f0inv)


def cauchy_from_pk2(t_pk2, f):
    """Push-forward T = (det F)^{-1} F T_pk2 F^T."""
    f = np.asarray(f, dtype=float)
    d = tn.det(f)
    if np.any(d <= 0.0):
        raise NonPositiveDeterminant(f"push-forward needs det F > 0 (min = {np.min(d):.3e})")
    return (f @ np.asarray(t_pk2, dtype=float) @ tn.transpose(f)) / d[..., None, None]


# ---------------------------------------------------------------------------
# Mooney-Rivlin matrix
# ---------------------------------------------------------------------------

def mooney_rivlin_energy(c_sf, p: MooneyRivlinParams):
    """c1/2 (tr Cbar - 3) + c2/2 (tr Cbar^{-1} - 3), per unit reference volume."""
    cbar = tn.unimodular(c_sf)
    return 0.5 * p.c1 * (tn.trace(cbar) - 3.0) + 0.5 * p.c2 * (tn.trace(tn.inverse(cbar)) - 3.0)


def mooney_rivlin_pk2_sf(c_sf, p: MooneyRivlinParams):
    """PK2 stress C^{-1} (c1 Cbar - c2 Cbar^{-1})^D; exact gradient of the energy."""
    c = np.asarray(c_sf, dtype=float)
    cinv = tn.inverse(c)
    cbar = tn.unimodular(c)
    return cinv @ tn.deviator(p.c1 * cbar - p.c2 * tn.inverse(cbar))


# ---------------------------------------------------------------------------
# exponential fibre family
# ---------------------------------------------------------------------------

def fibre_f(lam2, k1: float, k2: float):
    """f(lam2) = k1 (lam2 - 1) exp(k2 (lam2 - 1)^2) = d(energy)/d(lam2)."""
    u = np.asarray(lam2) - 1.0
    return k1 * u * np.exp(k2 * u * u)


def fibre_energy(lam2, k1: float, k2: float):
    """k1/(2 k2) (exp(k2 (lam2 - 1)^2) - 1)."""
    u = np.asarray(lam2) - 1.0
    return k1 / (2.0 * k2) * (np.exp(k2 * u * u) - 1.0)


def fibre_sq_stretch(c_sf, a):
    """Squared unimodular fibre stretch lam2 = a . Cbar a."""
    c = np.asarray(c_sf, dtype=float)
    d = tn.det(c)
    if np.any(d <= 0.0):
        raise SingularTensor("fibre stretch needs det C > 0")
    return d ** (-1.0 / 3.0) * np.einsum('...ij,i,j->...', c, a, a)


def sq_stretch_gradient(c_sf, a):
    """d(lam2)/dC = (det C)^{-1/3} a(x)a - (lam2/3) C^{-1}  (exact)."""
    c = np.asarray(c_sf, dtype=float)
    d = tn.det(c)
    lam2 = d ** (-1.0 / 3.0) * np.einsum('...ij,i,j->...', c, a, a)
    m = tn.dyad(np.asarray(a, dtype=float))
    return (d ** (-1.0 / 3.0))[..., None, None] * m - (lam2 / 3.0)[..., None, None] * tn.inverse(c), lam2


def holzapfel_pk2_sf(c_sf, p: HolzapfelFibreParams):
    """PK2 stress of one fibre family: 2 f(lam2) d(lam2)/dC."""
    grad, lam2 = sq_stretch_gradient(c_sf, p.a)
    return 2.0 * np.asarray(fibre_f(lam2, p.k1, p.k2))[..., None, None] * grad


# ---------------------------------------------------------------------------
# assembled equilibrium response of one layer's material
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquilibriumMaterial:
    """Matrix plus two fibre families at +/- beta from the hoop direction."""
    matrix: MooneyRivlinParams
    fibres: tuple = field(default=())

    @classmethod
    def from_constants(cls, c1, c2, k1, k2, beta_deg):
        ap, am = fibre_directions(np.radians(beta_deg))
        return cls(MooneyRivlinParams(c1, c2),
                   (HolzapfelFibreParams(k1, k2, ap), HolzapfelFibreParams(k1, k2, am)))


def equilibrium_pk2_sf(c_sf, mat: EquilibriumMaterial):
    """Total equilibrium PK2 on the sf configuration (matrix + all fibre families)."""
    t = mooney_rivlin_pk2_sf(c_sf, mat.matrix)
    for fp in mat.fibres:
        t = t + holzapfel_pk2_sf(c_sf, fp)
    return t


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
    return f @ equilibrium_pk2_sf(c, mat) @ tn.transpose(f)


# ---------------------------------------------------------------------------
# closed forms for F_sf = diag(lam_i), det = 1, in l2 = (lam_1^2, lam_2^2, lam_3^2):
# C_sf = diag(l2) = Cbar and a fibre's lam2 = sum_i a_i^2 l2_i.  Only arithmetic
# and exp appear, so complex arguments pass through (complex-step derivatives).
# ---------------------------------------------------------------------------

def diagonal_stress_differences(l2, mat: EquilibriumMaterial):
    """(T_22 - T_11, T_33 - T_11) of extra_cauchy_equilibrium(diag(sqrt(l2)), mat)."""
    p = mat.matrix
    t = [p.c1 * s - p.c2 / s for s in l2]
    for fp in mat.fibres:
        a2 = fp.a ** 2
        f2 = 2.0 * fibre_f(a2[0] * l2[0] + a2[1] * l2[1] + a2[2] * l2[2], fp.k1, fp.k2)
        t = [ti + f2 * (ai * si) for ti, ai, si in zip(t, a2, l2)]
    return t[1] - t[0], t[2] - t[0]


def diagonal_energy(l2, mat: EquilibriumMaterial):
    """equilibrium_energy_sf(diag(l2), mat) for det = l2_1 l2_2 l2_3 = 1."""
    p = mat.matrix
    w = 0.5 * p.c1 * (sum(l2) - 3.0) + 0.5 * p.c2 * (sum(1.0 / s for s in l2) - 3.0)
    for fp in mat.fibres:
        a2 = fp.a ** 2
        w = w + fibre_energy(a2[0] * l2[0] + a2[1] * l2[1] + a2[2] * l2[2], fp.k1, fp.k2)
    return w
