"""Equilibrium (hyperelastic) constitutive laws on the stress-free configuration.

Conventions used throughout:

* Two reference configurations per particle: the load-free one (lf, the shape
  of the unloaded body, possibly residually stressed) and the stress-free one
  (sf, the locally unloaded state).  The unimodular tensor F0 carries lf -> sf,
  so the deformation gradients relate by  F_sf = F_lf @ inv(F0).
* Energies are stored per unit reference volume (units kPa), so the mass
  density never appears as a separate parameter.
* Every PK2 stress is the exact gradient 2 * d(energy)/dC of its stored energy;
  the finite-difference tests check it against the tensor-route energies of
  tests/reference.py.
* Every energy acts on Cbar = J^(-2/3) C (J^2 = det C), so every PK2 stress is
  J^(-2/3) Dev Sbar, Dev(.) = (.) - 1/3 [(.) : C] C^{-1} (Holzapfel 2000, 6.4), of
  its fictitious stress Sbar = 2 dW/dCbar: each law gives Sbar to isochoric_pk2.
* The matrix is an incompressible Mooney-Rivlin solid; fibre families use an
  exponential stored energy in the squared fibre stretch lam2 = a . Cbar a.

All stress functions broadcast over leading axes of C (shape (..., 3, 3)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tn
from .errors import NonPositiveDeterminant


@dataclass(frozen=True)
class MooneyRivlinParams:
    """Incompressible Mooney-Rivlin matrix: c1, c2 shear moduli in kPa."""
    c1: float
    c2: float

    def __post_init__(self):
        c1, c2 = self.c1, self.c2
        if not (0.0 <= c1 < math.inf and 0.0 <= c2 < math.inf and c1 + c2 > 0.0):
            raise ValueError(f"need finite c1 >= 0, c2 >= 0, c1 + c2 > 0 (got c1={c1}, c2={c2})")


def unit_direction(a):
    """a as a float array, checked to be a unit vector (NaN entries fail)."""
    a = np.asarray(a, dtype=float)
    if not abs(np.linalg.norm(a) - 1.0) <= 1e-12:
        raise ValueError(f"fibre direction must be unit length (|a| = {np.linalg.norm(a):.3e})")
    return a


@dataclass(frozen=True)
class HolzapfelFibreParams:
    """Exponential fibre family: k1 (kPa), k2 (dimensionless), unit direction a
    in the sf configuration."""
    k1: float
    k2: float
    a: np.ndarray

    def __post_init__(self):
        if not (0.0 < self.k1 < math.inf and 0.0 < self.k2 < math.inf):
            raise ValueError(f"need finite k1 > 0, k2 > 0 (got k1={self.k1}, k2={self.k2})")
        object.__setattr__(self, 'a', unit_direction(self.a))


@dataclass(frozen=True)
class PreStressField:
    """The unimodular map F0 from the load-free to the stress-free configuration; _inv = F0^{-1}."""
    F0: np.ndarray

    def __post_init__(self):
        f0 = np.asarray(self.F0, dtype=float)
        if f0.shape != (3, 3):
            raise ValueError(f"F0 must be 3x3 (got shape {f0.shape})")
        d = tn.det(f0) if np.isfinite(f0).all() else math.nan
        if not np.all(np.abs(d - 1.0) <= 1e-10):  # also rejects NaN and infinite entries
            raise ValueError(f"F0 must be unimodular (det = {np.max(np.abs(d - 1.0)):.3e} from 1)")
        object.__setattr__(self, 'F0', f0)
        object.__setattr__(self, '_inv', tn.inverse(f0, d))


def fibre_directions(beta_rad: float):
    """The +/- beta pair measured from the hoop direction in the (theta, z) plane."""
    if not abs(beta_rad) < math.inf:
        raise ValueError(f"fibre angle must be finite (got {beta_rad})")
    cb, sb = np.cos(beta_rad), np.sin(beta_rad)
    return np.array([0.0, cb, sb]), np.array([0.0, cb, -sb])


# ---------------------------------------------------------------------------
# configuration transforms
# ---------------------------------------------------------------------------

def csf_from_clf(c_lf, f0: PreStressField):
    """C_sf = F0^{-T} C_lf F0^{-1}."""
    return tn.transpose(f0._inv) @ np.asarray(c_lf, dtype=float) @ f0._inv


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
    """J^(-2/3) Dev Sbar for Sbar = fictitious(Cbar) of shape (..., 3, 3), or (k, ..., 3, 3)
    for k stresses at once; det C (d, if known) and C^{-1} are formed once for all of them."""
    c = np.asarray(c_sf, dtype=float)
    d = tn.det(c) if d is None else d
    cinv = tn.inverse(c, d)
    if np.any(d <= 0.0):
        raise NonPositiveDeterminant(f"unimodular part needs det > 0 (min det = {np.min(d):.3e})")
    j23 = d[..., None, None] ** (-1.0 / 3.0)
    sbar = fictitious(c * j23)
    return j23 * (sbar - (tn.ddot(sbar, c) / 3.0)[..., None, None] * cinv)


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


def holzapfel_sbar(cbar, p: HolzapfelFibreParams, f=None):
    """Fictitious stress 2 f(lam2) a(x)a of one fibre family (f: its f(lam2), if known)."""
    f = fibre_f(np.einsum('...ij,i,j->...', cbar, p.a, p.a), p.k1, p.k2) if f is None else f
    return 2.0 * np.asarray(f)[..., None, None] * tn.dyad(p.a)


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


def equilibrium_sbar(cbar, mat: EquilibriumMaterial, f=None):
    """Matrix fictitious stress (c1 + c2 tr Cbar) 1 - c2 Cbar plus each fibre's, from f if given."""
    p = mat.matrix
    s = (p.c1 + p.c2 * tn.trace(cbar))[..., None, None] * np.eye(3) - p.c2 * cbar
    f = f or [None] * len(mat.fibres)
    return sum((holzapfel_sbar(cbar, fp, fj) for fp, fj in zip(mat.fibres, f)), s)


# ---------------------------------------------------------------------------
# closed forms for F_sf = diag(lam_i), det = 1, in l2 = (lam_1^2, lam_2^2, lam_3^2):
# C_sf = diag(l2) = Cbar, 1/l2_i the product of the other two, and a fibre's lam2 =
# sum_i a_i^2 l2_i.  Only arithmetic and exp appear, so complex arguments pass
# through (complex-step derivatives).  Fibre families with equal per-node columns
# (material_columns; a +/- beta pair) share one group: one exp, counted n times.
# ---------------------------------------------------------------------------

def material_columns(mats, n: int = 1):
    """Per-node constants of the materials mats[j], each over n consecutive nodes: (c1,
    c2, groups), a group (count, k1, k2, a_r^2, a_theta^2, a_z^2) per set of fibre families
    equal on every node; a material short of families holds k1 = 0 (adds nothing) there."""
    width = max(len(m.fibres) for m in mats)
    rows = [[m.matrix.c1, m.matrix.c2] + [v for fp in m.fibres for v in (fp.k1, fp.k2, *fp.a ** 2)]
            + [0.0, 1.0, 0.0, 0.0, 0.0] * (width - len(m.fibres)) for m in mats]
    cols = np.repeat(rows, n, axis=0).T.copy()   # c1, c2, then (k1, k2, a^2) per family
    groups = {}
    for f in cols[2:].reshape(width, 5, len(cols[0])):
        groups[f.tobytes()] = (groups.get(f.tobytes(), (0,))[0] + 1, *f)
    return cols[0], cols[1], tuple(groups.values())


def diagonal_stress_differences(l2, mat):
    """(T_22 - T_11, T_33 - T_11) of the Cauchy stress F_sf S F_sf^T, S =
    isochoric_pk2 of equilibrium_sbar, at F_sf = diag(sqrt(l2)); the
    incompressibility pressure cancels from these differences.  mat is an
    EquilibriumMaterial or per-node columns (material_columns)."""
    c1, c2, groups = material_columns([mat]) if isinstance(mat, EquilibriumMaterial) else mat
    inv = (l2[1] * l2[2], l2[2] * l2[0], l2[0] * l2[1])   # 1/l2_i
    t = [c1 * s - c2 * v for s, v in zip(l2, inv)]
    for n, k1, k2, *a2 in groups:
        al = [ai * si for ai, si in zip(a2, l2)]
        f2 = 2.0 * n * fibre_f(al[0] + al[1] + al[2], k1, k2)
        t = [ti + f2 * x for ti, x in zip(t, al)]
    return t[1] - t[0], t[2] - t[0]


def diagonal_energy(l2, mat):
    """Stored energy of the matrix and all fibre families at C_sf = diag(l2) for
    det = l2_1 l2_2 l2_3 = 1, per unit reference volume (kPa = microJ/mm^3)."""
    c1, c2, groups = material_columns([mat]) if isinstance(mat, EquilibriumMaterial) else mat
    inv = l2[0] * l2[1] + l2[1] * l2[2] + l2[2] * l2[0]   # sum of 1/l2_i
    w = 0.5 * c1 * (sum(l2) - 3.0) + 0.5 * c2 * (inv - 3.0)
    for n, k1, k2, *a2 in groups:
        w = w + n * fibre_energy(a2[0] * l2[0] + a2[1] * l2[1] + a2[2] * l2[2], k1, k2)
    return w
