"""Equilibrium (hyperelastic) laws on the stress-free configuration: an incompressible
Mooney-Rivlin matrix and exponential fibre families.

Energies are per unit reference volume (kPa), every PK2 stress is the exact gradient
of its energy, and all stress functions broadcast over leading axes of C (shape
(..., 3, 3)).  The two configurations and the isochoric projection are in README (its
introduction and "Material-point driver").
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
    if not abs((norm := math.sqrt(a @ a)) - 1.0) <= 1e-12:
        raise ValueError(f"fibre direction must be unit length (|a| = {norm:.3e})")
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
# configuration transform and isochoric projection
# ---------------------------------------------------------------------------

def csf_from_clf(c_lf, f0: PreStressField):
    """C_sf = F0^{-T} C_lf F0^{-1}."""
    return tn.transpose(f0._inv) @ np.asarray(c_lf, dtype=float) @ f0._inv


def isochoric_kirchhoff(f, c, d, fictitious):
    """Kirchhoff stress F S F^T = J^(-2/3) (F Sbar F^T - 1/3 (Sbar : C) 1) of S = J^(-2/3) Dev
    Sbar at F, C = F^T F, d = det C > 0; Sbar = fictitious(Cbar) (..., 3, 3) or (k, ..., 3, 3)."""
    if np.any(tn.check_regular(d) <= 0.0):   # Dev needs C^{-1}
        raise NonPositiveDeterminant(f"unimodular part needs det > 0 (min det = {np.min(d):.3e})")
    j23 = d[..., None, None] ** (-1.0 / 3.0)
    sbar = fictitious(c * j23)
    return j23 * (f @ sbar @ tn.transpose(f)
                  - (tn.ddot(sbar, c) / 3.0)[..., None, None] * np.eye(3))


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

    def __post_init__(self):
        # its layer's constants in material_columns: c1, c2, then (k1, k2, a^2) per family
        object.__setattr__(self, '_columns', [self.matrix.c1, self.matrix.c2, *[
            v for fp in self.fibres for v in (fp.k1, fp.k2, *(fp.a ** 2).tolist())]])

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
# closed forms for F_sf = diag(lam_i), det = 1, in l2 = (lam_1^2, lam_2^2, lam_3^2): C_sf =
# diag(l2) = Cbar and 1/l2_i is the product of the other two, so the matrix's T_jj - T_11
# factors into (l2_j - l2_1)(c1 + c2 l2_k), {j, k} = {2, 3}, and a fibre's lam2 = sum_i
# a_i^2 l2_i adds 2 f(lam2)(a_j^2 l2_j - a_1^2 l2_1).  Only arithmetic and exp appear, so
# complex arguments pass through (complex-step derivatives).  Fibre families with equal
# columns (material_columns; a +/- beta pair) share one group: one exp, counted n times.
# ---------------------------------------------------------------------------

def material_columns(mats):
    """Constants of the materials mats[j], entry j for layer j: (c1, c2, groups), a group
    (count, k1, k2, a_r^2, a_theta^2, a_z^2) per set of fibre families equal on every layer,
    a_r^2 None where it is 0 on every layer (decided once per wall, not per kernel call); a
    material short of families holds k1 = 0 (adds nothing) there."""
    width = max(len(m.fibres) for m in mats)
    pad = [0.0, 1.0, 0.0, 0.0, 0.0] * width
    cols = np.array([m._columns + pad[5 * len(m.fibres):] for m in mats]).T
    groups = {}
    for f in cols[2:].reshape(width, 5, -1):
        key, (k1, k2, ar, at, az) = f.tobytes(), f
        groups[key] = (groups.get(key, (0,))[0] + 1, k1, k2, ar if ar.any() else None, at, az)
    return cols[0], cols[1], tuple(groups.values())


def expand_columns(cols, index):
    """material_columns cols at index, v[index] of each column v: the layer of each node
    (np.repeat(np.arange(n_layers), n) for n nodes a layer), or np.s_[:, None] for a layer axis."""
    c1, c2, groups = cols
    return c1[index], c2[index], tuple((n, *(v if v is None else v[index] for v in g))
                                       for n, *g in groups)


def diagonal_stress_differences(l2, cols):
    """(T_22 - T_11, T_33 - T_11) of the Cauchy stress, isochoric_kirchhoff of
    equilibrium_sbar (det F_sf = 1), at F_sf = diag(sqrt(l2)) on the material columns
    cols (material_columns), in the factored forms above (l2_1 = 1/(l2_2 l2_3)); the
    pressure cancels from them.  A group forms a_1^2 l2_1 only if its a_1^2 is not None."""
    (c1, c2, groups), (lr, lt, lz) = cols, l2
    dth, dzz = (lt - lr) * (c1 + c2 * lz), (lz - lr) * (c1 + c2 * lt)
    for n, k1, k2, ar, at, az in groups:
        ft, fz = at * lt, az * lz
        lam2 = ft + fz
        if ar is not None:
            fr = ar * lr
            lam2, ft, fz = fr + lam2, ft - fr, fz - fr
        f2 = 2.0 * n * fibre_f(lam2, k1, k2)
        dth, dzz = dth + f2 * ft, dzz + f2 * fz
    return dth, dzz


def diagonal_energy(l2, cols):
    """Stored energy of the matrix and all fibre families at C_sf = diag(l2), det = 1,
    per unit reference volume (kPa = microJ/mm^3), on the material columns cols."""
    c1, c2, groups = cols
    inv = l2[0] * l2[1] + l2[1] * l2[2] + l2[2] * l2[0]   # sum of 1/l2_i
    w = 0.5 * c1 * (sum(l2) - 3.0) + 0.5 * c2 * (inv - 3.0)
    for n, k1, k2, ar, at, az in groups:
        lam2 = at * l2[1] if ar is None else ar * l2[0] + at * l2[1]
        w = w + n * fibre_energy(lam2 + az * l2[2], k1, k2)
    return w
