"""Dense 3x3 tensor algebra on numpy arrays; det and inverse in closed form.

All operations accept arrays of shape (..., 3, 3) (or (..., 3) for vectors)
and broadcast over leading axes.  Components live in a fixed orthonormal
basis; for tube problems that basis is the local cylindrical triad
{e_r, e_theta, e_z}, but nothing here depends on the choice.
"""

from __future__ import annotations

import numpy as np

from .errors import NonPositiveDeterminant, SingularTensor

# module tolerances
SYM_TOL = 1e-12       # relative symmetry check
SINGULAR_TOL = 1e-14  # |det| below this counts as singular
# flat indices of the factors of adj_ij = a_{j+1,i+1} a_{j+2,i+2} - a_{j+1,i+2} a_{j+2,i+1}
_I, _J = np.indices((3, 3))
_ADJ = np.dstack([3 * ((_J + p) % 3) + (_I + q) % 3 for p, q in ((1, 1), (2, 2), (1, 2), (2, 1))])


def transpose(a):
    return np.swapaxes(a, -1, -2)


def trace(a):
    return a[..., 0, 0] + a[..., 1, 1] + a[..., 2, 2]


def det(a):
    """Cofactor expansion along the first row: cheaper than LAPACK on short stacks, to a few
    eps |a|^3 / |det a| relative (inverse too), between eps cond(a) and eps cond(a)^2."""
    t = np.asarray(a, dtype=float).T   # t[j, i] = a[..., i, j]: numpy scalars on one tensor
    return (t[0, 0] * (t[1, 1] * t[2, 2] - t[2, 1] * t[1, 2])
            - t[1, 0] * (t[0, 1] * t[2, 2] - t[2, 1] * t[0, 2])
            + t[2, 0] * (t[0, 1] * t[1, 2] - t[1, 1] * t[0, 2])).T


def check_regular(d):
    """d, if no |det| d is at or below SINGULAR_TOL; else raises SingularTensor."""
    if np.any(np.abs(d) <= SINGULAR_TOL):
        raise SingularTensor(f"tensor is singular to tolerance {SINGULAR_TOL:g} "
                             f"(min |det| = {np.min(np.abs(d)):.3e})")
    return d


def inverse(a, d=None):
    """Adjugate / det; raises SingularTensor if any |det| <= SINGULAR_TOL (d: det a, if known)."""
    a = np.asarray(a, dtype=float)
    d = check_regular(det(a) if d is None else d)
    g = a.reshape(a.shape[:-2] + (9,))[..., _ADJ]   # (..., 3, 3, 4): the factors of each adj_ij
    return (g[..., 0] * g[..., 1] - g[..., 2] * g[..., 3]) / d[..., None, None]


def unimodular(a, d=None):
    """(det a)^(-1/3) * a.  Requires det > 0 (d: det a, if known)."""
    a = np.asarray(a, dtype=float)
    d = det(a) if d is None else d
    if np.any(d <= 0.0):
        raise NonPositiveDeterminant(f"unimodular part needs det > 0 (min det = {np.min(d):.3e})")
    return a * d[..., None, None] ** (-1.0 / 3.0)


def ddot(a, b):
    """Double contraction a : b = a_ij b_ij."""
    return np.einsum('...ij,...ij->...', a, b)


def dyad(u, v=None):
    """Dyadic product u (x) v (v defaults to u)."""
    if v is None:
        v = u
    return np.einsum('...i,...j->...ij', u, v)


def is_symmetric(a, tol: float = SYM_TOL) -> bool:
    """|a - a^T|_max <= tol * |a|_max, per batch-element all-of."""
    a = np.asarray(a, dtype=float)
    scale = np.max(np.abs(a))
    if scale == 0.0:
        return True
    return bool(np.max(np.abs(a - transpose(a))) <= tol * scale)
