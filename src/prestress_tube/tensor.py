"""Dense 3x3 tensor algebra on numpy arrays.

All operations accept arrays of shape (..., 3, 3) (or (..., 3) for vectors)
and broadcast over leading axes.  Components live in a fixed orthonormal
basis; for tube problems that basis is the local cylindrical triad
{e_r, e_theta, e_z}, but nothing here depends on the choice.
"""

from __future__ import annotations

import numpy as np

from .errors import NonPositiveDeterminant, SingularTensor

# module tolerances (tests may monkeypatch)
SYM_TOL = 1e-12       # relative symmetry check
SINGULAR_TOL = 1e-14  # |det| below this counts as singular


def identity(shape=()):
    """Identity tensor broadcast to leading shape `shape`."""
    out = np.zeros(tuple(shape) + (3, 3))
    out[..., 0, 0] = out[..., 1, 1] = out[..., 2, 2] = 1.0
    return out


def transpose(a):
    return np.swapaxes(a, -1, -2)


def trace(a):
    return a[..., 0, 0] + a[..., 1, 1] + a[..., 2, 2]


def det(a):
    return np.linalg.det(np.asarray(a, dtype=float))


def inverse(a):
    """Matrix inverse; raises SingularTensor if any |det| <= SINGULAR_TOL."""
    a = np.asarray(a, dtype=float)
    d = np.linalg.det(a)
    if np.any(np.abs(d) <= SINGULAR_TOL):
        raise SingularTensor(f"tensor is singular to tolerance {SINGULAR_TOL:g} "
                             f"(min |det| = {np.min(np.abs(d)):.3e})")
    return np.linalg.inv(a)


def unimodular(a):
    """(det a)^(-1/3) * a.  Requires det > 0."""
    a = np.asarray(a, dtype=float)
    d = np.linalg.det(a)
    if np.any(d <= 0.0):
        raise NonPositiveDeterminant(f"unimodular part needs det > 0 (min det = {np.min(d):.3e})")
    return a * d[..., None, None] ** (-1.0 / 3.0)


def deviator(a):
    """a - (tr a / 3) * 1."""
    a = np.asarray(a, dtype=float)
    out = a.copy()
    t3 = trace(a) / 3.0
    out[..., 0, 0] -= t3
    out[..., 1, 1] -= t3
    out[..., 2, 2] -= t3
    return out


def ddot(a, b):
    """Double contraction a : b = a_ij b_ij."""
    return np.einsum('...ij,...ij->...', a, b)


def dyad(u, v=None):
    """Dyadic product u (x) v (v defaults to u)."""
    if v is None:
        v = u
    return np.einsum('...i,...j->...ij', u, v)


def sym(a):
    return 0.5 * (a + transpose(a))


def is_symmetric(a, tol: float = SYM_TOL) -> bool:
    """|a - a^T|_max <= tol * |a|_max, per batch-element all-of."""
    a = np.asarray(a, dtype=float)
    scale = np.max(np.abs(a))
    if scale == 0.0:
        return True
    return bool(np.max(np.abs(a - transpose(a))) <= tol * scale)
