"""Opening-angle kinematics and thick-walled-tube equilibrium solvers.

A circular sector (inner radius Ri, outer Ro, length L, opening angle alpha)
closes into a tube (length l).  Each layer's map is determined by two
constants,

    k = 2*pi / (2*pi - alpha)   (circumferential ratio),
    c = l / L                   (axial stretch),

together with one anchored radius pair (r_a, R_a); incompressibility then gives
R^2 - R_a^2 = k c (r^2 - r_a^2) pointwise and the deformation gradient in the
cylindrical triad is diag(R/(k c r), k r / R, c) with det = 1 exactly.
OpeningMap is that map; its inverse gradient is the pre-stress map F0.

A wall is a list of layers, inner to outer.  Its integrals run over Gauss
nodes in the stress-free radius R, in one per-node table of the whole wall
built once per solve (sector_residuals, tube_residuals).  A node has r^2 =
r_a^2 + (R^2 - R_a^2)/(k c), and dr = R dR/(k c r) leaves only r^2 in the
integrands: the kernel equilibrium_residuals sweeps every layer in one pass,
with no square root.  Glued sectors, with s = 2*pi - alpha and g_j = (2*pi -
alpha_j) L_j, have 1/(k_j c_j) = g_j/(s l) and r^2 = rho^2 + Q/(s l), Q fixed.
A solved wall's radii and its stress profile come from the same glued form.
Load-free equilibrium of the wall is characterised by two integrals over its
thickness (inner/outer tractions and resultant axial force both zero), and an
opened sector at rest also carries no moment on its cut face:

    p_net   = int (T_theta - T_rr) / r dr        = 0 ,
    F_red   = pi * int (2 T_zz - T_theta - T_rr) r dr = 0 ,
    M       = 1/2 int (T_theta - T_rr) r dr       = 0 ,

evaluated with the pressure-free "extra" Cauchy stress, the hydrostatic part
having cancelled from the differences; they are closed forms in the squared
stretches, with lam_r^2 = 1/(lam_theta^2 lam_z^2), so det F_sf = 1 by
construction.  Two solvers are provided:

* solve_inverse_sf: tube geometry known, find the stress-free sector(s);
* solve_load_free:  per-layer sectors known, find the composite tube.

Both use a damped Newton iteration on the first n nondimensionalized
residuals with a complex-step Jacobian: one residual call at the columns
x + i h e_j gives the residual and the exact Jacobian.  The Newton takes one
system or a batch of independent ones.  The load-free solve is the
glued-sector Newton at alpha = 0; the energy scan runs the same solve at
every angle of its grid as one batch, and its argmin solves all three
residuals for (rho, l, alpha).  The inverse solve's spans move with (Ri, L);
its Legendre rule and each node's layer do not.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, NoConvergence, QuadratureFailure
from .materials import (EquilibriumMaterial, diagonal_energy, diagonal_stress_differences,
                        material_columns)
from .maxwell import FibreMaxwellParams, IsoMaxwellParams

TWO_PI = 2.0 * math.pi

# solver defaults
N_QUAD = 32            # Gauss-Legendre points per layer
NEWTON_TOL = 1e-10     # infinity-norm of the nondimensional residual
NEWTON_MAXIT = 25
CS_STEP = 1e-20        # relative complex step for the Jacobian
MAX_HALVINGS = 8
PROFILE_POINTS = 101   # stress profile samples per layer


# ---------------------------------------------------------------------------
# geometry types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SectorGeometry:
    """Stress-free open sector: radii and length in mm, opening angle in rad."""
    Ri: float
    Ro: float
    L: float
    alpha: float

    def __post_init__(self):
        if not 0.0 < self.Ri < self.Ro < math.inf:
            raise ValueError(f"need 0 < Ri < Ro < inf (got {self.Ri}, {self.Ro})")
        if not 0.0 < self.L < math.inf:
            raise ValueError(f"need finite L > 0 (got {self.L})")
        if not 0.0 <= self.alpha < TWO_PI:
            raise ValueError("need 0 <= alpha < 2*pi")


@dataclass(frozen=True)
class TubeGeometry:
    """Closed tube: layer-boundary radii, inner to outer, and length in mm."""
    radii: tuple
    l: float

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        if len(radii) < 2 or not all(a < b for a, b in zip((0.0,) + radii, radii + (math.inf,))):
            raise ValueError(f"need two or more finite radii 0 < r_0 < r_1 < ... (got {radii})")
        if not 0.0 < self.l < math.inf:
            raise ValueError(f"need finite l > 0 (got {self.l})")
        object.__setattr__(self, 'radii', radii)


@dataclass(frozen=True)
class OpeningMap:
    """One layer's sector<->tube map, anchored at the radius pair (ri, Ri).

    R^2 - Ri^2 = k c (r^2 - ri^2) links the load-free radius r to the
    stress-free radius R.  k < 1 is admissible: an opened sector whose angle
    exceeds the layer's own stretches the layer circumferentially.  Constants
    of shape (m, 1), complex in a Jacobian, map m states at once (radii get a
    leading state axis); admissibility is checked on real parts.
    """
    k: float
    c: float
    ri: float
    Ri: float

    def __post_init__(self):
        if np.any(np.real(self.k) <= 0.0) or np.any(np.real(self.c) <= 0.0):
            raise DomainError(f"need k > 0 and c > 0 (got k={self.k}, c={self.c})")

    def radius_sf(self, r):
        return _sqrt_positive(self.Ri ** 2 + self.k * self.c * (np.asarray(r) ** 2 - self.ri ** 2))

    def F0(self, r):
        """Pre-stress map lf -> sf at load-free radius r: the inverse closing gradient."""
        f = self.k * np.asarray(r, float) / self.radius_sf(r)
        d = np.broadcast_arrays(self.c * f, 1.0 / f, 1.0 / self.c)
        return np.stack(d, axis=-1)[..., None] * np.eye(3)


def _sqrt_positive(rad):
    """The sf radius sqrt(rad), for a radicand positive in its real part."""
    if (np.real(rad) <= 0.0).any():
        raise DomainError("sf radius radicand not positive")
    return np.sqrt(rad)


# ---------------------------------------------------------------------------
# material layer bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaterialLayer:
    """One wall layer: equilibrium material, Maxwell constants, optional sector."""
    equilibrium: EquilibriumMaterial
    iso_maxwell: Optional[IsoMaxwellParams] = None
    fibre_maxwell: tuple = ()
    sector: Optional[SectorGeometry] = None

    @classmethod
    def from_constants(cls, c1, c2, k1, k2, beta_deg, mu=None, eta_matrix=None,
                       k1v=None, k2v=None, eta_fibre=None, sector=None):
        eq = EquilibriumMaterial.from_constants(c1, c2, k1, k2, beta_deg)
        iso = IsoMaxwellParams(mu, eta_matrix) if mu is not None else None
        fmax = () if k1v is None else \
            tuple(FibreMaxwellParams(k1v, k2v, eta_fibre, fp.a) for fp in eq.fibres)
        return cls(eq, iso, fmax, sector)


# ---------------------------------------------------------------------------
# node tables, equilibrium integrals and the stress profile
# ---------------------------------------------------------------------------

@functools.cache
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def gauss_segment(a: float, b: float, n: int = N_QUAD):
    """Gauss-Legendre nodes/weights mapped to [a, b]."""
    x, w = _leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def wall_sectors(layers: Sequence[MaterialLayer]):
    """The stress-free sectors of a glued wall of sectored layers, inner to outer."""
    if not layers or any(layer.sector is None for layer in layers):
        raise ValueError("the wall needs one or more layers, each with its sector geometry")
    return [layer.sector for layer in layers]


def glued_radii(sectors, rho, l, alpha=0.0):
    """Boundary radii, inner to outer, of the sectors glued into one sector of angle
    alpha (0: the tube) and length l whose first sector's outer sf radius sits at the
    current radius rho: r^2 = rho^2 + Q/(s l) at the sectors' boundaries."""
    g = [(TWO_PI - sec.alpha) * sec.L * (sec.Ro ** 2 - sec.Ri ** 2) for sec in sectors]
    return np.sqrt(rho ** 2 + (np.cumsum([0.0] + g) - g[0]) / ((TWO_PI - alpha) * l))


def sector_residuals(layers: Sequence[MaterialLayer], npts: int = N_QUAD):
    """The glued wall's (rho, l, alpha=0, energy=False) -> equilibrium_residuals over
    its node table, whose nodes stay fixed in R: the first sector's outer sf radius
    at the current radius rho, each later one's inner at the outer of the one inside
    it, gives Q = g_j (R^2 - R_a,j^2) + sum_{1<i<j} g_i (Ro_i^2 - Ri_i^2), R_a,j the anchor,
    A = ((2*pi - alpha_j) R)^-2, B = L_j^-2 and V = w R g_j."""
    cols, q0 = [], 0.0
    for j, sec in enumerate(wall_sectors(layers)):
        R, w = gauss_segment(sec.Ri, sec.Ro, npts)
        g, Ra = (TWO_PI - sec.alpha) * sec.L, sec.Ri if j else sec.Ro
        cols.append((q0 + g * (R ** 2 - Ra ** 2), ((TWO_PI - sec.alpha) * R) ** -2,
                     np.full(npts, sec.L ** -2), g * w * R))
        q0 += g * (sec.Ro ** 2 - sec.Ri ** 2) if j else 0.0
    table = (material_columns([layer.equilibrium for layer in layers], npts),
             *np.concatenate(cols, axis=1))

    def residuals(rho, l, alpha=0.0, energy=False):
        s = TWO_PI - alpha
        if np.less_equal(np.real(s), 0.0).any():
            raise DomainError(f"need alpha < 2*pi (got {alpha})")
        return equilibrium_residuals(table, rho ** 2, 1.0 / (s * l), s * s, l * l, energy)
    return residuals


def tube_residuals(tube: TubeGeometry, alpha: float, layers: Sequence[MaterialLayer],
                   npts: int = N_QUAD):
    """The inverse solve's (Ri, L) -> equilibrium_residuals of the one map
    (k, c, ri, Ri), c = l/L, of the wall: a node at Legendre abscissa x of its layer's
    sf span (R_lo, R_hi), the images of tube radii, sits at R_lo (1-x)/2 + R_hi (1+x)/2."""
    x, w = _leggauss(npts)
    j = np.repeat(np.arange(len(layers)), npts)
    u, v, wh = np.tile([0.5 - 0.5 * x, 0.5 + 0.5 * x, 0.5 * w], len(layers))
    cols = material_columns([layer.equilibrium for layer in layers], npts)
    ri, k = tube.radii[0], TWO_PI / (TWO_PI - alpha)
    dr2 = np.array(tube.radii) ** 2 - ri ** 2

    def residuals(Ri, L):
        c = tube.l / L
        Rb = _sqrt_positive(Ri ** 2 + k * c * dr2)
        lo, hi = Rb[..., j], Rb[..., j + 1]
        R = lo * u + hi * v
        R2 = R * R
        return equilibrium_residuals((cols, R2 - Ri ** 2, 1.0 / R2, 1.0, wh * (hi - lo) * R),
                                     ri ** 2, 1.0 / (k * c), k * k, c * c)
    return residuals


def equilibrium_residuals(table, r2a, h, k2, c2, energy: bool = False):
    """(net pressure kPa, reduced axial force kPa mm^2, cut-face moment kPa mm^2)
    of a candidate wall state, and with energy the integral of W r dr (kPa mm^2),
    over a node table (material columns, Q, A, B, V): r^2 = r2a + Q h, lam_theta^2
    = k2 r^2 A, lam_z^2 = c2 B, and the weight w dr/dR = w R/(k c r) = V h / r.  Values
    are arrays over the states when the constants have a trailing axis of length
    1.  At equilibrium T_rr vanishes on both faces, so M = int T_theta r dr.
    """
    cols, Q, A, B, V = table
    r2 = r2a + Q * h
    if (np.real(r2) <= 0.0).any():
        raise DomainError("current radius radicand not positive")
    lt, lz = k2 * r2 * A, c2 * B
    l2 = (1.0 / (lt * lz), lt, lz)
    dth, dzz = diagonal_stress_differences(l2, cols)
    wt = V * h
    wdth = wt * dth
    p, m = (wdth / r2).sum(axis=-1), 0.5 * wdth.sum(axis=-1)
    fz = math.pi * (wt * (2.0 * dzz - dth)).sum(axis=-1)
    if not np.isfinite((p, fz, m)).all():
        raise QuadratureFailure(f"non-finite wall integrals (p={p}, F={fz}, M={m})")
    return (p, fz, m, (wt * diagonal_energy(l2, cols)).sum(axis=-1)) if energy else (p, fz, m)


def wall_stress_profile(layers: Sequence[MaterialLayer], sectors, radii, l, alpha=0.0):
    """Radial Cauchy stress profile (r, T_rr, T_theta, T_zz) across a glued wall of
    angle alpha (0: the tube) and length l, given its layers' sectors and boundary
    radii r_j, inner to outer: layer j maps by R^2 = Ri_j^2 + (s l/g_j)(r^2 - r_j^2),
    s = 2*pi - alpha and g_j = (2*pi - alpha_j) L_j.

    Each layer is sampled at PROFILE_POINTS radii uniform in r.  T_rr(r) =
    int_{r_0}^{r} (T_theta - T_rr)/rho d(rho) from the traction-free inner surface,
    summed over a 3-point Gauss rule on every sample interval.
    """
    n, (x, w) = PROFILE_POINTS, _leggauss(3)
    rb = np.asarray(radii, dtype=float)
    rs = np.linspace(rb[:-1], rb[1:], n)   # (sample, layer); the layers on the last axis
    mid, half = 0.5 * (rs[1:] + rs[:-1]), 0.5 * np.diff(rs, axis=0)
    nodes = mid[:, None] + half[:, None] * x[:, None]
    r = np.concatenate((rs, nodes.reshape(-1, len(rb) - 1)))
    a, L, Ri = np.array([[TWO_PI - sec.alpha, sec.L, sec.Ri] for sec in sectors]).T
    s = TWO_PI - alpha
    R = _sqrt_positive(Ri ** 2 + s * l / (a * L) * (r ** 2 - rb[:-1] ** 2))
    lt, lz = (s * r / (a * R)) ** 2, (l / L) ** 2
    dth, dzz = diagonal_stress_differences((1.0 / (lt * lz), lt, lz),
                                           material_columns([layer.equilibrium for layer in layers]))
    c = np.cumsum((half * (w @ (dth / r)[n:].reshape(nodes.shape))).T).reshape(half.T.shape)
    t_rr = np.column_stack((np.r_[0.0, c[:-1, -1]], c))
    return np.column_stack([v.ravel() for v in (rs.T, t_rr, t_rr + dth[:n].T, t_rr + dzz[:n].T)])


# ---------------------------------------------------------------------------
# damped Newton with a complex-step Jacobian
# ---------------------------------------------------------------------------

@dataclass
class SolverReport:
    """The record of a run, one per workflow result: whether it converged, the
    iterations of its slowest Newton solve, the returned state's residuals keyed
    by name and unit, and their change under doubled quadrature (tube solvers
    only).  The equilibrium solvers raise NoConvergence rather than return
    unconverged, so their records carry converged=True by construction; the
    point driver's is False when a fibre solve ended above its tolerance."""
    converged: bool
    iterations: int
    residuals: dict
    quad_check: Optional[dict] = None


def _report(residual, refined, iterations: int) -> SolverReport:
    """A converged solve's residual (kPa, kPa mm^2) and its change at 2*npts nodes."""
    p, fz = float(residual[0]), float(residual[1])
    p2, fz2 = map(float, refined[:2])
    return SolverReport(True, iterations, {'p_net_kpa': p, 'F_red_kpa_mm2': fz},
                        {'p_refine_change': abs(p2 - p), 'F_refine_change': abs(fz2 - fz)})


_eye = functools.cache(np.eye)     # shared, so never written to


def _value_and_jacobian(fun, x):
    """fun(x) and its Jacobian from one call on the complex-step columns x + i h_j e_j.

    x has shape (n,), or (n, B) for B systems; fun gets the columns as (n, n),
    or (n, B, n) with system b's at [:, b, :], and the Jacobian comes back as
    (n, n) or (B, n, n).
    """
    h = CS_STEP * np.maximum(1.0, abs(x))
    eye = _eye(len(x))[:, None] if x.ndim > 1 else _eye(len(x))
    out = np.asarray(fun(x[..., None] + 1j * (h[..., None] * eye)))
    return out.real[..., 0], (out.imag / h.T).swapaxes(0, -2)


def newton2(fun, x0, tol: float = NEWTON_TOL, max_iter: int = NEWTON_MAXIT):
    """Damped Newton for a nondimensional residual function, complex-step Jacobian.

    x0 has shape (n,) for one system or (n, B) for B independent systems.  fun
    maps n unknowns for complex states of shape S, (m,) or (B, m), given as an
    array (n, *S), to residuals of the same shape, analytically (no abs,
    comparisons or casts on the values).  Each trial point comes with its
    Jacobian, one call per accepted step; a step is taken only once the
    residual at its end is checked to be smaller.  Every system converges,
    halves its step and stops on its own: where fun evaluates each state as it
    would alone, a batch returns the x each system reaches alone.  Returns (x,
    residual, iterations of the slowest system); raises NoConvergence carrying
    the last checked iterates and the largest residual norm, and ValueError
    for a tolerance that is not > 0, which no residual can meet.
    """
    if not tol > 0.0:
        raise ValueError(f"need tol > 0 (got {tol})")
    x = np.array(x0, dtype=float)
    f, jac = _value_and_jacobian(fun, x)
    for it in range(max_iter + 1):
        norm = abs(f).max(axis=0)
        worst = float(norm.max())
        if worst < tol:
            return x, f, it
        if it == max_iter:
            raise NoConvergence(f"no convergence in {max_iter} Newton iterations "
                                f"(|res| = {worst:.3e})", x, {'norm': worst}, it)
        pending = ~(norm < tol)
        try:
            step = np.linalg.solve(jac, -f.T[..., None])[..., 0].T * pending
        except np.linalg.LinAlgError:
            raise NoConvergence("singular Jacobian in tube solve", x, {'norm': worst}, it)
        for _ in range(MAX_HALVINGS):
            fn, jn = _value_and_jacobian(fun, x + step)
            worse = pending & ~(abs(fn).max(axis=0) < norm)
            if not worse.any():
                break
            step *= 1.0 - 0.5 * worse
        else:
            raise NoConvergence(f"line search stalled at |res| = {worst:.3e}", x,
                                {'norm': worst}, it)
        x, f, jac = x + step, fn, jn


def _solve_wall(layers, residuals, x0, length, tol: float, max_iter: int):
    """newton2 on the n = 2 or 3 unknowns x of the wall, x0 of shape (n,) or (n, B):
    the first n of residuals(*x) = (p_net, F_red, M) over (c, c length^2, c
    length^2), c the largest matrix modulus c1 or c2 (c1 may be 0), length a scalar
    or one per system.  Inadmissible candidates (a length x[0] or x[1] <= 0, a
    DomainError or an overflow) make every state of the call huge, so the line
    search backs off.  Returns (x, residual in kPa and kPa mm^2, iterations)."""
    n = len(x0)
    c = max(max(layer.equilibrium.matrix.c1, layer.equilibrium.matrix.c2) for layer in layers)
    scale = c * np.array([np.ones_like(length), length ** 2, length ** 2])[:n, ..., None]

    def resid(x):
        try:
            if (x[:2].real > 0.0).all():
                return np.asarray(residuals(*x[..., None])[:n]) / scale
        except (DomainError, ArithmeticError):
            pass
        return np.full(x.shape, 1e30)

    x, fhat, iters = newton2(resid, x0, tol=tol, max_iter=max_iter)
    return x, fhat * scale[..., 0], iters


@dataclass
class WallSolution:
    """An equilibrated load-free wall: the tube, the layers' stress-free
    sectors, inner to outer, and the solve's record."""
    tube: TubeGeometry
    sectors: tuple
    report: SolverReport


# ---------------------------------------------------------------------------
# inverse problem: tube -> stress-free sector(s)
# ---------------------------------------------------------------------------

def solve_inverse_sf(tube: TubeGeometry, alpha: float, layers: Sequence[MaterialLayer],
                     npts: int = N_QUAD, tol: float = NEWTON_TOL,
                     max_iter: int = NEWTON_MAXIT) -> WallSolution:
    """Find the stress-free sector geometry of a load-free tube.

    All layers share the opening angle alpha (rad) and the sector length L;
    tube.radii holds one boundary radius more than there are layers.  Unknowns
    are (Ri, L); one incompressible map of the whole wall carries the tube
    radii to the sectors' sf radii, which also enforces the per-layer volume
    identities exactly.  Residuals are the net pressure and the reduced axial
    force.
    """
    if not 0.0 <= alpha < TWO_PI:
        raise ValueError(f"need 0 <= alpha < 2*pi (got {alpha})")
    if len(tube.radii) != len(layers) + 1:
        raise ValueError(f"{len(layers)} layer(s) need {len(layers) + 1} tube radii "
                         f"(got {len(tube.radii)})")
    ri, k = tube.radii[0], TWO_PI / (TWO_PI - alpha)
    x, f, iters = _solve_wall(layers, tube_residuals(tube, alpha, layers, npts),
                              np.array([k * ri, tube.l]), ri, tol, max_iter)
    Ri, L = float(x[0]), float(x[1])
    R = OpeningMap(k, tube.l / L, ri, Ri).radius_sf(np.array(tube.radii)).tolist()
    sectors = tuple(SectorGeometry(lo, hi, L, alpha) for lo, hi in zip(R, R[1:]))
    return WallSolution(tube, sectors,
                        _report(f, tube_residuals(tube, alpha, layers, 2 * npts)(Ri, L), iters))


# ---------------------------------------------------------------------------
# forward problem: sector(s) -> load-free tube
# ---------------------------------------------------------------------------

def _solve_sector(layers: Sequence[MaterialLayer], residuals, alpha, tol: float = NEWTON_TOL,
                  max_iter: int = NEWTON_MAXIT):
    """Newton on (rho, l) of the glued sector of angle alpha (alpha = 0: the tube),
    or on one (rho, l) per angle of an array alpha, in one batch, on the layers'
    sector_residuals.

    Every angle starts from the mean L and the larger of rho = Ro_1 / k_1 (the
    first layer's outer arc keeps its length) and Ro_1 / sqrt(k_1) (its sector
    keeps its area), the latter for k_1 >= 1.  Returns (x, residual in kPa and
    kPa mm^2, iterations), of shape (2,) or (2, B).
    """
    sec = [layer.sector for layer in layers]
    alphas = np.asarray(alpha)
    k1 = (TWO_PI - alphas) / (TWO_PI - sec[0].alpha)
    rho0 = sec[0].Ro * np.maximum(1.0 / k1, np.sqrt(1.0 / k1))
    x0 = np.array([rho0, np.full_like(rho0, sum(s.L for s in sec) / len(sec))])
    # a batch's states have shape (B, m): the angles vary along the first axis
    a = alphas[:, None, None] if alphas.ndim else alpha
    return _solve_wall(layers, lambda rho, l: residuals(rho, l, a), x0, rho0, tol, max_iter)


def solve_load_free(layers: Sequence[MaterialLayer], npts: int = N_QUAD,
                    tol: float = NEWTON_TOL, max_iter: int = NEWTON_MAXIT) -> WallSolution:
    """Close the per-layer sectors into one equilibrated load-free tube.

    Unknowns are the current radius of the first layer's outer sf radius and
    the tube length l (see sector_residuals); the tube radii follow in closed
    form (glued_radii).
    """
    x, f, iters = _solve_sector(layers, sector_residuals(layers, npts), 0.0, tol, max_iter)
    rho, l = float(x[0]), float(x[1])
    sectors = tuple(wall_sectors(layers))
    refined = sector_residuals(layers, 2 * npts)(rho, l)
    return WallSolution(TubeGeometry(glued_radii(sectors, rho, l), l), sectors,
                        _report(f, refined, iters))
