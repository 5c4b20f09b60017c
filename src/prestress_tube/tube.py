"""Opening-angle kinematics and thick-walled-tube equilibrium solvers.

A circular sector (inner radius Ri, outer Ro, length L, opening angle alpha)
closes into a tube (length l).  Each layer's map is determined by two
constants,

    k = 2*pi / (2*pi - alpha)   (circumferential ratio),
    c = l / L                   (axial stretch),

together with one anchored radius pair (r_a, R_a); incompressibility then gives
R^2 - R_a^2 = k c (r^2 - r_a^2) pointwise and the deformation gradient in the
cylindrical triad is diag(R/(k c r), k r / R, c) with det = 1 exactly; its
inverse is the pre-stress map F0 = diag(c f, 1/f, 1/c), f = k r / R.

A wall is a list of layers, inner to outer.  Each solve sets it up once, one row
per layer, and builds from these rows its per-node tables of the whole wall (the
Newton's, and the quadrature check's at twice its nodes), with Gauss nodes fixed
in the radius the solve knows: the stress-free R for the sectors
(sector_residuals), the load-free r for the tube (tube_residuals).  The wall
integrands are smooth in ln r, so the nodes are uniform in ln r over each
layer: over its tube span for the tube, and for the sectors over its span of
the wall closed with neo-Hookean layers (neo_hookean_closing), mapped once to
R.  A node in R has r^2 = r_a^2 + (R^2 - R_a^2)/(k c), a node in r has R^2 =
R_a^2 + k c (r^2 - r_a^2), and dr = R dR/(k c r) leaves only squared radii in
the integrands:
the kernel equilibrium_residuals sweeps every layer in one pass, with no
square root.  Glued sectors, with s = 2*pi - alpha and g_j = (2*pi -
alpha_j) L_j, have 1/(k_j c_j) = g_j/(s l) and r^2 = r_i^2 + Q/(s l), Q >= 0
fixed: anchored at the inner surface, no state with r_i, l > 0 closes a node.
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
residuals in the logs of the wall's two lengths, (ln r_i, ln l) or (ln Ri,
ln L), with a complex-step Jacobian: one residual call at the columns x + i h
e_j gives the residual and the exact Jacobian.  The Newton takes one system or
a batch of independent ones, each inadmissible on its own where its residual or
Jacobian is not finite.  Both solvers start next to the root, at the map that
leaves the middle of the first layer without hoop strain, at the tube's length or
the sectors' stiffness-weighted one, and every solve stops by one rule that no
caller sets: below NEWTON_TOL, near roundoff, within NEWTON_MAXIT iterations.  A
start moves a scan batch's result by 7.1e-14 relative at most, but the argmin's by
up to 3.7e-10 deg in alpha and 1.75e-12 relative in r_i (four starts in its grid
cell, 256 scans).  The load-free solve is the glued-sector Newton at
alpha = 0; the energy scan runs the same solve at every angle of its grid as one
batch, and its argmin solves all three residuals for (ln r_i, ln l, ln(2*pi - alpha)).
The inverse solve's nodes stay fixed in r; each node's R^2 moves with (Ri, L).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import NoConvergence
from .materials import (EquilibriumMaterial, diagonal_energy, diagonal_stress_differences,
                        expand_columns, material_columns)
from .maxwell import FibreMaxwellParams, IsoMaxwellParams

TWO_PI = 2.0 * math.pi

# solver defaults
N_QUAD = 12            # Gauss-Legendre points per layer, uniform in ln r: the fewest with
                       # which every accuracy oracle of the tests holds on sweeps of its input
                       # ranges (README)
NEWTON_TOL = 1e-13     # infinity-norm of the nondimensional residual: near roundoff
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

def _read_only(a):
    a.flags.writeable = False
    return a


_leggauss = functools.cache(lambda n: tuple(map(_read_only, np.polynomial.legendre.leggauss(n))))


@functools.cache
def _profile_steps():
    """wall_stress_profile's samples, then each sample interval's 3-point Gauss nodes, in
    sample steps from a layer's inner radius; and the Gauss weights."""
    i, (x, w) = np.arange(float(PROFILE_POINTS)), _leggauss(3)
    return _read_only(np.concatenate((i, (i[:-1, None] + 0.5 * (1.0 + x)).ravel()))), w


def _ln_r_nodes(lo2, span, npts: int, cols):
    """Gauss-Legendre nodes uniform in ln r over spans of r^2 from lo2 to lo2 e^span
    (columns, one row per layer): (r^2 - lo2, V) at the nodes, V = w r^2 for the
    weights w in ln r, so that int f dr = sum V f / r, and the layers' columns cols there."""
    (x, w), layer = _leggauss(npts), np.repeat(np.arange(len(lo2)), npts)
    dx2 = lo2 * np.expm1(0.5 * span * (1.0 + x))
    return dx2, 0.25 * span * w * (lo2 + dx2), expand_columns(cols, layer)


def wall_sectors(layers: Sequence[MaterialLayer]):
    """The stress-free sectors of a glued wall of sectored layers, inner to outer."""
    if not layers or any(layer.sector is None for layer in layers):
        raise ValueError("the wall needs one or more layers, each with its sector geometry")
    return [layer.sector for layer in layers]


def glued_radii(sectors, ri, l, alpha=0.0):
    """Boundary radii, inner to outer, of the sectors glued into one sector of angle
    alpha (0: the tube) and length l whose inner surface sits at the current radius
    ri: r^2 = ri^2 + Q/(s l) at the sectors' boundaries."""
    g = [(TWO_PI - sec.alpha) * sec.L * (sec.Ro ** 2 - sec.Ri ** 2) for sec in sectors]
    return np.sqrt(ri ** 2 + np.cumsum([0.0] + g) / ((TWO_PI - alpha) * l))


def _start_ri2(sec: SectorGeometry, alpha):
    """r_i^2 of the glued sector's start at angle alpha: unit hoop stretch at l = L_1
    at the middle R_n of the first sector sec, so with a1 = (2*pi - alpha_1) / (2*pi -
    alpha), r_n = a1 R_n and ri^2 = a1 (Ri_1^2 - (1 - a1) R_n^2), floored at a1 Ri_1^2 / 2
    for a thick first sector closed far past its own angle."""
    a1 = (TWO_PI - sec.alpha) / (TWO_PI - alpha)
    Ri2, Rn2 = sec.Ri ** 2, (0.5 * (sec.Ri + sec.Ro)) ** 2
    return a1 * np.maximum(Ri2 - (1.0 - a1) * Rn2, 0.5 * Ri2)


def neo_hookean_closing(layers: Sequence[MaterialLayer]):
    """Squared boundary radii, inner to outer, of the glued wall closed at alpha = 0
    and l = L_1 with every layer neo-Hookean of modulus mu = c1 + c2, where its net
    pressure vanishes.

    Layer j, k = 2*pi / (2*pi - alpha_j) and c = L_1 / L_j, spans x = r^2 from x0 to x1
    with R^2 = Ri^2 + k c (x - x0), so its share of p_net is the closed form mu (k/(2c)
    ln(Ro^2/Ri^2) - (Ri^2/x0 - Ro^2/x1 + k c ln(x1/x0)) / (2 k^2 c^2)).  p_net rises
    with r_i from -inf to a positive limit and is near linear in v = 1/r_i^2 toward the
    axis: Newton in v from the sector solve's start, multiplying r_i^2 by 4 where a
    step would leave v > 0, until a step moves v by 1e-3 of itself.
    """
    secs = wall_sectors(layers)
    terms, d = [], [0.0]   # d: x - x0 at the layers' boundaries
    for layer, sec in zip(layers, secs):
        k, c, Ri2, Ro2 = TWO_PI / (TWO_PI - sec.alpha), secs[0].L / sec.L, sec.Ri ** 2, sec.Ro ** 2
        mu = layer.equilibrium.matrix.c1 + layer.equilibrium.matrix.c2
        m = mu / (2.0 * k * k * c * c)
        d.append(d[-1] + (Ro2 - Ri2) / (k * c))
        terms.append((mu * k / (2.0 * c) * math.log(Ro2 / Ri2), m * Ri2, m * Ro2, m * k * c,
                      d[-2], d[-1]))
    x0 = float(_start_ri2(secs[0], 0.0))
    for _ in range(NEWTON_MAXIT):
        p = dp = 0.0
        for t, mRi2, mRo2, mkc, d0, d1 in terms:
            lo, hi = 1.0 / (x0 + d0), 1.0 / (x0 + d1)
            p += t - mRi2 * lo + mRo2 * hi - mkc * math.log(lo / hi)
            dp += mRi2 * lo * lo - mRo2 * hi * hi + mkc * (lo - hi)
        step = p / (x0 * dp)          # the Newton step in v, relative to v
        if step <= -1.0:
            x0 *= 4.0
            continue
        x0 /= 1.0 + step
        if abs(step) <= 1e-3:
            break
    return [x0 + dj for dj in d]


def sector_residuals(layers: Sequence[MaterialLayer], npts: int = N_QUAD, check: bool = False):
    """The glued wall's (ri, l, alpha=0, energy=False) -> equilibrium_residuals over
    its node table, whose nodes stay fixed in R: the first sector's inner sf radius
    at the current radius ri, each later one's inner at the outer of the one inside
    it, gives Q = g_j (R^2 - Ri_j^2) + sum_{i<j} g_i (Ro_i^2 - Ri_i^2) >= 0, so r^2 >=
    ri^2, A = ((2*pi - alpha_j) R)^-2 and B = L_j^-2.  The nodes are uniform in ln r
    over each layer's span of the wall's neo_hookean_closing, squared radii b2 at
    l = L_1, where a node at r_c has Q = S (r_c^2 - b2_0), S = 2*pi L_1, R^2 = Ri_j^2 +
    S (r_c^2 - b2_j) / g_j and V = S w r_c^2 for the weights w in ln r.  With check, also
    the wall at 2 npts from the same setup."""
    secs = wall_sectors(layers)
    b2, S = neo_hookean_closing(layers), TWO_PI * secs[0].L
    # per layer, a = 2*pi - alpha_j: b2_j, ln(b2_j+1 / b2_j), Q at b2_j, a^2 Ri^2, a S / L, B
    lo2, span, q, aRi2, aSL, B = np.array([
        (b2[j], math.log(b2[j + 1] / b2[j]), S * (b2[j] - b2[0]),
         ((TWO_PI - sec.alpha) * sec.Ri) ** 2, (TWO_PI - sec.alpha) * S / sec.L, sec.L ** -2)
        for j, sec in enumerate(secs)]).T[..., None]
    cols = material_columns([layer.equilibrium for layer in layers])

    def wall(n):
        dx2, V, ncols = _ln_r_nodes(lo2, span, n, cols)
        table = (ncols, (q + S * dx2).ravel(), (1.0 / (aRi2 + aSL * dx2)).ravel(),
                 np.repeat(B, n), (S * V).ravel())

        def residuals(ri, l, alpha=0.0, energy=False):   # for alpha < 2*pi, which callers check
            s = TWO_PI - alpha
            return equilibrium_residuals(table, ri ** 2, 1.0 / (s * l), s * s, l * l, energy)
        return residuals
    return (wall(npts), wall(2 * npts)) if check else wall(npts)


def tube_residuals(tube: TubeGeometry, alpha: float, layers: Sequence[MaterialLayer],
                   npts: int = N_QUAD, check: bool = False):
    """The inverse solve's (Ri, L) -> equilibrium_residuals of the one map
    (k, c, ri, Ri), c = l/L, of the wall over its node table, whose nodes stay fixed
    in r, uniform in ln r over each layer's tube span, with V = w r^2 for the weights
    w in ln r; each call gives a node R^2 = Ri^2 + k c (r^2 - ri^2), A = 1/R^2 and B =
    1 (the kernel at r2a = 0 and h = 1): for Ri, L > 0, R^2 >= Ri^2 > 0, so a call
    takes no square root.  With check, also the wall at 2 npts from the same setup."""
    rb2, k = np.square(tube.radii), TWO_PI / (TWO_PI - alpha)
    lo2 = rb2[:-1, None]
    span, cols = np.log(rb2[1:, None] / lo2), material_columns([la.equilibrium for la in layers])

    def wall(n):
        dx2, V, ncols = _ln_r_nodes(lo2, span, n, cols)
        dr2 = (lo2 - rb2[0] + dx2).ravel()
        r2, V = rb2[0] + dr2, V.ravel()

        def residuals(Ri, L):
            c = tube.l / L
            return equilibrium_residuals((ncols, r2, 1.0 / (Ri * Ri + k * c * dr2), 1.0, V),
                                         0.0, 1.0, k * k, c * c)
        return residuals
    return (wall(npts), wall(2 * npts)) if check else wall(npts)


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
    lt, lz = k2 * r2 * A, c2 * B
    l2 = (1.0 / (lt * lz), lt, lz)
    dth, dzz = diagonal_stress_differences(l2, cols)
    wt = V * h
    wdth = wt * dth
    p, m = (wdth / r2).sum(axis=-1), 0.5 * wdth.sum(axis=-1)
    fz = math.pi * (wt * (2.0 * dzz - dth)).sum(axis=-1)
    return (p, fz, m, (wt * diagonal_energy(l2, cols)).sum(axis=-1)) if energy else (p, fz, m)


def wall_stress_profile(layers: Sequence[MaterialLayer], sectors, radii, l, alpha=0.0):
    """Radial Cauchy stress profile (r, T_rr, T_theta, T_zz) across a glued wall of
    angle alpha (0: the tube) and length l, given its layers' sectors and boundary
    radii r_j, inner to outer: layer j maps by R^2 = Ri_j^2 + (s l/g_j)(r^2 - r_j^2),
    s = 2*pi - alpha and g_j = (2*pi - alpha_j) L_j.

    Each layer is sampled at PROFILE_POINTS radii uniform in r, as np.linspace places
    them, row j of one kernel call holding layer j's samples, then its Gauss nodes.  T_rr(r)
    = int_{r_0}^{r} (T_theta - T_rr)/rho d(rho) from the traction-free inner surface,
    summed over a 3-point Gauss rule on every sample interval and carried across interfaces.
    """
    n, (t, w) = PROFILE_POINTS, _profile_steps()
    rb = np.asarray(radii, dtype=float)
    lo, step = rb[:-1, None], ((rb[1:] - rb[:-1]) / (n - 1))[:, None]
    r = t * step + lo
    r[:, n - 1] = rb[1:]
    a, L, Ri = np.array([[TWO_PI - sec.alpha, sec.L, sec.Ri] for sec in sectors]).T[..., None]
    s = TWO_PI - alpha
    R2 = Ri ** 2 + s * l / (a * L) * (r ** 2 - lo ** 2)   # >= Ri^2: r >= r_j
    lt, lz = (s * r / a) ** 2 / R2, (l / L) ** 2
    cols = expand_columns(material_columns([la.equilibrium for la in layers]), np.s_[:, None])
    dth, dzz = diagonal_stress_differences((1.0 / (lt * lz), lt, lz), cols)
    dt_rr = 0.5 * step * ((dth / r)[:, n:].reshape(len(lo), n - 1, 3) @ w)
    t_rr = np.concatenate((np.zeros_like(lo), dt_rr), axis=1).cumsum().reshape(-1, n)
    return np.stack((r[:, :n], t_rr, t_rr + dth[:, :n], t_rr + dzz[:, :n]), axis=-1).reshape(-1, 4)


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
    (p, fz), (p2, fz2) = map(float, residual[:2]), map(float, refined[:2])
    return SolverReport(True, iterations, {'p_net_kpa': p, 'F_red_kpa_mm2': fz},
                        {'p_refine_change': abs(p2 - p), 'F_refine_change': abs(fz2 - fz)})


_ieye = functools.cache(lambda n: _read_only(1j * np.eye(n)))   # i times the identity


def _value_and_jacobian(fun, x):
    """fun(x) and its Jacobian from one call on the complex-step columns x + i h_j e_j.

    x has shape (n,), or (n, B) for B systems; fun gets the columns as (n, n),
    or (n, B, n) with system b's at [:, b, :], and the Jacobian comes back as
    (n, n) or (B, n, n).  A system whose Jacobian has a non-finite entry gets an
    infinite value: like one whose value is not finite, it is inadmissible.
    """
    h = CS_STEP * np.where(x == 0.0, 1.0, abs(x))   # relative: any length scale
    ieye = _ieye(len(x))[:, None] if x.ndim > 1 else _ieye(len(x))
    out = np.asarray(fun(x[..., None] + h[..., None] * ieye))
    jac = (out.imag / h.T).swapaxes(0, -2)
    return np.where(np.isfinite(jac).all(axis=(-2, -1)), out.real[..., 0], np.inf), jac


def newton2(fun, x0):
    """Damped Newton for a nondimensional residual function, complex-step Jacobian.

    x0 has shape (n,) for one system or (n, B) for B independent systems.  fun
    maps n unknowns for complex states of shape S, (m,) or (B, m), given as an
    array (n, *S), to residuals of the same shape, analytically (no abs,
    comparisons or casts on the values).  Each trial point comes with its Jacobian,
    one call per accepted step, whose residual norm the next iteration keeps.  A
    system whose value or Jacobian is not finite is inadmissible: it reads as
    infinite, so the line search backs off it, and a start is named by its non-finite
    residual, or Jacobian where only that is.  Where fun evaluates each state as it
    would alone, every system converges, halves its step and fails on its own: a
    batch returns the x each system reaches alone, or fails as the first to fail
    does alone.
    Every system stops once its residual norm is below NEWTON_TOL, and the batch
    fails after NEWTON_MAXIT iterations, both read at call time.
    Returns (x, residual, iterations of the slowest system); raises
    NoConvergence carrying the last checked iterates and the largest residual
    norm (of the stalled systems, where the line search stalls), or at an
    inadmissible start which systems are inadmissible.
    """
    tol, max_iter = NEWTON_TOL, NEWTON_MAXIT
    x = np.array(x0, dtype=float)
    f, jac = _value_and_jacobian(fun, x)
    norm = abs(f).max(axis=0)
    for it in range(max_iter + 1):
        worst = float(norm.max())
        if worst < tol:
            return x, f, it
        if not worst < math.inf:   # only at the start: every accepted step lowers the norm
            what = "Jacobian" if np.isfinite(fun(x[..., None])).all() else "residual"
            raise NoConvergence(f"inadmissible start (non-finite {what})", x, {}, 0,
                                ~(norm < math.inf))
        if it == max_iter:
            raise NoConvergence(f"no convergence in {max_iter} Newton iterations "
                                f"(|res| = {worst:.3e})", x, {'norm': worst}, it)
        pending = ~(norm < tol)
        try:
            step = np.linalg.solve(jac, -f.T[..., None])[..., 0].T * pending
        except np.linalg.LinAlgError:
            raise NoConvergence("singular Jacobian in tube solve", x, {'norm': worst}, it)
        for _ in range(MAX_HALVINGS):
            trial = x + step
            fn, jn = _value_and_jacobian(fun, trial)
            nn = abs(fn).max(axis=0)
            worse = pending & ~(nn < norm)
            if not worse.any():
                break
            step *= 1.0 - 0.5 * worse
        else:   # at the norm of the systems that stalled, as each would alone
            worst = float(norm[worse].max())
            raise NoConvergence(f"line search stalled at |res| = {worst:.3e}", x,
                                {'norm': worst}, it)
        x, f, jac, norm = trial, fn, jn, nn


def _solve_wall(layers, residuals, x0, length):
    """newton2 on the n = 2 or 3 unknowns x of the wall, x0 of shape (n,) or (n, B),
    solved in logs as u = (ln x[0], ln x[1], ln(2*pi - x[2])), so no trial leaves the
    domain: the first n of residuals(*x) = (p_net, F_red, M) over (c, c length^2,
    c length^2), c the largest matrix modulus c1 or c2 (c1 may be 0), length the wall's
    one scalar.  The Newton runs with numpy's floating-point errors ignored, whatever
    the caller's error state: an overflow, a division by zero or an invalid operation
    leaves a non-finite value or Jacobian in its own system, which newton2 reads as
    inadmissible.  It stops where newton2 does, at NEWTON_TOL within NEWTON_MAXIT
    iterations.  Returns (x, residual in kPa and kPa mm^2, iterations); a NoConvergence
    carries its last iterate as x and names a length that e^u underflowed to 0 mm."""
    n = len(x0)
    c = max(max(layer.equilibrium.matrix.c1, layer.equilibrium.matrix.c2) for layer in layers)
    scale = c * np.array([1.0, length ** 2, length ** 2])[:n].reshape((n,) + (1,) * np.ndim(x0))

    def flip(x):   # in place: alpha <-> 2*pi - alpha, so x = flip(e^u)
        if n == 3:
            x[2] = TWO_PI - x[2]
        return x

    def resid(u):
        return np.asarray(residuals(*flip(np.exp(u))[..., None])[:n]) / scale

    with np.errstate(all="ignore"):
        try:
            u, fhat, iters = newton2(resid, np.log(flip(np.array(x0, dtype=float))))
        except NoConvergence as e:
            e.last_iterate = flip(np.exp(e.last_iterate))
            if (e.last_iterate[:2] == 0.0).any():   # e^u underflowed: ln r_i or ln l ran off
                e.args = (f"{e}: the iterates walked to a length of 0 mm",)
            raise
    return flip(np.exp(u)), fhat * scale[..., 0], iters


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
                     npts: int = N_QUAD) -> WallSolution:
    """Find the stress-free sector geometry of a load-free tube.

    All layers share the opening angle alpha (rad) and the sector length L;
    tube.radii holds one boundary radius more than there are layers.  Unknowns
    are (Ri, L); one incompressible map of the whole wall carries the tube
    radii to the sectors' sf radii, which also enforces the per-layer volume
    identities exactly.  Residuals are the net pressure and the reduced axial
    force.  The start is c = 1 (L = l) with unit hoop stretch k r_m / R at the
    middle r_m of the first layer: Ri^2 = k^2 r_m^2 - k (r_m^2 - r_0^2).
    """
    if not 0.0 <= alpha < TWO_PI:
        raise ValueError(f"need 0 <= alpha < 2*pi (got {alpha})")
    if len(tube.radii) != len(layers) + 1:
        raise ValueError(f"{len(layers)} layer(s) need {len(layers) + 1} tube radii "
                         f"(got {len(tube.radii)})")
    ri, k = tube.radii[0], TWO_PI / (TWO_PI - alpha)
    rm = 0.5 * (ri + tube.radii[1])
    x0 = np.array([math.sqrt(k * k * rm * rm - k * (rm * rm - ri * ri)), tube.l])
    wall, check = tube_residuals(tube, alpha, layers, npts, check=True)
    x, f, iters = _solve_wall(layers, wall, x0, tube.radii[-1])
    Ri, L = float(x[0]), float(x[1])
    R = np.sqrt(Ri * Ri + k * (tube.l / L) * (np.square(tube.radii) - ri * ri)).tolist()
    sectors = tuple(SectorGeometry(lo, hi, L, alpha) for lo, hi in zip(R, R[1:]))
    return WallSolution(tube, sectors, _report(f, check(Ri, L), iters))


# ---------------------------------------------------------------------------
# forward problem: sector(s) -> load-free tube
# ---------------------------------------------------------------------------

def _solve_sector(layers: Sequence[MaterialLayer], residuals, alpha):
    """Newton on (ri, l) of the glued sector of angle alpha (alpha = 0: the tube),
    or on one (ri, l) per angle of an array alpha, in one batch, on the layers'
    sector_residuals, scaled by the outermost sector's Ro.

    Every angle starts from its own closed form, _start_ri2 and l = L_1 + sum w_j (L_j - L_1)
    / sum w_j: w_j is layer j's small-strain axial stiffness 6 (c1 + c2) + 4 sum_f k1 a_z^4
    times its sector area (2*pi - alpha_j)(Ro_j^2 - Ri_j^2), so l = L_1 exactly where the
    layers' L are equal.  Returns (x, residual in kPa and kPa mm^2, iterations), (2,) or (2, B).
    """
    secs = wall_sectors(layers)
    w = [(6.0 * (m.matrix.c1 + m.matrix.c2) + 4.0 * sum(fp.k1 * fp.a[2] ** 4 for fp in m.fibres))
         * (TWO_PI - sec.alpha) * (sec.Ro ** 2 - sec.Ri ** 2)
         for m, sec in zip((layer.equilibrium for layer in layers), secs)]
    alphas = np.asarray(alpha)
    ri0 = np.sqrt(_start_ri2(secs[0], alphas))
    l0 = secs[0].L + sum(wj * (sec.L - secs[0].L) for wj, sec in zip(w, secs)) / sum(w)
    x0 = np.array([ri0, np.full_like(ri0, l0)])
    # a batch's states have shape (B, m): the angles vary along the first axis
    a = alphas[:, None, None] if alphas.ndim else alpha
    try:
        return _solve_wall(layers, lambda *x: residuals(*x, a), x0, secs[-1].Ro)
    except NoConvergence as e:
        if not alphas.ndim or e.inadmissible is None:
            raise
        bad = ", ".join(f"{math.degrees(t):g}" for t in alphas[e.inadmissible])
        raise NoConvergence(f"{e} at alpha = {bad} deg", x0, {}, 0, e.inadmissible)


def solve_load_free(layers: Sequence[MaterialLayer], npts: int = N_QUAD) -> WallSolution:
    """Close the per-layer sectors into one equilibrated load-free tube.

    Unknowns are the current inner radius and the tube length l (see
    sector_residuals); the tube radii follow in closed form (glued_radii).
    """
    wall, check = sector_residuals(layers, npts, check=True)
    x, f, iters = _solve_sector(layers, wall, 0.0)
    (ri, l), sectors = x.tolist(), tuple(wall_sectors(layers))
    return WallSolution(TubeGeometry(glued_radii(sectors, ri, l), l), sectors,
                        _report(f, check(ri, l), iters))
