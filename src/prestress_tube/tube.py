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

A wall is a list of layers, inner to outer, each a WallSegment: the layer, its
map and its span in the stress-free radius R.  Integrals run over Gauss nodes
in R, which do not move with the unknowns.  The load-free equilibrium of the
wall is characterised by two integrals over its thickness (inner/outer
tractions and resultant axial force both zero):

    p_net   = int (T_theta - T_rr) / r dr        = 0 ,
    F_red   = pi * int (2 T_zz - T_theta - T_rr) r dr = 0 ,

evaluated with the pressure-free "extra" Cauchy stress, the hydrostatic part
having cancelled from the differences.  Two solvers are provided:

* solve_inverse_sf: tube geometry known, find the stress-free sector(s);
* solve_load_free:  per-layer sectors known, find the composite tube.

Both use a damped 2-unknown Newton iteration with forward-difference Jacobian
on nondimensionalized residuals.  The load-free solve is the glued-sector
Newton at alpha = 0; the opened sector of the energy scan is the same solve at
its trial angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, NoConvergence, QuadratureFailure
from .materials import EquilibriumMaterial, extra_cauchy_equilibrium
from .maxwell import FibreMaxwellParams, IsoMaxwellParams

TWO_PI = 2.0 * math.pi

# solver defaults
N_QUAD = 32            # Gauss-Legendre points per layer
NEWTON_TOL = 1e-10     # infinity-norm of the nondimensional residual
NEWTON_MAXIT = 25
FD_STEP = 1e-7         # relative forward-difference step for the Jacobian
MAX_HALVINGS = 8


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
        if not 0.0 < self.Ri < self.Ro:
            raise ValueError(f"need 0 < Ri < Ro (got {self.Ri}, {self.Ro})")
        if self.L <= 0.0:
            raise ValueError("need L > 0")
        if not 0.0 <= self.alpha < TWO_PI:
            raise ValueError("need 0 <= alpha < 2*pi")

    @property
    def k(self) -> float:
        return TWO_PI / (TWO_PI - self.alpha)

    @property
    def alpha_deg(self) -> float:
        return math.degrees(self.alpha)


@dataclass(frozen=True)
class TubeGeometry:
    """Closed tube: layer-boundary radii, inner to outer, and length in mm."""
    radii: tuple
    l: float

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        if len(radii) < 2 or not all(a < b for a, b in zip((0.0,) + radii, radii)):
            raise ValueError(f"need two or more radii 0 < r_0 < r_1 < ... (got {radii})")
        if not self.l > 0.0:
            raise ValueError("need l > 0")
        object.__setattr__(self, 'radii', radii)


@dataclass(frozen=True)
class OpeningMap:
    """One layer's sector<->tube map, anchored at the radius pair (ri, Ri).

    R^2 - Ri^2 = k c (r^2 - ri^2) links the load-free radius r to the
    stress-free radius R.  k < 1 is admissible: an opened sector whose angle
    exceeds the layer's own stretches the layer circumferentially.
    """
    k: float
    c: float
    ri: float
    Ri: float

    def __post_init__(self):
        if self.k <= 0.0 or self.c <= 0.0:
            raise ValueError(f"need k > 0 and c > 0 (got k={self.k}, c={self.c})")

    def radius_sf(self, r):
        rad = self.Ri ** 2 + self.k * self.c * (np.asarray(r, float) ** 2 - self.ri ** 2)
        if np.any(rad <= 0.0):
            raise DomainError("sf radius radicand not positive")
        return np.sqrt(rad)

    def radius_current(self, R):
        rad = self.ri ** 2 + (np.asarray(R, float) ** 2 - self.Ri ** 2) / (self.k * self.c)
        if np.any(rad <= 0.0):
            raise DomainError("current radius radicand not positive")
        return np.sqrt(rad)

    def deformation_gradient(self, r, R):
        """Closing gradient sf -> lf: diag(R/(k c r), k r/R, c), det = 1."""
        R = np.asarray(R, dtype=float)
        r = np.asarray(r, dtype=float)
        out = np.zeros(np.broadcast(R, r).shape + (3, 3))
        out[..., 0, 0] = R / (self.k * self.c * r)
        out[..., 1, 1] = self.k * r / R
        out[..., 2, 2] = self.c
        return out

    def F0(self, r):
        """Pre-stress map lf -> sf at load-free radius r: the inverse closing gradient."""
        f = self.k * np.asarray(r, float) / self.radius_sf(r)
        out = np.zeros(np.shape(f) + (3, 3))
        out[..., 0, 0] = self.c * f
        out[..., 1, 1] = 1.0 / f
        out[..., 2, 2] = 1.0 / self.c
        return out


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
        fmax = ()
        if k1v is not None:
            fmax = tuple(FibreMaxwellParams(k1v, k2v, eta_fibre, fp.a) for fp in eq.fibres)
        return cls(eq, iso, fmax, sector)


# ---------------------------------------------------------------------------
# wall segments and equilibrium integrals
# ---------------------------------------------------------------------------

_GAUSS_CACHE: dict = {}


def gauss_segment(a: float, b: float, n: int = N_QUAD):
    """Gauss-Legendre nodes/weights mapped to [a, b]."""
    if n not in _GAUSS_CACHE:
        _GAUSS_CACHE[n] = np.polynomial.legendre.leggauss(n)
    x, w = _GAUSS_CACHE[n]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


@dataclass(frozen=True)
class WallSegment:
    """One layer of the wall: its sector<->tube map and its span (R_inner,
    R_outer) in the stress-free radius."""
    layer: MaterialLayer
    map: OpeningMap
    R_span: tuple

    def nodes(self, n: int = N_QUAD):
        """(r, R, w): Gauss nodes in R, their current radii r, and the weights
        for integration in r."""
        m = self.map
        R, w = gauss_segment(*self.R_span, n)
        r = m.radius_current(R)
        return r, R, w * R / (m.k * m.c * r)   # dr/dR = R/(k c r)


def wall_sectors(layers: Sequence[MaterialLayer]):
    """The stress-free sectors of a glued wall of sectored layers, inner to outer."""
    if not layers or any(layer.sector is None for layer in layers):
        raise ValueError("the wall needs one or more layers, each with its sector geometry")
    return [layer.sector for layer in layers]


def sector_segments(layers: Sequence[MaterialLayer], alpha: float, rho: float, l: float):
    """Segments of the per-layer sectors glued into one sector of angle alpha.

    alpha = 0 closes the wall into a tube.  Layer j maps its sf sector (span
    2*pi - alpha_j) onto the common span 2*pi - alpha, so k_j = (2*pi - alpha)
    / (2*pi - alpha_j) and c_j = l / L_j.  The first layer is anchored at the
    current radius rho by its outer sf radius; each later layer is anchored by
    its inner sf radius at the outer current radius of the layer inside it.
    """
    secs = wall_sectors(layers)
    span = TWO_PI - alpha
    segs = []
    r = rho
    for layer, sec, R_anchor in zip(layers, secs, [secs[0].Ro] + [s.Ri for s in secs[1:]]):
        m = OpeningMap(span / (TWO_PI - sec.alpha), l / sec.L, r, R_anchor)
        segs.append(WallSegment(layer, m, (sec.Ri, sec.Ro)))
        r = float(m.radius_current(sec.Ro))
    return segs


def _stress_differences(seg: WallSegment, r, R):
    """(T_theta - T_rr, T_zz - T_rr) of the equilibrium extra Cauchy stress."""
    F = seg.map.deformation_gradient(r, R)
    t = extra_cauchy_equilibrium(F, seg.layer.equilibrium)
    return t[..., 1, 1] - t[..., 0, 0], t[..., 2, 2] - t[..., 0, 0]


def equilibrium_residuals(segments: Sequence[WallSegment], npts: int = N_QUAD):
    """(net pressure kPa, reduced axial force kPa mm^2) of a candidate wall state."""
    p = 0.0
    fz = 0.0
    for seg in segments:
        r, R, w = seg.nodes(npts)
        dth, dzz = _stress_differences(seg, r, R)
        p += float(np.sum(w * dth / r))
        fz += math.pi * float(np.sum(w * (2.0 * dzz - dth) * r))
    if not (math.isfinite(p) and math.isfinite(fz)):
        raise QuadratureFailure(f"non-finite wall integrals (p={p}, F={fz})")
    return p, fz


def wall_stress_profile(segments: Sequence[WallSegment], n_per_segment: int = 101):
    """Radial Cauchy stress profile (r, T_rr, T_theta, T_zz) across the wall.

    T_rr is integrated from the traction-free inner surface:
    T_rr(r) = int_{ri}^{r} (T_theta - T_rr)/rho d(rho).  Segments must be
    ordered inner to outer; each is sampled uniformly in r.
    """
    rows = []
    t_rr_carry = 0.0
    for seg in segments:
        r = np.linspace(*seg.map.radius_current(seg.R_span), n_per_segment)
        R = seg.map.radius_sf(r)
        dth, dzz = _stress_differences(seg, r, R)
        y = dth / r
        t_rr = t_rr_carry + np.concatenate(([0.0], np.cumsum(np.diff(r) * (y[1:] + y[:-1]) / 2.0)))
        rows.append(np.column_stack([r, t_rr, t_rr + dth, t_rr + dzz]))
        t_rr_carry = t_rr[-1]
    return np.vstack(rows)


# ---------------------------------------------------------------------------
# damped Newton on two unknowns
# ---------------------------------------------------------------------------

@dataclass
class SolverReport:
    converged: bool
    iterations: int
    residuals: dict
    quad_check: Optional[dict] = None


def _report(segments, residual, iterations: int, npts: int) -> SolverReport:
    """A converged solve's residual (kPa, kPa mm^2) and its change under 2*npts quadrature."""
    p, fz = float(residual[0]), float(residual[1])
    p2, fz2 = equilibrium_residuals(segments, 2 * npts)
    return SolverReport(True, iterations, {'p_net_kpa': p, 'F_red_kpa_mm2': fz},
                        {'p_refine_change': abs(p2 - p), 'F_refine_change': abs(fz2 - fz)})


def newton2(fun, x0, tol: float = NEWTON_TOL, max_iter: int = NEWTON_MAXIT):
    """Damped Newton for a 2-unknown nondimensional residual function.

    fun maps x (len-2 array) to a len-2 residual array; returns (x, residual,
    iterations).  A step is taken only once the residual at its end is checked
    to be smaller; raises NoConvergence carrying the last checked iterate and
    its residual norm.
    """
    x = np.asarray(x0, dtype=float).copy()
    f = np.asarray(fun(x), dtype=float)
    for it in range(max_iter):
        norm = np.max(np.abs(f))
        if norm < tol:
            return x, f, it
        jac = np.empty((2, 2))
        for j in range(2):
            h = FD_STEP * max(1.0, abs(x[j]))
            xp = x.copy()
            xp[j] += h
            jac[:, j] = (np.asarray(fun(xp)) - f) / h
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            raise NoConvergence("singular Jacobian in tube solve",
                                last_iterate=x, residuals={'norm': norm}, iterations=it)
        for _ in range(MAX_HALVINGS):
            fn = np.asarray(fun(x + step), dtype=float)
            if np.max(np.abs(fn)) < norm:
                break
            step *= 0.5
        else:
            raise NoConvergence(f"line search stalled at |res| = {norm:.3e}",
                                last_iterate=x, residuals={'norm': float(norm)}, iterations=it)
        x = x + step
        f = fn
    norm = float(np.max(np.abs(f)))
    if norm < tol:
        return x, f, max_iter
    raise NoConvergence(f"no convergence in {max_iter} Newton iterations (|res| = {norm:.3e})",
                        last_iterate=x, residuals={'norm': norm}, iterations=max_iter)


def _guarded(build_and_integrate):
    """Wrap a residual builder of two lengths so inadmissible candidates (a length
    <= 0, or a DomainError) return huge residuals (the damped line search then
    backs off instead of crashing)."""
    def fun(x):
        try:
            if x[0] > 0.0 and x[1] > 0.0:
                return build_and_integrate(x)
        except DomainError:
            pass
        return np.array([1e30, 1e30])
    return fun


# ---------------------------------------------------------------------------
# inverse problem: tube -> stress-free sector(s)
# ---------------------------------------------------------------------------

@dataclass
class InverseSolution:
    sectors: tuple
    tube: TubeGeometry
    alpha: float
    segments: list
    report: SolverReport


def solve_inverse_sf(tube: TubeGeometry, alpha: float, layers: Sequence[MaterialLayer],
                     npts: int = N_QUAD, tol: float = NEWTON_TOL,
                     max_iter: int = NEWTON_MAXIT) -> InverseSolution:
    """Find the stress-free sector geometry of a load-free tube.

    All layers share the opening angle alpha (rad) and the sector length L;
    tube.radii holds one boundary radius more than there are layers.  Unknowns
    are (Ri, L); one incompressible map of the whole wall carries the tube
    radii to the sectors' sf radii, which also enforces the per-layer volume
    identities exactly.  Residuals are the net pressure and the reduced axial
    force.
    """
    if len(tube.radii) != len(layers) + 1:
        raise ValueError(f"{len(layers)} layer(s) need {len(layers) + 1} tube radii "
                         f"(got {len(tube.radii)})")
    ri = tube.radii[0]
    k = TWO_PI / (TWO_PI - alpha)
    c1s = max(layer.equilibrium.matrix.c1 for layer in layers)
    scale = np.array([c1s, c1s * ri ** 2])

    def segments_at(Ri, L):
        m = OpeningMap(k, tube.l / L, ri, Ri)
        R = m.radius_sf(tube.radii).tolist()
        return [WallSegment(layer, m, span) for layer, span in zip(layers, zip(R, R[1:]))]

    def resid(x):
        return np.asarray(equilibrium_residuals(segments_at(*x), npts)) / scale

    x0 = np.array([k * ri, tube.l])
    x, fhat, iters = newton2(_guarded(resid), x0, tol=tol, max_iter=max_iter)
    L = float(x[1])
    segs = segments_at(float(x[0]), L)
    sectors = tuple(SectorGeometry(*seg.R_span, L, alpha) for seg in segs)
    return InverseSolution(sectors, tube, alpha, segs, _report(segs, fhat * scale, iters, npts))


# ---------------------------------------------------------------------------
# forward problem: sector(s) -> load-free tube
# ---------------------------------------------------------------------------

@dataclass
class LoadFreeSolution:
    tube: TubeGeometry
    segments: list
    report: SolverReport


def _solve_sector(layers: Sequence[MaterialLayer], alpha: float, npts: int = N_QUAD,
                  tol: float = NEWTON_TOL, max_iter: int = NEWTON_MAXIT, start=None):
    """Newton on (rho, l) of the glued sector of angle alpha (alpha = 0: the tube).

    Starts from `start`, else from the mean L and rho = Ro_1 / sqrt(k_1).
    Returns (x, residual in kPa and kPa mm^2, iterations).
    """
    sec = wall_sectors(layers)
    c1s = max(layer.equilibrium.matrix.c1 for layer in layers)
    k1 = (TWO_PI - alpha) / (TWO_PI - sec[0].alpha)
    rho0 = sec[0].Ro * math.sqrt(1.0 / k1)
    scale = np.array([c1s, c1s * rho0 ** 2])

    def resid(x):
        return np.asarray(equilibrium_residuals(sector_segments(layers, alpha, *x), npts)) / scale

    x0 = np.array([rho0, sum(s.L for s in sec) / len(sec)]) if start is None else start
    x, fhat, iters = newton2(_guarded(resid), x0, tol=tol, max_iter=max_iter)
    return x, fhat * scale, iters


def solve_load_free(layers: Sequence[MaterialLayer], npts: int = N_QUAD,
                    tol: float = NEWTON_TOL, max_iter: int = NEWTON_MAXIT) -> LoadFreeSolution:
    """Close the per-layer sectors into one equilibrated load-free tube.

    Unknowns are the current radius of the first layer's outer sf radius and
    the tube length l (see sector_segments); the tube radii follow in closed
    form from the maps.
    """
    x, f, iters = _solve_sector(layers, 0.0, npts, tol, max_iter)
    segs = sector_segments(layers, 0.0, float(x[0]), float(x[1]))
    radii = [segs[0].map.radius_current(segs[0].R_span[0])]
    radii += [seg.map.radius_current(seg.R_span[1]) for seg in segs]
    return LoadFreeSolution(TubeGeometry(radii, float(x[1])), segs,
                            _report(segs, f, iters, npts))
