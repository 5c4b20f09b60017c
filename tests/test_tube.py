"""Thick-walled tube kinematics, quadrature, and the two equilibrium solvers."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from prestress_tube import (
    MaterialLayer,
    OpeningMap,
    SectorGeometry,
    TubeGeometry,
    WallSegment,
    equilibrium_residuals,
    extra_cauchy_equilibrium,
    gauss_segment,
    newton2,
    solve_inverse_sf,
    solve_load_free,
    wall_stress_profile,
)
from prestress_tube import tensor as tn
from prestress_tube.errors import DomainError, NoConvergence

from conftest import (
    ADV_EQ,
    MEDIA_EQ,
    MEDIA_SECTOR,
    T1_ALPHA_DEG,
    T1_TUBE,
    equilibrium_layers,
    sectored_layers,
    split_sectored_layer,
)


# ---------------------------------------------------------------------------
# geometry dataclasses and opening maps
# ---------------------------------------------------------------------------

def test_sector_geometry_k():
    sec = SectorGeometry(1.0, 1.4, 1.0, math.radians(160.0))
    assert sec.k == pytest.approx(360.0 / 200.0)
    assert sec.alpha_deg == pytest.approx(160.0)
    with pytest.raises(ValueError):
        SectorGeometry(1.4, 1.0, 1.0, 0.5)  # Ro <= Ri
    with pytest.raises(ValueError):
        SectorGeometry(1.0, 1.4, 1.0, 7.0)  # alpha >= 2 pi


def test_tube_geometry_validation():
    assert TubeGeometry([0.71, 0.97, 1.1], 3.0).radii == (0.71, 0.97, 1.1)
    for radii, l in (((1.1, 0.71), 3.0), ((0.71, 1.2, 1.1), 3.0),  # not increasing
                     ((0.71,), 3.0), ((0.0, 1.1), 3.0), ((0.71, math.nan), 3.0),
                     ((0.71, 1.1), 0.0)):
        with pytest.raises(ValueError):
            TubeGeometry(radii, l)


def test_f_maps_are_mutual_inverses():
    m = OpeningMap(k=1.8, c=1.1, ri=0.71, Ri=1.39)
    r = np.linspace(0.71, 1.3, 17)
    R = np.sqrt((r ** 2 - m.ri ** 2) * m.k * m.c + m.Ri ** 2)
    # the closing gradient and F0 carry the same circumferential stretch k r / R
    assert_allclose(m.radius_sf(r), R, rtol=1e-14)
    assert_allclose(m.deformation_gradient(r, R)[:, 1, 1], m.k * r / R, rtol=1e-14)
    assert_allclose(1.0 / m.F0(r)[:, 1, 1], m.k * r / R, rtol=1e-13)
    # and the recovered current radius closes the loop
    assert_allclose(m.radius_current(R), r, rtol=1e-13)


def test_f_sf_domain_error():
    m = OpeningMap(k=1.8, c=1.1, ri=0.71, Ri=1.39)
    with pytest.raises(DomainError):
        m.radius_current(np.array([0.1]))  # radicand negative inside the hole


def test_F0_unimodular_and_trivial_limit():
    m = OpeningMap(k=1.8, c=1.1, ri=0.71, Ri=1.39)
    r = np.linspace(0.72, 1.2, 9)
    F0 = m.F0(r)
    assert_allclose(tn.det(F0), 1.0, rtol=1e-13)
    # closed tube, unit axial ratio, matching radii: no pre-stress
    m0 = OpeningMap(k=1.0, c=1.0, ri=0.71, Ri=0.71)
    assert_allclose(m0.F0(np.array([0.9]))[0], np.eye(3), atol=1e-14)


def test_F0_components_match_map_derivative():
    # F0 = diag(c f, 1/f, 1/c) and d(R)/d(r) = k c r / R must be consistent:
    # the sector->tube gradient diag(dr/dR, k r/R, c) is the inverse of
    # diag(c f / k, ... ) rescaled -- check via finite differences of r(R).
    m = OpeningMap(k=1.8, c=1.1, ri=0.71, Ri=1.39)
    r = 0.95
    R = math.sqrt((r ** 2 - m.ri ** 2) * m.k * m.c + m.Ri ** 2)
    h = 1e-7

    def r_of(Rv):
        return math.sqrt((Rv ** 2 - m.Ri ** 2) / (m.k * m.c) + m.ri ** 2)

    drdR = (r_of(R + h) - r_of(R - h)) / (2.0 * h)
    F = m.deformation_gradient(r, R)
    assert_allclose(F[0, 0], drdR, rtol=1e-8)
    assert_allclose(F[1, 1], m.k * r / R, rtol=1e-14)
    assert_allclose(F[2, 2], m.c, rtol=1e-15)
    assert_allclose(np.linalg.det(F), 1.0, rtol=1e-13)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(k=st.floats(0.3, 4.0), c=st.floats(0.5, 2.0), ri=st.floats(0.2, 2.0),
       Ri=st.floats(0.2, 3.0), t=st.floats(0.0, 1.0))
def test_opening_map_round_trip_and_inverse(k, c, ri, Ri, t):
    # k < 1 is the opened sector stretched past a layer's own angle
    m = OpeningMap(k=k, c=c, ri=ri, Ri=Ri)
    r = ri * (1.0 + t)  # every radius outside the anchor is admissible
    R = m.radius_sf(r)
    assert m.radius_current(R) == pytest.approx(r, rel=1e-12)
    F = m.deformation_gradient(r, R)
    assert np.linalg.det(F) == pytest.approx(1.0, rel=1e-12)
    assert_allclose(m.F0(r) @ F, np.eye(3), atol=1e-12)


def test_opening_map_validation():
    OpeningMap(k=0.5, c=1.0, ri=1.0, Ri=1.0)
    for k, c in ((0.0, 1.0), (-1.0, 1.0), (1.5, 0.0)):
        with pytest.raises(ValueError):
            OpeningMap(k=k, c=c, ri=1.0, Ri=1.0)


# ---------------------------------------------------------------------------
# quadrature and wall segments
# ---------------------------------------------------------------------------

def test_gauss_segment_exact_for_polynomials():
    x, w = gauss_segment(0.5, 1.5, 8)
    # degree-15 polynomial integrated exactly by 8 nodes
    assert np.sum(w * x ** 15) == pytest.approx((1.5 ** 16 - 0.5 ** 16) / 16.0, rel=1e-13)
    assert np.sum(w) == pytest.approx(1.0, rel=1e-14)


def test_wall_segment_radius_round_trip():
    layer = MaterialLayer.from_constants(**MEDIA_EQ)
    m = OpeningMap(k=1.8, c=1.05, ri=0.71, Ri=1.39)
    seg = WallSegment(layer, m, tuple(m.radius_sf([0.71, 0.97])))
    r = np.linspace(0.71, 0.97, 11)
    R = seg.map.radius_sf(r)
    assert_allclose(seg.map.radius_current(R), r, rtol=1e-13)
    rr, RR, w = seg.nodes(16)
    assert_allclose(seg.map.radius_sf(rr), RR, rtol=1e-13)
    F = seg.map.deformation_gradient(rr, RR)
    assert_allclose(tn.det(F), 1.0, rtol=1e-12)


def test_wall_segment_r_span_R_span_equivalence():
    # the sf-frame nodes with dr/dR weights integrate the same wall as a
    # Gauss rule over the current-frame span
    layer = MaterialLayer.from_constants(**MEDIA_EQ)
    m = OpeningMap(k=1.8, c=1.05, ri=0.71, Ri=1.39)
    seg_R = WallSegment(layer, m, tuple(m.radius_sf([0.71, 0.97])))
    r, w = gauss_segment(0.71, 0.97, 24)
    t = extra_cauchy_equilibrium(m.deformation_gradient(r, m.radius_sf(r)), layer.equilibrium)
    dth, dzz = t[:, 1, 1] - t[:, 0, 0], t[:, 2, 2] - t[:, 0, 0]
    p_r = np.sum(w * dth / r)
    f_r = math.pi * np.sum(w * (2.0 * dzz - dth) * r)
    p_R, f_R = equilibrium_residuals([seg_R], 24)
    assert p_r == pytest.approx(p_R, rel=1e-12, abs=1e-12)
    assert f_r == pytest.approx(f_R, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# 2x2 damped Newton
# ---------------------------------------------------------------------------

def test_newton2_solves_smooth_system():
    def fun(x):
        return np.array([x[0] ** 2 + x[1] ** 2 - 4.0, x[0] - x[1]])

    x, r, iters = newton2(fun, np.array([2.0, 0.5]))
    assert_allclose(x, [math.sqrt(2.0), math.sqrt(2.0)], rtol=1e-9)
    assert np.max(np.abs(r)) < 1e-10
    assert iters <= 10


def test_newton2_reports_nonconvergence():
    def fun(x):
        return np.array([x[0] ** 2 + 1.0, x[1]])  # no real root

    with pytest.raises(NoConvergence) as exc:
        newton2(fun, np.array([3.0, 3.0]), max_iter=5)
    e = exc.value
    assert e.last_iterate is not None and len(e.last_iterate) == 2
    # the line search stalls at iteration 4; the reported residual is that
    # of the reported iterate, not of an unchecked step past it
    assert e.iterations == 4
    assert e.residuals['norm'] == np.max(np.abs(fun(e.last_iterate)))


# ---------------------------------------------------------------------------
# inverse problem: load-free tube -> stress-free sectors
# ---------------------------------------------------------------------------

def test_inverse_two_layer_reference_fixture(two_layers):
    sol = solve_inverse_sf(T1_TUBE, math.radians(T1_ALPHA_DEG), two_layers)
    med, adv = sol.sectors
    # frozen regression values of this implementation (4 decimals)
    assert med.Ri == pytest.approx(1.3815, abs=2e-4)
    assert med.Ro == pytest.approx(1.6415, abs=2e-4)
    assert adv.Ri == pytest.approx(med.Ro, abs=1e-12)
    assert adv.Ro == pytest.approx(1.7829, abs=2e-4)
    assert med.L == pytest.approx(3.0009, abs=2e-4)
    assert adv.L == med.L
    assert sol.report.converged
    assert sol.report.iterations <= 10
    assert abs(sol.report.residuals['p_net_kpa']) < 1e-10
    assert abs(sol.report.residuals['F_red_kpa_mm2']) < 1e-10
    # doubling the quadrature order must not move the residuals
    assert sol.report.quad_check['p_refine_change'] < 1e-10
    assert sol.report.quad_check['F_refine_change'] < 1e-10


def test_inverse_volume_identity(two_layers):
    # per-layer incompressibility L (2pi - alpha)(Ro^2 - Ri^2) = 2 pi l (ro^2 - ri^2)
    alpha = math.radians(T1_ALPHA_DEG)
    sol = solve_inverse_sf(T1_TUBE, alpha, two_layers)
    breaks = T1_TUBE.radii
    for sec, (lo, hi) in zip(sol.sectors, zip(breaks, breaks[1:])):
        lhs = sec.L * (2.0 * math.pi - alpha) * (sec.Ro ** 2 - sec.Ri ** 2)
        rhs = 2.0 * math.pi * T1_TUBE.l * (hi ** 2 - lo ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_inverse_trivial_when_no_opening():
    # alpha = 0 and a single layer: the stress-free body is the tube itself
    layer = MaterialLayer.from_constants(**MEDIA_EQ)
    tube = TubeGeometry((0.8, 1.2), 2.0)
    sol = solve_inverse_sf(tube, 0.0, [layer])
    sec = sol.sectors[0]
    assert sec.Ri == pytest.approx(0.8, abs=1e-9)
    assert sec.Ro == pytest.approx(1.2, abs=1e-9)
    assert sec.L == pytest.approx(2.0, abs=1e-9)
    prof = wall_stress_profile(sol.segments)
    assert np.max(np.abs(prof[:, 1:])) < 1e-9  # stress-free everywhere


def test_inverse_max_iter_guard(two_layers):
    with pytest.raises(NoConvergence) as exc:
        solve_inverse_sf(T1_TUBE, math.radians(T1_ALPHA_DEG), two_layers, max_iter=1)
    assert exc.value.last_iterate is not None


# ---------------------------------------------------------------------------
# forward problem: sectors -> load-free tube
# ---------------------------------------------------------------------------

def test_load_free_two_layer_reference_fixture(t3_layers):
    sol = solve_load_free(t3_layers)
    # frozen regression values of this implementation (4 decimals)
    ri, r_interface, ro = sol.tube.radii
    assert ri == pytest.approx(0.4740, abs=2e-4)
    assert r_interface == pytest.approx(0.8687, abs=2e-4)
    assert ro == pytest.approx(1.1644, abs=2e-4)
    assert sol.tube.l == pytest.approx(1.0063, abs=2e-4)
    assert sol.report.converged
    assert abs(sol.report.residuals['p_net_kpa']) < 1e-10
    assert abs(sol.report.residuals['F_red_kpa_mm2']) < 1e-10
    assert sol.report.quad_check['p_refine_change'] < 1e-10


def test_load_free_requires_sectors(two_layers):
    with pytest.raises(ValueError):
        solve_load_free(two_layers)


def test_load_free_single_layer_trivial_when_closed():
    # a single closed sector (alpha = 0) is already load-free: tube == sector
    layer = MaterialLayer.from_constants(**MEDIA_EQ,
                                         sector=SectorGeometry(0.9, 1.3, 1.5, 0.0))
    sol = solve_load_free([layer])
    assert sol.tube.radii == pytest.approx((0.9, 1.3), abs=1e-9)
    assert sol.tube.l == pytest.approx(1.5, abs=1e-9)


def test_load_free_thin_outer_layer_limit(t3_layers):
    # an outer layer of vanishing thickness leaves the media solution intact
    media = t3_layers[0]
    thin = MaterialLayer.from_constants(**ADV_EQ,
                                        sector=SectorGeometry(1.5, 1.5001, 1.0,
                                                              math.radians(140.0)))
    sol_pair = solve_load_free([media, thin])
    sol_single = solve_load_free([media])
    assert sol_pair.tube.radii[0] == pytest.approx(sol_single.tube.radii[0], abs=5e-4)
    assert sol_pair.tube.l == pytest.approx(sol_single.tube.l, abs=5e-4)


# ---------------------------------------------------------------------------
# consistency between the two solvers
# ---------------------------------------------------------------------------

def test_round_trip_tube_to_sectors_to_tube(two_layers):
    alpha = math.radians(T1_ALPHA_DEG)
    inv = solve_inverse_sf(T1_TUBE, alpha, two_layers)
    layers = [replace(l, sector=s) for l, s in zip(two_layers, inv.sectors)]
    fwd = solve_load_free(layers)
    assert fwd.tube.radii == pytest.approx(T1_TUBE.radii, abs=1e-8)
    assert fwd.tube.l == pytest.approx(T1_TUBE.l, abs=1e-8)


def test_round_trip_sector_to_tube_to_sector():
    rng = np.random.default_rng(99)
    layer = MaterialLayer.from_constants(**MEDIA_EQ)
    for _ in range(3):
        sec = SectorGeometry(rng.uniform(0.8, 1.2), rng.uniform(1.3, 1.7),
                             rng.uniform(0.8, 2.0), math.radians(rng.uniform(40.0, 200.0)))
        fwd = solve_load_free([replace(layer, sector=sec)])
        inv = solve_inverse_sf(fwd.tube, sec.alpha, [layer])
        got = inv.sectors[0]
        assert got.Ri == pytest.approx(sec.Ri, abs=1e-7)
        assert got.Ro == pytest.approx(sec.Ro, abs=1e-7)
        assert got.L == pytest.approx(sec.L, abs=1e-7)


# ---------------------------------------------------------------------------
# layer-split oracle: one layer cut into two of the same material is the same wall
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None, derandomize=True)
@given(j=st.sampled_from([0, 1]), t=st.floats(0.05, 0.95))
def test_load_free_invariant_under_layer_split(j, t):
    base = solve_load_free(sectored_layers())
    layers, Rs = split_sectored_layer(sectored_layers(), j, t)
    split = solve_load_free(layers)
    assert len(split.segments) == 3
    radii = list(split.tube.radii)
    r_split = radii.pop(j + 1)
    assert radii == pytest.approx(base.tube.radii, abs=1e-9)
    assert split.tube.l == pytest.approx(base.tube.l, abs=1e-9)
    assert r_split == pytest.approx(float(base.segments[j].map.radius_current(Rs)), abs=1e-9)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(j=st.sampled_from([0, 1]), t=st.floats(0.05, 0.95))
def test_inverse_invariant_under_layer_split(j, t):
    alpha = math.radians(T1_ALPHA_DEG)
    base = solve_inverse_sf(T1_TUBE, alpha, equilibrium_layers())
    radii = list(T1_TUBE.radii)
    radii.insert(j + 1, radii[j] + t * (radii[j + 1] - radii[j]))
    layers = equilibrium_layers()
    layers.insert(j, layers[j])
    split = solve_inverse_sf(TubeGeometry(radii, T1_TUBE.l), alpha, layers)
    assert len(split.sectors) == 3
    bounds = [sec.Ri for sec in split.sectors] + [split.sectors[-1].Ro]
    del bounds[j + 1]
    assert bounds == pytest.approx([base.sectors[0].Ri] + [sec.Ro for sec in base.sectors],
                                   abs=1e-9)
    assert all(sec.L == pytest.approx(base.sectors[0].L, abs=1e-9) for sec in split.sectors)


def test_inverse_needs_one_radius_per_layer_boundary(two_layers):
    with pytest.raises(ValueError, match="tube radii"):
        solve_inverse_sf(TubeGeometry((0.71, 1.1), 3.0), 1.0, two_layers)


# ---------------------------------------------------------------------------
# wall stress profile
# ---------------------------------------------------------------------------

def test_wall_profile_boundary_conditions(two_layers):
    sol = solve_inverse_sf(T1_TUBE, math.radians(T1_ALPHA_DEG), two_layers)
    prof = wall_stress_profile(sol.segments, n_per_segment=2001)
    r, t_rr = prof[:, 0], prof[:, 1]
    assert r[0] == pytest.approx(T1_TUBE.radii[0])
    assert r[-1] == pytest.approx(T1_TUBE.radii[-1])
    # traction-free inner and outer surfaces (fine trapezoid residual only)
    assert abs(t_rr[0]) < 1e-12
    assert abs(t_rr[-1]) < 1e-6
    # hoop stress must change sign across the wall for a self-equilibrated state
    t_hoop = prof[:, 2]
    assert t_hoop.min() < 0.0 < t_hoop.max()


def test_wall_profile_monotone_radius(two_layers):
    sol = solve_inverse_sf(T1_TUBE, math.radians(T1_ALPHA_DEG), two_layers)
    prof = wall_stress_profile(sol.segments)
    assert np.all(np.diff(prof[:, 0]) >= 0.0)
