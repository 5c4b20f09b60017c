"""Opened-sector energy, inner equilibration, and the locking-angle scan."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from prestress_tube import (
    MaterialLayer,
    SectorGeometry,
    find_opening_angle,
    opened_energy,
    solve_load_free,
    wall_stress_profile,
)
from prestress_tube import opening, tube
from prestress_tube import tensor as tn
from prestress_tube.errors import NoConvergence
from prestress_tube.tube import sector_residuals

from conftest import (ADV_EQ, ADV_SECTOR, MEDIA_EQ, MEDIA_SECTOR, OpenedState, equilibrate_opened,
                      opened_residuals, sectored_layers, split_sectored_layer)
from reference import equilibrium_energy_sf, glued_opening_maps

TWO_PI = 2.0 * math.pi


def load_free_profile(layers):
    """The stress profile of the layers' load-free tube."""
    sol = solve_load_free(layers)
    return wall_stress_profile(layers, sol.sectors, sol.tube.radii, sol.tube.l)


# ---------------------------------------------------------------------------
# energy evaluation
# ---------------------------------------------------------------------------

def test_opened_energy_matches_fine_trapezoid(t3_layers):
    cand = OpenedState(0.75, 1.1, math.radians(40.0))
    e_gauss = opened_energy(sector_residuals(t3_layers)(tube.N_QUAD), *cand)
    e_trap = 0.0
    secs = [layer.sector for layer in t3_layers]
    maps = glued_opening_maps(secs, cand.alpha_trial, cand.r_inner, cand.l_open)
    for layer, sec, m in zip(t3_layers, secs, maps):
        R = np.linspace(sec.Ri, sec.Ro, 20001)
        rho = m.radius_current(R)
        F = np.linalg.inv(m.F0(rho))
        w = equilibrium_energy_sf(tn.transpose(F) @ F, layer.equilibrium)
        e_trap += (TWO_PI - sec.alpha) * sec.L * np.trapezoid(w * R, R)
    assert e_gauss == pytest.approx(e_trap, rel=1e-6)


def test_opened_energy_zero_at_own_sector():
    # a single layer opened to its own angle at its own geometry is unstrained
    layer = MaterialLayer.from_constants(**MEDIA_EQ, sector=MEDIA_SECTOR)
    cand = OpenedState(MEDIA_SECTOR.Ri, MEDIA_SECTOR.L, MEDIA_SECTOR.alpha)
    wall = sector_residuals([layer])(tube.N_QUAD)
    assert opened_energy(wall, *cand) == pytest.approx(0.0, abs=1e-14)
    m, = glued_opening_maps([MEDIA_SECTOR], cand.alpha_trial, cand.r_inner, cand.l_open)
    R = np.linspace(MEDIA_SECTOR.Ri, MEDIA_SECTOR.Ro, 5)
    F = np.linalg.inv(m.F0(m.radius_current(R)))
    assert_allclose(F, np.broadcast_to(np.eye(3), (5, 3, 3)), atol=1e-12)


def test_opened_energy_positive_off_equilibrium(t3_layers):
    cand = OpenedState(0.75, 1.1, math.radians(40.0))
    assert opened_energy(sector_residuals(t3_layers)(tube.N_QUAD), *cand) > 0.0


# ---------------------------------------------------------------------------
# inner equilibration at fixed trial angle
# ---------------------------------------------------------------------------

def test_equilibrate_single_layer_recovers_sector():
    layer = MaterialLayer.from_constants(**MEDIA_EQ, sector=MEDIA_SECTOR)
    cand, e, _ = equilibrate_opened([layer], MEDIA_SECTOR.alpha)
    assert cand.r_inner == pytest.approx(MEDIA_SECTOR.Ri, abs=1e-6)
    assert cand.l_open == pytest.approx(MEDIA_SECTOR.L, abs=1e-6)
    assert e == pytest.approx(0.0, abs=1e-12)


def test_equilibrate_closed_matches_load_free(t3_layers):
    # trial angle 0 closes the sector into a tube: must agree with the
    # load-free equilibrium solver (cross-module consistency)
    cand, e, _ = equilibrate_opened(t3_layers, 0.0)
    sol = solve_load_free(t3_layers)
    assert cand.r_inner == pytest.approx(sol.tube.radii[0], abs=1e-5)
    assert cand.l_open == pytest.approx(sol.tube.l, abs=1e-5)
    assert e > 0.0


def test_equilibrated_state_is_stationary_and_balanced(t3_layers):
    alpha = math.radians(124.0)
    cand, e, _ = equilibrate_opened(t3_layers, alpha)
    # energy stationarity in both inner unknowns
    for dx in ((1e-5, 0.0), (0.0, 1e-5)):
        up = (cand.r_inner + dx[0], cand.l_open + dx[1], alpha)
        dn = (cand.r_inner - dx[0], cand.l_open - dx[1], alpha)
        wall = sector_residuals(t3_layers)(tube.N_QUAD)
        slope = (opened_energy(wall, *up) - opened_energy(wall, *dn)) / (2e-5)
        assert abs(slope) < 1e-6
    # stationarity coincides with sector equilibrium (net traction balance)
    p_net, f_red, _ = opened_residuals(t3_layers, cand)
    assert abs(p_net) < 1e-7
    assert abs(f_red) < 1e-7


@pytest.mark.parametrize("npts", [32, 3])
def test_energy_slope_is_minus_length_times_cut_moment(t3_layers, npts):
    # dE/dalpha = -l_open * M at equilibrated states: the argmin is the moment root
    h = 1e-4
    for a_deg in (60.0, 100.0, 140.0):
        alpha = math.radians(a_deg)
        cand = equilibrate_opened(t3_layers, alpha, npts)[0]
        slope = (equilibrate_opened(t3_layers, alpha + h, npts)[1]
                 - equilibrate_opened(t3_layers, alpha - h, npts)[1]) / (2.0 * h)
        m = opened_residuals(t3_layers, cand, npts)[2]
        assert slope == pytest.approx(-cand.l_open * m, rel=1e-4)


# ---------------------------------------------------------------------------
# angle scan and locking
# ---------------------------------------------------------------------------

def test_scan_finds_common_angle_of_compatible_layers():
    # one body split into two stacked layers of the same material and angle:
    # the composite relaxes exactly at that angle with zero energy
    inner = MaterialLayer.from_constants(
        **MEDIA_EQ, sector=SectorGeometry(1.0, 1.2, 1.0, math.radians(160.0)))
    outer = MaterialLayer.from_constants(
        **MEDIA_EQ, sector=SectorGeometry(1.2, 1.4, 1.0, math.radians(160.0)))
    curve = find_opening_angle([inner, outer], 150.0, 170.0, 2.0)
    assert curve.argmin_deg == pytest.approx(160.0, abs=0.2)
    # the argmin is the cut-moment root, where the composite is strain-free
    assert curve.e_min_microj == pytest.approx(0.0, abs=1e-8)
    # at the exact common angle the composite is strain-free
    assert equilibrate_opened([inner, outer], math.radians(160.0))[1] == \
        pytest.approx(0.0, abs=1e-12)


def test_scan_locking_regression(t3_layers):
    # incompatible layers lock each other: argmin falls well below both
    # individual opening angles (140 and 160 degrees)
    curve = find_opening_angle(t3_layers, 100.0, 150.0, 2.0)
    assert curve.argmin_deg == pytest.approx(124.6, abs=0.2)
    assert curve.e_min_microj == pytest.approx(0.029851, rel=1e-3)
    assert curve.argmin_deg < 140.0
    samples = dict(curve.samples)
    assert min(samples) == 100.0 and max(samples) == 150.0
    assert curve.e_min_microj <= min(samples.values()) + 1e-12
    # the equilibrated state at the argmin is returned for downstream stress evaluation
    assert curve.rho_interface > 0.0
    assert curve.l_open > 0.0


def test_scan_argmin_is_dense_energy_argmin(t3_layers):
    curve = find_opening_angle(t3_layers, 100.0, 150.0, 2.0)
    dense = np.linspace(curve.argmin_deg - 0.4, curve.argmin_deg + 0.4, 41)
    energies = [equilibrate_opened(t3_layers, math.radians(a))[1] for a in dense]
    assert abs(dense[int(np.argmin(energies))] - curve.argmin_deg) <= 0.1
    assert curve.e_min_microj <= min(energies) + 1e-12
    assert curve.report.iterations >= 1


def test_scan_minimum_on_grid_end_is_the_sample(t3_layers):
    # the energy still falls past the grid end: no moment root in the cell
    curve = find_opening_angle(t3_layers, 100.0, 120.0, 4.0)
    assert curve.argmin_deg == 120.0
    assert curve.report.iterations == 0
    assert curve.e_min_microj == dict(curve.samples)[120.0]
    assert curve.report.residuals["moment_kpa_mm2"] > 0.0


def test_scan_raises_when_the_moment_root_leaves_its_cell(t3_layers, monkeypatch):
    solve_wall = opening._solve_wall

    def shifted(*args):
        y, res, iterations = solve_wall(*args)
        return y + [0.0, 0.0, math.radians(2.5)], res, iterations

    monkeypatch.setattr(opening, "_solve_wall", shifted)
    with pytest.raises(NoConvergence, match="left the grid cell 124..126 deg"):
        find_opening_angle(t3_layers, 100.0, 150.0, 2.0)


@pytest.mark.parametrize("grid", [(100.0, 150.0, 2.0), (0.0, 180.0, 4.0), (116.0, 132.0, 8.0)])
def test_scan_argmin_is_independent_of_its_start(t3_layers, monkeypatch, grid):
    # the argmin solve starts where the moments of its cell's samples interpolate
    # to zero; from the lowest grid sample instead, it reaches the same root
    calls, solve_wall = [], opening._solve_wall

    def recording(*args):
        calls.append(args)
        return solve_wall(*args)

    monkeypatch.setattr(opening, "_solve_wall", recording)
    curve = find_opening_angle(t3_layers, *grid)
    (layers, wall, y0, length), = calls
    a_deg = min(curve.samples, key=lambda s: s[1])[0]
    cand = equilibrate_opened(t3_layers, math.radians(a_deg))[0]
    y = np.array(cand)
    assert abs(math.degrees(y0[2]) - a_deg) > 0.05 * grid[2]
    x, _, _ = solve_wall(layers, wall, y, length)
    assert abs(math.degrees(x[2]) - curve.argmin_deg) < 1e-10


def test_scan_argmin_failure_reports_its_angle(t3_layers, monkeypatch):
    # the argmin solves for ln(2*pi - alpha), yet stopped by its iteration limit it
    # reports its last iterate as (ri, l, alpha) in mm and rad: one Newton step from
    # its start, next to the opened state at the argmin
    curve = find_opening_angle(t3_layers, 100.0, 150.0, 2.0)
    solve_wall = opening._solve_wall

    def stopped(*args):   # the argmin's Newton alone, at a limit of 1 iteration
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tube, "NEWTON_MAXIT", 1)
            return solve_wall(*args)

    monkeypatch.setattr(opening, "_solve_wall", stopped)
    with pytest.raises(NoConvergence, match="^no convergence in 1 Newton iterations") as info:
        find_opening_angle(t3_layers, 100.0, 150.0, 2.0)
    assert info.value.iterations == 1
    assert_allclose(info.value.last_iterate,
                    equilibrate_opened(t3_layers, math.radians(curve.argmin_deg))[0], rtol=1e-6)


def test_scan_starts_every_angle_cold(t3_layers):
    # every angle starts from its own closed form, not from its neighbours: a
    # grid up to 359 deg converges, and its samples are the per-angle equilibria
    curve = find_opening_angle(t3_layers, 0.0, 359.0, 1.0)
    ref = find_opening_angle(t3_layers, 100.0, 150.0, 2.0)
    assert curve.argmin_deg == pytest.approx(ref.argmin_deg, abs=1e-9)
    assert curve.e_min_microj == pytest.approx(ref.e_min_microj, rel=1e-12)
    assert curve.argmin_deg == pytest.approx(124.6, abs=0.2)
    samples = dict(curve.samples)
    for a_deg in (358.0, 359.0):
        e = equilibrate_opened(t3_layers, math.radians(a_deg))[1]
        assert samples[a_deg] == pytest.approx(e, rel=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(Ri=st.floats(0.9, 1.1), h_m=st.floats(0.35, 0.45), gap=st.floats(0.08, 0.15),
       h_a=st.floats(0.25, 0.35), L=st.floats(0.8, 1.2), L_ratio=st.floats(1.0, 1.1),
       alpha_a=st.floats(110.0, 150.0), wider=st.floats(5.0, 25.0))
def test_incompatible_layers_lock_below_both_angles(Ri, h_m, gap, h_a, L, L_ratio, alpha_a,
                                                     wider):
    # the paper's locking claim: a media sector opening wider than an
    # adventitia sector that lies outside it makes the cut composite open
    # less than either layer alone.  It is a regime, not a law: a thicker
    # media under a thinner adventitia (h_m = 0.5, h_a = 0.2, alpha_a = 100)
    # opens just past the adventitia's angle
    Ri_a = Ri + h_m + gap
    media = MaterialLayer.from_constants(
        **MEDIA_EQ, sector=SectorGeometry(Ri, Ri + h_m, L, math.radians(alpha_a + wider)))
    adventitia = MaterialLayer.from_constants(
        **ADV_EQ, sector=SectorGeometry(Ri_a, Ri_a + h_a, L * L_ratio, math.radians(alpha_a)))
    curve = find_opening_angle([media, adventitia], 0.0, 180.0, 4.0)
    assert curve.argmin_deg < alpha_a < alpha_a + wider
    assert curve.e_min_microj <= min(e for _, e in curve.samples) + 1e-12


def thin_adventitia_argmin(Ri, h_m, thin, L, alpha_a, wider, gap=0.0):
    """The composite angle (deg) of a media sector (Ri to Ri + h_m) opened wider
    than an adventitia of thickness thin * h_m whose inner sf radius lies a
    stress-free gap above the media's outer one, both of length L."""
    Ro_m = Ri + h_m
    media = MaterialLayer.from_constants(
        **MEDIA_EQ, sector=SectorGeometry(Ri, Ro_m, L, math.radians(alpha_a + wider)))
    adventitia = MaterialLayer.from_constants(
        **ADV_EQ, sector=SectorGeometry(Ro_m + gap, Ro_m + gap + thin * h_m, L,
                                        math.radians(alpha_a)))
    return find_opening_angle([media, adventitia], 0.0, 180.0, 4.0).argmin_deg


THIN_ADVENTITIA_WALLS = dict(Ri=st.floats(0.9, 1.1), h_m=st.floats(0.35, 0.5),
                             thin=st.floats(0.2, 0.45), L=st.floats(0.8, 1.2),
                             alpha_a=st.floats(90.0, 150.0))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(**THIN_ADVENTITIA_WALLS, wider=st.floats(1.0, 25.0))
def test_layers_without_a_radial_gap_open_between_their_angles(Ri, h_m, thin, L, alpha_a,
                                                               wider):
    # under a thin adventitia (h_a / h_m = thin) what locks the layers is the
    # radial misfit: with the media's outer sf radius at the adventitia's inner
    # one, a media opening wider makes the composite open between the two
    # angles (0.19 to 0.78 of the way up from alpha_a at the corners of these
    # ranges).  A thick adventitia locks without a gap: h_a = h_m = 0.3 mm on
    # Ri = 1 mm opens about 0.64 (alpha_m - alpha_a) below alpha_a
    assert alpha_a < thin_adventitia_argmin(Ri, h_m, thin, L, alpha_a, wider) < alpha_a + wider


def _ordered_pair(lo, hi, least):
    """Two draws in [lo, hi], ascending and at least least apart."""
    return (st.tuples(st.floats(lo, hi), st.floats(lo, hi)).map(sorted)
            .filter(lambda p: p[1] - p[0] >= least))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(**THIN_ADVENTITIA_WALLS, wider=_ordered_pair(1.0, 25.0, 0.1),
       gap=_ordered_pair(0.0, 0.1, 1e-3))
def test_composite_angle_rises_with_the_angle_difference_and_falls_with_the_gap(
        Ri, h_m, thin, L, alpha_a, wider, gap):
    # on the walls above with a stress-free gap of 0 to 0.1 mm between the
    # layers: a media opened wider pulls the composite open, a wider gap lets
    # the layers lock further (no draw of 300 rose by less than 0.25 deg per
    # deg of alpha_m - alpha_a or fell by less than 40 deg per mm of gap)
    wall = (Ri, h_m, thin, L, alpha_a)
    base = thin_adventitia_argmin(*wall, wider[0], gap[0])
    assert thin_adventitia_argmin(*wall, wider[1], gap[0]) > base
    assert thin_adventitia_argmin(*wall, wider[0], gap[1]) < base


def test_locking_boundary_rises_with_the_gap():
    # on a zero-gap wall of the test above (Ri 1 mm, media 0.5 mm, adventitia
    # 0.203 mm, L 1 mm, alpha_a 100 deg) a stress-free gap locks the composite
    # below alpha_a until the media opens wider by dalpha*(gap), the root of
    # composite - alpha_a found by a secant from 0 and 160 deg per mm of gap:
    # finite, and rising with the gap by about 160 deg per mm
    wall = (1.0, 0.5, 0.203 / 0.5, 1.0, 100.0)

    def boundary(gap):
        def f(wider):
            return thin_adventitia_argmin(*wall, wider, gap) - wall[4]
        x0, x1 = 0.0, 160.0 * gap
        f0, f1 = f(x0), f(x1)
        assert f0 < 0.0   # at equal angles the gap locks the composite below them
        for _ in range(10):
            x0, x1, f0 = x1, x1 - f1 * (x1 - x0) / (f1 - f0), f1
            f1 = f(x1)
            if abs(f1) < 1e-8:
                return x1
        raise AssertionError(f"no secant root at a gap of {gap} mm")

    dstar = [boundary(gap) for gap in (0.02, 0.04, 0.06, 0.08, 0.1)]
    assert np.all(np.isfinite(dstar)) and np.all(np.diff(dstar) > 0.0)
    assert_allclose(dstar, [3.152, 6.361, 9.639, 12.999, 16.455], rtol=1e-3)


@settings(max_examples=6, deadline=None, derandomize=True)
@given(j=st.sampled_from([0, 1]), t=st.floats(0.05, 0.95))
def test_scan_invariant_under_layer_split(j, t):
    # one layer cut into two of the same material: the three-layer wall locks
    # at the same angle with the same energy
    base = find_opening_angle(sectored_layers(), 116.0, 132.0, 4.0)
    split = find_opening_angle(split_sectored_layer(sectored_layers(), j, t)[0],
                               116.0, 132.0, 4.0)
    assert split.argmin_deg == pytest.approx(base.argmin_deg, abs=1e-6)
    assert split.e_min_microj == pytest.approx(base.e_min_microj, rel=1e-10)


def test_opening_angle_does_not_determine_the_residual_stress(t3_layers):
    # the paper's conclusion: the cutting test lacks information.  With the
    # media sector opened to 180 deg instead of 160, a secant on the adventitia
    # angle finds the wall that locks at the same composite angle (124.58 deg)
    media, adventitia = t3_layers

    def wall(alpha_a_deg):
        return [replace(media, sector=replace(MEDIA_SECTOR, alpha=math.radians(180.0))),
                replace(adventitia, sector=replace(ADV_SECTOR, alpha=math.radians(alpha_a_deg)))]

    target = find_opening_angle(t3_layers, 0.0, 180.0, 2.0).argmin_deg
    a0, a1 = 140.0, 141.0
    m0, m1 = (find_opening_angle(wall(a), 0.0, 180.0, 2.0).argmin_deg - target for a in (a0, a1))
    for _ in range(10):
        if abs(m1) < 1e-9:
            break
        a0, a1, m0 = a1, a1 - m1 * (a1 - a0) / (m1 - m0), m1
        m1 = find_opening_angle(wall(a1), 0.0, 180.0, 2.0).argmin_deg - target
    assert abs(m1) < 1e-6
    assert a1 == pytest.approx(140.782, abs=1e-3)
    # yet their load-free residual hoop stresses differ: -4.28 against -5.19 kPa
    # at the inner surface, where T_rr = 0 exactly, so the profile's integration
    # of T_rr does not enter.  A cutting test that also records the tube's radii
    # tells these two walls apart (r_i 0.474 against 0.410 mm)
    hoop = [load_free_profile(w)[0, 2] for w in (t3_layers, wall(a1))]
    assert hoop[0] - hoop[1] > 0.5


@settings(max_examples=15, deadline=None, derandomize=True)
@given(Ri=st.floats(0.9, 1.1), h_m=st.floats(0.35, 0.45), gap=st.floats(0.08, 0.15),
       h_a=st.floats(0.25, 0.35), L=st.floats(0.8, 1.2), L_ratio=st.floats(1.0, 1.1),
       alpha_a=st.floats(110.0, 150.0), wider=st.floats(5.0, 20.0))
def test_cutting_test_lacks_information(Ri, h_m, gap, h_a, L, L_ratio, alpha_a, wider):
    # T3-like walls from the bench opening-scan ranges: open the media 20 deg
    # wider, and a secant on the adventitia angle finds a second wall that
    # locks at the same composite angle
    Ri_a = Ri + h_m + gap

    def wall(alpha_m_deg, alpha_a_deg):
        return [MaterialLayer.from_constants(**MEDIA_EQ, sector=SectorGeometry(
                    Ri, Ri + h_m, L, math.radians(alpha_m_deg))),
                MaterialLayer.from_constants(**ADV_EQ, sector=SectorGeometry(
                    Ri_a, Ri_a + h_a, L * L_ratio, math.radians(alpha_a_deg)))]

    def locks_at(*angles):
        return find_opening_angle(wall(*angles), 0.0, 180.0, 4.0).argmin_deg

    target = locks_at(alpha_a + wider, alpha_a)
    a0, a1 = alpha_a, alpha_a + 1.0
    m0, m1 = (locks_at(alpha_a + wider + 20.0, a) - target for a in (a0, a1))
    for _ in range(10):
        if abs(m1) < 1e-9:
            break
        a0, a1, m0 = a1, a1 - m1 * (a1 - a0) / (m1 - m0), m1
        m1 = locks_at(alpha_a + wider + 20.0, a1) - target
    assert abs(m1) < 1e-6
    # the load-free hoop stress at the inner surface, where T_rr = 0 exactly,
    # differs by more than 0.5 kPa (0.56 to 0.97 kPa over these draws).  The
    # tube's inner radii differ too (about 0.06 mm), so a cutting test that
    # also records them tells the two walls apart
    hoop = [load_free_profile(wall(*angles))[0, 2]
            for angles in ((alpha_a + wider, alpha_a), (alpha_a + wider + 20.0, a1))]
    assert hoop[0] - hoop[1] > 0.5


@settings(max_examples=12, deadline=None, derandomize=True)
@given(Ri=st.floats(0.9, 1.1), h_m=st.floats(0.35, 0.45), gap=st.floats(0.08, 0.15),
       h_a=st.floats(0.25, 0.35), L=st.floats(0.8, 1.2), L_ratio=st.floats(1.0, 1.1),
       alpha_m=st.floats(130.0, 170.0), alpha_a=st.floats(110.0, 150.0))
def test_composite_angle_and_inner_radius_determine_the_layer_angles(Ri, h_m, gap, h_a, L,
                                                                     L_ratio, alpha_m, alpha_a):
    # the refined experiment: observe the composite opening angle (4 deg grid) and the
    # load-free tube's inner radius, and a 2x2 Newton with a forward-difference
    # Jacobian, started 8 and 6 deg off, recovers both layer angles
    Ri_a = Ri + h_m + gap

    def observe(angles):
        wall = [MaterialLayer.from_constants(**MEDIA_EQ, sector=SectorGeometry(
                    Ri, Ri + h_m, L, math.radians(angles[0]))),
                MaterialLayer.from_constants(**ADV_EQ, sector=SectorGeometry(
                    Ri_a, Ri_a + h_a, L * L_ratio, math.radians(angles[1])))]
        return np.array([find_opening_angle(wall, 0.0, 180.0, 4.0).argmin_deg,
                         solve_load_free(wall).tube.radii[0]])

    def jacobian(angles, at, h=1e-4):
        return np.column_stack([(observe(angles + h * e) - at) / h for e in np.eye(2)])

    truth = np.array([alpha_m, alpha_a])
    target = observe(truth)
    angles = truth + [8.0, 6.0]
    for _ in range(8):
        at = observe(angles)
        step = np.linalg.solve(jacobian(angles, at), target - at)
        angles = angles + step
        if np.max(np.abs(step)) < 1e-9:
            break
    assert np.max(np.abs(angles - truth)) <= 1e-6
    # how weak the cutting test is: the composite angle follows the adventitia
    # and barely the media, whose angle shows in r_i at about 3 um per degree
    (dc_dm, dc_da), (dr_dm, _) = jacobian(truth, target)
    assert 0.85 <= dc_da <= 1.6
    assert abs(dc_dm) <= 0.4
    assert -0.0036 <= dr_dm <= -0.0028


def test_scan_endpoint_energies(t3_layers):
    # frozen endpoints of the full curve (regression against convention drift)
    e0 = equilibrate_opened(t3_layers, 0.0)[1]
    e180 = equilibrate_opened(t3_layers, math.radians(180.0))[1]
    assert e0 == pytest.approx(0.155060, rel=1e-3)
    assert e180 == pytest.approx(0.056540, rel=1e-3)


def test_scan_rejects_bad_grid(t3_layers):
    with pytest.raises(ValueError):
        find_opening_angle(t3_layers, 10.0, 5.0, 2.0)
    with pytest.raises(ValueError):
        find_opening_angle(t3_layers, 0.0, 10.0, 0.0)
    with pytest.raises(ValueError):      # the last sample, 360, is the closed tube again
        find_opening_angle(t3_layers, 300.0, 359.6, 1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("arg", ["grid_start_deg", "grid_end_deg", "grid_step_deg"])
def test_scan_rejects_a_non_finite_grid(t3_layers, arg, value):
    # a NaN or infinite grid bound or step is a bad grid, not a numpy error
    grid = {"grid_start_deg": 100.0, "grid_end_deg": 150.0, "grid_step_deg": 2.0, arg: value}
    with pytest.raises(ValueError, match="^invalid angle grid$"):
        find_opening_angle(t3_layers, **grid)
