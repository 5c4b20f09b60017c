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
    OpenedStateCandidate,
    SectorGeometry,
    find_opening_angle,
    opened_energy,
    solve_load_free,
    wall_stress_profile,
)
from prestress_tube import opening
from prestress_tube import tensor as tn
from prestress_tube.errors import NoConvergence
from prestress_tube.tube import sector_residuals

from conftest import (ADV_EQ, ADV_SECTOR, MEDIA_EQ, MEDIA_SECTOR, equilibrate_opened,
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
    cand = OpenedStateCandidate(math.radians(40.0), 1.05, 1.1)
    e_gauss = opened_energy(sector_residuals(t3_layers), cand)
    e_trap = 0.0
    secs = [layer.sector for layer in t3_layers]
    maps = glued_opening_maps(secs, cand.alpha_trial, cand.rho_interface, cand.l_open)
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
    cand = OpenedStateCandidate(MEDIA_SECTOR.alpha, MEDIA_SECTOR.Ro, MEDIA_SECTOR.L)
    assert opened_energy(sector_residuals([layer]), cand) == pytest.approx(0.0, abs=1e-14)
    m, = glued_opening_maps([MEDIA_SECTOR], cand.alpha_trial, cand.rho_interface, cand.l_open)
    R = np.linspace(MEDIA_SECTOR.Ri, MEDIA_SECTOR.Ro, 5)
    F = np.linalg.inv(m.F0(m.radius_current(R)))
    assert_allclose(F, np.broadcast_to(np.eye(3), (5, 3, 3)), atol=1e-12)


def test_opened_energy_positive_off_equilibrium(t3_layers):
    cand = OpenedStateCandidate(math.radians(40.0), 1.05, 1.1)
    assert opened_energy(sector_residuals(t3_layers), cand) > 0.0


# ---------------------------------------------------------------------------
# inner equilibration at fixed trial angle
# ---------------------------------------------------------------------------

def test_equilibrate_single_layer_recovers_sector():
    layer = MaterialLayer.from_constants(**MEDIA_EQ, sector=MEDIA_SECTOR)
    cand, e, _ = equilibrate_opened([layer], MEDIA_SECTOR.alpha)
    assert cand.rho_interface == pytest.approx(MEDIA_SECTOR.Ro, abs=1e-6)
    assert cand.l_open == pytest.approx(MEDIA_SECTOR.L, abs=1e-6)
    assert e == pytest.approx(0.0, abs=1e-12)


def test_equilibrate_closed_matches_load_free(t3_layers):
    # trial angle 0 closes the sector into a tube: must agree with the
    # load-free equilibrium solver (cross-module consistency)
    cand, e, _ = equilibrate_opened(t3_layers, 0.0)
    sol = solve_load_free(t3_layers)
    assert cand.rho_interface == pytest.approx(sol.tube.radii[1], abs=1e-5)
    assert cand.l_open == pytest.approx(sol.tube.l, abs=1e-5)
    assert e > 0.0


def test_equilibrated_state_is_stationary_and_balanced(t3_layers):
    alpha = math.radians(124.0)
    cand, e, _ = equilibrate_opened(t3_layers, alpha)
    # energy stationarity in both inner unknowns
    for dx in ((1e-5, 0.0), (0.0, 1e-5)):
        up = OpenedStateCandidate(alpha, cand.rho_interface + dx[0], cand.l_open + dx[1])
        dn = OpenedStateCandidate(alpha, cand.rho_interface - dx[0], cand.l_open - dx[1])
        wall = sector_residuals(t3_layers)
        slope = (opened_energy(wall, up) - opened_energy(wall, dn)) / (2e-5)
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
    # equilibrated candidate is returned for downstream stress evaluation
    assert curve.candidate.rho_interface > 0.0
    assert curve.candidate.l_open > 0.0


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


def test_scan_starts_every_angle_cold(t3_layers):
    # no angle depends on its neighbours: a grid up to 359 deg converges, and
    # its samples are the per-angle equilibria
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

    target = find_opening_angle(t3_layers).argmin_deg
    a0, a1 = 140.0, 141.0
    m0, m1 = (find_opening_angle(wall(a)).argmin_deg - target for a in (a0, a1))
    for _ in range(10):
        if abs(m1) < 1e-9:
            break
        a0, a1, m0 = a1, a1 - m1 * (a1 - a0) / (m1 - m0), m1
        m1 = find_opening_angle(wall(a1)).argmin_deg - target
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
