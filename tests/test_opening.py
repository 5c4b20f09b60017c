"""Opened-sector energy, inner equilibration, and the locking-angle scan."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from prestress_tube import (
    MaterialLayer,
    OpenedStateCandidate,
    SectorGeometry,
    cut_moment,
    equilibrate_opened,
    equilibrium_energy_sf,
    equilibrium_residuals,
    find_opening_angle,
    opened_energy,
    opened_segments,
    solve_load_free,
)
from prestress_tube import tensor as tn

from conftest import MEDIA_EQ, MEDIA_SECTOR, sectored_layers

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# energy evaluation
# ---------------------------------------------------------------------------

def test_opened_energy_matches_fine_trapezoid(t3_layers):
    cand = OpenedStateCandidate(math.radians(40.0), 1.05, 1.1)
    e_gauss = opened_energy(t3_layers, cand)
    e_trap = 0.0
    for seg in opened_segments(t3_layers, cand):
        sec = seg.layer.sector
        R = np.linspace(sec.Ri, sec.Ro, 20001)
        rho = seg.map.radius_current(R)
        F = seg.map.deformation_gradient(rho, R)
        w = equilibrium_energy_sf(tn.transpose(F) @ F, seg.layer.equilibrium)
        e_trap += (TWO_PI - sec.alpha) * sec.L * np.trapezoid(w * R, R)
    assert e_gauss == pytest.approx(e_trap, rel=1e-6)


def test_opened_energy_zero_at_own_sector():
    # a single layer opened to its own angle at its own geometry is unstrained
    layer = MaterialLayer.from_constants(**MEDIA_EQ, sector=MEDIA_SECTOR)
    cand = OpenedStateCandidate(MEDIA_SECTOR.alpha, MEDIA_SECTOR.Ro, MEDIA_SECTOR.L)
    assert opened_energy([layer], cand) == pytest.approx(0.0, abs=1e-14)
    segs = opened_segments([layer], cand)
    R = np.linspace(MEDIA_SECTOR.Ri, MEDIA_SECTOR.Ro, 5)
    F = segs[0].map.deformation_gradient(segs[0].map.radius_current(R), R)
    assert_allclose(F, np.broadcast_to(np.eye(3), (5, 3, 3)), atol=1e-12)


def test_opened_energy_positive_off_equilibrium(t3_layers):
    cand = OpenedStateCandidate(math.radians(40.0), 1.05, 1.1)
    assert opened_energy(t3_layers, cand) > 0.0


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
    assert cand.rho_interface == pytest.approx(sol.tube.r_interface, abs=1e-5)
    assert cand.l_open == pytest.approx(sol.tube.l, abs=1e-5)
    assert e > 0.0


def test_equilibrated_state_is_stationary_and_balanced(t3_layers):
    alpha = math.radians(124.0)
    cand, e, _ = equilibrate_opened(t3_layers, alpha)
    # energy stationarity in both inner unknowns
    for dx in ((1e-5, 0.0), (0.0, 1e-5)):
        up = OpenedStateCandidate(alpha, cand.rho_interface + dx[0], cand.l_open + dx[1])
        dn = OpenedStateCandidate(alpha, cand.rho_interface - dx[0], cand.l_open - dx[1])
        slope = (opened_energy(t3_layers, up) - opened_energy(t3_layers, dn)) / (2e-5)
        assert abs(slope) < 1e-6
    # stationarity coincides with sector equilibrium (net traction balance)
    segs = opened_segments(t3_layers, cand)
    p_net, f_red = equilibrium_residuals(segs)
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
        m = cut_moment(t3_layers, cand, npts)
        assert slope == pytest.approx(-cand.l_open * m, rel=1e-4)


def test_opened_wall_rejects_three_layers(t3_layers):
    # the glued-sector wall is written for one or two layers; a third layer
    # must not be silently laid over the second
    third = MaterialLayer.from_constants(
        **MEDIA_EQ, sector=SectorGeometry(1.6, 1.9, 1.0, math.radians(120.0)))
    layers = t3_layers + [third]
    with pytest.raises(ValueError, match="one or two layers"):
        equilibrate_opened(layers, math.radians(124.0))
    with pytest.raises(ValueError, match="one or two layers"):
        find_opening_angle(layers, 120.0, 130.0, 5.0)
    with pytest.raises(ValueError, match="one or two layers"):
        solve_load_free(layers)


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
    # refinement stops at 0.1 deg, so e_min carries a small quadratic remnant
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
    assert curve.iterations >= 1


def test_scan_minimum_on_grid_end_is_the_sample(t3_layers):
    # the energy still falls past the grid end: no moment root in the cell
    curve = find_opening_angle(t3_layers, 100.0, 120.0, 4.0)
    assert curve.argmin_deg == 120.0
    assert curve.iterations == 0
    assert curve.e_min_microj == dict(curve.samples)[120.0]
    assert curve.residuals["moment_kpa_mm2"] > 0.0


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
