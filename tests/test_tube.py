"""Thick-walled tube kinematics, quadrature, and the two equilibrium solvers."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from prestress_tube import (
    EquilibriumMaterial,
    HolzapfelFibreParams,
    MaterialLayer,
    MooneyRivlinParams,
    SectorGeometry,
    TubeGeometry,
    diagonal_energy,
    diagonal_stress_differences,
    find_opening_angle,
    glued_radii,
    newton2,
    solve_inverse_sf,
    solve_load_free,
    wall_stress_profile,
)
from prestress_tube import opening, tube
from prestress_tube import tensor as tn
from prestress_tube.materials import expand_columns, material_columns
from prestress_tube.errors import DomainError, NoConvergence

from conftest import (
    ADV_EQ,
    MEDIA_EQ,
    MEDIA_SECTOR,
    T1_ALPHA_DEG,
    T1_TUBE,
    equilibrate_opened,
    equilibrium_layers,
    sectored_layers,
    split_sectored_layer,
)
# one layer's sector<->tube map and the segment route
from reference import (OpeningMap, closing_maps, diagonal_stress_and_energy,
                       equilibrium_energy_sf, extra_cauchy_equilibrium, gauss_segment,
                       glued_opening_maps, linspace_wall_stress_profile, segment_sector_residuals,
                       segment_wall_integrals)


# ---------------------------------------------------------------------------
# geometry dataclasses and opening maps
# ---------------------------------------------------------------------------

def test_sector_geometry_k():
    SectorGeometry(1.0, 1.4, 1.0, math.radians(160.0))
    with pytest.raises(ValueError):
        SectorGeometry(1.4, 1.0, 1.0, 0.5)  # Ro <= Ri
    with pytest.raises(ValueError):
        SectorGeometry(1.0, 1.4, 1.0, 7.0)  # alpha >= 2 pi
    for Ri, Ro, L in ((1.0, 1.4, math.nan), (1.0, math.inf, 1.0), (1.0, 1.4, math.inf)):
        with pytest.raises(ValueError):
            SectorGeometry(Ri, Ro, L, 0.5)


def test_tube_geometry_validation():
    assert TubeGeometry([0.71, 0.97, 1.1], 3.0).radii == (0.71, 0.97, 1.1)
    for radii, l in (((1.1, 0.71), 3.0), ((0.71, 1.2, 1.1), 3.0),  # not increasing
                     ((0.71,), 3.0), ((0.0, 1.1), 3.0), ((0.71, math.nan), 3.0),
                     ((0.71, 1.1), 0.0), ((1.0, math.inf), 1.0), ((0.71, 1.1), math.inf),
                     ((0.71, 1.1), math.nan)):
        with pytest.raises(ValueError):
            TubeGeometry(radii, l)


def test_f_maps_are_mutual_inverses():
    m = OpeningMap(k=1.8, c=1.1, ri=0.71, Ri=1.39)
    r = np.linspace(0.71, 1.3, 17)
    R = np.sqrt((r ** 2 - m.ri ** 2) * m.k * m.c + m.Ri ** 2)
    # the closing gradient and F0 carry the same circumferential stretch k r / R
    assert_allclose(m.radius_sf(r), R, rtol=1e-14)
    assert_allclose(np.linalg.inv(m.F0(r))[:, 1, 1], m.k * r / R, rtol=1e-14)
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
    F = np.linalg.inv(m.F0(r))
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
    F = np.diag([R / (k * c * r), k * r / R, c])   # the closing gradient sf -> lf
    assert np.linalg.det(F) == pytest.approx(1.0, rel=1e-12)
    assert_allclose(m.F0(r) @ F, np.eye(3), atol=1e-12)


def test_opening_map_validation():
    OpeningMap(k=0.5, c=1.0, ri=1.0, Ri=1.0)
    for k, c in ((0.0, 1.0), (-1.0, 1.0), (1.5, 0.0)):
        with pytest.raises(ValueError):
            OpeningMap(k=k, c=c, ri=1.0, Ri=1.0)


def test_sector_at_a_full_turn_is_a_domain_error():
    # alpha >= 2 pi leaves no sector: the energy of an opened wall there is a
    # DomainError, and a scan grid that reaches 360 deg is rejected before it solves;
    # the kernel itself takes no check: at a full turn a Newton's trial arrays give
    # residuals that are not finite, which it reads as inadmissible
    wall = tube.sector_residuals(sectored_layers())(tube.N_QUAD)
    for alpha in (2.0 * math.pi, 7.0, math.nan):
        with pytest.raises(DomainError):
            opening.opened_energy(wall, 1.0, 1.0, alpha)
    with pytest.raises(ValueError, match="leaves"):
        find_opening_angle(sectored_layers(), 300.0, 360.0, 2.0)
    with np.errstate(all="ignore"):
        assert not np.isfinite(wall(*np.array([[1.0], [1.0], [2.0 * math.pi]]))).any()


# ---------------------------------------------------------------------------
# quadrature and the layers' maps
# ---------------------------------------------------------------------------

def test_gauss_segment_exact_for_polynomials():
    x, w = gauss_segment(0.5, 1.5, 8)
    # degree-15 polynomial integrated exactly by 8 nodes
    assert np.sum(w * x ** 15) == pytest.approx((1.5 ** 16 - 0.5 ** 16) / 16.0, rel=1e-13)
    assert np.sum(w) == pytest.approx(1.0, rel=1e-14)


def test_opening_map_radius_round_trip_on_gauss_nodes():
    m = OpeningMap(k=1.8, c=1.05, ri=0.71, Ri=1.39)
    r = np.linspace(0.71, 0.97, 11)
    R = m.radius_sf(r)
    assert_allclose(m.radius_current(R), r, rtol=1e-13)
    RR, _ = gauss_segment(*m.radius_sf([0.71, 0.97]), 16)
    rr = m.radius_current(RR)
    assert_allclose(m.radius_sf(rr), RR, rtol=1e-13)
    F = np.linalg.inv(m.F0(rr))
    assert_allclose(tn.det(F), 1.0, rtol=1e-12)


def test_wall_r_span_R_span_equivalence():
    # the inverse solve's table, Gauss nodes fixed in the load-free r and uniform in
    # ln r, integrates the wall as the tensor route's extra stress does at the same nodes
    layer = MaterialLayer.from_constants(**MEDIA_EQ)
    m = OpeningMap(k=1.8, c=1.05, ri=0.71, Ri=1.39)
    t, w = gauss_segment(math.log(0.71), math.log(0.97), 24)
    r = np.exp(t)
    w = w * r
    t = extra_cauchy_equilibrium(np.linalg.inv(m.F0(r)), layer.equilibrium)
    dth, dzz = t[:, 1, 1] - t[:, 0, 0], t[:, 2, 2] - t[:, 0, 0]
    p_r = np.sum(w * dth / r)
    f_r = math.pi * np.sum(w * (2.0 * dzz - dth) * r)
    # the inverse solve's wall of the tube (0.71, 0.97) at Ri = 1.39 and c = 1.05 / 1.0 = m.c
    wall = tube.tube_residuals(TubeGeometry((0.71, 0.97), 1.05), 2.0 * math.pi * (1.0 - 1.0 / m.k),
                               [layer])(24)
    p_R, f_R, _ = wall(m.Ri, 1.0)
    assert p_r == pytest.approx(p_R, rel=1e-12, abs=1e-12)
    assert f_r == pytest.approx(f_R, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("wall", ["t3", "media-200", "adventitia-280", "media-240", "mixed"])
def test_neo_hookean_closing_zeroes_its_net_pressure(wall):
    # the sector nodes' grading point: the glued wall closed at alpha = 0 and l = L_1,
    # each layer neo-Hookean of modulus c1 + c2, whose net pressure vanishes there on
    # the segment route's 64 nodes (to 1e-6 of its terms' magnitudes; observed at
    # most 2.4e-8), with its boundary radii those of glued_radii
    walls = {"t3": sectored_layers(),
             "media-200": [MaterialLayer.from_constants(**MEDIA_EQ, sector=SectorGeometry(
                 0.8, 1.6, 1.0, math.radians(200.0)))],
             "adventitia-280": [MaterialLayer.from_constants(**ADV_EQ, sector=SectorGeometry(
                 1.0, 1.375, 1.0, math.radians(280.0)))],
             "media-240": [MaterialLayer.from_constants(**MEDIA_EQ, sector=SectorGeometry(
                 0.8, 2.0, 1.0, math.radians(240.0)))],
             "mixed": [MaterialLayer.from_constants(**ADV_EQ, sector=SectorGeometry(
                           0.86, 1.24, 1.04, math.radians(103.0))),
                       MaterialLayer.from_constants(**MEDIA_EQ, sector=SectorGeometry(
                           1.24, 1.52, 1.05, math.radians(170.0)))]}
    layers = walls[wall]
    secs = [layer.sector for layer in layers]
    r = np.sqrt(tube.neo_hookean_closing(layers))
    assert_allclose(r, glued_radii(secs, r[0], secs[0].L), rtol=1e-15, atol=0.0)
    neo_hookean = [EquilibriumMaterial(MooneyRivlinParams(
        layer.equilibrium.matrix.c1 + layer.equilibrium.matrix.c2, 0.0)) for layer in layers]
    closing, spans = closing_maps(layers)
    args = (neo_hookean, glued_opening_maps(secs, 0.0, r[0], secs[0].L), spans, 64)
    p_net = segment_wall_integrals(*args, closing=closing)[0]
    assert abs(p_net) <= 1e-6 * segment_wall_integrals(*args, magnitudes=True, closing=closing)[0]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(c1=st.floats(0.0, 20.0), c2=st.floats(0.0, 20.0), k1=st.floats(0.01, 10.0),
       k2=st.floats(0.01, 2.0), beta_deg=st.floats(0.0, 90.0), k=st.floats(0.3, 4.0),
       c=st.floats(0.5, 2.0), ri=st.floats(0.2, 2.0), lam=st.floats(0.6, 1.6),
       t=st.floats(0.05, 1.0))
# at small strains W and the stress differences are differences of O(c1) terms:
# W here 2.3e-13 of max |W| apart, and T_tt - T_rr 3.76e-15 apart, 1.2e-13 of max |T|
@example(c1=0.0, c2=0.0, k1=1.0, k2=1.0, beta_deg=0.0, k=1.0, c=1.03125, ri=1.1, lam=1.0, t=0.7)
@example(c1=0.0, c2=0.0, k1=1.0, k2=1.0, beta_deg=0.0, k=1.015625, c=1.0, ri=1.0, lam=1.0, t=0.5)
def test_closed_form_kernel_matches_tensor_route(c1, c2, k1, k2, beta_deg, k, c, ri, lam, t):
    # the wall kernel's scalar closed forms against the 3x3 tensor route, per
    # Gauss point, relative to the sum of their terms' magnitudes (the scale of
    # their roundoff): for the stresses c1 l2_i and c2 / l2_i, and per fibre
    # 2 f a_i^2 l2_i, f = k1 u e^(k2 u^2), summed over i (sum a_i^2 l2_i = u + 1);
    # u = sum a_i^2 l2_i - 1 is itself a difference of terms of magnitude u + 2,
    # so f counts as df/du (u + 2).  For W, the magnitudes of its own terms
    mat = EquilibriumMaterial.from_constants(c1 if c1 + c2 > 0.0 else 1.0, c2, k1, k2, beta_deg)
    m = OpeningMap(k=k, c=c, ri=ri, Ri=k * ri / lam)   # hoop stretch lam at ri
    R, _ = gauss_segment(*m.radius_sf([ri, ri * (1.0 + t)]), tube.N_QUAD)
    r = m.radius_current(R)
    F = np.linalg.inv(m.F0(r))
    T = extra_cauchy_equilibrium(F, mat)
    l2 = m.sq_stretches(r, R)
    w = equilibrium_energy_sf(tn.transpose(F) @ F, mat)
    mr = mat.matrix
    t_terms = sum(mr.c1 * li + mr.c2 / li for li in l2)
    w_terms = 0.5 * mr.c1 * (sum(l2) + 3.0) + 0.5 * mr.c2 * (sum(1.0 / li for li in l2) + 3.0)
    for fp in mat.fibres:
        u = sum(ai * ai * li for ai, li in zip(fp.a, l2)) - 1.0
        t_terms = t_terms + (2.0 * fp.k1 * np.exp(fp.k2 * u * u) * (1.0 + 2.0 * fp.k2 * u * u)
                             * (u + 2.0) * (u + 1.0))
        w_terms = w_terms + fp.k1 / (2.0 * fp.k2) * (np.exp(fp.k2 * u * u) + 1.0)
    cols = material_columns([mat])
    _assert_roundoff_close([*diagonal_stress_differences(l2, cols), diagonal_energy(l2, cols)],
                           [T[:, 1, 1] - T[:, 0, 0], T[:, 2, 2] - T[:, 0, 0], w],
                           [t_terms, t_terms, w_terms])


def test_closed_form_kernel_takes_any_fibre_direction():
    # a fibre family with a radial component, outside the theta-z plane
    a = np.array([0.6, 0.0, 0.8])
    mat = EquilibriumMaterial(MooneyRivlinParams(2.0, 1.0), (HolzapfelFibreParams(3.0, 0.7, a),))
    l2 = (np.array([0.6, 1.3]), np.array([1.4, 0.9]))
    l2 = (1.0 / (l2[0] * l2[1]), *l2)
    F = np.zeros((2, 3, 3))
    for i in range(3):
        F[:, i, i] = np.sqrt(l2[i])
    T = extra_cauchy_equilibrium(F, mat)
    cols = material_columns([mat])
    dth, dzz = diagonal_stress_differences(l2, cols)
    assert_allclose(dth, T[:, 1, 1] - T[:, 0, 0], rtol=1e-13)
    assert_allclose(dzz, T[:, 2, 2] - T[:, 0, 0], rtol=1e-13)
    assert_allclose(diagonal_energy(l2, cols), equilibrium_energy_sf(tn.transpose(F) @ F, mat),
                    rtol=1e-13)


# the +/- beta pairs share their fibre term; the radial pair shares nothing
KERNEL_MATERIALS = [
    EquilibriumMaterial.from_constants(**MEDIA_EQ),
    EquilibriumMaterial.from_constants(**ADV_EQ),
    EquilibriumMaterial(MooneyRivlinParams(2.0, 1.0), (
        HolzapfelFibreParams(3.0, 0.7, np.array([0.6, 0.0, 0.8])),
        HolzapfelFibreParams(3.0, 0.7, np.array([0.0, 0.8, -0.6])))),
]


def test_reference_wall_forms_match_tensor_route():
    # the segment route's own closed forms, written family by family, against the
    # 3x3 tensor route on real stretches, for every kernel material
    lt, lz = np.linspace(0.8, 1.3, 15), np.linspace(1.2, 0.9, 15)
    l2 = (1.0 / (lt * lz), lt, lz)
    F = np.zeros((15, 3, 3))
    for i in range(3):
        F[:, i, i] = np.sqrt(l2[i])
    for mat in KERNEL_MATERIALS:
        T = extra_cauchy_equilibrium(F, mat)
        dth, dzz, w = diagonal_stress_and_energy(l2, mat)
        assert_allclose(dth, T[:, 1, 1] - T[:, 0, 0], rtol=0.0, atol=1e-13 * np.max(np.abs(T)))
        assert_allclose(dzz, T[:, 2, 2] - T[:, 0, 0], rtol=0.0, atol=1e-13 * np.max(np.abs(T)))
        w_ref = equilibrium_energy_sf(tn.transpose(F) @ F, mat)
        assert_allclose(w, w_ref, rtol=0.0, atol=1e-13 * np.max(np.abs(w_ref)))


def _complex_columns(x, form, rng):
    """x as given ("real"), or as the complex-step columns of m = 2 states, shape
    (2, m, 1), or (2, B, m, 1) for B = 3 systems ("batched")."""
    if form == "real":
        return x
    B = 3 if form == "batched" else 1
    xs = x[:, None, None] * rng.uniform(0.95, 1.05, (2, B, 1)) + 1e-20j * np.eye(2)[:, None]
    return (xs if form == "batched" else xs[:, 0])[..., None]


def _assert_roundoff_close(got, ref, terms):
    # real parts to 1e-13 of the sum of their terms' magnitudes, imaginary parts
    # (the complex-step Jacobian) to 1e-13 of their largest magnitude
    for a, b, scale in zip(got, ref, terms):
        assert np.all(np.abs(np.real(a) - np.real(b)) <= 1e-13 * scale)
        assert np.all(np.abs(np.imag(a) - np.imag(b)) <= 1e-13 * np.max(np.abs(np.imag(b))))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 3), npts=st.sampled_from([2, 5, 16, 32]),
       form=st.sampled_from(["real", "complex", "batched"]), seed=st.integers(0, 2 ** 32 - 1),
       mats=st.lists(st.sampled_from(range(len(KERNEL_MATERIALS))), min_size=3, max_size=3))
def test_wall_kernel_matches_segment_route(n, npts, form, seed, mats):
    # the per-node table kernels against the wall built layer by layer from
    # OpeningMaps (tests/reference.py): r^2 = ri^2 + Q/(s l), R^2 = Ri^2 + k c (r^2 -
    # ri^2) and the fused sums round differently from the segment route's square
    # roots and per-layer sums
    rng = np.random.default_rng(seed)
    layers, Ri = [], rng.uniform(0.5, 1.2)
    for j in range(n):
        Ro = Ri + rng.uniform(0.1, 0.5)
        sec = SectorGeometry(Ri, Ro, rng.uniform(0.8, 1.2), math.radians(rng.uniform(0.0, 200.0)))
        layers.append(MaterialLayer(KERNEL_MATERIALS[mats[j]], sector=sec))
        Ri = Ro + rng.uniform(0.0, 0.2)
    secs = [layer.sector for layer in layers]
    alpha = math.radians(rng.uniform(0.0, 200.0))
    # every ri > 0 is admissible: from walls closed toward the axis to walls opened wide
    ri, l = _complex_columns(np.array([secs[0].Ri * rng.uniform(0.2, 1.5),
                                       np.mean([s.L for s in secs]) * rng.uniform(0.9, 1.1)]),
                             form, rng)
    if form == "batched":
        alpha = alpha + np.radians(rng.uniform(-5.0, 5.0, (3, 1, 1)))
    mat_list, (closing, spans) = [layer.equilibrium for layer in layers], closing_maps(layers)
    # both place the nodes uniform in ln r over the wall's neo-Hookean closing
    args = (mat_list, glued_opening_maps(secs, alpha, ri, l), spans, npts)
    ref = segment_wall_integrals(*args, closing=closing)
    terms = segment_wall_integrals(*args, magnitudes=True, closing=closing)
    _assert_roundoff_close(tube.sector_residuals(layers)(npts)(ri, l, alpha, energy=True),
                           ref, terms)
    _assert_roundoff_close(tube.sector_residuals(layers)(npts)(ri, l, alpha), ref[:3], terms)
    # one map for the whole wall, Gauss nodes uniform in ln r over each layer's tube span
    # (the inverse solve)
    tube_geom = TubeGeometry(rng.uniform(0.4, 1.0) * np.cumprod([1.0] + [1.2] * n),
                             rng.uniform(0.8, 1.2))
    alpha = math.radians(rng.uniform(0.0, 200.0))
    k, ri = 2.0 * math.pi / (2.0 * math.pi - alpha), tube_geom.radii[0]
    Ri, L = _complex_columns(np.array([k * ri * rng.uniform(0.8, 1.2),
                                       tube_geom.l * rng.uniform(0.8, 1.2)]), form, rng)
    m = OpeningMap(k, tube_geom.l / L, ri, Ri)
    args = (mat_list, [m] * n, list(zip(tube_geom.radii, tube_geom.radii[1:])), npts)
    _assert_roundoff_close(tube.tube_residuals(tube_geom, alpha, layers)(npts)(Ri, L),
                           segment_wall_integrals(*args)[:3],
                           segment_wall_integrals(*args, magnitudes=True))


@settings(max_examples=8, deadline=None, derandomize=True)
@given(mats=st.permutations(range(len(KERNEL_MATERIALS))), Ri=st.floats(0.9, 1.1),
       h=st.lists(st.floats(0.2, 0.4), min_size=3, max_size=3),
       gap=st.lists(st.floats(0.0, 0.15), min_size=2, max_size=2),
       alpha_deg=st.lists(st.floats(100.0, 170.0), min_size=3, max_size=3),
       L=st.lists(st.floats(0.9, 1.1), min_size=3, max_size=3))
def test_three_layer_mixed_material_wall_matches_segment_route(mats, Ri, h, gap, alpha_deg, L):
    # three glued sectors, +/- beta pairs beside a material whose two families
    # differ: the load-free solve and the scan on the fused node table agree
    # with the same solves on the segment route (tests/reference.py)
    layers = []
    for j in range(3):
        sec = SectorGeometry(Ri, Ri + h[j], L[j], math.radians(alpha_deg[j]))
        layers.append(MaterialLayer(KERNEL_MATERIALS[mats[j]], sector=sec))
        Ri = sec.Ro + (gap[j] if j < 2 else 0.0)
    # fibre families share a group, one exp, only where every node's columns agree
    eqs = [layer.equilibrium for layer in layers]
    fams = [np.repeat([(m.fibres[i].k1, m.fibres[i].k2, *m.fibres[i].a ** 2) for m in eqs], 5,
                      axis=0).T for i in range(2)]
    cols = expand_columns(material_columns(eqs), np.repeat(np.arange(3), 5))
    assert len(cols[2]) == 2   # the material whose families differ splits every pair
    for count, k1, k2, ar, *f in cols[2]:   # a_r^2 is None where it is 0 on every node
        ar = np.zeros_like(k1) if ar is None else ar
        assert count == sum(np.array_equal([k1, k2, ar, *f], fam) for fam in fams)
    # and the grouped columns give the tensor route's stresses on every node
    lt, lz = np.linspace(0.8, 1.3, 15), np.linspace(1.2, 0.9, 15)
    l2 = (1.0 / (lt * lz), lt, lz)
    F = np.zeros((15, 3, 3))
    for i in range(3):
        F[:, i, i] = np.sqrt(l2[i])
    T = np.concatenate([extra_cauchy_equilibrium(F[5 * j:5 * j + 5], m) for j, m in enumerate(eqs)])
    dth, dzz = diagonal_stress_differences(l2, cols)
    assert_allclose(dth, T[:, 1, 1] - T[:, 0, 0], rtol=0.0, atol=1e-13 * np.max(np.abs(T)))
    assert_allclose(dzz, T[:, 2, 2] - T[:, 0, 0], rtol=0.0, atol=1e-13 * np.max(np.abs(T)))
    got = solve_load_free(layers)
    curve = find_opening_angle(layers, 0.0, 180.0, 6.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tube, "sector_residuals", segment_sector_residuals)
        mp.setattr(opening, "sector_residuals", segment_sector_residuals)
        ref = solve_load_free(layers)
        ref_curve = find_opening_angle(layers, 0.0, 180.0, 6.0)
    assert_allclose(got.tube.radii + (got.tube.l,), ref.tube.radii + (ref.tube.l,), rtol=1e-12)
    assert curve.report.iterations == ref_curve.report.iterations
    # energies near zero to 1e-12 of the largest sample
    e_max = max(e for _, e in ref_curve.samples)
    assert_allclose(np.array(curve.samples), np.array(ref_curve.samples), rtol=1e-12,
                    atol=1e-12 * e_max)
    assert curve.e_min_microj == pytest.approx(ref_curve.e_min_microj, rel=1e-12,
                                               abs=1e-12 * e_max)
    assert_allclose([curve.argmin_deg, curve.rho_interface, curve.l_open],
                    [ref_curve.argmin_deg, ref_curve.rho_interface, ref_curve.l_open], rtol=1e-12)


# ---------------------------------------------------------------------------
# damped Newton with a complex-step Jacobian
# ---------------------------------------------------------------------------

def _cubic_system(x):
    return np.array([x[0] ** 2 + x[1] ** 2 + x[2] ** 2 - 3.0, x[0] * x[1] - 1.0,
                     x[2] ** 3 - x[0]])


def _cubic_jacobian(x):
    return np.array([[2.0 * x[0], 2.0 * x[1], 2.0 * x[2]], [x[1], x[0], 0.0],
                     [-1.0, 0.0, 3.0 * x[2] ** 2]])


def test_newton2_complex_step_on_polynomial_system():
    # the complex-step Jacobian of a polynomial is exact, so newton2 takes the
    # iterates of Newton with the analytic Jacobian
    x0 = np.array([1.7, 0.4, 1.3])
    f, jac, _ = tube._value_and_jacobian(_cubic_system, x0)
    assert_allclose(f, _cubic_system(x0), rtol=1e-15)
    assert_allclose(jac, _cubic_jacobian(x0), rtol=1e-15)
    x, res, iters = newton2(_cubic_system, x0)
    assert_allclose(x, [1.0, 1.0, 1.0], rtol=1e-12)
    assert np.max(np.abs(res)) < tube.NEWTON_TOL
    xa = x0.copy()
    for it in range(iters):
        step = np.linalg.solve(_cubic_jacobian(xa), -_cubic_system(xa))
        while np.max(np.abs(_cubic_system(xa + step))) >= np.max(np.abs(_cubic_system(xa))):
            step *= 0.5
        xa = xa + step
    assert_allclose(x, xa, rtol=1e-14)
    # a batch of systems, one per column, converges and halves system by system:
    # bitwise the x of each system solved alone
    x0s = np.array([[1.7, 0.4, 1.3], [0.8, 1.2, 0.9], [1.0, 1.0, 1.0], [3.0, 0.2, 2.5]]).T
    xb, resb, itb = newton2(_cubic_system, x0s)
    alone = [newton2(_cubic_system, x0s[:, b]) for b in range(x0s.shape[1])]
    assert np.array_equal(xb, np.array([a[0] for a in alone]).T)
    assert np.array_equal(resb, np.array([a[1] for a in alone]).T)
    assert itb == max(a[2] for a in alone) and len({a[2] for a in alone}) > 1
    f, jac, _ = tube._value_and_jacobian(_cubic_system, x0s)
    assert jac.shape == (4, 3, 3)
    for b in range(x0s.shape[1]):
        assert np.array_equal(jac[b], tube._value_and_jacobian(_cubic_system, x0s[:, b])[1])
    # one member without a real root fails the batch with every last iterate
    c = np.array([1.0, -1.0])[:, None]
    with pytest.raises(NoConvergence) as exc:
        newton2(lambda x: np.array([x[0] ** 2 - c, x[1] + 0.0 * c]), np.full((2, 2), 3.0))
    assert exc.value.last_iterate.shape == (2, 2)


def test_complex_step_jacobian_matches_central_difference(monkeypatch, two_layers, t3_layers):
    # record the solvers' own residual functions and every point they evaluate
    solves = []
    newton = tube.newton2

    def recording(fun, x0, **kwargs):
        points = []

        def rec(x):
            points.append(x.real[:, 0].copy())
            return fun(x)
        solves.append((fun, points))
        return newton(rec, x0, **kwargs)

    monkeypatch.setattr(tube, "newton2", recording)
    solve_inverse_sf(T1_TUBE, math.radians(T1_ALPHA_DEG), two_layers)
    solve_load_free(t3_layers)
    assert len(solves) == 2
    for fun, points in solves:
        assert len(points) >= 4
        for x in points:
            _, jac, _ = tube._value_and_jacobian(fun, x)
            cd = np.empty((2, 2))
            for j in range(2):
                e = np.zeros(2)
                e[j] = 1e-6 * max(1.0, abs(x[j]))
                cd[:, j] = (fun((x + e)[:, None]) - fun((x - e)[:, None]))[:, 0] / (2.0 * e[j])
            assert_allclose(jac, cd, rtol=0.0, atol=1e-7 * np.max(np.abs(jac)))


def test_newton2_solves_smooth_system():
    def fun(x):
        return np.array([x[0] ** 2 + x[1] ** 2 - 4.0, x[0] - x[1]])

    x, r, iters = newton2(fun, np.array([2.0, 0.5]))
    assert_allclose(x, [math.sqrt(2.0), math.sqrt(2.0)], rtol=1e-9)
    assert np.max(np.abs(r)) < tube.NEWTON_TOL
    assert iters <= 10


def test_newton2_reports_nonconvergence(monkeypatch):
    def fun(x):
        return np.array([x[0] ** 2 + 1.0, x[1]])  # no real root

    monkeypatch.setattr(tube, "NEWTON_MAXIT", 5)
    with pytest.raises(NoConvergence) as exc:
        newton2(fun, np.array([3.0, 3.0]))
    e = exc.value
    assert e.last_iterate is not None and len(e.last_iterate) == 2
    # the line search stalls at iteration 4; the reported residual is that
    # of the reported iterate, not of an unchecked step past it
    assert e.iterations == 4
    assert e.residuals['norm'] == np.max(np.abs(fun(e.last_iterate)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(k2=st.floats(2.0, 12.0), ro=st.floats(1.5, 2.5), sector_deg=st.floats(150.0, 300.0),
       grid=st.lists(st.integers(0, 35), min_size=2, max_size=2, unique=True))
@example(k2=12.0, ro=2.5, sector_deg=150.0, grid=[24, 25])   # 250 deg stalls alone, so the batch
@example(k2=10.0, ro=2.0, sector_deg=280.0, grid=[16, 17])   # both converge, each to its own x
@example(k2=4.0, ro=1.5, sector_deg=300.0, grid=[13, 14])    # both stall, each at its own norm
def test_a_batch_reaches_what_each_angle_reaches_alone(k2, ro, sector_deg, grid):
    # two angles of a 10 deg scan grid on a one-layer wall, equilibrated in one batch
    # and each alone: a batch converges exactly when each of its angles converges
    # alone, to bitwise the same x, and otherwise fails as one of them fails alone
    layers = [MaterialLayer.from_constants(3.0, 0.0, 2.0, k2, 0.0, sector=SectorGeometry(
        1.0, ro, 1.0, math.radians(sector_deg)))]
    wall = tube.sector_residuals(layers)(tube.N_QUAD)

    def solve(alpha):
        try:
            return tube._solve_sector(layers, wall, alpha)[0]
        except NoConvergence as e:
            return str(e)

    alphas = np.radians(10.0 * np.array(grid))
    batch, alone = solve(alphas), [solve(alphas[j:j + 1]) for j in (0, 1)]
    failures = [x for x in alone if isinstance(x, str)]
    if isinstance(batch, str):
        assert batch in failures
    else:
        assert not failures and np.array_equal(batch, np.hstack(alone))


def _newton_outcome(newton, fun, x0):
    try:
        return newton(fun, x0)
    except NoConvergence as e:
        return e


def _solve_alone_and_as_a_batch_of_one(layers, tube_geom, alpha):
    """solve_inverse_sf and solve_load_free of one wall, every Newton of theirs also run
    as a batch of one, x0[:, None], on the same states; asserts that both reach bitwise
    the same x, residual and iteration count, or fail with the same message, iteration
    count and last iterate.  Returns each solve's iterations or failure message."""
    newton, outcomes = tube.newton2, []

    def both(fun, x0):
        assert x0.shape == (2,)
        alone = _newton_outcome(newton, fun, x0)
        batch = _newton_outcome(newton, lambda u: fun(u[:, 0])[:, None], x0[:, None])
        if isinstance(alone, NoConvergence):
            assert isinstance(batch, NoConvergence)
            assert (str(batch), batch.iterations, batch.residuals) == \
                (str(alone), alone.iterations, alone.residuals)
            assert np.array_equal(batch.last_iterate[:, 0], alone.last_iterate, equal_nan=True)
            assert alone.last_iterate.shape == (2,) and alone.inadmissible in (None, True)
            outcomes.append(str(alone))
            raise alone
        assert not isinstance(batch, NoConvergence)
        assert np.array_equal(batch[0][:, 0], alone[0])
        assert np.array_equal(batch[1][:, 0], alone[1]) and batch[2] == alone[2]
        outcomes.append(alone[2])
        return alone

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tube, "newton2", both)
        for solve in (lambda: solve_inverse_sf(tube_geom, alpha, layers),
                      lambda: solve_load_free(layers)):
            try:
                solve()
            except NoConvergence:
                pass
    assert len(outcomes) == 2
    return outcomes


def _spec_wall(spec):
    """Layers of rows (c1, c2, k1, k2, beta_deg, thickness, L, alpha_deg) glued outward
    from Ri = 1 mm, and the tube of the same radii at the first row's L and angle."""
    radii = np.cumsum([1.0] + [row[5] for row in spec]).tolist()
    layers = [MaterialLayer.from_constants(*row[:5], sector=SectorGeometry(
        lo, hi, row[6], math.radians(row[7]))) for row, lo, hi in zip(spec, radii, radii[1:])]
    return layers, TubeGeometry(radii, spec[0][6]), math.radians(spec[0][7])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spec=st.lists(st.tuples(
    st.floats(0.3, 3.0), st.floats(0.0, 2.0), st.floats(0.5, 3.0), st.floats(0.5, 25.0),
    st.floats(0.0, 90.0), st.floats(0.1, 0.8), st.floats(0.8, 1.25), st.floats(0.0, 320.0)),
    min_size=1, max_size=3))
def test_one_system_takes_the_iterates_of_a_batch_of_one(spec):
    # newton2 keeps one system's norms and tests in Python floats and a batch's in
    # arrays: on inverse-sf and load-free walls of one to three layers, each solve alone
    # and as a batch of one reaches bitwise the same x, residual and iterations, or
    # fails with the same message, iterations and last iterate
    _solve_alone_and_as_a_batch_of_one(*_spec_wall(spec))


@pytest.mark.parametrize("k2, ro, sector_deg, message", [
    (6.0, 2.0, 230.0, "singular Jacobian in tube solve"),   # walks to the axis
    (30.0, 2.0, 300.0, "line search stalled at |res| = 8.309e+232"),
    (60.0, 2.0, 300.0, "inadmissible start (non-finite residual)"),
    (15.05, 2.0, 320.0, "inadmissible start (non-finite Jacobian)"),   # overflowing Jacobian
    (15.0, 2.0, 320.0, "line search stalled at"),   # a trial's Jacobian overflows
    (20.0, 2.1, 210.0, "no convergence in 25 Newton iterations")])
def test_a_failing_wall_fails_alike_alone_and_as_a_batch_of_one(k2, ro, sector_deg, message):
    # the pinned failing one-layer walls of the load-free solve fail on either path
    # with the same message, iterations and last iterate
    layers, tube_geom, alpha = _spec_wall([(3.0, 0.0, 2.0, k2, 0.0, ro - 1.0, 1.0, sector_deg)])
    assert _solve_alone_and_as_a_batch_of_one(layers, tube_geom, alpha)[1].startswith(message)


def test_a_nan_behind_a_finite_residual_reads_as_infinite():
    # a value with NaN in its second entry and a finite Jacobian is inadmissible on
    # both paths, as max over [finite, NaN] alone would not have it: named at the
    # start, backed off at a trial, here until the line search stalls at iteration 1
    def fun(x):
        return np.array([x[0] - 2.0, x[1] - 1.0 + np.where(x[0].real > 1.5, np.nan, 0.0)])

    for start, message, iterations in (([2.0, 1.0], "inadmissible start (non-finite residual)", 0),
                                       ([1.0, 0.5], "line search stalled at |res| = 5.000e-01", 1)):
        for x0 in (np.array(start), np.array(start)[:, None]):
            with pytest.raises(NoConvergence) as info:
                newton2(fun, x0)
            assert (str(info.value), info.value.iterations) == (message, iterations)


def test_one_systems_value_and_jacobian_are_the_batch_of_ones():
    # the complex-step columns, value, Jacobian and norm of one system, in Python floats,
    # are bitwise a batch of one's, also where h underflows to 0, at 0 and -0, and where
    # x, the value or the Jacobian is not finite, where the norm is infinite
    def fun(x):
        return np.array([x[0] ** 2 + np.sqrt(x[1]), x[0] * x[1] - 1.0, np.log(x[2])])

    def shifted(x):   # a NaN value whose Jacobian is finite
        return fun(x) + np.array([0.0, math.nan, 0.0]).reshape((3,) + (1,) * (x.ndim - 1))

    points = [[1.7, 0.4, 1.3], [1e-310, 0.4, 1.3], [0.0, -0.0, 1.0], [1.0, 0.0, 2.0],
              [1.0, -1.0, 2.0], [math.inf, 1.0, 1.0], [math.nan, 1.0, 1.0], [1.0, 1.0, -1.0]]
    with np.errstate(all="ignore"):
        for g, x in [(fun, np.array(p)) for p in points] + [(shifted, np.array(points[0]))]:
            f, jac, norm = tube._value_and_jacobian(g, x)
            fb, jb, nb = tube._value_and_jacobian(lambda u: g(u[:, 0])[:, None], x[:, None])
            assert f.shape == (3,) and jac.shape == (3, 3) and nb.shape == (1,)
            assert np.array_equal(f, fb[:, 0], equal_nan=True)
            assert np.array_equal(jac, jb[0], equal_nan=True)
            assert type(norm) is float and norm == nb[0]
            assert norm == (np.abs(f).max() if np.isfinite([f, *jac]).all() else math.inf)


@pytest.mark.parametrize("errstate", ["ignore", "warn", "raise"])
def test_wall_solve_failure_is_independent_of_numpy_error_state(monkeypatch, errstate):
    # a stiff fibre family (k2 = 20) closed from a thick 210 deg sector: from an
    # admissible start, some of its trials overflow the fibre exponential into
    # non-finite wall integrals; whatever the caller's numpy error state (warnings
    # are errors under this suite), the line search backs off them, and the solve
    # ends in one NoConvergence at a finite last iterate
    layer = MaterialLayer.from_constants(3.0, 0.0, 2.0, 20.0, 0.0, sector=SectorGeometry(
        1.0, 2.1, 1.0, math.radians(210.0)))
    non_finite, kernel = [], tube.equilibrium_residuals

    def recording(*args):
        out = kernel(*args)
        non_finite.append(not np.isfinite(out).all())
        return out

    monkeypatch.setattr(tube, "equilibrium_residuals", recording)
    failures = []
    for state in ("ignore", errstate):
        with np.errstate(all=state), pytest.raises(NoConvergence) as info:
            solve_load_free([layer])
        failures.append((str(info.value), info.value.iterations, info.value.last_iterate.tolist()))
    assert failures[0] == failures[1]
    assert info.value.iterations > 0 and any(non_finite[1:]) and not non_finite[0]
    assert np.all(np.isfinite(info.value.last_iterate))


def test_inadmissible_start_is_named():
    # a stiffer fibre family (k2 = 60) closed from a thick 300 deg sector overflows
    # its fibre exponential at the closed-form start itself, from which no line
    # search can back off: the solve fails at once, naming the non-finite residual,
    # with the start (r_i, l) in mm as its last iterate and 0 iterations
    layer = MaterialLayer.from_constants(3.0, 0.0, 2.0, 60.0, 0.0, sector=SectorGeometry(
        1.0, 2.0, 1.0, math.radians(300.0)))
    with pytest.raises(NoConvergence) as info:
        solve_load_free([layer])
    assert str(info.value) == "inadmissible start (non-finite residual)"
    assert info.value.iterations == 0
    assert_allclose(info.value.last_iterate, [0.2887, 1.0], atol=1e-4)
    # a scan's batch names the angles whose own start is inadmissible
    with pytest.raises(NoConvergence) as info:
        find_opening_angle([layer], 0.0, 180.0, 4.0)
    assert str(info.value) == ("inadmissible start (non-finite residual) at alpha = 0, 4, 8, 12, "
                               "16, 20, 24, 28, 32, 36, 40, 44, 48, 52 deg")
    assert info.value.iterations == 0 and info.value.last_iterate.shape == (2, 46)
    # past them the starts are admissible, with residuals far above 1e30: the solve
    # ends in NoConvergence at an admissible iterate, its residual finite
    with pytest.raises(NoConvergence, match="^line search stalled") as info:
        find_opening_angle([layer], 56.0, 180.0, 4.0)
    assert 1e30 < info.value.residuals["norm"] < math.inf
    assert np.all(np.isfinite(info.value.last_iterate))


@pytest.mark.parametrize("k2, message", [
    (15.0, "^line search stalled"), (15.05, r"^inadmissible start \(non-finite Jacobian\)$")])
def test_an_overflowing_jacobian_is_inadmissible(monkeypatch, k2, message):
    # a stiff fibre family closed from a thick 320 deg sector: its residual stays
    # finite where its complex-step Jacobian overflows, at a trial (k2 = 15), from
    # which the line search backs off, or at the start (k2 = 15.05), which is named;
    # either way a NoConvergence at a finite last iterate, also under the CLI's error
    # state, and never a floating-point error
    layer = MaterialLayer.from_constants(3.0, 0.0, 2.0, k2, 0.0, sector=SectorGeometry(
        1.0, 2.0, 1.0, math.radians(320.0)))
    overflowed, value_and_jacobian = [], tube._value_and_jacobian

    def recording(fun, x):
        out = value_and_jacobian(fun, x)
        overflowed.append(not np.isfinite(out[1]).all())
        return out

    monkeypatch.setattr(tube, "_value_and_jacobian", recording)
    with np.errstate(over="raise", divide="raise", invalid="raise"), \
            pytest.raises(NoConvergence, match=message) as info:
        solve_load_free([layer])
    assert any(overflowed) and overflowed[0] == (k2 > 15.0)
    assert np.all(np.isfinite(info.value.last_iterate))


@pytest.mark.parametrize("k2, ro, sector_deg, iterations, l", [
    (6.0, 2.0, 230.0, 10, 0.9160912856957825), (2.0, 1.75, 270.0, 15, 0.8791034675578646),
    (15.0, 2.5, 210.0, 10, 0.9508911922650412)])
def test_a_wall_solve_that_walked_to_the_axis_says_so(k2, ro, sector_deg, iterations, l):
    # a stiff fibre family closed from a thick sector: the log-space Newton walks
    # ln r_i off to where e^u underflows, so its last iterate has r_i = 0 mm and its
    # Jacobian is singular; the message names that cause, not only the symptom
    layer = MaterialLayer.from_constants(3.0, 0.0, 2.0, k2, 0.0, sector=SectorGeometry(
        1.0, ro, 1.0, math.radians(sector_deg)))
    with pytest.raises(NoConvergence) as info:
        solve_load_free([layer])
    assert str(info.value) == ("singular Jacobian in tube solve: the iterates walked to a "
                               "length of 0 mm")
    assert info.value.iterations == iterations
    assert_allclose(info.value.last_iterate, [0.0, l], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("k2, norm", [(30.0, "8.309e+232"), (35.0, "4.586e+271")])
def test_a_wall_past_the_fibre_range_stalls_at_its_start(monkeypatch, k2, norm):
    # a very stiff fibre family closed from a thick 300 deg sector: every
    # damped step from the start raises the astronomically large residual, so
    # the line search stalls there, after the start's call and its 8 halvings,
    # and does not creep through the iteration limit
    layer = MaterialLayer.from_constants(3.0, 0.0, 2.0, k2, 0.0, sector=SectorGeometry(
        1.0, 2.0, 1.0, math.radians(300.0)))
    calls, kernel = [], tube.equilibrium_residuals

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(tube, "equilibrium_residuals", counting)
    with pytest.raises(NoConvergence) as info:
        solve_load_free([layer])
    assert str(info.value) == f"line search stalled at |res| = {norm}"
    assert info.value.iterations == 0 and len(calls) <= 1 + tube.MAX_HALVINGS


@settings(max_examples=200, deadline=None, derandomize=True)
@given(k2=st.floats(2.0, 35.0), ratio=st.floats(1.5, 2.5), sector_deg=st.floats(150.0, 320.0))
@example(k2=20.0, ratio=2.1, sector_deg=210.0)   # the iteration limit (test_config_cli)
def test_one_layer_walls_return_or_fail_only_by_no_convergence(k2, ratio, sector_deg):
    # one-layer walls of stiff fibres closed from thick sectors, under the CLI's
    # numpy error state: a solve returns a wall or raises NoConvergence at a finite
    # last iterate (r_i, l) within the iteration limit, never a floating-point error
    # (of 600 uniform random draws: 199 solves; 318 stalls, 53 iteration limits, 19
    # inadmissible starts and 11 singular Jacobians)
    layer = MaterialLayer.from_constants(3.0, 0.0, 2.0, k2, 0.0, sector=SectorGeometry(
        1.0, ratio, 1.0, math.radians(sector_deg)))
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        try:
            sol = solve_load_free([layer])
        except NoConvergence as e:
            assert e.last_iterate.shape == (2,) and np.all(np.isfinite(e.last_iterate))
            assert 0 <= e.iterations <= tube.NEWTON_MAXIT
        else:
            assert sol.report.converged and sol.report.iterations <= tube.NEWTON_MAXIT


@pytest.mark.parametrize("workflow, newton_calls", [
    ("inverse-sf", [4]), ("load-free", [5]), ("energy-scan", [4, 3]),
    # layers of unequal length, adventitia L 1.1 mm: its start at l = L_1 took 5
    ("energy-scan-unequal-L", [4, 3])])
def test_residual_calls_per_solve(monkeypatch, two_layers, t3_layers, workflow, newton_calls):
    # every wall-kernel call of a workflow, counted: each Newton's (one per trial
    # point, its Jacobian included), then a tube solve's quadrature check, or the
    # scan's energy pass over its grid and the argmin's opened_energy.  The Newtons'
    # counts are the bounds a kernel change that costs iterations would exceed
    calls, newtons = [], []
    residuals, newton = tube.equilibrium_residuals, tube.newton2

    def counting(table, r2a, h, k2, c2, energy=False):
        calls.append(energy)
        return residuals(table, r2a, h, k2, c2, energy)

    def recording(fun, x0):
        before = len(calls)
        out = newton(fun, x0)
        newtons.append(len(calls) - before)
        return out

    monkeypatch.setattr(tube, "equilibrium_residuals", counting)
    monkeypatch.setattr(tube, "newton2", recording)
    if workflow == "inverse-sf":
        solve_inverse_sf(T1_TUBE, math.radians(T1_ALPHA_DEG), two_layers)
    elif workflow == "load-free":
        solve_load_free(t3_layers)
    elif workflow == "energy-scan":
        find_opening_angle(t3_layers, 100.0, 150.0, 2.0)
    else:
        adv = t3_layers[1]
        find_opening_angle([t3_layers[0], replace(adv, sector=replace(adv.sector, L=1.1))],
                           100.0, 150.0, 2.0)
    assert len(newtons) == len(newton_calls)
    assert all(n <= bound for n, bound in zip(newtons, newton_calls))
    energy_calls = 2 if workflow.startswith("energy-scan") else 0
    assert sum(calls) == energy_calls
    assert len(calls) == sum(newtons) + (energy_calls or 1)


@pytest.mark.parametrize("workflow", ["inverse-sf", "load-free", "energy-scan"])
def test_node_table_is_built_once_per_solve(monkeypatch, two_layers, t3_layers, workflow):
    # Gauss nodes and Legendre rules are built per solve, never per Newton
    # call: their counts do not grow with the iterations a tighter tolerance
    # takes
    counts = {}

    def counting(name, fun):
        def wrapped(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fun(*args, **kwargs)
        return wrapped

    for name in ("neo_hookean_closing", "material_columns", "_leggauss"):
        monkeypatch.setattr(tube, name, counting(name, getattr(tube, name)))
    newton = tube.newton2
    runs = []
    for tol in (1e-4, 1e-11):
        counts.clear()
        iterations = []

        def recording(fun, x0):
            x, f, it = newton(fun, x0)
            iterations.append(it)
            return x, f, it

        monkeypatch.setattr(tube, "NEWTON_TOL", tol)
        monkeypatch.setattr(tube, "newton2", recording)
        if workflow == "inverse-sf":
            solve_inverse_sf(T1_TUBE, math.radians(T1_ALPHA_DEG), two_layers)
        elif workflow == "load-free":
            solve_load_free(t3_layers)
        else:
            find_opening_angle(t3_layers, 100.0, 150.0, 2.0)
        runs.append((sum(iterations), dict(counts)))
    (loose, built), (tight, built_tight) = runs
    assert tight > loose
    assert built_tight == built
    # one setup per solve: one set of material columns and, for sectors, one closing to
    # grade the nodes, from which the tube solvers also build their quadrature check's
    # table at 2 * npts; one Legendre rule per node count, for every layer at once
    assert built["_leggauss"] == (1 if workflow == "energy-scan" else 2)
    assert built["material_columns"] == 1
    assert built.get("neo_hookean_closing", 0) == (0 if workflow == "inverse-sf" else 1)


@pytest.mark.parametrize("builder", ["sector", "tube"])
def test_one_wall_setup_serves_any_node_count(monkeypatch, two_layers, t3_layers, builder):
    # one builder call sets the wall up once, one row per layer: its wall(n) at any
    # node count gives bitwise what a fresh builder's wall(n) gives at the same state
    def build():
        if builder == "sector":
            return tube.sector_residuals(t3_layers)
        return tube.tube_residuals(T1_TUBE, math.radians(T1_ALPHA_DEG), two_layers)

    state = (0.52, 1.01, 0.3) if builder == "sector" else (1.39, 2.93)
    counts = {}

    def counting(name, fun):
        def wrapped(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fun(*args, **kwargs)
        return wrapped

    for name in ("neo_hookean_closing", "material_columns"):
        monkeypatch.setattr(tube, name, counting(name, getattr(tube, name)))
    ns = (tube.N_QUAD, 2 * tube.N_QUAD, 4 * tube.N_QUAD)
    fresh = [build()(n)(*state) for n in ns]
    counts.clear()
    wall = build()
    got = [wall(n)(*state) for n in ns]
    assert counts == ({"neo_hookean_closing": 1, "material_columns": 1} if builder == "sector"
                      else {"material_columns": 1})
    assert np.array(got).tobytes() == np.array(fresh).tobytes()


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
    # the README example's solve starts next to its root
    assert sol.report.iterations <= 3
    # the Newton tolerance on the residuals over (c1, c1 r_i^2)
    c, ri = MEDIA_EQ["c1"], T1_TUBE.radii[0]
    assert abs(sol.report.residuals['p_net_kpa']) < tube.NEWTON_TOL * c
    assert abs(sol.report.residuals['F_red_kpa_mm2']) < tube.NEWTON_TOL * c * ri ** 2
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
    prof = wall_stress_profile([layer], sol.sectors, sol.tube.radii, sol.tube.l)
    assert np.max(np.abs(prof[:, 1:])) < 1e-9  # stress-free everywhere


def test_inverse_max_iter_guard(monkeypatch, two_layers):
    monkeypatch.setattr(tube, "NEWTON_MAXIT", 1)
    with pytest.raises(NoConvergence) as exc:
        solve_inverse_sf(T1_TUBE, math.radians(T1_ALPHA_DEG), two_layers)
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
    # the README example's solve starts next to its root
    assert sol.report.iterations <= 4
    # the Newton tolerance on the residuals over (c1, c1 rho^2), rho < Ro_1
    c, ro = MEDIA_EQ["c1"], MEDIA_SECTOR.Ro
    assert abs(sol.report.residuals['p_net_kpa']) < tube.NEWTON_TOL * c
    assert abs(sol.report.residuals['F_red_kpa_mm2']) < tube.NEWTON_TOL * c * ro ** 2
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
    assert fwd.report.iterations <= 4
    assert fwd.tube.radii == pytest.approx(T1_TUBE.radii, rel=1e-13, abs=0.0)
    assert fwd.tube.l == pytest.approx(T1_TUBE.l, rel=1e-13, abs=0.0)


def test_round_trip_sector_to_tube_to_sector():
    rng = np.random.default_rng(99)
    layer = MaterialLayer.from_constants(**MEDIA_EQ)
    for _ in range(3):
        sec = SectorGeometry(rng.uniform(0.8, 1.2), rng.uniform(1.3, 1.7),
                             rng.uniform(0.8, 2.0), math.radians(rng.uniform(40.0, 200.0)))
        fwd = solve_load_free([replace(layer, sector=sec)])
        inv = solve_inverse_sf(fwd.tube, sec.alpha, [layer])
        got = inv.sectors[0]
        assert got.Ri == pytest.approx(sec.Ri, rel=1e-13, abs=0.0)
        assert got.Ro == pytest.approx(sec.Ro, rel=1e-13, abs=0.0)
        assert got.L == pytest.approx(sec.L, rel=1e-13, abs=0.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(r_i=st.floats(0.5, 1.2), thick=st.floats(0.25, 0.6), split=st.floats(0.4, 0.8),
       l=st.floats(1.0, 4.0), alpha_deg=st.floats(0.0, 200.0), two=st.booleans(),
       npts=st.sampled_from([16, 32, 64]))
def test_round_trip_to_roundoff(r_i, thick, split, l, alpha_deg, two, npts):
    # both solves converge to roundoff, so inverse-sf, then load-free on its
    # sectors, returns every radius and the length to 1e-13 relative
    r_o = r_i * (1.0 + thick)
    radii = (r_i, r_i + split * (r_o - r_i), r_o) if two else (r_i, r_o)
    layers = equilibrium_layers()[:len(radii) - 1]
    inv = solve_inverse_sf(TubeGeometry(radii, l), math.radians(alpha_deg), layers, npts=npts)
    fwd = solve_load_free([replace(m, sector=s) for m, s in zip(layers, inv.sectors)],
                          npts=npts)
    assert_allclose(fwd.tube.radii + (fwd.tube.l,), radii + (l,), rtol=1e-13, atol=0.0)


def _random_wall(n, seed):
    """n kernel materials and their sectored layers, drawn from seed: Ri 0.8-1.2 mm,
    Ro 1.3-1.8 mm, each layer opened 100-180 deg, lengths and gaps slightly unequal."""
    rng = np.random.default_rng(seed)
    mats = [KERNEL_MATERIALS[i] for i in rng.integers(0, len(KERNEL_MATERIALS), n)]
    Ri, Ro = rng.uniform(0.8, 1.2), rng.uniform(1.3, 1.8)
    bounds = Ri + (Ro - Ri) * np.r_[0.0, np.sort(rng.uniform(0.0, 1.0, n - 1)), 1.0]
    gaps = np.r_[0.0, np.cumsum(rng.uniform(0.0, 0.1, n - 1))]
    L = rng.uniform(0.8, 2.0)
    return mats, [MaterialLayer(mat, sector=SectorGeometry(
                      bounds[j] + gaps[j], bounds[j + 1] + gaps[j], L * rng.uniform(0.95, 1.05),
                      math.radians(rng.uniform(100.0, 180.0))))
                  for j, mat in enumerate(mats)]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_default_quadrature_resolves_every_workflow(n, seed):
    # N_QUAD Gauss points per layer already give what 2 N_QUAD give: the scan's
    # argmin and energies, and both tube solves' quadrature checks, on walls of
    # 1-3 kernel materials, Ro/Ri up to 2.25 in one layer, opened 100-180 deg.
    # It fails at N_QUAD = 8; 10 and 11 pass these examples but not the sweeps of
    # the README's node-count table
    mats, layers = _random_wall(n, seed)
    curve = find_opening_angle(layers, 0.0, 180.0, 4.0)
    fine = find_opening_angle(layers, 0.0, 180.0, 4.0, npts=2 * tube.N_QUAD)
    assert abs(curve.argmin_deg - fine.argmin_deg) <= 1e-9
    e, e_fine = np.array(curve.samples).T[1], np.array(fine.samples).T[1]
    assert np.max(np.abs(e - e_fine)) <= 1e-12 * np.max(np.abs(e_fine))
    # each check is |residual at 2 N_QUAD - at N_QUAD| at the converged state,
    # over the scales (c, c r_o^2) of (p_net, F_red), c the largest matrix modulus
    lf = solve_load_free(layers)
    inv = solve_inverse_sf(lf.tube, layers[0].sector.alpha,
                           [MaterialLayer(mat) for mat in mats])
    c = max(max(mat.matrix.c1, mat.matrix.c2) for mat in mats)
    for sol in (lf, inv):
        check = sol.report.quad_check
        assert check["p_refine_change"] <= 1e-12 * c
        assert check["F_refine_change"] <= 1e-12 * c * lf.tube.radii[-1] ** 2


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_profile_sf_radii_are_at_least_each_layers_inner_one(n, seed):
    # wall_stress_profile maps layer j by R^2 = Ri_j^2 + (s l/g_j)(r^2 - r_j^2), and
    # every sample and Gauss node of layer j has r >= r_j, so R^2 >= Ri_j^2 needs no
    # check: on the load-free and inverse-sf walls of 1-3 layers, the R^2 that the
    # kernel's hoop stretch lam_t^2 = (s r/a_j)^2 / R^2 implies is at least Ri_j^2
    mats, layers = _random_wall(n, seed)
    lf = solve_load_free(layers)
    inv = solve_inverse_sf(lf.tube, layers[0].sector.alpha, [MaterialLayer(m) for m in mats])
    x = np.polynomial.legendre.leggauss(3)[0]
    kernel = tube.diagonal_stress_differences
    for sol in (lf, inv):
        rb, lt = np.array(sol.tube.radii), []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tube, "diagonal_stress_differences",
                       lambda l2, cols: lt.append(l2[1]) or kernel(l2, cols))
            profile = wall_stress_profile(layers, sol.sectors, rb, sol.tube.l)
        rs = np.linspace(rb[:-1], rb[1:], tube.PROFILE_POINTS)
        assert np.array_equal(profile[:, 0], rs.T.ravel())
        mid, half = 0.5 * (rs[1:] + rs[:-1]), 0.5 * np.diff(rs, axis=0)
        # layer-major: row j holds layer j's samples, then its Gauss nodes interval by interval
        r = np.concatenate((rs, (mid[:, None] + half[:, None] * x[:, None]).reshape(-1, n))).T
        a = np.array([[2.0 * math.pi - sec.alpha] for sec in sol.sectors])
        Ri = np.array([[sec.Ri] for sec in sol.sectors])
        assert np.all((2.0 * math.pi * r / a) ** 2 / lt[0] >= Ri ** 2 * (1.0 - 1e-12))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1), alpha_deg=st.floats(20.0, 160.0))
def test_profile_matches_the_linspace_route(n, seed, alpha_deg):
    # the profile takes its positions from one cached table in units of the sample
    # step, layer-major: its radii are np.linspace's bit for bit, and its stresses the
    # sample-major linspace route's (tests/reference.py) to roundoff, on the load-free
    # and inverse-sf walls of 1-3 layers and on the same sectors opened to alpha
    mats, layers = _random_wall(n, seed)
    sectors, alpha = [layer.sector for layer in layers], math.radians(alpha_deg)
    lf = solve_load_free(layers)
    eq_layers = [MaterialLayer(m) for m in mats]
    inv = solve_inverse_sf(lf.tube, sectors[0].alpha, eq_layers)
    state, _, _ = equilibrate_opened(layers, alpha)
    for wall in ((layers, lf.sectors, lf.tube.radii, lf.tube.l),
                 (eq_layers, inv.sectors, inv.tube.radii, inv.tube.l),
                 (layers, sectors, glued_radii(sectors, *state), state.l_open, alpha)):
        got, want = wall_stress_profile(*wall), linspace_wall_stress_profile(*wall)
        assert np.array_equal(got[:, 0], want[:, 0])
        assert np.max(np.abs(got[:, 1:] - want[:, 1:])) <= 1e-14 * np.max(np.abs(want[:, 1:]))


def test_cached_arrays_are_read_only():
    # every later solve shares the cached Legendre rules, complex-step identities and
    # profile positions: a write into one raises instead of corrupting them
    for a in (*tube._leggauss(4), tube._ieye(2), *tube._profile_steps()):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_load_free_closes_a_thick_sector_opened_wide():
    # Ro/Ri = 2 opened to 170 deg closes to r_i = 0.28, r_o = 1.03: unit hoop
    # stretch at the sector's middle would put its inner surface at r_i^2 <= 0, so
    # the start takes its floor r_i^2 = a1 Ri^2 / 2 instead
    sec = SectorGeometry(0.8, 1.6, 1.0, math.radians(170.0))
    layer = MaterialLayer.from_constants(**MEDIA_EQ)
    fwd = solve_load_free([replace(layer, sector=sec)])
    got = solve_inverse_sf(fwd.tube, sec.alpha, [layer]).sectors[0]
    assert_allclose((got.Ri, got.Ro, got.L), (sec.Ri, sec.Ro, sec.L), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("eq, sec, rtol", [
    (MEDIA_EQ, SectorGeometry(0.8, 1.6, 1.0, math.radians(200.0)), 1e-13),
    (ADV_EQ, SectorGeometry(1.0, 1.375, 1.0, math.radians(280.0)), 1e-14)],
    ids=["media-200", "adventitia-280"])
def test_walls_closed_toward_the_axis_round_trip_at_the_default_nodes(eq, sec, rtol):
    # walls that close toward the axis (r_o/r_i = 4.6 and 3.5, r_i = 0.198 and 0.133
    # mm): the default nodes, uniform in ln r, resolve their 1/r^2 integrands, so
    # load-free, then inverse-sf on its tube, recovers the sector to roundoff
    # (observed 3.3e-14 and 0); 12 nodes uniform in R missed by 8.6e-6 and 1.6e-6,
    # and 24 by 3.3e-11 and 7.5e-13
    layer = MaterialLayer.from_constants(**eq)
    fwd = solve_load_free([replace(layer, sector=sec)])
    got = solve_inverse_sf(fwd.tube, sec.alpha, [layer]).sectors[0]
    assert_allclose((got.Ri, got.Ro, got.L), (sec.Ri, sec.Ro, sec.L), rtol=rtol, atol=0.0)


def _glued_walls(n, mats, Ri, ratio, split, alpha, L):
    """n equilibrium layers of mats and their sectors of one angle alpha and length
    L, glued without a gap from Ri to ratio Ri, split at the fraction split."""
    edges = [Ri, Ri * (1.0 + split * (ratio - 1.0)), Ri * ratio] if n == 2 else [Ri, Ri * ratio]
    layers = [MaterialLayer.from_constants(**mat) for mat in mats[:n]]
    return layers, [SectorGeometry(lo, hi, L, alpha) for lo, hi in zip(edges, edges[1:])]


@pytest.mark.parametrize("n, alpha_max_deg", [(1, 280.0), (2, 260.0)])
@settings(max_examples=50, deadline=None, derandomize=True)
@given(mats=st.permutations([MEDIA_EQ, ADV_EQ]), Ri=st.floats(0.5, 1.5),
       ratio=st.floats(1.05, 2.5), split=st.floats(0.2, 0.8), frac=st.floats(0.0, 1.0),
       L=st.floats(0.5, 2.0))
# thick walls (Ri 0.8 mm, L 1 mm, media inside) opened wide; one layer closes to
# r_o/r_i of 9.6 to 26, on Newton paths near the r_i -> 0 edge of the domain
@example(mats=[MEDIA_EQ, ADV_EQ], Ri=0.8, ratio=2.5, split=0.5, frac=230.0 / 280.0, L=1.0)
@example(mats=[MEDIA_EQ, ADV_EQ], Ri=0.8, ratio=2.5, split=0.5, frac=250.0 / 280.0, L=1.0)
@example(mats=[MEDIA_EQ, ADV_EQ], Ri=0.8, ratio=2.5, split=0.5, frac=1.0, L=1.0)
@example(mats=[MEDIA_EQ, ADV_EQ], Ri=0.8, ratio=2.0, split=0.5, frac=260.0 / 280.0, L=1.0)
def test_walls_in_range_round_trip_without_a_failure(n, alpha_max_deg, mats, Ri, ratio, split,
                                                     frac, L):
    # media and adventitia walls with Ro/Ri up to 2.5, one layer opened up to 280
    # deg and two up to 260 deg: load-free then inverse-sf raises no NoConvergence,
    # and where the tube's r_o/r_i <= 4 the sectors come back to 1e-10 (worst of
    # 2,300 draws 8.8e-12; near 4.5 it reaches 1.6e-10, under-resolved by the
    # uniform nodes)
    alpha = math.radians(frac * alpha_max_deg)
    layers, secs = _glued_walls(n, mats, Ri, ratio, split, alpha, L)
    lf = solve_load_free([replace(layer, sector=sec) for layer, sec in zip(layers, secs)])
    got = solve_inverse_sf(lf.tube, alpha, layers).sectors
    if lf.tube.radii[-1] / lf.tube.radii[0] <= 4.0:
        assert_allclose([(g.Ri, g.Ro, g.L) for g in got], [(s.Ri, s.Ro, s.L) for s in secs],
                        rtol=1e-10, atol=0.0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 2), mats=st.permutations([MEDIA_EQ, ADV_EQ]), Ri=st.floats(0.5, 1.5),
       ratio=st.floats(1.05, 3.0), split=st.floats(0.2, 0.8), alpha_deg=st.floats(260.0, 340.0),
       L=st.floats(0.5, 2.0))
def test_walls_past_the_range_fail_only_by_no_convergence(n, mats, Ri, ratio, split, alpha_deg,
                                                          L):
    # past that range a solve may fail (a singular Jacobian, a stalled line search or
    # the iteration limit), but only as a NoConvergence at a finite last iterate
    alpha = math.radians(alpha_deg)
    layers, secs = _glued_walls(n, mats, Ri, ratio, split, alpha, L)
    try:
        lf = solve_load_free([replace(layer, sector=sec) for layer, sec in zip(layers, secs)])
        solve_inverse_sf(lf.tube, alpha, layers)
    except NoConvergence as e:
        assert np.all(np.isfinite(e.last_iterate))


def test_quad_check_flags_an_under_resolved_wall():
    # Ro/Ri = 2 opened to 240 deg closes to r_o/r_i = 7.1 (0.105 to 0.748 mm), past
    # the walls the default node count resolves: the 1/r^2 integrand near its small
    # inner radius moves the converged net pressure by 1.3e-8 kPa when the nodes
    # double from N_QUAD = 12, above the 1e-12 c that
    # test_default_quadrature_resolves_every_workflow allows, and by 2.7e-14 from 32
    sec = SectorGeometry(0.8, 1.6, 1.0, math.radians(240.0))
    layer = MaterialLayer.from_constants(**MEDIA_EQ, sector=sec)
    c = max(MEDIA_EQ["c1"], MEDIA_EQ["c2"])
    coarse, fine = (solve_load_free([layer], npts).report.quad_check["p_refine_change"]
                    for npts in (tube.N_QUAD, 32))
    assert coarse > 1e-12 * c > fine


@pytest.mark.parametrize("alpha_deg", [0.0, 80.0, 124.6, 200.0, 340.0])
def test_sector_solve_is_independent_of_its_start(monkeypatch, t3_layers, alpha_deg):
    # from its start next to the root and from a cruder one (r_i at the first
    # sector's sf inner radius, l the mean sector length), the glued sector's
    # Newton on the same scaled residuals reaches one root
    calls, solve_wall = [], tube._solve_wall

    def recording(*args):
        calls.append(args)
        return solve_wall(*args)

    monkeypatch.setattr(tube, "_solve_wall", recording)
    alpha = math.radians(alpha_deg)
    new, _, _ = tube._solve_sector(t3_layers, tube.sector_residuals(t3_layers)(tube.N_QUAD), alpha)
    (layers, residuals, x0, length), = calls
    secs = [layer.sector for layer in t3_layers]
    crude = [secs[0].Ri, sum(s.L for s in secs) / 2.0]
    assert not np.allclose(crude, x0, rtol=1e-3)
    x, _, _ = solve_wall(layers, residuals, np.array(crude), length)
    assert_allclose(x, new, rtol=1e-13, atol=0.0)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(mats=st.lists(st.sampled_from([MEDIA_EQ, ADV_EQ]), min_size=2, max_size=3),
       Ri=st.floats(0.8, 1.2), h=st.lists(st.floats(0.15, 0.5), min_size=3, max_size=3),
       gap=st.lists(st.floats(0.0, 0.1), min_size=2, max_size=2),
       alpha_deg=st.lists(st.floats(60.0, 190.0), min_size=3, max_size=3),
       L=st.lists(st.floats(0.8, 1.25), min_size=3, max_size=3))
def test_scan_batch_is_independent_of_its_length_start(mats, Ri, h, gap, alpha_deg, L):
    # glued walls of 2-3 layers whose lengths differ: the scan batch started at the
    # stiffness-weighted length converges to where it converges from l = L_1, and
    # the same walls with every length L_1 start at exactly l = L_1
    assume(len(set(L[:len(mats)])) > 1)
    calls, solve_wall = [], tube._solve_wall

    def recording(*args):
        calls.append(args)
        return solve_wall(*args)

    alphas = np.radians(np.arange(0.0, 181.0, 20.0))

    def scan_batch(lengths):
        layers, ri = [], Ri
        for j, mat in enumerate(mats):
            sec = SectorGeometry(ri, ri + h[j], lengths[j], math.radians(alpha_deg[j]))
            layers.append(MaterialLayer.from_constants(**mat, sector=sec))
            ri = sec.Ro + gap[min(j, 1)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tube, "_solve_wall", recording)
            x, _, _ = tube._solve_sector(layers, tube.sector_residuals(layers)(tube.N_QUAD), alphas)
        return x, calls[-1]

    x, (layers, residuals, x0, length) = scan_batch(L)
    from_l1 = np.array([x0[0], np.full_like(x0[1], L[0])])   # the same r_i starts
    assert not np.array_equal(from_l1, x0)
    y, _, _ = solve_wall(layers, residuals, from_l1, length)
    assert_allclose(x, y, rtol=1e-13, atol=0.0)
    _, (_, _, x0, *_) = scan_batch(L[:1] * 3)
    assert np.array_equal(x0[1], np.full_like(x0[1], L[0]))


# ---------------------------------------------------------------------------
# layer-split oracle: one layer cut into two of the same material is the same wall
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None, derandomize=True)
@given(j=st.sampled_from([0, 1]), t=st.floats(0.05, 0.95))
def test_load_free_invariant_under_layer_split(j, t):
    base = solve_load_free(sectored_layers())
    layers, Rs = split_sectored_layer(sectored_layers(), j, t)
    split = solve_load_free(layers)
    assert len(split.sectors) == 3
    radii = list(split.tube.radii)
    r_split = radii.pop(j + 1)
    assert radii == pytest.approx(base.tube.radii, abs=1e-9)
    assert split.tube.l == pytest.approx(base.tube.l, abs=1e-9)
    # the split radius is the image of Rs under base layer j's map
    sec = base.sectors[j]
    m = OpeningMap(2.0 * math.pi / (2.0 * math.pi - sec.alpha), base.tube.l / sec.L,
                   base.tube.radii[j], sec.Ri)
    assert r_split == pytest.approx(float(m.radius_current(Rs)), abs=1e-9)


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


@pytest.mark.parametrize("alpha", [2.0 * math.pi, 7.0, math.nan, -0.5])
def test_inverse_rejects_an_opening_angle_outside_the_circle(monkeypatch, two_layers, alpha):
    # checked before the Newton runs
    def newton_never_runs(*args, **kwargs):
        raise AssertionError("newton2 called")

    monkeypatch.setattr(tube, "newton2", newton_never_runs)
    with pytest.raises(ValueError, match="alpha"):
        solve_inverse_sf(T1_TUBE, alpha, two_layers)


# ---------------------------------------------------------------------------
# dimensional oracle: every length times s scales the walls' radii by s
# ---------------------------------------------------------------------------

def _walls_at_scale(s):
    """The inverse solve of T1, the load-free solve of T3 and the scan of T3's
    sectors, with every length times s: (inverse-sf sectors (Ri, Ro, L), load-free
    tube radii and l, scan argmin (deg), the argmin's (rho, l), the scan's angles)."""
    alpha = math.radians(T1_ALPHA_DEG)
    inv = solve_inverse_sf(TubeGeometry(np.array(T1_TUBE.radii) * s, T1_TUBE.l * s), alpha,
                           equilibrium_layers())
    assert all(sec.alpha == alpha for sec in inv.sectors)
    layers = [replace(layer, sector=SectorGeometry(layer.sector.Ri * s, layer.sector.Ro * s,
                                                   layer.sector.L * s, layer.sector.alpha))
              for layer in sectored_layers()]
    lf = solve_load_free(layers)
    curve = find_opening_angle(layers, 100.0, 150.0, 5.0)
    return ([(sec.Ri, sec.Ro, sec.L) for sec in inv.sectors], lf.tube.radii + (lf.tube.l,),
            curve.argmin_deg, (curve.rho_interface, curve.l_open),
            [a for a, _ in curve.samples])


@settings(max_examples=12, deadline=None, derandomize=True)
@given(s=st.floats(-30.0, 30.0).map(lambda e: 10.0 ** e))
# a complex step of 1e-20 mm, not 1e-20 x, is a converged wrong answer at 1e-18
# and a singular Jacobian at 1e-30
@example(s=1e-18)
@example(s=1e-30)
def test_walls_scale_with_their_lengths(s):
    inv, lf, argmin, cand, angles = _walls_at_scale(s)
    inv0, lf0, argmin0, cand0, angles0 = _walls_at_scale(1.0)
    assert_allclose(np.array(inv) / s, inv0, rtol=1e-12, atol=0.0)
    assert_allclose(np.array(lf) / s, lf0, rtol=1e-12, atol=0.0)
    assert_allclose(np.array(cand) / s, cand0, rtol=1e-12, atol=0.0)
    assert abs(argmin - argmin0) <= 1e-10 and angles == angles0


# ---------------------------------------------------------------------------
# wall stress profile
# ---------------------------------------------------------------------------

def test_wall_profile_boundary_conditions(two_layers):
    sol = solve_inverse_sf(T1_TUBE, math.radians(T1_ALPHA_DEG), two_layers)
    prof = wall_stress_profile(two_layers, sol.sectors, sol.tube.radii, sol.tube.l)
    r, t_rr = prof[:, 0], prof[:, 1]
    assert r[0] == pytest.approx(T1_TUBE.radii[0])
    assert r[-1] == pytest.approx(T1_TUBE.radii[-1])
    # traction-free inner and outer surfaces: T_rr(r_o) is the solve's net pressure
    assert t_rr[0] == 0.0
    assert abs(t_rr[-1] - sol.report.residuals['p_net_kpa']) <= 1e-12 * np.max(np.abs(prof[:, 1:]))
    # hoop stress must change sign across the wall for a self-equilibrated state
    t_hoop = prof[:, 2]
    assert t_hoop.min() < 0.0 < t_hoop.max()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 3), route=st.sampled_from(["inverse-sf", "load-free", "opened"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_wall_profile_closes_on_the_solve(n, route, seed):
    # the profile's T_rr starts at 0 on the inner surface and ends at the solve's net
    # pressure on the outer one, whichever solve gave the wall: the inverse solve,
    # the load-free solve or an opened sector's equilibrium at alpha != 0
    rng = np.random.default_rng(seed)
    mats = [KERNEL_MATERIALS[i] for i in rng.integers(0, len(KERNEL_MATERIALS), n)]
    if route == "inverse-sf":
        geom = TubeGeometry(rng.uniform(0.6, 0.9) * np.cumprod([1.0, *rng.uniform(1.1, 1.3, n)]),
                            rng.uniform(0.8, 1.2))
        layers = [MaterialLayer(mat) for mat in mats]
        sol = solve_inverse_sf(geom, math.radians(rng.uniform(0.0, 200.0)), layers)
        sectors, radii, l, alpha = sol.sectors, geom.radii, geom.l, 0.0
        p_net = sol.report.residuals['p_net_kpa']
    else:
        layers, Ri = [], rng.uniform(0.9, 1.1)
        for mat in mats:
            sec = SectorGeometry(Ri, Ri + rng.uniform(0.2, 0.4), rng.uniform(0.9, 1.1),
                                 math.radians(rng.uniform(100.0, 170.0)))
            layers.append(MaterialLayer(mat, sector=sec))
            Ri = sec.Ro + rng.uniform(0.0, 0.15)
        sectors = [layer.sector for layer in layers]
        if route == "load-free":
            sol = solve_load_free(layers)
            radii, l, alpha = sol.tube.radii, sol.tube.l, 0.0
            p_net = sol.report.residuals['p_net_kpa']
        else:
            alpha = math.radians(rng.uniform(20.0, 160.0))
            cand, _, f = equilibrate_opened(layers, alpha)
            radii, l, p_net = glued_radii(sectors, cand.r_inner, cand.l_open, alpha), \
                cand.l_open, float(f[0])
    prof = wall_stress_profile(layers, sectors, radii, l, alpha)
    assert prof[0, 1] == 0.0
    assert abs(prof[-1, 1] - p_net) <= 1e-12 * np.max(np.abs(prof[:, 1:]))
    assert prof[0, 0] == radii[0] and prof[-1, 0] == radii[-1]
    assert np.all(np.diff(prof[:, 0]) >= 0.0)


def test_wall_profile_monotone_radius(two_layers):
    sol = solve_inverse_sf(T1_TUBE, math.radians(T1_ALPHA_DEG), two_layers)
    prof = wall_stress_profile(two_layers, sol.sectors, sol.tube.radii, sol.tube.l)
    assert np.all(np.diff(prof[:, 0]) >= 0.0)
