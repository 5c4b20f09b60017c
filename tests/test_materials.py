"""Equilibrium constitutive pieces and the two-reference-configuration algebra."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from prestress_tube import (
    EquilibriumMaterial,
    FibreMaxwellParams,
    HolzapfelFibreParams,
    IsoMaxwellParams,
    MooneyRivlinParams,
    PreStressField,
    cauchy_from_pk2,
    clf_from_csf,
    csf_from_clf,
    equilibrium_energy_sf,
    equilibrium_pk2_sf,
    extra_cauchy_equilibrium,
    fibre_directions,
    fibre_energy,
    fibre_f,
    fibre_overstress,
    fibre_sq_stretch,
    holzapfel_pk2_sf,
    iso_overstress,
    mooney_rivlin_energy,
    mooney_rivlin_pk2_sf,
    pull_back_pk2,
    sq_stretch_gradient,
    visc_fibre_f,
)
from prestress_tube import tensor as tn
from prestress_tube.errors import DomainError, NonPositiveDeterminant

from conftest import (
    MEDIA_EQ,
    fd_pk2,
    rand_motion,
    rand_rotation,
    rand_spd,
    rand_unimodular,
    rand_unit,
    rel_err,
)

MR = MooneyRivlinParams(c1=3.0, c2=2.0)


def _fibre_params(rng=None, beta_deg=29.0):
    a_pair = fibre_directions(math.radians(beta_deg))
    return HolzapfelFibreParams(k1=2.3632, k2=0.8393, a=a_pair[0])


# ---------------------------------------------------------------------------
# parameter / direction plumbing
# ---------------------------------------------------------------------------

def test_fibre_directions_unit_and_symmetric():
    b = math.radians(29.0)
    a_plus, a_minus = fibre_directions(b)
    for a in (a_plus, a_minus):
        assert_allclose(np.linalg.norm(a), 1.0, rtol=1e-15)
        assert a[0] == 0.0  # helices live in the theta-z plane
    assert_allclose(a_plus[1], math.cos(b))
    assert_allclose(a_plus[2], math.sin(b))
    assert_allclose(a_minus[2], -a_plus[2])
    assert_allclose(a_minus[1], a_plus[1])


def test_param_validation():
    with pytest.raises(ValueError):
        MooneyRivlinParams(c1=-1.0, c2=2.0)
    with pytest.raises(ValueError):
        MooneyRivlinParams(c1=0.0, c2=0.0)
    with pytest.raises(ValueError):
        HolzapfelFibreParams(k1=0.0, k2=1.0, a=np.array([0.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        HolzapfelFibreParams(k1=1.0, k2=1.0, a=np.array([0.0, 2.0, 0.0]))
    with pytest.raises(ValueError):
        PreStressField(2.0 * np.eye(3))  # det != 1


# ---------------------------------------------------------------------------
# two-configuration transformation algebra
# ---------------------------------------------------------------------------

def test_csf_clf_round_trip():
    rng = np.random.default_rng(10)
    for _ in range(20):
        f0 = PreStressField(rand_unimodular(rng))
        c_lf = rand_spd(rng)
        c_sf = csf_from_clf(c_lf, f0)
        assert_allclose(clf_from_csf(c_sf, f0), c_lf, rtol=1e-12)
        assert tn.is_symmetric(c_sf, tol=1e-12)


def test_csf_trivial_f0_is_identity_map():
    rng = np.random.default_rng(11)
    c = rand_spd(rng)
    f0 = PreStressField(np.eye(3))
    assert_allclose(csf_from_clf(c, f0), c)
    assert_allclose(pull_back_pk2(c, f0), c)


def test_pure_lf_state_csf():
    # with no motion (F_lf = 1) the sf-configuration strain is F0^-T F0^-1
    rng = np.random.default_rng(12)
    f0m = rand_unimodular(rng)
    c_sf = csf_from_clf(np.eye(3), PreStressField(f0m))
    f0inv = np.linalg.inv(f0m)
    assert_allclose(c_sf, f0inv.T @ f0inv, rtol=1e-12)


def test_cauchy_from_pk2_pushforward():
    rng = np.random.default_rng(13)
    f = rand_motion(rng)
    s = tn.sym(rng.standard_normal((3, 3)))
    t = cauchy_from_pk2(s, f)
    assert_allclose(t, f @ s @ f.T / np.linalg.det(f), rtol=1e-13)
    with pytest.raises(NonPositiveDeterminant):
        cauchy_from_pk2(s, -np.eye(3))


# ---------------------------------------------------------------------------
# matrix piece: energy <-> stress consistency (finite-difference oracle)
# ---------------------------------------------------------------------------

def test_mooney_rivlin_energy_zero_at_identity():
    assert mooney_rivlin_energy(np.eye(3), MR) == pytest.approx(0.0, abs=1e-15)


def test_mooney_rivlin_energy_isochoric_invariance():
    rng = np.random.default_rng(14)
    c = rand_spd(rng)
    for s in (0.5, 1.7, 3.0):
        assert_allclose(mooney_rivlin_energy(s * c, MR),
                        mooney_rivlin_energy(c, MR), rtol=1e-12)


def test_mooney_rivlin_pk2_matches_fd_gradient():
    rng = np.random.default_rng(15)
    for _ in range(10):
        c = rand_spd(rng)
        s = mooney_rivlin_pk2_sf(c, MR)
        s_fd = fd_pk2(lambda x: mooney_rivlin_energy(x, MR), c)
        assert rel_err(s, s_fd) < 1e-7


def test_mooney_rivlin_pk2_orthogonal_to_c():
    # isochoric energy => S : C = 0 identically
    rng = np.random.default_rng(16)
    c = rand_spd(rng)
    assert abs(tn.ddot(mooney_rivlin_pk2_sf(c, MR), c)) < 1e-12


# ---------------------------------------------------------------------------
# fibre piece
# ---------------------------------------------------------------------------

def test_fibre_sq_stretch_diagonal_case():
    c = np.diag([1.44, 1.0 / 1.2, 1.0 / 1.2])
    a = np.array([1.0, 0.0, 0.0])
    lam2 = fibre_sq_stretch(c, a)
    assert_allclose(lam2, 1.44 * np.linalg.det(c) ** (-1.0 / 3.0), rtol=1e-14)


def test_fibre_f_and_energy_consistency():
    # f = d(energy)/d(lam2) by central differences
    for lam2 in (0.9, 1.0, 1.21, 1.69):
        h = 1e-7
        dfd = (fibre_energy(lam2 + h, 2.3632, 0.8393)
               - fibre_energy(lam2 - h, 2.3632, 0.8393)) / (2.0 * h)
        assert_allclose(fibre_f(lam2, 2.3632, 0.8393), dfd, rtol=1e-6, atol=1e-10)
    assert fibre_f(1.0, 2.3632, 0.8393) == 0.0
    assert fibre_energy(1.0, 2.3632, 0.8393) == pytest.approx(0.0, abs=1e-15)


def test_sq_stretch_gradient_matches_fd():
    rng = np.random.default_rng(17)
    for _ in range(10):
        c = rand_spd(rng)
        a = rand_unit(rng)
        grad, lam2 = sq_stretch_gradient(c, a)
        assert_allclose(lam2, fibre_sq_stretch(c, a), rtol=1e-14)
        g_fd = fd_pk2(lambda x: fibre_sq_stretch(x, a), c) / 2.0
        assert rel_err(grad, g_fd) < 1e-7


def test_holzapfel_pk2_matches_fd_gradient():
    rng = np.random.default_rng(18)
    p = _fibre_params()
    for _ in range(10):
        c = rand_spd(rng)
        s = holzapfel_pk2_sf(c, p)
        s_fd = fd_pk2(lambda x: fibre_energy(fibre_sq_stretch(x, p.a), p.k1, p.k2), c)
        assert rel_err(s, s_fd) < 1e-6


# ---------------------------------------------------------------------------
# assembled equilibrium material
# ---------------------------------------------------------------------------

def test_equilibrium_material_assembly():
    rng = np.random.default_rng(19)
    mat = EquilibriumMaterial.from_constants(**MEDIA_EQ)
    assert len(mat.fibres) == 2
    c = rand_spd(rng)
    s = equilibrium_pk2_sf(c, mat)
    expect = mooney_rivlin_pk2_sf(c, mat.matrix)
    for fp in mat.fibres:
        expect = expect + holzapfel_pk2_sf(c, fp)
    assert_allclose(s, expect, rtol=1e-14)
    assert tn.is_symmetric(s, tol=1e-10)


def test_equilibrium_stress_free_reference():
    mat = EquilibriumMaterial.from_constants(**MEDIA_EQ)
    assert_allclose(equilibrium_pk2_sf(np.eye(3), mat), 0.0, atol=1e-14)
    assert equilibrium_energy_sf(np.eye(3), mat) == pytest.approx(0.0, abs=1e-14)


def test_equilibrium_energy_gradient():
    rng = np.random.default_rng(20)
    mat = EquilibriumMaterial.from_constants(**MEDIA_EQ)
    for _ in range(5):
        c = rand_spd(rng)
        s = equilibrium_pk2_sf(c, mat)
        s_fd = fd_pk2(lambda x: equilibrium_energy_sf(x, mat), c)
        assert rel_err(s, s_fd) < 1e-6
        assert abs(tn.ddot(s, c)) < 1e-10 * np.max(np.abs(s))


def test_extra_cauchy_equilibrium_guards_and_equivariance():
    rng = np.random.default_rng(21)
    mat = EquilibriumMaterial.from_constants(**MEDIA_EQ)
    f = rand_unimodular(rng)
    t = extra_cauchy_equilibrium(f, mat)
    assert tn.is_symmetric(t, tol=1e-10)
    # superposed rotation maps T -> Q T Q^T
    q = rand_rotation(rng)
    t_rot = extra_cauchy_equilibrium(q @ f, mat)
    assert_allclose(t_rot, q @ t @ q.T, rtol=1e-10, atol=1e-12)
    with pytest.raises(DomainError):
        extra_cauchy_equilibrium(1.1 * f, mat)


def test_route_invariance_small():
    # lf-route and sf-route Cauchy stresses agree (the full batch lives in the
    # acceptance suite)
    rng = np.random.default_rng(22)
    mat = EquilibriumMaterial.from_constants(**MEDIA_EQ)
    for _ in range(10):
        f0 = PreStressField(rand_unimodular(rng))
        f_lf = rand_motion(rng)
        f_sf = f_lf @ np.linalg.inv(f0.F0)
        c_sf = tn.transpose(f_sf) @ f_sf
        s_sf = equilibrium_pk2_sf(c_sf, mat)
        t_direct = cauchy_from_pk2(s_sf, f_sf)
        t_pulled = cauchy_from_pk2(pull_back_pk2(s_sf, f0), f_lf)
        assert rel_err(t_pulled, t_direct) < 1e-12


# ---------------------------------------------------------------------------
# every PK2 stress as one isochoric projection of its fictitious stress
# ---------------------------------------------------------------------------

def _fibre_grad(c, a):
    """d(lam2)/dC = (det C)^{-1/3} a(x)a - (lam2/3) C^{-1}, with lam2."""
    j23 = np.linalg.det(c) ** (-1.0 / 3.0)
    lam2 = j23 * np.einsum('...ij,i,j->...', c, a, a)
    return (j23[..., None, None] * np.outer(a, a)
            - (lam2 / 3.0)[..., None, None] * np.linalg.inv(c)), lam2


def _explicit_pk2(name, c, ci, lam_i):
    """The per-term PK2 stresses written out as explicit gradient formulas."""
    mr, hf = MooneyRivlinParams(c1=3.0, c2=2.0), _fibre_params()
    iso = IsoMaxwellParams(mu=5.0, eta=0.5)
    fib = FibreMaxwellParams(k1v=5.3, k2v=0.8393, eta_f=0.53, a=hf.a)
    cinv, j23 = np.linalg.inv(c), np.linalg.det(c)[..., None, None] ** (-1.0 / 3.0)
    cbar = j23 * c
    if name == "mooney_rivlin":
        return (mooney_rivlin_pk2_sf(c, mr),
                cinv @ tn.deviator(mr.c1 * cbar - mr.c2 * np.linalg.inv(cbar)))
    grad, lam2 = _fibre_grad(c, hf.a)
    if name == "fibre":
        return holzapfel_pk2_sf(c, hf), 2.0 * fibre_f(lam2, hf.k1, hf.k2)[..., None, None] * grad
    if name == "sq_stretch":
        return sq_stretch_gradient(c, hf.a)[0], grad
    if name == "iso_maxwell":
        ciinv = np.linalg.inv(ci)
        tr = np.einsum('...ij,...ji->...', cbar, ciinv)
        return iso_overstress(c, ci, iso), iso.mu * (j23 * ciinv - (tr / 3.0)[..., None, None] * cinv)
    pref = visc_fibre_f(lam2 / lam_i ** 2, fib.k1v, fib.k2v) / lam_i ** 2
    return fibre_overstress(c, lam_i, fib)[1], 2.0 * pref[..., None, None] * grad


@pytest.mark.parametrize("name", ["mooney_rivlin", "fibre", "sq_stretch", "iso_maxwell",
                                  "fibre_maxwell"])
def test_projected_pk2_matches_explicit_formula(name):
    rng = np.random.default_rng(62)
    c = np.stack([rand_spd(rng, 0.3, 3.0) for _ in range(40)])
    ci = np.stack([tn.unimodular(rand_spd(rng)) for _ in range(40)])
    lam_i = rng.uniform(0.8, 1.25, 40)
    got, expect = _explicit_pk2(name, c, ci, lam_i)
    for s, s_ref, cc in zip(got, expect, c):
        scale = np.max(np.abs(s_ref))
        assert np.max(np.abs(s - s_ref)) <= 1e-13 * scale
        # isochoric: S : C = 0
        assert abs(tn.ddot(s, cc)) <= 1e-13 * scale * np.max(np.abs(cc))
    # a single tensor gives the row of the stack
    assert_allclose(_explicit_pk2(name, c[7], ci[7], lam_i[7])[0], got[7], rtol=0.0,
                    atol=1e-15 * np.max(np.abs(got[7])))
