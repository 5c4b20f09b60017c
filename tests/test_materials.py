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
    csf_from_clf,
    fibre_directions,
    fibre_energy,
    fibre_f,
    isochoric_kirchhoff,
)
from prestress_tube import tensor as tn
from prestress_tube.errors import DomainError, NonPositiveDeterminant, SingularTensor
from prestress_tube.materials import equilibrium_sbar, holzapfel_sbar
from prestress_tube.maxwell import fibre_sbar

from reference import (
    cauchy_from_pk2,
    clf_from_csf,
    deviator,
    equilibrium_energy_sf,
    extra_cauchy_equilibrium,
    fibre_sq_stretch,
    isochoric_pk2,
    mooney_rivlin_energy,
    pull_back_pk2,
    sym,
)

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
MR_ONLY = EquilibriumMaterial(MR)


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
    with pytest.raises(ValueError, match=r"unit length \(\|a\| = 2\.000e\+00\)"):
        HolzapfelFibreParams(k1=1.0, k2=1.0, a=np.array([0.0, 2.0, 0.0]))
    with pytest.raises(ValueError):
        PreStressField(2.0 * np.eye(3))  # det != 1
    # non-finite constants and directions, and an F0 that is not 3x3
    for c1 in (math.nan, math.inf):
        with pytest.raises(ValueError):
            MooneyRivlinParams(c1=c1, c2=1.0)
    with pytest.raises(ValueError):
        HolzapfelFibreParams(k1=math.nan, k2=1.0, a=np.array([0.0, 1.0, 0.0]))
    with pytest.raises(ValueError, match=r"\(\|a\| = nan\)"):
        HolzapfelFibreParams(k1=1.0, k2=1.0, a=np.array([0.0, math.nan, 0.0]))
    with pytest.raises(ValueError):
        fibre_directions(math.inf)
    with pytest.raises(ValueError):
        PreStressField(np.eye(2))


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
    s = sym(rng.standard_normal((3, 3)))
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
        s = isochoric_pk2(c, lambda cb: equilibrium_sbar(cb, MR_ONLY))
        s_fd = fd_pk2(lambda x: mooney_rivlin_energy(x, MR), c)
        assert rel_err(s, s_fd) < 1e-7


def test_mooney_rivlin_pk2_orthogonal_to_c():
    # isochoric energy => S : C = 0 identically
    rng = np.random.default_rng(16)
    c = rand_spd(rng)
    assert abs(tn.ddot(isochoric_pk2(c, lambda cb: equilibrium_sbar(cb, MR_ONLY)), c)) < 1e-12


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
        grad = isochoric_pk2(c, lambda cb: tn.dyad(a))
        assert_allclose(fibre_sq_stretch(c, a), np.linalg.det(c) ** (-1.0 / 3.0) * a @ c @ a,
                        rtol=1e-14)
        g_fd = fd_pk2(lambda x: fibre_sq_stretch(x, a), c) / 2.0
        assert rel_err(grad, g_fd) < 1e-7


def test_holzapfel_pk2_matches_fd_gradient():
    rng = np.random.default_rng(18)
    p = _fibre_params()
    for _ in range(10):
        c = rand_spd(rng)
        s = isochoric_pk2(c, lambda cb: holzapfel_sbar(cb, p))
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
    s = isochoric_pk2(c, lambda cb: equilibrium_sbar(cb, mat))
    expect = isochoric_pk2(c, lambda cb: equilibrium_sbar(cb, EquilibriumMaterial(mat.matrix)))
    for fp in mat.fibres:
        expect = expect + isochoric_pk2(c, lambda cb: holzapfel_sbar(cb, fp))
    assert_allclose(s, expect, rtol=1e-14)
    assert tn.is_symmetric(s, tol=1e-10)


def test_equilibrium_stress_free_reference():
    mat = EquilibriumMaterial.from_constants(**MEDIA_EQ)
    assert_allclose(isochoric_pk2(np.eye(3), lambda cb: equilibrium_sbar(cb, mat)), 0.0,
                    atol=1e-14)
    assert equilibrium_energy_sf(np.eye(3), mat) == pytest.approx(0.0, abs=1e-14)


def test_equilibrium_energy_gradient():
    rng = np.random.default_rng(20)
    mat = EquilibriumMaterial.from_constants(**MEDIA_EQ)
    for _ in range(5):
        c = rand_spd(rng)
        s = isochoric_pk2(c, lambda cb: equilibrium_sbar(cb, mat))
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
        s_sf = isochoric_pk2(c_sf, lambda cb: equilibrium_sbar(cb, mat))
        t_direct = cauchy_from_pk2(s_sf, f_sf)
        t_pulled = cauchy_from_pk2(pull_back_pk2(s_sf, f0), f_lf)
        assert rel_err(t_pulled, t_direct) < 1e-12


def test_kirchhoff_projection_is_the_pk2_route_pushed_forward():
    # isochoric_kirchhoff never inverts C: F C^{-1} F^T = 1 turns F (J^(-2/3) Dev Sbar) F^T
    # into J^(-2/3) (F Sbar F^T - 1/3 (Sbar : C) 1).  It matches the C^{-1} projection
    # pushed forward by F (times det F) to roundoff, and fails as that route does
    rng = np.random.default_rng(23)
    mat = EquilibriumMaterial.from_constants(**MEDIA_EQ)
    f = np.stack([rand_motion(rng) for _ in range(20)])
    c = tn.transpose(f) @ f

    def fictitious(cb):
        return equilibrium_sbar(cb, mat)
    tau = isochoric_kirchhoff(f, c, tn.det(c), fictitious)
    expect = tn.det(f)[:, None, None] * cauchy_from_pk2(isochoric_pk2(c, fictitious), f)
    assert np.max(np.abs(tau - expect)) <= 1e-13 * np.max(np.abs(expect))
    singular = np.diag([1.0, 1.0, 0.0])
    for c_bad, error in ((singular, SingularTensor), (-np.eye(3), NonPositiveDeterminant)):
        with pytest.raises(error):
            isochoric_pk2(c_bad, fictitious)
        with pytest.raises(error):
            isochoric_kirchhoff(c_bad, c_bad, tn.det(c_bad), fictitious)


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
        return (isochoric_pk2(c, lambda cb: equilibrium_sbar(cb, EquilibriumMaterial(mr))),
                cinv @ deviator(mr.c1 * cbar - mr.c2 * np.linalg.inv(cbar)))
    grad, lam2 = _fibre_grad(c, hf.a)
    if name == "fibre":
        return (isochoric_pk2(c, lambda cb: holzapfel_sbar(cb, hf)),
                2.0 * fibre_f(lam2, hf.k1, hf.k2)[..., None, None] * grad)
    if name == "sq_stretch":
        return isochoric_pk2(c, lambda cb: tn.dyad(hf.a)), grad
    if name == "iso_maxwell":
        ciinv = np.linalg.inv(ci)
        tr = np.einsum('...ij,...ji->...', cbar, ciinv)
        return (isochoric_pk2(c, lambda cb: iso.mu * tn.inverse(ci)),
                iso.mu * (j23 * ciinv - (tr / 3.0)[..., None, None] * cinv))
    pref = 2.0 * fibre_f(lam2 / lam_i ** 2, fib.k1v, fib.k2v) / lam_i ** 2
    return (isochoric_pk2(c, lambda cb: fibre_sbar(cb, lam_i, fib)[1]),
            2.0 * pref[..., None, None] * grad)


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
