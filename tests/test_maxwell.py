"""Maxwell overstress branches: energies, flow rules, implicit updates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from prestress_tube import (
    FibreMaxwellParams,
    IsoMaxwellParams,
    PreStressField,
    ViscousState,
    fibre_directions,
    fibre_evolve,
    fibre_evolve_step,
    fibre_flow_rhs,
    fibre_overstress,
    fibre_overstress_scalar,
    fibre_sq_stretch,
    initial_state,
    iso_energy,
    iso_evolve_step,
    iso_flow_rhs,
    iso_overstress,
    overstress_pk2_sf,
    visc_fibre_energy,
    visc_fibre_f,
)
from prestress_tube import tensor as tn
from prestress_tube.errors import NoConvergence, NonPositiveStretch

from conftest import (fd_pk2, ode_reference, rand_spd, rand_unimodular, reference_fibre_step,
                      rel_err, rk4_path)

ISO = IsoMaxwellParams(mu=5.0, eta=5.0)
FIB = FibreMaxwellParams(k1v=5.3, k2v=0.8393, eta_f=5.3, a=np.array([0.0, 1.0, 0.0]))
C_STEP = np.diag([1.44, 1.0 / 1.2, 1.0 / 1.2])


# ---------------------------------------------------------------------------
# parameter / state validation
# ---------------------------------------------------------------------------

def test_param_validation():
    with pytest.raises(ValueError):
        IsoMaxwellParams(mu=5.0, eta=0.0)
    with pytest.raises(ValueError):
        FibreMaxwellParams(k1v=5.3, k2v=0.8393, eta_f=-1.0, a=np.array([0.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        ViscousState(np.diag([2.0, 1.0, 1.0]), np.array([1.0]))  # det != 1
    with pytest.raises(ValueError):
        ViscousState(np.eye(3), np.array([0.0]))


def test_state_copy_is_deep():
    st = ViscousState(np.eye(3), np.array([1.0, 1.1]))
    st2 = st.copy()
    st2.Ci[0, 0] = 2.0
    st2.lambda_i[0] = 3.0
    assert st.Ci[0, 0] == 1.0
    assert st.lambda_i[0] == 1.0


# ---------------------------------------------------------------------------
# isotropic branch
# ---------------------------------------------------------------------------

def test_iso_overstress_is_energy_gradient():
    rng = np.random.default_rng(30)
    for _ in range(5):
        c = rand_spd(rng)
        f = rand_unimodular(rng)
        ci = tn.unimodular(tn.sym(f @ f.T) + 0.5 * np.eye(3))
        s = iso_overstress(c, ci, ISO)
        s_fd = fd_pk2(lambda x: iso_energy(x, ci, ISO), c)
        assert rel_err(s, s_fd) < 1e-7
        assert tn.is_symmetric(s, tol=1e-10)


def test_iso_relaxed_state_carries_no_stress():
    rng = np.random.default_rng(31)
    c = rand_spd(rng)
    ci = tn.unimodular(c)
    assert_allclose(iso_overstress(c, ci, ISO), 0.0, atol=1e-13)
    assert iso_energy(c, ci, ISO) == pytest.approx(0.0, abs=1e-13)
    # and the flow rule keeps it there
    assert_allclose(iso_flow_rhs(c, ci, ISO), 0.0, atol=1e-13)
    assert_allclose(iso_evolve_step(c, ci, 0.05, ISO), ci, rtol=1e-13)


def test_iso_step_matches_adaptive_reference():
    # short step-response run; scheme is first order so dt must be small
    dt = 5e-4
    t_rec = np.arange(1, 101) * 0.01
    ref = ode_reference(lambda y: iso_flow_rhs(C_STEP, y.reshape(3, 3), ISO).ravel(),
                        np.eye(3), t_rec)
    ci = np.eye(3)
    err = 0.0
    nsub = round(0.01 / dt)
    for i in range(t_rec.size):
        for _ in range(nsub):
            ci = iso_evolve_step(C_STEP, ci, dt, ISO)
        err = max(err, np.max(np.abs(ci - ref[i].reshape(3, 3))))
    assert err < 1e-4


def test_iso_step_first_order_in_dt():
    def final_ci(dt):
        ci = np.eye(3)
        for _ in range(int(round(1.0 / dt))):
            ci = iso_evolve_step(C_STEP, ci, dt, ISO)
        return ci

    exact = ode_reference(lambda y: iso_flow_rhs(C_STEP, y.reshape(3, 3), ISO).ravel(),
                          np.eye(3), np.array([1.0]))[0].reshape(3, 3)
    e1 = np.max(np.abs(final_ci(0.01) - exact))
    e2 = np.max(np.abs(final_ci(0.005) - exact))
    assert e1 / e2 == pytest.approx(2.0, rel=0.2)


def test_iso_det_preserved_over_many_steps():
    ci = np.eye(3)
    for _ in range(2000):
        ci = iso_evolve_step(C_STEP, ci, 0.01, ISO)
    assert abs(np.linalg.det(ci) - 1.0) < 1e-13
    # fully relaxed by t = 20 (tau = 1 s)
    assert_allclose(ci, tn.unimodular(C_STEP), rtol=1e-8)


def test_iso_energy_decays_under_constant_strain():
    ci = np.eye(3)
    energies = []
    for _ in range(200):
        energies.append(iso_energy(C_STEP, ci, ISO))
        ci = iso_evolve_step(C_STEP, ci, 0.01, ISO)
    assert np.all(np.diff(energies) < 0.0)


def test_iso_flow_rhs_vs_update_consistency():
    # one implicit step at tiny dt agrees with the explicit rate
    rng = np.random.default_rng(32)
    c = rand_spd(rng)
    ci = tn.unimodular(rand_spd(rng))
    dt = 1e-8
    step = (iso_evolve_step(c, ci, dt, ISO) - ci) / dt
    assert rel_err(step, iso_flow_rhs(c, ci, ISO)) < 1e-5


# ---------------------------------------------------------------------------
# fibre branch
# ---------------------------------------------------------------------------

def test_visc_fibre_f_is_energy_derivative():
    for lam2e in (0.85, 1.0, 1.2, 1.69):
        h = 1e-7
        dfd = (visc_fibre_energy(lam2e + h, 5.3, 0.8393)
               - visc_fibre_energy(lam2e - h, 5.3, 0.8393)) / (2.0 * h)
        assert_allclose(visc_fibre_f(lam2e, 5.3, 0.8393), dfd, rtol=1e-6, atol=1e-9)


def test_fibre_overstress_gradient_and_guards():
    rng = np.random.default_rng(33)
    for _ in range(5):
        c = rand_spd(rng)
        lam_i = rng.uniform(0.85, 1.2)
        pref, s = fibre_overstress(c, lam_i, FIB)
        s_fd = fd_pk2(
            lambda x: visc_fibre_energy(fibre_sq_stretch(x, FIB.a) / lam_i ** 2,
                                        FIB.k1v, FIB.k2v), c)
        assert rel_err(s, s_fd) < 1e-6
        assert_allclose(pref, fibre_overstress_scalar(math.sqrt(fibre_sq_stretch(c, FIB.a)),
                                                      lam_i, FIB), rtol=1e-13)
    with pytest.raises(NonPositiveStretch):
        fibre_overstress_scalar(1.2, 0.0, FIB)


def test_fibre_relaxed_state_carries_no_stress():
    assert fibre_overstress_scalar(1.3, 1.3, FIB) == 0.0
    assert fibre_flow_rhs(1.3, 1.3, FIB) == 0.0
    assert fibre_evolve_step(1.3, 1.3, 0.01, FIB)[0] == pytest.approx(1.3, rel=1e-13)


def test_fibre_step_matches_adaptive_reference():
    dt = 2e-5
    t_rec = np.arange(1, 101) * 0.01
    ref = ode_reference(lambda y: np.array([fibre_flow_rhs(1.3, y[0], FIB)]),
                        [1.0], t_rec)[:, 0]
    li = 1.0
    err = 0.0
    nsub = round(0.01 / dt)
    for i in range(t_rec.size):
        for _ in range(nsub):
            li = fibre_evolve_step(1.3, li, dt, FIB)[0]
        err = max(err, abs(li - ref[i]))
    assert err < 2e-5


def test_fibre_step_first_order_in_dt():
    exact = ode_reference(lambda y: np.array([fibre_flow_rhs(1.3, y[0], FIB)]),
                          [1.0], np.array([1.0]))[0, 0]

    def final_li(dt):
        li = 1.0
        for _ in range(int(round(1.0 / dt))):
            li = fibre_evolve_step(1.3, li, dt, FIB)[0]
        return li

    e1 = abs(final_li(0.01) - exact)
    e2 = abs(final_li(0.005) - exact)
    assert e1 / e2 == pytest.approx(2.0, rel=0.2)


def test_fibre_full_relaxation_limit():
    li = 1.0
    for _ in range(3000):
        li = fibre_evolve_step(1.3, li, 0.01, FIB)[0]
    assert li == pytest.approx(1.3, abs=1e-9)


def test_fibre_step_monotone_and_bounded():
    li = 1.0
    prev = li
    for _ in range(500):
        li = fibre_evolve_step(1.3, li, 0.01, FIB)[0]
        assert prev <= li <= 1.3 + 1e-12
        prev = li


def test_fibre_step_large_dt_stable():
    # implicit update stays inside [lam_i_old, lam] even for dt >> tau
    li = fibre_evolve_step(1.3, 1.0, 50.0, FIB)[0]
    assert 1.0 < li <= 1.3


def test_fibre_step_rejects_out_of_range_stretch():
    with pytest.raises(NoConvergence):
        fibre_evolve_step(8.0, 1.0, 0.01, FIB)


FIB_FAST = FibreMaxwellParams(k1v=5.3, k2v=0.8393, eta_f=0.53, a=np.array([0.0, 1.0, 0.0]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(fib=st.sampled_from([FIB, FIB_FAST]),
       lam_i0=st.floats(0.8, 1.3),
       steps=st.lists(st.tuples(st.floats(0.3, 3.0), st.floats(1e-5, 0.2)),
                      min_size=1, max_size=40))
def test_fibre_evolve_matches_stepping(fib, lam_i0, steps):
    # the whole-run loop against one step at a time: the closure-based per-step
    # update, and the library's one-step call, give bit-identical histories
    lam, h = (np.array(v) for v in zip(*steps))
    ref, k_max, r_max = [lam_i0], 0, 0.0
    try:
        for lam_n, dt in steps:
            li, k, r = reference_fibre_step(lam_n, ref[-1], dt, fib)
            assert (li, k, r) == fibre_evolve_step(lam_n, ref[-1], dt, fib)
            ref.append(li)
            k_max, r_max = max(k_max, k), max(r_max, r)
    except NoConvergence as err:  # an elastic stretch outside LAM_E_RANGE
        with pytest.raises(NoConvergence) as got:
            fibre_evolve(lam, lam_i0, h, fib)
        assert got.value.last_iterate == err.last_iterate
        return
    hist, its, r_top = fibre_evolve(lam, lam_i0, h, fib)
    assert hist.tolist() == ref
    assert (its, r_top) == (k_max, r_max)


def test_rk4_oracle_cross_check():
    # the two reference integrators agree with each other
    rhs = lambda y: np.array([fibre_flow_rhs(1.3, y[0], FIB)])
    a = rk4_path(rhs, np.array([1.0]), 1.0, 1e-4)[0]
    b = ode_reference(rhs, [1.0], np.array([1.0]))[0, 0]
    assert abs(a - b) < 1e-12


# ---------------------------------------------------------------------------
# assembled overstress and initial conditions
# ---------------------------------------------------------------------------

def test_overstress_pk2_assembly():
    rng = np.random.default_rng(34)
    c = rand_spd(rng)
    a_pair = fibre_directions(math.radians(29.0))
    fibres = tuple(FibreMaxwellParams(5.3, 0.8393, 0.53, a) for a in a_pair)
    state = ViscousState(tn.unimodular(rand_spd(rng)), np.array([1.05, 0.95]))
    s = overstress_pk2_sf(c, state, ISO, fibres)
    expect = iso_overstress(c, state.Ci, ISO)
    for lam_i, fp in zip(state.lambda_i, fibres):
        expect = expect + fibre_overstress(c, lam_i, fp)[1]
    assert_allclose(s, expect, rtol=1e-13)
    # iso branch optional
    s_nofibre = overstress_pk2_sf(c, ViscousState(state.Ci, np.zeros(0)), ISO, ())
    assert_allclose(s_nofibre, iso_overstress(c, state.Ci, ISO), rtol=1e-14)
    s_noiso = overstress_pk2_sf(c, state, None, fibres)
    assert_allclose(s_noiso, expect - iso_overstress(c, state.Ci, ISO), rtol=1e-12,
                    atol=1e-14)


def test_initial_state_is_relaxed():
    rng = np.random.default_rng(35)
    a_pair = fibre_directions(math.radians(29.0))
    fibres = tuple(FibreMaxwellParams(5.3, 0.8393, 0.53, a) for a in a_pair)
    for _ in range(5):
        f0 = PreStressField(rand_unimodular(rng))
        c_lf = np.eye(3)
        st = initial_state(f0, c_lf, fibres)
        f0inv = np.linalg.inv(f0.F0)
        c_sf = f0inv.T @ c_lf @ f0inv
        assert_allclose(st.Ci, tn.unimodular(c_sf), rtol=1e-12)
        for lam_i, fp in zip(st.lambda_i, fibres):
            assert_allclose(lam_i ** 2, fibre_sq_stretch(c_sf, fp.a), rtol=1e-12)
        assert_allclose(overstress_pk2_sf(c_sf, st, ISO, fibres), 0.0, atol=1e-13)


def test_initial_state_diagonal_hand_case():
    # F0 = diag(cf, 1/f, 1/c) with no motion: C_sf = diag((cf)^-2, f^2, c^2)
    cf, f, c = 1.2 * 0.9, 0.9, 1.2
    f0 = PreStressField(np.diag([cf, 1.0 / f, 1.0 / c]))
    st = initial_state(f0, np.eye(3), ())
    assert_allclose(st.Ci, np.diag([cf ** -2, f ** 2, c ** 2]), rtol=1e-13)
