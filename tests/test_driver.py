"""Material-point viscoelastic driver: programs, traces, relaxation behavior."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from prestress_tube import (
    LoadProgram,
    MaterialLayer,
    PreStressField,
    extra_cauchy_equilibrium,
    initial_state,
    run_point,
)
from prestress_tube import driver
from prestress_tube import tensor as tn
from prestress_tube.driver import MERGE_FRACTION, step_times
from prestress_tube.errors import DomainError, NonPositiveDeterminant, SingularTensor

from conftest import (
    MEDIA_EQ,
    MEDIA_VISC_FAST,
    MEDIA_VISC_SLOW,
    rand_motion,
    rand_unimodular,
    reference_iso_step,
    reference_run_point,
)

F_STRETCH = np.diag([1.0 / math.sqrt(1.3), 1.0 / math.sqrt(1.3), 1.3])
IDENT = np.eye(3)


def fast_layer():
    return MaterialLayer.from_constants(**MEDIA_EQ, **MEDIA_VISC_FAST)


def slow_layer():
    return MaterialLayer.from_constants(**MEDIA_EQ, **MEDIA_VISC_SLOW)


def iso_only_layer():
    return MaterialLayer.from_constants(**MEDIA_EQ, mu=5.0, eta_matrix=0.5)


# ---------------------------------------------------------------------------
# load programs
# ---------------------------------------------------------------------------

def test_program_validation():
    with pytest.raises(ValueError):
        LoadProgram(((0.5, IDENT), (1.0, F_STRETCH)), dt=0.01)  # must start at t = 0
    with pytest.raises(ValueError):
        LoadProgram(((0.0, IDENT), (0.0, F_STRETCH)), dt=0.01)  # not increasing
    with pytest.raises(ValueError):
        LoadProgram(((0.0, IDENT), (1e-12, F_STRETCH)), dt=0.01)  # gap below 1e-9 dt
    with pytest.raises(ValueError):
        LoadProgram(((0.0, IDENT), (math.nan, F_STRETCH)), dt=0.01)
    with pytest.raises(ValueError):
        LoadProgram(((0.0, IDENT), (1.0, -IDENT)), dt=0.01)  # det <= 0
    with pytest.raises(ValueError):
        LoadProgram(((0.0, IDENT), (1.0, F_STRETCH)), dt=0.0)


def test_program_interpolation_and_hold():
    prog = LoadProgram(((0.0, IDENT), (0.1, F_STRETCH), (5.1, F_STRETCH)), dt=0.01)
    assert prog.t_end == pytest.approx(5.1)
    assert_allclose(prog.F_at(0.0), IDENT)
    assert_allclose(prog.F_at(0.05), 0.5 * (IDENT + F_STRETCH), rtol=1e-14)
    assert_allclose(prog.F_at(2.0), F_STRETCH)
    assert_allclose(prog.F_at(99.0), F_STRETCH)  # hold past the last keyframe
    # an array of times gives the stack of the per-time values, bit for bit
    t = np.array([0.0, 0.03, 0.1, 0.1 + 1e-9, 2.0, 99.0])
    assert np.array_equal(prog.F_at(t), np.stack([prog.F_at(float(x)) for x in t]))
    single = LoadProgram(((0.0, F_STRETCH),), dt=0.01)
    assert np.array_equal(single.F_at(np.array([0.0, 1.0])), np.stack([F_STRETCH] * 2))


def test_dt_must_resolve_relaxation_times():
    prog = LoadProgram(((0.0, IDENT), (1.0, F_STRETCH)), dt=0.05)
    # fastest time constant of the fast set is eta_f/(4 k1v) = 0.025 s
    with pytest.raises(DomainError):
        run_point(prog, fast_layer(), PreStressField(IDENT))


def test_steps_sample_every_keyframe_and_end_at_t_end():
    # keyframes off the k*dt grid: t_end = 1.0 with dt = 0.024 used to end at 1.008
    dt = 0.024
    prog = LoadProgram(((0.0, IDENT), (0.137, F_STRETCH), (1.0, F_STRETCH)), dt=dt)
    trace = run_point(prog, slow_layer(), PreStressField(IDENT))
    for t_k, _ in prog.keyframes:
        assert t_k in trace.t
    assert trace.t[-1] == 1.0
    steps = np.diff(trace.t)
    assert np.all(steps <= dt * (1.0 + MERGE_FRACTION))
    assert np.all(steps >= MERGE_FRACTION * dt)
    assert trace.t.size == 44   # the grid 0, dt, ..., 41 dt plus 0.137 and 1.0


def test_step_grid_merges_near_coincident_points():
    dt = 0.01
    # 0.1 and 0.5 lie on the grid up to rounding: the grid is unchanged
    on = step_times(LoadProgram(((0.0, IDENT), (0.1, F_STRETCH), (0.5, F_STRETCH)), dt=dt))
    assert on.size == 51
    assert_allclose(on, np.arange(51) * dt, rtol=0.0, atol=1e-15)
    # a keyframe a hair past a grid point replaces it rather than adding a sliver step
    t_k = 0.2 + 0.1 * MERGE_FRACTION * dt
    near = step_times(LoadProgram(((0.0, IDENT), (t_k, F_STRETCH), (0.3, F_STRETCH)), dt=dt))
    assert near.size == 31
    assert t_k in near
    assert np.diff(near).min() >= MERGE_FRACTION * dt


# ---------------------------------------------------------------------------
# relaxed starts (fixed points)
# ---------------------------------------------------------------------------

def test_identity_program_stays_stress_free():
    prog = LoadProgram(((0.0, IDENT), (1.0, IDENT)), dt=0.002)
    trace = run_point(prog, fast_layer(), PreStressField(IDENT))
    assert np.max(trace.overstress_norm) < 1e-12
    assert np.max(np.abs(trace.cauchy)) < 1e-12
    assert_allclose(trace.det_ci, 1.0, atol=1e-12)


def test_prestressed_hold_keeps_equilibrium_stress():
    rng = np.random.default_rng(50)
    f0 = PreStressField(rand_unimodular(rng))
    layer = fast_layer()
    prog = LoadProgram(((0.0, IDENT), (0.5, IDENT)), dt=0.002)
    trace = run_point(prog, layer, f0)
    # the initial condition is fully relaxed, so the overstress never wakes up
    assert np.max(trace.overstress_norm) < 1e-12
    f_sf = np.linalg.inv(f0.F0)
    t_eq = extra_cauchy_equilibrium(f_sf, layer.equilibrium)
    for n in (0, trace.t.size // 2, trace.t.size - 1):
        assert_allclose(trace.cauchy[n], t_eq, rtol=1e-11, atol=1e-13)


def test_first_row_is_the_instantaneous_response():
    prog = LoadProgram(((0.0, F_STRETCH), (1.0, F_STRETCH)), dt=0.002)
    layer = fast_layer()
    trace = run_point(prog, layer, PreStressField(IDENT))
    # at t = 0 the state is relaxed by construction: pure equilibrium stress
    t_eq = extra_cauchy_equilibrium(F_STRETCH, layer.equilibrium)
    assert_allclose(trace.cauchy[0], t_eq, rtol=1e-12)
    assert trace.overstress_norm[0] < 1e-13


# ---------------------------------------------------------------------------
# step response: ramp, hold, relax
# ---------------------------------------------------------------------------

def test_step_program_relaxes_to_equilibrium():
    prog = LoadProgram(((0.0, IDENT), (0.1, F_STRETCH), (5.1, F_STRETCH)), dt=0.002)
    layer = fast_layer()
    trace = run_point(prog, layer, PreStressField(IDENT))
    over = trace.overstress_norm
    peak = float(over.max())
    assert peak > 0.1  # the ramp does excite the Maxwell branches
    # monotone decay through the hold and essentially complete relaxation
    hold = over[trace.t >= 0.1]
    assert np.all(np.diff(hold) <= 1e-12)
    assert over[-1] < 1e-3 * peak
    # terminal stress equals the pure equilibrium response
    t_eq = extra_cauchy_equilibrium(F_STRETCH, layer.equilibrium)
    assert_allclose(trace.cauchy[-1], t_eq, rtol=1e-6, atol=1e-9)
    # inelastic fibre stretch ends at the applied fibre stretch; both helix
    # families (+/- beta) see the same stretch under this axisymmetric F
    b = math.radians(MEDIA_EQ["beta_deg"])
    lam_fibre = math.sqrt(math.cos(b) ** 2 / 1.3 + 1.69 * math.sin(b) ** 2)
    assert_allclose(trace.lambda_i[-1], lam_fibre, rtol=1e-6)


def test_overstress_peak_scales_with_viscosity():
    # slower dashpots carry more overstress through the same ramp
    prog = LoadProgram(((0.0, IDENT), (0.1, F_STRETCH), (0.6, F_STRETCH)), dt=0.002)
    fast = run_point(prog, fast_layer(), PreStressField(IDENT))
    slow = run_point(prog, slow_layer(), PreStressField(IDENT))
    assert slow.overstress_norm.max() > fast.overstress_norm.max()


def test_trace_matches_fine_step_rerun():
    # first-order driver: halving-by-100 rerun pins the trajectory to 1e-3
    keys = ((0.0, IDENT), (0.1, F_STRETCH), (0.4, F_STRETCH))
    layer = iso_only_layer()
    f0 = PreStressField(IDENT)
    coarse = run_point(LoadProgram(keys, dt=5e-4), layer, f0)
    fine = run_point(LoadProgram(keys, dt=5e-6), layer, f0)
    idx = np.searchsorted(fine.t, coarse.t)
    assert_allclose(fine.t[idx], coarse.t, atol=1e-12)
    scale = np.max(np.abs(fine.cauchy))
    err = np.max(np.abs(coarse.cauchy - fine.cauchy[idx])) / scale
    assert err < 1e-3


def test_det_ci_stays_unimodular():
    prog = LoadProgram(((0.0, IDENT), (0.1, F_STRETCH), (2.0, F_STRETCH)), dt=0.002)
    trace = run_point(prog, fast_layer(), PreStressField(IDENT))
    assert np.max(np.abs(trace.det_ci - 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# trace bookkeeping
# ---------------------------------------------------------------------------

def test_trace_header_and_rows_shape():
    prog = LoadProgram(((0.0, IDENT), (0.2, F_STRETCH)), dt=0.002)
    trace = run_point(prog, fast_layer(), PreStressField(IDENT))
    header = trace.header()
    assert header[0] == "t_s"
    assert "det_ci" in header
    assert header[-1] == "overstress_kpa"
    assert sum(1 for h in header if h.startswith("lambda_i_")) == trace.lambda_i.shape[1]
    rows = list(trace.rows())
    assert len(rows) == trace.t.size
    assert all(len(r) == len(header) for r in rows)
    # symmetric Cauchy: the six stored components fully describe the tensor
    assert_allclose(trace.cauchy[-1], trace.cauchy[-1].T, atol=1e-13)


def test_trace_is_deterministic():
    prog = LoadProgram(((0.0, IDENT), (0.2, F_STRETCH)), dt=0.002)
    a = run_point(prog, fast_layer(), PreStressField(IDENT))
    b = run_point(prog, fast_layer(), PreStressField(IDENT))
    assert np.array_equal(a.cauchy, b.cauchy)
    assert np.array_equal(a.lambda_i, b.lambda_i)
    assert np.array_equal(a.overstress_norm, b.overstress_norm)


# ---------------------------------------------------------------------------
# batched driver against the per-step reference loop
# ---------------------------------------------------------------------------

VISC_BRANCHES = {
    "iso": dict(mu=MEDIA_VISC_FAST["mu"], eta_matrix=MEDIA_VISC_FAST["eta_matrix"]),
    "fibre": {k: MEDIA_VISC_FAST[k] for k in ("k1v", "k2v", "eta_fibre")},
    "both": MEDIA_VISC_FAST,
    "neither": {},
}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["ramp-hold", "cyclic", "single"]),
       branches=st.sampled_from(sorted(VISC_BRANCHES)),
       seed=st.integers(0, 2 ** 32 - 1),
       dt=st.floats(2e-4, 2.4e-3),
       n_steps=st.floats(3.0, 60.0),
       frac=st.floats(0.05, 0.95),
       cycles=st.integers(1, 3))
def test_batched_driver_matches_per_step_reference(kind, branches, seed, dt, n_steps,
                                                   frac, cycles):
    rng = np.random.default_rng(seed)
    f0 = PreStressField(rand_unimodular(rng))
    F = rand_motion(rng, spread=0.2)
    t_end = n_steps * dt   # keyframes fall off the k*dt grid
    if kind == "ramp-hold":
        keys = ((0.0, IDENT), (frac * t_end, F), (t_end, F))
    elif kind == "cyclic":
        n = 2 * cycles
        keys = tuple((t_end * j / n, F if j % 2 else IDENT) for j in range(n + 1))
    else:
        keys = ((0.0, F),)
    prog = LoadProgram(keys, dt=dt)
    assume(np.all(np.linalg.det(prog.F_at(step_times(prog))) > 0.1))
    layer = MaterialLayer.from_constants(**MEDIA_EQ, **VISC_BRANCHES[branches])

    ref = reference_run_point(prog, layer, f0)
    got = run_point(prog, layer, f0)
    assert np.array_equal(got.t, ref.t)
    scale = np.max(np.abs(ref.cauchy))
    assert np.max(np.abs(got.cauchy - ref.cauchy)) <= 1e-13 * scale
    assert got.lambda_i.shape == ref.lambda_i.shape
    assert_allclose(got.lambda_i, ref.lambda_i, rtol=0.0, atol=1e-14)
    assert np.max(np.abs(got.det_ci - 1.0)) <= 1e-12


def test_corrupted_ci_history_raises_like_per_step_code(monkeypatch):
    # a starting Ci off the unimodular manifold by 1e-3 (the state check itself is bypassed)
    def corrupted(f0, c_lf, fibres):
        good = initial_state(f0, c_lf, fibres)
        return SimpleNamespace(Ci=good.Ci * 1.001, lambda_i=good.lambda_i)

    prog = LoadProgram(((0.0, IDENT), (0.1, F_STRETCH)), dt=0.002)
    layer, f0 = iso_only_layer(), PreStressField(IDENT)
    monkeypatch.setattr("conftest.initial_state", corrupted)
    with pytest.raises(ValueError):
        reference_run_point(prog, layer, f0)
    monkeypatch.setattr(driver, "initial_state", corrupted)
    with pytest.raises(ValueError):
        run_point(prog, layer, f0)


def test_corrupted_ci_step_raises_like_per_step_code(monkeypatch):
    # an update that leaves the unimodular manifold in mid-run
    def drifting_step(c_sf, ci, h, p):
        return reference_iso_step(c_sf, ci, h, p) * 1.001

    evolve = driver.iso_evolve

    def drifting_history(ci0, cbar, h, p):
        ci = evolve(ci0, cbar, h, p)
        ci[5:] *= 1.001
        return ci

    prog = LoadProgram(((0.0, IDENT), (0.1, F_STRETCH)), dt=0.002)
    layer, f0 = iso_only_layer(), PreStressField(IDENT)
    with pytest.raises(ValueError):
        reference_run_point(prog, layer, f0, iso_step=drifting_step)
    monkeypatch.setattr(driver, "iso_evolve", drifting_history)
    with pytest.raises(ValueError):
        run_point(prog, layer, f0)


@pytest.mark.parametrize("visc", ["iso", "both", "neither"])
@pytest.mark.parametrize("f_end, t_end, error", [
    (np.diag([-1.0, -1.0, 1.0]), 0.004, (NonPositiveDeterminant, SingularTensor)),  # det F = 0
    (np.diag([-1.0, -3.0, 1.0 / 3.0]), 0.006, (NonPositiveDeterminant,)),          # det F < 0
])
def test_non_positive_det_step_raises_like_per_step_code(f_end, t_end, error, visc):
    # the first step lands on det F = 0 (det C = 0), or on det F < 0 with a regular C
    prog = LoadProgram(((0.0, IDENT), (t_end, f_end)), dt=0.002)
    layer = MaterialLayer.from_constants(**MEDIA_EQ, **VISC_BRANCHES[visc])
    f0 = PreStressField(IDENT)
    with pytest.raises(error) as ref_err:
        reference_run_point(prog, layer, f0)
    with pytest.raises(ref_err.type):
        run_point(prog, layer, f0)


@pytest.mark.parametrize("visc, inverses", [("neither", 1), ("fibre", 1), ("iso", 2), ("both", 2)])
def test_run_point_inverts_each_history_once(monkeypatch, visc, inverses):
    # one isochoric projection for the equilibrium and the overstress PK2: the C
    # history is inverted once, and the Ci history once when there is an isotropic branch
    shapes = []
    inverse = tn.inverse

    def counting_inverse(a):
        if np.ndim(a) == 3:
            shapes.append(np.shape(a))
        return inverse(a)

    monkeypatch.setattr(tn, "inverse", counting_inverse)
    prog = LoadProgram(((0.0, IDENT), (0.05, F_STRETCH), (0.1, F_STRETCH)), dt=0.002)
    f0 = PreStressField(rand_unimodular(np.random.default_rng(61)))
    layer = MaterialLayer.from_constants(**MEDIA_EQ, **VISC_BRANCHES[visc])
    trace = run_point(prog, layer, f0)
    assert shapes == [(trace.t.size, 3, 3)] * inverses
