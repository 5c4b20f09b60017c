"""Batched 3x3 tensor algebra."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import prestress_tube
from prestress_tube import tensor as tn
from prestress_tube.errors import NonPositiveDeterminant, SingularTensor

from conftest import rand_spd, rand_motion
from reference import deviator, identity, sym


def test_identity_shapes():
    assert identity().shape == (3, 3)
    assert identity((4, 2)).shape == (4, 2, 3, 3)
    assert_allclose(identity((5,))[3], np.eye(3))


def test_transpose_trace_det_inverse_batched():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 5, 3, 3)) + 3.0 * identity((4, 5))
    assert_allclose(tn.transpose(a), np.swapaxes(a, -1, -2))
    assert_allclose(tn.trace(a), a[..., 0, 0] + a[..., 1, 1] + a[..., 2, 2])
    assert_allclose(tn.det(a), np.linalg.det(a))
    assert_allclose(a @ tn.inverse(a), identity((4, 5)), atol=1e-12)


@pytest.mark.parametrize("shape", [(), (200,), (4, 5)])
def test_det_is_the_first_row_expansion_bit_for_bit(shape):
    # det indexes the transpose, so a single tensor runs on numpy scalars; its values
    # are the first-row cofactor expansion's on a[..., i, j], bit for bit, on a single
    # tensor and on stacks with one and two batch axes
    a = np.random.default_rng(11).normal(size=shape + (3, 3))
    want = (a[..., 0, 0] * (a[..., 1, 1] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 1])
            - a[..., 0, 1] * (a[..., 1, 0] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 0])
            + a[..., 0, 2] * (a[..., 1, 0] * a[..., 2, 1] - a[..., 1, 1] * a[..., 2, 0]))
    got = tn.det(a)
    assert np.shape(got) == shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("shape", [(), (200,), (4, 5)])
def test_inverse_is_the_adjugate_over_det_bit_for_bit(shape):
    # adj_ij = a_{j+1,i+1} a_{j+2,i+2} - a_{j+1,i+2} a_{j+2,i+1} (indices mod 3) over
    # det, in that product order, bit for bit on a single tensor and on stacks with one
    # and two batch axes, with its det computed or given: each tensor inverts alone to
    # bitwise its slice of its stack's inverse
    a = np.random.default_rng(12).normal(size=shape + (3, 3))
    d, want = tn.det(a), np.empty_like(a)
    for i, j in np.ndindex(3, 3):
        i1, i2, j1, j2 = (i + 1) % 3, (i + 2) % 3, (j + 1) % 3, (j + 2) % 3
        want[..., i, j] = (a[..., j1, i1] * a[..., j2, i2] - a[..., j1, i2] * a[..., j2, i1]) / d
    for got in (tn.inverse(a), tn.inverse(a, d)):
        assert got.shape == a.shape and np.array_equal(got, want)
    for k in np.ndindex(shape):
        assert np.array_equal(tn.inverse(a[k]), want[k])
        assert np.array_equal(tn.inverse(a[k].tolist(), d[k]), want[k])


def test_inverse_rejects_singular():
    a = np.zeros((3, 3))
    a[0, 0] = 1.0
    with pytest.raises(SingularTensor):
        tn.inverse(a)


def test_inverse_rejects_singular_in_batch():
    batch = np.stack([np.eye(3), np.diag([1.0, 1.0, 0.0])])
    with pytest.raises(SingularTensor):
        tn.inverse(batch)


def test_unimodular_det_one():
    rng = np.random.default_rng(2)
    a = np.stack([rand_spd(rng) for _ in range(20)])
    assert_allclose(tn.det(tn.unimodular(a)), 1.0, rtol=0, atol=1e-14)
    # scaling invariance: unimodular part ignores a uniform volume factor
    assert_allclose(tn.unimodular(2.7 * a), tn.unimodular(a), rtol=1e-14)


def test_unimodular_rejects_nonpositive_det():
    with pytest.raises(NonPositiveDeterminant):
        tn.unimodular(-np.eye(3))


def test_deviator_traceless():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((7, 3, 3))
    d = deviator(a)
    assert_allclose(tn.trace(d), 0.0, atol=1e-14)
    assert_allclose(d + tn.trace(a)[..., None, None] / 3.0 * identity((7,)), a)


def test_ddot_and_dyad():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))
    assert_allclose(tn.ddot(a, b), np.sum(a * b))
    u = rng.standard_normal(3)
    v = rng.standard_normal(3)
    assert_allclose(tn.dyad(u, v), np.outer(u, v))
    assert_allclose(tn.dyad(u), np.outer(u, u))
    # contraction identity: (u dyad u) : A = u . A u
    assert_allclose(tn.ddot(tn.dyad(u), a), u @ a @ u)


def test_sym_and_is_symmetric():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 3))
    s = sym(a)
    assert tn.is_symmetric(s)
    assert not tn.is_symmetric(a)
    # tolerance is relative to the magnitude of the array
    big = 1e8 * np.eye(3)
    big[0, 1] = 1e-6
    assert tn.is_symmetric(big)


@pytest.mark.parametrize("shape", [(3, 3), (4, 3, 3)])
def test_zero_tensor_is_symmetric(shape):
    # no magnitude to take the tolerance relative to: the zero tensor, or a batch of
    # them, is symmetric outright
    assert tn.is_symmetric(np.zeros(shape)) is True


def test_batched_ops_match_loop():
    rng = np.random.default_rng(7)
    batch = np.stack([rand_spd(rng) for _ in range(6)])
    inv_batch = tn.inverse(batch)
    uni_batch = tn.unimodular(batch)
    for i in range(6):
        assert_allclose(inv_batch[i], np.linalg.inv(batch[i]), rtol=1e-12)
        assert_allclose(uni_batch[i], tn.unimodular(batch[i]), rtol=1e-14)


def _conditioned_stack(seed, n, log_kappa, log_scale):
    """n tensors scale U diag(1, s2, 1/kappa) V^T, U and V random rotations or
    reflections, s2 log-uniform in [1/kappa, 1] per tensor."""
    rng = np.random.default_rng(seed)
    u, v = (np.linalg.qr(rng.standard_normal((n, 3, 3)))[0] for _ in range(2))
    s = np.ones((n, 3))
    s[:, 1], s[:, 2] = 10.0 ** (-log_kappa * rng.uniform(0.0, 1.0, n)), 10.0 ** -log_kappa
    return 10.0 ** log_scale * (u * s[:, None, :]) @ tn.transpose(v)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 8), log_kappa=st.floats(0.0, 8.0),
       log_scale=st.floats(-1.0, 1.0))
def test_closed_forms_match_lapack_to_their_condition(seed, n, log_kappa, log_scale):
    # the cofactor expansion and adjugate / det err by a few eps k relative, k =
    # ||a||^3 / |det a| (between cond(a) and cond(a)^2, as the 2x2 minors cancel): 4.1 eps k
    # for det and 1.7 eps k for the inverse at worst over 3,000 seeded stacks of cond up
    # to 1e8; LAPACK errs by about eps cond(a), well inside the bound
    a = _conditioned_stack(seed, n, log_kappa, log_scale)
    eps, det, inv = np.finfo(float).eps, np.linalg.det(a), np.linalg.inv(a)
    k = np.linalg.norm(a, 2, axis=(1, 2)) ** 3 / np.abs(det)
    assert np.all(np.abs(tn.det(a) - det) <= 16.0 * eps * k * np.abs(det))
    if np.any(np.abs(tn.det(a)) <= tn.SINGULAR_TOL):
        with pytest.raises(SingularTensor):
            tn.inverse(a)
    else:
        err = np.linalg.norm(tn.inverse(a) - inv, 2, axis=(1, 2))
        assert np.all(err <= 16.0 * eps * k * np.linalg.norm(inv, 2, axis=(1, 2)))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 8), data=st.data())
def test_one_exactly_singular_member_fails_the_batch(seed, n, data):
    # a member with a zero row, or whose last row is 2^p times its middle one (every
    # 2x2 minor of the two is then exactly 0), has det exactly 0, so its inverse
    # raises for the whole batch, with or without the det given
    a = _conditioned_stack(seed, n, 1.0, 0.0)
    j, row, p = (data.draw(st.integers(lo, hi)) for lo, hi in ((0, n - 1), (0, 3), (-3, 3)))
    a[j, min(row, 2)] = 2.0 ** p * a[j, 1] if row == 3 else 0.0
    d = tn.det(a)
    assert d[j] == 0.0
    for given_det in (None, d):
        with pytest.raises(SingularTensor):
            tn.inverse(a, given_det)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 8), data=st.data())
def test_nan_entries_propagate_to_their_member_only(seed, n, data):
    # a NaN entry makes its member's det and every entry of its inverse NaN (no
    # SingularTensor: |NaN| <= tol is false); the other members are untouched
    a = _conditioned_stack(seed, n, 1.0, 0.0)
    j, row, col = (data.draw(st.integers(0, hi)) for hi in (n - 1, 2, 2))
    b = a.copy()
    b[j, row, col] = np.nan
    others = np.arange(n) != j
    assert np.isnan(tn.det(b)[j]) and np.array_equal(tn.det(b)[others], tn.det(a)[others])
    inv_a, inv_b = tn.inverse(a), tn.inverse(b)
    assert np.isnan(inv_b[j]).all() and np.array_equal(inv_b[others], inv_a[others])
    assert np.isnan(tn.unimodular(np.abs(b) + 3.0 * np.eye(3))[j]).all()


def test_no_lapack_det_or_inverse_in_the_package():
    # the package's 3x3 dets and inverses are tensor.det and tensor.inverse: no
    # np.linalg.det or np.linalg.inv (by attribute or import); the wall Newton's
    # np.linalg.solve stays, and shows that the walk sees such attributes
    named = []
    for path in Path(prestress_tube.__file__).resolve().parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute) \
                    and node.value.attr == "linalg":
                named.append((path.name, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
                named.extend((path.name, alias.name) for alias in node.names)
    assert ("tube.py", "solve") in named
    assert [x for x in named if x[1] in ("det", "inv")] == []
