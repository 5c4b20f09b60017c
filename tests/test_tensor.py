"""Batched 3x3 tensor algebra."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

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


def test_batched_ops_match_loop():
    rng = np.random.default_rng(7)
    batch = np.stack([rand_spd(rng) for _ in range(6)])
    inv_batch = tn.inverse(batch)
    uni_batch = tn.unimodular(batch)
    for i in range(6):
        assert_allclose(inv_batch[i], np.linalg.inv(batch[i]), rtol=1e-12)
        assert_allclose(uni_batch[i], tn.unimodular(batch[i]), rtol=1e-14)
