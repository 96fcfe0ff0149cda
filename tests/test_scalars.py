import numpy as np
import pytest

from jcone.scalars import (QUAT_I, QUAT_J, QUAT_K, QUAT_ONE, Quaternion,
                           psi_scalar, psi_scalar_inverse, quat_conj, quat_mul,
                           quat_norm, trd_scalar)


def random_quat(rng):
    return Quaternion(*rng.standard_normal(4))


class TestMultiplication:
    def test_i_times_j_is_k(self):
        assert quat_mul(QUAT_I, QUAT_J).isclose(QUAT_K)

    def test_unit_relations(self):
        minus_one = Quaternion(-1.0)
        for u in (QUAT_I, QUAT_J, QUAT_K):
            assert quat_mul(u, u).isclose(minus_one)
        ijk = quat_mul(quat_mul(QUAT_I, QUAT_J), QUAT_K)
        assert ijk.isclose(minus_one)

    def test_identity(self):
        rng = np.random.default_rng(0)
        q = random_quat(rng)
        assert quat_mul(q, QUAT_ONE).isclose(q)
        assert quat_mul(QUAT_ONE, q).isclose(q)

    def test_one_plus_i_times_one_plus_j(self):
        got = quat_mul(Quaternion(1, 1, 0, 0), Quaternion(1, 0, 1, 0))
        assert got.isclose(Quaternion(1, 1, 1, 1))

    def test_norm_multiplicative(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p, q = random_quat(rng), random_quat(rng)
            assert quat_norm(quat_mul(p, q)) == pytest.approx(
                quat_norm(p) * quat_norm(q), rel=1e-12)

    def test_associative(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p, q, r = (random_quat(rng) for _ in range(3))
            lhs = quat_mul(quat_mul(p, q), r)
            rhs = quat_mul(p, quat_mul(q, r))
            assert lhs.isclose(rhs)


class TestConjugationAndTrace:
    def test_conj_i(self):
        assert quat_conj(QUAT_I).isclose(Quaternion(0, -1, 0, 0))

    def test_conj_involutive(self):
        rng = np.random.default_rng(3)
        q = random_quat(rng)
        assert quat_conj(quat_conj(q)).isclose(q)

    def test_norm_squared_is_q_qbar(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            q = random_quat(rng)
            prod = quat_mul(q, quat_conj(q))
            assert prod.isclose(Quaternion(quat_norm(q) ** 2))

    def test_trd_is_real_part(self):
        assert trd_scalar(Quaternion(1, 2, 3, 4)) == 1.0

    def test_trd_cyclic(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p, q = random_quat(rng), random_quat(rng)
            lhs = trd_scalar(quat_mul(p, q))
            rhs = trd_scalar(quat_mul(q, p))
            assert lhs == pytest.approx(rhs, abs=1e-14 * max(1.0, abs(lhs)))


class TestEmbedding:
    def test_psi_of_j(self):
        np.testing.assert_allclose(psi_scalar(QUAT_J),
                                   np.array([[0, 1], [-1, 0]], dtype=complex))

    def test_psi_of_one(self):
        np.testing.assert_allclose(psi_scalar(QUAT_ONE), np.eye(2))

    def test_psi_i_times_psi_j_is_psi_k(self):
        np.testing.assert_allclose(psi_scalar(QUAT_I) @ psi_scalar(QUAT_J),
                                   psi_scalar(QUAT_K), atol=1e-15)

    def test_homomorphism(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p, q = random_quat(rng), random_quat(rng)
            lhs = psi_scalar(quat_mul(p, q))
            rhs = psi_scalar(p) @ psi_scalar(q)
            assert np.linalg.norm(lhs - rhs) <= 1e-14 * max(
                1.0, quat_norm(p) * quat_norm(q))

    def test_conj_maps_to_adjoint(self):
        rng = np.random.default_rng(8)
        q = random_quat(rng)
        np.testing.assert_allclose(psi_scalar(quat_conj(q)),
                                   psi_scalar(q).conj().T, atol=1e-15)

    def test_det_is_norm_squared(self):
        rng = np.random.default_rng(9)
        q = random_quat(rng)
        assert np.linalg.det(psi_scalar(q)) == pytest.approx(
            quat_norm(q) ** 2, rel=1e-12)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(10)
        q = random_quat(rng)
        assert psi_scalar_inverse(psi_scalar(q)).isclose(q, tol=1e-14)

    def test_inverse_rejects_outside_image(self):
        with pytest.raises(ValueError):
            psi_scalar_inverse(np.array([[1.0, 0.0], [0.0, 2.0]]))

