import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from jcone.errors import DimensionMismatch, NotJHermitian, Singular
from jcone.jcalc import (bullet, bullet_commutator, bullet_inverse, exp_J,
                         log_J, polar_decompose_bullet, pow_J,
                         random_invertible, random_jhermitian, random_kj,
                         random_pj, random_pj_bounded)
from jcone.jstruct import (Signature, in_pj, is_in_K_J, is_j_hermitian,
                           is_j_positive, sharp)
from jcone.matcore import (_embed, adjoint, allclose, fnorm, from_real,
                           identity, mat_inverse)

SIG = Signature(1, 1)
FIELDS = ("R", "C", "H")


class TestBullet:
    def test_j_neutral(self):
        rng = np.random.default_rng(0)
        for field in FIELDS:
            sig = Signature(2, 1)
            j = sig.matrix(field)
            A = random_invertible(sig, field, rng)
            assert allclose(bullet(j, A, sig), A, tol=1e-14)
            assert allclose(bullet(A, j, sig), A, tol=1e-14)

    def test_diagonal_example(self):
        got = bullet(np.diag([2.0, -3.0]), np.diag([8.0, -27.0]), SIG)
        np.testing.assert_allclose(got, np.diag([16.0, -81.0]))

    def test_associative(self):
        rng = np.random.default_rng(1)
        for field in FIELDS:
            sig = Signature(1, 2)
            A, B, C = (random_invertible(sig, field, rng) for _ in range(3))
            assert allclose(bullet(bullet(A, B, sig), C, sig),
                            bullet(A, bullet(B, C, sig), sig), tol=1e-12)

    def test_inverse(self):
        assert allclose(bullet_inverse(SIG.matrix(), SIG), SIG.matrix())
        np.testing.assert_allclose(bullet_inverse(np.diag([2.0, -3.0]), SIG),
                                   np.diag([0.5, -1.0 / 3.0]))
        rng = np.random.default_rng(2)
        for field in FIELDS:
            sig = Signature(2, 1)
            A = random_invertible(sig, field, rng)
            assert allclose(bullet(A, bullet_inverse(A, sig), sig),
                            sig.matrix(field), tol=1e-10)
            assert allclose(bullet(bullet_inverse(A, sig), A, sig),
                            sig.matrix(field), tol=1e-10)

    def test_dimension_mismatch(self):
        # J is applied as a row sign flip, which would broadcast a 1 x n operand.
        sig = Signature(2, 1)
        for A, B in ((np.eye(3), np.ones((1, 3))), (np.ones((3, 1)), np.eye(3))):
            with pytest.raises(DimensionMismatch):
                bullet(A, B, sig)
        with pytest.raises(DimensionMismatch):
            bullet_inverse(np.eye(2), sig)

    def test_commutator(self):
        rng = np.random.default_rng(3)
        X = random_invertible(SIG, "R", rng)
        assert fnorm(bullet_commutator(X, X, SIG)) <= 1e-14
        assert fnorm(bullet_commutator(SIG.matrix(), X, SIG)) <= 1e-14

    def test_commutator_nonzero_for_product_commuting_pair(self):
        # This pair commutes for the ordinary product but not for the bullet.
        A = np.array([[2.0, 1.0], [-1.0, -2.0]])
        B = np.array([[3.0, 1.0], [-1.0, -1.0]])
        assert fnorm(A @ B - B @ A) <= 1e-14
        assert fnorm(bullet_commutator(A, B, SIG)) > 1.0


class TestExpLog:
    def test_exp_of_zero_is_j(self):
        got = exp_J(np.zeros((2, 2)), SIG)
        np.testing.assert_allclose(got.matrix, SIG.matrix())

    def test_paper_cosh_sinh_example(self):
        X = np.array([[0, 1j], [1j, 0]])
        expected = np.array([[np.cosh(1), 1j * np.sinh(1)],
                             [1j * np.sinh(1), -np.cosh(1)]])
        np.testing.assert_allclose(exp_J(X, SIG).matrix, expected, atol=1e-12)

    def test_diagonal_example(self):
        X = np.diag([np.log(2.0), -np.log(3.0)])
        np.testing.assert_allclose(exp_J(X, SIG).matrix, np.diag([2.0, -3.0]),
                                   atol=1e-12)

    def test_log_of_j_is_zero(self):
        cert = is_j_positive(SIG.matrix(), SIG)
        assert fnorm(log_J(cert)) <= 1e-12

    def test_log_diagonal(self):
        cert = is_j_positive(np.diag([2.0, -3.0]), SIG)
        np.testing.assert_allclose(log_J(cert),
                                   np.diag([np.log(2.0), -np.log(3.0)]),
                                   atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        for field in FIELDS:
            sig = Signature(2, 1)
            X = random_pj(sig, field, rng)
            assert allclose(exp_J(log_J(X), sig).matrix, X.matrix, tol=1e-9)
            H = random_jhermitian(sig, field, rng)
            assert allclose(log_J(exp_J(H, sig)), H, tol=1e-9)

    def test_exp_requires_j_hermitian(self):
        with pytest.raises(NotJHermitian):
            exp_J(np.array([[0.0, 1.0], [1.0, 0.0]]), SIG)

    def test_inverse_exponential_law(self):
        rng = np.random.default_rng(5)
        for field in FIELDS:
            sig = Signature(1, 2)
            X = random_jhermitian(sig, field, rng)
            j = sig.matrix(field)
            from jcone.matcore import mat_exp_h
            lhs = mat_inverse(exp_J(X, sig).matrix)
            rhs = mat_exp_h(-(j @ X)) @ j
            assert allclose(lhs, rhs, tol=1e-10)

    def test_inverse_usually_differs_from_exp_of_negative(self):
        rng = np.random.default_rng(6)
        hits = 0
        for _ in range(50):
            X = random_jhermitian(SIG, "C", rng)
            gap = fnorm(mat_inverse(exp_J(X, SIG).matrix)
                        - exp_J(-X, SIG).matrix)
            if gap > 1e-6:
                hits += 1
        assert hits >= 45


class TestPowers:
    @pytest.mark.parametrize("t", [np.nan, 32.5, -32.5, np.array([0.5, np.nan])])
    def test_power_outside_its_range_is_named(self, t):
        # Checked before the eigendecomposition: a NaN power would otherwise
        # surface as a NaN eigenvalue of the result.
        X = random_pj(Signature(2, 1), "R", 3)
        with pytest.raises(ValueError, match=r"^\|t\| > 32.0 rejected"):
            pow_J(X, t)
        pow_J(X, 32.0), pow_J(X, -32.0)   # the bounds themselves are in range

    def test_power_zero_and_one(self):
        rng = np.random.default_rng(7)
        X = random_pj(SIG, "C", rng)
        assert allclose(pow_J(X, 0.0).matrix, SIG.matrix("C"), tol=1e-12)
        assert allclose(pow_J(X, 1.0).matrix, X.matrix, tol=1e-12)

    def test_diagonal_square_root(self):
        X = is_j_positive(np.diag([16.0, -81.0]), SIG)
        np.testing.assert_allclose(pow_J(X, 0.5).matrix, np.diag([4.0, -9.0]),
                                   atol=1e-12)

    def test_square_of_square_root(self):
        rng = np.random.default_rng(8)
        for field in FIELDS:
            sig = Signature(2, 1)
            X = random_pj(sig, field, rng)
            assert allclose(pow_J(pow_J(X, 0.5), 2.0).matrix, X.matrix,
                            tol=1e-9)

    def test_power_laws(self):
        rng = np.random.default_rng(9)
        sig = Signature(1, 2)
        for field in FIELDS:
            X = random_pj_bounded(sig, field, rng)
            j = sig.matrix(field)
            s, t = 0.7, -1.3
            assert allclose(pow_J(pow_J(X, s), t).matrix,
                            pow_J(X, s * t).matrix, tol=1e-9)
            assert allclose(log_J(pow_J(X, s)), s * log_J(X), tol=1e-9)
            assert allclose(mat_inverse(pow_J(X, s).matrix),
                            pow_J(is_j_positive(mat_inverse(X.matrix), sig),
                                  s).matrix, tol=1e-9)
            assert allclose(bullet(pow_J(X, s), pow_J(X, -s), sig), j,
                            tol=1e-9)

    def test_large_exponent_rejected(self):
        rng = np.random.default_rng(10)
        X = random_pj(SIG, "R", rng)
        with pytest.raises(ValueError):
            pow_J(X, 33.0)

    def test_kj_congruence(self):
        rng = np.random.default_rng(11)
        for field in FIELDS:
            sig = Signature(2, 1)
            X = random_pj_bounded(sig, field, rng)
            g = random_kj(sig, field, rng)
            for t in (-1.0, 0.3, 0.5, 2.0):
                lhs = pow_J(is_j_positive(g @ X.matrix @ sharp(g, sig), sig), t)
                rhs = g @ pow_J(X, t).matrix @ sharp(g, sig)
                assert allclose(lhs.matrix, rhs, tol=1e-9)

    def test_commuting_bullet_powers(self):
        rng = np.random.default_rng(12)
        for field in FIELDS:
            sig = Signature(1, 1)
            S = random_pj_bounded(sig, field, rng)
            X, Y = pow_J(S, 0.8), pow_J(S, -0.4)
            prod = is_j_positive(bullet(X, Y, sig), sig)
            for t in (0.5, 2.0):
                assert allclose(pow_J(prod, t).matrix,
                                bullet(pow_J(X, t), pow_J(Y, t), sig),
                                tol=1e-9)


class TestPolar:
    def test_identity(self):
        k, p = polar_decompose_bullet(np.eye(2), SIG)
        np.testing.assert_allclose(k, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(p.matrix, SIG.matrix(), atol=1e-12)

    def test_unitary_input(self):
        g = np.diag([np.exp(0.4j), np.exp(-0.9j)])
        k, p = polar_decompose_bullet(g, SIG)
        np.testing.assert_allclose(p.matrix, SIG.matrix("C"), atol=1e-12)
        np.testing.assert_allclose(k, g, atol=1e-12)

    def test_random_residual(self):
        rng = np.random.default_rng(13)
        for field in FIELDS:
            sig = Signature(2, 1)
            g = random_invertible(sig, field, rng)
            k, p = polar_decompose_bullet(g, sig)
            eye = identity(sig.n, field)
            assert fnorm(adjoint(k) @ k - eye) <= 1e-9
            assert allclose(bullet(k, p, sig), g, tol=1e-9)

    def test_tiny_singular_value(self):
        # Singular values 1, 1e-7, 1: above the 1e-13 ratio of the Singular test.
        sig = Signature(2, 1)
        g = np.diag([1.0, 1e-7, 1.0])
        k, p = polar_decompose_bullet(g, sig)
        np.testing.assert_allclose(bullet(k, p, sig), g, rtol=0.0, atol=1e-15)
        assert p.lambda_min_of_jx == pytest.approx(1e-7, rel=1e-12)

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("ratio", [1e-7, 1e-11])
    def test_tiny_singular_value_non_diagonal(self, field, ratio):
        # The eigenvalue ratio^2 of g* g is lost to rounding at ||g||^2 * eps;
        # the factors must come from g itself.
        sig = Signature(2, 1)
        rng = np.random.default_rng(17)
        q1, q2 = (polar_decompose_bullet(random_invertible(sig, field, rng), sig)[0]
                  for _ in range(2))
        g = q1 @ from_real(np.diag([1.0, ratio, 1.0]), field) @ q2
        k, p = polar_decompose_bullet(g, sig)
        assert fnorm(adjoint(k) @ k - identity(sig.n, field)) <= 1e-9
        assert allclose(bullet(k, p, sig), g, tol=1e-12)
        assert p.lambda_min_of_jx == pytest.approx(ratio, rel=1e-3)

    def test_singular_named(self):
        with pytest.raises(Singular):
            polar_decompose_bullet(np.diag([1.0, 1e-14, 1.0]), Signature(2, 1))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            polar_decompose_bullet(np.eye(1), Signature(2, 1))

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_entry_named_without_hanging(self, value):
        # numpy's svd need not return on an infinite entry, and raises a bare
        # LinAlgError on a NaN one.  The call runs in a child process under a
        # timeout, so a hang fails this test instead of stalling the suite.
        code = ("from jcone import NotFinite, Signature, polar_decompose_bullet, random_pj\n"
                "sig = Signature(2, 1)\n"
                "X = random_pj(sig, 'R', 0).matrix.copy()\n"
                f"X[0, 0] = float('{value}')\n"
                "try:\n"
                "    polar_decompose_bullet(X, sig)\n"
                "except NotFinite as exc:\n"
                "    print('NotFinite:', exc)\n")
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(src)), timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "NotFinite: an entry is not finite\n"


class TestRandomGenerators:
    def test_determinism(self):
        for field in FIELDS:
            a = random_pj(SIG, field, 42)
            b = random_pj(SIG, field, 42)
            assert allclose(a.matrix, b.matrix, tol=0.0)

    @pytest.mark.parametrize("field", FIELDS)
    def test_pj_draws_match_g_j_g_sharp(self, field):
        # g (Jg)* is g J g# = g J (J g* J) with its two cancelling flips left
        # out: the same members, bit for bit.
        sig = Signature(2, 1)
        for seed in range(50):
            g = random_invertible(sig, field, seed)
            want = is_j_positive(g @ sig.flip(sharp(g, sig)), sig)
            got = random_pj(sig, field, seed)
            assert np.array_equal(_embed(got.jx), _embed(want.jx))
            assert got.lambda_min_of_jx == want.lambda_min_of_jx

    def test_pj_membership(self):
        rng = np.random.default_rng(14)
        for trial in range(100):
            field = FIELDS[trial % 3]
            sig = (Signature(1, 1), Signature(2, 1), Signature(1, 3))[trial % 3]
            assert in_pj(random_pj(sig, field, rng).matrix, sig)

    def test_kj_membership(self):
        rng = np.random.default_rng(15)
        for field in FIELDS:
            sig = Signature(2, 2)
            g = random_kj(sig, field, rng)
            assert is_in_K_J(g, sig)

    def test_jhermitian_membership(self):
        rng = np.random.default_rng(16)
        for field in FIELDS:
            sig = Signature(2, 1)
            assert is_j_hermitian(random_jhermitian(sig, field, rng), sig)

    def test_bounded_log(self):
        rng = np.random.default_rng(17)
        for field in FIELDS:
            X = random_pj_bounded(Signature(2, 1), field, rng, radius=2.0)
            assert fnorm(log_J(X)) <= 2.0 + 1e-9
