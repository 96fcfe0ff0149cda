import numpy as np
import pytest

from jcone.errors import (DimensionMismatch, IndeterminateSchur, NotFinite,
                          NotJHermitian, NotJPositive)
from jcone.jcalc import random_invertible, random_jhermitian, random_pj
from jcone.jstruct import (Signature, block_decompose, in_pj, is_in_K_J,
                           is_in_U_J, is_j_hermitian, is_j_positive, j_inner,
                           phi_J, phi_J_inv, schur_j_positive, sharp)
from jcone.matcore import (QMatrix, adjoint, allclose, fnorm, from_real,
                           identity, mat_exp_h, mat_inverse, psi_matrix)

SIG = Signature(1, 1)
FIELDS = ("R", "C", "H")


class TestSignature:
    def test_j_squares_to_identity(self):
        for p, q in ((1, 1), (2, 1), (0, 2), (3, 0)):
            sig = Signature(p, q)
            j = sig.matrix()
            np.testing.assert_allclose(j @ j, np.eye(sig.n))
            np.testing.assert_allclose(j, j.T)

    def test_invalid(self):
        with pytest.raises(ValueError):
            Signature(0, 0)
        with pytest.raises(ValueError):
            Signature(-1, 2)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("field", FIELDS)
    def test_flip_negates_exactly(self, field):
        # An infinite entry comes back infinite, with no NaN from 0 * inf.
        sig = Signature(2, 1)
        M = np.arange(9.0).reshape(3, 3)
        M[0, 0], M[2, 1] = np.inf, -np.inf
        X = from_real(M, field)
        want = from_real(M * sig.diag()[:, None], field)
        got = sig.flip(X)
        assert type(got) is type(want)
        if field == "H":
            got, want = psi_matrix(got), psi_matrix(want)
        assert not np.isnan(got).any() and np.array_equal(got, want)


class TestSharp:
    def test_identity_and_j(self):
        for X in (np.eye(2), SIG.matrix()):
            np.testing.assert_allclose(sharp(X, SIG), X)

    def test_paper_example(self):
        X = np.array([[0, 1j], [1j, 0]])
        np.testing.assert_allclose(sharp(X, SIG), X)

    def test_involution_and_antihomomorphism(self):
        rng = np.random.default_rng(0)
        sig = Signature(2, 1)
        for field in FIELDS:
            X = random_invertible(sig, field, rng)
            Y = random_invertible(sig, field, rng)
            assert allclose(sharp(sharp(X, sig), sig), X, tol=1e-13)
            assert allclose(sharp(X @ Y, sig),
                            sharp(Y, sig) @ sharp(X, sig), tol=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sharp(np.eye(3), SIG)


class TestMembership:
    def test_rotation_generator_is_j_hermitian(self):
        assert is_j_hermitian(np.array([[0.0, 1.0], [-1.0, 0.0]]), SIG)

    def test_block_unitary_in_kj(self):
        g = np.diag([np.exp(0.3j), np.exp(-1.1j)])
        assert is_in_K_J(g, SIG)
        assert is_in_U_J(g, SIG)

    def test_identity_in_uj(self):
        assert is_in_U_J(np.eye(2), SIG)

    def test_boost_in_uj_not_kj(self):
        t = 0.7
        g = np.array([[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]])
        assert is_in_U_J(g, SIG)
        assert not is_in_K_J(g, SIG)

    @pytest.mark.parametrize("field", FIELDS)
    def test_group_tests_at_huge_entries(self, field):
        # g# g overflows at these entries, and ||g||_F^2 overflows a float:
        # the tests take both at the scale of g's largest entry, so a boost
        # with entries near 1e173 is J-unitary, 1e300 Id is not, and no
        # warning or OverflowError escapes (warnings fail Tier-1).
        t = 400.0
        boost = from_real(np.array([[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]]), field)
        huge = identity(2, field) * 1e300
        assert is_in_U_J(boost, SIG) is True and is_in_K_J(boost, SIG) is False
        assert is_in_U_J(huge, SIG) is False and is_in_K_J(huge, SIG) is False
        stacked = from_real(np.stack([np.eye(2), np.eye(2) * 1e300]), field)
        assert is_in_U_J(stacked, SIG).tolist() == [True, False]
        assert is_in_K_J(stacked, SIG).tolist() == [True, False]

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_group_tests_reject_non_finite_entries(self, value):
        g = np.eye(2)
        g[0, 1] = value
        for test in (is_in_U_J, is_in_K_J):
            with pytest.raises(NotFinite, match="not finite"):
                test(g, SIG)

    def test_random_jhermitian_members(self):
        rng = np.random.default_rng(1)
        for field in FIELDS:
            X = random_jhermitian(Signature(2, 2), field, rng)
            assert is_j_hermitian(X, Signature(2, 2))


class TestBlocks:
    def test_j_blocks(self):
        blocks = block_decompose(SIG.matrix(), SIG)
        np.testing.assert_allclose(blocks.a_block, [[1.0]])
        np.testing.assert_allclose(blocks.b_block, [[0.0]])
        np.testing.assert_allclose(blocks.d_block, [[-1.0]])

    def test_paper_matrix(self):
        H = np.array([[2.0, 1.0], [-1.0, -2.0]])
        blocks = block_decompose(H, SIG)
        np.testing.assert_allclose(blocks.a_block, [[2.0]])
        np.testing.assert_allclose(blocks.b_block, [[1.0]])
        np.testing.assert_allclose(blocks.d_block, [[-2.0]])

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for field in FIELDS:
            for sig in (Signature(1, 2), Signature(2, 2), Signature(0, 2),
                        Signature(2, 0)):
                H = random_jhermitian(sig, field, rng)
                assert allclose(block_decompose(H, sig).reassemble(), H,
                                tol=1e-14)

    def test_rejects_non_j_hermitian(self):
        with pytest.raises(NotJHermitian):
            block_decompose(np.array([[0.0, 1.0], [1.0, 0.0]]), SIG)


class TestJPositivity:
    def test_j_is_j_positive(self):
        cert = is_j_positive(SIG.matrix(), SIG)
        assert cert.lambda_min_of_jx == pytest.approx(1.0)

    def test_paper_b_matrix(self):
        assert in_pj(np.array([[3.0, 1.0], [-1.0, -1.0]]), SIG)

    def test_rotation_generator_rejected(self):
        with pytest.raises(NotJPositive):
            is_j_positive(np.array([[0.0, 1.0], [-1.0, 0.0]]), SIG)

    def test_congruence_stability(self):
        rng = np.random.default_rng(3)
        for field in FIELDS:
            sig = Signature(2, 1)
            X = random_pj(sig, field, rng)
            g = random_invertible(sig, field, rng)
            assert in_pj(g @ X.matrix @ sharp(g, sig), sig)

    def test_inversion_stability(self):
        rng = np.random.default_rng(4)
        for field in FIELDS:
            sig = Signature(1, 2)
            X = random_pj(sig, field, rng)
            assert in_pj(mat_inverse(X.matrix), sig)

    def test_cone_equals_j_times_classical_cone(self):
        rng = np.random.default_rng(5)
        for field in FIELDS:
            sig = Signature(2, 1)
            g = random_invertible(sig, field, rng)
            P = g @ adjoint(g)
            assert in_pj(sig.matrix_for(P) @ P, sig)
            X = random_pj(sig, field, rng)
            jx = sig.matrix_for(X.matrix) @ X.matrix
            assert fnorm(jx - adjoint(jx)) <= 1e-10 * fnorm(jx)

    def test_degenerate_signatures(self):
        rng = np.random.default_rng(6)
        for sig in (Signature(2, 0), Signature(0, 2)):
            X = random_pj(sig, "C", rng)
            assert in_pj(X.matrix, sig)


class TestSchur:
    def test_paper_matrix(self):
        H = np.array([[2.0, 1.0], [-1.0, -2.0]])
        assert schur_j_positive(block_decompose(H, SIG))

    def test_failing_blocks(self):
        H = np.array([[1.0, 2.0], [-2.0, -1.0]])
        assert not schur_j_positive(block_decompose(H, SIG))

    def test_j_blocks(self):
        assert schur_j_positive(block_decompose(SIG.matrix(), SIG))

    def test_indeterminate_on_singular_a(self):
        H = np.array([[0.0, 0.0], [0.0, -1.0]])
        with pytest.raises(IndeterminateSchur):
            schur_j_positive(block_decompose(H, SIG))

    def test_indeterminate_at_the_limit(self):
        # lambda_min of the leading block equals its limit tol * max(1, |lambda|)
        # exactly: not above it, so the verdict is indeterminate.
        H = np.array([[1e-10]])
        with pytest.raises(IndeterminateSchur):
            schur_j_positive(block_decompose(H, Signature(1, 0)), 1e-10)

    def test_blocks_not_retested(self):
        # J-Hermitian to 5.7e-10 at ||H|| = 2.6: inside tol 1e-9, and the
        # blocks of H must not be tested again at a fixed 1e-10.
        sig = Signature(2, 1)
        H = np.diag([2.0, 1.5, -1.0])
        H[0, 1], H[1, 0] = 0.3, 0.3 + 4e-10
        assert in_pj(H, sig, 1e-9)
        assert schur_j_positive(block_decompose(H, sig, 1e-9), 1e-9)

    def test_agrees_with_spectral_test(self):
        rng = np.random.default_rng(7)
        checked = 0
        for trial in range(500):
            field = FIELDS[trial % 3]
            sig = (Signature(1, 1), Signature(2, 1), Signature(1, 2),
                   Signature(2, 2))[trial % 4]
            H = random_jhermitian(sig, field, rng)
            try:
                verdict = schur_j_positive(block_decompose(H, sig))
            except IndeterminateSchur:
                continue
            checked += 1
            assert verdict == in_pj(H, sig)
        assert checked >= 490


class TestPhi:
    def test_phi_of_j(self):
        np.testing.assert_allclose(phi_J(SIG.matrix(), SIG), np.eye(2))

    def test_paper_matrix(self):
        got = phi_J(np.array([[2.0, 1.0], [-1.0, -2.0]]), SIG)
        np.testing.assert_allclose(got, np.array([[2.0, 1.0], [1.0, 2.0]]))

    def test_round_trip(self):
        rng = np.random.default_rng(8)
        for field in FIELDS:
            sig = Signature(2, 1)
            X = random_jhermitian(sig, field, rng)
            assert allclose(phi_J_inv(phi_J(X, sig), sig), X, tol=1e-14)

    def test_phi_output_hermitian(self):
        rng = np.random.default_rng(9)
        sig = Signature(1, 2)
        X = random_jhermitian(sig, "C", rng)
        P = phi_J(X, sig)
        assert fnorm(P - adjoint(P)) <= 1e-12 * max(1.0, fnorm(P))


class TestInnerForm:
    def test_basis_signs(self):
        sig = Signature(2, 1)
        e = np.eye(3)
        assert j_inner(e[0], e[0], sig) == pytest.approx(1.0)
        assert j_inner(e[2], e[2], sig) == pytest.approx(-1.0)
        assert j_inner(e[0], e[1], sig) == pytest.approx(0.0)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        sig = Signature(2, 1)
        assert j_inner(y, x, sig) == pytest.approx(np.conj(j_inner(x, y, sig)))

    def test_b_x_jx_positive(self):
        rng = np.random.default_rng(11)
        sig = Signature(2, 1)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert j_inner(x, sig.diag() * x, sig).real > 0.0

    def test_quaternionic_columns(self):
        rng = np.random.default_rng(12)
        sig = Signature(1, 1)
        x = QMatrix(rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1)),
                    rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1)))
        val = j_inner(x, x, sig)
        expected = (abs(x.a[0, 0]) ** 2 + abs(x.b[0, 0]) ** 2
                    - abs(x.a[1, 0]) ** 2 - abs(x.b[1, 0]) ** 2)
        assert val.a == pytest.approx(expected, rel=1e-12)
        assert val.imag_norm() <= 1e-12
