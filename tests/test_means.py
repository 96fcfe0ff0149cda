import gc
import itertools
import math
import weakref

import numpy as np
import pytest
import scipy.linalg

import jcone.matcore
from jcone.errors import (NotBulletCommuting, PremiseViolated,
                          SignatureMismatch, WeightOutOfRange)
from jcone.jcalc import (GeneratorStack, bullet, pow_J, random_invertible, random_kj,
                         random_pj, random_pj_bounded)
from jcone.jstruct import Signature, is_j_positive, phi_J, phi_J_inv, sharp
from jcone.matcore import (adjoint, allclose, fnorm, mat_inverse, mat_pow_pd,
                           mat_sqrt_pd, psi_matrix)
from jcone.means import (ando_hiai_check, ando_hiai_normalize,
                         arithmetic_mean_J, commuting_bullet_mean,
                         furuta_check, harmonic_mean_J, maximality_check,
                         riccati_residual, riccati_solve, weighted_mean)
from jcone.order import j_leq

SIG = Signature(1, 1)
FIELDS = ("R", "C", "H")

PAPER_A = np.array([[2.0, 1.0], [-1.0, -2.0]])
PAPER_B = np.array([[3.0, 1.0], [-1.0, -1.0]])
PAPER_DIFF = np.array([[0.263207, 0.768429], [-0.857469, -2.50336]])


def diag_pair():
    return (is_j_positive(np.diag([2.0, -3.0]), SIG),
            is_j_positive(np.diag([8.0, -27.0]), SIG))


class TestWeightedMean:
    def test_idempotent(self):
        rng = np.random.default_rng(0)
        A = random_pj_bounded(SIG, "C", rng)
        for t in (0.1, 0.5, 0.9):
            assert allclose(weighted_mean(A, A, t).mean.matrix, A.matrix,
                            tol=1e-10)

    def test_diagonal_midpoint(self):
        A, B = diag_pair()
        result = weighted_mean(A, B, 0.5)
        np.testing.assert_allclose(result.mean.matrix, np.diag([4.0, -9.0]),
                                   atol=1e-12)
        assert result.riccati_residual <= 1e-12

    def test_residual_is_the_public_residual(self):
        # One formula for ||X A^{-1} X - B||: the result's field, read after
        # the call, and the public function give the same float, bit for bit,
        # also past matcore's block of 40 rows.
        rng = np.random.default_rng(5)
        for sig, field in itertools.product((Signature(2, 1), Signature(21, 20)), FIELDS):
            A, B = random_pj_bounded(sig, field, rng), random_pj_bounded(sig, field, rng)
            result = weighted_mean(A, B, 0.5)
            public = riccati_residual(result.mean, A, B)
            assert type(result.riccati_residual) is float
            assert np.float64(result.riccati_residual).tobytes() == np.float64(public).tobytes()


    def test_noncommuting_difference_matrix(self):
        A = is_j_positive(PAPER_A, SIG)
        B = is_j_positive(PAPER_B, SIG)
        mean = weighted_mean(A, B, 0.5).mean
        diff = mean.matrix - pow_J(A, 0.5).matrix @ pow_J(B, 0.5).matrix
        np.testing.assert_allclose(diff, PAPER_DIFF, atol=5e-4)

    def test_weight_out_of_range(self):
        A, B = diag_pair()
        with pytest.raises(WeightOutOfRange):
            weighted_mean(A, B, 1.5)

    def test_pullback_identity(self):
        rng = np.random.default_rng(1)
        for field in FIELDS:
            sig = Signature(2, 1)
            A = random_pj_bounded(sig, field, rng)
            B = random_pj_bounded(sig, field, rng)
            j = sig.matrix(field)
            for t in (0.1, 0.5, 0.9):
                rt = mat_sqrt_pd(j @ A.matrix)
                rti = mat_inverse(rt)
                classical = rt @ mat_pow_pd(rti @ (j @ B.matrix) @ rti, t) @ rt
                lhs = phi_J(weighted_mean(A, B, t).mean.matrix, sig)
                assert allclose(lhs, classical, tol=1e-9)


class TestResidualOnFirstRead:
    @pytest.fixture
    def residual_calls(self, monkeypatch):
        calls = []
        residual = jcone.matcore._riccati_residual

        def counted(*args):
            calls.append(args)
            return residual(*args)

        monkeypatch.setattr(jcone.matcore, "_riccati_residual", counted)
        return calls

    @pytest.mark.parametrize("field", FIELDS)
    def test_computed_once_on_first_read(self, residual_calls, field):
        A, B = random_pj(Signature(2, 1), field, 3), random_pj(Signature(2, 1), field, 13)
        result = weighted_mean(A, B, 0.5)
        assert residual_calls == []
        first = result.riccati_residual
        assert type(first) is float and len(residual_calls) == 1
        assert result.riccati_residual is first and repr(result) and result == result
        assert len(residual_calls) == 1

    def test_not_computed_away_from_half(self, residual_calls):
        A, B = random_pj(Signature(2, 1), "C", 3), random_pj(Signature(2, 1), "C", 13)
        assert math.isnan(weighted_mean(A, B, 0.3).riccati_residual)
        pair = [random_pj(Signature(2, 1), "C", GeneratorStack([np.random.default_rng(s)
                                                                for s in seeds]))
                for seeds in ((3, 4), (13, 14))]
        stacked = weighted_mean(*pair, np.array([0.3, 0.7])).riccati_residual
        assert stacked.shape == (2,) and np.isnan(stacked).all()
        assert residual_calls == []

    def test_the_pencil_is_not_kept(self, monkeypatch):
        # The deferred residual holds L^{-1} and the operands' images, so the
        # pencil (its factor and eigenproblem) is freed when the call returns.
        made = []
        init = jcone.matcore.Pencil.__init__

        def recorded(self, P, Q):
            init(self, P, Q)
            made.append(weakref.ref(self))

        monkeypatch.setattr(jcone.matcore.Pencil, "__init__", recorded)
        A, B = random_pj(Signature(2, 1), "R", 3), random_pj(Signature(2, 1), "R", 13)
        result = weighted_mean(A, B, 0.5)
        gc.collect()
        assert len(made) == 1 and made[0]() is None
        assert result.riccati_residual == riccati_residual(result.mean, A, B)

    @pytest.mark.parametrize("t", [0.5, 0.3])
    def test_l_inverse_is_held_until_the_first_read(self, monkeypatch, t):
        inverses = []
        tril_inverse = jcone.matcore.tril_inverse

        def recorded(L):
            X = tril_inverse(L)
            inverses.append(weakref.ref(X))
            return X

        monkeypatch.setattr(jcone.matcore, "tril_inverse", recorded)
        A, B = random_pj(Signature(2, 1), "C", 3), random_pj(Signature(2, 1), "C", 13)
        result = weighted_mean(A, B, t)
        gc.collect()
        assert len(inverses) == 1 and (inverses[0]() is not None) == (t == 0.5)
        result.riccati_residual
        gc.collect()
        assert inverses[0]() is None


class TestRiccati:
    def test_j_case_gives_square_root(self):
        rng = np.random.default_rng(2)
        B = random_pj_bounded(SIG, "C", rng)
        X = riccati_solve(is_j_positive(SIG.matrix("C"), SIG), B)
        assert allclose(bullet(X, X, SIG), B.matrix, tol=1e-9)
        assert allclose(X.matrix, pow_J(B, 0.5).matrix, tol=1e-9)

    def test_diagonal(self):
        A, B = diag_pair()
        np.testing.assert_allclose(riccati_solve(A, B).matrix,
                                   np.diag([4.0, -9.0]), atol=1e-12)

    def test_residual_grows_linearly_under_perturbation(self):
        A, B = diag_pair()
        X = riccati_solve(A, B)
        base = riccati_residual(X, A, B)
        slopes = []
        for eps in (1e-3, 2e-3, 4e-3):
            Xp = is_j_positive(X.matrix + eps * SIG.matrix(), SIG)
            slopes.append((riccati_residual(Xp, A, B) - base) / eps)
        assert slopes[0] > 0.0
        assert slopes[2] == pytest.approx(slopes[0], rel=0.05)

    def test_random_residuals(self):
        rng = np.random.default_rng(3)
        for trial in range(30):
            field = FIELDS[trial % 3]
            sig = (SIG, Signature(2, 1), Signature(1, 3))[trial % 3]
            A = random_pj_bounded(sig, field, rng)
            B = random_pj_bounded(sig, field, rng)
            X = riccati_solve(A, B)
            assert riccati_residual(X, A, B) <= 1e-9 * max(1.0,
                                                           fnorm(B.matrix))


class TestMaximality:
    def test_mean_is_feasible_with_zero_margin(self):
        rng = np.random.default_rng(4)
        A = random_pj_bounded(SIG, "R", rng)
        B = random_pj_bounded(SIG, "R", rng)
        M = riccati_solve(A, B)
        v = maximality_check(M.matrix, A, B)
        assert v.holds and abs(v.margin) <= 1e-8
        assert maximality_check(M, A, B) == v   # a member is read by its JX

    @pytest.mark.parametrize("sig, field", [(Signature(1, 2), "R"), (Signature(2, 1), "C"),
                                            (Signature(2, 2), "R")])
    def test_riccati_residual_rejects_a_member_unlike_a(self, sig, field):
        A, B = random_pj(Signature(2, 1), "R", 3), random_pj(Signature(2, 1), "R", 13)
        with pytest.raises(SignatureMismatch):
            riccati_residual(random_pj(sig, field, 5), A, B)

    def test_member_of_another_signature_rejected(self):
        rng = np.random.default_rng(4)
        A = random_pj_bounded(SIG, "R", rng)
        B = random_pj_bounded(SIG, "R", rng)
        X = is_j_positive(np.eye(2), Signature(2, 0))
        with pytest.raises(SignatureMismatch):
            maximality_check(X, A, B)

    def test_above_mean_fails(self):
        rng = np.random.default_rng(5)
        A = random_pj_bounded(SIG, "C", rng)
        B = random_pj_bounded(SIG, "C", rng)
        M = riccati_solve(A, B)
        bumped = M.matrix + phi_J_inv(0.1 * np.eye(2).astype(complex), SIG)
        assert not maximality_check(bumped, A, B).holds

    def test_zero_is_feasible(self):
        rng = np.random.default_rng(6)
        A = random_pj_bounded(SIG, "R", rng)
        B = random_pj_bounded(SIG, "R", rng)
        assert maximality_check(np.zeros((2, 2)), A, B).holds

    def test_feasible_implies_dominated(self):
        rng = np.random.default_rng(7)
        for trial in range(40):
            field = FIELDS[trial % 3]
            A = random_pj_bounded(SIG, field, rng)
            B = random_pj_bounded(SIG, field, rng)
            M = riccati_solve(A, B)
            for c in (-0.9, 0.0, 0.5, 0.9):
                assert maximality_check(c * M.matrix, A, B).holds
                assert j_leq(c * M.matrix, M.matrix, SIG, tol=1e-9).holds


class TestCompanionMeans:
    def test_equal_arguments(self):
        rng = np.random.default_rng(8)
        A = random_pj_bounded(SIG, "C", rng)
        assert allclose(harmonic_mean_J(A, A, 0.5).matrix, A.matrix, tol=1e-10)
        assert allclose(arithmetic_mean_J(A, A, 0.5).matrix, A.matrix,
                        tol=1e-12)

    def test_diagonal_harmonic(self):
        # Scalar harmonic means 2ab/(a+b) of (2, 8) and (3, 27), sign via J.
        A, B = diag_pair()
        np.testing.assert_allclose(harmonic_mean_J(A, B, 0.5).matrix,
                                   np.diag([3.2, -5.4]), atol=1e-12)

    def test_agm_sandwich(self):
        rng = np.random.default_rng(9)
        for trial in range(40):
            field = FIELDS[trial % 3]
            sig = (SIG, Signature(2, 1))[trial % 2]
            A = random_pj_bounded(sig, field, rng)
            B = random_pj_bounded(sig, field, rng)
            t = 0.5 if trial % 2 else 0.3
            geo = weighted_mean(A, B, t).mean
            assert j_leq(harmonic_mean_J(A, B, t), geo, tol=1e-8).holds
            assert j_leq(geo, arithmetic_mean_J(A, B, t), tol=1e-8).holds


class TestCommutingClosedForm:
    def test_equal_arguments(self):
        rng = np.random.default_rng(10)
        A = random_pj_bounded(SIG, "R", rng)
        assert allclose(commuting_bullet_mean(A, A, 0.5).matrix, A.matrix,
                        tol=1e-10)

    def test_powers_of_common_seed(self):
        rng = np.random.default_rng(11)
        for field in FIELDS:
            S = random_pj_bounded(SIG, field, rng)
            A, B = pow_J(S, 0.6), pow_J(S, 1.4)
            for t in (0.25, 0.5, 0.8):
                assert allclose(commuting_bullet_mean(A, B, t).matrix,
                                weighted_mean(A, B, t).mean.matrix, tol=1e-9)

    @pytest.mark.parametrize("field", FIELDS)
    def test_nearly_commuting_pair_gives_the_mean(self, field):
        # B = A^0.7_J + 1e-9 J P, P Hermitian, commutes with A to about 1e-9
        # relative, inside the 1e-8 bullet-commutator test, and their product
        # is Hermitian only that far: the result is certified by the
        # Cholesky factorization of its Hermitian part alone.
        sig = Signature(2, 1)
        A = random_pj(sig, field, 3)
        g = random_invertible(sig, field, 102)
        B = is_j_positive(pow_J(A, 0.7).matrix + sig.flip((g + adjoint(g)) * 0.5) * 1e-9, sig)
        mean = commuting_bullet_mean(A, B, 0.3)
        assert allclose(mean.matrix, weighted_mean(A, B, 0.3).mean.matrix, tol=1e-9)

    def test_product_commuting_pair_rejected(self):
        A = is_j_positive(PAPER_A, SIG)
        B = is_j_positive(PAPER_B, SIG)
        with pytest.raises(NotBulletCommuting):
            commuting_bullet_mean(A, B, 0.5)


class TestAndoHiai:
    def test_half_j_case(self):
        A = is_j_positive(0.5 * SIG.matrix(), SIG)
        v = ando_hiai_check(A, A, 0.5, 2.0)
        assert v.holds and not v.vacuous

    def test_r_equal_one_reduces_to_premise(self):
        rng = np.random.default_rng(12)
        A = random_pj_bounded(SIG, "C", rng)
        B = random_pj_bounded(SIG, "C", rng)
        A, B = ando_hiai_normalize(A, B, 0.5)
        v = ando_hiai_check(A, B, 0.5, 1.0)
        assert v.holds
        assert v.conclusion_margin == pytest.approx(v.premise_margin, abs=1e-9)

    def test_vacuous_flag(self):
        A, B = diag_pair()
        v = ando_hiai_check(A, B, 0.5, 2.0)
        assert v.vacuous and v.holds

    def test_randomized(self):
        rng = np.random.default_rng(13)
        for trial in range(40):
            field = FIELDS[trial % 3]
            A = random_pj_bounded(SIG, field, rng, radius=1.0)
            B = random_pj_bounded(SIG, field, rng, radius=1.0)
            A, B = ando_hiai_normalize(A, B, 0.5)
            for r in (1.0, 1.5, 2.0, 3.0):
                v = ando_hiai_check(A, B, 0.5, r, tol=1e-8)
                assert v.holds and not v.vacuous


class TestFuruta:
    def test_equal_arguments_collapse(self):
        rng = np.random.default_rng(14)
        A = random_pj_bounded(SIG, "C", rng)
        v = furuta_check(A, A, 2.0, 1.0, tol=1e-8)
        assert v.holds and abs(v.margin) <= 1e-6

    def test_diagonal_scalar_oracle(self):
        A = is_j_positive(np.diag([3.0, -4.0]), SIG)
        B = is_j_positive(np.diag([2.0, -3.0]), SIG)
        assert furuta_check(A, B, 2.0, 1.0).holds
        # scalar check on the first eigenvalue pair: (3 * 2^2 * 3)^... uses
        # a^{r/2} b^p a^{r/2} = a^r b^p, so (3 * 4)^{1/3} ~ 2.289 <= 3.
        assert (3.0 * 2.0 ** 2) ** (1.0 / 3.0) <= 3.0

    def test_premise_enforced(self):
        A, B = diag_pair()
        assert j_leq(A, B, tol=1e-9).holds
        with pytest.raises(PremiseViolated):
            furuta_check(A, B, 1.0, 1.0)

    def test_randomized(self):
        rng = np.random.default_rng(15)
        for trial in range(25):
            field = FIELDS[trial % 3]
            B = random_pj_bounded(SIG, field, rng, radius=1.0)
            g = random_invertible(SIG, field, rng)
            bump = g @ adjoint(g)
            bump = bump * (0.5 / max(1.0, fnorm(bump)))
            A = is_j_positive(B.matrix + phi_J_inv(bump, SIG), SIG)
            for p_exp in (0.0, 1.0, 2.0):
                for r in (1.0, 2.0, 3.0):
                    assert furuta_check(A, B, p_exp, r, tol=1e-8).holds


class TestParameterRanges:
    """A parameter outside its range, NaN included, is rejected before
    anything is computed, whether or not a premise holds."""

    @staticmethod
    def pair():
        return random_pj(Signature(2, 1), "R", 3), random_pj(Signature(2, 1), "R", 13)

    @pytest.mark.parametrize("r", [math.nan, 0.5])
    def test_ando_hiai_r(self, r):
        A, B = self.pair()
        for (X, Y), vacuous in (((A, B), True), (ando_hiai_normalize(A, B, 0.5), False)):
            assert ando_hiai_check(X, Y, 0.5, 1.0).vacuous is vacuous
            with pytest.raises(ValueError, match="^need r >= 1$"):
                ando_hiai_check(X, Y, 0.5, r)

    @pytest.mark.parametrize("p_exp, r", [(math.nan, 1.0), (-0.5, 1.0), (1.0, math.nan),
                                          (1.0, 0.5), (np.array([0.0, math.nan]), 1.0)])
    def test_furuta_p_and_r(self, p_exp, r):
        A, _ = self.pair()
        assert furuta_check(A, A, 0.0, 1.0).holds
        with pytest.raises(ValueError, match="^need p >= 0 and r >= 1$"):
            furuta_check(A, A, p_exp, r)

    @pytest.mark.parametrize("mean", [arithmetic_mean_J, harmonic_mean_J])
    @pytest.mark.parametrize("t", [math.nan, -0.05, 1.05])
    def test_companion_mean_weight(self, mean, t):
        A, B = self.pair()
        assert mean(A, B, 0.0) == A and mean(A, B, 1.0) == B
        with pytest.raises(WeightOutOfRange, match=rf"^weight {t} outside \[0, 1\]$"):
            mean(A, B, t)


class TestMeanProperties:
    def test_symmetry_and_inversion(self):
        rng = np.random.default_rng(16)
        for field in FIELDS:
            A = random_pj_bounded(SIG, field, rng)
            B = random_pj_bounded(SIG, field, rng)
            M = weighted_mean(A, B, 0.5).mean
            assert allclose(M.matrix, weighted_mean(B, A, 0.5).mean.matrix,
                            tol=1e-9)
            Ai = is_j_positive(mat_inverse(A.matrix), SIG)
            Bi = is_j_positive(mat_inverse(B.matrix), SIG)
            assert allclose(mat_inverse(M.matrix),
                            weighted_mean(Ai, Bi, 0.5).mean.matrix, tol=1e-9)

    def test_scaling(self):
        rng = np.random.default_rng(17)
        A = random_pj_bounded(SIG, "C", rng)
        B = random_pj_bounded(SIG, "C", rng)
        t = 0.3
        base = weighted_mean(A, B, t).mean.matrix
        for alpha, beta in ((0.5, 2.0), (2.0, 3.0), (3.0, 0.5)):
            lhs = weighted_mean(is_j_positive(alpha * A.matrix, SIG),
                                is_j_positive(beta * B.matrix, SIG),
                                t).mean.matrix
            assert allclose(lhs, alpha ** (1 - t) * beta ** t * base, tol=1e-9)

    def test_time_reversal_and_composition(self):
        rng = np.random.default_rng(18)
        A = random_pj_bounded(SIG, "H", rng)
        B = random_pj_bounded(SIG, "H", rng)
        assert allclose(weighted_mean(A, B, 0.3).mean.matrix,
                        weighted_mean(B, A, 0.7).mean.matrix, tol=1e-9)
        t, s, u = 0.2, 0.8, 0.4
        lhs = weighted_mean(weighted_mean(A, B, t).mean,
                            weighted_mean(A, B, s).mean, u).mean.matrix
        rhs = weighted_mean(A, B, (1 - u) * t + u * s).mean.matrix
        assert allclose(lhs, rhs, tol=1e-9)

    def test_kj_congruence(self):
        rng = np.random.default_rng(19)
        for field in FIELDS:
            sig = Signature(2, 1)
            A = random_pj_bounded(sig, field, rng)
            B = random_pj_bounded(sig, field, rng)
            g = random_kj(sig, field, rng)
            gs = sharp(g, sig)
            lhs = weighted_mean(is_j_positive(g @ A.matrix @ gs, sig),
                                is_j_positive(g @ B.matrix @ gs, sig),
                                0.4).mean.matrix
            rhs = g @ weighted_mean(A, B, 0.4).mean.matrix @ gs
            assert allclose(lhs, rhs, tol=1e-9)

    def test_monotonicity_and_concavity(self):
        rng = np.random.default_rng(20)
        for trial in range(20):
            field = FIELDS[trial % 3]
            A = random_pj_bounded(SIG, field, rng)
            B = random_pj_bounded(SIG, field, rng)
            C = random_pj_bounded(SIG, field, rng)
            D = random_pj_bounded(SIG, field, rng)
            g = random_invertible(SIG, field, rng)
            bump = g @ adjoint(g)
            bump = bump * (1.0 / max(1.0, fnorm(bump)))
            Cb = is_j_positive(A.matrix + phi_J_inv(bump, SIG), SIG)
            Db = is_j_positive(B.matrix + phi_J_inv(bump, SIG), SIG)
            assert j_leq(weighted_mean(A, B, 0.4).mean,
                         weighted_mean(Cb, Db, 0.4).mean, tol=1e-8).holds
            s, t = 0.35, 0.6
            lhs = ((1 - s) * weighted_mean(A, C, t).mean.matrix
                   + s * weighted_mean(B, D, t).mean.matrix)
            m1 = is_j_positive((1 - s) * A.matrix + s * B.matrix, SIG)
            m2 = is_j_positive((1 - s) * C.matrix + s * D.matrix, SIG)
            rhs = weighted_mean(m1, m2, t).mean.matrix
            assert j_leq(lhs, rhs, SIG, tol=1e-8).holds


@pytest.mark.parametrize("sig, field", [(Signature(64, 64), "R"), (Signature(64, 64), "C"),
                                        (Signature(32, 32), "H")])
@pytest.mark.parametrize("t", [0.5, 0.3])
def test_wide_mean_matches_the_generalized_eigenproblem(sig, field, t):
    # X = J exp(H) with ||H||_F = 2, the pencil's factor inverted by blocks.
    # The reference JA #_t JB = V diag(w^t) V* with V = JA W from
    # JB W = JA W diag(w), W* JA W = Id, on the embeddings over H.
    A = random_pj_bounded(sig, field, 1)
    B = random_pj_bounded(sig, field, 2)
    result = weighted_mean(A, B, t)

    def embedded(X):
        return psi_matrix(X) if field == "H" else X

    ja, jb = embedded(sig.flip(A.matrix)), embedded(sig.flip(B.matrix))
    w, W = scipy.linalg.eigh(jb, ja)
    V = ja @ W
    ref = (V * w ** t) @ V.conj().T
    got = embedded(sig.flip(result.mean.matrix))
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
    if t == 0.5:
        assert result.riccati_residual <= 1e-12 * fnorm(B.matrix)
