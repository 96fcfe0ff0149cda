"""Cone membership is decided once at the boundary, at the caller's tol, and
values built from certified members are rejected only on a computed
eigenvalue that is <= 0 or not finite, or on a failed Cholesky
factorization of JX."""

import numpy as np
import pytest

from jcone.cli import main
from jcone.errors import NotJHermitian, NotJPositive, SignatureMismatch
from jcone.fileio import write_matrix
from jcone.geometry import geodesic
from jcone.jcalc import exp_J, log_J, pow_J, random_pj_bounded
from jcone.jstruct import (JPositive, Signature, certify_constructed, in_pj,
                           is_j_hermitian, is_j_positive, phi_J)
from jcone.matcore import eigvals_hermitian, fnorm, from_real, identity
from jcone.means import arithmetic_mean_J, harmonic_mean_J, weighted_mean
from jcone.order import j_leq

SIG = Signature(1, 1)
J = SIG.matrix()
# J-Hermitian to 5.7e-10 at ||X|| = 2.6: inside tol 1e-9, outside 1e-10.
NEAR = J @ np.array([[2.0, 0.3], [0.3 + 4e-10, 1.5]])


class TestBoundaryTolerance:
    def test_is_j_positive_at_caller_tol(self):
        assert is_j_positive(NEAR, SIG, tol=1e-9).lambda_min_of_jx > 0.0

    def test_in_pj_at_caller_tol(self):
        assert in_pj(NEAR, SIG, 1e-9)
        assert not in_pj(NEAR, SIG, 1e-10)

    def test_cli_pow_at_caller_tol(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        write_matrix(str(path), NEAR)
        code = main(["pow", "--x", str(path), "-t", "0.5", "--signature", "1,1",
                     "--tol", "1e-9"])
        assert code == 0, capsys.readouterr().err

    def test_residual_and_threshold_in_message(self):
        assert is_j_hermitian(NEAR, SIG, 1e-9) and not is_j_hermitian(NEAR, SIG, 1e-10)
        with pytest.raises(NotJHermitian,
                           match=r"residual 5\.657e-10 exceeds 2\.5\d\de-10"):
            phi_J(NEAR, SIG, 1e-10)


def test_order_of_certified_members_not_retested():
    # Both pass the J-Hermitian test relative to their norm; B - A does not
    # relative to its own, much smaller norm, and need not.
    A = is_j_positive(J @ np.array([[2e3, 300.0], [300.0 + 1e-7, 1.5e3]]), SIG)
    B = is_j_positive(J @ np.array([[2e3 + 1e-3, 300.0], [300.0, 1.5e3 + 1e-3]]), SIG)
    verdict = j_leq(A, B)
    assert verdict.holds
    assert verdict.margin == pytest.approx(1e-3, rel=1e-3)
    with pytest.raises(SignatureMismatch):
        j_leq(A, is_j_positive(np.eye(2), Signature(2, 0)))


class TestNearBoundary:
    """lambda_min(JX) = 1e-11, certified at tol 1e-12."""

    X = is_j_positive(J @ np.diag([1.0, 1e-11]), SIG, tol=1e-12)

    def test_operations_accept_it(self):
        np.testing.assert_allclose(J @ pow_J(self.X, 0.5).matrix,
                                   np.diag([1.0, np.sqrt(1e-11)]), rtol=1e-12)
        np.testing.assert_allclose(J @ log_J(self.X), np.diag([0.0, np.log(1e-11)]),
                                   atol=1e-12)
        for mean in (weighted_mean(self.X, self.X).mean,
                     arithmetic_mean_J(self.X, self.X),
                     harmonic_mean_J(self.X, self.X, 0.3)):
            np.testing.assert_allclose(mean.matrix, self.X.matrix, rtol=1e-12)

    def test_exp_j_is_onto(self):
        E = exp_J(J @ np.diag([0.0, np.log(1e-11)]), SIG)
        np.testing.assert_allclose(E.matrix, self.X.matrix, rtol=1e-12)
        assert E.lambda_min_of_jx == pytest.approx(1e-11, rel=1e-12)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
class TestOverflow:
    def test_exp_j(self):
        with pytest.raises(NotJPositive, match="eigenvalue inf"):
            exp_J(J @ np.diag([800.0, 1.0]), SIG)

    def test_pow_j(self):
        X = is_j_positive(J @ np.diag([1e10, 2.0]), SIG)
        with pytest.raises(NotJPositive, match="eigenvalue inf"):
            pow_J(X, 32)


class TestScaleSafeNorm:
    # Entries near 1e200 overflow the plain sum of squares, which fnorm then
    # takes again scaled by the largest entry.
    SKEW = np.array([[1e200, 1e200], [0.0, 1e200]])

    def test_non_hermitian_not_certified(self):
        sig = Signature(2, 0)
        with pytest.raises(NotJHermitian, match="exceeds"):
            is_j_positive(self.SKEW, sig)
        assert not is_j_hermitian(self.SKEW, sig)

    def test_infinite_entry_not_j_hermitian(self):
        # The residual is inf, and so is the threshold from ||X|| = inf.
        X = np.array([[1.0, np.inf], [0.0, 1.0]])
        assert not is_j_hermitian(X, Signature(2, 0))

    @pytest.mark.parametrize("field", ["R", "C", "H"])
    def test_large_j_certified(self, field):
        sig = Signature(2, 1)
        X = is_j_positive(1e200 * sig.matrix(field), sig)
        assert X.lambda_min_of_jx == pytest.approx(1e200, rel=1e-15)

    @pytest.mark.parametrize("field", ["R", "C", "H"])
    def test_fnorm_finite_where_the_norm_is(self, field):
        X = 1e200 * identity(4, field)
        assert fnorm(X) == pytest.approx(2e200, rel=1e-15)
        assert type(fnorm(X)) is float


def _lambda_min(X):
    return eigvals_hermitian(X.signature.matrix_for(X.matrix) @ X.matrix)[-1]


@pytest.mark.parametrize("field", ["R", "C", "H"])
def test_certificates_from_eigenvalues_in_hand(field):
    sig = Signature(2, 1)
    rng = np.random.default_rng(7)
    for _ in range(5):
        A = random_pj_bounded(sig, field, rng)
        B = random_pj_bounded(sig, field, rng)
        E = random_pj_bounded(sig, field, rng)  # exp_J of a J-Hermitian draw
        outputs = [pow_J(A, t) for t in (-1.3, 0.5, 2.0)]
        outputs += [E, geodesic(A, B, 0.3)]
        for out in outputs:
            want = _lambda_min(out)
            assert abs(out.lambda_min_of_jx - want) <= 1e-11 * want


FIELDS = ("R", "C", "H")


class TestCholeskyCertificate:
    """certify_constructed(JX) without eigenvalues in hand: one Cholesky
    factorization of JX, and lambda_min(JX) only when it is read."""

    SIG = Signature(2, 1)

    @pytest.mark.parametrize("field", FIELDS)
    def test_indefinite_rejected(self, field):
        jx = from_real(np.diag([1.0, -1.0, -1.0]), field)   # X = diag(1, -1, 1)
        with pytest.raises(NotJPositive, match="Cholesky factorization of JX"):
            certify_constructed(jx, self.SIG)

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 2)])
    def test_non_finite_rejected(self, field, bad, entry):
        # numpy's Cholesky passes both: it reads one triangle, and it does
        # not stop at a NaN or infinite pivot.
        jx = np.eye(3)
        jx[entry] = bad
        with pytest.raises(NotJPositive, match="not finite"):
            certify_constructed(from_real(jx, field), self.SIG)

    @pytest.mark.parametrize("field", FIELDS)
    def test_reading_lambda_min_changes_neither_eq_nor_repr(self, field):
        A = random_pj_bounded(self.SIG, field, np.random.default_rng(1))
        B = random_pj_bounded(self.SIG, field, np.random.default_rng(2))
        X = weighted_mean(A, B, 0.3).mean
        Y = JPositive(X.matrix, X.signature, None)
        before = repr(X)
        assert X == Y and "lambda" not in before
        assert X.lambda_min_of_jx > 0.0
        assert repr(X) == before and X == Y
        assert X == JPositive(X.matrix, X.signature, X.lambda_min_of_jx + 1.0)

    @pytest.mark.parametrize("field", FIELDS)
    def test_lambda_min_computed_once_on_read(self, field, monkeypatch):
        A = random_pj_bounded(self.SIG, field, np.random.default_rng(1))
        X = arithmetic_mean_J(A, pow_J(A, 2.0), 0.3)
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(M):
            calls.append(M.shape)
            return eigvalsh(M)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        first = X.lambda_min_of_jx
        assert X.lambda_min_of_jx == first and len(calls) == 1
        assert first == pytest.approx(_lambda_min(X), rel=1e-12)

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("diag", [[1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, np.nan]])
    def test_lambda_min_read_not_positive_rejected(self, field, diag):
        # JX = diag(1, 1, -1), diag(1, -1, -1) and one NaN: lambda_min(JX) is
        # negative or NaN, and the read names it instead of returning it.
        X = JPositive(from_real(np.diag(diag), field), self.SIG, None)
        for _ in range(2):
            with pytest.raises(NotJPositive, match="not finite and positive"):
                X.lambda_min_of_jx

    @pytest.mark.parametrize("field", FIELDS)
    def test_equal_values_compare_equal_whichever_form_is_held(self, field):
        # random_pj_bounded holds JX and is_j_positive holds X; neither
        # shares its array with the other member.
        A = random_pj_bounded(self.SIG, field, np.random.default_rng(3))
        X = is_j_positive(A.matrix * 1.0, self.SIG)
        assert A == X and X == A and not A != X
        assert X == is_j_positive(X.matrix * 1.0, self.SIG)
        assert A != is_j_positive(A.matrix * 2.0, self.SIG)
        assert A != JPositive(A.matrix, Signature(1, 2), None)
        if field == "R":
            assert A != is_j_positive(A.matrix + 0j, self.SIG)   # same values over C
        with pytest.raises(TypeError):
            hash(A)

    def test_lambda_min_is_a_required_argument(self):
        with pytest.raises(TypeError):
            JPositive(self.SIG.matrix(), self.SIG)

    @pytest.mark.parametrize("field", FIELDS)
    def test_is_j_positive_fills_lambda_min(self, field, monkeypatch):
        X = is_j_positive(from_real(np.diag([2.0, 3.0, -0.5]), field), self.SIG)

        def forbidden(M):
            raise AssertionError("lambda_min of a boundary certificate recomputed")

        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        assert X.lambda_min_of_jx == pytest.approx(0.5, rel=1e-14)
