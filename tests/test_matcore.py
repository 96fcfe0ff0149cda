import ast
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm, solve_triangular

from jcone.errors import NotFinite, NotHermitian, NotInImage, NotPositive, Singular
from jcone.matcore import (_TRIL_BLOCK, QMatrix, _embed, _tril_blocks, adjoint, allclose,
                           cholesky_factor, eigvals_hermitian, field_of, fnorm,
                           from_real, hermitian_eig, identity, is_positive_definite,
                           mat_exp_h, mat_inverse, mat_log_pd, mat_pow_pd,
                           mat_sqrt_pd, matrix_function, psi_inverse,
                           psi_matrix, psi_structural_residual, tiled, trd,
                           tril_inverse, tril_product, zeros)
from jcone.scalars import QUAT_I, QUAT_J, QUAT_K, Quaternion
from jcone.stacks import _norm, member


def random_mat(n, field, rng):
    if field == "R":
        return rng.standard_normal((n, n))
    if field == "C":
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return QMatrix(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
                   rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def random_hermitian(n, field, rng, radius=None):
    X = random_mat(n, field, rng)
    H = (X + adjoint(X)) * 0.5
    if radius is not None:
        nrm = fnorm(H)
        if nrm > radius:
            H = H * (radius / nrm)
    return H


FIELDS = ("R", "C", "H")


class TestBasics:
    def test_field_of(self):
        assert field_of(np.eye(2)) == "R"
        assert field_of(np.eye(2, dtype=complex)) == "C"
        assert field_of(identity(2, "H")) == "H"

    def test_adjoint_example(self):
        X = np.array([[0, 1j], [1j, 0]])
        np.testing.assert_allclose(adjoint(X), np.array([[0, -1j], [-1j, 0]]))

    def test_adjoint_involution_and_antihomomorphism(self):
        rng = np.random.default_rng(0)
        for field in FIELDS:
            X, Y = random_mat(3, field, rng), random_mat(3, field, rng)
            assert allclose(adjoint(adjoint(X)), X, tol=1e-14)
            assert allclose(adjoint(X @ Y), adjoint(Y) @ adjoint(X), tol=1e-13)

    def test_inverse_identity(self):
        assert allclose(mat_inverse(np.eye(3)), np.eye(3), tol=1e-14)

    def test_inverse_diagonal(self):
        np.testing.assert_allclose(mat_inverse(np.diag([2.0, -3.0])),
                                   np.diag([0.5, -1.0 / 3.0]))

    def test_inverse_random(self):
        rng = np.random.default_rng(1)
        for field in FIELDS:
            X = random_mat(3, field, rng)
            assert allclose(X @ mat_inverse(X), identity(3, field), tol=1e-9)

    def test_inverse_singular(self):
        with pytest.raises(Singular):
            mat_inverse(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_inverse_ill_conditioned_names_condition(self):
        with pytest.raises(Singular, match=r"condition number 1\.000e\+14 not below 1e13"):
            mat_inverse(np.diag([1.0, 1e-14]))

    @pytest.mark.parametrize("field", FIELDS)
    def test_inverse_is_scale_free(self, field):
        # The Singular test is relative: a tiny well-conditioned matrix inverts.
        X = identity(3, field) * 1e-14
        assert allclose(mat_inverse(X) * 1e-14, identity(3, field), tol=1e-15)

    def test_trd_identity(self):
        for field in FIELDS:
            assert trd(identity(4, field)) == pytest.approx(4.0)

    def test_trd_imaginary_diagonal(self):
        X = QMatrix.from_quaternions([[QUAT_I, Quaternion(0)],
                                      [Quaternion(0), QUAT_J]])
        assert trd(X) == pytest.approx(0.0)

    def test_trd_cyclic_quaternionic(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            A, B = random_mat(3, "H", rng), random_mat(3, "H", rng)
            assert trd(A @ B) == pytest.approx(trd(B @ A), abs=1e-11)


class TestQMatrixIndexing:
    X = QMatrix.from_quaternions([[QUAT_I, QUAT_J],
                                  [Quaternion(1.0, 2.0, 3.0, 4.0), QUAT_K]])

    def test_entries_are_quaternions(self):
        assert self.X[0, 1] == QUAT_J
        assert self.X[1, 0] == Quaternion(1.0, 2.0, 3.0, 4.0)

    def test_slices_are_qmatrices(self):
        col = self.X[:, 1:2]
        assert isinstance(col, QMatrix) and col.shape == (2, 1)
        assert col[1, 0] == QUAT_K

    def test_reshape_is_row_major(self):
        flat = self.X.reshape(4, 1)
        assert flat.shape == (4, 1)
        assert [flat[k, 0] for k in range(4)] == [QUAT_I, QUAT_J,
                                                   self.X[1, 0], QUAT_K]

    def test_slice_assignment(self):
        Y = zeros(2, "H")
        Y[:, 0:1] = self.X[:, 1:2]
        assert Y[0, 0] == QUAT_J and Y[1, 0] == QUAT_K
        assert Y[0, 1] == Quaternion(0.0)


class TestPsi:
    def test_psi_identity(self):
        np.testing.assert_allclose(psi_matrix(identity(3, "H")), np.eye(6))

    def test_psi_of_scalar_j(self):
        X = QMatrix.from_quaternions([[QUAT_J]])
        np.testing.assert_allclose(psi_matrix(X), np.array([[0, 1], [-1, 0]]))

    def test_psi_inverse_of_j2n(self):
        n = 3
        j2n = np.block([[np.zeros((n, n)), np.eye(n)],
                        [-np.eye(n), np.zeros((n, n))]])
        X = psi_inverse(j2n)
        np.testing.assert_allclose(X.a, np.zeros((n, n)))
        np.testing.assert_allclose(X.b, np.eye(n))

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        X = random_mat(3, "H", rng)
        assert allclose(psi_inverse(psi_matrix(X)), X, tol=1e-14)

    def test_homomorphism_and_adjoint(self):
        rng = np.random.default_rng(4)
        X, Y = random_mat(3, "H", rng), random_mat(3, "H", rng)
        np.testing.assert_allclose(psi_matrix(X @ Y),
                                   psi_matrix(X) @ psi_matrix(Y), atol=1e-12)
        np.testing.assert_allclose(psi_matrix(adjoint(X)),
                                   psi_matrix(X).conj().T, atol=1e-14)

    def test_inverse_commutes_with_psi(self):
        rng = np.random.default_rng(5)
        X = random_mat(3, "H", rng)
        np.testing.assert_allclose(psi_matrix(mat_inverse(X)),
                                   np.linalg.inv(psi_matrix(X)), atol=1e-10)

    def test_image_structure(self):
        rng = np.random.default_rng(6)
        X = random_mat(3, "H", rng)
        assert psi_structural_residual(psi_matrix(X)) <= 1e-12

    def test_not_in_image(self):
        bad = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        with pytest.raises(NotInImage):
            psi_inverse(bad)

    @pytest.mark.parametrize("bad", [
        np.diag([1e308, -1e308]).astype(complex),
        np.full((2, 2), np.nan, dtype=complex),
        np.diag([np.inf, 1.0]).astype(complex)])
    def test_not_in_image_when_residual_not_finite(self, bad):
        # An overflowed or NaN residual certifies nothing.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NotInImage, match="residual (inf|nan)"):
                psi_inverse(bad)


def test_not_in_image_at_large_scale():
    # Entries near 1e160 overflow the plain norm of M, though not that of
    # the residual; the threshold is relative to ||M|| all the same.
    M = psi_matrix(QMatrix(np.full((2, 2), 1e160 + 0j))).copy()
    M[0, 0] += 1e153
    with pytest.raises(NotInImage):
        psi_inverse(M)


@pytest.mark.parametrize("field", FIELDS)
def test_norm_is_linalg_norm_bit_for_bit(field):
    # The residuals and margins the CLI prints are built from these norms, so
    # _norm keeps numpy's sums, in numpy's order.
    rng = np.random.default_rng(11)
    for n in (1, 3, 8, 33):
        X = random_mat(n, field, rng) * 10.0 ** rng.integers(-8, 8)
        M = psi_matrix(X)[:n] if field == "H" else X
        for view in (M, M[:, ::2], M.T):
            assert _norm(view) == float(np.linalg.norm(view))
    assert _norm(np.array([[3, 4]])) == 5.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("field", FIELDS)
def test_norm_overflow_is_silent(field):
    # The sum of squares overflows and is taken again, scaled, with no warning.
    assert fnorm(identity(4, field) * 1e200) == pytest.approx(2e200, rel=1e-15)


class TestEig:
    def test_diagonal(self):
        dec = hermitian_eig(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(dec.eigenvalues, [3.0, 1.0])
        np.testing.assert_allclose(np.abs(dec.unitary), np.eye(2), atol=1e-14)

    def test_pauli_like(self):
        dec = hermitian_eig(np.array([[0, 1j], [-1j, 0]]))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, -1.0], atol=1e-14)

    def test_counterexample_ja(self):
        dec = hermitian_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(dec.eigenvalues, [3.0, 1.0], atol=1e-14)

    def test_reconstruction_all_fields(self):
        rng = np.random.default_rng(7)
        for field in FIELDS:
            for n in (2, 3, 5):
                X = random_hermitian(n, field, rng)
                dec = hermitian_eig(X)
                assert fnorm(dec.reconstruct() - X) <= 1e-10 * max(1.0, fnorm(X))
                assert list(dec.eigenvalues) == sorted(dec.eigenvalues,
                                                       reverse=True)

    def test_quaternionic_unitary_factor(self):
        rng = np.random.default_rng(8)
        X = random_hermitian(4, "H", rng)
        dec = hermitian_eig(X)
        U = dec.unitary
        assert fnorm(U.H @ U - identity(4, "H")) <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_eigvals_quaternionic_halved(self):
        X = QMatrix(np.diag([2.0, 5.0]).astype(complex))
        np.testing.assert_allclose(eigvals_hermitian(X), [5.0, 2.0], atol=1e-12)


class TestMatrixFunctions:
    def test_sqrt_diagonal(self):
        np.testing.assert_allclose(mat_sqrt_pd(np.diag([4.0, 9.0])),
                                   np.diag([2.0, 3.0]), atol=1e-12)

    def test_quarter_power(self):
        np.testing.assert_allclose(mat_pow_pd(np.diag([16.0, 81.0]), 0.25),
                                   np.diag([2.0, 3.0]), atol=1e-12)

    def test_exp_not_injective_witness(self):
        X = np.array([[0, 2j * np.pi], [2j * np.pi, 0]])
        np.testing.assert_allclose(expm(X), np.eye(2), atol=1e-10)

    def test_log_exp_round_trip(self):
        rng = np.random.default_rng(9)
        for field in FIELDS:
            H = random_hermitian(3, field, rng, radius=3.0)
            assert allclose(mat_log_pd(mat_exp_h(H)), H, tol=1e-9)

    def test_power_law(self):
        rng = np.random.default_rng(10)
        for field in FIELDS:
            X = mat_exp_h(random_hermitian(3, field, rng, radius=2.0))
            for _ in range(5):
                s, t = np.random.default_rng(11).uniform(-2, 2, 2)
                assert allclose(mat_pow_pd(mat_pow_pd(X, s), t),
                                mat_pow_pd(X, s * t), tol=1e-9)

    def test_commuting_product(self):
        rng = np.random.default_rng(12)
        for field in FIELDS:
            H = random_hermitian(3, field, rng, radius=1.5)
            X = mat_exp_h(H)
            Y = H @ H + 2.0 * identity(3, field)
            for s in (0.5, -1.0, 1.7):
                assert allclose(mat_pow_pd(X @ Y, s),
                                mat_pow_pd(X, s) @ mat_pow_pd(Y, s), tol=1e-9)

    def test_quaternionic_functional_calculus(self):
        rng = np.random.default_rng(13)
        X = mat_exp_h(random_hermitian(3, "H", rng, radius=2.0))
        for f in (np.exp, np.log, np.sqrt):
            lhs = psi_matrix(matrix_function(X, f))
            rhs = matrix_function(psi_matrix(X), f)
            assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(1.0,
                                                           np.linalg.norm(rhs))

    def test_unitary_congruence(self):
        rng = np.random.default_rng(14)
        X = mat_exp_h(random_hermitian(3, "C", rng, radius=2.0))
        C, _ = np.linalg.qr(random_mat(3, "C", rng))
        for t in (0.5, 2.0, -0.3):
            assert allclose(mat_pow_pd(C @ X @ C.conj().T, t),
                            C @ mat_pow_pd(X, t) @ C.conj().T, tol=1e-9)

    def test_log_rejects_indefinite(self):
        with pytest.raises(NotPositive):
            mat_log_pd(np.diag([1.0, -1.0]))

    def test_boundary_rejected_not_clamped(self):
        with pytest.raises(NotPositive):
            mat_sqrt_pd(np.diag([1.0, 0.0]))


def _non_finite(n, field, value):
    """An n x n matrix over the field with every entry value."""
    M = np.full((n, n), value)
    if field == "R":
        return M
    return M * (1 + 1j) if field == "C" else QMatrix(M * (1 + 1j), M * (1 - 1j))


class TestNonFiniteRejected:
    # A NaN or infinite residual raises: it never passes as Hermitian.
    CALLS = {
        "hermitian_eig": hermitian_eig,
        "matrix_function": lambda X: matrix_function(X, np.exp),
        "mat_log_pd": mat_log_pd,
        "eigvals_hermitian": eigvals_hermitian,
    }

    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_raises_not_hermitian(self, call, field, value):
        with pytest.raises(NotHermitian, match=r"residual nan exceeds \S+"):
            self.CALLS[call](_non_finite(2, field, value))

    def test_infinite_off_diagonal(self):
        # X - X* is finite but for one infinite pair: residual inf, and the
        # threshold from ||X|| = inf is inf too.
        X = np.array([[1.0, np.inf], [0.0, 1.0]])
        with pytest.raises(NotHermitian, match="residual inf exceeds inf"):
            hermitian_eig(X)


def _diag(rows, field):
    """The diagonal matrix of each row over the field, a stack of them for
    more than one row."""
    rows = np.asarray(rows, dtype=float)
    return from_real(rows[..., :, None] * np.eye(rows.shape[-1]), field)


class TestNonFiniteFunctionNamed:
    """f of an eigenvalue that is not finite raises NotFinite naming it, with
    no numpy warning (pyproject.toml makes every warning an error), where the
    product with the eigenvectors would spread it as NaNs."""

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("rows", [[800.0, 1.0, 2.0], [[1.0, 1.0, 2.0], [800.0, 1.0, 2.0]]])
    def test_exp_overflow(self, rows, field):
        with pytest.raises(NotFinite, match="f of an eigenvalue is inf, not finite"):
            mat_exp_h(_diag(rows, field))

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("f, named", [(np.log, "-inf"), (lambda w: 1.0 / w, "inf"),
                                          (np.sqrt, "nan")])
    def test_pole_or_invalid_value(self, f, named, field):
        # Eigenvalues 0 and -1: log and 1/w meet the pole at 0, sqrt is NaN at -1.
        rows = [[1.0, 2.0, 3.0], [2.0, 0.0, -1.0]] if named != "nan" else [2.0, -1.0, 3.0]
        with pytest.raises(NotFinite, match=f"f of an eigenvalue is {named}, not finite"):
            matrix_function(_diag(rows, field), f)

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("rows", [[1e11, 2e11, 3e11], [[1, 2, 3], [1e11, 2e11, 3e11]]])
    def test_power_overflow(self, rows, field):
        # (1e11)**32 overflows, and the product with the eigenvectors meets
        # inf * 0: the positive-definite functions take matrix_function's rule.
        with pytest.raises(NotFinite, match="f of an eigenvalue is inf, not finite"):
            mat_pow_pd(_diag(rows, field), 32.0)

    @pytest.mark.parametrize("field", FIELDS)
    def test_finite_values_pass(self, field):
        X = _diag([[700.0, 1.0, 2.0], [0.5, 1.0, 2.0]], field)
        assert np.isfinite(_embed(mat_exp_h(X))).all()


def test_only_matcore_builds_a_qmatrix_from_its_storage():
    # The storage of H is private to matcore: no other module wraps an array
    # as a QMatrix embedding.
    found = []
    for path in sorted((Path(__file__).parents[1] / "src" / "jcone").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("_of", "_from_top"):
                found.append(path.name)
    assert found and set(found) == {"matcore.py"}


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("stack", [(), (2,)])
def test_tiled_is_a_read_only_view_of_copies(field, stack):
    rng = np.random.default_rng(8)
    X = random_mat(3, field, rng)
    if stack:
        X = from_real(np.stack([np.eye(3), 2.0 * np.eye(3)]), field) + X
    T = tiled(X, 4)
    assert field_of(T) == field and T.shape == (4,) + X.shape
    assert not _embed(T).flags.writeable and np.shares_memory(_embed(T), _embed(X))
    for i in range(4):
        assert _embed(member(T, i)).tobytes() == _embed(X).tobytes()


class TestPositivity:
    def test_identity(self):
        assert is_positive_definite(np.eye(3))

    def test_counterexample_ja(self):
        assert is_positive_definite(np.array([[2.0, 1.0], [1.0, 2.0]]))

    def test_swap_not_positive(self):
        assert not is_positive_definite(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_quaternionic(self):
        rng = np.random.default_rng(15)
        X = mat_exp_h(random_hermitian(3, "H", rng, radius=1.0))
        assert is_positive_definite(X)

    def test_tol_reaches_the_hermitian_test(self):
        # Asymmetry 4e-10 passes at tol 1e-9, though not at the default 1e-10.
        X = np.array([[2.0, 0.3], [0.3 + 4e-10, 1.5]])
        assert is_positive_definite(X, 1e-9)
        with pytest.raises(NotHermitian):
            is_positive_definite(X)


class TestTrilInverse:
    """tril_inverse against a triangular solve, on Cholesky factors of
    exp(H), ||H||_F = 2, as the pencil sees them: over H the factor of the
    embedding, 2n wide."""

    @staticmethod
    def factor(n, field):
        rng = np.random.default_rng(n)
        return cholesky_factor(mat_exp_h(random_hermitian(n, field, rng, radius=2.0)))

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("n", [1, 3, 31, 32, 33, 40, 41, 64, 65, 130, 256])
    def test_matches_a_triangular_solve(self, n, field):
        L = self.factor(n, field)
        X = tril_inverse(L)
        ref = solve_triangular(L, np.eye(len(L)), lower=True)
        assert np.linalg.norm(X - ref) <= 1e-14 * np.linalg.norm(ref)
        if len(L) <= _TRIL_BLOCK:
            # inv(L) itself, bit for bit; its LU's row exchanges may leave
            # rounding above the diagonal.
            assert X.tobytes() == np.linalg.inv(L).tobytes()
        else:
            assert not np.triu(X, 1).any()

    @pytest.mark.parametrize("n", [41, 64, 100])
    def test_strictly_upper_part_is_zero_where_lu_exchanges_rows(self, n):
        # A factor whose first column grows downwards: LU of L with partial
        # pivoting swaps rows, and inv(L) has rounding above its diagonal.
        # The blocks are inverted through their upper-triangular adjoints,
        # whose LU swaps none.
        L = np.tril(np.random.default_rng(n).uniform(0.5, 1.0, (n, n))) + np.eye(n)
        L[:, 0] *= np.arange(1, n + 1)
        X = tril_inverse(L)
        ref = solve_triangular(L, np.eye(n), lower=True)
        assert np.linalg.norm(X - ref) <= 1e-14 * np.linalg.norm(ref)
        assert not np.triu(X, 1).any()


class TestTrilProduct:
    """tril_product(L, M) = L @ M and tril_product(L, M, right=True) = M @ L*
    for the lower-triangular factors and inverses the pencil multiplies by."""

    @staticmethod
    def operands(n, field):
        L = TestTrilInverse.factor(n, field)
        M = np.random.default_rng(n + 1).standard_normal((len(L), len(L) + 3))
        return L, M + 1j * M[::-1] if field != "R" else M

    @pytest.mark.parametrize("n, field", [(n, f) for f in FIELDS for n in (1, 3, 20, 31, 40)
                                          if (2 * n if f == "H" else n) <= _TRIL_BLOCK])
    def test_plain_product_up_to_the_block(self, n, field):
        # tril_inverse's output there may carry rounding above its diagonal,
        # which the product still reads.
        L, M = self.operands(n, field)
        for X in (L, tril_inverse(L)):
            assert tril_product(X, M).tobytes() == (X @ M).tobytes()
            N = M[:, :len(L)].T.copy()
            assert tril_product(X, N, right=True).tobytes() == (N @ X.conj().T).tobytes()

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("n", [41, 64, 90, 130])
    def test_agrees_with_the_full_product_past_the_block(self, n, field):
        # Each entry is a sum of the same products in another grouping: both
        # lie within gamma_n |L| |M| of the exact one, with
        # gamma_n = n u / (1 - n u); a complex product adds a few u.
        L, M = self.operands(n, field)
        u, m = np.finfo(float).eps / 2, len(L)
        for X in (L, tril_inverse(L)):
            bound = 2 * (m + 4) * u * (np.abs(np.tril(X)) @ np.abs(M))
            assert (np.abs(tril_product(X, M) - np.tril(X) @ M) <= bound).all()
            N = M[:, :m].T.copy()
            bound = 2 * (m + 4) * u * (np.abs(N) @ np.abs(np.tril(X)).T)
            assert (np.abs(tril_product(X, N, right=True) - N @ np.tril(X).conj().T)
                    <= bound).all()

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("n", [64, 130])
    def test_reads_nothing_above_its_diagonal_blocks(self, n, field):
        L, M = self.operands(n, field)
        m = len(L)
        # Row r is taken from the last block that holds it, which reads its
        # columns up to that block's end.
        above = np.zeros((m, m), dtype=bool)
        starts, b = _tril_blocks(m)
        for s in starts:
            above[s:s + b] = np.arange(m) >= s + b
        poisoned = np.where(above, np.nan, L)
        assert above.sum() >= m * m // 4
        assert tril_product(poisoned, M).tobytes() == tril_product(L, M).tobytes()
        N = M[:, :m].T.copy()
        assert (tril_product(poisoned, N, right=True).tobytes()
                == tril_product(L, N, right=True).tobytes())

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("m", [3, 64, 90])
    @pytest.mark.parametrize("right", [False, True])
    def test_broadcasts_over_stacks(self, m, dtype, right):
        # Each member of a stack, of L, of M or of both, is its lone product.
        rng = np.random.default_rng(m)

        def draw(shape):
            x = rng.standard_normal(shape)
            return x + 1j * rng.standard_normal(shape) if dtype is complex else x

        Ls, Ms = np.tril(draw((3, m, m))), draw((3, m, m))
        for L, M, pick in ((Ls, Ms, lambda i: (Ls[i], Ms[i])),
                           (Ls, Ms[0], lambda i: (Ls[i], Ms[0])),
                           (Ls[0], Ms, lambda i: (Ls[0], Ms[i]))):
            out = tril_product(L, M, right)
            assert out.shape == (3, m, m)
            for i in range(3):
                assert out[i].tobytes() == tril_product(*pick(i), right).tobytes()
