"""Dense square matrices over R, C and H with Hermitian spectral calculus.

Real and complex matrices are plain numpy arrays (real dtype means R, complex
dtype means C).  Quaternionic matrices are QMatrix objects: 2-D indexing,
slicing, slice assignment, reshape, +, -, real scaling, @ and .H behave as
they do for arrays, and X[i, j] is a Quaternion.

How H is stored is private to this module: a QMatrix holds a pair (a, b) of
complex arrays meaning A + B*j, and all spectral work routes through the
embedding Psi(A + B*j) = [[A, B], [-conj(B), conj(A)]] into 2n x 2n complex
matrices.  Embedding rule: an operation embeds each operand once, through
psi_matrix (every embedding goes by that name), and reads each result back
once, off the top blocks.  Results lie in the image of Psi by construction,
or are projected onto it (Pencil.mean, polar); only psi_inverse tests that
structure, for matrices from outside the library.  Pencil.mean keeps its
result embedded, and the certificate's eigenvalues, like the Riccati residual
at weight 1/2, are taken on that array, not on a second embedding of the
read-back mean.  Psi and block2x2 write their blocks into one preallocated
array.

Boundary rule: public spectral functions test input once (_check_hermitian),
mat_*_pd add a relative 1e-10 positivity threshold.  Construction rule: a
matrix built from certified members goes to spectral_function or Pencil
untested, and only a computed eigenvalue <= 0 (or a failed Cholesky step)
rejects it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian, NotInImage, NotPositive, Singular
from .scalars import Quaternion


class QMatrix:
    """Quaternionic matrix A + B*j held as two complex numpy arrays."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=None):
        a = np.asarray(a, dtype=complex)
        b = np.zeros_like(a) if b is None else np.asarray(b, dtype=complex)
        if a.shape != b.shape:
            raise ValueError("component shapes differ")
        self.a = a
        self.b = b

    @classmethod
    def _of(cls, a: np.ndarray, b: np.ndarray) -> "QMatrix":
        """A QMatrix over complex arrays a and b of one shape, taken as they are."""
        X = object.__new__(cls)
        X.a = a
        X.b = b
        return X

    @property
    def shape(self):
        return self.a.shape

    def __getitem__(self, key):
        # Integer indices give a Quaternion, slices a QMatrix.
        a, b = self.a[key], self.b[key]
        if isinstance(a, np.ndarray):
            return QMatrix._of(a, b)
        return Quaternion.from_complex_pair(complex(a), complex(b))

    def __setitem__(self, key, value: "QMatrix"):
        self.a[key], self.b[key] = value.a, value.b

    def reshape(self, *shape) -> "QMatrix":
        return QMatrix._of(self.a.reshape(*shape), self.b.reshape(*shape))

    def __add__(self, other: "QMatrix") -> "QMatrix":
        return QMatrix._of(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return QMatrix._of(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "QMatrix":
        return QMatrix._of(-self.a, -self.b)

    def __mul__(self, s) -> "QMatrix":
        # Real scalars only: they are central in H, so the side does not matter.
        s = float(s)
        return QMatrix._of(s * self.a, s * self.b)

    __rmul__ = __mul__

    def __truediv__(self, s) -> "QMatrix":
        return self * (1.0 / float(s))

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        # (A1 + B1 j)(A2 + B2 j) = (A1 A2 - B1 conj(B2)) + (A1 B2 + B1 conj(A2)) j
        a = self.a @ other.a - self.b @ np.conj(other.b)
        b = self.a @ other.b + self.b @ np.conj(other.a)
        return QMatrix._of(a, b)

    @property
    def H(self) -> "QMatrix":
        # Entrywise quaternion conjugate of the transpose.
        return QMatrix._of(self.a.conj().T, -self.b.T)

    def trace(self) -> Quaternion:
        z1 = complex(np.trace(self.a))
        z2 = complex(np.trace(self.b))
        return Quaternion.from_complex_pair(z1, z2)

    @staticmethod
    def from_quaternions(rows) -> "QMatrix":
        a = np.array([[complex(q.a, q.b) for q in row] for row in rows])
        b = np.array([[complex(q.c, q.d) for q in row] for row in rows])
        return QMatrix(a, b)

    @staticmethod
    def eye(n: int) -> "QMatrix":
        return QMatrix(np.eye(n, dtype=complex))

    @staticmethod
    def zeros(shape) -> "QMatrix":
        return QMatrix(np.zeros(shape, dtype=complex))

    def __repr__(self):
        return f"QMatrix(a={self.a!r}, b={self.b!r})"


def field_of(X) -> str:
    if isinstance(X, QMatrix):
        return "H"
    return "C" if np.iscomplexobj(X) else "R"


def is_matrix(X) -> bool:
    """True for a matrix over one of the three fields."""
    return isinstance(X, (np.ndarray, QMatrix))


def from_real(M: np.ndarray, field: str):
    """The real matrix M as a matrix over the field."""
    if field == "H":
        return QMatrix(M)
    return M.astype(complex) if field == "C" else M


def from_real_parts(part, field: str):
    """X0 over R, X0 + X1 i over C, X0 + X1 i + X2 j + X3 k over H.

    Each real matrix Xk = part() is taken in that order, so a random draw
    consumes its generator the same way whatever the storage of H.
    """
    x = part()
    if field == "R":
        return x
    z = x + 1j * part()
    if field == "C":
        return z
    return QMatrix(z, part() + 1j * part())


def identity(n: int, field: str):
    return from_real(np.eye(n), field)


def zeros(n: int, field: str):
    return from_real(np.zeros((n, n)), field)


def adjoint(X):
    if isinstance(X, QMatrix):
        return X.H
    return np.asarray(X).conj().T


def fnorm(X) -> float:
    """Frobenius norm sqrt(trd(X* X)), uniform across the three fields."""
    if isinstance(X, QMatrix):
        return float(np.sqrt(np.linalg.norm(X.a) ** 2 + np.linalg.norm(X.b) ** 2))
    return float(np.linalg.norm(X))


def trd(X) -> float:
    """Reduced trace: real part of the trace (real part of tr(A) for A + B*j)."""
    if isinstance(X, QMatrix):
        return float(np.real(np.trace(X.a)))
    return float(np.real(np.trace(X)))


def allclose(X, Y, tol: float = 1e-9) -> bool:
    scale = max(1.0, fnorm(X), fnorm(Y))
    return fnorm(X - Y) <= tol * scale


def _assemble(P, Q, R, S) -> np.ndarray:
    """[[P, Q], [R, S]] written block by block into one preallocated array."""
    (r, c), (r2, c2) = P.shape, S.shape
    if Q.shape != (r, c2) or R.shape != (r2, c):
        raise ValueError("blocks do not conform")
    out = np.empty((r + r2, c + c2), dtype=np.result_type(P, Q, R, S))
    out[:r, :c] = P
    out[:r, c:] = Q
    out[r:, :c] = R
    out[r:, c:] = S
    return out


def psi_matrix(X: QMatrix) -> np.ndarray:
    """Embed A + B*j as the 2n x 2n complex matrix [[A, B], [-conj(B), conj(A)]]."""
    if not isinstance(X, QMatrix):
        raise TypeError("psi_matrix expects a quaternionic matrix")
    return _assemble(X.a, X.b, -np.conj(X.b), np.conj(X.a))


def psi_structural_residual(M: np.ndarray) -> float:
    """Distance of M from the image of the embedding: ||M J2n - J2n conj(M)||_F
    with J2n = [[0, I], [-I, 0]], taken block by block."""
    M = np.asarray(M, dtype=complex)
    n2 = M.shape[0]
    if M.shape != (n2, n2) or n2 % 2:
        raise ValueError("expected an even-dimensional square matrix")
    n = n2 // 2
    A, B, C, D = M[:n, :n], M[:n, n:], M[n:, :n], M[n:, n:]
    return float(np.linalg.norm(_assemble(-B - C.conj(), A - D.conj(),
                                          A.conj() - D, C + B.conj())))


def _top_blocks(M: np.ndarray) -> QMatrix:
    n = M.shape[0] // 2
    return QMatrix._of(M[:n, :n], M[:n, n:])


def psi_inverse(M: np.ndarray, tol: float = 1e-8) -> QMatrix:
    """Inverse of the embedding, for 2n x 2n matrices from outside the library."""
    M = np.asarray(M, dtype=complex)
    residual, threshold = psi_structural_residual(M), tol * max(1.0, np.linalg.norm(M))
    # An overflowed residual certifies nothing, even against an overflowed threshold.
    if not (residual <= threshold and np.isfinite(residual)):
        raise NotInImage(f"structural residual {residual:.3e} of M J2n = J2n conj(M) "
                         f"is not finite or exceeds {threshold:.3e}")
    return _top_blocks(M)


def _embed(X) -> np.ndarray:
    """The matrix the LAPACK calls see: Psi(X) over H, X itself over R and C."""
    return psi_matrix(X) if isinstance(X, QMatrix) else np.asarray(X)


def _unembed(M: np.ndarray, X):
    """Bring a result computed on _embed(X) back to the field of X.

    Over H the result lies in the image of Psi by construction, so its top
    blocks are read off without the structural test of psi_inverse.
    """
    return _top_blocks(M) if isinstance(X, QMatrix) else M


def scale_rows(d, X):
    """diag(d) X for a real vector d, without forming diag(d) or a product."""
    d = np.asarray(d)[:, None]
    if isinstance(X, QMatrix):
        return QMatrix._of(d * X.a, d * X.b)
    return d * X


def mat_inverse(X):
    """X^{-1} from one inv.  Raises Singular if inv fails or the 1-norm
    condition number ||X||_1 ||X^{-1}||_1 is not below 1e13."""
    M = _embed(X)
    try:
        inv = np.linalg.inv(M)
    except np.linalg.LinAlgError as exc:
        raise Singular(f"inverse failed: {exc}") from None
    cond = np.linalg.norm(M, 1) * np.linalg.norm(inv, 1)
    if not cond < 1e13:
        raise Singular(f"1-norm condition number {cond:.3e} not below 1e13")
    return _unembed(inv, X)


def _check_hermitian(X, tol: float = 1e-10):
    """X, once it passes the one Hermitian test."""
    residual, threshold = fnorm(X - adjoint(X)), tol * max(1.0, fnorm(X))
    if residual > threshold:
        raise NotHermitian(f"adjoint-symmetry residual {residual:.3e} exceeds {threshold:.3e}")
    return X


@dataclass(frozen=True)
class SpectralDecomposition:
    """Unitary factor and descending real eigenvalues of a Hermitian matrix."""

    unitary: object
    eigenvalues: np.ndarray

    def reconstruct(self):
        U = self.unitary
        return U @ from_real(np.diag(self.eigenvalues), field_of(U)) @ adjoint(U)


def _quat_vdot(x: QMatrix, y: QMatrix) -> Quaternion:
    # <x, y> = sum conj(x_i) y_i for column vectors x = x1 + x2 j.
    z1 = np.vdot(x.a, y.a) + np.vdot(y.b, x.b)
    z2 = np.vdot(x.a, y.b) - np.vdot(y.a, x.b)
    return Quaternion.from_complex_pair(complex(z1), complex(z2))


def _quat_scale_right(x: QMatrix, s: Quaternion) -> QMatrix:
    s1, s2 = s.as_complex_pair()
    return QMatrix._of(x.a * s1 - x.b * np.conj(s2), x.a * s2 + x.b * np.conj(s1))


def _quat_project_out(x: QMatrix, U: QMatrix) -> QMatrix:
    """x less its components along the orthonormal columns of U, taken one
    column at a time (modified Gram-Schmidt over H)."""
    for k in range(U.shape[1]):
        u = U[:, k:k + 1]
        x = x - _quat_scale_right(u, _quat_vdot(u, x))
    return x


def _quaternionic_eig(w: np.ndarray, V: np.ndarray) -> SpectralDecomposition:
    """Quaternionic unitary factor from the descending eigenpairs of Psi(X).

    Eigenvectors of Psi(X) come in pairs spanning one quaternionic line each;
    a quaternionic Gram-Schmidt pass selects n of the 2n and orthonormalizes
    inside degenerate clusters.
    """
    n = V.shape[0] // 2
    U = QMatrix.zeros((n, n))
    vals = []
    for k in range(2 * n):
        m = len(vals)
        if m == n:
            break
        v = V[:, k:k + 1]
        x = _quat_project_out(QMatrix._of(v[:n], -np.conj(v[n:])), U[:, :m])
        nrm = fnorm(x)
        if nrm > 1e-3:
            U[:, m:m + 1] = x / nrm
            vals.append(w[k])
    if len(vals) != n:
        raise NotHermitian("quaternionic eigenvector selection failed")
    return SpectralDecomposition(U, np.array(vals))


def hermitian_eig(X, tol: float = 1e-10) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending."""
    w, V = np.linalg.eigh(_embed(_check_hermitian(X, tol)))
    w, V = w[::-1], V[:, ::-1]
    if isinstance(X, QMatrix):
        return _quaternionic_eig(w, V)
    return SpectralDecomposition(V, w)


def _descending(w: np.ndarray, X) -> np.ndarray:
    # Over H each eigenvalue of X appears twice in Psi(X): keep one of each.
    return w[::-2] if isinstance(X, QMatrix) else w[::-1]


def eigvals_unchecked(X) -> np.ndarray:
    """Descending eigenvalues of X, which is Hermitian by construction."""
    return _descending(np.linalg.eigvalsh(_embed(X)), X)


def eigvals_hermitian(X, tol: float = 1e-10) -> np.ndarray:
    """Descending real eigenvalues; for H the doubled embedded list is halved."""
    return eigvals_unchecked(_check_hermitian(X, tol))


def spectral_function(X, f, floor: float | None = None):
    """f(X) and the descending eigenvalues of X from one eigh, with no structural
    test; f sees those of _embed(X) ascending.  Given a floor, raises NotPositive
    unless the smallest eigenvalue exceeds floor * max(1, |eigenvalues|)."""
    M = _embed(X)
    w, U = np.linalg.eigh(M)
    if floor is not None and not w[0] > floor * max(1.0, abs(w[0]), abs(w[-1])):
        raise NotPositive(f"smallest eigenvalue {w[0]:.3e} not above {floor:.0e} * max(1, |w|)")
    out = (U * f(w)) @ U.conj().T
    return _unembed(out if np.iscomplexobj(M) else out.real, X), _descending(w, X)


def matrix_function(X, f):
    """Apply a real function to a Hermitian matrix through its eigenvalues."""
    return spectral_function(_check_hermitian(X), f)[0]


def mat_exp_h(X):
    return matrix_function(X, np.exp)


def mat_log_pd(X):
    return spectral_function(_check_hermitian(X), np.log, floor=1e-10)[0]


def mat_pow_pd(X, t: float):
    return spectral_function(_check_hermitian(X), lambda w: np.power(w, float(t)),
                             floor=1e-10)[0]


def mat_sqrt_pd(X):
    return mat_pow_pd(X, 0.5)


def is_positive_definite(X, tol: float = 1e-10) -> bool:
    lam = eigvals_hermitian(X, tol)
    spectral_norm = max(abs(lam[0]), abs(lam[-1]))
    return lam[-1] > tol * max(1.0, spectral_norm)


class Pencil:
    """The Hermitian pencil (P, Q), P positive definite, factored once.

    P = L L* by Cholesky, and mid = L^{-1} Q L^{-*} has the eigenvalues w of
    P^{-1} Q.  With mid = U diag(w) U*, the weighted mean is

        P #_t Q = P^{1/2} (P^{-1/2} Q P^{-1/2})^t P^{1/2} = (L U) diag(w^t) (L U)*,

    the same for every L with L L* = P.  L lives on the embedded matrices:
    over H it is not in the image of Psi, but P #_t Q is.  A Cholesky failure
    raises NotPositive, and so does a computed w <= 0.
    """

    def __init__(self, P, Q):
        self._like = Q
        self._q = _embed(Q)
        try:
            self._l = np.linalg.cholesky(_embed(P))
        except np.linalg.LinAlgError as exc:
            raise NotPositive(f"Cholesky factorization of P failed: {exc}") from None
        self._linv = np.linalg.inv(self._l)
        self._mid = self._congruence(self._q)

    def _congruence(self, M):
        # Symmetrized: the products accumulate rounding, and eigh reads one
        # triangle only.
        C = self._linv @ M @ self._linv.conj().T
        return (C + C.conj().T) * 0.5

    @staticmethod
    def _positive(w):
        if not w[0] > 0.0:
            raise NotPositive(f"smallest eigenvalue {w[0]:.3e} of P^-1 Q not positive")
        return w

    def eigenvalues(self) -> np.ndarray:
        """Descending eigenvalues of P^{-1} Q, each once over H."""
        return _descending(self._positive(np.linalg.eigvalsh(self._mid)), self._like)

    def mean(self, t: float):
        """P #_t Q, Hermitian, with its descending eigenvalues and its embedding.

        The mean is symmetrized while embedded and, over H, projected onto
        the image of Psi in place, so the embedding returned is bitwise
        _embed of the returned matrix and the eigenvalues come from it.
        """
        w, U = np.linalg.eigh(self._mid)
        V = self._l @ U
        M = (V * np.power(self._positive(w), float(t))) @ V.conj().T
        M = (M + M.conj().T) * 0.5
        out = _project_to_image(M, self._like)
        return out, _descending(np.linalg.eigvalsh(M), self._like), M

    def riccati_residual(self, Y) -> float:
        """||Y P^{-1} Y - Q||_F for Hermitian Y, from the factor in hand; Y may
        be given embedded, as mean() returns it."""
        Z = self._linv @ _embed(Y)
        return fnorm(_unembed(Z.conj().T @ Z - self._q, self._like))

    def inner(self, V) -> float:
        """trd(P^{-1} Q P^{-1} V) = trd(mid L^{-1} V L^{-*}) for Hermitian V."""
        tr = float(np.sum(self._mid * self._congruence(_embed(V)).T).real)
        # Over H the trace of the embedding counts each diagonal entry twice.
        return tr / 2.0 if isinstance(V, QMatrix) else tr


def _project_to_image(M: np.ndarray, X):
    """The orthogonal projection of M onto the image of Psi, written into M
    and read back to the field of X: the mean of the two copies of each block
    over H, after which M is bitwise psi_matrix of the result."""
    if not isinstance(X, QMatrix):
        return M
    n = M.shape[0] // 2
    a = (M[:n, :n] + M[n:, n:].conj()) * 0.5
    b = (M[:n, n:] - M[n:, :n].conj()) * 0.5
    M[:n, :n], M[:n, n:], M[n:, :n], M[n:, n:] = a, b, -np.conj(b), np.conj(a)
    return QMatrix._of(a, b)


def polar(X):
    """Polar factors X = K R, K unitary and R = (X* X)^{1/2}, with the descending
    singular values of X, from one svd X = W diag(s) V*: K = W V* and
    R = V diag(s) V*.  Raises Singular unless the smallest singular value
    exceeds 1e-13 times the largest.

    Over H the svd of Psi(X) leaves K off the image of Psi by eps / s_min,
    so K and R are projected onto it, which keeps K unitary to (eps / s_min)^2.
    """
    W, s, Vh = np.linalg.svd(_embed(X))
    if not s[-1] > 1e-13 * s[0]:
        raise Singular(f"singular-value ratio {s[-1] / max(s[0], 1e-300):.3e} not above 1e-13")
    R = (Vh.conj().T * s) @ Vh
    # Over H each singular value of X appears twice in Psi(X): keep one of each.
    return (_project_to_image(W @ Vh, X), _project_to_image((R + R.conj().T) * 0.5, X),
            s[::2] if isinstance(X, QMatrix) else s)


def block2x2(P, Q, R, S):
    """Assemble [[P, Q], [R, S]] respecting the field of the blocks."""
    if isinstance(P, QMatrix):
        return QMatrix._of(_assemble(P.a, Q.a, R.a, S.a), _assemble(P.b, Q.b, R.b, S.b))
    return _assemble(P, Q, R, S)
