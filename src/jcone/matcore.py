"""Dense square matrices over R, C and H with Hermitian spectral calculus.

Real and complex matrices are plain numpy arrays (real dtype means R, complex
dtype means C).  Quaternionic matrices are QMatrix objects: 2-D indexing,
slicing, slice assignment, reshape, +, -, real scaling, @ and .H behave as
they do for arrays, and X[i, j] is a Quaternion.

Storage rule: how H is stored is private to this module.  A QMatrix holds
one complex array m = Psi(A + B*j) = [[A, B], [-conj(B), conj(A)]], 2r x 2c,
exactly in the image of Psi; A and B are read-only views of its top blocks.
+, -, negation, real scaling and .H are one operation on m and keep it
exactly in the image (each entry equals its mirror, up to the sign of a
zero).  Every other result is built from its top rows (@, spectral_function,
mat_inverse, psi_inverse) or projected onto the image in place
(_project_to_image: Pencil.mean, polar), and norms are taken on the top rows,
which hold A and B once.  The LAPACK calls see m itself, so no operation
embeds anything, and only psi_inverse tests the structure, for matrices from
outside the library.  Psi and block2x2 write their blocks into one
preallocated array.

Boundary rule: public spectral functions test input once (_check_hermitian),
mat_*_pd add a relative 1e-10 positivity threshold.  Construction rule: a
matrix built from certified members goes to spectral_function or Pencil
untested, and only a computed eigenvalue <= 0 or a failed Cholesky
factorization rejects it (cholesky_factor, the certificate's, also rejects
an entry that is not finite).  Pencil.mean returns the mean alone:
certifying it is its caller's business, by one more Cholesky factorization,
not a spectrum.

Pencil rule: a pencil is one Cholesky factorization and the blocked
triangular inverse of its factor (tril_inverse): one stacked inv of the
factor's diagonal blocks, the rest matrix products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian, NotInImage, NotPositive, Singular
from .scalars import Quaternion


def _read_only(view: np.ndarray) -> np.ndarray:
    view.flags.writeable = False
    return view


class QMatrix:
    """Quaternionic matrix A + B*j held as its embedding Psi(A + B*j)."""

    __slots__ = ("m",)

    def __init__(self, a, b=None):
        a = np.asarray(a, dtype=complex)
        b = np.zeros_like(a) if b is None else np.asarray(b, dtype=complex)
        if a.shape != b.shape:
            raise ValueError("component shapes differ")
        if a.ndim != 2:
            raise ValueError("a quaternionic matrix has two axes")
        self.m = _psi(a, b)

    @classmethod
    def _of(cls, m: np.ndarray) -> "QMatrix":
        """The QMatrix whose embedding is m, taken as it is: m lies exactly in
        the image of Psi."""
        X = object.__new__(cls)
        X.m = m
        return X

    @classmethod
    def _from_top(cls, T: np.ndarray) -> "QMatrix":
        """The QMatrix whose embedding has top rows T = [A, B]."""
        c = T.shape[1] // 2
        return cls._of(_psi(T[:, :c], T[:, c:]))

    @property
    def shape(self):
        r, c = self.m.shape
        return r // 2, c // 2

    @property
    def a(self) -> np.ndarray:
        """A, as a read-only view of the embedding."""
        r, c = self.shape
        return _read_only(self.m[:r, :c])

    @property
    def b(self) -> np.ndarray:
        """B, as a read-only view of the embedding."""
        r, c = self.shape
        return _read_only(self.m[:r, c:])

    def __getitem__(self, key):
        # Integer indices give a Quaternion, slices a QMatrix.
        a, b = self.a[key], self.b[key]
        if isinstance(a, np.ndarray):
            return QMatrix(a, b)
        return Quaternion.from_complex_pair(complex(a), complex(b))

    def __setitem__(self, key, value: "QMatrix"):
        # Each of the four blocks of Psi takes the same block of value's.
        (r, c), (vr, vc) = self.shape, value.shape
        m, v = self.m, value.m
        m[:r, :c][key], m[:r, c:][key] = v[:vr, :vc], v[:vr, vc:]
        m[r:, :c][key], m[r:, c:][key] = v[vr:, :vc], v[vr:, vc:]

    def reshape(self, *shape) -> "QMatrix":
        return QMatrix(self.a.reshape(*shape), self.b.reshape(*shape))

    def __add__(self, other: "QMatrix") -> "QMatrix":
        return QMatrix._of(self.m + other.m)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return QMatrix._of(self.m - other.m)

    def __neg__(self) -> "QMatrix":
        return QMatrix._of(-self.m)

    def __mul__(self, s) -> "QMatrix":
        # Real scalars only: they are central in H, so the side does not matter.
        return QMatrix._of(float(s) * self.m)

    __rmul__ = __mul__

    def __truediv__(self, s) -> "QMatrix":
        return self * (1.0 / float(s))

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        # The top rows of Psi(X) Psi(Y) are [A1 A2 - B1 conj(B2), A1 B2 + B1 conj(A2)].
        return QMatrix._from_top(self.m[:self.m.shape[0] // 2] @ other.m)

    @property
    def H(self) -> "QMatrix":
        # Psi(X)* = Psi(X*).
        return QMatrix._of(self.m.conj().T)

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
        return QMatrix._of(np.eye(2 * n, dtype=complex))

    @staticmethod
    def zeros(shape) -> "QMatrix":
        r, c = shape
        return QMatrix._of(np.zeros((2 * r, 2 * c), dtype=complex))

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


def _norm(M: np.ndarray) -> float:
    """Frobenius norm of an array, bit for bit np.linalg.norm's: the same dot
    products of the raveled real and imaginary parts, taken by np.vdot, which
    does not warn when the sum of squares overflows.  Only then is it taken
    again as s ||M / s|| with s the largest |entry|, so finite entries give a
    finite norm wherever the norm itself is finite."""
    x = np.asarray(M).ravel(order="K")
    if x.dtype.kind not in "fc":
        x = x.astype(float)
    if x.dtype.kind == "c":
        nrm = math.sqrt(np.vdot(x.real, x.real) + np.vdot(x.imag, x.imag))
    else:
        nrm = math.sqrt(np.vdot(x, x))
    if nrm == math.inf:
        s = float(np.max(np.abs(x)))
        if s < math.inf:
            nrm = s * _norm(x / s)
    return nrm


def fnorm(X) -> float:
    """Frobenius norm sqrt(trd(X* X)), uniform across the three fields: over H
    that of the top rows [A, B] of Psi(X)."""
    return _norm(_top(_embed(X), X))


def trd(X) -> float:
    """Reduced trace: real part of the trace (real part of tr(A) for A + B*j)."""
    if isinstance(X, QMatrix):
        n = X.shape[0]
        return float(np.real(np.trace(X.m[:n, :n])))
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


def _psi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _assemble(a, b, -np.conj(b), np.conj(a))


def psi_matrix(X: QMatrix) -> np.ndarray:
    """The 2n x 2n complex matrix [[A, B], [-conj(B), conj(A)]] of A + B*j: the
    stored embedding, as a read-only view."""
    if not isinstance(X, QMatrix):
        raise TypeError("psi_matrix expects a quaternionic matrix")
    return _read_only(X.m.view())


def psi_structural_residual(M: np.ndarray) -> float:
    """Distance of the 2r x 2c matrix M from the image of the embedding:
    ||M J2c - J2r conj(M)||_F with J2k = [[0, I_k], [-I_k, 0]], taken block by
    block."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] % 2 or M.shape[1] % 2:
        raise ValueError("expected a matrix with an even number of rows and of columns")
    r, c = M.shape[0] // 2, M.shape[1] // 2
    A, B, C, D = M[:r, :c], M[:r, c:], M[r:, :c], M[r:, c:]
    return _norm(_assemble(-B - C.conj(), A - D.conj(), A.conj() - D, C + B.conj()))


def psi_inverse(M: np.ndarray, tol: float = 1e-8) -> QMatrix:
    """Inverse of the embedding, for 2n x 2n matrices from outside the library."""
    M = np.asarray(M, dtype=complex)
    residual, threshold = psi_structural_residual(M), tol * max(1.0, _norm(M))
    # An overflowed residual certifies nothing, even against an overflowed threshold.
    if not (residual <= threshold and np.isfinite(residual)):
        raise NotInImage(f"structural residual {residual:.3e} of M J2n = J2n conj(M) "
                         f"is not finite or exceeds {threshold:.3e}")
    return QMatrix._from_top(M[:M.shape[0] // 2])


def _embed(X) -> np.ndarray:
    """The matrix the LAPACK calls see: the stored Psi(X) over H, X itself
    over R and C."""
    return X.m if isinstance(X, QMatrix) else np.asarray(X)


def _top(M: np.ndarray, X) -> np.ndarray:
    """The rows of a result computed on _embed(X) that determine it: all of
    them over R and C, the top half over H."""
    return M[:M.shape[0] // 2] if isinstance(X, QMatrix) else M


def _unembed(T: np.ndarray, X):
    """The result over the field of X whose embedding has rows T = _top(M, X).

    Over H the result lies in the image of Psi by construction, so it is
    built from its top rows without the structural test of psi_inverse.
    """
    return QMatrix._from_top(T) if isinstance(X, QMatrix) else T


def negate_rows(X, p: int):
    """X with its rows from p on negated, over H those of both halves of
    Psi(X).  Negation is exact, so an infinite entry stays infinite where a
    product with a complex sign would add 0 * inf, a NaN, to its other part."""
    if isinstance(X, QMatrix):
        M = X.m.copy()
        n = len(M) // 2
        top, bottom = M[p:n], M[n + p:]
        np.negative(top, out=top)
        np.negative(bottom, out=bottom)
        return QMatrix._of(M)
    M = np.array(X)
    rows = M[p:]
    np.negative(rows, out=rows)
    return M


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
    return _unembed(_top(inv, X), X)


def _check_hermitian(X, tol: float = 1e-10):
    """X, once it passes the one Hermitian test."""
    residual, threshold = fnorm(X - adjoint(X)), tol * max(1.0, fnorm(X))
    # A NaN residual fails the comparison; an overflowed one certifies
    # nothing, even against an overflowed threshold.
    if not (residual <= threshold and residual < np.inf):
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


def _orthonormal_columns(V: np.ndarray, count: int, floor: float):
    """Up to count orthonormal quaternionic columns from the columns of V, in
    order (Gram-Schmidt over H); returns them as a QMatrix with the indices of
    the columns of V kept.

    A column v of V is the first column of the 2n x 2 embedding of a
    quaternionic column x, which fixes x, and J2n conj(v) is the second.  The
    embeddings of the columns kept so far fill E, so x - U (U* x) is
    v - E (E* v); it is kept, normalized, when its norm ||x|| exceeds floor.
    """
    n = V.shape[0] // 2
    E = np.zeros((2 * n, 2 * count), dtype=complex)
    kept = []
    for k in range(V.shape[1]):
        m = len(kept)
        if m == count:
            break
        Em = E[:, :2 * m]
        x = V[:, k] - Em @ (Em.conj().T @ V[:, k])
        nrm = float(np.linalg.norm(x))
        if nrm > floor:
            x = x / nrm
            E[:, 2 * m] = x
            E[:n, 2 * m + 1], E[n:, 2 * m + 1] = -np.conj(x[n:]), np.conj(x[:n])
            kept.append(k)
    first = E[:, 0::2]
    return QMatrix(first[:n], -np.conj(first[n:])), kept


def unitary_from_columns(g: QMatrix) -> QMatrix:
    """The unitary factor of g's quaternionic QR, by Gram-Schmidt on its columns."""
    n = g.shape[1]
    return _orthonormal_columns(g.m[:, :n], n, 0.0)[0]


def _quaternionic_eig(w: np.ndarray, V: np.ndarray) -> SpectralDecomposition:
    """Quaternionic unitary factor from the descending eigenpairs of Psi(X).

    Eigenvectors of Psi(X) come in pairs spanning one quaternionic line each;
    a quaternionic Gram-Schmidt pass selects n of the 2n and orthonormalizes
    inside degenerate clusters.
    """
    n = V.shape[0] // 2
    U, kept = _orthonormal_columns(V, n, 1e-3)
    if len(kept) != n:
        raise NotHermitian("quaternionic eigenvector selection failed")
    return SpectralDecomposition(U, w[kept])


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
    T = (_top(U, X) * f(w)) @ U.conj().T
    return _unembed(T if np.iscomplexobj(M) else T.real, X), _descending(w, X)


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


def cholesky_factor(X) -> np.ndarray:
    """Lower Cholesky factor of the embedding of X, which is Hermitian by
    construction, from one factorization.  Raises NotPositive, naming the
    reason, if an entry of X is not finite or the factorization fails: it
    reads one triangle and does not stop at a NaN or infinite pivot, so it
    need not fail on such an entry."""
    M = _embed(X)
    if not np.isfinite(M).all():
        raise NotPositive("an entry is not finite")
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise NotPositive(str(exc)) from None


# Widest lower-triangular factor that tril_inverse hands to inv whole: up to
# about 38 rows inv beats the blocked path over R and C (2-vCPU x86 VM, one
# OpenBLAS thread), since both are mostly call overhead there.
_TRIL_BLOCK = 40


def tril_inverse(L: np.ndarray) -> np.ndarray:
    """The inverse of the lower-triangular L from one inv, at every size.

    Up to _TRIL_BLOCK rows it is inv(L) itself.  Wider, L is cut into
    k = ceil(n / _TRIL_BLOCK) diagonal blocks of b = ceil(n / k) rows, the
    last one ending at row n (it overlaps the one before: a trailing block of
    L^{-1} is the inverse of L's, so rows met twice get the same values).  One
    stacked inv inverts the adjoints of all k blocks, which are upper
    triangular: their LU exchanges no rows, so the inverses are exactly
    triangular.  Each block row below the diagonal is then
    X[i, :i] = -D_i^{-1} (L[i, :i] X[:i, :i]): blocked triangular inversion
    by products alone (Du Croz and Higham, IMA J. Numer. Anal. 12, 1992),
    about a third of the flops of a general inverse.
    """
    n = L.shape[0]
    if n <= _TRIL_BLOCK:
        return np.linalg.inv(L)
    k = -(-n // _TRIL_BLOCK)
    b = -(-n // k)
    starts = [i * b for i in range(k - 1)] + [n - b]
    adjoints = np.stack([L[s:s + b, s:s + b] for s in starts]).conj().swapaxes(1, 2)
    X = np.zeros_like(L)
    for s, d in zip(starts, np.linalg.inv(adjoints).swapaxes(1, 2).conj()):
        rows = slice(s, s + b)
        X[rows, rows] = d
        if s:
            X[rows, :s] = -(d @ (L[rows, :s] @ X[:s, :s]))
    return X


def is_positive_definite(X, tol: float = 1e-10) -> bool:
    lam = eigvals_hermitian(X, tol)
    spectral_norm = max(abs(lam[0]), abs(lam[-1]))
    return lam[-1] > tol * max(1.0, spectral_norm)


class Pencil:
    """The Hermitian pencil (P, Q), P positive definite, factored once.

    P = L L* by Cholesky, L^{-1} is the blocked triangular inverse of L (one
    stacked inv of its diagonal blocks, see tril_inverse), and
    mid = L^{-1} Q L^{-*} has the eigenvalues w of P^{-1} Q.  With
    mid = U diag(w) U*, the weighted mean is

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
        self._linv = tril_inverse(self._l)
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
        """P #_t Q, Hermitian and positive definite by construction, from one
        eigh; it is not certified here.

        The mean is symmetrized while embedded and, over H, projected onto
        the image of Psi in place; that array is the returned matrix's
        embedding.  The projection averages the two copies of each block,
        whose rounding differs (each eigenvalue of the embedded pencil is a
        pair that eigh splits freely); building the mean from its top rows
        alone left Riccati residuals 2-4 times larger.
        """
        w, U = np.linalg.eigh(self._mid)
        V = self._l @ U
        M = (V * np.power(self._positive(w), float(t))) @ V.conj().T
        return _project_to_image((M + M.conj().T) * 0.5, self._like)

    def riccati_residual(self, Y) -> float:
        """||Y P^{-1} Y - Q||_F for Hermitian Y, from the factor in hand: over H
        on the top rows of the embedded difference, which hold A and B once."""
        Z = self._linv @ _embed(Y)
        return _norm(_top(Z.conj().T, self._like) @ Z - _top(self._q, self._like))

    def inner(self, V) -> float:
        """trd(P^{-1} Q P^{-1} V) = trd(mid L^{-1} V L^{-*}) for Hermitian V."""
        tr = float(np.sum(self._mid * self._congruence(_embed(V)).T).real)
        # Over H the trace of the embedding counts each diagonal entry twice.
        return tr / 2.0 if isinstance(V, QMatrix) else tr


def _project_to_image(M: np.ndarray, X):
    """The orthogonal projection of M onto the image of Psi, written into M,
    as a matrix over the field of X: over H the mean of the two copies of
    each block, after which M is the embedding of the result."""
    if not isinstance(X, QMatrix):
        return M
    n = M.shape[0] // 2
    a = (M[:n, :n] + M[n:, n:].conj()) * 0.5
    b = (M[:n, n:] - M[n:, :n].conj()) * 0.5
    M[:n, :n], M[:n, n:], M[n:, :n], M[n:, n:] = a, b, -np.conj(b), np.conj(a)
    return QMatrix._of(M)


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
        return QMatrix(_assemble(P.a, Q.a, R.a, S.a), _assemble(P.b, Q.b, R.b, S.b))
    return _assemble(P, Q, R, S)
