"""Dense square matrices over R, C and H with Hermitian spectral calculus.

Real and complex matrices are plain numpy arrays (real dtype means R, complex
dtype means C).  Quaternionic matrices are QMatrix objects: 2-D indexing,
slicing, slice assignment, reshape, copy, +, -, real scaling, @ and .H behave
as they do for arrays, and X[i, j] is a Quaternion.

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

Boundary rule: public spectral functions test input once by the one
Hermitian test (_check_hermitian: ||X - X*||_F certified against
threshold(tol, ||X||_F)), mat_*_pd add the one positivity threshold
(_positivity) at 1e-10.  Construction rule: a
matrix built from certified members goes to spectral_function or Pencil
untested, and only a computed eigenvalue <= 0 or a failed Cholesky
factorization rejects it (cholesky_factor, the certificate's, also rejects
an entry that is not finite).  Pencil.mean returns the mean alone:
certifying it is its caller's business, by one more Cholesky factorization,
not a spectrum.

Pencil rule: a pencil is one Cholesky factorization and the blocked
triangular inverse of its factor (tril_inverse): one stacked inv of the
factor's diagonal blocks, the rest matrix products.  Every product with the
factor or its inverse is a triangular one (tril_product): the plain product
up to 40 rows, and wider one that skips the zero blocks above the diagonal.

LAPACK rule: every eigh, eigvalsh, cholesky and inv here is a call to
jcone.lapack, numpy.linalg's own gufuncs without its per-call wrapper, which
costs more than the factorization at n = 3, or its error state built on each
call; polar's svd stays on numpy.linalg.  Raw input is widened to double
where first read (stacks._double).  The calls go through the module
(lapack.eigh), so a count or trace patched onto jcone.lapack sees each one.

Stack rule: every function here keeps the stack contract (see stacks).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import matmul, sub

import numpy as np

from . import lapack
from .errors import (NotFinite, NotHermitian, NotInImage, NotPositive, Singular,
                     certify, require, threshold)
from .scalars import Quaternion
from .stacks import _IGNORED, _double, _norm, _out, _real, _under, min_of, power


def _read_only(view: np.ndarray) -> np.ndarray:
    view.flags.writeable = False
    return view


class QMatrix:
    """Quaternionic matrix A + B*j held as its embedding Psi(A + B*j), or a
    stack of them: shape is (..., rows, columns)."""

    __slots__ = ("m",)
    # numpy defers arithmetic with arrays to QMatrix's own operators.
    __array_ufunc__ = None

    def __init__(self, a, b=None):
        a = np.asarray(a, dtype=complex)
        b = np.zeros_like(a) if b is None else np.asarray(b, dtype=complex)
        if a.shape != b.shape:
            raise ValueError("component shapes differ")
        if a.ndim < 2:
            raise ValueError("a quaternionic matrix has at least two axes")
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
        c = T.shape[-1] // 2
        return cls._of(_psi(T[..., :c], T[..., c:]))

    @property
    def shape(self):
        *stack, r, c = self.m.shape
        return (*stack, r // 2, c // 2)

    @property
    def a(self) -> np.ndarray:
        """A, as a read-only view of the embedding."""
        r, c = self.shape[-2:]
        return _read_only(self.m[..., :r, :c])

    @property
    def b(self) -> np.ndarray:
        """B, as a read-only view of the embedding."""
        r, c = self.shape[-2:]
        return _read_only(self.m[..., :r, c:])

    def __getitem__(self, key):
        # Integer indices give a Quaternion, slices a QMatrix; the key
        # indexes (..., rows, columns) as it would an array.
        a, b = self.a[key], self.b[key]
        if isinstance(a, np.ndarray):
            return QMatrix(a, b)
        return Quaternion.from_complex_pair(complex(a), complex(b))

    def __setitem__(self, key, value: "QMatrix"):
        # Each of the four blocks of Psi takes the same block of value's.
        (r, c), (vr, vc) = self.shape[-2:], value.shape[-2:]
        m, v = self.m, value.m
        m[..., :r, :c][key], m[..., :r, c:][key] = v[..., :vr, :vc], v[..., :vr, vc:]
        m[..., r:, :c][key], m[..., r:, c:][key] = v[..., vr:, :vc], v[..., vr:, vc:]

    def member(self, i) -> "QMatrix":
        return QMatrix._of(self.m[i])

    def copy(self) -> "QMatrix":
        return QMatrix._of(self.m.copy())

    def reshape(self, *shape) -> "QMatrix":
        return QMatrix(self.a.reshape(*shape), self.b.reshape(*shape))

    def __add__(self, other: "QMatrix") -> "QMatrix":
        return QMatrix._of(self.m + other.m)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return QMatrix._of(self.m - other.m)

    def __neg__(self) -> "QMatrix":
        return QMatrix._of(-self.m)

    def __mul__(self, s) -> "QMatrix":
        # Real scalars only, or per_member factors of them: they are central
        # in H, so the side does not matter.
        return QMatrix._of(_real(s) * self.m)

    __rmul__ = __mul__

    def __truediv__(self, s) -> "QMatrix":
        return self * (1.0 / _real(s))

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        # The top rows of Psi(X) Psi(Y) are [A1 A2 - B1 conj(B2), A1 B2 + B1 conj(A2)].
        return QMatrix._from_top(self.m[..., :self.m.shape[-2] // 2, :] @ other.m)

    @property
    def H(self) -> "QMatrix":
        # Psi(X)* = Psi(X*).
        return QMatrix._of(self.m.conj().mT)

    @staticmethod
    def from_quaternions(rows) -> "QMatrix":
        a = np.array([[complex(q.a, q.b) for q in row] for row in rows])
        b = np.array([[complex(q.c, q.d) for q in row] for row in rows])
        return QMatrix(a, b)

    def __repr__(self):
        return f"QMatrix(a={self.a!r}, b={self.b!r})"


def field_of(X) -> str:
    if isinstance(X, QMatrix):
        return "H"
    return "C" if X.dtype.kind == "c" else "R"


def is_matrix(X) -> bool:
    """True for a matrix over one of the three fields."""
    return isinstance(X, (np.ndarray, QMatrix))


def from_real(M: np.ndarray, field: str):
    """The real matrix M as a matrix over the field."""
    if field == "H":
        return QMatrix(M)
    return M.astype(complex) if field == "C" else M


def from_real_parts(parts: np.ndarray, field: str):
    """X0 over R, X0 + X1 i over C, X0 + X1 i + X2 j + X3 k over H, from the
    real matrices Xk = parts[..., k, :, :], whatever the storage of H."""
    x = parts[..., 0, :, :]
    if field == "R":
        return x
    z = x + 1j * parts[..., 1, :, :]
    if field == "C":
        return z
    return QMatrix(z, parts[..., 2, :, :] + 1j * parts[..., 3, :, :])


def identity(n: int, field: str):
    return from_real(np.eye(n), field)


def zeros(n: int, field: str):
    return from_real(np.zeros((n, n)), field)


def tiled(X, k: int):
    """k copies of X on a new leading axis, as a read-only view of X."""
    view = np.broadcast_to(_embed(X), (k,) + _embed(X).shape)
    return QMatrix._of(view) if isinstance(X, QMatrix) else view


def adjoint(X):
    if isinstance(X, QMatrix):
        return X.H
    return np.asarray(X).conj().mT


def fnorm(X) -> float:
    """Frobenius norm sqrt(trd(X* X)), uniform across the three fields: over H
    that of the top rows [A, B] of Psi(X)."""
    return _norm(_top(_embed(X), X))


def trd(X):
    """Reduced trace: real part of the trace (real part of tr(A) for A + B*j)."""
    M = X.a if isinstance(X, QMatrix) else X
    return _out(np.real(np.trace(M, axis1=-2, axis2=-1)))


def allclose(X, Y, tol: float = 1e-9):
    return fnorm(X - Y) <= threshold(tol, fnorm(X), fnorm(Y))


def _assemble(P, Q, R, S) -> np.ndarray:
    """[[P, Q], [R, S]] written block by block into one preallocated array;
    stacked blocks broadcast over their leading axes."""
    (r, c), (r2, c2) = P.shape[-2:], S.shape[-2:]
    if Q.shape[-2:] != (r, c2) or R.shape[-2:] != (r2, c):
        raise ValueError("blocks do not conform")
    stack = P.shape[:-2]
    if not stack == Q.shape[:-2] == R.shape[:-2] == S.shape[:-2]:
        stack = np.broadcast_shapes(stack, Q.shape[:-2], R.shape[:-2], S.shape[:-2])
    out = np.empty(stack + (r + r2, c + c2), dtype=np.result_type(P, Q, R, S))
    out[..., :r, :c] = P
    out[..., :r, c:] = Q
    out[..., r:, :c] = R
    out[..., r:, c:] = S
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
    block: NaN, with no numpy warning, where inf - inf meets an infinite entry."""
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2 or M.shape[-2] % 2 or M.shape[-1] % 2:
        raise ValueError("expected a matrix with an even number of rows and of columns")
    r, c = M.shape[-2] // 2, M.shape[-1] // 2
    A, B, C, D = M[..., :r, :c], M[..., :r, c:], M[..., r:, :c], M[..., r:, c:]
    return _norm(_under(_IGNORED, lambda: _assemble(-B - C.conj(), A - D.conj(),
                                                    A.conj() - D, C + B.conj())))


def psi_inverse(M: np.ndarray, tol: float = 1e-8) -> QMatrix:
    """Inverse of the embedding, for 2n x 2n matrices from outside the library."""
    M = np.asarray(M, dtype=complex)
    certify(psi_structural_residual(M), threshold(tol, _norm(M)), NotInImage,
            "M J2n = J2n conj(M) structural")
    return QMatrix._from_top(M[..., :M.shape[-2] // 2, :])


def _embed(X) -> np.ndarray:
    """The matrix the LAPACK calls see: the stored Psi(X) over H, X itself
    over R and C."""
    return X.m if isinstance(X, QMatrix) else np.asarray(X)


def _top(M: np.ndarray, X) -> np.ndarray:
    """The rows of a result computed on _embed(X) that determine it: all of
    them over R and C, the top half over H."""
    return M[..., :M.shape[-2] // 2, :] if isinstance(X, QMatrix) else M


def _unembed(T: np.ndarray, X):
    """The result over the field of X whose embedding has rows T = _top(M, X).

    Over H the result lies in the image of Psi by construction, so it is
    built from its top rows without the structural test of psi_inverse.
    """
    return QMatrix._from_top(T) if isinstance(X, QMatrix) else T


def negate_rows(X, p: int):
    """X in double with its rows from p on negated, over H those of both halves
    of Psi(X).  Negation is exact, so an infinite entry stays infinite where a
    product with a complex sign would add 0 * inf, a NaN, to its other part."""
    if isinstance(X, QMatrix):
        M = X.m.copy()
        n = M.shape[-2] // 2
        top, bottom = M[..., p:n, :], M[..., n + p:, :]
        np.negative(top, out=top)
        np.negative(bottom, out=bottom)
        return QMatrix._of(M)
    M = np.array(_double(X))
    rows = M[..., p:, :]
    np.negative(rows, out=rows)
    return M


def mat_inverse(X):
    """X^{-1} from one inv.  Raises Singular if inv fails or the 1-norm
    condition number ||X||_1 ||X^{-1}||_1 is not below 1e13."""
    M = _double(_embed(X))
    try:
        inv = lapack.inv(M)
    except np.linalg.LinAlgError as exc:
        raise Singular(f"inverse failed: {exc}") from None
    cond = np.linalg.norm(M, 1, axis=(-2, -1)) * np.linalg.norm(inv, 1, axis=(-2, -1))
    require(cond < 1e13, Singular, "1-norm condition number {:.3e} not below 1e13", cond)
    return _unembed(_top(inv, X), X)


def _check_hermitian(X, tol: float = 1e-10, error=NotHermitian, invariant="adjoint-symmetry"):
    """(X in double, ||X||_F), once X passes the one Hermitian test; X - X* is
    formed under _IGNORED, so an infinite entry meets the named error alone."""
    X = _double(X)
    nrm = fnorm(X)
    certify(fnorm(_under(_IGNORED, sub, X, adjoint(X))), threshold(tol, nrm), error, invariant)
    return X, nrm


def _positivity(w, tol: float):
    """(lambda_min, threshold(tol, |lambda_min|, |lambda_max|)) of the sorted
    eigenvalues w (..., m): positive definite at tol iff lambda_min > threshold."""
    a, b = _out(w[..., 0]), _out(w[..., -1])
    return min_of(a, b), threshold(tol, abs(a), abs(b))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Unitary factor and descending real eigenvalues of a Hermitian matrix."""

    unitary: object
    eigenvalues: np.ndarray

    def reconstruct(self):
        U, w = self.unitary, self.eigenvalues
        D = np.zeros(w.shape + w.shape[-1:])
        i = np.arange(w.shape[-1])
        D[..., i, i] = w
        return U @ from_real(D, field_of(U)) @ adjoint(U)


def _quaternionic_eig(w: np.ndarray, V: np.ndarray) -> SpectralDecomposition:
    """Quaternionic unitary factor from the descending eigenpairs of Psi(X).

    Eigenvectors of Psi(X) come in pairs spanning one quaternionic line each;
    one classical Gram-Schmidt pass over H keeps n of the 2n columns of V, in
    order, orthonormalizing inside degenerate clusters.  A column v of V is the
    first column of the 2n x 2 embedding of a quaternionic column x, which
    fixes x, and J2n conj(v) is the second.  The embeddings of the columns
    kept so far fill E, so x - U (U* x) is v - E (E* v); it is kept,
    normalized, when its norm ||x|| exceeds 1e-3.  V is unitary and a dropped
    column lies within 1e-3 of the kept span, so were fewer kept, its
    complement W would have 2 <= ||P_W V||_F^2 <= 2n 1e-6, which needs
    n >= 10^6.  Which columns are kept depends on the data, so a stack is
    taken member by member.
    """
    n = V.shape[-2] // 2
    E = np.zeros(V.shape, dtype=complex)
    kept = np.empty(w.shape[:-1] + (n,), dtype=int)
    for i in np.ndindex(V.shape[:-2]):
        v, e, m = V[i], E[i], 0
        for k in range(2 * n):
            if m == n:
                break
            Em = e[:, :2 * m]
            x = v[:, k] - Em @ (Em.conj().T @ v[:, k])
            nrm = float(np.linalg.norm(x))
            if nrm > 1e-3:
                x = x / nrm
                e[:, 2 * m] = x
                e[:n, 2 * m + 1], e[n:, 2 * m + 1] = -np.conj(x[n:]), np.conj(x[:n])
                kept[i + (m,)], m = k, m + 1
    first = E[..., 0::2]
    return SpectralDecomposition(QMatrix(first[..., :n, :], -np.conj(first[..., n:, :])),
                                 np.take_along_axis(w, kept, -1))


def hermitian_eig(X, tol: float = 1e-10) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending."""
    w, V = lapack.eigh(_embed(_check_hermitian(X, tol)[0]))
    w, V = w[..., ::-1], V[..., ::-1]
    if isinstance(X, QMatrix):
        return _quaternionic_eig(w, V)
    return SpectralDecomposition(V, w)


def _descending(w: np.ndarray, X) -> np.ndarray:
    # Over H each eigenvalue of X appears twice in Psi(X): keep one of each.
    return w[..., ::-2] if isinstance(X, QMatrix) else w[..., ::-1]


def eigvals_unchecked(X) -> np.ndarray:
    """Descending eigenvalues of X, which is Hermitian by construction."""
    return _descending(lapack.eigvalsh(_embed(X)), X)


def eigvals_hermitian(X, tol: float = 1e-10) -> np.ndarray:
    """Descending real eigenvalues; for H the doubled embedded list is halved."""
    return eigvals_unchecked(_check_hermitian(X, tol)[0])


def spectral_function(X, f, floor: float | None = None):
    """f(X) and f of the descending eigenvalues of X from one eigh, with no
    structural test; f sees those of _embed(X) ascending, once, so a stack's
    members and lone calls take the same numpy loop.  Given a floor, raises
    NotPositive unless X is positive definite at tol = floor (_positivity).
    f and its product ignore floating-point errors; callers reject f(w) not finite."""
    M = _embed(X)
    w, U = lapack.eigh(M)
    if floor is not None:
        lam, limit = _positivity(w, floor)
        require(lam > limit, NotPositive, "smallest eigenvalue {:.3e} not above {:.3e}",
                lam, limit)
    fw, T = _under(_IGNORED, _weighted, f, w, U, X)
    return _unembed(T, X), _descending(fw, X)


def _weighted(f, w, U, X):
    """(f(w), the top rows of U diag(f(w)) U*)."""
    fw = f(w)
    return fw, (_top(U, X) * fw[..., None, :]) @ U.conj().mT


def matrix_function(X, f):
    """Apply a real function to a Hermitian matrix through its eigenvalues.
    Raises NotFinite, naming the value, where f of an eigenvalue is not
    finite: the product with the eigenvectors would spread it as NaNs."""
    return _finite_function(X, f)


def _finite_function(X, f, floor: float | None = None):
    """matrix_function, given a floor on X's positivity (spectral_function)."""
    out, fw = spectral_function(_check_hermitian(X)[0], f, floor)
    require(np.isfinite(fw), NotFinite, "f of an eigenvalue is {}, not finite", fw)
    return out


def mat_exp_h(X):
    return matrix_function(X, np.exp)


def mat_log_pd(X):
    return _finite_function(X, np.log, floor=1e-10)


def mat_pow_pd(X, t):
    t = _real(t)
    return _finite_function(X, lambda w: power(w, t), floor=1e-10)


def mat_sqrt_pd(X):
    return mat_pow_pd(X, 0.5)


def _finite(X, error: type = NotFinite):
    """X itself once every entry is finite, else raises error: svd need not
    return on an infinite entry, and a factorization need not name it."""
    require(np.isfinite(_embed(X)).all(), error, "an entry is not finite")
    return X


def _finite_product(X, Y):
    """X @ Y, raising NotFinite where an entry is not finite, with no numpy warning."""
    return _finite(_under(_IGNORED, matmul, X, Y))


def cholesky_factor(X) -> np.ndarray:
    """Lower Cholesky factor of the embedding of X, which is Hermitian by
    construction, from one factorization.  Raises NotPositive, naming the
    reason, if an entry of X is not finite or the factorization fails: it
    reads one triangle and does not stop at a NaN or infinite pivot, so it
    need not fail on such an entry."""
    M = _embed(_finite(X, NotPositive))
    try:
        return lapack.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise NotPositive(str(exc)) from None


# Widest lower-triangular factor that tril_inverse hands to inv whole: up to
# about 38 rows inv beats the blocked path over R and C (2-vCPU x86 VM, one
# OpenBLAS thread), since both are mostly call overhead there.
_TRIL_BLOCK = 40


def _tril_blocks(n: int):
    """(starts, b): k = ceil(n / _TRIL_BLOCK) diagonal blocks of b = ceil(n / k)
    rows, the last one ending at row n (it overlaps the one before)."""
    k = -(-n // _TRIL_BLOCK)
    b = -(-n // k)
    return [i * b for i in range(k - 1)] + [n - b], b


def tril_inverse(L: np.ndarray) -> np.ndarray:
    """The inverse of the lower-triangular L from one inv, at every size.

    Up to _TRIL_BLOCK rows it is inv(L) itself.  Wider, L is cut into the
    diagonal blocks of _tril_blocks (a trailing block of L^{-1} is the
    inverse of L's, so rows met twice get the same values).  One stacked inv
    inverts the adjoints of all the blocks, which are upper triangular: their
    LU exchanges no rows, so the inverses are exactly triangular.  Each block
    row below the diagonal is then X[i, :i] = -D_i^{-1} (L[i, :i] X[:i, :i]):
    blocked triangular inversion by products alone (Du Croz and Higham, IMA
    J. Numer. Anal. 12, 1992), about a third of the flops of a general
    inverse.
    """
    n = L.shape[-1]
    if n <= _TRIL_BLOCK:
        return lapack.inv(L)
    starts, b = _tril_blocks(n)
    adjoints = np.stack([L[..., s:s + b, s:s + b] for s in starts], axis=-3).conj().mT
    inverses = lapack.inv(adjoints).conj().mT
    X = np.zeros_like(L)
    for i, s in enumerate(starts):
        rows, d = slice(s, s + b), inverses[..., i, :, :]
        X[..., rows, rows] = d
        if s:
            X[..., rows, :s] = -(d @ (L[..., rows, :s] @ X[..., :s, :s]))
    return X


def tril_product(L: np.ndarray, M: np.ndarray, right: bool = False) -> np.ndarray:
    """L @ M, or M @ L* = (L M*)* if right, for the lower-triangular L.

    Up to _TRIL_BLOCK rows it is that plain product, which reads all of L:
    inv(L) may carry rounding above its diagonal there.  Wider, L is zero
    above it, and each block row of _tril_blocks meets only the first rows
    of M, about half the flops; rows in two blocks take the last one's.
    """
    n = L.shape[-1]
    if n <= _TRIL_BLOCK:
        return M @ L.conj().mT if right else L @ M
    if right:
        return tril_product(L, M.conj().mT).conj().mT
    starts, b = _tril_blocks(n)
    out = np.empty(np.broadcast_shapes(L.shape[:-2], M.shape[:-2]) + M.shape[-2:],
                   dtype=np.result_type(L, M))
    for s in starts:
        out[..., s:s + b, :] = L[..., s:s + b, :s + b] @ M[..., :s + b, :]
    return out


def is_positive_definite(X, tol: float = 1e-10):
    lam, limit = _positivity(eigvals_hermitian(X, tol), tol)
    return lam > limit


class Pencil:
    """The Hermitian pencil (P, Q), P positive definite, factored once.

    P = L L* by Cholesky, L^{-1} is the blocked triangular inverse of L (one
    stacked inv of its diagonal blocks, see tril_inverse), and
    mid = L^{-1} Q L^{-*} has the eigenvalues w of P^{-1} Q.  Every product
    with L or L^{-1} is a tril_product.  With
    mid = U diag(w) U*, the weighted mean is

        P #_t Q = P^{1/2} (P^{-1/2} Q P^{-1/2})^t P^{1/2} = (L U) diag(w^t) (L U)*,

    the same for every L with L L* = P.  L lives on the embedded matrices:
    over H it is not in the image of Psi, but P #_t Q is.  A Cholesky failure
    raises NotPositive, and so does a computed w <= 0.
    """

    def __init__(self, P, Q):
        self._like = Q
        try:
            self._l = lapack.cholesky(_embed(P))
        except np.linalg.LinAlgError as exc:
            raise NotPositive(f"Cholesky factorization of P failed: {exc}") from None
        self._linv = tril_inverse(self._l)
        self._mid = self._congruence(_embed(Q))

    def _congruence(self, M):
        # Symmetrized: the products accumulate rounding, and eigh reads one
        # triangle only.
        C = tril_product(self._linv, tril_product(self._linv, M), right=True)
        return (C + C.conj().mT) * 0.5

    @staticmethod
    def _positive(w):
        low = _out(w[..., 0])
        require(low > 0.0, NotPositive,
                "smallest eigenvalue {:.3e} of P^-1 Q not positive", low)
        return w

    def eigenvalues(self) -> np.ndarray:
        """Descending eigenvalues of P^{-1} Q, each once over H."""
        return _descending(self._positive(lapack.eigvalsh(self._mid)), self._like)

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
        w, U = lapack.eigh(self._mid)
        V = tril_product(self._l, U)
        M = (V * power(self._positive(w), t)[..., None, :]) @ V.conj().mT
        return _project_to_image((M + M.conj().mT) * 0.5, self._like)

    def riccati_residual(self, Y):
        """The function of no arguments that returns ||Y P^{-1} Y - Q||_F for
        Hermitian Y.  It holds L^{-1}, Y and Q, not the pencil, so it may be
        kept and called later."""
        return partial(_riccati_residual, self._linv, Y, self._like)

    def inner(self, V):
        """trd(P^{-1} Q P^{-1} V) = trd(mid L^{-1} V L^{-*}) for Hermitian V."""
        C = self._congruence(_embed(V)).mT
        tr = np.sum(self._mid * C, axis=(-2, -1)).real
        # Over H the trace of the embedding counts each diagonal entry twice.
        return _out(tr / 2.0 if isinstance(V, QMatrix) else tr)


def _riccati_residual(linv: np.ndarray, Y, Q) -> float:
    """||Y P^{-1} Y - Q||_F with linv = L^{-1}, P = L L*: over H on the top rows
    of the embedded difference, which hold A and B once."""
    Z = tril_product(linv, _embed(Y))
    return _norm(_top(Z.conj().mT, Q) @ Z - _top(_embed(Q), Q))


def _project_to_image(M: np.ndarray, X):
    """The orthogonal projection of M onto the image of Psi, written into M,
    as a matrix over the field of X: over H the mean of the two copies of
    each block, after which M is the embedding of the result."""
    if not isinstance(X, QMatrix):
        return M
    n = M.shape[-2] // 2
    a = (M[..., :n, :n] + M[..., n:, n:].conj()) * 0.5
    b = (M[..., :n, n:] - M[..., n:, :n].conj()) * 0.5
    M[..., :n, :n], M[..., :n, n:] = a, b
    M[..., n:, :n], M[..., n:, n:] = -np.conj(b), np.conj(a)
    return QMatrix._of(M)


def polar(X):
    """Polar factors X = K R, K unitary and R = (X* X)^{1/2}, with the descending
    singular values of X, from one svd X = W diag(s) V*: K = W V* and
    R = V diag(s) V*, in double.  Raises Singular unless the smallest singular
    value exceeds 1e-13 times the largest, and NotFinite if an entry is not finite.

    Over H the svd of Psi(X) leaves K off the image of Psi by eps / s_min,
    so K and R are projected onto it, which keeps K unitary to (eps / s_min)^2.
    """
    W, s, Vh = np.linalg.svd(_double(_embed(_finite(X))))
    require(s[..., -1] > 1e-13 * s[..., 0], Singular,
            "singular-value ratio {:.3e} not above 1e-13",
            s[..., -1] / np.maximum(s[..., 0], 1e-300))
    R = (Vh.conj().mT * s[..., None, :]) @ Vh
    # Over H each singular value of X appears twice in Psi(X): keep one of each.
    return (_project_to_image(W @ Vh, X), _project_to_image((R + R.conj().mT) * 0.5, X),
            s[..., ::2] if isinstance(X, QMatrix) else s)


def block2x2(P, Q, R, S):
    """Assemble [[P, Q], [R, S]] respecting the field of the blocks."""
    if isinstance(P, QMatrix):
        return QMatrix(_assemble(P.a, Q.a, R.a, S.a), _assemble(P.b, Q.b, R.b, S.b))
    return _assemble(P, Q, R, S)
