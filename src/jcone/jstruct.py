"""The signature form J = diag(Id_p, -Id_q) and the structures it induces.

Provides the sharp involution X -> J X* J, membership tests for J-Hermitian
matrices, J-positive matrices and the (J-)unitary groups, the block shape of
J-Hermitian matrices with the Schur positivity test, and the bijection
phi_J: X -> JX between the J-Hermitian space and the Hermitian matrices.

A member of P_J holds X or JX, and J is applied only where the other form
is read.  Boundary rule: is_j_positive certifies outside input X at the
caller's tol, by phi_J (the one J-Hermitian test) and a relative threshold
on lambda_min(JX); the member holds X.  Construction rule: certify_constructed
certifies an image P = JX built from certified members, the form every cone
operation works on, and the member holds P.  With eigenvalues of P in hand
it rejects one <= 0 or not finite; without them it takes one Cholesky
factorization of P, which is all the certificate needs, and lambda_min(P) is
computed only if it is read (a read value not finite and positive raises
NotJPositive).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, IndeterminateSchur, NotJHermitian,
                     NotJPositive, NotPositive)
from .matcore import (_check_hermitian, _embed, adjoint, block2x2,
                      cholesky_factor, eigvals_unchecked, field_of, fnorm,
                      from_real, identity, mat_inverse, negate_rows)


@dataclass(frozen=True)
class Signature:
    """Block sizes (p, q) of the form J = diag(Id_p, -Id_q).

    J is applied as an exact negation of the last q rows (flip), never as a
    product with the dense matrix.  matrix() builds J itself for callers that
    need it.
    """

    p: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0 or self.p + self.q < 1:
            raise ValueError("need p, q >= 0 with p + q >= 1")
        d = np.concatenate([np.ones(self.p), -np.ones(self.q)])
        d.flags.writeable = False
        object.__setattr__(self, "_diag", d)

    @property
    def n(self) -> int:
        return self.p + self.q

    def diag(self) -> np.ndarray:
        """The diagonal of J, built once and read-only."""
        return self._diag

    def flip(self, X):
        """JX: the last q rows of X negated."""
        return negate_rows(X, self.p)

    def matrix(self, field: str = "R"):
        return from_real(np.diag(self._diag), field)

    def matrix_for(self, X):
        return self.matrix(field_of(X))


def _check_dim(X, sig: Signature):
    if X.shape != (sig.n, sig.n):
        raise DimensionMismatch(f"expected {sig.n}x{sig.n}, got {X.shape}")


def sharp(X, sig: Signature):
    """The indefinite adjoint X -> J X* J."""
    _check_dim(X, sig)
    return sig.flip(adjoint(sig.flip(X)))


def is_j_hermitian(X, sig: Signature, tol: float = 1e-10) -> bool:
    try:
        phi_J(X, sig, tol)
        return True
    except NotJHermitian:
        return False


def is_in_U_J(g, sig: Signature, tol: float = 1e-10) -> bool:
    """Membership in the J-unitary group: g# g = Id."""
    _check_dim(g, sig)
    eye = identity(sig.n, field_of(g))
    return fnorm(sharp(g, sig) @ g - eye) <= tol * max(1.0, fnorm(g) ** 2)


def is_in_K_J(g, sig: Signature, tol: float = 1e-10) -> bool:
    """Membership in K_J = U_J intersect U, the block-diagonal unitaries."""
    _check_dim(g, sig)
    eye = identity(sig.n, field_of(g))
    unitary = fnorm(adjoint(g) @ g - eye) <= tol * max(1.0, fnorm(g) ** 2)
    return unitary and is_in_U_J(g, sig, tol)


@dataclass(frozen=True)
class JHermitianBlocks:
    """Blocks of a J-Hermitian H = [[A, B], [-B*, D]] with A, D Hermitian."""

    a_block: object
    b_block: object
    d_block: object
    signature: Signature

    def reassemble(self):
        B = self.b_block
        return block2x2(self.a_block, B, -adjoint(B), self.d_block)


def block_decompose(H, sig: Signature, tol: float = 1e-10) -> JHermitianBlocks:
    phi_J(H, sig, tol)
    p = sig.p
    return JHermitianBlocks(H[:p, :p], H[:p, p:], H[p:, p:], sig)


def _min_over_scale(M, tol: float) -> tuple[float, float]:
    # M is Hermitian by construction: its eigenvalues are taken untested.
    lam = eigvals_unchecked(M)
    return float(lam[-1]), tol * max(1.0, abs(lam[0]), abs(lam[-1]))


def schur_j_positive(blocks: JHermitianBlocks, tol: float = 1e-10) -> bool:
    """J-positivity via the block criterion: A > 0 and (-D) - B* A^{-1} B > 0.

    The blocks come from a matrix that passed phi_J, so A, D and the Schur
    complement are Hermitian by construction; only tol applies.
    """
    A, B, D = blocks.a_block, blocks.b_block, blocks.d_block
    p, q = blocks.signature.p, blocks.signature.q
    if p == 0:
        lam_min, threshold = _min_over_scale(-D, tol)
        return lam_min > threshold
    lam_min, threshold = _min_over_scale(A, tol)
    if abs(lam_min) <= threshold:
        raise IndeterminateSchur("leading block numerically singular")
    if lam_min <= threshold:
        return False
    if q == 0:
        return True
    lam_min, threshold = _min_over_scale((-D) - adjoint(B) @ mat_inverse(A) @ B, tol)
    return lam_min > threshold


class JPositive:
    """A certified member of the cone P_J: J-Hermitian with JX positive definite.

    JPositive(X, sig, lam) holds X and records lambda_min(JX) = lam;
    certify_constructed makes members that hold JX.  matrix and jx return the
    array held or its flip, made on each read and not kept.  Members are equal
    when their signatures, fields and values agree, whichever form each holds,
    and are not hashable.

    A member certified by a Cholesky factorization has lam = None, and
    lambda_min_of_jx is computed on first read, by eigvalsh of JX, and kept;
    a read value that is not finite and positive raises NotJPositive.  It
    takes no part in == or repr, so reading it changes neither.
    """

    __slots__ = ("_array", "_holds_jx", "_signature", "_lambda_min")

    def __init__(self, matrix, signature: Signature, lambda_min: float | None):
        self._array, self._holds_jx = matrix, False
        self._signature, self._lambda_min = signature, lambda_min

    @property
    def signature(self) -> Signature:
        return self._signature

    @property
    def matrix(self):
        return self._signature.flip(self._array) if self._holds_jx else self._array

    @property
    def jx(self):
        return self._array if self._holds_jx else self._signature.flip(self._array)

    @property
    def lambda_min_of_jx(self) -> float:
        if self._lambda_min is None:
            try:
                lam = float(eigvals_unchecked(self.jx)[-1])
            except np.linalg.LinAlgError:   # eigvalsh may fail on a NaN entry
                lam = np.nan
            if not 0.0 < lam < np.inf:
                raise NotJPositive(f"lambda_min(JX) = {lam:.3e} of a Cholesky-certified "
                                   "member not finite and positive")
            self._lambda_min = lam
        return self._lambda_min

    @property
    def field(self) -> str:
        return field_of(self._array)

    def __eq__(self, other):
        return (isinstance(other, JPositive) and self._signature == other._signature
                and self.field == other.field
                and np.array_equal(_embed(self.jx), _embed(other.jx)))

    def __repr__(self) -> str:
        return f"JPositive(matrix={self.matrix!r}, signature={self._signature!r})"


def is_j_positive(X, sig: Signature, tol: float = 1e-10) -> JPositive:
    """Certify membership in P_J of X from outside the library; raises on rejection."""
    lam = eigvals_unchecked(phi_J(X, sig, tol))
    if lam[-1] <= tol * max(1.0, abs(lam[0]), abs(lam[-1])):
        raise NotJPositive(f"lambda_min(JX) = {lam[-1]:.3e} not positive")
    return JPositive(X, sig, float(lam[-1]))


def certify_constructed(P, sig: Signature, lam=None) -> JPositive:
    """Certificate of the member that holds JX = P, built from certified members.

    Given eigenvalues lam of P that include lambda_min(P), it rejects one
    <= 0 or not finite.  With lam=None it takes one Cholesky factorization
    of P, the n^3/3 kernel that shows P positive definite without its
    spectrum, and rejects an entry that is not finite or a failed
    factorization; lambda_min(P) is then computed on first read.
    """
    if lam is None:
        try:
            cholesky_factor(P)
        except NotPositive as exc:
            raise NotJPositive(f"Cholesky factorization of JX failed: {exc}") from None
    else:
        for v in lam:
            if not 0.0 < v < np.inf:
                raise NotJPositive(f"computed eigenvalue {v:.3e} of JX not finite and positive")
        lam = float(min(lam))
    member = JPositive(P, sig, lam)
    member._holds_jx = True
    return member


def in_pj(X, sig: Signature, tol: float = 1e-10) -> bool:
    """Boolean convenience wrapper around the certifying test."""
    try:
        is_j_positive(X, sig, tol)
        return True
    except (NotJHermitian, NotJPositive):
        return False


def phi_J(X, sig: Signature, tol: float = 1e-10):
    """X -> JX from the J-Hermitian onto the Hermitian space; the one J-Hermitian test."""
    _check_dim(X, sig)
    jx = sig.flip(X)
    residual, threshold = fnorm(jx - adjoint(jx)), tol * max(1.0, fnorm(X))
    # As in matcore._check_hermitian, an overflowed residual certifies nothing.
    if not (residual <= threshold and residual < np.inf):
        raise NotJHermitian(f"sharp-symmetry residual {residual:.3e} exceeds {threshold:.3e}")
    return jx


def phi_J_inv(P, sig: Signature, tol: float = 1e-10):
    """Inverse bijection P -> JP from Hermitian matrices into the J-Hermitian space."""
    _check_dim(P, sig)
    return sig.flip(_check_hermitian(P, tol))


def j_inner(x, y, sig: Signature):
    """The indefinite form B(x, y) = x* J y on vectors of length n or n x 1 columns."""
    n = sig.n
    if x.shape not in ((n,), (n, 1)) or y.shape not in ((n,), (n, 1)):
        raise DimensionMismatch(f"expected vectors of length {n}")
    x, y = x.reshape(n, 1), y.reshape(n, 1)
    return (adjoint(x) @ sig.flip(y))[0, 0]
