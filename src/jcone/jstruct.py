"""The signature form J = diag(Id_p, -Id_q) and the structures it induces.

Provides the sharp involution X -> J X* J, membership tests for J-Hermitian
matrices, J-positive matrices and the (J-)unitary groups, the block shape of
J-Hermitian matrices with the Schur positivity test, and the bijection
phi_J: X -> JX between the J-Hermitian space and the Hermitian matrices.

Every member of P_J holds its image JX, the form every cone operation works
on, and X is made from it only where it is read.  Boundary rule:
is_j_positive certifies outside input X at the caller's tol, by matcore's one
Hermitian test of JX (raising NotJHermitian; the member keeps the flip) and
its one positivity threshold on lambda_min(JX).  Construction rule:
certify_constructed certifies an image P = JX built from certified members.
With eigenvalues of P in hand it rejects one <= 0 or not finite; without
them it takes one Cholesky factorization of P, which is all the certificate
needs, and lambda_min(P) is computed only if it is read (a read value not
finite and positive raises NotJPositive).

Stacks: every test and member here keeps the stack contract (see stacks); a
stacked JPositive holds the stack of images and one lambda_min_of_jx per
member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, IndeterminateSchur, NotJHermitian,
                     NotJPositive, NotPositive, SignatureMismatch, require, threshold)
from .matcore import (QMatrix, _check_hermitian, _embed, _finite, _finite_product,
                      _positivity, adjoint, block2x2, cholesky_factor, eigvals_unchecked,
                      field_of, fnorm, from_real, identity, mat_inverse, negate_rows)
from .stacks import _array, _double, _out, all_of, any_of, member, per_member, scatter, select


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
    """X, a nested list as an array (stacks._array), once it is n x n."""
    X = _array(X)
    if X.shape[-2:] != (sig.n, sig.n):
        raise DimensionMismatch(f"expected {sig.n}x{sig.n}, got {X.shape}")
    return X


def sharp(X, sig: Signature):
    """The indefinite adjoint X -> J X* J."""
    return sig.flip(adjoint(sig.flip(_check_dim(X, sig))))


def is_j_hermitian(X, sig: Signature, tol: float = 1e-10) -> bool:
    """Whether X passes the J-Hermitian test; for a stack, every member."""
    try:
        phi_J(X, sig, tol)
        return True
    except NotJHermitian:
        return False


def _is_identity(product, g, tol: float):
    """Whether product(g) = Id within threshold(tol, ||g||_F^2), taken at the
    scale c = max(1, max |g_ij|) where nothing overflows: product(h) = Id / c^2
    within threshold(tol, ||h||_F^2) for h = g / c, the same test over c^2
    (||h||_F >= 1 when c > 1).  Raises NotFinite on a non-finite entry."""
    c = threshold(1.0, _out(np.abs(_embed(_finite(g))).max(axis=(-2, -1))))
    h = _double(g) / per_member(c)
    eye = identity(g.shape[-1], field_of(g)) * per_member((1.0 / c) ** 2)
    return fnorm(product(h) - eye) <= threshold(tol, fnorm(h) ** 2)


def is_in_U_J(g, sig: Signature, tol: float = 1e-10) -> bool:
    """Membership in the J-unitary group: g# g = Id."""
    return _is_identity(lambda h: sharp(h, sig) @ h, _check_dim(g, sig), tol)


def is_in_K_J(g, sig: Signature, tol: float = 1e-10) -> bool:
    """Membership in K_J = U_J intersect U, the block-diagonal unitaries."""
    g = _check_dim(g, sig)
    return is_in_U_J(g, sig, tol) & _is_identity(lambda h: adjoint(h) @ h, g, tol)


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
    H = _check_dim(H, sig)
    phi_J(H, sig, tol)
    p = sig.p
    return JHermitianBlocks(H[..., :p, :p], H[..., :p, p:], H[..., p:, p:], sig)


def schur_j_positive(blocks: JHermitianBlocks, tol: float = 1e-10) -> bool:
    """J-positivity via the block criterion: A > 0 and (-D) - B* A^{-1} B > 0.

    The blocks come from a matrix that passed phi_J, so A, D and the Schur
    complement are Hermitian by construction; only the positivity threshold
    applies.  The Schur complement is formed for just the members whose A is
    positive definite, as a call on each alone forms it.
    """
    A, B, D = blocks.a_block, blocks.b_block, blocks.d_block
    p, q = blocks.signature.p, blocks.signature.q
    if p == 0:
        lam_min, limit = _positivity(eigvals_unchecked(-D), tol)
        return lam_min > limit
    lam_min, limit = _positivity(eigvals_unchecked(A), tol)
    require(np.logical_not(abs(lam_min) <= limit), IndeterminateSchur,
            "leading block numerically singular: lambda_min = {:.3e}, "
            "|lambda_min| not above {:.3e}", lam_min, limit)
    leading = lam_min > limit
    if q == 0 or not any_of(leading):
        return leading
    A, B, D = (select(M, leading) for M in (A, B, D))
    schur = (-D) - adjoint(B) @ mat_inverse(A) @ B
    lam_min, limit = _positivity(eigvals_unchecked(schur), tol)
    return scatter(leading, lam_min > limit, False)


class JPositive:
    """A certified member of the cone P_J: J-Hermitian with JX positive definite,
    or a stack of them (one lambda_min per member).

    Every member holds its image JX: JPositive(X, sig, lam) flips X once and
    records lambda_min(JX) = lam, and is_j_positive and certify_constructed
    keep the JX they certified.  jx returns the array held, and matrix its
    flip, made on each read and not kept.  Members are equal when their
    signatures, fields and values agree, and are not hashable.

    A member certified by a Cholesky factorization has lam = None, and
    lambda_min_of_jx is computed on first read, by eigvalsh of JX, and kept;
    a read value that is not finite and positive raises NotJPositive.  It
    takes no part in == or repr, so reading it changes neither.
    """

    __slots__ = ("_jx", "_signature", "_lambda_min")

    def __init__(self, matrix, signature: Signature, lambda_min: float | None):
        self._jx = signature.flip(matrix)
        self._signature, self._lambda_min = signature, lambda_min

    @property
    def signature(self) -> Signature:
        return self._signature

    @property
    def matrix(self):
        return self._signature.flip(self._jx)

    @property
    def jx(self):
        return self._jx

    @property
    def lambda_min_of_jx(self):
        if self._lambda_min is None:
            try:
                lam = _out(eigvals_unchecked(self._jx)[..., -1])
            except np.linalg.LinAlgError:   # eigvalsh may fail on a NaN entry
                lam = np.full(self._jx.shape[:-2], np.nan)
            require((0.0 < lam) & (lam < np.inf), NotJPositive, "lambda_min(JX) = {:.3e} "
                    "of a Cholesky-certified member not finite and positive", lam)
            self._lambda_min = lam
        return self._lambda_min

    def member(self, i) -> "JPositive":
        """Member i of a stack, or the members a mask selects, holding their
        images and lambda_min as they are."""
        lam = self._lambda_min
        return _holding(member(self._jx, i), self._signature,
                        lam if lam is None else _out(lam[i]))

    @property
    def field(self) -> str:
        return field_of(self._jx)

    def __eq__(self, other):
        return (isinstance(other, JPositive) and self._signature == other._signature
                and self.field == other.field
                and np.array_equal(_embed(self._jx), _embed(other._jx)))

    def __repr__(self) -> str:
        return f"JPositive(matrix={self.matrix!r}, signature={self._signature!r})"


def _check_pair(A, B):
    """Raise SignatureMismatch unless A and B may meet in one operation: two
    members share a signature and a field, and otherwise both or neither are
    over H (numpy promotes a real matrix beside a complex one)."""
    if isinstance(A, JPositive) and isinstance(B, JPositive):
        if A.signature != B.signature or A.field != B.field:
            raise SignatureMismatch("operands live over different signatures or fields")
    else:
        a = A.jx if isinstance(A, JPositive) else A
        b = B.jx if isinstance(B, JPositive) else B
        if isinstance(a, QMatrix) is not isinstance(b, QMatrix):
            raise SignatureMismatch("operands live over different fields")


def _holding(jx, sig: Signature, lam) -> JPositive:
    """The member that holds the certified image jx, made with no flip."""
    member = object.__new__(JPositive)
    member._jx, member._signature, member._lambda_min = jx, sig, lam
    return member


def is_j_positive(X, sig: Signature, tol: float = 1e-10) -> JPositive:
    """Certify membership in P_J of X from outside the library; raises on rejection."""
    jx = phi_J(X, sig, tol)
    lam_min, limit = _positivity(eigvals_unchecked(jx), tol)
    require(lam_min > limit, NotJPositive, "lambda_min(JX) = {:.3e} not above {:.3e}",
            lam_min, limit)
    return _holding(jx, sig, lam_min)


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
        lam = np.asarray(lam)
        # Python floats: cheaper to walk than numpy scalars.
        values = lam.ravel().tolist()
        for v in values:
            if not 0.0 < v < math.inf:
                raise NotJPositive(f"computed eigenvalue {v:.3e} of JX not finite and positive")
        # One matrix's minimum by Python's min: np.min and a conversion to a
        # float would cost pow_J at n = 3 about 1.6 us, 8%.
        lam = min(values) if lam.ndim == 1 else lam.min(axis=-1)
    return _holding(P, sig, lam)


def merged(X: JPositive, mask, Y: JPositive) -> JPositive:
    """The stack X with its members where mask holds replaced by Y's, Y
    holding just those members; Y itself where every member's mask holds.
    Each member keeps its image and lambda_min(JX), which is read here for
    the members that had it yet to compute."""
    if all_of(mask):
        return Y
    lam = scatter(mask, Y.lambda_min_of_jx, 0.0)
    keep = np.logical_not(mask)
    lam[keep] = X.member(keep).lambda_min_of_jx
    return _holding(scatter(mask, Y.jx, X.jx.copy()), X.signature, lam)


def in_pj(X, sig: Signature, tol: float = 1e-10) -> bool:
    """Boolean convenience wrapper around the certifying test; for a stack,
    whether every member passes."""
    try:
        is_j_positive(X, sig, tol)
        return True
    except (NotJHermitian, NotJPositive):
        return False


def phi_J(X, sig: Signature, tol: float = 1e-10):
    """X -> JX from the J-Hermitian onto the Hermitian space; the one J-Hermitian test."""
    return _j_hermitian(sig.flip(_check_dim(X, sig)), tol)[0]


def _j_hermitian(jx, tol: float) -> tuple:
    """(jx, ||X||_F) once X = J jx passes the J-Hermitian test: the Hermitian
    test of jx, as ||X - X#||_F = ||jx - jx*||_F and ||X||_F = ||jx||_F."""
    return _check_hermitian(jx, tol, NotJHermitian, "sharp-symmetry")


def phi_J_inv(P, sig: Signature, tol: float = 1e-10):
    """Inverse bijection P -> JP from Hermitian matrices into the J-Hermitian space."""
    return sig.flip(_check_hermitian(_check_dim(P, sig), tol)[0])


def j_inner(x, y, sig: Signature):
    """The indefinite form B(x, y) = x* J y on vectors of length n or n x 1
    columns; raises NotFinite where it is not finite."""
    n, x, y = sig.n, _array(x), _array(y)
    if x.shape not in ((n,), (n, 1)) or y.shape not in ((n,), (n, 1)):
        raise DimensionMismatch(f"expected vectors of length {n}")
    return _finite_product(adjoint(x.reshape(n, 1)), sig.flip(y.reshape(n, 1)))[0, 0]
