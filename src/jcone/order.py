"""The Loewner order on Hermitian matrices and its pullback on the cone P_J.

X <=_J Y means JX <= JY in the classical positive-semidefinite order; both
predicates return the margin (smallest eigenvalue of the difference) so that
callers can assert strictness or near-equality.  On stacks of matrices a
verdict holds one holds and one margin per member.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, SignatureMismatch, threshold
from .jstruct import JPositive, Signature, _check_dim, _check_pair, _j_hermitian
from .matcore import _check_hermitian, eigvals_unchecked, fnorm
from .stacks import _array, _out


@dataclass(frozen=True)
class OrderVerdict:
    """bool and float for one pair of matrices, arrays over a stack."""

    holds: bool
    margin: float


def loewner_leq(X, Y, tol: float = 1e-9) -> OrderVerdict:
    """X <= Y iff Y - X is positive semi-definite, with slack threshold(tol, ||X||, ||Y||)."""
    X, Y = _array(X), _array(Y)
    if X.shape[-2:] != Y.shape[-2:]:
        raise DimensionMismatch("operands differ in shape")
    (X, nx), (Y, ny) = _check_hermitian(X, 1e-8), _check_hermitian(Y, 1e-8)
    return _psd_verdict(Y - X, tol, nx, ny)


def _psd_verdict(D, tol: float, *scales: float) -> OrderVerdict:
    """D >= 0 with slack threshold(tol, *scales), and the margin lambda_min(D).
    D is Hermitian by construction: it is not re-tested at its own scale."""
    margin = _out(eigvals_unchecked(D)[..., -1])
    return OrderVerdict(margin >= -threshold(tol, *scales), margin)


def j_leq(X, Y, sig: Signature = None, tol: float = 1e-9) -> OrderVerdict:
    """X <=_J Y iff JX <= JY; accepts raw J-Hermitian matrices or certified ones."""
    _check_pair(X, Y)
    if isinstance(X, JPositive):
        sig = X.signature
    elif sig is None:
        raise ValueError("signature required for raw matrix arguments")
    elif isinstance(Y, JPositive) and Y.signature != sig:
        raise SignatureMismatch("operands live over different signatures")
    def image(Z):  # (JZ, ||JZ||_F): a raw operand's norm comes from its J-Hermitian test
        if isinstance(Z, JPositive):
            return Z.jx, fnorm(Z.jx)
        return _j_hermitian(sig.flip(_check_dim(Z, sig)), 1e-8)
    (jx, nx), (jy, ny) = image(X), image(Y)
    return _psd_verdict(jy - jx, tol, nx, ny)
