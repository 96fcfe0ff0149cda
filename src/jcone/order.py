"""The Loewner order on Hermitian matrices and its pullback on the cone P_J.

X <=_J Y means JX <= JY in the classical positive-semidefinite order; both
predicates return the margin (smallest eigenvalue of the difference) so that
callers can assert strictness or near-equality.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, SignatureMismatch
from .jstruct import JPositive, Signature, phi_J
from .matcore import _check_hermitian, eigvals_unchecked, fnorm


@dataclass(frozen=True)
class OrderVerdict:
    holds: bool
    margin: float


def loewner_leq(X, Y, tol: float = 1e-9) -> OrderVerdict:
    """X <= Y iff Y - X is positive semi-definite, with slack tol * scale."""
    if X.shape != Y.shape:
        raise DimensionMismatch("operands differ in shape")
    return _leq(_check_hermitian(X, 1e-8), _check_hermitian(Y, 1e-8), tol)


def _leq(X, Y, tol: float) -> OrderVerdict:
    # Y - X is Hermitian by construction: it is not re-tested at its own scale.
    margin = float(eigvals_unchecked(Y - X)[-1])
    scale = max(1.0, fnorm(X), fnorm(Y))
    return OrderVerdict(margin >= -tol * scale, margin)


def j_leq(X, Y, sig: Signature = None, tol: float = 1e-9) -> OrderVerdict:
    """X <=_J Y iff JX <= JY; accepts raw J-Hermitian matrices or certified ones."""
    if isinstance(X, JPositive):
        sig = X.signature
    if sig is None:
        raise ValueError("signature required for raw matrix arguments")
    def jz(Z):  # only raw operands take the J-Hermitian test
        if not isinstance(Z, JPositive):
            return phi_J(Z, sig, 1e-8)
        if Z.signature != sig:
            raise SignatureMismatch("operands live over different signatures")
        return Z.jx
    return _leq(jz(X), jz(Y), tol)
