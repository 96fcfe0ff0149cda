"""The bullet algebra and the J-exponential calculus on the cone P_J.

The bullet product A . B = A J B is associative with neutral element J, and
under it P_J behaves like the classical positive cone: exp_J(X) = J exp(JX)
is a bijection from the J-Hermitian space onto P_J, with logarithm
log_J(X) = J log(JX) and real powers X^t_J = J (JX)^t.
"""

from __future__ import annotations

import numpy as np

from .errors import Singular
from .jstruct import (JPositive, Signature, _check_dim, certify_constructed,
                      is_j_positive, phi_J, sharp)
from .matcore import (adjoint, block2x2, eigvals_hermitian, fnorm,
                      from_real_parts, mat_inverse, polar, spectral_function,
                      unitary_from_columns, zeros)

MAX_POWER = 32.0


def _mat(X):
    return X.matrix if isinstance(X, JPositive) else X


def bullet(A, B, sig: Signature):
    """A . B = A J B."""
    A, B = _mat(A), _mat(B)
    _check_dim(A, sig)
    _check_dim(B, sig)
    return A @ sig.flip(B)


def bullet_inverse(A, sig: Signature):
    """Inverse for the bullet product: A . (J A^{-1} J) = J, with
    J A^{-1} J = J (JA)^{-1}."""
    A = _mat(A)
    _check_dim(A, sig)
    return sig.flip(mat_inverse(sig.flip(A)))


def bullet_commutator(X, Y, sig: Signature):
    """[X, Y]_J = X . Y - Y . X."""
    return bullet(X, Y, sig) - bullet(Y, X, sig)


def exp_J(X, sig: Signature, tol: float = 1e-10) -> JPositive:
    """exp_J(X) = J exp(JX); maps the J-Hermitian space onto P_J."""
    out, w = spectral_function(phi_J(X, sig, tol), np.exp)
    return certify_constructed(out, sig, np.exp(w))


def log_J(X: JPositive):
    """log_J(X) = J log(JX); inverse of exp_J on P_J."""
    return X.signature.flip(spectral_function(X.jx, np.log, floor=0.0)[0])


def pow_J(X: JPositive, t: float) -> JPositive:
    """Fractional J-power X^t_J = J (JX)^t."""
    t = float(t)
    if abs(t) > MAX_POWER:
        raise ValueError(f"|t| > {MAX_POWER} rejected to avoid eigenvalue overflow")
    out, w = spectral_function(X.jx, lambda w: np.power(w, t), floor=0.0)
    return certify_constructed(out, X.signature, np.power(w, t))


def polar_decompose_bullet(g, sig: Signature):
    """Unique factorization g = k . p with k unitary and p in P_J.

    Classically g = k ptilde with ptilde = (g* g)^{1/2}; then p = J ptilde so
    that k . p = k J J ptilde = k ptilde = g.  One svd gives k, ptilde and the
    eigenvalues of J p = ptilde, the singular values of g.
    """
    _check_dim(g, sig)
    k, ptilde, s = polar(g)
    return k, certify_constructed(ptilde, sig, s)


def _min_over_max_eig(H) -> float:
    lam = eigvals_hermitian(H)
    top = max(abs(lam[0]), abs(lam[-1]), 1e-300)
    return lam[-1] / top


def _random_matrix(n: int, field: str, rng: np.random.Generator):
    """Gaussian matrix: every real component standard normal."""
    return from_real_parts(lambda: rng.standard_normal((n, n)), field)


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_invertible(sig: Signature, field: str, seed) -> object:
    """Gaussian square matrix, redrawn while nearly singular."""
    rng = _as_rng(seed)
    for _ in range(100):
        g = _random_matrix(sig.n, field, rng)
        if np.sqrt(max(0.0, _min_over_max_eig(adjoint(g) @ g))) > 1e-3:
            return g
    raise Singular("could not draw a well-conditioned matrix")


def random_pj(sig: Signature, field: str, seed) -> JPositive:
    """Random cone element g J g#; the congruence action is transitive on P_J."""
    g = random_invertible(sig, field, seed)
    return is_j_positive(g @ sig.flip(sharp(g, sig)), sig)


def random_jhermitian(sig: Signature, field: str, seed):
    """Random element of the J-Hermitian space via symmetrization (Y + Y#)/2."""
    rng = _as_rng(seed)
    y = _random_matrix(sig.n, field, rng)
    return (y + sharp(y, sig)) * 0.5


def random_pj_bounded(sig: Signature, field: str, seed, radius: float = 2.0) -> JPositive:
    """Random cone element with ||log_J|| bounded by the given radius."""
    x = random_jhermitian(sig, field, seed)
    nrm = fnorm(x)
    if nrm > radius:
        x = x * (radius / nrm)
    return exp_J(x, sig)


def _random_unitary_block(n: int, field: str, rng: np.random.Generator):
    if n == 0:
        return zeros(0, field)
    g = _random_matrix(n, field, rng)
    if field == "H":
        # numpy has no quaternionic QR: Gram-Schmidt on the columns of g.
        return unitary_from_columns(g)
    q, r = np.linalg.qr(g)
    # Fix the phase so the distribution does not depend on the QR convention.
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_kj(sig: Signature, field: str, seed):
    """Random element of K_J: a block-diagonal pair of unitaries diag(u_p, u_q)."""
    rng = _as_rng(seed)
    up = _random_unitary_block(sig.p, field, rng)
    uq = _random_unitary_block(sig.q, field, rng)
    z, p = zeros(sig.n, field), sig.p
    return block2x2(up, z[:p, p:], z[p:, :p], uq)
