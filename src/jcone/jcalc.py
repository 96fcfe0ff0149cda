"""The bullet algebra and the J-exponential calculus on the cone P_J.

The bullet product A . B = A J B is associative with neutral element J, and
under it P_J behaves like the classical positive cone: exp_J(X) = J exp(JX)
is a bijection from the J-Hermitian space onto P_J, with logarithm
log_J(X) = J log(JX) and real powers X^t_J = J (JX)^t.

Every operation takes stacks of matrices and members, and a power or weight
may be one per member.  The random draws take a GeneratorStack, which draws
one result per member, each from its member's own generator.

A sampler tests nothing its own formula makes J-Hermitian or Hermitian:
random_pj_bounded certifies its member by the eigenvalues alone.  random_pj's
g J g#, Hermitian only up to rounding, goes through is_j_positive.
"""

from __future__ import annotations

import numpy as np

from .errors import Singular, require
from .jstruct import (JPositive, Signature, _check_dim, _check_pair, certify_constructed,
                      is_j_positive, phi_J, sharp)
from .matcore import (_finite, _finite_product, adjoint, block2x2, eigvals_unchecked, fnorm,
                      from_real_parts, mat_inverse, polar, spectral_function, zeros)
from .stacks import _IGNORED, _real, _under, all_of, any_of, per_member, power, scatter, select

MAX_POWER = 32.0


def _mat(X):
    return X.matrix if isinstance(X, JPositive) else X


def bullet(A, B, sig: Signature):
    """A . B = A J B; raises NotFinite where an entry of it is not finite."""
    A, B = _check_dim(_mat(A), sig), _check_dim(_mat(B), sig)
    _check_pair(A, B)
    return _finite_product(A, sig.flip(B))


def bullet_inverse(A, sig: Signature):
    """Inverse for the bullet product: A . (J A^{-1} J) = J, with
    J A^{-1} J = J (JA)^{-1}."""
    return sig.flip(mat_inverse(sig.flip(_check_dim(_mat(A), sig))))


def bullet_commutator(X, Y, sig: Signature):
    """[X, Y]_J = X . Y - Y . X; raises NotFinite where an entry of it is not finite."""
    return _finite(_under(_IGNORED, lambda: bullet(X, Y, sig) - bullet(Y, X, sig)))


def exp_J(X, sig: Signature, tol: float = 1e-10) -> JPositive:
    """exp_J(X) = J exp(JX); maps the J-Hermitian space onto P_J.  An
    eigenvalue of JX whose exp overflows raises NotJPositive, naming it."""
    out, lam = spectral_function(phi_J(X, sig, tol), np.exp)
    return certify_constructed(out, sig, lam)


def log_J(X: JPositive):
    """log_J(X) = J log(JX); inverse of exp_J on P_J."""
    return X.signature.flip(spectral_function(X.jx, np.log, floor=0.0)[0])


def pow_J(X: JPositive, t) -> JPositive:
    """Fractional J-power X^t_J = J (JX)^t; t may be one power per member."""
    t = _real(t)
    require(abs(t) <= MAX_POWER, ValueError,
            "|t| > {} rejected to avoid eigenvalue overflow", MAX_POWER)
    out, lam = spectral_function(X.jx, lambda w: power(w, t), floor=0.0)
    return certify_constructed(out, X.signature, lam)


def polar_decompose_bullet(g, sig: Signature):
    """Unique factorization g = k . p with k unitary and p in P_J.

    Classically g = k ptilde with ptilde = (g* g)^{1/2}; then p = J ptilde so
    that k . p = k J J ptilde = k ptilde = g.  One svd gives k, ptilde and the
    eigenvalues of J p = ptilde, the singular values of g.
    """
    k, ptilde, s = polar(_check_dim(g, sig))
    return k, certify_constructed(ptilde, sig, s)


def _min_over_max_eig(H):
    lam = eigvals_unchecked(H)
    top = np.maximum(np.maximum(abs(lam[..., 0]), abs(lam[..., -1])), 1e-300)
    return lam[..., -1] / top


class GeneratorStack:
    """The generators of a stack of draws, one per member.  Each draw returns
    one result per member on a leading axis, taken from that member's own
    generator, so every member consumes its stream as a lone draw from its
    generator would.  deferred(count, make) makes member i's generator by
    make(i) at the first draw, so a stack never drawn from makes none."""

    __slots__ = ("_generators", "_make", "_count")

    def __init__(self, generators):
        self._generators = list(generators)
        self._count = len(self._generators)

    @classmethod
    def deferred(cls, count: int, make) -> "GeneratorStack":
        stack = cls(())
        stack._generators, stack._make, stack._count = None, make, count
        return stack

    @property
    def generators(self) -> list:
        if self._generators is None:
            self._generators = [self._make(i) for i in range(self._count)]
        return self._generators

    def __len__(self) -> int:
        return self._count

    def standard_normal(self, size=None) -> np.ndarray:
        return np.array([g.standard_normal(size) for g in self.generators])

    def uniform(self, low=0.0, high=1.0, size=None) -> np.ndarray:
        return np.array([g.uniform(low, high, size) for g in self.generators])

    def member(self, mask) -> "GeneratorStack":
        """The generators of the members a mask selects."""
        return GeneratorStack(g for g, keep in zip(self.generators, mask) if keep)


def _random_matrix(n: int, field: str, rng, stack: tuple = ()):
    """Gaussian matrix, or a stack of shape stack of them: its real parts from
    one draw per generator, the stream of one (n, n) draw per part."""
    parts = {"R": 1, "C": 2, "H": 4}[field]
    return from_real_parts(rng.standard_normal(stack + (parts, n, n)), field)


def _as_rng(seed):
    if isinstance(seed, (np.random.Generator, GeneratorStack)):
        return seed
    return np.random.default_rng(seed)


def random_invertible(sig: Signature, field: str, seed) -> object:
    """Gaussian square matrix, redrawn while nearly singular; over a
    GeneratorStack, only the rejected members are redrawn, each from its own
    generator."""
    rng = _as_rng(seed)
    g = _random_matrix(sig.n, field, rng)
    for _ in range(100):
        ok = np.sqrt(np.maximum(0.0, _min_over_max_eig(adjoint(g) @ g))) > 1e-3
        if all_of(ok):
            return g
        redo = np.logical_not(ok)
        g = scatter(redo, _random_matrix(sig.n, field, select(rng, redo)), g)
    raise Singular("could not draw a well-conditioned matrix")


def random_pj(sig: Signature, field: str, seed) -> JPositive:
    """Random cone element g J g# = g (Jg)*; the congruence action is transitive on P_J."""
    g = random_invertible(sig, field, seed)
    return is_j_positive(g @ adjoint(sig.flip(g)), sig)


def random_jhermitian(sig: Signature, field: str, seed):
    """Random element of the J-Hermitian space via symmetrization (Y + Y#)/2."""
    rng = _as_rng(seed)
    y = _random_matrix(sig.n, field, rng)
    return (y + sharp(y, sig)) * 0.5


def random_pj_bounded(sig: Signature, field: str, seed, radius: float = 2.0) -> JPositive:
    """Random cone element exp_J(X), ||log_J|| = ||X||_F <= radius, X the
    random_jhermitian draw rescaled: exp of JX = (Jy + (Jy)*)/2, untested, and
    certified by its eigenvalues alone.  JX is J (y + y#)/2 bit for bit but
    for the sign of a zero, as negation is exact."""
    jy = sig.flip(_random_matrix(sig.n, field, _as_rng(seed)))
    P = (jy + adjoint(jy)) * 0.5
    nrm = fnorm(P)
    if any_of(nrm > radius):
        P = P * per_member(np.where(nrm > radius, radius / nrm, 1.0))
    out, lam = spectral_function(P, np.exp)
    return certify_constructed(out, sig, lam)


def _random_unitary_block(n: int, field: str, rng):
    g = _random_matrix(n, field, rng)
    if n == 0:
        return g   # empty: it drew nothing
    if field == "H":
        # Haar: polar(U g) = U polar(g), and U g has g's law, for unitary U.
        return polar(g)[0]
    q, r = np.linalg.qr(g)
    # Fix the phase so the distribution does not depend on the QR convention.
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_kj(sig: Signature, field: str, seed):
    """Random element of K_J: a block-diagonal pair of unitaries diag(u_p, u_q)."""
    rng = _as_rng(seed)
    up = _random_unitary_block(sig.p, field, rng)
    uq = _random_unitary_block(sig.q, field, rng)
    z, p = zeros(sig.n, field), sig.p
    return block2x2(up, z[:p, p:], z[p:, :p], uq)
