"""Riemannian geometry of the cone P_J.

The metric omega_P(U, V) = trd(P^{-1} U P^{-1} V) is the pullback under
X -> JX of the usual trace metric on the positive cone, so the geodesic
between A and B is J times the classical geodesic of (JA, JB):

    gamma(t) = J (JA)^{1/2} ((JA)^{-1/2} (JB) (JA)^{-1/2})^t (JA)^{1/2}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotJHermitian, NotPositive, SignatureMismatch, StepTooSmall
from .jstruct import JPositive, is_j_hermitian, is_j_positive
from .matcore import adjoint, fnorm, mat_inverse, matrix_function, trd

MIN_STEP = 1e-7


def _check_pair(A: JPositive, B: JPositive):
    if A.signature != B.signature or A.field != B.field:
        raise SignatureMismatch("operands live over different signatures or fields")


def _positive_function(X, f):
    """f(X) for X positive definite by construction from certified operands.

    JA and (JA)^{-1/2} JB (JA)^{-1/2} are positive definite whenever A and B
    lie in P_J, so they are not held to the relative threshold of mat_pow_pd,
    which rejects ill-conditioned ones: only an eigenvalue computed <= 0 is.
    """
    def checked(w):
        if w[0] <= 0.0:
            raise NotPositive(f"computed eigenvalue {w[0]:.3e} not positive")
        return f(w)
    return matrix_function(X, checked)


def metric_omega(P: JPositive, U, V) -> float:
    """omega_P(U, V) = trd(P^{-1} U P^{-1} V) on J-Hermitian tangent vectors."""
    sig = P.signature
    for Z in (U, V):
        if not is_j_hermitian(Z, sig):
            raise NotJHermitian("tangent vectors must be J-Hermitian")
    pinv = mat_inverse(P.matrix)
    return trd(pinv @ U @ pinv @ V)


def geodesic(A: JPositive, B: JPositive, t: float) -> JPositive:
    """Point gamma(t) on the geodesic from A (t=0) to B (t=1)."""
    _check_pair(A, B)
    j = A.signature.matrix_for(A.matrix)
    pa = j @ A.matrix
    pb = j @ B.matrix
    rt = _positive_function(pa, lambda w: np.power(w, 0.5))
    rti = mat_inverse(rt)
    mid = rti @ pb @ rti
    # Symmetrize before and after the fractional power: the congruence
    # products accumulate rounding that the membership test would reject.
    mid = (mid + adjoint(mid)) * 0.5
    out = rt @ _positive_function(mid, lambda w: np.power(w, float(t))) @ rt
    out = (out + adjoint(out)) * 0.5
    return is_j_positive(j @ out, A.signature)


@dataclass(frozen=True)
class GeodesicPath:
    endpoint_a: JPositive
    endpoint_b: JPositive

    def sample(self, t: float) -> JPositive:
        return geodesic(self.endpoint_a, self.endpoint_b, t)


def curve_ode_residual(curve, t: float, h: float = 1e-4) -> float:
    """Residual of the geodesic equation c'' = c' c^{-1} c' by central differences.

    The curve argument maps t in [0, 1] to a plain matrix.
    """
    h = float(h)
    if h < MIN_STEP:
        raise StepTooSmall(f"step {h} below {MIN_STEP}")
    if not (h < t < 1.0 - h):
        raise ValueError("need t in (h, 1-h)")
    cm, c0, cp = curve(t - h), curve(t), curve(t + h)
    vel = (cp - cm) * (1.0 / (2.0 * h))
    acc = (cp - 2.0 * c0 + cm) * (1.0 / (h * h))
    return fnorm(acc - vel @ mat_inverse(c0) @ vel)


def geodesic_ode_residual(A: JPositive, B: JPositive, t: float, h: float = 1e-4) -> float:
    return curve_ode_residual(lambda s: geodesic(A, B, s).matrix, t, h)


def geodesic_distance(A: JPositive, B: JPositive) -> float:
    """Length of the geodesic segment: ||log((JA)^{-1/2} JB (JA)^{-1/2})||_F."""
    _check_pair(A, B)
    j = A.signature.matrix_for(A.matrix)
    rti = mat_inverse(_positive_function(j @ A.matrix, lambda w: np.power(w, 0.5)))
    return fnorm(_positive_function(rti @ (j @ B.matrix) @ rti, np.log))
