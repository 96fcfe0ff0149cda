"""Riemannian geometry of the cone P_J.

The metric omega_P(U, V) = trd(P^{-1} U P^{-1} V) is the pullback under
X -> JX of the usual trace metric on the positive cone, so the geodesic
between A and B is J times the classical geodesic of (JA, JB):

    gamma(t) = J (JA)^{1/2} ((JA)^{-1/2} (JB) (JA)^{-1/2})^t (JA)^{1/2}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SignatureMismatch, StepTooSmall
from .jstruct import JPositive, certify_constructed, phi_J
from .matcore import (adjoint, eigvals_unchecked, fnorm, mat_inverse,
                      spectral_function, trd)

MIN_STEP = 1e-7


def _check_pair(A: JPositive, B: JPositive):
    if A.signature != B.signature or A.field != B.field:
        raise SignatureMismatch("operands live over different signatures or fields")


def metric_omega(P: JPositive, U, V) -> float:
    """omega_P(U, V) = trd(P^{-1} U P^{-1} V) on J-Hermitian tangent vectors."""
    for Z in (U, V):
        phi_J(Z, P.signature)
    pinv = mat_inverse(P.matrix)
    return trd(pinv @ U @ pinv @ V)


def geodesic(A: JPositive, B: JPositive, t: float) -> JPositive:
    """Point gamma(t) on the geodesic from A (t=0) to B (t=1)."""
    _check_pair(A, B)
    j = A.signature.matrix_for(A.matrix)
    rt = spectral_function(j @ A.matrix, lambda w: np.power(w, 0.5), floor=0.0)[0]
    rti = mat_inverse(rt)
    mid = rti @ (j @ B.matrix) @ rti
    # Symmetrize before and after the fractional power: the congruence
    # products accumulate rounding, and eigh reads one triangle only.
    mid = (mid + adjoint(mid)) * 0.5
    out = rt @ spectral_function(mid, lambda w: np.power(w, float(t)), floor=0.0)[0] @ rt
    out = (out + adjoint(out)) * 0.5
    return certify_constructed(j @ out, A.signature, eigvals_unchecked(out))


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
    rt = spectral_function(j @ A.matrix, lambda w: np.power(w, 0.5), floor=0.0)[0]
    rti = mat_inverse(rt)
    return fnorm(spectral_function(rti @ (j @ B.matrix) @ rti, np.log, floor=0.0)[0])
