"""Riemannian geometry of the cone P_J.

The metric omega_P(U, V) = trd(P^{-1} U P^{-1} V) is the pullback under
X -> JX of the usual trace metric on the positive cone, so the geodesic
between A and B is J times the classical geodesic of the pencil (JA, JB):

    gamma(t) = J (JA)^{1/2} ((JA)^{-1/2} (JB) (JA)^{-1/2})^t (JA)^{1/2}.

The geodesic, the distance and the metric all come from one Cholesky
factorization (matcore.Pencil) of the images JA, JB the operands carry, and
a geodesic point holds its image J gamma(t).  With JA = L L* and
L^{-1} JB L^{-*} = W diag(w) W*, where w are the eigenvalues of (JA)^{-1} JB,

    gamma(t) = J (L W) diag(w^t) (L W)*,    d(A, B) = (sum_i log^2 w_i)^{1/2},

and with JP = L L*, omega_P(U, V) = trd(L^{-1} JU L^{-*} L^{-1} JV L^{-*}).
Each takes stacks of members, and t may be one weight per member.
"""

from __future__ import annotations

import numpy as np

from .errors import SignatureMismatch, StepTooSmall
from .jstruct import JPositive, certify_constructed, phi_J
from .matcore import Pencil, fnorm, mat_inverse
from .stacks import _out

MIN_STEP = 1e-7


def _check_pair(A: JPositive, B: JPositive):
    if A.signature != B.signature or A.field != B.field:
        raise SignatureMismatch("operands live over different signatures or fields")


def metric_omega(P: JPositive, U, V) -> float:
    """omega_P(U, V) = trd(P^{-1} U P^{-1} V) on J-Hermitian tangent vectors."""
    sig = P.signature
    return Pencil(P.jx, phi_J(U, sig)).inner(phi_J(V, sig))


def _pencil(A: JPositive, B: JPositive) -> Pencil:
    _check_pair(A, B)
    return Pencil(A.jx, B.jx)


def geodesic(A: JPositive, B: JPositive, t) -> JPositive:
    """Point gamma(t) on the geodesic from A (t=0) to B (t=1), certified by one
    Cholesky factorization of J gamma(t) (certify_constructed), which it holds."""
    return certify_constructed(_pencil(A, B).mean(t), A.signature)


def curve_ode_residual(curve, t: float, h: float = 1e-4) -> float:
    """Residual of the geodesic equation c'' = c' c^{-1} c' by central differences.

    The curve argument maps t in [0, 1] to a plain matrix.
    """
    h = float(h)
    if not h >= MIN_STEP:   # a NaN step fails here, not at the test of t
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
    """Length of the geodesic segment: ||log((JA)^{-1/2} JB (JA)^{-1/2})||_F,
    that is (sum_i log^2 w_i)^{1/2} over the eigenvalues w of (JA)^{-1} JB."""
    # The log of a contiguous copy: numpy picks its loop for a reversed view
    # by the view's shape, and would round a stack unlike its lone calls.
    w = _pencil(A, B).eigenvalues().copy()
    return _out(np.sqrt(np.sum(np.log(w) ** 2, axis=-1)))
