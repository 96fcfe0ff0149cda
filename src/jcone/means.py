"""Weighted geometric means on the cone P_J and the associated inequalities.

The weighted mean is the geodesic point, equivalently the pullback of the
classical weighted geometric mean under X -> JX.  Each operation reads the
images JA, JB its operands carry and returns members that hold their image.
With JA = L L* and L^{-1} JB L^{-*} = U diag(w) U* (matcore.Pencil),

    J (A #_t B) = (L U) diag(w^t) (L U)*.

At weight 1/2 it is the unique P_J solution of the Riccati equation
X A^{-1} X = B, whose residual reuses A^{-1} = L^{-*} L^{-1} J and the mean's
image as the pencil returned it, and it is the maximum of
{X J-Hermitian : [[JA, JX], [JX, JB]] >= 0}.  The module also
provides the arithmetic and harmonic companions with the AGM sandwich, the
closed form for bullet-commuting pairs, and the Ando-Hiai and Furuta
inequalities transported to P_J.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotBulletCommuting, PremiseViolated, WeightOutOfRange
from .geometry import _check_pair, _pencil
from .jcalc import bullet, bullet_commutator, pow_J
from .jstruct import JPositive, certify_constructed, is_j_positive, phi_J
from .matcore import block2x2, eigvals_unchecked, fnorm, identity
from .order import OrderVerdict, j_leq


@dataclass(frozen=True)
class MeanResult:
    mean: JPositive
    riccati_residual: float
    weight: float


def riccati_residual(X: JPositive, A: JPositive, B: JPositive) -> float:
    """||X A^{-1} X - B||_F, the defect in the midpoint characterization.

    Equal to ||JX (JA)^{-1} JX - JB||_F, since X A^{-1} X = J JX (JA)^{-1} JX.
    """
    return _pencil(A, B).riccati_residual(X.jx)


def weighted_mean(A: JPositive, B: JPositive, t: float = 0.5) -> MeanResult:
    """The weighted geometric mean of A and B on P_J, weight t in [0, 1]."""
    _check_pair(A, B)
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise WeightOutOfRange(f"weight {t} outside [0, 1]")
    pencil = _pencil(A, B)
    jmean = pencil.mean(t)
    residual = pencil.riccati_residual(jmean) if t == 0.5 else float("nan")
    return MeanResult(certify_constructed(jmean, A.signature), residual, t)


def riccati_solve(A: JPositive, B: JPositive) -> JPositive:
    """The unique P_J solution of X A^{-1} X = B: the midpoint mean."""
    return weighted_mean(A, B, 0.5).mean


def maximality_check(X, A: JPositive, B: JPositive, tol: float = 1e-9) -> OrderVerdict:
    """PSD test of [[JA, JX], [JX, JB]].

    Feasible candidates satisfy X <=_J A # B, and the mid-mean itself is the
    maximum: feasible with zero margin.
    """
    _check_pair(A, B)
    if isinstance(X, JPositive):
        _check_pair(A, X)
    jx = X.jx if isinstance(X, JPositive) else phi_J(X, A.signature, 1e-8)
    block = block2x2(A.jx, jx, jx, B.jx)
    margin = float(eigvals_unchecked(block)[-1])
    scale = max(1.0, fnorm(block))
    return OrderVerdict(margin >= -tol * scale, margin)


def arithmetic_mean_J(A: JPositive, B: JPositive, t: float = 0.5) -> JPositive:
    _check_pair(A, B)
    return certify_constructed((1.0 - float(t)) * A.jx + float(t) * B.jx, A.signature)


def harmonic_mean_J(A: JPositive, B: JPositive, t: float = 0.5) -> JPositive:
    """[(1-t) A^{-1}_J + t B^{-1}_J]^{-1}_J with J-power inverses throughout."""
    _check_pair(A, B)
    t = float(t)
    if t == 0.0:
        return A
    if t == 1.0:
        return B
    combo = (1.0 - t) * pow_J(A, -1).jx + t * pow_J(B, -1).jx
    return pow_J(certify_constructed(combo, A.signature), -1)


def commuting_bullet_mean(A: JPositive, B: JPositive, t: float = 0.5,
                          tol: float = 1e-8) -> JPositive:
    """Closed form A^{1-t}_J . B^t_J, valid when A and B bullet-commute."""
    _check_pair(A, B)
    sig = A.signature
    comm = bullet_commutator(A.matrix, B.matrix, sig)
    scale = max(1.0, fnorm(A.matrix) * fnorm(B.matrix))
    if fnorm(comm) > tol * scale:
        raise NotBulletCommuting("bullet commutator exceeds tolerance")
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise WeightOutOfRange(f"weight {t} outside [0, 1]")
    return is_j_positive(bullet(pow_J(A, 1.0 - t), pow_J(B, t), sig), sig)


@dataclass(frozen=True)
class InequalityVerdict:
    holds: bool
    vacuous: bool
    premise_margin: float
    conclusion_margin: float


def ando_hiai_normalize(A: JPositive, B: JPositive, t: float,
                        margin: float = 0.05) -> tuple[JPositive, JPositive]:
    """Rescale both arguments by a common scalar so that A#_t B <=_J J holds.

    Valid because scaling both by mu scales the mean by mu.
    """
    _check_pair(A, B)
    mean = weighted_mean(A, B, t).mean
    mu = (1.0 - margin) / float(eigvals_unchecked(mean.jx)[0])
    return tuple(certify_constructed(mu * X.jx, A.signature, [mu * X.lambda_min_of_jx])
                 for X in (A, B))


def ando_hiai_check(A: JPositive, B: JPositive, t: float, r: float,
                    tol: float = 1e-9) -> InequalityVerdict:
    """A #_t B <=_J J implies A^r_J #_t B^r_J <=_J J, for r >= 1, t in (0, 1)."""
    _check_pair(A, B)
    if r < 1.0:
        raise ValueError("need r >= 1")
    if not 0.0 < t < 1.0:
        raise ValueError("need t in (0, 1)")
    j_elt = certify_constructed(identity(A.signature.n, A.field), A.signature, [1.0])
    premise = j_leq(weighted_mean(A, B, t).mean, j_elt, tol=tol)
    if not premise.holds:
        return InequalityVerdict(True, True, premise.margin, float("nan"))
    powered = weighted_mean(pow_J(A, r), pow_J(B, r), t).mean
    conclusion = j_leq(powered, j_elt, tol=tol)
    return InequalityVerdict(conclusion.holds, False, premise.margin,
                             conclusion.margin)


def furuta_check(A: JPositive, B: JPositive, p_exp: float, r: float,
                 tol: float = 1e-9) -> OrderVerdict:
    """(A^{r/2}_J . B^p_J . A^{r/2}_J)^{r/(r+p)}_J <=_J A^r_J for 0 <_J B <=_J A."""
    _check_pair(A, B)
    if p_exp < 0.0 or r < 1.0:
        raise ValueError("need p >= 0 and r >= 1")
    premise = j_leq(B, A, tol=tol)
    if not premise.holds:
        raise PremiseViolated("need B <=_J A")
    half = pow_J(A, r / 2.0)
    inner = half.jx @ pow_J(B, p_exp).jx @ half.jx
    lhs = pow_J(certify_constructed(inner, A.signature), r / (r + p_exp))
    return j_leq(lhs, pow_J(A, r), tol=tol)
