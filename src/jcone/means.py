"""Weighted geometric means on the cone P_J and the associated inequalities.

The weighted mean is the geodesic point, equivalently the pullback of the
classical weighted geometric mean under X -> JX.  Each operation reads the
images JA, JB its operands carry and returns members that hold their image.
With JA = L L* and L^{-1} JB L^{-*} = U diag(w) U* (matcore.Pencil),

    J (A #_t B) = (L U) diag(w^t) (L U)*.

At weight 1/2 it is the unique P_J solution of the Riccati equation
X A^{-1} X = B, whose residual reuses A^{-1} = L^{-*} L^{-1} J and the mean's
image as the pencil returned it; weighted_mean takes it on the first read of
MeanResult.riccati_residual, not before.  The mean is the maximum of
{X J-Hermitian : [[JA, JX], [JX, JB]] >= 0}.  The module also
provides the arithmetic and harmonic companions with the AGM sandwich, the
closed form for bullet-commuting pairs, and the Ando-Hiai and Furuta
inequalities transported to P_J.

Every operation takes stacks of members and one weight per member; verdicts
and residuals then hold one value per member.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (NotBulletCommuting, PremiseViolated, WeightOutOfRange,
                     certify, require, threshold)
from .geometry import _pencil
from .jcalc import pow_J
from .jstruct import JPositive, _check_pair, certify_constructed, merged, phi_J
from .matcore import Pencil, adjoint, block2x2, eigvals_unchecked, fnorm, identity
from .order import OrderVerdict, _psd_verdict, j_leq
from .stacks import _out, _real, any_of, per_member, scatter, select


class _OnFirstRead:
    """A dataclass field that may be given as a function of no arguments:
    the function is called on the field's first read and its value kept."""

    def __set_name__(self, owner, name):
        self._key = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:   # so the dataclass field has no default
            raise AttributeError(self._key)
        value = obj.__dict__[self._key]
        if callable(value):
            value = obj.__dict__[self._key] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self._key] = value


@dataclass(frozen=True)
class MeanResult:
    """A weighted mean, its weight and its Riccati residual, one per member of
    a stack (NaN where the weight is not 1/2).  weighted_mean defers the
    residual's two products and norm to its first read, which keeps it, with
    the bits an immediate computation would have."""

    mean: JPositive
    riccati_residual: float = _OnFirstRead()
    weight: float


def riccati_residual(X: JPositive, A: JPositive, B: JPositive) -> float:
    """||X A^{-1} X - B||_F, the defect in the midpoint characterization.

    Equal to ||JX (JA)^{-1} JX - JB||_F, since X A^{-1} X = J JX (JA)^{-1} JX.
    """
    _check_pair(A, X)
    return _pencil(A, B).riccati_residual(X.jx)()


def _weight(t):
    """The weight t, or one per member, checked to lie in [0, 1]."""
    t = _real(t)
    require((0.0 <= t) & (t <= 1.0), WeightOutOfRange, "weight {} outside [0, 1]", t)
    return t


def weighted_mean(A: JPositive, B: JPositive, t=0.5) -> MeanResult:
    """The weighted geometric mean of A and B on P_J, weight t in [0, 1]; the
    Riccati residual is that of the members at t = 0.5, NaN elsewhere."""
    _check_pair(A, B)
    t = _weight(t)
    pencil = Pencil(A.jx, B.jx)
    jmean = pencil.mean(t)
    # Away from weight 1/2 the result holds no L^{-1}.
    half = t == 0.5
    residual = pencil.riccati_residual(jmean) if any_of(half) else (lambda: float("nan"))
    return MeanResult(certify_constructed(jmean, A.signature),
                      partial(_at_half, half, residual), t)


def _at_half(half, residual):
    """residual() where half, NaN elsewhere."""
    value = residual()
    return np.where(half, value, np.nan) if isinstance(half, np.ndarray) else value


def riccati_solve(A: JPositive, B: JPositive) -> JPositive:
    """The unique P_J solution of X A^{-1} X = B: the midpoint mean."""
    return weighted_mean(A, B, 0.5).mean


def maximality_check(X, A: JPositive, B: JPositive, tol: float = 1e-9) -> OrderVerdict:
    """PSD test of [[JA, JX], [JX, JB]].

    Feasible candidates satisfy X <=_J A # B, and the mid-mean itself is the
    maximum: feasible with zero margin.
    """
    _check_pair(A, B)
    _check_pair(A, X)
    jx = X.jx if isinstance(X, JPositive) else phi_J(X, A.signature, 1e-8)
    block = block2x2(A.jx, jx, jx, B.jx)
    return _psd_verdict(block, tol, fnorm(block))


def arithmetic_mean_J(A: JPositive, B: JPositive, t=0.5) -> JPositive:
    _check_pair(A, B)
    t = per_member(_weight(t))
    return certify_constructed(A.jx * (1.0 - t) + B.jx * t, A.signature)


def harmonic_mean_J(A: JPositive, B: JPositive, t=0.5) -> JPositive:
    """[(1-t) A^{-1}_J + t B^{-1}_J]^{-1}_J with J-power inverses throughout;
    A itself at weight 0 and B itself at weight 1, member by member."""
    _check_pair(A, B)
    t = _weight(t)
    at_b, inner = t == 1.0, (t != 0.0) & (t != 1.0)
    mean = merged(A, at_b, select(B, at_b)) if any_of(at_b) else A
    if any_of(inner):
        a, b, s = (select(x, inner) for x in (A, B, t))
        s = per_member(s)
        combo = pow_J(a, -1).jx * (1.0 - s) + pow_J(b, -1).jx * s
        mean = merged(mean, inner, pow_J(certify_constructed(combo, A.signature), -1))
    return mean


def commuting_bullet_mean(A: JPositive, B: JPositive, t: float = 0.5,
                          tol: float = 1e-8) -> JPositive:
    """Closed form A^{1-t}_J . B^t_J, valid when A and B bullet-commute.  Since
    J(X . Y) = JX JY, it is tested on images, and certified as built: JX is
    the Hermitian part of JA^{1-t} JB^t, Hermitian as far as they commute."""
    _check_pair(A, B)
    ja, jb = A.jx, B.jx
    certify(fnorm(ja @ jb - jb @ ja), threshold(tol, fnorm(ja) * fnorm(jb)),
            NotBulletCommuting, "bullet-commutator")
    t = _weight(t)
    P = pow_J(A, 1.0 - t).jx @ pow_J(B, t).jx
    return certify_constructed((P + adjoint(P)) * 0.5, A.signature)


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
    mean = weighted_mean(A, B, t).mean
    mu = (1.0 - margin) / _out(eigvals_unchecked(mean.jx)[..., 0])
    return tuple(certify_constructed(X.jx * per_member(mu), A.signature,
                                     np.expand_dims(mu * X.lambda_min_of_jx, -1))
                 for X in (A, B))


def ando_hiai_check(A: JPositive, B: JPositive, t: float, r: float,
                    tol: float = 1e-9) -> InequalityVerdict:
    """A #_t B <=_J J implies A^r_J #_t B^r_J <=_J J, for r >= 1, t in (0, 1);
    t and r may be one per member, broadcasting against the stack."""
    _check_pair(A, B)
    require(r >= 1.0, ValueError, "need r >= 1")
    require((0.0 < t) & (t < 1.0), ValueError, "need t in (0, 1)")
    j_elt = certify_constructed(identity(A.signature.n, A.field), A.signature, [1.0])
    premise = j_leq(weighted_mean(A, B, t).mean, j_elt, tol=tol)
    # A member whose premise fails holds vacuously, with no conclusion margin;
    # the conclusion is taken on the others alone.
    live = premise.holds
    holds = margin = ()   # the conclusions of no member
    if any_of(live):
        t, r = (np.broadcast_to(x, np.shape(live)) if np.ndim(x) else x for x in (t, r))
        a, b, s, e = (select(x, live) for x in (A, B, t, r))
        conclusion = j_leq(weighted_mean(pow_J(a, e), pow_J(b, e), s).mean, j_elt, tol=tol)
        holds, margin = conclusion.holds, conclusion.margin
    return InequalityVerdict(_out(scatter(live, holds, True)), _out(np.logical_not(live)),
                             premise.margin, _out(scatter(live, margin, np.nan)))


def furuta_check(A: JPositive, B: JPositive, p_exp: float, r: float,
                 tol: float = 1e-9) -> OrderVerdict:
    """(A^{r/2}_J . B^p_J . A^{r/2}_J)^{r/(r+p)}_J <=_J A^r_J for 0 <_J B <=_J A;
    p and r may be one per member, or a grid (k, 1) over a stack of pairs."""
    _check_pair(A, B)
    require((p_exp >= 0.0) & (r >= 1.0), ValueError, "need p >= 0 and r >= 1")
    premise = j_leq(B, A, tol=tol)
    require(premise.holds, PremiseViolated, "need B <=_J A")
    half = pow_J(A, r / 2.0)
    inner = half.jx @ pow_J(B, p_exp).jx @ half.jx
    lhs = pow_J(certify_constructed(inner, A.signature), r / (r + p_exp))
    return j_leq(lhs, pow_J(A, r), tol=tol)
