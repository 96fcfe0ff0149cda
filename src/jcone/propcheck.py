"""Randomized property suites over the cone P_J.

Each property is registered under a stable id and grouped into suites
(powers, order, geometry, means, inequalities, quaternion).  A trial draws
its own generator from (seed, trial index, property id), so reports are
deterministic and trials are order-independent.  The counterexample is the
last failing trial's own inputs, reproducible from (seed, trial, id): the
trial's generator is np.random.default_rng((seed, crc32(id), trial)), bit for
bit, built by _trial_rng from numpy's public SeedSequence and ISeedSequence.

A property f(ctx, rng) runs a block of trials in one call: rng is a
GeneratorStack of the block's trial generators, each draw returns one result
per trial on a leading axis, and the property computes on those stacks, so
its outcome holds one ok and one margin per trial (and its witness one value
per trial).  Each trial consumes its own generator exactly as a call on that
generator alone, f(ctx, _trial_rng(seed, id, trial)), which is the one-trial
case of the same code, and gets the same outcome bit for bit.  A parameter
grid (PropertySpec.grid points) stacks on an axis in front of the trials, and
a block holds at most _BLOCK_ENTRIES matrix entries per stacked n x n array.
A property that draws nothing from its generators returns one outcome, with
no witness, for a block, and it counts for each of the block's trials.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from functools import cache, reduce

import numpy as np

from .errors import UnknownSuite, require, threshold
from .fileio import canonical_dumps, matrix_to_payload
from .geometry import geodesic, geodesic_distance, metric_omega
from .jcalc import (GeneratorStack, _mat, _random_matrix, bullet, exp_J, pow_J,
                    random_invertible, random_jhermitian, random_kj,
                    random_pj_bounded)
from .jstruct import (JPositive, Signature, _holding, is_j_hermitian,
                      is_j_positive, sharp)
from .matcore import (adjoint, fnorm, hermitian_eig, identity, is_matrix,
                      mat_exp_h, mat_inverse, mat_log_pd, mat_pow_pd, mat_sqrt_pd,
                      matrix_function, psi_matrix, psi_structural_residual, tiled,
                      trd)
from .means import (ando_hiai_check, ando_hiai_normalize, arithmetic_mean_J,
                    furuta_check, harmonic_mean_J, maximality_check,
                    weighted_mean)
from .order import j_leq
from .stacks import max_of, member, min_of, per_member

SUITES = ("powers", "order", "geometry", "means", "inequalities", "quaternion")


@dataclass(frozen=True)
class Context:
    sig: Signature
    field: str
    tol: float


@dataclass(frozen=True)
class TrialOutcome:
    """One trial's verdict, or a block's: then ok and margin are arrays over
    its trials and each witness value holds one value per trial."""

    ok: bool
    margin: float
    # Named inputs of the trial, serialized only if it ends up reported.
    witness: dict | None = None


@dataclass(frozen=True)
class PropertyReport:
    property_id: str
    trials: int
    failures: int
    worst_margin: float
    seed: int
    counterexample: dict | None = None

    def to_json_line(self) -> str:
        # A margin that is not finite is written null: JSON has no such number.
        example = self.counterexample
        if example is not None and not math.isfinite(example["margin"]):
            example = {**example, "margin": None}
        return canonical_dumps({
            "property_id": self.property_id,
            "trials": self.trials,
            "failures": self.failures,
            "worst_margin": self.worst_margin if math.isfinite(self.worst_margin) else None,
            "seed": self.seed,
            "counterexample": example,
        })


@dataclass(frozen=True)
class PropertySpec:
    property_id: str
    suites: tuple
    func: object
    grid: int = 1   # points of its parameter grid, each a copy of the block's trials


def _payload(X):
    """Matrix file payload of a matrix witness; other values pass through."""
    if isinstance(X, JPositive):
        X = X.matrix
    return matrix_to_payload(X) if is_matrix(X) else X


def _rel_err(X, Y):
    return fnorm(X - Y) / threshold(1.0, fnorm(X), fnorm(Y))


def _within(tol, err, witness=None) -> TrialOutcome:
    """err <= tol, with margin tol - err: a NaN error fails, its margin NaN."""
    return TrialOutcome(err <= tol, tol - err, witness)


def _leq(ctx: Context, X, Y, witness) -> TrialOutcome:
    """X <=_J Y at ctx.tol, its margin eased by the order's own slack
    ctx.tol * max(1, ||X||, ||Y||), so that it is >= 0 where the order holds."""
    v = j_leq(X, Y, ctx.sig, tol=ctx.tol)
    scale = threshold(1.0, fnorm(_mat(X)), fnorm(_mat(Y)))
    return TrialOutcome(v.holds, v.margin + ctx.tol * scale, witness)


_scalar_pow = np.frompyfunc(pow, 2, 1)


def _grid(rng, *values):
    """A parameter grid on an axis before the trial axis of rng's draws, (k, 1),
    or (k,) over one generator: a cone operation then runs once on them all,
    and np.maximum.reduce folds the errors on the axis, a NaN kept to fail the
    trial."""
    grid = np.array(values)
    return grid[:, None] if isinstance(rng, GeneratorStack) else grid


def _tiled(X: JPositive, k: int) -> JPositive:
    """k copies of X on a new leading axis, as a read-only view of its images."""
    return _holding(tiled(X.jx, k), X.signature, None)


def _pow(x, y):
    """x ** y per trial by the C library's pow, as a Python float power takes
    it: numpy's vectorized power may differ from it in the last bit."""
    return _scalar_pow(x, y).astype(float)


def _j_bump(sig: Signature, fld: str, rng, scale: float):
    """J g g* scaled to norm scale: X + bump lies J-above X, and its image
    g g* is positive semidefinite by construction, so it takes no test."""
    g = random_invertible(sig, fld, rng)
    bump = g @ adjoint(g)
    return sig.flip(bump * per_member(scale / threshold(1.0, fnorm(bump))))


def _random_pair(ctx: Context, rng):
    return (random_pj_bounded(ctx.sig, ctx.field, rng),
            random_pj_bounded(ctx.sig, ctx.field, rng))


def _comparable_pair(ctx: Context, rng):
    """X in P_J and Y = X + J (PSD bump), so that X <=_J Y."""
    X = random_pj_bounded(ctx.sig, ctx.field, rng)
    Y = is_j_positive(X.matrix + _j_bump(ctx.sig, ctx.field, rng, 1.0), ctx.sig)
    return X, Y


# ---------------------------------------------------------------------------
# powers suite (J-exponential calculus)

def _prop_exp_noninjectivity(ctx, rng):
    two_pi = 2.0 * np.pi
    X = np.array([[0.0, two_pi * 1j], [two_pi * 1j, 0.0]])
    sig = Signature(1, 1)
    # X = iS with S real symmetric, so exp(X) = U diag(exp(iw)) U^T from S = U diag(w) U^T.
    w, U = np.linalg.eigh(X.imag)   # independent oracle
    err = fnorm((U * np.exp(1j * w)) @ U.T - np.eye(2))
    ok = (err <= 1e-10 and is_j_hermitian(X, sig) and fnorm(X) > 1.0)
    return TrialOutcome(ok, 1e-10 - err)


def _prop_inverse_exponential_law(ctx, rng):
    X = random_jhermitian(ctx.sig, ctx.field, rng)
    X = X * per_member(2.0 / threshold(1.0, fnorm(X)))
    E = exp_J(X, ctx.sig)
    j = ctx.sig.matrix_for(X)
    rhs = mat_exp_h(-(j @ X)) @ j
    return _within(1e-10, _rel_err(mat_inverse(E.matrix), rhs), dict(X=X))


def _prop_inverse_generic_gap(ctx, rng):
    # exp_J(X)^{-1} differs from exp_J(-X) on at least 9 of 10 generic draws.
    # random_jhermitian's 10 draws, stacked before the matrix axes.
    sig = Signature(1, 1)
    y = _random_matrix(2, "R" if ctx.field == "R" else "C", rng, (10,))
    X = (y + sharp(y, sig)) * 0.5
    gap = fnorm(mat_inverse(exp_J(X, sig).matrix) - exp_J(-X, sig).matrix)
    hits = np.count_nonzero(gap > 1e-6, axis=-1)
    return TrialOutcome(hits >= 9, hits - 9.0)


def _prop_kj_congruence_powers(ctx, rng):
    X = random_pj_bounded(ctx.sig, ctx.field, rng)
    g = random_kj(ctx.sig, ctx.field, rng)
    gs = sharp(g, ctx.sig)
    t = _grid(rng, -1.0, 0.3, 0.5, 2.0)
    lhs = pow_J(is_j_positive(g @ X.matrix @ gs, ctx.sig), t)
    rhs = g @ pow_J(X, t).matrix @ gs
    return _within(ctx.tol, np.maximum.reduce(_rel_err(lhs.matrix, rhs)), dict(X=X, g=g))


def _prop_commuting_power_factorization(ctx, rng):
    S = random_pj_bounded(ctx.sig, ctx.field, rng)
    a, b = np.moveaxis(rng.uniform(-1.5, 1.5, size=2), -1, 0)
    X, Y = pow_J(S, a), pow_J(S, b)
    prod = is_j_positive(bullet(X, Y, ctx.sig), ctx.sig)
    t = _grid(rng, 0.5, 2.0, -1.0)
    lhs = pow_J(prod, t).matrix
    rhs = bullet(pow_J(X, t), pow_J(Y, t), ctx.sig)
    return _within(ctx.tol, np.maximum.reduce(_rel_err(lhs, rhs)), dict(S=S))


# ---------------------------------------------------------------------------
# order suite

def _prop_power_monotone_unit(ctx, rng):
    X, Y = _comparable_pair(ctx, rng)
    scale = threshold(1.0, fnorm(X.matrix), fnorm(Y.matrix))
    t = _grid(rng, 0.25, 0.5, 0.75, 1.0)
    v = j_leq(pow_J(X, t), pow_J(Y, t), tol=ctx.tol)
    return _within(ctx.tol * scale, np.maximum.reduce(-v.margin), dict(X=X, Y=Y))


def _prop_power_monotone_breaks_t2(ctx, rng):
    # t = 2 is outside the operator-monotone range.  Perturbing the classic
    # 2x2 counterexample keeps X <=_J Y while the squares stay incomparable,
    # so every trial exhibits a genuine violation.
    sig = Signature(1, 1)
    j = sig.matrix()
    delta = 0.01 + 0.2 * rng.uniform()
    base = np.array([[1.0, 1.0], [1.0, 1.0]]) + per_member(delta) * np.eye(2)
    bump = per_member(0.5 + rng.uniform()) * np.diag([1.0, 0.0])
    X = is_j_positive(j @ base, sig)
    Y = is_j_positive(j @ (base + bump), sig)
    premise = j_leq(X, Y, tol=ctx.tol)
    v = j_leq(pow_J(X, 2.0), pow_J(Y, 2.0), tol=ctx.tol)
    ok = premise.holds & (v.margin < -1e-6)
    return TrialOutcome(ok, -v.margin, dict(X=X, Y=Y))


def _prop_order_congruence(ctx, rng):
    X, Y = _comparable_pair(ctx, rng)
    C = random_invertible(ctx.sig, ctx.field, rng)
    lhs = sharp(C, ctx.sig) @ X.matrix @ C
    rhs = sharp(C, ctx.sig) @ Y.matrix @ C
    return _leq(ctx, lhs, rhs, dict(X=X, Y=Y, C=C))


def _prop_inverse_antimonotone(ctx, rng):
    X, Y = _comparable_pair(ctx, rng)
    xi = is_j_positive(mat_inverse(X.matrix), ctx.sig)
    yi = is_j_positive(mat_inverse(Y.matrix), ctx.sig)
    return _leq(ctx, yi, xi, dict(X=X, Y=Y))


# ---------------------------------------------------------------------------
# geometry suite

def _classical_geodesic(P, Q, t):
    rt = mat_sqrt_pd(P)
    rti = mat_inverse(rt)
    return rt @ mat_pow_pd(rti @ Q @ rti, t) @ rt


def _prop_pullback_geodesic(ctx, rng):
    A, B = _random_pair(ctx, rng)
    t = _grid(rng, 0.1, 0.5, 0.9)
    err = _rel_err(geodesic(A, B, t).jx, _classical_geodesic(A.jx, B.jx, t))
    return _within(ctx.tol, np.maximum.reduce(err), dict(A=A, B=B))


def _prop_metric_invariance(ctx, rng):
    P = random_pj_bounded(ctx.sig, ctx.field, rng)
    U = random_jhermitian(ctx.sig, ctx.field, rng)
    V = random_jhermitian(ctx.sig, ctx.field, rng)
    g = random_invertible(ctx.sig, ctx.field, rng)
    base = metric_omega(P, U, V)
    gs = sharp(g, ctx.sig)
    moved = metric_omega(is_j_positive(g @ P.matrix @ gs, ctx.sig),
                         g @ U @ gs, g @ V @ gs)
    inv_err = abs(base - moved) / threshold(1.0, abs(base))
    positivity = metric_omega(P, U, U)
    ok = (inv_err <= 1e-9) & (positivity > 0.0)
    return TrialOutcome(ok, min_of(1e-9 - inv_err, positivity), dict(P=P, U=U, V=V))


def _prop_segment_additivity(ctx, rng):
    A, B = _random_pair(ctx, rng)
    t = rng.uniform(0.1, 0.9)
    G = geodesic(A, B, t)
    total = geodesic_distance(A, B)
    err = abs(geodesic_distance(A, G) + geodesic_distance(G, B) - total)
    return _within(1e-8, err / threshold(1.0, total), dict(A=A, B=B))


# ---------------------------------------------------------------------------
# means suite

def _mean(A, B, t):
    return weighted_mean(A, B, t).mean


def _prop_mean_symmetry(ctx, rng):
    A, B = _random_pair(ctx, rng)
    err = _rel_err(_mean(A, B, 0.5).matrix, _mean(B, A, 0.5).matrix)
    return _within(ctx.tol, err, dict(A=A, B=B))


def _prop_mean_inversion(ctx, rng):
    A, B = _random_pair(ctx, rng)
    lhs = mat_inverse(_mean(A, B, 0.5).matrix)
    rhs = _mean(is_j_positive(mat_inverse(A.matrix), ctx.sig),
                is_j_positive(mat_inverse(B.matrix), ctx.sig), 0.5).matrix
    return _within(ctx.tol, _rel_err(lhs, rhs), dict(A=A, B=B))


def _prop_mean_idempotence(ctx, rng):
    A = random_pj_bounded(ctx.sig, ctx.field, rng)
    t = rng.uniform(0.2, 0.8)
    same_err = _rel_err(_mean(A, A, t).matrix, A.matrix)
    bump = _j_bump(ctx.sig, ctx.field, rng, 1.0)
    B = is_j_positive(A.matrix + bump, ctx.sig)
    moved = fnorm(_mean(A, B, t).matrix - A.matrix)
    ok = (same_err <= ctx.tol) & (moved > 1e-8)
    return TrialOutcome(ok, min_of(ctx.tol - same_err, moved - 1e-8), dict(A=A, B=B))


def _prop_mean_scaling(ctx, rng):
    A, B = _random_pair(ctx, rng)
    t = rng.uniform(0.1, 0.9)
    base = _mean(A, B, t).matrix
    alpha = _grid(rng, *np.repeat((0.5, 2.0, 3.0), 3))
    beta = _grid(rng, *np.tile((0.5, 2.0, 3.0), 3))
    lhs = _mean(is_j_positive(per_member(alpha) * A.matrix, ctx.sig),
                is_j_positive(per_member(beta) * B.matrix, ctx.sig), t).matrix
    rhs = base * per_member(_pow(alpha, 1.0 - t) * _pow(beta, t))
    return _within(ctx.tol, np.maximum.reduce(_rel_err(lhs, rhs)), dict(A=A, B=B))


def _prop_mean_time_reversal(ctx, rng):
    A, B = _random_pair(ctx, rng)
    t = rng.uniform(0.0, 1.0)
    err = _rel_err(_mean(A, B, t).matrix, _mean(B, A, 1.0 - t).matrix)
    return _within(ctx.tol, err, dict(A=A, B=B))


def _prop_mean_monotonicity(ctx, rng):
    A, C = _comparable_pair(ctx, rng)
    B, D = _comparable_pair(ctx, rng)
    t = rng.uniform(0.1, 0.9)
    return _leq(ctx, _mean(A, B, t), _mean(C, D, t), dict(A=A, B=B, C=C, D=D))


def _prop_mean_kj_congruence(ctx, rng):
    A, B = _random_pair(ctx, rng)
    g = random_kj(ctx.sig, ctx.field, rng)
    gs = sharp(g, ctx.sig)
    t = rng.uniform(0.1, 0.9)
    lhs = _mean(is_j_positive(g @ A.matrix @ gs, ctx.sig),
                is_j_positive(g @ B.matrix @ gs, ctx.sig), t).matrix
    rhs = g @ _mean(A, B, t).matrix @ gs
    return _within(ctx.tol, _rel_err(lhs, rhs), dict(A=A, B=B, g=g))


def _prop_mean_joint_concavity(ctx, rng):
    A, C = _random_pair(ctx, rng)
    B, D = _random_pair(ctx, rng)
    s = per_member(rng.uniform(0.1, 0.9))
    t = rng.uniform(0.1, 0.9)
    lhs = _mean(A, C, t).matrix * (1.0 - s) + _mean(B, D, t).matrix * s
    mixed1 = is_j_positive(A.matrix * (1.0 - s) + B.matrix * s, ctx.sig)
    mixed2 = is_j_positive(C.matrix * (1.0 - s) + D.matrix * s, ctx.sig)
    rhs = _mean(mixed1, mixed2, t).matrix
    return _leq(ctx, lhs, rhs, dict(A=A, B=B, C=C, D=D))


def _prop_mean_composition(ctx, rng):
    A, B = _random_pair(ctx, rng)
    t, s, u = np.moveaxis(rng.uniform(0.1, 0.9, size=3), -1, 0)
    lhs = _mean(_mean(A, B, t), _mean(A, B, s), u).matrix
    rhs = _mean(A, B, (1.0 - u) * t + u * s).matrix
    return _within(ctx.tol, _rel_err(lhs, rhs), dict(A=A, B=B))


def _prop_mean_agm_sandwich(ctx, rng):
    A, B = _random_pair(ctx, rng)
    t = rng.uniform(0.1, 0.9)
    geo = _mean(A, B, t)
    har = harmonic_mean_J(A, B, t)
    ari = arithmetic_mean_J(A, B, t)
    lower = j_leq(har, geo, tol=ctx.tol)
    upper = j_leq(geo, ari, tol=ctx.tol)
    scale = threshold(1.0, fnorm(ari.matrix))
    worst = min_of(lower.margin, upper.margin) + ctx.tol * scale
    return TrialOutcome(lower.holds & upper.holds, worst, dict(A=A, B=B))


def _prop_mean_pullback_oracle(ctx, rng):
    A, B = _random_pair(ctx, rng)
    t = _grid(rng, 0.1, 0.5, 0.9)
    err = _rel_err(_mean(A, B, t).jx, _classical_geodesic(A.jx, B.jx, t))
    return _within(ctx.tol, np.maximum.reduce(err), dict(A=A, B=B))


NONCOMMUTING_DIFF = np.array([[0.263207, 0.768429], [-0.857469, -2.50336]])


def _prop_noncommuting_witness(ctx, rng):
    sig = Signature(1, 1)
    A = is_j_positive(np.array([[2.0, 1.0], [-1.0, -2.0]]), sig)
    B = is_j_positive(np.array([[3.0, 1.0], [-1.0, -1.0]]), sig)
    diff = _mean(A, B, 0.5).matrix - pow_J(A, 0.5).matrix @ pow_J(B, 0.5).matrix
    return _within(5e-4, float(np.max(np.abs(diff - NONCOMMUTING_DIFF))))


# ---------------------------------------------------------------------------
# inequalities suite

def _prop_ando_hiai(ctx, rng):
    # Tight spread keeps the cubed arguments well away from the cone boundary.
    A = random_pj_bounded(ctx.sig, ctx.field, rng, radius=1.0)
    B = random_pj_bounded(ctx.sig, ctx.field, rng, radius=1.0)
    t = rng.uniform(0.2, 0.8)
    A, B = ando_hiai_normalize(A, B, t)
    r = _grid(rng, 1.0, 1.5, 2.0, 3.0)
    v = ando_hiai_check(_tiled(A, len(r)), _tiled(B, len(r)), t, r, tol=ctx.tol)
    ok = np.logical_and.reduce(v.holds & np.logical_not(v.vacuous))
    worst = reduce(min_of, v.conclusion_margin + ctx.tol, np.inf)
    return TrialOutcome(ok, worst, dict(A=A, B=B))


def _prop_furuta(ctx, rng):
    B = random_pj_bounded(ctx.sig, ctx.field, rng)
    A = is_j_positive(B.matrix + _j_bump(ctx.sig, ctx.field, rng, 1.0), ctx.sig)
    size = fnorm(A.matrix)
    # Every (p, r) of {0, 1, 2} x {1, 2, 3}, p the outer loop as alpha is in
    # means.scaling: the grid order is the order NaN margins are met in.
    p_exp = _grid(rng, *np.repeat((0.0, 1.0, 2.0), 3))
    r = _grid(rng, *np.tile((1.0, 2.0, 3.0), 3))
    v = furuta_check(A, B, p_exp, r, tol=ctx.tol)
    worst = reduce(min_of, v.margin + ctx.tol * threshold(1.0, _pow(size, r)), np.inf)
    return TrialOutcome(np.logical_and.reduce(v.holds), worst, dict(A=A, B=B))


def _prop_maximality(ctx, rng):
    # The mid-mean is the maximum of {X J-Hermitian : [[JA,JX],[JX,JB]] >= 0}:
    # it is feasible with zero margin, every feasible X lies <=_J below it,
    # and nothing strictly above it is feasible.
    A, B = _random_pair(ctx, rng)
    M = _mean(A, B, 0.5)
    bump = _j_bump(ctx.sig, ctx.field, rng, 0.1)
    at_max = maximality_check(M.matrix, A, B, tol=ctx.tol)
    above = maximality_check(M.matrix + bump, A, B, tol=1e-12)
    above_order = j_leq(M.matrix + bump, M.matrix, ctx.sig, tol=1e-12)
    ok = at_max.holds & np.logical_not(above.holds) & np.logical_not(above_order.holds)
    cM = per_member(_grid(rng, -0.9, 0.0, 0.5, 0.9)) * M.matrix
    scaled = maximality_check(cM, A, B, tol=ctx.tol)
    dominated = j_leq(cM, M.matrix, ctx.sig, tol=ctx.tol)
    ok = ok & np.logical_and.reduce(scaled.holds & dominated.holds)
    # Soundness near the maximum: feasibility implies domination, where the
    # feasibility margin is decisive.
    X = M.matrix + 0.05 * random_jhermitian(ctx.sig, ctx.field, rng)
    feas = maximality_check(X, A, B, tol=1e-12)
    dom = j_leq(X, M.matrix, ctx.sig, tol=1e-12)
    decisive = abs(feas.margin) > 1e-9 * threshold(1.0, fnorm(M.matrix))
    ok = ok & (np.logical_not(decisive & feas.holds) | dom.holds)
    return TrialOutcome(ok, min_of(at_max.margin + ctx.tol, -above.margin),
                        dict(A=A, B=B))


# ---------------------------------------------------------------------------
# quaternion suite

def _prop_psi_homomorphism(ctx, rng):
    n = ctx.sig.n
    X, Y = _random_matrix(n, "H", rng), _random_matrix(n, "H", rng)
    e1 = fnorm(psi_matrix(X @ Y) - psi_matrix(X) @ psi_matrix(Y))
    e2 = fnorm(psi_matrix(X.H) - adjoint(psi_matrix(X)))
    e3 = fnorm(psi_matrix(mat_inverse(X)) - np.linalg.inv(psi_matrix(X)))  # independent oracle
    scale = threshold(1.0, fnorm(psi_matrix(X)) * fnorm(psi_matrix(Y)))
    return _within(1e-9, max_of(max_of(e1, e2), e3) / scale, dict(X=X, Y=Y))


def _prop_trd_cyclicity(ctx, rng):
    n = ctx.sig.n
    X, Y = _random_matrix(n, "H", rng), _random_matrix(n, "H", rng)
    err = abs(trd(X @ Y) - trd(Y @ X)) / threshold(1.0, fnorm(X) * fnorm(Y))
    return _within(1e-12, err, dict(X=X, Y=Y))


def _prop_quat_spectral(ctx, rng):
    n = ctx.sig.n
    Y = _random_matrix(n, "H", rng)
    X = (Y + Y.H) * 0.5
    dec = hermitian_eig(X)
    recon = _rel_err(dec.reconstruct(), X)
    U = dec.unitary
    unit = fnorm(U.H @ U - identity(n, "H"))
    ok = (recon <= 1e-9) & (unit <= 1e-9)
    return TrialOutcome(ok, 1e-9 - max_of(recon, unit), dict(X=X))


def _unit_hermitian(n, rng, size):
    """A random quaternionic Hermitian matrix scaled to norm at most size."""
    Y = _random_matrix(n, "H", rng)
    H = (Y + Y.H) * 0.5
    return H * per_member(size / threshold(1.0, fnorm(H)))


def _prop_quat_exp_log(ctx, rng):
    H = _unit_hermitian(ctx.sig.n, rng, 3.0)
    return _within(1e-9, _rel_err(mat_log_pd(mat_exp_h(H)), H), dict(H=H))


def _prop_quat_functional_calculus(ctx, rng):
    H = _unit_hermitian(ctx.sig.n, rng, 2.0)
    P = mat_exp_h(H)
    err = [_rel_err(psi_matrix(matrix_function(P, f)), matrix_function(psi_matrix(P), f))
           for f in (np.exp, np.log, np.sqrt, lambda w: np.power(w, 0.7))]
    return _within(1e-9, np.maximum.reduce(err), dict(H=H))


def _prop_quat_image_structure(ctx, rng):
    H = _unit_hermitian(ctx.sig.n, rng, 2.0)
    P = psi_matrix(mat_exp_h(H))
    fs = (np.exp, np.log, lambda w: 1.0 / w, lambda w: np.power(w, 0.3))
    res = [psi_structural_residual(M) / threshold(1.0, fnorm(M))
           for M in (matrix_function(P, f) for f in fs)]
    return _within(1e-10, np.maximum.reduce(res), dict(H=H))


# ---------------------------------------------------------------------------
# registry and runner

REGISTRY = [
    PropertySpec("powers.exp_noninjectivity", ("powers",), _prop_exp_noninjectivity),
    PropertySpec("powers.inverse_exponential_law", ("powers",), _prop_inverse_exponential_law),
    PropertySpec("powers.inverse_generic_gap", ("powers",), _prop_inverse_generic_gap, 10),
    PropertySpec("powers.kj_congruence", ("powers",), _prop_kj_congruence_powers, 4),
    PropertySpec("powers.commuting_factorization", ("powers",),
                 _prop_commuting_power_factorization, 3),
    PropertySpec("order.power_monotone_unit", ("order",), _prop_power_monotone_unit, 4),
    PropertySpec("order.power_monotone_breaks_t2", ("order",), _prop_power_monotone_breaks_t2),
    PropertySpec("order.congruence", ("order",), _prop_order_congruence),
    PropertySpec("order.inverse_antimonotone", ("order",), _prop_inverse_antimonotone),
    PropertySpec("geometry.pullback_geodesic", ("geometry",), _prop_pullback_geodesic, 3),
    PropertySpec("geometry.metric_invariance", ("geometry",), _prop_metric_invariance),
    PropertySpec("geometry.segment_additivity", ("geometry",), _prop_segment_additivity),
    PropertySpec("means.symmetry", ("means",), _prop_mean_symmetry),
    PropertySpec("means.inversion", ("means",), _prop_mean_inversion),
    PropertySpec("means.idempotence", ("means",), _prop_mean_idempotence),
    PropertySpec("means.scaling", ("means",), _prop_mean_scaling, 9),
    PropertySpec("means.time_reversal", ("means",), _prop_mean_time_reversal),
    PropertySpec("means.monotonicity", ("means",), _prop_mean_monotonicity),
    PropertySpec("means.kj_congruence", ("means",), _prop_mean_kj_congruence),
    PropertySpec("means.joint_concavity", ("means",), _prop_mean_joint_concavity),
    PropertySpec("means.composition", ("means",), _prop_mean_composition),
    PropertySpec("means.agm_sandwich", ("means",), _prop_mean_agm_sandwich),
    PropertySpec("means.pullback_oracle", ("means",), _prop_mean_pullback_oracle, 3),
    PropertySpec("means.noncommuting_witness", ("means",), _prop_noncommuting_witness),
    PropertySpec("ineq.ando_hiai", ("inequalities",), _prop_ando_hiai, 4),
    PropertySpec("ineq.furuta", ("inequalities",), _prop_furuta, 9),
    PropertySpec("ineq.maximality", ("inequalities",), _prop_maximality, 4),
    PropertySpec("quat.psi_homomorphism", ("quaternion",), _prop_psi_homomorphism),
    PropertySpec("quat.trd_cyclicity", ("quaternion",), _prop_trd_cyclicity),
    PropertySpec("quat.spectral_reconstruction", ("quaternion",), _prop_quat_spectral),
    PropertySpec("quat.exp_log_roundtrip", ("quaternion",), _prop_quat_exp_log),
    PropertySpec("quat.functional_calculus", ("quaternion",), _prop_quat_functional_calculus),
    PropertySpec("quat.image_structure", ("quaternion",), _prop_quat_image_structure),
]

REGISTRY_BY_ID = {spec.property_id: spec for spec in REGISTRY}


# A trial's generator is np.random.default_rng((seed, crc32(id), trial)), bit
# for bit, built without default_rng's wrappers: numpy's SeedSequence mixes the
# tuple's entropy words into its pool, and the output hash of its
# generate_state(4, np.uint64) runs here on the pool cycled twice, a (2, 4)
# layout.  Its constants depend on no data: word i is XORed with
# INIT_B * MULT_B**i and multiplied by INIT_B * MULT_B**(i + 1), mod 2**32.
_HASH = np.array([0x8B51F9DD * 0x58F38DED ** i & 0xFFFFFFFF for i in range(9)],
                 dtype=np.uint32)
_HASH_XOR, _HASH_MUL = _HASH[:8].reshape(2, 4), _HASH[1:].reshape(2, 4)


def _entropy_words(n: int) -> list:
    """numpy's coercion of an int seed: its little-endian 32-bit words, [0] for 0."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & 0xFFFFFFFF]
    while n > 0xFFFFFFFF:
        n >>= 32
        words.append(n & 0xFFFFFFFF)
    return words


@cache
def _numpy_random() -> tuple:
    """SeedSequence, PCG64, Generator, and a seed sequence that hands PCG64
    its ready-made state words (so a trial's generator neither spawns nor
    pickles).  Importing numpy.random costs about 10 ms, so it loads at the
    first trial, not with this module."""
    class ReadyState(np.random.bit_generator.ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return np.random.SeedSequence, np.random.PCG64, np.random.Generator, ReadyState


def _trial_rng(seed: int, property_id: str, trial: int) -> np.random.Generator:
    SeedSequence, PCG64, Generator, ReadyState = _numpy_random()
    entropy = (_entropy_words(int(seed)) + [zlib.crc32(property_id.encode())]
               + _entropy_words(trial))
    # uint32 arrays wrap on overflow, with no warning and no error state.
    s = SeedSequence(np.array(entropy, dtype=np.uint32)).pool ^ _HASH_XOR
    s *= _HASH_MUL
    s ^= s >> 16
    # generate_state reads each pair of hashed words, as '<u4', as one '<u8';
    # on a little-endian host neither cast copies.
    words = s.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    return Generator(PCG64(ReadyState(words.ravel())))


# Entries of one stacked n x n array of a block, over the grid points and
# trials it holds: n = 3 runs up to 7281 trials per call (808 with a grid of
# 9), n = 256 one.
_BLOCK_ENTRIES = 1 << 16


def run_property(spec: PropertySpec, ctx: Context, trials: int, seed: int) -> PropertyReport:
    require(trials >= 0, ValueError, "need trials >= 0, got {:.0f}", trials)
    block = max(1, _BLOCK_ENTRIES // (spec.grid * ctx.sig.n ** 2))
    failures = 0
    worst = np.inf if trials else 0.0
    failing = None
    for first in range(0, trials, block):
        rngs = GeneratorStack.deferred(min(block, trials - first), lambda i, first=first:
                                       _trial_rng(seed, spec.property_id, first + i))
        outcome = spec.func(ctx, rngs)
        # An outcome of one value, from a property that draws nothing, stands
        # for each trial of the block.
        shape = (len(rngs),)
        ok, margin = (x if type(x) is np.ndarray and x.shape == shape
                      else np.broadcast_to(x, shape) for x in (outcome.ok, outcome.margin))
        worst = np.fmin(worst, np.fmin.reduce(margin))
        failed = np.flatnonzero(np.logical_not(ok))
        if failed.size:
            failures += failed.size
            failing = (first, failed[-1], margin[failed[-1]], outcome)
    counterexample = None
    if failing is not None:
        first, i, margin, outcome = failing
        witness = member(outcome.witness or {}, i)
        inputs = {name: _payload(m) for name, m in witness.items()}
        counterexample = {"trial": int(first + i), "margin": float(margin), "inputs": inputs}
    return PropertyReport(spec.property_id, trials, failures, float(worst),
                          int(seed), counterexample)


def run_suite(suite_id: str, sig: Signature, field: str, trials: int = 200,
              seed: int = 0, tol: float = 1e-8) -> list:
    if suite_id != "all" and suite_id not in SUITES:
        raise UnknownSuite(f"unknown suite {suite_id!r}")
    ctx = Context(sig, field, tol)
    reports = []
    for spec in REGISTRY:
        if suite_id != "all" and suite_id not in spec.suites:
            continue
        reports.append(run_property(spec, ctx, trials, seed))
    return reports
