"""Randomized property suites over the cone P_J.

Each property is registered under a stable id and grouped into suites
(powers, order, geometry, means, inequalities, quaternion).  A trial draws
its own generator from (seed, trial index, property id), so reports are
deterministic and trials are order-independent.  When a trial fails, the
perturbation that produced the instance is halved until the failure
disappears and the last failing instance is reported as the counterexample.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .errors import UnknownSuite
from .fileio import canonical_dumps, matrix_to_payload
from .geometry import geodesic, geodesic_distance, metric_omega
from .jcalc import (_random_matrix, bullet, exp_J, pow_J, random_invertible,
                    random_jhermitian, random_kj, random_pj_bounded)
from .jstruct import (JPositive, Signature, is_j_hermitian, is_j_positive,
                      phi_J, phi_J_inv, sharp)
from .matcore import (adjoint, fnorm, hermitian_eig, identity, is_matrix,
                      mat_exp_h, mat_inverse, mat_log_pd, mat_pow_pd,
                      mat_sqrt_pd, matrix_function, psi_matrix,
                      psi_structural_residual, trd)
from .means import (ando_hiai_check, ando_hiai_normalize, arithmetic_mean_J,
                    furuta_check, harmonic_mean_J, maximality_check,
                    weighted_mean)
from .order import j_leq

SUITES = ("powers", "order", "geometry", "means", "inequalities", "quaternion")


@dataclass(frozen=True)
class Context:
    sig: Signature
    field: str
    tol: float


@dataclass(frozen=True)
class TrialOutcome:
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
        return canonical_dumps({
            "property_id": self.property_id,
            "trials": self.trials,
            "failures": self.failures,
            "worst_margin": self.worst_margin,
            "seed": self.seed,
            "counterexample": self.counterexample,
        })


@dataclass(frozen=True)
class PropertySpec:
    property_id: str
    suites: tuple
    func: object


def _payload(X):
    """Matrix file payload of a matrix witness; other values pass through."""
    if isinstance(X, JPositive):
        X = X.matrix
    return matrix_to_payload(X) if is_matrix(X) else X


def _rel_err(X, Y) -> float:
    return fnorm(X - Y) / max(1.0, fnorm(X), fnorm(Y))


def _psd_bump(sig: Signature, fld: str, rng, eps: float):
    g = random_invertible(sig, fld, rng)
    bump = g @ adjoint(g)
    return bump * (eps / max(1.0, fnorm(bump)))


def _comparable_pair(ctx: Context, rng, eps: float):
    """X in P_J and Y = X + J (PSD bump), so that X <=_J Y."""
    X = random_pj_bounded(ctx.sig, ctx.field, rng)
    bump = _psd_bump(ctx.sig, ctx.field, rng, eps)
    Y = is_j_positive(X.matrix + phi_J_inv(bump, ctx.sig), ctx.sig)
    return X, Y


# ---------------------------------------------------------------------------
# powers suite (J-exponential calculus)

def _prop_exp_noninjectivity(ctx, rng, eps):
    from scipy.linalg import expm
    two_pi = 2.0 * np.pi
    X = np.array([[0.0, two_pi * 1j], [two_pi * 1j, 0.0]])
    sig = Signature(1, 1)
    err = fnorm(expm(X) - np.eye(2))
    ok = (err <= 1e-10 and is_j_hermitian(X, sig) and fnorm(X) > 1.0)
    return TrialOutcome(ok, 1e-10 - err)


def _prop_inverse_exponential_law(ctx, rng, eps):
    X = random_jhermitian(ctx.sig, ctx.field, rng)
    X = X * (2.0 / max(1.0, fnorm(X)))
    E = exp_J(X, ctx.sig)
    j = ctx.sig.matrix_for(X)
    rhs = mat_exp_h(-(j @ X)) @ j
    err = _rel_err(mat_inverse(E.matrix), rhs)
    return TrialOutcome(err <= 1e-10, 1e-10 - err, dict(X=X))


def _prop_inverse_generic_gap(ctx, rng, eps):
    # exp_J(X)^{-1} differs from exp_J(-X) on at least 9 of 10 generic draws.
    sig = Signature(1, 1)
    hits = 0
    for _ in range(10):
        X = random_jhermitian(sig, ctx.field if ctx.field != "H" else "C", rng)
        E = exp_J(X, sig)
        gap = fnorm(mat_inverse(E.matrix) - exp_J(-X, sig).matrix)
        if gap > 1e-6:
            hits += 1
    return TrialOutcome(hits >= 9, float(hits - 9))


def _prop_kj_congruence_powers(ctx, rng, eps):
    X = random_pj_bounded(ctx.sig, ctx.field, rng)
    g = random_kj(ctx.sig, ctx.field, rng)
    worst = np.inf
    for t in (-1.0, 0.3, 0.5, 2.0):
        lhs = pow_J(is_j_positive(g @ X.matrix @ sharp(g, ctx.sig), ctx.sig), t)
        rhs = g @ pow_J(X, t).matrix @ sharp(g, ctx.sig)
        worst = min(worst, ctx.tol - _rel_err(lhs.matrix, rhs))
    return TrialOutcome(worst >= 0.0, worst, dict(X=X, g=g))


def _prop_commuting_power_factorization(ctx, rng, eps):
    S = random_pj_bounded(ctx.sig, ctx.field, rng)
    a, b = rng.uniform(-1.5, 1.5, size=2)
    X, Y = pow_J(S, a), pow_J(S, b)
    worst = np.inf
    for t in (0.5, 2.0, -1.0):
        prod = is_j_positive(bullet(X, Y, ctx.sig), ctx.sig)
        lhs = pow_J(prod, t).matrix
        rhs = bullet(pow_J(X, t), pow_J(Y, t), ctx.sig)
        worst = min(worst, ctx.tol - _rel_err(lhs, rhs))
    return TrialOutcome(worst >= 0.0, worst, dict(S=S))


# ---------------------------------------------------------------------------
# order suite

def _prop_power_monotone_unit(ctx, rng, eps):
    X, Y = _comparable_pair(ctx, rng, eps)
    scale = max(1.0, fnorm(X.matrix), fnorm(Y.matrix))
    worst = np.inf
    for t in (0.25, 0.5, 0.75, 1.0):
        v = j_leq(pow_J(X, t), pow_J(Y, t), tol=ctx.tol)
        worst = min(worst, v.margin + ctx.tol * scale)
    return TrialOutcome(worst >= 0.0, worst, dict(X=X, Y=Y))


def _prop_power_monotone_breaks_t2(ctx, rng, eps):
    # t = 2 is outside the operator-monotone range.  Perturbing the classic
    # 2x2 counterexample keeps X <=_J Y while the squares stay incomparable,
    # so every trial exhibits a genuine violation.
    sig = Signature(1, 1)
    j = sig.matrix()
    delta = 0.01 + 0.2 * float(rng.uniform())
    base = np.array([[1.0, 1.0], [1.0, 1.0]]) + delta * np.eye(2)
    bump = np.diag([0.5 + float(rng.uniform()), 0.0])
    X = is_j_positive(j @ base, sig)
    Y = is_j_positive(j @ (base + bump), sig)
    premise = j_leq(X, Y, tol=ctx.tol)
    v = j_leq(pow_J(X, 2.0), pow_J(Y, 2.0), tol=ctx.tol)
    ok = premise.holds and v.margin < -1e-6
    return TrialOutcome(ok, -v.margin, dict(X=X, Y=Y))


def _prop_order_congruence(ctx, rng, eps):
    X, Y = _comparable_pair(ctx, rng, eps)
    C = random_invertible(ctx.sig, ctx.field, rng)
    lhs = sharp(C, ctx.sig) @ X.matrix @ C
    rhs = sharp(C, ctx.sig) @ Y.matrix @ C
    v = j_leq(lhs, rhs, ctx.sig, tol=ctx.tol)
    scale = max(1.0, fnorm(lhs), fnorm(rhs))
    return TrialOutcome(v.holds, v.margin + ctx.tol * scale, dict(X=X, Y=Y, C=C))


def _prop_inverse_antimonotone(ctx, rng, eps):
    X, Y = _comparable_pair(ctx, rng, eps)
    xi = is_j_positive(mat_inverse(X.matrix), ctx.sig)
    yi = is_j_positive(mat_inverse(Y.matrix), ctx.sig)
    v = j_leq(yi, xi, tol=ctx.tol)
    scale = max(1.0, fnorm(xi.matrix), fnorm(yi.matrix))
    return TrialOutcome(v.holds, v.margin + ctx.tol * scale, dict(X=X, Y=Y))


# ---------------------------------------------------------------------------
# geometry suite

def _classical_geodesic(P, Q, t):
    rt = mat_sqrt_pd(P)
    rti = mat_inverse(rt)
    return rt @ mat_pow_pd(rti @ Q @ rti, t) @ rt


def _prop_pullback_geodesic(ctx, rng, eps):
    A = random_pj_bounded(ctx.sig, ctx.field, rng)
    B = random_pj_bounded(ctx.sig, ctx.field, rng)
    j = ctx.sig.matrix(ctx.field)
    worst = np.inf
    for t in (0.1, 0.5, 0.9):
        lhs = phi_J(geodesic(A, B, t).matrix, ctx.sig)
        rhs = _classical_geodesic(j @ A.matrix, j @ B.matrix, t)
        worst = min(worst, ctx.tol - _rel_err(lhs, rhs))
    return TrialOutcome(worst >= 0.0, worst, dict(A=A, B=B))


def _prop_metric_invariance(ctx, rng, eps):
    P = random_pj_bounded(ctx.sig, ctx.field, rng)
    U = random_jhermitian(ctx.sig, ctx.field, rng)
    V = random_jhermitian(ctx.sig, ctx.field, rng)
    g = random_invertible(ctx.sig, ctx.field, rng)
    base = metric_omega(P, U, V)
    gs = sharp(g, ctx.sig)
    moved = metric_omega(is_j_positive(g @ P.matrix @ gs, ctx.sig),
                         g @ U @ gs, g @ V @ gs)
    inv_err = abs(base - moved) / max(1.0, abs(base))
    positivity = metric_omega(P, U, U)
    ok = inv_err <= 1e-9 and positivity > 0.0
    return TrialOutcome(ok, min(1e-9 - inv_err, positivity), dict(P=P, U=U, V=V))


def _prop_segment_additivity(ctx, rng, eps):
    A = random_pj_bounded(ctx.sig, ctx.field, rng)
    B = random_pj_bounded(ctx.sig, ctx.field, rng)
    t = rng.uniform(0.1, 0.9)
    G = geodesic(A, B, t)
    total = geodesic_distance(A, B)
    err = abs(geodesic_distance(A, G) + geodesic_distance(G, B) - total)
    err /= max(1.0, total)
    return TrialOutcome(err <= 1e-8, 1e-8 - err, dict(A=A, B=B))


# ---------------------------------------------------------------------------
# means suite

def _random_pair(ctx, rng):
    return (random_pj_bounded(ctx.sig, ctx.field, rng),
            random_pj_bounded(ctx.sig, ctx.field, rng))


def _mean(A, B, t):
    return weighted_mean(A, B, t).mean


def _prop_mean_symmetry(ctx, rng, eps):
    A, B = _random_pair(ctx, rng)
    err = _rel_err(_mean(A, B, 0.5).matrix, _mean(B, A, 0.5).matrix)
    return TrialOutcome(err <= ctx.tol, ctx.tol - err, dict(A=A, B=B))


def _prop_mean_inversion(ctx, rng, eps):
    A, B = _random_pair(ctx, rng)
    lhs = mat_inverse(_mean(A, B, 0.5).matrix)
    rhs = _mean(is_j_positive(mat_inverse(A.matrix), ctx.sig),
                is_j_positive(mat_inverse(B.matrix), ctx.sig), 0.5).matrix
    err = _rel_err(lhs, rhs)
    return TrialOutcome(err <= ctx.tol, ctx.tol - err, dict(A=A, B=B))


def _prop_mean_idempotence(ctx, rng, eps):
    A = random_pj_bounded(ctx.sig, ctx.field, rng)
    t = rng.uniform(0.2, 0.8)
    same_err = _rel_err(_mean(A, A, t).matrix, A.matrix)
    bump = phi_J_inv(_psd_bump(ctx.sig, ctx.field, rng, max(eps, 1e-4)), ctx.sig)
    B = is_j_positive(A.matrix + bump, ctx.sig)
    moved = fnorm(_mean(A, B, t).matrix - A.matrix)
    ok = same_err <= ctx.tol and moved > 1e-8
    return TrialOutcome(ok, min(ctx.tol - same_err, moved - 1e-8), dict(A=A, B=B))


def _prop_mean_scaling(ctx, rng, eps):
    A, B = _random_pair(ctx, rng)
    t = rng.uniform(0.1, 0.9)
    base = _mean(A, B, t).matrix
    worst = np.inf
    for alpha in (0.5, 2.0, 3.0):
        for beta in (0.5, 2.0, 3.0):
            lhs = _mean(is_j_positive(alpha * A.matrix, ctx.sig),
                        is_j_positive(beta * B.matrix, ctx.sig), t).matrix
            rhs = (alpha ** (1.0 - t)) * (beta ** t) * base
            worst = min(worst, ctx.tol - _rel_err(lhs, rhs))
    return TrialOutcome(worst >= 0.0, worst, dict(A=A, B=B))


def _prop_mean_time_reversal(ctx, rng, eps):
    A, B = _random_pair(ctx, rng)
    t = rng.uniform(0.0, 1.0)
    err = _rel_err(_mean(A, B, t).matrix, _mean(B, A, 1.0 - t).matrix)
    return TrialOutcome(err <= ctx.tol, ctx.tol - err, dict(A=A, B=B))


def _prop_mean_monotonicity(ctx, rng, eps):
    A, C = _comparable_pair(ctx, rng, eps)
    B, D = _comparable_pair(ctx, rng, eps)
    t = rng.uniform(0.1, 0.9)
    lhs = _mean(A, B, t)
    rhs = _mean(C, D, t)
    v = j_leq(lhs, rhs, tol=ctx.tol)
    scale = max(1.0, fnorm(lhs.matrix), fnorm(rhs.matrix))
    return TrialOutcome(v.holds, v.margin + ctx.tol * scale,
                        dict(A=A, B=B, C=C, D=D))


def _prop_mean_kj_congruence(ctx, rng, eps):
    A, B = _random_pair(ctx, rng)
    g = random_kj(ctx.sig, ctx.field, rng)
    gs = sharp(g, ctx.sig)
    t = rng.uniform(0.1, 0.9)
    lhs = _mean(is_j_positive(g @ A.matrix @ gs, ctx.sig),
                is_j_positive(g @ B.matrix @ gs, ctx.sig), t).matrix
    rhs = g @ _mean(A, B, t).matrix @ gs
    err = _rel_err(lhs, rhs)
    return TrialOutcome(err <= ctx.tol, ctx.tol - err, dict(A=A, B=B, g=g))


def _prop_mean_joint_concavity(ctx, rng, eps):
    A, C = _random_pair(ctx, rng)
    B, D = _random_pair(ctx, rng)
    s = rng.uniform(0.1, 0.9)
    t = rng.uniform(0.1, 0.9)
    lhs = (1.0 - s) * _mean(A, C, t).matrix + s * _mean(B, D, t).matrix
    mixed1 = is_j_positive((1.0 - s) * A.matrix + s * B.matrix, ctx.sig)
    mixed2 = is_j_positive((1.0 - s) * C.matrix + s * D.matrix, ctx.sig)
    rhs = _mean(mixed1, mixed2, t).matrix
    v = j_leq(lhs, rhs, ctx.sig, tol=ctx.tol)
    scale = max(1.0, fnorm(lhs), fnorm(rhs))
    return TrialOutcome(v.holds, v.margin + ctx.tol * scale,
                        dict(A=A, B=B, C=C, D=D))


def _prop_mean_composition(ctx, rng, eps):
    A, B = _random_pair(ctx, rng)
    t, s, u = rng.uniform(0.1, 0.9, size=3)
    lhs = _mean(_mean(A, B, t), _mean(A, B, s), u).matrix
    rhs = _mean(A, B, (1.0 - u) * t + u * s).matrix
    err = _rel_err(lhs, rhs)
    return TrialOutcome(err <= ctx.tol, ctx.tol - err, dict(A=A, B=B))


def _prop_mean_agm_sandwich(ctx, rng, eps):
    A, B = _random_pair(ctx, rng)
    t = rng.uniform(0.1, 0.9)
    geo = _mean(A, B, t)
    har = harmonic_mean_J(A, B, t)
    ari = arithmetic_mean_J(A, B, t)
    lower = j_leq(har, geo, tol=ctx.tol)
    upper = j_leq(geo, ari, tol=ctx.tol)
    scale = max(1.0, fnorm(ari.matrix))
    worst = min(lower.margin, upper.margin) + ctx.tol * scale
    return TrialOutcome(lower.holds and upper.holds, worst, dict(A=A, B=B))


def _prop_mean_pullback_oracle(ctx, rng, eps):
    A, B = _random_pair(ctx, rng)
    j = ctx.sig.matrix(ctx.field)
    worst = np.inf
    for t in (0.1, 0.5, 0.9):
        lhs = phi_J(_mean(A, B, t).matrix, ctx.sig)
        rhs = _classical_geodesic(j @ A.matrix, j @ B.matrix, t)
        worst = min(worst, ctx.tol - _rel_err(lhs, rhs))
    return TrialOutcome(worst >= 0.0, worst, dict(A=A, B=B))


NONCOMMUTING_DIFF = np.array([[0.263207, 0.768429], [-0.857469, -2.50336]])


def _prop_noncommuting_witness(ctx, rng, eps):
    sig = Signature(1, 1)
    A = is_j_positive(np.array([[2.0, 1.0], [-1.0, -2.0]]), sig)
    B = is_j_positive(np.array([[3.0, 1.0], [-1.0, -1.0]]), sig)
    diff = _mean(A, B, 0.5).matrix - pow_J(A, 0.5).matrix @ pow_J(B, 0.5).matrix
    err = float(np.max(np.abs(diff - NONCOMMUTING_DIFF)))
    return TrialOutcome(err <= 5e-4, 5e-4 - err)


# ---------------------------------------------------------------------------
# inequalities suite

def _prop_ando_hiai(ctx, rng, eps):
    # Tight spread keeps the cubed arguments well away from the cone boundary.
    A = random_pj_bounded(ctx.sig, ctx.field, rng, radius=1.0)
    B = random_pj_bounded(ctx.sig, ctx.field, rng, radius=1.0)
    t = rng.uniform(0.2, 0.8)
    A, B = ando_hiai_normalize(A, B, t)
    worst = np.inf
    ok = True
    for r in (1.0, 1.5, 2.0, 3.0):
        v = ando_hiai_check(A, B, t, r, tol=ctx.tol)
        ok = ok and v.holds and not v.vacuous
        worst = min(worst, v.conclusion_margin + ctx.tol)
    return TrialOutcome(ok, worst, dict(A=A, B=B))


def _prop_furuta(ctx, rng, eps):
    B = random_pj_bounded(ctx.sig, ctx.field, rng)
    bump = _psd_bump(ctx.sig, ctx.field, rng, eps)
    A = is_j_positive(B.matrix + phi_J_inv(bump, ctx.sig), ctx.sig)
    worst = np.inf
    ok = True
    for p_exp in (0.0, 1.0, 2.0):
        for r in (1.0, 2.0, 3.0):
            v = furuta_check(A, B, p_exp, r, tol=ctx.tol)
            scale = max(1.0, fnorm(A.matrix) ** r)
            ok = ok and v.holds
            worst = min(worst, v.margin + ctx.tol * scale)
    return TrialOutcome(ok, worst, dict(A=A, B=B))


def _prop_maximality(ctx, rng, eps):
    # The mid-mean is the maximum of {X J-Hermitian : [[JA,JX],[JX,JB]] >= 0}:
    # it is feasible with zero margin, every feasible X lies <=_J below it,
    # and nothing strictly above it is feasible.
    A, B = _random_pair(ctx, rng)
    M = _mean(A, B, 0.5)
    bump = phi_J_inv(_psd_bump(ctx.sig, ctx.field, rng, max(eps * 0.1, 1e-3)),
                     ctx.sig)
    at_max = maximality_check(M.matrix, A, B, tol=ctx.tol)
    above = maximality_check(M.matrix + bump, A, B, tol=1e-12)
    above_order = j_leq(M.matrix + bump, M.matrix, ctx.sig, tol=1e-12)
    ok = at_max.holds and not above.holds and not above_order.holds
    for c in (-0.9, 0.0, 0.5, 0.9):
        scaled = maximality_check(c * M.matrix, A, B, tol=ctx.tol)
        dominated = j_leq(c * M.matrix, M.matrix, ctx.sig, tol=ctx.tol)
        ok = ok and scaled.holds and dominated.holds
    # Soundness near the maximum: feasibility implies domination.
    X = M.matrix + eps * 0.05 * random_jhermitian(ctx.sig, ctx.field, rng)
    feas = maximality_check(X, A, B, tol=1e-12)
    dom = j_leq(X, M.matrix, ctx.sig, tol=1e-12)
    scale = max(1.0, fnorm(M.matrix))
    if abs(feas.margin) > 1e-9 * scale:
        ok = ok and ((not feas.holds) or dom.holds)
    return TrialOutcome(ok, min(at_max.margin + ctx.tol, -above.margin),
                        dict(A=A, B=B))


# ---------------------------------------------------------------------------
# quaternion suite

def _prop_psi_homomorphism(ctx, rng, eps):
    n = ctx.sig.n
    X, Y = _random_matrix(n, "H", rng), _random_matrix(n, "H", rng)
    e1 = np.linalg.norm(psi_matrix(X @ Y) - psi_matrix(X) @ psi_matrix(Y))
    e2 = np.linalg.norm(psi_matrix(X.H) - psi_matrix(X).conj().T)
    e3 = np.linalg.norm(psi_matrix(mat_inverse(X)) - np.linalg.inv(psi_matrix(X)))
    scale = max(1.0, np.linalg.norm(psi_matrix(X)) * np.linalg.norm(psi_matrix(Y)))
    err = max(e1, e2, e3) / scale
    return TrialOutcome(err <= 1e-9, 1e-9 - err, dict(X=X, Y=Y))


def _prop_trd_cyclicity(ctx, rng, eps):
    n = ctx.sig.n
    X, Y = _random_matrix(n, "H", rng), _random_matrix(n, "H", rng)
    err = abs(trd(X @ Y) - trd(Y @ X)) / max(1.0, fnorm(X) * fnorm(Y))
    return TrialOutcome(err <= 1e-12, 1e-12 - err, dict(X=X, Y=Y))


def _prop_quat_spectral(ctx, rng, eps):
    n = ctx.sig.n
    Y = _random_matrix(n, "H", rng)
    X = (Y + Y.H) * 0.5
    dec = hermitian_eig(X)
    recon = _rel_err(dec.reconstruct(), X)
    U = dec.unitary
    unit = fnorm(U.H @ U - identity(n, "H"))
    ok = recon <= 1e-9 and unit <= 1e-9
    return TrialOutcome(ok, 1e-9 - max(recon, unit), dict(X=X))


def _prop_quat_exp_log(ctx, rng, eps):
    n = ctx.sig.n
    Y = _random_matrix(n, "H", rng)
    H = (Y + Y.H) * 0.5
    H = H * (3.0 / max(1.0, fnorm(H)))
    err = _rel_err(mat_log_pd(mat_exp_h(H)), H)
    return TrialOutcome(err <= 1e-9, 1e-9 - err, dict(H=H))


def _prop_quat_functional_calculus(ctx, rng, eps):
    n = ctx.sig.n
    Y = _random_matrix(n, "H", rng)
    H = (Y + Y.H) * 0.5
    H = H * (2.0 / max(1.0, fnorm(H)))
    worst = np.inf
    P = mat_exp_h(H)
    for f in (np.exp, np.log, np.sqrt, lambda w: np.power(w, 0.7)):
        lhs = psi_matrix(matrix_function(P, f))
        rhs = matrix_function(psi_matrix(P), f)
        worst = min(worst, 1e-9 - _rel_err(lhs, rhs))
    return TrialOutcome(worst >= 0.0, worst, dict(H=H))


def _prop_quat_image_structure(ctx, rng, eps):
    n = ctx.sig.n
    Y = _random_matrix(n, "H", rng)
    H = (Y + Y.H) * 0.5
    H = H * (2.0 / max(1.0, fnorm(H)))
    P = psi_matrix(mat_exp_h(H))
    worst = np.inf
    for f in (np.exp, np.log, lambda w: 1.0 / w, lambda w: np.power(w, 0.3)):
        M = matrix_function(P, f)
        res = psi_structural_residual(M) / max(1.0, np.linalg.norm(M))
        worst = min(worst, 1e-10 - res)
    return TrialOutcome(worst >= 0.0, worst, dict(H=H))


# ---------------------------------------------------------------------------
# registry and runner

REGISTRY = [
    PropertySpec("powers.exp_noninjectivity", ("powers",), _prop_exp_noninjectivity),
    PropertySpec("powers.inverse_exponential_law", ("powers",), _prop_inverse_exponential_law),
    PropertySpec("powers.inverse_generic_gap", ("powers",), _prop_inverse_generic_gap),
    PropertySpec("powers.kj_congruence", ("powers",), _prop_kj_congruence_powers),
    PropertySpec("powers.commuting_factorization", ("powers",), _prop_commuting_power_factorization),
    PropertySpec("order.power_monotone_unit", ("order",), _prop_power_monotone_unit),
    PropertySpec("order.power_monotone_breaks_t2", ("order",), _prop_power_monotone_breaks_t2),
    PropertySpec("order.congruence", ("order",), _prop_order_congruence),
    PropertySpec("order.inverse_antimonotone", ("order",), _prop_inverse_antimonotone),
    PropertySpec("geometry.pullback_geodesic", ("geometry",), _prop_pullback_geodesic),
    PropertySpec("geometry.metric_invariance", ("geometry",), _prop_metric_invariance),
    PropertySpec("geometry.segment_additivity", ("geometry",), _prop_segment_additivity),
    PropertySpec("means.symmetry", ("means",), _prop_mean_symmetry),
    PropertySpec("means.inversion", ("means",), _prop_mean_inversion),
    PropertySpec("means.idempotence", ("means",), _prop_mean_idempotence),
    PropertySpec("means.scaling", ("means",), _prop_mean_scaling),
    PropertySpec("means.time_reversal", ("means",), _prop_mean_time_reversal),
    PropertySpec("means.monotonicity", ("means",), _prop_mean_monotonicity),
    PropertySpec("means.kj_congruence", ("means",), _prop_mean_kj_congruence),
    PropertySpec("means.joint_concavity", ("means",), _prop_mean_joint_concavity),
    PropertySpec("means.composition", ("means",), _prop_mean_composition),
    PropertySpec("means.agm_sandwich", ("means",), _prop_mean_agm_sandwich),
    PropertySpec("means.pullback_oracle", ("means",), _prop_mean_pullback_oracle),
    PropertySpec("means.noncommuting_witness", ("means",), _prop_noncommuting_witness),
    PropertySpec("ineq.ando_hiai", ("inequalities",), _prop_ando_hiai),
    PropertySpec("ineq.furuta", ("inequalities",), _prop_furuta),
    PropertySpec("ineq.maximality", ("inequalities",), _prop_maximality),
    PropertySpec("quat.psi_homomorphism", ("quaternion",), _prop_psi_homomorphism),
    PropertySpec("quat.trd_cyclicity", ("quaternion",), _prop_trd_cyclicity),
    PropertySpec("quat.spectral_reconstruction", ("quaternion",), _prop_quat_spectral),
    PropertySpec("quat.exp_log_roundtrip", ("quaternion",), _prop_quat_exp_log),
    PropertySpec("quat.functional_calculus", ("quaternion",), _prop_quat_functional_calculus),
    PropertySpec("quat.image_structure", ("quaternion",), _prop_quat_image_structure),
]

REGISTRY_BY_ID = {spec.property_id: spec for spec in REGISTRY}


def _trial_rng(seed: int, property_id: str, trial: int) -> np.random.Generator:
    return np.random.default_rng((int(seed), zlib.crc32(property_id.encode()), trial))


def run_property(spec: PropertySpec, ctx: Context, trials: int, seed: int) -> PropertyReport:
    failures = 0
    worst = np.inf
    counterexample = None
    for trial in range(trials):
        outcome = spec.func(ctx, _trial_rng(seed, spec.property_id, trial), 1.0)
        if not outcome.ok:
            failures += 1
            counterexample = _shrink(spec, ctx, seed, trial, outcome)
        worst = min(worst, outcome.margin)
    if trials == 0:
        worst = 0.0
    return PropertyReport(spec.property_id, trials, failures, float(worst),
                          int(seed), counterexample)


def _shrink(spec: PropertySpec, ctx: Context, seed: int, trial: int,
            first: TrialOutcome) -> dict:
    last_failing = first
    eps = 1.0
    for _ in range(16):
        eps *= 0.5
        outcome = spec.func(ctx, _trial_rng(seed, spec.property_id, trial), eps)
        if outcome.ok:
            break
        last_failing = outcome
    witness = {name: _payload(m) for name, m in (last_failing.witness or {}).items()}
    return {"trial": trial, "margin": last_failing.margin, "inputs": witness}


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
