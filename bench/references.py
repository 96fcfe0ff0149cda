"""Independent references for checking jcone's outputs, built on numpy/scipy only.

All functions take embedded matrices (see inputs.py) and the embedded
signature diagonal jd.  Over H the quaternionic Frobenius norm is 1/sqrt(2)
of the Psi norm, so the distance reference divides by sqrt(2); relative
errors of matrices are the same in either norm.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

EPS = np.finfo(float).eps


def _flip(jd: np.ndarray, m: np.ndarray) -> np.ndarray:
    return jd[:, None] * m


def spectrum(a, b, jd):
    """w and V = JA W, where JB W = JA W diag(w) and W* JA W = Id."""
    w, vecs = scipy.linalg.eigh(_flip(jd, b), _flip(jd, a))
    return w, _flip(jd, a) @ vecs


def mean(a, b, jd, t: float, spec=None) -> np.ndarray:
    """A #_t B = J V diag(w^t) V*; spec is spectrum(a, b, jd) if already known."""
    w, v = spec if spec is not None else spectrum(a, b, jd)
    return _flip(jd, (v * w ** t) @ v.conj().T)


def distance(a, b, jd, field: str, spec=None) -> float:
    """(sum log^2 w_i)^{1/2}, halved in square over H where each w_i is doubled."""
    w = (spec if spec is not None else spectrum(a, b, jd))[0]
    d = float(np.sqrt(np.sum(np.log(w) ** 2)))
    return d / np.sqrt(2.0) if field == "H" else d


def power(x, jd, t: float, eig=None) -> np.ndarray:
    """X^t_J = J (JX)^t; eig is numpy.linalg.eigh(JX) if already known."""
    w, u = eig if eig is not None else np.linalg.eigh(_flip(jd, x))
    return _flip(jd, (u * w ** t) @ u.conj().T)


def lambda_min(x, jd) -> float:
    return float(np.linalg.eigvalsh(_flip(jd, x))[0])


def riccati_residual(x, a, b) -> float:
    """||X A^{-1} X - B|| / ||B||."""
    return float(np.linalg.norm(x @ np.linalg.solve(a, x) - b) / np.linalg.norm(b))


def rel_err(x, ref) -> float:
    x, ref = np.asarray(x), np.asarray(ref)
    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))


def digits(err: float) -> float:
    """-log10 of a relative error, floored at machine epsilon."""
    return float(-np.log10(max(err, EPS)))


def self_check() -> None:
    """Validate the references on closed forms; raises AssertionError on a mismatch.

    diag(2,-3) # diag(8,-27) = diag(4,-9) for J = diag(1,-1), at distance
    sqrt(ln^2 4 + ln^2 9); over H the same matrices embed as diag(2,-3,2,-3).
    """
    tol = 64 * EPS
    want_d = np.sqrt(np.log(4.0) ** 2 + np.log(9.0) ** 2)
    for field, reps in (("R", 1), ("C", 1), ("H", 2)):
        dtype = float if field == "R" else complex
        jd = np.tile([1.0, -1.0], reps)
        a = np.diag(np.tile([2.0, -3.0], reps)).astype(dtype)
        b = np.diag(np.tile([8.0, -27.0], reps)).astype(dtype)
        m = np.diag(np.tile([4.0, -9.0], reps)).astype(dtype)
        checks = {
            "mean": rel_err(mean(a, b, jd, 0.5), m),
            "distance": abs(distance(a, b, jd, field) - want_d) / want_d,
            "power": rel_err(power(a, jd, 0.5),
                             np.diag(np.tile([np.sqrt(2.0), -np.sqrt(3.0)], reps))),
            "lambda_min": abs(lambda_min(a, jd) - 2.0) / 2.0,
            "riccati": riccati_residual(m, a, b),
        }
        bad = {k: v for k, v in checks.items() if not v <= tol}
        if bad:
            raise AssertionError(f"reference self-check failed over {field}: {bad}")
