"""Seeded benchmark inputs, built with numpy alone.

Every cone input is X = J exp(H) with H a random Hermitian matrix of
Frobenius norm 2, so that cond(JX) <= e^4.  Matrices are held in their
embedded form: a real or complex ndarray over R and C, and over H the
complex image Psi(A + Bj) = [[A, B], [-conj(B), conj(A)]], whose signature
is J2 = diag(d, d).  The quaternionic Frobenius norm is the norm of the
Psi image divided by sqrt(2).
"""

from __future__ import annotations

import numpy as np

FIELDS = ("R", "C", "H")


def signature_diag(p: int, q: int) -> np.ndarray:
    return np.concatenate([np.ones(p), -np.ones(q)])


def embedded_diag(d: np.ndarray, field: str) -> np.ndarray:
    """Diagonal of J in the embedded space: d, or (d, d) over H."""
    return np.concatenate([d, d]) if field == "H" else d


def psi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.block([[a, b], [-b.conj(), a.conj()]])


def psi_parts(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pair (A, B) of a Psi image, projected onto the image."""
    n = m.shape[0] // 2
    a = 0.5 * (m[:n, :n] + m[n:, n:].conj())
    b = 0.5 * (m[:n, n:] - m[n:, :n].conj())
    return a, b


def _gaussian(shape, rng, cplx: bool) -> np.ndarray:
    x = rng.standard_normal(shape)
    return x + 1j * rng.standard_normal(shape) if cplx else x


def hermitian(n: int, field: str, rng: np.random.Generator,
              norm: float) -> np.ndarray:
    """Random Hermitian matrix of the given field Frobenius norm, embedded."""
    if field == "H":
        y = psi(_gaussian((n, n), rng, True), _gaussian((n, n), rng, True))
        scale = np.sqrt(2.0)
    else:
        y = _gaussian((n, n), rng, field == "C")
        scale = 1.0
    h = 0.5 * (y + y.conj().T)
    return h * (norm * scale / np.linalg.norm(h))


def exp_hermitian(h: np.ndarray, field: str) -> np.ndarray:
    w, u = np.linalg.eigh(h)
    e = (u * np.exp(w)) @ u.conj().T
    e = 0.5 * (e + e.conj().T)
    if field == "H":
        e = psi(*psi_parts(e))
    return e.real if field == "R" else e


def cone_element(d: np.ndarray, field: str, rng: np.random.Generator,
                 norm: float = 2.0) -> np.ndarray:
    """Embedded X = J exp(H), ||H||_F = norm; the sign flip keeps X exactly J-Hermitian."""
    e = exp_hermitian(hermitian(len(d), field, rng, norm), field)
    return embedded_diag(d, field)[:, None] * e


def positive_definite(n: int, field: str, rng: np.random.Generator) -> np.ndarray:
    """Embedded S = exp(G), ||G||_F = 0.4, so the spectrum of S lies in [0.67, 1.5]."""
    return exp_hermitian(hermitian(n, field, rng, 0.4), field)


def payload(m: np.ndarray, field: str) -> dict:
    """The jcone matrix-file payload of an embedded matrix."""
    if field == "H":
        a, b = psi_parts(m)
        data = [[[x.real, x.imag, y.real, y.imag] for x, y in zip(ra, rb)]
                for ra, rb in zip(a.tolist(), b.tolist())]
    elif field == "C":
        data = [[[x.real, x.imag] for x in row] for row in m.tolist()]
    else:
        data = m.tolist()
    rows = len(data)
    return {"cols": rows, "data": data, "field": field, "rows": rows}


def from_payload(obj: dict) -> np.ndarray:
    """Embedded matrix of a jcone matrix-file payload."""
    data, field = obj["data"], obj["field"]
    if field == "R":
        return np.array(data, dtype=float)
    arr = np.array(data, dtype=float)
    if field == "C":
        return arr[..., 0] + 1j * arr[..., 1]
    return psi(arr[..., 0] + 1j * arr[..., 1], arr[..., 2] + 1j * arr[..., 3])
