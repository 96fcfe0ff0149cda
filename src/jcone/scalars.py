"""Scalar arithmetic for the three division algebras R, C and H.

Real and complex scalars are plain Python/numpy numbers.  Quaternions get a
small immutable class with conjugation, norm, reduced trace and the embedding
into 2x2 complex matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FIELDS = ("R", "C", "H")


@dataclass(frozen=True)
class Quaternion:
    """A quaternion a + b*i + c*j + d*k with real coefficients."""

    a: float
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0

    def __add__(self, other: "Quaternion") -> "Quaternion":
        other = _as_quat(other)
        return Quaternion(self.a + other.a, self.b + other.b,
                          self.c + other.c, self.d + other.d)

    __radd__ = __add__

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.a, -self.b, -self.c, -self.d)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return self + (-_as_quat(other))

    def __mul__(self, other) -> "Quaternion":
        p, q = self, _as_quat(other)
        return Quaternion(
            p.a * q.a - p.b * q.b - p.c * q.c - p.d * q.d,
            p.a * q.b + p.b * q.a + p.c * q.d - p.d * q.c,
            p.a * q.c - p.b * q.d + p.c * q.a + p.d * q.b,
            p.a * q.d + p.b * q.c - p.c * q.b + p.d * q.a,
        )

    def __rmul__(self, other) -> "Quaternion":
        return _as_quat(other) * self

    def conj(self) -> "Quaternion":
        return Quaternion(self.a, -self.b, -self.c, -self.d)

    def norm(self) -> float:
        return float(np.sqrt(self.a ** 2 + self.b ** 2 + self.c ** 2 + self.d ** 2))

    @property
    def real(self) -> float:
        return self.a

    def imag_norm(self) -> float:
        return float(np.sqrt(self.b ** 2 + self.c ** 2 + self.d ** 2))

    def as_complex_pair(self) -> tuple[complex, complex]:
        """Split as z1 + z2*j with z1 = a + b*i and z2 = c + d*i."""
        return complex(self.a, self.b), complex(self.c, self.d)

    @staticmethod
    def from_complex_pair(z1: complex, z2: complex) -> "Quaternion":
        return Quaternion(z1.real, z1.imag, z2.real, z2.imag)

    def isclose(self, other: "Quaternion", tol: float = 1e-12) -> bool:
        scale = max(1.0, self.norm(), _as_quat(other).norm())
        diff = self - other
        return diff.norm() <= tol * scale


QUAT_ONE = Quaternion(1.0)
QUAT_I = Quaternion(0.0, 1.0)
QUAT_J = Quaternion(0.0, 0.0, 1.0)
QUAT_K = Quaternion(0.0, 0.0, 0.0, 1.0)


def _as_quat(x) -> Quaternion:
    if isinstance(x, Quaternion):
        return x
    if isinstance(x, complex):
        return Quaternion(x.real, x.imag)
    return Quaternion(float(x))


def quat_mul(p: Quaternion, q: Quaternion) -> Quaternion:
    return _as_quat(p) * _as_quat(q)


def quat_conj(q: Quaternion) -> Quaternion:
    return _as_quat(q).conj()


def quat_norm(q: Quaternion) -> float:
    return _as_quat(q).norm()


def trd_scalar(q: Quaternion) -> float:
    """Reduced trace of a quaternion: its real part, (q + conj(q)) / 2."""
    return _as_quat(q).real


def psi_scalar(q: Quaternion) -> np.ndarray:
    """Embed a quaternion z1 + z2*j as [[z1, z2], [-conj(z2), conj(z1)]]."""
    z1, z2 = _as_quat(q).as_complex_pair()
    return np.array([[z1, z2], [-np.conj(z2), np.conj(z1)]], dtype=complex)


def psi_scalar_inverse(m: np.ndarray, tol: float = 1e-10) -> Quaternion:
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError("expected a 2x2 complex matrix")
    candidate = Quaternion.from_complex_pair(complex(m[0, 0]), complex(m[0, 1]))
    if np.linalg.norm(psi_scalar(candidate) - m) > tol * max(1.0, np.linalg.norm(m)):
        raise ValueError("matrix is not in the image of the quaternion embedding")
    return candidate
