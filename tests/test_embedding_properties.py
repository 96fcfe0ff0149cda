"""Properties of the embedding Psi and of block assembly, drawn by hypothesis.

A quaternionic matrix is stored as its embedding Psi(A + B*j) =
[[A, B], [-conj(B), conj(A)]].  Psi and block2x2 are written block by block
into one preallocated array, and the reference is numpy.block on the same
blocks, compared bit for bit.  Every operation on quaternionic matrices
leaves the stored array exactly in the image of Psi and agrees with the
formulas on the pair (A, B).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from jcone.matcore import (QMatrix, block2x2, fnorm, psi_inverse, psi_matrix,
                           psi_structural_residual, trd)

# Derandomized and without an example database: the same draws on every run.
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Entries whose sums and products stay finite, for the arithmetic properties.
MODERATE = st.floats(-1e100, 1e100)


def _real(shape, elements=FINITE):
    return arrays(np.float64, shape, elements=elements)


@st.composite
def _matrix(draw, shape, field, elements=FINITE):
    """A matrix of the given shape over R, C or H with finite parts."""
    parts = [draw(_real(shape, elements)) for _ in range({"R": 1, "C": 2, "H": 4}[field])]
    if field == "R":
        return parts[0]
    z = parts[0] + 1j * parts[1]
    return z if field == "C" else QMatrix(z, parts[2] + 1j * parts[3])


@st.composite
def _quaternionic(draw):
    n = draw(st.integers(1, 6))
    return draw(_matrix((n, n), "H"))


def _same_bits(X, Y) -> bool:
    return X.dtype == Y.dtype and X.shape == Y.shape and X.tobytes() == Y.tobytes()


@PROPERTY
@given(_quaternionic())
def test_psi_matrix_is_the_block_layout(X):
    expected = np.block([[X.a, X.b], [-np.conj(X.b), np.conj(X.a)]])
    assert _same_bits(psi_matrix(X), expected)


@PROPERTY
@given(_quaternionic())
def test_psi_inverse_returns_the_matrix(X):
    Y = psi_inverse(psi_matrix(X))
    assert _same_bits(Y.a, X.a) and _same_bits(Y.b, X.b)


@st.composite
def _blocks(draw):
    """Four conforming blocks [[P, Q], [R, S]] over one drawn field."""
    field = draw(st.sampled_from("RCH"))
    r, c, r2, c2 = (draw(st.integers(1, 4)) for _ in range(4))
    return tuple(draw(_matrix(shape, field))
                 for shape in ((r, c), (r, c2), (r2, c), (r2, c2)))


@PROPERTY
@given(_blocks())
def test_block2x2_is_the_block_layout(blocks):
    P, Q, R, S = blocks
    out = block2x2(P, Q, R, S)
    if isinstance(P, QMatrix):
        assert _same_bits(out.a, np.block([[P.a, Q.a], [R.a, S.a]]))
        assert _same_bits(out.b, np.block([[P.b, Q.b], [R.b, S.b]]))
        assert psi_structural_residual(psi_matrix(out)) == 0.0
    else:
        assert _same_bits(out, np.block([[P, Q], [R, S]]))


@st.composite
def _operands(draw):
    """X and Y (n x n) and Z (n x m) over H, a real s and a nonempty slice
    (rows i0:i1, columns j0:j1) of an n x n matrix."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    X, Y = (draw(_matrix((n, n), "H", MODERATE)) for _ in range(2))
    Z = draw(_matrix((n, m), "H", MODERATE))
    s = draw(MODERATE)
    i0, j0 = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    i1, j1 = draw(st.integers(i0 + 1, n)), draw(st.integers(j0 + 1, n))
    return X, Y, Z, s, (slice(i0, i1), slice(j0, j1))


def _results(X, Y, Z, s, key):
    """Each operation on QMatrix, with what the formulas on (A, B) give."""
    (a1, b1), (a2, b2), (az, bz) = (X.a, X.b), (Y.a, Y.b), (Z.a, Z.b)
    W = QMatrix(a1, b1)
    W[key] = Y[key]
    wa, wb = a1.copy(), b1.copy()
    wa[key], wb[key] = a2[key], b2[key]
    return {
        "add": (X + Y, a1 + a2, b1 + b2),
        "sub": (X - Y, a1 - a2, b1 - b2),
        "neg": (-X, -a1, -b1),
        "scale": (s * X, s * a1, s * b1),
        "matmul": (X @ Z, a1 @ az - b1 @ np.conj(bz), a1 @ bz + b1 @ np.conj(az)),
        "adjoint": (X.H, a1.conj().T, -b1.T),
        "slice": (X[key], a1[key], b1[key]),
        "slice_assignment": (W, wa, wb),
    }


@PROPERTY
@given(_operands())
def test_operations_stay_in_the_image(operands):
    for name, (out, _, _) in _results(*operands).items():
        assert psi_structural_residual(psi_matrix(out)) == 0.0, name


@PROPERTY
@given(_operands())
def test_operations_match_the_pair_formulas(operands):
    X, _, Z = operands[:3]
    for name, (out, a, b) in _results(*operands).items():
        ref = QMatrix(a, b)
        # Only the product rounds differently: one sum of 2n terms per entry
        # against two sums of n.
        scale = fnorm(X) * fnorm(Z) if name == "matmul" else fnorm(ref)
        assert fnorm(out - ref) <= 1e-15 * scale, name


@PROPERTY
@given(_quaternionic())
def test_components_are_the_top_blocks(X):
    n = X.shape[0]
    M = psi_matrix(X)
    assert _same_bits(X.a, M[:n, :n]) and _same_bits(X.b, M[:n, n:])
    assert _same_bits(QMatrix(X.a, X.b).a, X.a) and _same_bits(QMatrix(X.a, X.b).b, X.b)


@PROPERTY
@given(st.sampled_from("RCH").flatmap(
    lambda f: st.integers(1, 4).flatmap(lambda n: _matrix((n, n), f, MODERATE))))
def test_fnorm_and_trd_are_python_floats(X):
    assert type(fnorm(X)) is float and type(trd(X)) is float
