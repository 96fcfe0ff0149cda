"""Properties of the embedding Psi and of block assembly, drawn by hypothesis.

Both are written block by block into one preallocated array; the reference
is numpy.block on the same blocks, and the comparison is bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from jcone.matcore import QMatrix, block2x2, psi_inverse, psi_matrix

# Derandomized and without an example database: the same draws on every run.
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _real(shape):
    return arrays(np.float64, shape, elements=FINITE)


@st.composite
def _matrix(draw, shape, field):
    """A matrix of the given shape over R, C or H with arbitrary finite parts."""
    parts = [draw(_real(shape)) for _ in range({"R": 1, "C": 2, "H": 4}[field])]
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
    else:
        assert _same_bits(out, np.block([[P, Q], [R, S]]))
