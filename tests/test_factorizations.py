"""Cubic-cost factorizations and sign flips per cone operation, and the Psi
boundary.

The counts do not depend on the machine, the seed or the size, so they pin
the work each operation does: a change that adds a factorization, or swaps
one routine for another, fails here.
"""

from collections import Counter

import numpy as np
import pytest

import jcone.matcore
from jcone.geometry import geodesic, geodesic_distance, metric_omega
from jcone.jcalc import (bullet_inverse, exp_J, log_J, polar_decompose_bullet,
                         pow_J, random_kj, random_pj, random_pj_bounded)
from jcone.jstruct import Signature, block_decompose, is_j_positive, schur_j_positive
from jcone.matcore import hermitian_eig, negate_rows, psi_matrix
from jcone.means import (arithmetic_mean_J, harmonic_mean_J, maximality_check,
                         riccati_residual, weighted_mean)
from jcone.order import j_leq
from jcone.scalars import Quaternion

ROUTINES = ("eigh", "eigvalsh", "svd", "inv", "cholesky", "solve")
SIG = Signature(2, 1)

# The pencil (JA, JB) is one cholesky of JA and the inv of its factor.  A
# mean or geodesic point adds one eigh of the pencil and one cholesky of the
# result's JX, its certificate.
PENCIL = {"cholesky": 1, "inv": 1}
MEAN = {"cholesky": 2, "inv": 1, "eigh": 1}

# Operation -> (call on a pair of cone elements, numpy.linalg calls by routine).
OPERATIONS = {
    "weighted_mean_t0.5": (lambda A, B: weighted_mean(A, B, 0.5), MEAN),
    "weighted_mean_t0.3": (lambda A, B: weighted_mean(A, B, 0.3), MEAN),
    "geodesic_t0.3": (lambda A, B: geodesic(A, B, 0.3), MEAN),
    "geodesic_distance": (geodesic_distance, {**PENCIL, "eigvalsh": 1}),
    "riccati_residual": (lambda A, B: riccati_residual(B, A, B), PENCIL),
    "metric_omega": (lambda A, B: metric_omega(A, A.matrix, A.matrix - B.matrix), PENCIL),
    "polar_decompose_bullet": (lambda A, B: polar_decompose_bullet(A.matrix, SIG), {"svd": 1}),
    "pow_J": (lambda A, B: pow_J(A, 0.7), {"eigh": 1}),
    "exp_J": (lambda A, B: exp_J(A.matrix - B.matrix, SIG), {"eigh": 1}),
    "log_J": (lambda A, B: log_J(A), {"eigh": 1}),
    "arithmetic_mean_J": (lambda A, B: arithmetic_mean_J(A, B, 0.3), {"cholesky": 1}),
    "harmonic_mean_J_t0.3": (lambda A, B: harmonic_mean_J(A, B, 0.3),
                             {"eigh": 3, "cholesky": 1}),
    "j_leq": (j_leq, {"eigvalsh": 1}),
    "is_j_positive": (lambda A, B: is_j_positive(A.matrix, SIG), {"eigvalsh": 1}),
    "bullet_inverse": (lambda A, B: bullet_inverse(A.matrix, SIG), {"inv": 1}),
    "schur_j_positive": (lambda A, B: schur_j_positive(block_decompose(A.matrix, SIG)),
                         {"eigvalsh": 2, "inv": 1}),
}


@pytest.fixture
def linalg_calls(monkeypatch):
    calls = []
    for name in ROUTINES:
        routine = getattr(np.linalg, name)

        def counted(*args, _routine=routine, _name=name, **kwargs):
            calls.append(_name)
            return _routine(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize("field", ["R", "C", "H"])
@pytest.mark.parametrize("op", sorted(OPERATIONS))
def test_factorization_count(linalg_calls, op, field):
    A, B = random_pj(SIG, field, 1), random_pj(SIG, field, 2)
    call, expected = OPERATIONS[op]
    linalg_calls.clear()
    call(A, B)
    assert Counter(linalg_calls) == Counter(expected), linalg_calls


# Sign flips (Signature.flip) per operation on operands that hold X, as
# random_pj makes them: a cone operation reads each operand's JX, so an
# operand that holds X costs one flip and one that holds JX, as
# random_pj_bounded makes them, none.  Results hold JX and cost none.
FLIPS_ON_X = {"weighted_mean_t0.5": 2, "weighted_mean_t0.3": 2, "geodesic_t0.3": 2,
              "geodesic_distance": 2, "j_leq": 2, "pow_J": 1, "riccati_residual": 3}


@pytest.mark.parametrize("field", ["R", "C", "H"])
@pytest.mark.parametrize("make", [random_pj, random_pj_bounded])
@pytest.mark.parametrize("op", sorted(FLIPS_ON_X) + ["is_j_positive"])
def test_flip_count(monkeypatch, op, make, field):
    A, B = make(SIG, field, 1), make(SIG, field, 2)
    raw = A.matrix
    calls = []

    def counted(X, p):
        calls.append(p)
        return negate_rows(X, p)

    monkeypatch.setattr(jcone.jstruct, "negate_rows", counted)
    if op == "is_j_positive":   # a raw matrix: its one J-Hermitian test
        is_j_positive(raw, SIG)
        expected = 1
    else:
        OPERATIONS[op][0](A, B)
        expected = FLIPS_ON_X[op] if make is random_pj else 0
    assert len(calls) == expected, calls


# Wider than matcore's block (40) the pencil inverts its factor by blocks,
# all of them in the one inv call.  (20, 20) is at the block over R and C and
# above it over H, whose embedding is 80 wide.
PENCIL_OPERATIONS = ("weighted_mean_t0.5", "weighted_mean_t0.3", "geodesic_distance",
                     "riccati_residual")


@pytest.mark.parametrize("sig, field", [(Signature(20, 20), "R"), (Signature(20, 20), "C"),
                                        (Signature(20, 20), "H"), (Signature(40, 40), "R"),
                                        (Signature(40, 40), "C")])
@pytest.mark.parametrize("op", PENCIL_OPERATIONS)
def test_factorization_count_of_wide_pencils(linalg_calls, op, sig, field):
    A, B = random_pj(sig, field, 1), random_pj(sig, field, 2)
    call, expected = OPERATIONS[op]
    linalg_calls.clear()
    call(A, B)
    assert Counter(linalg_calls) == Counter(expected), linalg_calls


@pytest.mark.parametrize("op", sorted(OPERATIONS))
def test_no_structural_test_inside_the_library(monkeypatch, op):
    # Quaternionic results come back through Psi without psi_inverse's test.
    A, B = random_pj(SIG, "H", 1), random_pj(SIG, "H", 2)

    def forbidden(M):
        raise AssertionError("internal Psi round trip re-tested its structure")

    monkeypatch.setattr(jcone.matcore, "psi_structural_residual", forbidden)
    OPERATIONS[op][0](A, B)


# The six cone operations of the benchmark mix, on certified or raw operands.
CONE_MIX = {
    "weighted_mean_t0.5": lambda A, B: weighted_mean(A, B, 0.5),
    "weighted_mean_t0.3": lambda A, B: weighted_mean(A, B, 0.3),
    "geodesic_distance": geodesic_distance,
    "pow_J": lambda A, B: pow_J(A, 0.7),
    "j_leq": lambda A, B: j_leq(A.matrix, B.matrix, SIG),
    "is_j_positive": lambda A, B: is_j_positive(A.matrix, SIG),
}


@pytest.mark.parametrize("field", ["R", "C", "H"])
@pytest.mark.parametrize("op", sorted(CONE_MIX))
def test_cone_operations_build_no_j(monkeypatch, op, field):
    # J is applied as a sign flip of rows, never as the dense matrix.
    A, B = random_pj(SIG, field, 1), random_pj(SIG, field, 2)

    def forbidden(self, field="R"):
        raise AssertionError("Signature.matrix built inside a cone operation")

    monkeypatch.setattr(Signature, "matrix", forbidden)
    CONE_MIX[op](A, B)


@pytest.mark.parametrize("field", ["R", "C", "H"])
@pytest.mark.parametrize("op", sorted(CONE_MIX) + ["maximality_check"])
def test_cone_operations_call_no_np_block(monkeypatch, op, field):
    # Block matrices and Psi are written into one preallocated array.
    A, B = random_pj(SIG, field, 1), random_pj(SIG, field, 2)
    mean = weighted_mean(A, B, 0.5).mean

    def forbidden(*args, **kwargs):
        raise AssertionError("numpy.block called inside a cone operation")

    monkeypatch.setattr(np, "block", forbidden)
    if op == "maximality_check":
        assert maximality_check(mean, A, B).holds
    else:
        CONE_MIX[op](A, B)


# The operations whose psi_matrix calls over H are pinned: a quaternionic
# matrix is stored as its embedding, so none of them embeds anything.
PSI_EMBEDDINGS = ("weighted_mean_t0.5", "weighted_mean_t0.3", "geodesic_t0.3",
                  "geodesic_distance", "pow_J", "j_leq", "is_j_positive")


@pytest.mark.parametrize("op", PSI_EMBEDDINGS)
def test_one_embedding_per_operand(monkeypatch, op):
    A, B = random_pj(SIG, "H", 1), random_pj(SIG, "H", 2)
    calls = []

    def counted(X):
        calls.append(X.shape)
        return psi_matrix(X)

    monkeypatch.setattr(jcone.matcore, "psi_matrix", counted)
    OPERATIONS[op][0](A, B)
    assert len(calls) == 0, calls


@pytest.mark.parametrize("op", ["hermitian_eig", "random_kj"])
def test_quaternionic_gram_schmidt_builds_no_quaternion(monkeypatch, op):
    # The Gram-Schmidt pass works on embedded columns, not entry by entry.
    X = random_pj(SIG, "H", 1).matrix
    H = (X + X.H) * 0.5
    calls = []
    init = Quaternion.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Quaternion, "__init__", counted)
    if op == "hermitian_eig":
        hermitian_eig(H)
    else:
        random_kj(SIG, "H", 3)
    assert calls == []


@pytest.mark.parametrize("field", ["R", "C", "H"])
@pytest.mark.parametrize("t", [0.5, 0.3])
def test_pencil_mean_certificate_is_taken_on_its_embedding(field, t):
    # A mean or geodesic point is certified by a cholesky of its JX; its
    # lambda_min(JX), once read, is the smallest eigenvalue of the embedding
    # of J times the returned matrix, bit for bit.
    A, B = random_pj(SIG, field, 1), random_pj(SIG, field, 2)
    for X in (weighted_mean(A, B, t).mean, geodesic(A, B, t)):
        jx = SIG.flip(X.matrix)
        w = np.linalg.eigvalsh(psi_matrix(jx) if field == "H" else jx)
        assert X.lambda_min_of_jx == (w[::-2] if field == "H" else w[::-1])[-1]
