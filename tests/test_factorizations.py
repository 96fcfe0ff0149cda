"""Cubic-cost factorizations and sign flips per cone operation, and the Psi
boundary.

The counts do not depend on the machine, the seed or the size, so they pin
the work each operation does: a change that adds a factorization, or swaps
one routine for another, fails here.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

import jcone.matcore
from jcone.geometry import geodesic, geodesic_distance, metric_omega
from jcone.jcalc import (GeneratorStack, bullet_inverse, exp_J, log_J,
                         polar_decompose_bullet, pow_J, random_pj,
                         random_pj_bounded)
from jcone.jstruct import (JPositive, Signature, block_decompose, certify_constructed,
                           is_j_positive, schur_j_positive)
from jcone.matcore import QMatrix, _embed, hermitian_eig, negate_rows, psi_matrix
from jcone.means import (arithmetic_mean_J, commuting_bullet_mean, harmonic_mean_J,
                         maximality_check, riccati_residual, weighted_mean)
from jcone.order import j_leq
from jcone.scalars import Quaternion

SIG = Signature(2, 1)

# The pencil (JA, JB) is one cholesky of JA and the inv of its factor.  A
# mean or geodesic point adds one eigh of the pencil and one cholesky of the
# result's JX, its certificate.
PENCIL = {"cholesky": 1, "inv": 1}
MEAN = {"cholesky": 2, "inv": 1, "eigh": 1}

# Operation -> (call on a pair of cone elements, LAPACK calls by routine).
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


def _stacked_pair(field, k=4, sig=SIG):
    """k pairs of random_pj members as two stacks of k members."""
    def stack(first):
        return random_pj(sig, field, GeneratorStack([np.random.default_rng(first + 2 * i)
                                                     for i in range(k)]))
    return stack(1), stack(2)


@pytest.mark.parametrize("field", ["R", "C", "H"])
@pytest.mark.parametrize("op", sorted(OPERATIONS))
def test_factorization_count(lapack_calls, op, field):
    A, B = random_pj(SIG, field, 1), random_pj(SIG, field, 2)
    call, expected = OPERATIONS[op]
    lapack_calls.clear()
    call(A, B)
    assert Counter(lapack_calls) == Counter(expected), lapack_calls


@pytest.mark.parametrize("field", ["R", "C", "H"])
@pytest.mark.parametrize("op", sorted(OPERATIONS))
def test_factorization_count_per_stack(lapack_calls, op, field):
    # A stack of 4 pairs makes the LAPACK calls of one pair: each
    # routine loops over the members inside one call.
    A, B = _stacked_pair(field)
    call, expected = OPERATIONS[op]
    lapack_calls.clear()
    out = call(A, B)
    assert Counter(lapack_calls) == Counter(expected), lapack_calls
    for i in range(4):   # and each member gets what a call on it alone gets
        assert _bits(_member_of(out, i)) == _bits(call(A.member(i), B.member(i)))


# Sign flips (Signature.flip) per operation.  Every member holds JX, which
# each cone operation reads, and every result holds its JX: an operation on
# members flips nothing, whether they were certified from X (random_pj) or
# built from JX (random_pj_bounded).  log_J returns the plain matrix
# J log(JX), its one flip.  commuting_bullet_mean, on a bullet-commuting pair,
# flips nothing either.  A raw matrix costs is_j_positive one flip, the JX it
# keeps, and each read of .matrix one flip.
FLIPS = {"weighted_mean_t0.5": 0, "weighted_mean_t0.3": 0, "geodesic_t0.3": 0,
         "geodesic_distance": 0, "riccati_residual": 0, "pow_J": 0, "log_J": 1,
         "arithmetic_mean_J": 0, "harmonic_mean_J_t0.3": 0, "j_leq": 0}


@pytest.mark.parametrize("field", ["R", "C", "H"])
@pytest.mark.parametrize("make", [random_pj, random_pj_bounded])
@pytest.mark.parametrize("op", sorted(FLIPS) + ["commuting_bullet_mean", "is_j_positive"])
def test_flip_count(monkeypatch, op, make, field):
    A = make(SIG, field, 1)
    B = pow_J(A, 0.3) if op == "commuting_bullet_mean" else make(SIG, field, 2)
    raw = A.matrix
    calls = []

    def counted(X, p):
        calls.append(p)
        return negate_rows(X, p)

    monkeypatch.setattr(jcone.jstruct, "negate_rows", counted)
    if op == "is_j_positive":   # a raw matrix: its one J-Hermitian test
        X = is_j_positive(raw, SIG)
        assert len(calls) == 1, calls
        for reads in (2, 3):
            X.matrix
            assert len(calls) == reads, calls
    elif op == "commuting_bullet_mean":
        commuting_bullet_mean(A, B, 0.3)
        assert calls == []
    else:
        OPERATIONS[op][0](A, B)
        assert len(calls) == FLIPS[op], calls


@pytest.mark.parametrize("field", ["R", "C", "H"])
def test_commuting_bullet_mean_factorization_count(lapack_calls, field):
    # Two J-powers and the Cholesky factorization that certifies the result.
    A = random_pj(SIG, field, 1)
    B = pow_J(A, 0.3)
    lapack_calls.clear()
    commuting_bullet_mean(A, B, 0.3)
    assert Counter(lapack_calls) == Counter({"eigh": 2, "cholesky": 1}), lapack_calls


def _member_of(value, i):
    """Member i of an operation's stacked output, whatever its type."""
    if isinstance(value, JPositive):
        return value.member(i)
    if isinstance(value, QMatrix):
        return QMatrix._of(value.m[i])
    if isinstance(value, np.ndarray):
        return value[i] if value.ndim > 1 else value[i].item()
    if isinstance(value, tuple):
        return tuple(_member_of(v, i) for v in value)
    if dataclasses.is_dataclass(value):
        return type(value)(*(_member_of(getattr(value, f.name), i)
                             for f in dataclasses.fields(value)))
    return value


def _bits(value):
    """The exact bits of an operation's output, whatever its type."""
    if isinstance(value, JPositive):
        return ("JPositive", value.signature, _bits(value.jx))
    if isinstance(value, (QMatrix, np.ndarray)):
        M = _embed(value)
        return M.dtype, M.shape, M.tobytes()
    if isinstance(value, tuple):
        return tuple(map(_bits, value))
    if dataclasses.is_dataclass(value):
        return _bits(tuple(getattr(value, f.name) for f in dataclasses.fields(value)))
    return np.float64(value).tobytes() if isinstance(value, float) else value


@pytest.mark.parametrize("field", ["R", "C", "H"])
@pytest.mark.parametrize("op", sorted(OPERATIONS))
def test_members_from_x_and_from_jx_agree_bit_for_bit(op, field):
    X, Y = random_pj(SIG, field, 1).matrix, random_pj(SIG, field, 2).matrix
    from_x = is_j_positive(X, SIG), is_j_positive(Y, SIG)
    from_jx = certify_constructed(SIG.flip(X), SIG), certify_constructed(SIG.flip(Y), SIG)
    call = OPERATIONS[op][0]
    assert _bits(call(*from_x)) == _bits(call(*from_jx))


# Wider than matcore's block (40) the pencil inverts its factor by blocks,
# all of them in the one inv call, and multiplies by the factor and its
# inverse block row by block row.  (20, 20) is at the block over R and C and
# above it over H, whose embedding is 80 wide.  (21, 20) is cut into blocks
# whose last one overlaps the one before (41 rows as 2 of 21, 82 as 3 of 28),
# and (45, 45) into exact blocks (90 rows as 3 of 30, 180 as 5 of 36).
PENCIL_OPERATIONS = ("weighted_mean_t0.5", "weighted_mean_t0.3", "geodesic_distance",
                     "riccati_residual", "geodesic_t0.3", "metric_omega")
WIDE_PAST_THE_BLOCK = [(Signature(p, q), field) for p, q in ((21, 20), (45, 45))
                       for field in ("R", "C", "H")]


@pytest.mark.parametrize("sig, field", [(Signature(20, 20), "R"), (Signature(20, 20), "C"),
                                        (Signature(20, 20), "H"), (Signature(40, 40), "R"),
                                        (Signature(40, 40), "C")] + WIDE_PAST_THE_BLOCK)
@pytest.mark.parametrize("op", PENCIL_OPERATIONS)
def test_factorization_count_of_wide_pencils(lapack_calls, op, sig, field):
    A, B = random_pj(sig, field, 1), random_pj(sig, field, 2)
    call, expected = OPERATIONS[op]
    lapack_calls.clear()
    call(A, B)
    assert Counter(lapack_calls) == Counter(expected), lapack_calls


@pytest.mark.parametrize("sig, field", WIDE_PAST_THE_BLOCK)
@pytest.mark.parametrize("op", PENCIL_OPERATIONS)
def test_factorization_count_of_wide_pencil_stacks(lapack_calls, op, sig, field):
    # As test_factorization_count_per_stack, past the block.
    A, B = _stacked_pair(field, 3, sig)
    call, expected = OPERATIONS[op]
    lapack_calls.clear()
    out = call(A, B)
    assert Counter(lapack_calls) == Counter(expected), lapack_calls
    for i in range(3):
        assert _bits(_member_of(out, i)) == _bits(call(A.member(i), B.member(i)))


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


def test_quaternionic_gram_schmidt_builds_no_quaternion(monkeypatch):
    # The Gram-Schmidt pass of hermitian_eig works on embedded columns, not
    # entry by entry.
    X = random_pj(SIG, "H", 1).matrix
    H = (X + X.H) * 0.5
    calls = []
    init = Quaternion.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Quaternion, "__init__", counted)
    hermitian_eig(H)
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
