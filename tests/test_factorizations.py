"""Cubic-cost factorizations per cone operation, and the Psi boundary.

The counts do not depend on the machine, the seed or the size, so they pin
the work each operation does: a change that adds a factorization fails here.
"""

import numpy as np
import pytest

import jcone.matcore
from jcone.geometry import geodesic, geodesic_distance, metric_omega
from jcone.jcalc import exp_J, log_J, polar_decompose_bullet, pow_J, random_pj
from jcone.jstruct import Signature, is_j_positive
from jcone.means import harmonic_mean_J, riccati_residual, weighted_mean
from jcone.order import j_leq

ROUTINES = ("eigh", "eigvalsh", "svd", "inv", "cholesky", "solve")
SIG = Signature(2, 1)

# Operation -> (call on a pair of cone elements, numpy.linalg calls).
OPERATIONS = {
    "weighted_mean_t0.5": (lambda A, B: weighted_mean(A, B, 0.5), 4),
    "weighted_mean_t0.3": (lambda A, B: weighted_mean(A, B, 0.3), 4),
    "geodesic_t0.3": (lambda A, B: geodesic(A, B, 0.3), 4),
    "geodesic_distance": (geodesic_distance, 3),
    "riccati_residual": (lambda A, B: riccati_residual(B, A, B), 2),
    "metric_omega": (lambda A, B: metric_omega(A, A.matrix, A.matrix - B.matrix), 2),
    "polar_decompose_bullet": (lambda A, B: polar_decompose_bullet(A.matrix, SIG), 1),
    "pow_J": (lambda A, B: pow_J(A, 0.7), 1),
    "exp_J": (lambda A, B: exp_J(A.matrix - B.matrix, SIG), 1),
    "log_J": (lambda A, B: log_J(A), 1),
    "harmonic_mean_J_t0.3": (lambda A, B: harmonic_mean_J(A, B, 0.3), 4),
    "j_leq": (j_leq, 1),
    "is_j_positive": (lambda A, B: is_j_positive(A.matrix, SIG), 1),
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
    assert len(linalg_calls) == expected, linalg_calls


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
