"""The guards of the public API, each raising its named error with its
message, the scalar coercions of Quaternion's operators, and the hostile
operands of the functions that read a raw operand: a nested list, an
infinite entry and an operand over another field."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from jcone.cli import main
from jcone.errors import (DimensionMismatch, NotFinite, NotHermitian, NotInImage,
                          NotJHermitian, SignatureMismatch, Singular)
from jcone.fileio import canonical_dumps, write_matrix
from jcone.geometry import geodesic_ode_residual, metric_omega
from jcone.jcalc import (GeneratorStack, bullet, bullet_commutator, bullet_inverse, exp_J,
                         polar_decompose_bullet, random_invertible, random_pj)
from jcone.jstruct import (JPositive, Signature, block_decompose, in_pj, is_in_K_J, is_in_U_J,
                           is_j_hermitian, is_j_positive, j_inner, phi_J, phi_J_inv,
                           sharp)
from jcone.matcore import (QMatrix, _embed, block2x2, eigvals_hermitian, from_real,
                           hermitian_eig, is_matrix, mat_exp_h, psi_inverse, psi_matrix,
                           psi_structural_residual)
from jcone.means import maximality_check
from jcone.order import j_leq, loewner_leq
from jcone.scalars import Quaternion, psi_scalar_inverse

SIG = Signature(2, 1)


class _Zeros:
    """A generator whose every draw is zero, so no draw is invertible."""

    def standard_normal(self, size=None):
        return np.zeros(size)


def _pair():
    return random_pj(SIG, "R", 3), random_pj(SIG, "R", 13)


GUARDS = {
    "QMatrix parts of two shapes": (
        lambda: QMatrix(np.ones((2, 2)), np.ones((2, 3))), ValueError,
        "component shapes differ"),
    "QMatrix of one axis": (
        lambda: QMatrix(np.ones(3)), ValueError, "a quaternionic matrix has at least two axes"),
    "block2x2 of blocks that do not conform": (
        lambda: block2x2(np.eye(2), np.zeros((2, 3)), np.zeros((3, 2)), np.eye(2)),
        ValueError, "blocks do not conform"),
    "psi_matrix of a real matrix": (
        lambda: psi_matrix(np.eye(2)), TypeError, "psi_matrix expects a quaternionic matrix"),
    "psi_structural_residual of an odd row count": (
        lambda: psi_structural_residual(np.ones((3, 4))), ValueError,
        "expected a matrix with an even number of rows and of columns"),
    "loewner_leq of two sizes": (
        lambda: loewner_leq(np.eye(2), np.eye(3)), DimensionMismatch,
        "operands differ in shape"),
    "j_leq of raw matrices with no signature": (
        lambda: j_leq(np.eye(3), np.eye(3)), ValueError,
        "signature required for raw matrix arguments"),
    "j_leq of a raw operand and a member over another signature": (
        lambda: j_leq(np.eye(3), random_pj(Signature(1, 2), "R", 3), SIG),
        SignatureMismatch, "operands live over different signatures"),
    "j_inner of vectors of the wrong length": (
        lambda: j_inner(np.ones(3), np.ones(2), SIG), DimensionMismatch,
        "expected vectors of length 3"),
    "psi_scalar_inverse of a 3 x 3 matrix": (
        lambda: psi_scalar_inverse(np.eye(3)), ValueError, "expected a 2x2 complex matrix"),
    "geodesic_ode_residual with t not in (h, 1-h)": (
        lambda: geodesic_ode_residual(*_pair(), 0.5, h=0.6), ValueError,
        "need t in (h, 1-h)"),
    "canonical_dumps of a set": (
        lambda: canonical_dumps({1, 2}), TypeError, "cannot serialize <class 'set'>"),
    "random_invertible from a generator of zeros": (
        lambda: random_invertible(SIG, "R", GeneratorStack([_Zeros()])), Singular,
        "could not draw a well-conditioned matrix"),
}


@pytest.mark.parametrize("name", sorted(GUARDS))
def test_guard_raises_its_error(name):
    call, error, message = GUARDS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("options, message", [
    (["-t", "40"], "error: |t| > 32.0 rejected to avoid eigenvalue overflow\n"),
    (["-t", "0.5", "--tol", "abc"], "error: argument --tol: not a finite number: 'abc'\n"),
])
def test_cli_rejects_a_bad_number(tmp_path, capsys, options, message):
    # -t 40 fails pow_J's guard, which main reports; --tol abc fails the
    # parser, which exits.
    x = tmp_path / "x.json"
    write_matrix(str(x), np.diag([3.0, -4.0]))
    try:
        code = main(["pow", "--x", str(x), "--signature", "1,1", *options])
    except SystemExit as exc:
        code = exc.code
    assert code == 2 and capsys.readouterr().err.endswith(message)


@pytest.mark.parametrize("value, expected", [
    (lambda: 2 * Quaternion(1, 2, 3, 4), Quaternion(2.0, 4.0, 6.0, 8.0)),
    (lambda: Quaternion(1) + 1j, Quaternion(1.0, 1.0)),
])
def test_quaternion_takes_real_and_complex_scalars(value, expected):
    assert value() == expected


def _operations():
    """The public functions that take a raw operand at jstruct's door, or at
    loewner_leq's or j_inner's: name -> (call on the operand, the operand,
    what an infinite entry in it gives: the error raised, or a function of
    the operand giving the result)."""
    A, B = _pair()
    x, jx, d = A.matrix, A.jx, SIG.diag()
    return {
        "is_j_positive": (lambda X: is_j_positive(X, SIG), x, NotJHermitian),
        "in_pj": (lambda X: in_pj(X, SIG), x, lambda X: False),
        "is_j_hermitian": (lambda X: is_j_hermitian(X, SIG), x, lambda X: False),
        "phi_J": (lambda X: phi_J(X, SIG), x, NotJHermitian),
        "phi_J_inv": (lambda X: phi_J_inv(X, SIG), jx, NotHermitian),
        "sharp": (lambda X: sharp(X, SIG), x, lambda X: d[:, None] * X.T * d),
        "block_decompose": (lambda X: block_decompose(X, SIG), x, NotJHermitian),
        "is_in_U_J": (lambda X: is_in_U_J(X, SIG), x, NotFinite),
        "is_in_K_J": (lambda X: is_in_K_J(X, SIG), x, NotFinite),
        "bullet": (lambda X: bullet(X, B.matrix, SIG), x, NotFinite),
        "bullet_commutator": (lambda X: bullet_commutator(X, B.matrix, SIG), x, NotFinite),
        "bullet_inverse": (lambda X: bullet_inverse(X, SIG), x, Singular),
        "polar_decompose_bullet": (lambda X: polar_decompose_bullet(X, SIG), x, NotFinite),
        "exp_J": (lambda X: exp_J(X, SIG), x, NotJHermitian),
        "j_inner": (lambda v: j_inner(v, np.eye(3)[0], SIG), x[:, 1], NotFinite),
        "j_leq": (lambda X: j_leq(X, B.matrix, SIG), x, NotJHermitian),
        "loewner_leq": (lambda X: loewner_leq(X, B.jx), jx, NotHermitian),
        "maximality_check": (lambda X: maximality_check(X, A, B), x, NotJHermitian),
        "metric_omega": (lambda X: metric_omega(A, X, B.matrix), x, NotJHermitian),
    }


def _bits(value) -> bytes:
    """Every bit of a result, with its dtypes and shapes: members, verdicts
    and blocks field by field."""
    if isinstance(value, JPositive):
        return _bits(value.jx) + _bits(value.lambda_min_of_jx)
    if dataclasses.is_dataclass(value):
        return b"".join(_bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, tuple):
        return b"".join(map(_bits, value))
    a = np.asarray(_embed(value) if is_matrix(value) else value)
    return f"{a.dtype.str}{a.shape}".encode() + a.tobytes()


def _with_inf(X):
    """X with entries (0, 1) and (1, 0) infinite, entry 1 of a vector."""
    X = X.copy()
    X.flat[1] = X.T.flat[1] = math.inf
    return X


@pytest.mark.parametrize("name", sorted(_operations()))
def test_nested_list_operand_gives_the_array_calls_bits(name):
    call, operand, _ = _operations()[name]
    assert _bits(call(operand.tolist())) == _bits(call(operand))


@pytest.mark.parametrize("name", sorted(_operations()))
def test_infinite_entry_gives_a_named_error_and_no_warning(name):
    call, operand, outcome = _operations()[name]
    X = _with_inf(operand)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if isinstance(outcome, type):
            with pytest.raises(outcome):
                call(X)
        else:
            assert np.array_equal(call(X), outcome(X))


@pytest.mark.parametrize("field", ["R", "C", "H"])
@pytest.mark.parametrize("call", [mat_exp_h, eigvals_hermitian, hermitian_eig],
                         ids=lambda f: f.__name__)
def test_infinite_entry_in_the_hermitian_test_warns_nothing(call, field):
    X = from_real(_with_inf(_pair()[0].jx), field)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotHermitian, match="residual nan exceeds inf"):
            call(X)


@pytest.mark.parametrize("field", ["R", "C", "H"])
def test_overflowing_skew_part_warns_nothing(field):
    # Finite entries whose X - X* overflows: the residual is infinite.
    X = from_real(np.array([[0.0, 1e308], [-1e308, 0.0]]), field)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotHermitian, match="residual inf exceeds 1.414e\\+298"):
            mat_exp_h(X)


def test_overflowing_commutator_warns_nothing():
    # Each bullet product is finite; their difference overflows.
    X = np.array([[0.0, 1.0], [1.0, 0.0]]) * 1.3e154
    Y = np.array([[0.0, 1.0], [-1.0, 0.0]]) * 1e154
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotFinite):
            bullet_commutator(X, Y, Signature(2, 0))


def test_infinite_entry_in_the_structure_test_warns_nothing():
    # Both copies of an infinite entry of A + B*j, so that M lies in the image.
    M = psi_matrix(from_real(_with_inf(_pair()[0].jx), "H"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(psi_structural_residual(M))
        with pytest.raises(NotInImage, match="residual nan exceeds inf"):
            psi_inverse(M)


MIXED_FIELDS = {
    "j_leq of a raw H operand": lambda H, A, B: j_leq(H, B.matrix, SIG),
    "j_leq of R and H members": lambda H, A, B: j_leq(A, is_j_positive(H, SIG)),
    "j_leq of R and C members": lambda H, A, B: j_leq(
        A, is_j_positive(B.matrix.astype(complex), SIG)),
    "maximality_check": lambda H, A, B: maximality_check(H, A, B),
    "metric_omega": lambda H, A, B: metric_omega(A, B.matrix, H),
    "bullet": lambda H, A, B: bullet(B.matrix, H, SIG),
    "bullet_commutator": lambda H, A, B: bullet_commutator(H, B.matrix, SIG),
}


@pytest.mark.parametrize("name", sorted(MIXED_FIELDS))
def test_operands_over_different_fields_raise_signature_mismatch(name):
    A, B = _pair()
    with pytest.raises(SignatureMismatch, match="^operands live over different"):
        MIXED_FIELDS[name](from_real(A.matrix, "H"), A, B)


def test_raw_real_operand_beside_complex_is_promoted():
    # numpy's promotion: the real operand is taken as the complex one it equals.
    A, B = _pair()
    C = is_j_positive(B.matrix.astype(complex), SIG)
    for raw in (A.matrix, A.matrix.astype(complex)):
        assert _bits(j_leq(raw, C, SIG)) == _bits(j_leq(A.matrix.astype(complex), C, SIG))
        assert _bits(bullet(raw, C, SIG)) == _bits(bullet(A.matrix.astype(complex), C, SIG))
