"""The guards of the public API, each raising its named error with its
message, and the scalar coercions of Quaternion's operators."""

import re

import numpy as np
import pytest

from jcone.cli import main
from jcone.errors import DimensionMismatch, Singular
from jcone.fileio import canonical_dumps, write_matrix
from jcone.geometry import geodesic_ode_residual
from jcone.jcalc import GeneratorStack, random_invertible, random_pj
from jcone.jstruct import Signature, j_inner
from jcone.matcore import QMatrix, block2x2, psi_matrix, psi_structural_residual
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
