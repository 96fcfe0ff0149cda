"""The one tolerance rule: threshold(tol, *scales) = tol * max(1, *scales),
written once, and one positivity boundary shared by every positivity test."""

import re
from pathlib import Path

import numpy as np
import pytest

import jcone
from jcone.errors import (IndeterminateSchur, NotJPositive, NotPositive, Singular,
                          WeightOutOfRange, certify, threshold)
from jcone.jstruct import (JHermitianBlocks, JPositive, Signature, block_decompose,
                           is_j_positive, schur_j_positive)
from jcone.matcore import (Pencil, from_real, is_positive_definite, mat_inverse,
                           mat_log_pd, polar, spectral_function)
from jcone.means import weighted_mean
from jcone.stacks import max_of, min_of

SRC = Path(jcone.__file__).parent
FIELDS = ("R", "C", "H")
TOL = 1e-10  # the default of each test below, and mat_log_pd's fixed floor


def _lines(pattern):
    """(module, line) of every line of the library matching pattern, but
    propcheck's: its oracle scales are the yardstick, not the rule."""
    return [(path.name, line.strip()) for path in sorted(SRC.glob("*.py"))
            if path.name != "propcheck.py"
            for line in path.read_text().splitlines() if re.search(pattern, line)]


def test_floor_written_once():
    assert _lines(r"max\(1\.0") == [("errors.py", "return tol * max(1.0, *scales)")]


_RAISE = "raise error(message.format(*(first_failed(v, ok) for v in values)))"


def test_residual_certificate_written_once():
    # No module raises on a residual itself: each goes through certify, whose
    # message is written once and raised by require's one raise line.
    assert _lines(r"residual \{") == [
        ("errors.py", 'invariant + " residual {:.3e} exceeds {:.3e}", residual, limit)')]
    assert _lines(r"raise .*(residual|first_failed)") == [("errors.py", _RAISE)]


def test_failing_member_named_only_by_require():
    # Every per-member rejection leaves through require: no other module
    # picks out its first failing member, propcheck included.
    calls = [(path.name, line.strip()) for path in sorted(SRC.glob("*.py"))
             for line in path.read_text().splitlines()
             if "first_failed(" in line and not line.lstrip().startswith("def ")]
    assert calls == [("errors.py", _RAISE)]


class TestRule:
    def test_threshold(self):
        assert threshold(1e-9, 0.5) == 1e-9
        assert threshold(1e-9, 2.0, 3.0) == 1e-9 * 3.0

    @pytest.mark.parametrize("residual, limit", [
        (2.0, 1.0), (np.nan, 1.0), (np.inf, np.inf), (np.nan, np.nan)])
    def test_certify_rejects(self, residual, limit):
        with pytest.raises(NotPositive, match=r"^test residual \S+ exceeds \S+$"):
            certify(residual, limit, NotPositive, "test")

    def test_certify_accepts(self):
        assert certify(1.0, 1.0, NotPositive, "test") is None

    def test_threshold_per_member_equals_one_at_a_time(self):
        a = np.array([0.5, 2.0, np.nan, np.inf, 7.0])
        b = np.array([3.0, np.nan, 0.25, 1.0, 7.5])
        stacked = threshold(1e-9, a, b)
        alone = [threshold(1e-9, x, y) for x, y in zip(a.tolist(), b.tolist())]
        assert type(alone[0]) is float and stacked.tolist() == alone

    @pytest.mark.parametrize("a, b", [(np.nan, 1.0), (1.0, np.nan), (2.0, 1.0),
                                      (0.0, -0.0), (-0.0, 0.0)])
    def test_min_and_max_take_python_order(self, a, b):
        # Python's min(a, b) keeps a unless b < a: a NaN first operand is
        # kept, a NaN second one passed over, on one value and per member.
        for mine, python in ((min_of, min), (max_of, max)):
            one, stacked = mine(a, b), mine(np.array([a, a]), np.array([b, b]))
            want = python(a, b)
            assert np.array_equal(one, want, equal_nan=True)
            assert np.copysign(1.0, one) == np.copysign(1.0, want)
            assert np.array_equal(stacked, [want, want], equal_nan=True)
            assert np.copysign(1.0, stacked[0]) == np.copysign(1.0, want)


def _accepts(call) -> bool:
    try:
        return bool(call())
    except (NotJPositive, NotPositive, IndeterminateSchur):
        return False


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("top", [0.5, 1.0, 1e3, 1e9])
def test_positivity_boundary(field, top):
    # diag(top, v, top) is accepted iff v > tol * max(1, top): below 1 the
    # floor decides, above it |lambda_max|.
    boundary = TOL * max(1.0, top)
    for v, want in ((np.nextafter(boundary, 0.0), False), (boundary, False),
                    (np.nextafter(boundary, np.inf), True)):
        X = from_real(np.diag([top, v, top]), field)
        got = {
            "is_j_positive": _accepts(lambda: is_j_positive(X, Signature(3, 0), TOL)),
            "is_positive_definite": _accepts(lambda: is_positive_definite(X, TOL)),
            "mat_log_pd": _accepts(lambda: mat_log_pd(X) is not None),
            "schur_j_positive": _accepts(lambda: schur_j_positive(
                block_decompose(X, Signature(3, 0)), TOL)),
            "schur_j_positive, p = 0": _accepts(lambda: schur_j_positive(
                block_decompose(-X, Signature(0, 3)), TOL)),
        }
        assert got == dict.fromkeys(got, want), v


def _diag(*entries):
    return np.diag(np.array(entries, dtype=float))


_S11 = Signature(1, 1)
_JI = _diag(1.0, -1.0)  # J at (1, 1): its members' images are I
_SITES = {
    # site: (call, error, message on one matrix, (passing, failing, failing))
    "certify": (
        lambda x: certify(x, 1.0, NotPositive, "test"), NotPositive,
        "test residual 2.000e+00 exceeds 1.000e+00", (0.5, 2.0, 3.0)),
    "mat_inverse": (
        mat_inverse, Singular, "1-norm condition number 1.000e+14 not below 1e13",
        (_diag(1.0, 1.0), _diag(1.0, 1e-14), _diag(1.0, 1e-15))),
    "spectral_function": (
        lambda X: spectral_function(X, np.exp, TOL), NotPositive,
        "smallest eigenvalue -1.000e+00 not above 1.000e-10",
        (_diag(1.0, 1.0), _diag(1.0, -1.0), _diag(1.0, -2.0))),
    "Pencil._positive": (
        lambda Q: Pencil(np.broadcast_to(np.eye(2), Q.shape), Q).eigenvalues(), NotPositive,
        "smallest eigenvalue -1.000e+00 of P^-1 Q not positive",
        (_diag(1.0, 1.0), _diag(1.0, -1.0), _diag(1.0, -2.0))),
    "polar": (
        polar, Singular, "singular-value ratio 1.000e-14 not above 1e-13",
        (_diag(1.0, 1.0), _diag(1.0, 1e-14), _diag(1.0, 1e-15))),
    "schur_j_positive": (
        lambda H: schur_j_positive(block_decompose(H, _S11)), IndeterminateSchur,
        "leading block numerically singular: lambda_min = 1.000e-11, "
        "|lambda_min| not above 1.000e-10",
        (_diag(1.0, -1.0), _diag(1e-11, -1.0), _diag(0.0, -1.0))),
    "JPositive.lambda_min_of_jx": (
        lambda X: JPositive(X, _S11, None).lambda_min_of_jx, NotJPositive,
        "lambda_min(JX) = -1.000e+00 of a Cholesky-certified member not finite "
        "and positive", (_JI, _diag(1.0, 1.0), _diag(1.0, 2.0))),
    "is_j_positive": (
        lambda X: is_j_positive(X, _S11), NotJPositive,
        "lambda_min(JX) = -1.000e+00 not above 1.000e-10",
        (_JI, _diag(1.0, 1.0), _diag(1.0, 2.0))),
    "means._weight": (
        lambda t: weighted_mean(*[is_j_positive(np.broadcast_to(_JI, np.shape(t) + (2, 2)),
                                                _S11)] * 2, t),
        WeightOutOfRange, "weight 1.5 outside [0, 1]", (0.5, 1.5, -1.0)),
}


@pytest.mark.parametrize("site", _SITES)
def test_rejection_names_the_first_failing_member(site):
    # One matrix names its own value; a stack of three whose second and third
    # members fail names the second's, with the same error and message.
    call, error, message, (good, bad, worse) = _SITES[site]
    stacked = np.array([good, bad, worse])
    for x in (bad, stacked):
        with pytest.raises(error) as info:
            call(x)
        assert str(info.value) == message
    call(good)


def test_schur_passes_a_nan_leading_block_to_its_verdict():
    # A NaN lambda_min of A is not numerically singular: the member is
    # rejected by the verdict, and a stack names its next singular member.
    blocks = JHermitianBlocks(np.array([[np.nan]]), np.zeros((1, 1)), -np.ones((1, 1)), _S11)
    assert not schur_j_positive(blocks)
    stacked = JHermitianBlocks(np.array([[[np.nan]], [[1e-11]]]), np.zeros((2, 1, 1)),
                               -np.ones((2, 1, 1)), _S11)
    with pytest.raises(IndeterminateSchur, match="lambda_min = 1.000e-11,"):
        schur_j_positive(stacked)
