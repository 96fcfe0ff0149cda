"""The one tolerance rule: threshold(tol, *scales) = tol * max(1, *scales),
written once, and one positivity boundary shared by every positivity test."""

import re
from pathlib import Path

import numpy as np
import pytest

import jcone
from jcone.errors import (IndeterminateSchur, NotJPositive, NotPositive,
                          certify, threshold)
from jcone.jstruct import Signature, block_decompose, is_j_positive, schur_j_positive
from jcone.matcore import from_real, is_positive_definite, mat_log_pd
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


def test_residual_certificate_written_once():
    # No module raises on a residual itself: each goes through certify.
    assert _lines(r"raise .*residual") == [
        ("errors.py", 'raise error(f"{invariant} residual {residual:.3e} exceeds {limit:.3e}")')]


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
