"""Exception hierarchy shared by all jcone modules, and the one tolerance
rule: a value is compared with threshold(tol, *scales) = tol * max(1, *scales),
and a residual certifies a structure only through certify, whose error names
the invariant, the residual and the threshold.

Both take one value per member of a stack of matrices as well as a scalar
(the stack contract: see stacks): threshold then returns one threshold per
member, and certify certifies every member, naming the first that fails."""

import math
from functools import reduce

import numpy as np

from .stacks import all_of, first_failed


def threshold(tol: float, *scales):
    """tol relative to the largest scale, floored at tol; a NaN scale is
    passed over.  One matrix's scales take Python's max, a stack's np.fmax,
    which agree value for value: np.fmax on Python floats costs about 3 us
    a threshold, and a 3 x 3 j_leq takes three."""
    if np.ndarray in map(type, scales):
        return tol * reduce(np.fmax, scales, 1.0)
    return tol * max(1.0, *scales)


def certify(residual, limit, error: type, invariant: str) -> None:
    """Raise error unless residual is finite and at most limit: a NaN or an
    overflowed residual certifies nothing, even against an overflowed limit."""
    ok = (residual <= limit) & (residual < math.inf)
    if not all_of(ok):
        residual, limit = first_failed(residual, ok), first_failed(limit, ok)
        raise error(f"{invariant} residual {residual:.3e} exceeds {limit:.3e}")


class JConeError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(JConeError):
    pass


class SignatureMismatch(JConeError):
    pass


class NotHermitian(JConeError):
    pass


class NotPositive(JConeError):
    pass


class NotJHermitian(JConeError):
    pass


class NotJPositive(JConeError):
    pass


class Singular(JConeError):
    pass


class NotFinite(JConeError):
    """An entry of a matrix from outside the library is NaN or infinite."""


class NotInImage(JConeError):
    """A complex matrix fails the structural test for the quaternionic embedding."""


class NotBulletCommuting(JConeError):
    pass


class PremiseViolated(JConeError):
    pass


class WeightOutOfRange(JConeError):
    pass


class StepTooSmall(JConeError):
    pass


class UnknownSuite(JConeError):
    pass


class IndeterminateSchur(JConeError):
    """Schur positivity test requested with a (numerically) singular leading block."""
