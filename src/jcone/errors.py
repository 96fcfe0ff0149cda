"""Exception hierarchy shared by all jcone modules, the one tolerance rule
and the one failure rule.  A value is compared with threshold(tol, *scales)
= tol * max(1, *scales); a test rejects only through require, whose error
names the failing values, and a residual certifies a structure through
certify, whose error names the invariant, the residual and the threshold.

Each takes one value per member of a stack of matrices as well as a scalar
(the stack contract: see stacks): threshold then returns one threshold per
member, and require rejects a stack when one member fails, naming the first."""

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


def require(ok, error: type, message: str, *values) -> None:
    """Raise error unless ok holds for every member: message is formatted
    with each of values taken at the first member that fails."""
    if not all_of(ok):
        raise error(message.format(*(first_failed(v, ok) for v in values)))


def certify(residual, limit, error: type, invariant: str) -> None:
    """Raise error unless residual is finite and at most limit: a NaN or an
    overflowed residual certifies nothing, even against an overflowed limit."""
    require((residual <= limit) & (residual < math.inf), error,
            invariant + " residual {:.3e} exceeds {:.3e}", residual, limit)


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
