"""Exception hierarchy shared by all jcone modules, and the one tolerance
rule: a value is compared with threshold(tol, *scales) = tol * max(1, *scales),
and a residual certifies a structure only through certify, whose error names
the invariant, the residual and the threshold.

Both take one value per member of a stack of matrices as well as a scalar:
threshold then returns one threshold per member, and certify certifies every
member, naming the first that fails.  A per-member value is a Python scalar
for one matrix and an array over a stack; the helpers here take either, and
take a scalar by Python's own operations."""

import math
from functools import reduce

import numpy as np


def _out(x):
    """A per-member value as returned: the array over a stack, a Python
    scalar for one matrix."""
    if type(x) is np.ndarray:
        return x if x.ndim else x.item()
    return x.item() if isinstance(x, np.generic) else x


def threshold(tol: float, *scales):
    """tol relative to the largest scale, floored at tol; a NaN scale is
    passed over.  One matrix's scales take Python's max, a stack's np.fmax,
    which agree value for value: np.fmax on Python floats costs about 3 us
    a threshold, and a 3 x 3 j_leq takes three."""
    if np.ndarray in map(type, scales):
        return tol * reduce(np.fmax, scales, 1.0)
    return tol * max(1.0, *scales)


def min_of(a, b):
    """min(a, b) for one value or one per member, taken as Python's min
    takes it: b where b < a, else a, so a NaN b is passed over and a NaN a
    kept."""
    if type(a) is np.ndarray or type(b) is np.ndarray:
        return np.where(b < a, b, a)
    return b if b < a else a


def max_of(a, b):
    """max(a, b) as Python's max takes it: b where b > a, else a."""
    if type(a) is np.ndarray or type(b) is np.ndarray:
        return np.where(b > a, b, a)
    return b if b > a else a


def all_of(ok) -> bool:
    """ok for one verdict, every member's ok for an array of them (np.all
    would cost a Python bool an array)."""
    return ok.all() if isinstance(ok, np.ndarray) else ok


def any_of(ok) -> bool:
    return ok.any() if isinstance(ok, np.ndarray) else ok


def first_failed(value, ok) -> float:
    """The value of the first member where ok is False."""
    return float(np.broadcast_to(value, np.shape(ok))[np.logical_not(ok)].flat[0])


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
