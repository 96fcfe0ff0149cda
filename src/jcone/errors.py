"""Exception hierarchy shared by all jcone modules, and the one tolerance
rule: a value is compared with threshold(tol, *scales) = tol * max(1, *scales),
and a residual certifies a structure only through certify, whose error names
the invariant, the residual and the threshold."""

import math


def threshold(tol: float, *scales: float) -> float:
    """tol relative to the largest scale, floored at tol."""
    return tol * max(1.0, *scales)


def certify(residual: float, limit: float, error: type, invariant: str) -> None:
    """Raise error unless residual is finite and at most limit: a NaN or an
    overflowed residual certifies nothing, even against an overflowed limit."""
    if not (residual <= limit and residual < math.inf):
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
