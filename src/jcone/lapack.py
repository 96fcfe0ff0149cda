"""The four LAPACK routines jcone factors with, called as numpy.linalg's own
gufuncs without numpy.linalg's per-call wrapper.

At n = 3 that wrapper (array and type checks, result casts, an error state
built on each call) costs more than the factorization it wraps.  Here each
routine calls the gufunc numpy.linalg calls, bound once to its signature,
under its error state, built once (stacks._under), so results are
bit-identical and a failure raises LinAlgError with numpy's message whatever
the caller's state.  Input that is not a stack of square matrices raises
numpy's LinAlgError, and float16 and long double its TypeError.  Every call
takes a double signature: float32 and complex64 input is widened exactly on
entry and its results returned in double, where numpy.linalg narrows them.

bench/tracing.py keys a jcone function by module and name, so this module
and its public names make the per-layer counts lapack.eigh, lapack.eigvalsh,
lapack.cholesky and lapack.inv.  matcore calls them as lapack.<name>.
"""

from __future__ import annotations

from functools import partial

import numpy as np
from numpy._core.umath import _make_extobj
from numpy.linalg import LinAlgError, _umath_linalg

from .stacks import _under


def _raising(message: str):
    """numpy.linalg's error state: LAPACK's failure, an invalid value, raises."""
    def fail(err, flag):
        raise LinAlgError(message)
    return _make_extobj(call=fail, invalid="call", over="ignore", divide="ignore",
                        under="ignore")


_NOT_CONVERGED = _raising("Eigenvalues did not converge")
_NOT_POSITIVE = _raising("Matrix is not positive definite")
_SINGULAR = _raising("Singular matrix")

_EIGH = {t: partial(_umath_linalg.eigh_lo, signature=f"{t}->d{t}") for t in "dD"}
_EIGVALSH = {t: partial(_umath_linalg.eigvalsh_lo, signature=f"{t}->d") for t in "dD"}
_CHOLESKY = {t: partial(_umath_linalg.cholesky_lo, signature=f"{t}->{t}") for t in "dD"}
_INV = {t: partial(_umath_linalg.inv, signature=f"{t}->{t}") for t in "dD"}


def _square(a):
    """(a as an array, 'D' if it is complex else 'd')."""
    a = np.asarray(a)
    if a.ndim < 2:
        raise LinAlgError(f"{a.ndim}-dimensional array given. Array must be at least "
                          "two-dimensional")
    if a.shape[-2] != a.shape[-1]:
        raise LinAlgError("Last 2 dimensions of the array must be square")
    if a.dtype.char in "eGg":
        raise TypeError(f"array type {a.dtype.name} is unsupported in linalg")
    return a, "D" if a.dtype.kind == "c" else "d"


def eigh(a):
    """(ascending eigenvalues, eigenvectors) from the lower triangle of a."""
    a, t = _square(a)
    return _under(_NOT_CONVERGED, _EIGH[t], a)


def eigvalsh(a):
    """Ascending eigenvalues from the lower triangle of a."""
    a, t = _square(a)
    return _under(_NOT_CONVERGED, _EIGVALSH[t], a)


def cholesky(a):
    """Lower Cholesky factor of a, read from its lower triangle."""
    a, t = _square(a)
    return _under(_NOT_POSITIVE, _CHOLESKY[t], a)


def inv(a):
    a, t = _square(a)
    return _under(_SINGULAR, _INV[t], a)
