"""The four LAPACK routines jcone factors with, called as numpy.linalg's own
gufuncs without numpy.linalg's per-call wrapper.

At n = 3 that wrapper (array and type checks, result casts) costs more than
the factorization it wraps.  Here each routine calls the gufunc numpy.linalg
calls, with the signature and the error state it uses, so results are
bit-identical and a failure raises LinAlgError with numpy's message.  Input
that is not a stack of square matrices raises numpy's LinAlgError, and
float32 and complex64 input gets numpy's result dtypes.

bench/tracing.py keys a jcone function by module and name, so this module
and its public names make the per-layer counts lapack.eigh, lapack.eigvalsh,
lapack.cholesky and lapack.inv.  matcore calls them as lapack.<name>.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg


def _errstate(message: str):
    def fail(err, flag):
        raise LinAlgError(message)
    return np.errstate(call=fail, invalid="call", over="ignore", divide="ignore",
                       under="ignore")


# numpy.linalg computes single precision in double and narrows the results.
_WIDE = {"d": "d", "D": "D", "f": "d", "F": "D"}


def _square(a):
    """(a as an array, 'D' if it is complex else 'd')."""
    a = np.asarray(a)
    if a.ndim < 2:
        raise LinAlgError(f"{a.ndim}-dimensional array given. Array must be at least "
                          "two-dimensional")
    if a.shape[-2] != a.shape[-1]:
        raise LinAlgError("Last 2 dimensions of the array must be square")
    t = _WIDE.get(a.dtype.char)
    if t is None:
        if a.dtype.kind in "fc":
            raise TypeError(f"array type {a.dtype.name} is unsupported in linalg")
        t = "d"
    return a, t


def _narrow(r, a, real=False):
    """r as numpy.linalg returns it for input a: single precision for float32
    and complex64 input, real for eigenvalues."""
    if a.dtype.char not in "fF":
        return r
    return r.astype(np.float32 if real else a.dtype)


@_errstate("Eigenvalues did not converge")
def eigh(a):
    """(ascending eigenvalues, eigenvectors) from the lower triangle of a."""
    a, t = _square(a)
    w, v = _umath_linalg.eigh_lo(a, signature=f"{t}->d{t}")
    return _narrow(w, a, real=True), _narrow(v, a)


@_errstate("Eigenvalues did not converge")
def eigvalsh(a):
    """Ascending eigenvalues from the lower triangle of a."""
    a, t = _square(a)
    return _narrow(_umath_linalg.eigvalsh_lo(a, signature=f"{t}->d"), a, real=True)


@_errstate("Matrix is not positive definite")
def cholesky(a):
    """Lower Cholesky factor of a, read from its lower triangle."""
    a, t = _square(a)
    return _narrow(_umath_linalg.cholesky_lo(a, signature=f"{t}->{t}"), a)


@_errstate("Singular matrix")
def inv(a):
    a, t = _square(a)
    return _narrow(_umath_linalg.inv(a, signature=f"{t}->{t}"), a)
