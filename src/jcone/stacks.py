"""The stack contract, stated once, and the helpers that keep it.  This
module imports no other jcone module, so every one of them can import it.

Every function of jcone takes a stack of matrices, shape (..., n, n) (over H
a QMatrix whose embedding is (..., 2n, 2n)), as well as one matrix, and a
one-matrix call is the stack of no leading axes, on the same code.  Each
member of a stack gets, bit for bit, what a call on it alone gets: numpy's
factorizations and products loop over the leading axes, a norm takes each
member's dot products as for one matrix (_norm), and a power raises each
member by its own scalar exponent, a grid row by its one (power), and a
function of eigenvalues takes them contiguous, never as a reversed view,
whose loop numpy picks by its shape.

A per-member value (a norm, a verdict, an eigenvalue bound) is an array over
the leading axes, and a Python float or bool for one matrix (_out); the
helpers here take either, and take a scalar by Python's own operations.  A
per-member scalar operand broadcasts over the matrices through per_member.
Tests fail a stack when one member fails them, naming the first
(errors.require).  A step that a lone call takes only for some inputs runs on
just those members (select), and its per-member results are put back among
the others' (scatter).  member(x, i) is member i, or the members a mask
selects, of whatever holds one value per member: a stack of matrices, of
cone members or of generators (by a mask only), or a dict of them.
"""

import math
from itertools import product

import numpy as np
from numpy._core.umath import _extobj_contextvar, _make_extobj

# Each of the four floating-point errors ignored, whatever the caller's state.
_IGNORED = _make_extobj(all="ignore")


def _under(state, f, *args):
    """f(*args) under a numpy error state built once by _make_extobj, entered
    as numpy's errstate enters the one it builds: per thread, undone after f."""
    token = _extobj_contextvar.set(state)
    try:
        return f(*args)
    finally:
        _extobj_contextvar.reset(token)


def _double(x):
    """x with integers, booleans and half or single precision widened exactly
    to double; double and a QMatrix pass as they are.  Raw input meets it
    where the library first reads it."""
    narrow = isinstance(x, np.ndarray) and x.dtype.char not in "dD"
    return x.astype(np.result_type(x.dtype, np.float64)) if narrow else x


def _array(x):
    """A nested list as the array numpy makes of it; any other operand as it is."""
    return np.asarray(x) if type(x) is list else x


def _out(x):
    """A per-member value as returned: the array over a stack, a Python
    scalar for one matrix."""
    if type(x) is np.ndarray:
        return x if x.ndim else x.item()
    return x.item() if isinstance(x, np.generic) else x


def _real(s):
    """A real scalar as a float, or an array of them as a float array."""
    return np.asarray(s, dtype=float) if isinstance(s, np.ndarray) and s.ndim else float(s)


def per_member(s):
    """One scalar per member of a stack as a factor that broadcasts over its
    matrices; a scalar stays as it is."""
    return s[..., None, None] if isinstance(s, np.ndarray) and s.ndim else s


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


def member(x, i):
    """Member i of x, or the members a mask over its leading axes selects:
    x.member(i) where x has that method (QMatrix, JPositive, and
    GeneratorStack, which takes a mask), an array indexed, a dict entry by
    entry; any other value, one for all members, as it is."""
    if hasattr(x, "member"):
        return x.member(i)
    if isinstance(x, np.ndarray) and x.ndim:
        return x[i]
    if isinstance(x, dict):
        return {k: member(v, i) for k, v in x.items()}
    return x


def select(x, mask):
    """The members of x where mask holds; x itself where every member's
    mask holds, so one matrix or value passes whole."""
    return x if all_of(mask) else member(x, mask)


def scatter(mask, values, base):
    """values, given for the members where mask holds, put among the others:
    base is one value for every other member, or a stack of values or
    matrices, which is written into.  values itself where every member's
    mask holds.  With select, a step runs on just the members that need it."""
    if all_of(mask):
        return values
    out = np.full(np.shape(mask), base) if np.isscalar(base) else base
    out[mask] = values
    return out


def _norm(M: np.ndarray):
    """Frobenius norm of a matrix, or of each member of a stack, bit for bit
    np.linalg.norm's: a matrix raveled as ravel(order="K") ravels it and its
    sum of squares taken by the BLAS dot (_row_norms).  A stack of C-ordered
    members (every stack the cone operations build) is raveled in one
    reshape; any other stack is taken member by member, each alone."""
    M = np.asarray(M)
    if M.ndim == 2:
        return _row_norms(M.ravel(order="K"))
    (r, c), size = M.shape[-2:], M.itemsize
    if (r < 2 or M.strides[-2] == c * size) and (c < 2 or M.strides[-1] == size):
        return _row_norms(M.reshape(M.shape[:-2] + (-1,)))
    return np.array([_norm(m) for m in M]).reshape(M.shape[:-2])


def _sum_of_squares(x: np.ndarray, dot):
    # The real and imaginary parts apart, as np.linalg.norm takes them.
    if x.dtype.kind == "c":
        return dot(x.real, x.real) + dot(x.imag, x.imag)
    return dot(x, x)


def _row_norms(x: np.ndarray):
    """The 2-norm of each row of x (..., m), a float for one row.  A row
    whose sum of squares overflows is taken again as s ||x / s|| with s its
    largest |entry|, so finite entries give a finite norm wherever the norm
    itself is finite."""
    x = _double(x)
    if x.ndim > 1:
        # np.vecdot takes each row's dot as np.vdot takes one row's, but
        # warns when it overflows.
        nrm = np.sqrt(_under(_IGNORED, _sum_of_squares, x, np.vecdot))
        if math.inf in nrm.tolist():
            for i in zip(*np.nonzero(nrm == math.inf)):
                nrm[i] = _row_norms(x[i])
        return nrm
    # One row takes np.vdot, which does not warn, so it needs no error state.
    nrm = math.sqrt(_sum_of_squares(x, np.vdot))
    if nrm == math.inf:
        s = float(np.max(np.abs(x)))
        if s < math.inf:   # an entry far below s underflows in x / s
            nrm = s * _row_norms(_under(_IGNORED, np.divide, x, s))
    return nrm


def power(w: np.ndarray, t) -> np.ndarray:
    """w ** t on eigenvalue vectors w (..., m), t a real exponent or an array
    of them broadcasting against the stack.  One exponent raises the stack in
    one call, and so is a grid row raised, by its scalar exponent: a row of a
    stack of more than one axis along whose last axis t is one value by
    broadcasting, as a (k, 1) grid of powers over k rows of trials is.  Any
    other stack is raised member by member, each by its scalar exponent as a
    lone call raises it: numpy rounds a scalar exponent of 2, -1 or 0.5, and
    a 2-D strided array, by other loops.  Only a t not of the stack's shape
    is broadcast.  The member loop costs a 3-vector 2.8 us against 0.8 us for
    one exponent, and a stack of 3000 3.0 ms against 25 us (2-vCPU x86 VM)."""
    if not (isinstance(t, np.ndarray) and t.ndim):
        return np.power(w, float(t))
    if t.shape != w.shape[:-1]:
        stack = np.broadcast_shapes(w.shape[:-1], t.shape)
        w, t = np.broadcast_to(w, stack + w.shape[-1:]), np.broadcast_to(t, stack)
    if t.ndim > 1 and (t.shape[-1] == 1 or t.strides[-1] == 0):
        t = t[..., 0]
    out = np.empty(w.shape)
    for i, e in zip(product(*map(range, t.shape)), t.ravel().tolist()):
        out[i] = np.power(w[i], e)
    return out
