"""jcone.lapack against numpy.linalg: the same bytes, dtypes and errors,
whatever the caller's error state, and no other module of the library
reaching the four routines around it, nor entering numpy's errstate.
Single precision is computed and returned in double, so float32 and
complex64 input gets the bytes numpy.linalg gives its widening, from each
LAPACK routine and from each cone operation on raw input."""

import ast
import re
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import LinAlgError

import jcone.lapack
from jcone.geometry import geodesic_distance
from jcone.jcalc import (log_J, polar_decompose_bullet, pow_J, random_invertible, random_kj,
                         random_pj)
from jcone.jstruct import Signature, is_in_U_J, is_j_positive, phi_J, sharp
from jcone.matcore import QMatrix, fnorm, psi_matrix
from jcone.means import (arithmetic_mean_J, commuting_bullet_mean, harmonic_mean_J,
                         maximality_check, weighted_mean)
from jcone.order import j_leq, loewner_leq

ROUTINES = ("eigh", "eigvalsh", "cholesky", "inv")
SRC = Path(jcone.lapack.__file__).parent


def _positive_definite(field, shape, rng):
    """Hermitian positive definite matrices of the given shape over R and C,
    and over H their embeddings Psi, of twice the size."""
    def part():
        return rng.standard_normal(shape)
    if field == "H":
        a, b = part() + 1j * part(), part() + 1j * part()
        G = psi_matrix(QMatrix(a, b))
    else:
        G = part() + 1j * part() if field == "C" else part()
    return G @ G.conj().mT + np.eye(G.shape[-1])


def _inputs():
    rng = np.random.default_rng(7)
    out = {f"{field}-{stack}": _positive_definite(field, shape, rng)
           for field in ("R", "C", "H") for stack, shape in (("lone", (3, 3)),
                                                             ("stacked", (4, 3, 3)))}
    out["float32"] = out["R-lone"].astype(np.float32)
    out["complex64"] = out["C-stacked"].astype(np.complex64)
    out["int"] = np.array([[4, 1, 0], [1, 3, -1], [0, -1, 2]])
    scale = 10.0 ** np.array([-150, 0, 150])
    out["wide-scale"] = scale[:, None] * out["C-lone"] * scale
    return out


INPUTS = _inputs()


def _parts(result):
    return tuple(result) if isinstance(result, tuple) else (result,)


@pytest.mark.parametrize("name", sorted(INPUTS))
@pytest.mark.parametrize("routine", ROUTINES)
def test_same_bytes_and_dtypes_as_numpy(routine, name):
    a = INPUTS[name]
    ours = _parts(getattr(jcone.lapack, routine)(a))
    if a.dtype.char in "fF":   # single precision: numpy.linalg on its double widening
        a = a.astype(np.result_type(a.dtype, np.float64))
    theirs = _parts(getattr(np.linalg, routine)(a))
    assert [(x.dtype, x.shape) for x in ours] == [(y.dtype, y.shape) for y in theirs]
    assert [x.tobytes() for x in ours] == [y.tobytes() for y in theirs]


def _single_image(Z, sig):
    """JZ in the precision of Z: its last q rows negated, exactly."""
    out = Z.copy()
    out[sig.p:] *= -1
    return out


SP_SIG = Signature(2, 1)

# Each output of the cone operations, by name, on the raw single-precision
# matrices r: X and Y (J-positive), their images JX and JY, M (J-Hermitian)
# and g (J-unitary), each passed through entry first: as it is, or widened
# to double.  A and B are the members certified from r's X and Y, and
# C = A^0.7_J bullet-commutes with A.
SINGLE_PRECISION_OUTPUTS = {
    "jx": lambda r, A, B, C: A.jx,
    "weighted_mean_t0.5": lambda r, A, B, C: weighted_mean(A, B, 0.5).mean.matrix,
    "weighted_mean_t0.3": lambda r, A, B, C: weighted_mean(A, B, 0.3).mean.matrix,
    "riccati_residual": lambda r, A, B, C: weighted_mean(A, B, 0.5).riccati_residual,
    "geodesic_distance": lambda r, A, B, C: geodesic_distance(A, B),
    "pow_J_t0.3": lambda r, A, B, C: pow_J(A, 0.3).matrix,
    "pow_J_t2": lambda r, A, B, C: pow_J(A, 2.0).matrix,
    "log_J": lambda r, A, B, C: log_J(A),
    "lambda_min_of_jx": lambda r, A, B, C: A.lambda_min_of_jx,
    "fnorm": lambda r, A, B, C: fnorm(A.matrix),
    "arithmetic_mean_J": lambda r, A, B, C: arithmetic_mean_J(A, B, 0.3).matrix,
    "harmonic_mean_J": lambda r, A, B, C: harmonic_mean_J(A, B, 0.3).matrix,
    "commuting_bullet_mean": lambda r, A, B, C: commuting_bullet_mean(A, C, 0.3).matrix,
    "j_leq_members": lambda r, A, B, C: j_leq(A, B).margin,
    "j_leq_raw": lambda r, A, B, C: j_leq(r["X"], r["Y"], SP_SIG).margin,
    "loewner_leq": lambda r, A, B, C: loewner_leq(r["JX"], r["JY"]).margin,
    "maximality_check": lambda r, A, B, C: maximality_check(r["M"], A, B).margin,
    "sharp": lambda r, A, B, C: sharp(r["X"], SP_SIG),
    "phi_J": lambda r, A, B, C: phi_J(r["X"], SP_SIG),
    "is_in_U_J": lambda r, A, B, C: is_in_U_J(r["g"], SP_SIG, 1e-6),
}


def _single_precision_outputs(single, entry):
    field = "C" if single is np.complex64 else "R"
    X, Y = (random_pj(SP_SIG, field, seed).matrix.astype(single) for seed in (3, 13))
    A, B = (is_j_positive(Z.astype(np.result_type(single, np.float64)), SP_SIG)
            for Z in (X, Y))
    raw = {"X": X, "Y": Y, "JX": _single_image(X, SP_SIG), "JY": _single_image(Y, SP_SIG),
           "M": weighted_mean(A, B, 0.5).mean.matrix.astype(single),
           "g": random_kj(SP_SIG, field, 5).astype(single)}
    raw = {k: entry(v) for k, v in raw.items()}
    A, B = (is_j_positive(raw[k], SP_SIG) for k in "XY")
    C = pow_J(A, 0.7)
    return {name: np.asarray(out(raw, A, B, C))
            for name, out in SINGLE_PRECISION_OUTPUTS.items()}


@pytest.mark.parametrize("single", [np.float32, np.complex64])
def test_single_precision_gives_its_double_widenings_bytes(single):
    # Raw input is widened where J or the Hermitian test first reads it, so
    # every output has the dtype and the bytes of the double widening's.
    ours = _single_precision_outputs(single, lambda Z: Z)
    wide = _single_precision_outputs(single, lambda Z: Z.astype(np.result_type(Z, np.float64)))
    assert {k: (x.dtype, x.tobytes()) for k, x in ours.items()} == \
        {k: (x.dtype, x.tobytes()) for k, x in wide.items()}
    assert ours["jx"].dtype == np.result_type(single, np.float64)
    assert ours["riccati_residual"] < (3e-12 if single is np.float32 else 1e-13)
    assert ours["is_in_U_J"] and ours["maximality_check"] > -1e-6


_SMALL = np.array([[4, 1, 0], [1, 3, 0], [0, 0, -2]])


@pytest.mark.parametrize("X, sig", [(_SMALL, Signature(2, 1)),
                                    (_SMALL.astype(np.float16), Signature(2, 1)),
                                    (np.eye(3, dtype=bool), Signature(3, 0))],
                         ids=["int64", "float16", "bool"])
def test_integer_and_half_precision_input_is_certified_in_double(X, sig):
    ours, wide = is_j_positive(X, sig), is_j_positive(X.astype(np.float64), sig)
    assert ours.jx.dtype == np.float64 and ours.jx.tobytes() == wide.jx.tobytes()
    assert ours.lambda_min_of_jx == wide.lambda_min_of_jx


@pytest.mark.parametrize("single", [np.float32, np.complex64])
def test_single_precision_polar_gives_its_double_widenings_bytes(single):
    sig = Signature(2, 1)
    g = random_invertible(sig, "C" if single is np.complex64 else "R", 5).astype(single)
    ours = polar_decompose_bullet(g, sig)
    wide = polar_decompose_bullet(g.astype(np.result_type(single, np.float64)), sig)
    assert [x.dtype for x in (ours[0], ours[1].matrix)] == [wide[0].dtype] * 2
    assert ours[0].tobytes() == wide[0].tobytes()
    assert ours[1].matrix.tobytes() == wide[1].matrix.tobytes()


FAILURES = [("cholesky", np.array([[1.0, 2.0], [2.0, 1.0]])),
            ("inv", np.zeros((2, 2))),
            ("eigvalsh", np.full((3, 3), np.nan) + 0j)]
FAILURES += [(routine, bad) for routine in ROUTINES
             for bad in (np.ones((2, 3)), np.ones(3), np.ones((2, 2), dtype=np.float16))]


def _numpy_error(routine, a):
    """The type and message of the error numpy.linalg raises on a."""
    with pytest.raises((LinAlgError, TypeError)) as theirs:
        getattr(np.linalg, routine)(a)
    return theirs.type, str(theirs.value)


def _raises(error, routine, a):
    with pytest.raises(error[0], match=f"^{re.escape(error[1])}$"):
        getattr(jcone.lapack, routine)(a)


@pytest.mark.parametrize("routine, a", FAILURES)
def test_same_error_as_numpy(routine, a):
    _raises(_numpy_error(routine, a), routine, a)


def _keeps_the_callers_state(routine, a, error):
    """Under a caller's state that raises on every error: the routine
    succeeds on a good input and raises numpy's error on a, with no warning,
    and the caller's state is the same after each."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            caller = np.geterr()
            getattr(jcone.lapack, routine)(INPUTS["C-stacked"])
            assert np.geterr() == caller
            _raises(error, routine, a)
            assert np.geterr() == caller


@pytest.mark.parametrize("routine, a", FAILURES)
@pytest.mark.parametrize("in_worker", [False, True])
def test_errors_keep_a_callers_error_state(routine, a, in_worker):
    # numpy keeps an error state per thread (a context variable).
    error = _numpy_error(routine, a)
    if in_worker:
        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(_keeps_the_callers_state, routine, a, error).result()
    else:
        _keeps_the_callers_state(routine, a, error)


def test_no_errstate_in_the_library():
    # Each error state is built once, at import, and entered by
    # stacks._under: numpy's errstate builds one on every entry.
    found = [(path.name, node.lineno) for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "errstate"
             or isinstance(node, ast.alias) and node.name == "errstate"]
    assert found == []


# The calls the source may make on numpy.linalg itself for the four routines:
# propcheck's two oracles, which check the library against numpy.
ORACLE = "# independent oracle"


def test_only_lapack_calls_numpy_linalg_for_its_routines():
    # Every other module reaches them through jcone.lapack, so the count
    # pins of the tests and the bench's lapack.* counts see every call.
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "lapack.py":
            continue
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.linalg"):
                names = {alias.name for alias in node.names}
                assert not names & {"linalg", *ROUTINES}, (path.name, node.lineno)
            if (isinstance(node, ast.Attribute) and node.attr in ROUTINES
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
                found.append((path.name, node.attr, lines[node.lineno - 1].endswith(ORACLE)))
    assert sorted(found) == [("propcheck.py", "eigh", True), ("propcheck.py", "inv", True)]
