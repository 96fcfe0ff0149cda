"""jcone.lapack against numpy.linalg: the same bytes, dtypes and errors,
whatever the caller's error state, and no other module of the library
reaching the four routines around it, nor entering numpy's errstate.
Single precision is computed and returned in double, so float32 and
complex64 input gets the bytes numpy.linalg gives its widening."""

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
from jcone.jcalc import log_J, polar_decompose_bullet, pow_J, random_invertible, random_pj
from jcone.jstruct import Signature, is_j_positive
from jcone.matcore import QMatrix, fnorm, psi_matrix
from jcone.means import weighted_mean

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


def _single_precision_outputs(A, B):
    """The outputs of a pair's cone operations, each as an array."""
    half = weighted_mean(A, B, 0.5)
    outputs = [half.mean.matrix, weighted_mean(A, B, 0.3).mean.matrix, half.riccati_residual,
               geodesic_distance(A, B), pow_J(A, 0.3).matrix, pow_J(A, 2.0).matrix,
               log_J(A), A.lambda_min_of_jx, fnorm(A.matrix)]
    return [np.asarray(x) for x in outputs]


@pytest.mark.parametrize("single", [np.float32, np.complex64])
def test_single_precision_gives_its_double_widenings_bytes(single):
    sig = Signature(2, 1)
    field = "C" if single is np.complex64 else "R"
    pair = [random_pj(sig, field, seed).matrix.astype(single) for seed in (3, 13)]
    ours = _single_precision_outputs(*(is_j_positive(X, sig) for X in pair))
    wide = _single_precision_outputs(*(is_j_positive(X.astype(np.result_type(single, np.float64)),
                                                     sig) for X in pair))
    assert [(x.dtype, x.tobytes()) for x in ours] == [(x.dtype, x.tobytes()) for x in wide]
    assert ours[2] < (3e-12 if field == "R" else 1e-13)   # the residual at t = 1/2


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
