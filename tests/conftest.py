"""Fixtures shared by the test modules."""

import sys

import numpy as np
import pytest

import jcone.lapack
import jcone.matcore

# Where each counted routine is reached: the four of jcone.lapack, which the
# library calls for every Hermitian factorization and inverse, and the rest
# on numpy.linalg.
COUNTED = {jcone.lapack: ("eigh", "eigvalsh", "cholesky", "inv"),
           np.linalg: ("svd", "qr", "solve")}


@pytest.fixture
def lapack_calls(monkeypatch):
    """The list of the routines called since the test cleared it, by name, in
    call order."""
    calls = []
    for owner, names in COUNTED.items():
        for name in names:
            def counted(*args, _routine=getattr(owner, name), _name=name, **kwargs):
                calls.append(_name)
                return _routine(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.fixture
def hermitian_tests(monkeypatch):
    """The list of the calls of matcore's one Hermitian test,
    _check_hermitian, since the test cleared it: one entry each, the size of
    the matrix tested, in every module that imported the test."""
    calls = []
    real = jcone.matcore._check_hermitian

    def counted(X, *args, **kwargs):
        calls.append(X.shape[-1])
        return real(X, *args, **kwargs)
    for name, module in list(sys.modules.items()):
        if name.startswith("jcone") and getattr(module, "_check_hermitian", None) is real:
            monkeypatch.setattr(module, "_check_hermitian", counted)
    return calls
