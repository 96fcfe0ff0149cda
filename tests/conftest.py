"""Fixtures shared by the test modules."""

import numpy as np
import pytest

import jcone.lapack

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
