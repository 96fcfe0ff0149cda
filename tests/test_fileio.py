import json

import numpy as np
import pytest

from jcone.fileio import (canonical_dumps, matrix_to_payload,
                          payload_to_matrix, read_matrix, write_matrix)
from jcone.matcore import QMatrix, allclose


def random_mat(n, field, rng):
    if field == "R":
        return rng.standard_normal((n, n))
    if field == "C":
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return QMatrix(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
                   rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


class TestPayload:
    def test_round_trip_all_fields(self):
        rng = np.random.default_rng(0)
        for field in ("R", "C", "H"):
            X = random_mat(3, field, rng)
            Y = payload_to_matrix(matrix_to_payload(X))
            assert allclose(X, Y, tol=0.0)

    def test_shape_mismatch_rejected(self):
        payload = matrix_to_payload(np.eye(2))
        payload["rows"] = 3
        with pytest.raises(ValueError):
            payload_to_matrix(payload)


class TestCanonicalJson:
    def test_sorted_keys_compact(self):
        assert canonical_dumps({"b": 1, "a": [True, None]}) == '{"a":[true,null],"b":1}'

    def test_float_formatting(self):
        assert canonical_dumps(0.1) == "0.10000000000000001"
        assert canonical_dumps(1.0) == "1"
        assert canonical_dumps(-2.5) == "-2.5"

    def test_lossless_floats(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            x = float(rng.standard_normal() * 10.0 ** rng.integers(-8, 8))
            assert json.loads(canonical_dumps(x)) == x

    def test_serialize_parse_serialize_stable(self):
        rng = np.random.default_rng(2)
        for field in ("R", "C", "H"):
            X = random_mat(2, field, rng)
            first = canonical_dumps(matrix_to_payload(X))
            reparsed = payload_to_matrix(json.loads(first))
            second = canonical_dumps(matrix_to_payload(reparsed))
            assert first == second

    def test_zero_of_either_sign(self):
        assert canonical_dumps([0.0, -0.0, [-0.0, 0.0]]) == "[0,0,[0,0]]"
        payload = matrix_to_payload(np.array([[1.0, -0.0], [-0.0, -1.0]]))
        assert canonical_dumps(payload["data"]) == "[[1,0],[0,-1]]"

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            canonical_dumps(float("nan"))


class TestFiles:
    def test_write_read(self, tmp_path):
        rng = np.random.default_rng(3)
        for field in ("R", "C", "H"):
            X = random_mat(3, field, rng)
            path = tmp_path / f"m_{field}.json"
            write_matrix(str(path), X)
            assert allclose(read_matrix(str(path)), X, tol=0.0)

    def test_byte_stability(self, tmp_path):
        rng = np.random.default_rng(4)
        X = random_mat(2, "C", rng)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_matrix(str(p1), X)
        write_matrix(str(p2), read_matrix(str(p1)))
        assert p1.read_bytes() == p2.read_bytes()
