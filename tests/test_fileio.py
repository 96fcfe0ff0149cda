import hashlib
import json

import numpy as np
import pytest

from jcone.cli import main
from jcone.fileio import (canonical_dumps, matrix_to_payload,
                          payload_to_matrix, read_matrix, write_matrix)
from jcone.matcore import QMatrix, allclose, field_of
from jcone.scalars import Quaternion


def random_mat(n, field, rng):
    if field == "R":
        return rng.standard_normal((n, n))
    if field == "C":
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return QMatrix(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
                   rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


SCALES = np.array([1e-3, 0.1, 1.0, 10.0, 1e4])
SPECIAL = np.array([-0.0, 1e-300, 1e300, 2.0, -3.0, 0.0])
WIDTH = {"R": 1, "C": 2, "H": 4}


def fixed_mat(n, field):
    """An n x n matrix whose entries' real parts are exact quotients over a
    range of scales, every third one replaced by a value of SPECIAL.  Its
    bits depend on no random stream or libm."""
    k = np.arange(n * n * WIDTH[field])
    parts = ((k * 7919.0) % 10007.0 - 5003.0) / 997.0 * SCALES[k % 5]
    parts[::3] = SPECIAL[np.arange(parts[::3].size) % 6]
    if field == "R":
        return parts.reshape(n, n)
    z = parts.view(complex).reshape(n, n, -1)
    return z[..., 0] if field == "C" else QMatrix(z[..., 0], z[..., 1])


def reference_dumps(X) -> str:
    """The per-entry writer the array codec replaced: one scalar per entry,
    then a walk that formats one float at a time."""
    field = field_of(X)

    def entry(x):
        if field == "R":
            return float(x)
        if field == "C":
            return [x.real, x.imag]
        return [x.a, x.b, x.c, x.d]

    def dumps(obj):
        if isinstance(obj, dict):
            return "{" + ",".join(f"{json.dumps(k)}:{dumps(v)}"
                                  for k, v in sorted(obj.items())) + "}"
        if isinstance(obj, list):
            return "[" + ",".join(dumps(v) for v in obj) + "]"
        if isinstance(obj, int):
            return str(obj)
        if isinstance(obj, str):
            return json.dumps(obj)
        return "0" if obj == 0.0 else format(float(obj), ".17g")

    rows, cols = X.shape
    data = [[entry(X[i, j]) for j in range(cols)] for i in range(rows)]
    return dumps({"field": field, "rows": rows, "cols": cols, "data": data})


def reference_read(payload):
    """The per-entry reader the array codec replaced."""
    field, data = payload["field"], payload["data"]
    if field == "R":
        return np.array([[float(v) for v in row] for row in data])
    if field == "C":
        return np.array([[complex(re, im) for re, im in row] for row in data])
    return QMatrix(np.array([[complex(a, b) for a, b, _, _ in row] for row in data]),
                   np.array([[complex(c, d) for _, _, c, d in row] for row in data]))


def bits(X) -> tuple:
    M = X.m if isinstance(X, QMatrix) else X
    return M.dtype, M.shape, M.tobytes()


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

    @pytest.mark.parametrize("field, data, want", [
        ("R", [[10 ** 20]], [[1e20]]),
        ("R", [[-(2 ** 70) - 1, 0.5]], [[-(2.0 ** 70), 0.5]]),
        ("C", [[[10 ** 20, -3]]], [[1e20 - 3j]]),
    ])
    def test_integers_of_any_size_read_as_floats(self, field, data, want):
        # Read as floats, as read_matrix reads them, not refused as non-numbers.
        payload = {"field": field, "rows": 1, "cols": len(data[0]), "data": data}
        got = payload_to_matrix(payload)
        assert bits(got) == bits(np.array(want, dtype=got.dtype))

    @pytest.mark.parametrize("bad", ["1.5", None, True])
    def test_non_numbers_beside_large_integers_rejected(self, bad):
        payload = {"field": "R", "rows": 1, "cols": 2, "data": [[10 ** 20, bad]]}
        with pytest.raises(ValueError, match="data is not 1 rows of 2 R entries"):
            payload_to_matrix(payload)
        payload["data"] = [[bad, bad]]
        with pytest.raises(ValueError, match="data is not 1 rows of 2 R entries"):
            payload_to_matrix(payload)


class TestJsonEncoding:
    # One entry of each field, as the payload holds it and as it reads back.
    @staticmethod
    def payload(field, entry):
        return {"field": field, "rows": 1, "cols": 1, "data": [[entry]]}

    def test_real(self):
        assert matrix_to_payload(np.array([[1.5]])) == self.payload("R", 1.5)
        assert payload_to_matrix(self.payload("R", 1.5))[0, 0] == 1.5

    def test_complex(self):
        assert matrix_to_payload(np.array([[1 + 2j]])) == self.payload("C", [1.0, 2.0])
        assert payload_to_matrix(self.payload("C", [1.0, 2.0]))[0, 0] == 1 + 2j

    def test_quaternion(self):
        q = Quaternion(1, 2, 3, 4)
        X = QMatrix.from_quaternions([[q]])
        assert matrix_to_payload(X) == self.payload("H", [1.0, 2.0, 3.0, 4.0])
        assert payload_to_matrix(self.payload("H", [1.0, 2.0, 3.0, 4.0]))[0, 0].isclose(q)


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

    def test_mixed_lists_and_literal_percent(self):
        # Ints, bools and floats side by side keep their own forms; a % in a
        # key or string is no format field.
        assert (canonical_dumps({"%d": [1, 2.0, True, "50%", -0.0, 10 ** 20]})
                == '{"%d":[1,2,true,"50%",0,100000000000000000000]}')

    @pytest.mark.parametrize("field, bad", [("R", float("nan")),
                                            ("C", [0.0, float("inf")]),
                                            ("H", [0.0, 0.0, float("-inf"), 0.0])])
    def test_non_finite_entry_named(self, field, bad):
        payload = matrix_to_payload(random_mat(3, field, np.random.default_rng(5)))
        payload["data"][2][1] = bad
        with pytest.raises(ValueError, match="non-finite entry at row 2, column 1"):
            payload_to_matrix(payload)


class TestFixedBytes:
    # The writer's output on fixed_mat, copied from the per-entry writer.
    N3 = {
        "R": '{"cols":3,"data":[[0,0.29247743229689072,0.83049147442326976],'
             '[1e-300,-33580.742226680035,0.0045847542627883656],'
             '[1.0000000000000001e+300,0.39618856569709127,-16.980942828485457]],'
             '"field":"R","rows":3}',
        "C": '{"cols":3,"data":[[[0,0.29247743229689072],[0.83049147442326976,1e-300],'
             '[-33580.742226680035,0.0045847542627883656]],'
             '[[1.0000000000000001e+300,0.39618856569709127],[-16.980942828485457,2],'
             '[0.0041504513540621861,0.20561685055165496]],'
             '[[-3,-21.323971915747244],[-42266.800401203611,0],'
             '[0.16218655967903711,-0.47241725175526578]]],"field":"C","rows":3}',
        "H": '{"cols":3,"data":[[[0,0.29247743229689072,0.83049147442326976,1e-300],'
             '[-33580.742226680035,0.0045847542627883656,1.0000000000000001e+300,'
             '0.39618856569709127],[-16.980942828485457,2,0.0041504513540621861,'
             '0.20561685055165496]],[[-3,-21.323971915747244,-42266.800401203611,0],'
             '[0.16218655967903711,-0.47241725175526578,0,-46609.829488465395],'
             '[0.0032818455366098297,1e-300,-0.90672016048144433,-30.01003009027081]],'
             '[[1.0000000000000001e+300,0.0028475426278836511,0.075325977933801413,2],'
             '[-34.3530591775326,45075.225677031092,-3,0.031895687061183557],'
             '[-1.7753259779338013,0,40732.196589769308,0.0019789368104312938]]],'
             '"field":"H","rows":3}',
    }
    # SHA-256 and length of the same at n=64.
    N64 = {
        "R": ("14f82e39332e0ba01c6d72265aa327aa7dcd14fd239954da0cd1634ab81e61a7", 64713),
        "C": ("5bdfcc287f13cfb16e50db463f4c83bd33e6a02165b8dab688a8d659d886d56e", 137505),
        "H": ("a0ed721c4ed8d4ddaa333c5964016d9e451c3299e19b2101333be75e929c6c3b", 266642),
    }

    @pytest.mark.parametrize("field", ["R", "C", "H"])
    def test_n3(self, field):
        X = fixed_mat(3, field)
        assert canonical_dumps(matrix_to_payload(X)) == self.N3[field]
        assert reference_dumps(X) == self.N3[field]

    @pytest.mark.parametrize("field", ["R", "C", "H"])
    def test_n64(self, field):
        X = fixed_mat(64, field)
        text = canonical_dumps(matrix_to_payload(X))
        assert (hashlib.sha256(text.encode()).hexdigest(), len(text)) == self.N64[field]
        assert text == reference_dumps(X)

    @pytest.mark.parametrize("n", [3, 64])
    @pytest.mark.parametrize("field", ["R", "C", "H"])
    def test_read_bits(self, field, n, tmp_path):
        # The reader gives the per-entry reader's arrays bit for bit, the
        # sign of each zero included.
        X = fixed_mat(n, field)
        path = tmp_path / "x.json"
        path.write_text(json.dumps(matrix_to_payload(X)))
        assert bits(read_matrix(str(path))) == bits(reference_read(json.loads(path.read_text())))
        assert bits(read_matrix(str(path))) == bits(X)

    def test_read_integer_literals(self, tmp_path):
        # Integers in a hand-written file, past int64 and uint64 too, read as
        # the floats the per-entry reader made of them.
        path = tmp_path / "ints.json"
        data = [[-3, 2 ** 63], [10 ** 20, -(2 ** 70) - 1]]
        path.write_text(json.dumps({"field": "R", "rows": 2, "cols": 2, "data": data}))
        assert bits(read_matrix(str(path))) == bits(reference_read(json.loads(path.read_text())))


class TestMalformed:
    CASES = {
        "complex entry of three numbers": ("C", 1, [[[1.0, 2.0, 3.0]]]),
        "real entry given as a list": ("R", 1, [[[1.0, 2.0]]]),
        "ragged rows": ("R", 2, [[1.0, 0.0], [0.0]]),
        "ragged entries": ("H", 1, [[[1.0, 2.0, 3.0]]]),
        "unknown field": ("Q", 1, [[1.0]]),
        "word entry": ("C", 1, [[["one", 2.0]]]),
        "numeral entry": ("R", 1, [["1.5"]]),
        "null entry": ("H", 1, [[[1.0, None, 0.0, 0.0]]]),
        "boolean beside a float": ("R", 2, [[1.5, True], [0.0, 1.0]]),
        "boolean part of a complex entry": ("C", 1, [[[1.0, True]]]),
        "boolean part of a quaternion entry": ("H", 1, [[[1.0, 0.0, False, 0.0]]]),
    }

    @staticmethod
    def put(tmp_path, payload) -> str:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def check(self, path, match, capsys):
        with pytest.raises(ValueError, match=match):
            read_matrix(path)
        code = main(["pow", "--x", path, "-t", "0.5", "--signature", "1,0"])
        assert code == 2 and match in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejected(self, case, tmp_path, capsys):
        field, n, data = self.CASES[case]
        path = self.put(tmp_path, {"field": field, "rows": n, "cols": n, "data": data})
        self.check(path, "unknown field" if field == "Q" else "data is not", capsys)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["R", "C", "H"])
    def test_non_finite(self, field, value, tmp_path, capsys):
        payload = matrix_to_payload(fixed_mat(3, field))
        if field == "R":
            payload["data"][1][2] = value
        else:
            payload["data"][1][2][-1] = value
        self.check(self.put(tmp_path, payload), "non-finite entry at row 1, column 2", capsys)


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

    def test_quaternionic_file_makes_no_quaternion(self, tmp_path, monkeypatch):
        def forbidden(self, *args, **kwargs):
            raise AssertionError("a Quaternion was constructed")

        monkeypatch.setattr(Quaternion, "__init__", forbidden)
        with pytest.raises(AssertionError):
            Quaternion(1.0)
        X = fixed_mat(8, "H")
        path = tmp_path / "h.json"
        write_matrix(str(path), X)
        assert np.array_equal(read_matrix(str(path)).m, X.m)
