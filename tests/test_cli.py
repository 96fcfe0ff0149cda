import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from jcone.cli import main
from jcone.fileio import canonical_dumps, write_matrix
from jcone.jcalc import random_pj
from jcone.jstruct import Signature


@pytest.fixture
def fixtures(tmp_path):
    paths = {}

    def put(name, matrix):
        path = tmp_path / f"{name}.json"
        write_matrix(str(path), matrix)
        paths[name] = str(path)

    put("ad", np.diag([2.0, -3.0]))
    put("bd", np.diag([8.0, -27.0]))
    put("pa", np.array([[2.0, 1.0], [-1.0, -2.0]]))
    put("pb", np.array([[3.0, 1.0], [-1.0, -1.0]]))
    put("x", np.diag([3.0, -4.0]))
    put("swap", np.array([[0.0, 1.0], [1.0, 0.0]]))
    paths["tmp"] = str(tmp_path)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMean:
    def test_diagonal_fixture(self, fixtures, capsys):
        code, out, _ = run(capsys, "mean", "--a", fixtures["ad"],
                           "--b", fixtures["bd"], "--signature", "1,1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == '{"cols":2,"data":[[4,0],[0,-9]],"field":"R","rows":2}'
        assert json.loads(lines[1])["riccati_residual"] <= 1e-12

    def test_emit_diff_matches_known_values(self, fixtures, capsys):
        code, out, _ = run(capsys, "mean", "--a", fixtures["pa"],
                           "--b", fixtures["pb"], "--signature", "1,1",
                           "--emit-diff")
        assert code == 0
        data = np.array(json.loads(out.strip())["data"])
        expected = np.array([[0.263207, 0.768429], [-0.857469, -2.50336]])
        np.testing.assert_allclose(data, expected, atol=5e-4)

    def test_equal_inputs(self, fixtures, capsys):
        code, out, _ = run(capsys, "mean", "--a", fixtures["ad"],
                           "--b", fixtures["ad"], "--signature", "1,1")
        assert code == 0
        got = json.loads(out.strip().splitlines()[0])
        np.testing.assert_allclose(np.array(got["data"]),
                                   np.diag([2.0, -3.0]), atol=1e-9)

    def test_byte_stable_output_file(self, fixtures, capsys, tmp_path):
        out1 = tmp_path / "o1.json"
        out2 = tmp_path / "o2.json"
        for out in (out1, out2):
            code, _, _ = run(capsys, "mean", "--a", fixtures["ad"],
                             "--b", fixtures["bd"], "--signature", "1,1",
                             "--out", str(out))
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_membership_failure_exits_2(self, fixtures, capsys):
        code, _, err = run(capsys, "mean", "--a", fixtures["swap"],
                           "--b", fixtures["bd"], "--signature", "1,1")
        assert code == 2
        assert "NotJPositive" in err or "NotJHermitian" in err

    def test_unreadable_file_exits_2(self, fixtures, capsys):
        code, _, err = run(capsys, "mean", "--a", fixtures["tmp"] + "/nope.json",
                           "--b", fixtures["bd"], "--signature", "1,1")
        assert code == 2

    def test_non_finite_entry_exits_2(self, fixtures, capsys, tmp_path):
        # Named by the reader, before any membership test sees it.
        path = tmp_path / "nan.json"
        path.write_text('{"cols":2,"data":[[2,NaN],[0,-3]],"field":"R","rows":2}\n')
        code, _, err = run(capsys, "mean", "--a", str(path),
                           "--b", fixtures["bd"], "--signature", "1,1")
        assert code == 2
        assert "cannot read matrix a" in err and "non-finite" in err
        assert "NotJHermitian" not in err


class TestGeodesic:
    def test_two_samples_are_endpoints(self, fixtures, capsys):
        code, out, _ = run(capsys, "geodesic", "--a", fixtures["ad"],
                           "--b", fixtures["bd"], "--signature", "1,1",
                           "--samples", "2")
        assert code == 0
        samples = json.loads(out.strip())
        np.testing.assert_allclose(np.array(samples[0]["data"]),
                                   np.diag([2.0, -3.0]), atol=1e-9)
        np.testing.assert_allclose(np.array(samples[1]["data"]),
                                   np.diag([8.0, -27.0]), atol=1e-9)

    def test_three_samples_midpoint(self, fixtures, capsys):
        code, out, _ = run(capsys, "geodesic", "--a", fixtures["ad"],
                           "--b", fixtures["bd"], "--signature", "1,1",
                           "--samples", "3")
        assert code == 0
        middle = json.loads(out.strip())[1]
        np.testing.assert_allclose(np.array(middle["data"]),
                                   np.diag([4.0, -9.0]), atol=1e-9)

    def test_bad_sample_count(self, fixtures, capsys):
        code, _, _ = run(capsys, "geodesic", "--a", fixtures["ad"],
                         "--b", fixtures["bd"], "--signature", "1,1",
                         "--samples", "1")
        assert code == 2


class TestPowOrderRiccati:
    def test_pow_of_j_is_j(self, fixtures, capsys, tmp_path):
        jpath = tmp_path / "j.json"
        write_matrix(str(jpath), np.diag([1.0, -1.0]))
        code, out, _ = run(capsys, "pow", "--x", str(jpath), "-t", "7",
                           "--signature", "1,1")
        assert code == 0
        np.testing.assert_allclose(np.array(json.loads(out.strip())["data"]),
                                   np.diag([1.0, -1.0]), atol=1e-12)

    def test_order_holds(self, fixtures, capsys):
        code, out, _ = run(capsys, "order", "--x", fixtures["ad"],
                           "--y", fixtures["x"], "--signature", "1,1")
        assert code == 0
        assert json.loads(out.strip()) == {"holds": True, "margin": 1.0}

    def test_order_violated_exits_1(self, fixtures, capsys):
        code, out, _ = run(capsys, "order", "--x", fixtures["x"],
                           "--y", fixtures["ad"], "--signature", "1,1")
        assert code == 1
        assert not json.loads(out.strip())["holds"]

    def test_riccati(self, fixtures, capsys):
        code, out, _ = run(capsys, "riccati", "--a", fixtures["ad"],
                           "--b", fixtures["bd"], "--signature", "1,1")
        assert code == 0
        lines = out.strip().splitlines()
        np.testing.assert_allclose(np.array(json.loads(lines[0])["data"]),
                                   np.diag([4.0, -9.0]), atol=1e-9)
        assert json.loads(lines[1])["residual"] <= 1e-9


class TestRandCheck:
    def test_rand_deterministic(self, fixtures, capsys):
        _, out1, _ = run(capsys, "rand", "--signature", "1,1", "--field", "C",
                         "--seed", "9")
        _, out2, _ = run(capsys, "rand", "--signature", "1,1", "--field", "C",
                         "--seed", "9")
        assert out1 == out2

    def test_rand_bad_field(self, fixtures, capsys):
        code, _, _ = run(capsys, "rand", "--signature", "1,1", "--field", "X")
        assert code == 2

    def test_check_passes(self, fixtures, capsys):
        code, out, _ = run(capsys, "check", "--suite", "geometry",
                           "--signature", "1,1", "--field", "R",
                           "--trials", "3")
        assert code == 0
        for line in out.strip().splitlines():
            assert json.loads(line)["failures"] == 0

    def test_check_unknown_suite(self, fixtures, capsys):
        code, _, _ = run(capsys, "check", "--suite", "bogus",
                         "--signature", "1,1")
        assert code == 2

    def test_dim_signature_disagreement(self, fixtures, capsys):
        code, _, _ = run(capsys, "check", "--suite", "order",
                         "--signature", "1,1", "--dim", "3", "--trials", "1")
        assert code == 2

    def test_bad_signature_flag(self, fixtures, capsys):
        code, _, _ = run(capsys, "rand", "--signature", "banana")
        assert code == 2


class TestQuaternionicFiles:
    """order, mean and riccati on H files: exit 0 and canonical JSON, with
    the verdict a JSON boolean."""

    @pytest.fixture
    def files(self, tmp_path):
        A = random_pj(Signature(2, 1), "H", 3).matrix
        B = random_pj(Signature(2, 1), "H", 13).matrix
        paths = {}
        for name, X in (("a", A), ("a2", A * 2.0), ("b", B)):
            paths[name] = str(tmp_path / f"{name}.json")
            write_matrix(paths[name], X)
        return paths

    @staticmethod
    def _canonical(out):
        lines = out.strip().splitlines()
        for line in lines:
            assert canonical_dumps(json.loads(line)) == line
        return [json.loads(line) for line in lines]

    def test_order(self, files, capsys):
        code, out, err = run(capsys, "order", "--x", files["a"], "--y", files["a2"],
                             "--signature", "2,1")
        assert code == 0, err
        verdict, = self._canonical(out)
        assert verdict["holds"] is True and '"holds":true' in out

    @pytest.mark.parametrize("command", ["mean", "riccati"])
    def test_mean_and_riccati(self, files, capsys, command):
        code, out, err = run(capsys, command, "--a", files["a"], "--b", files["b"],
                             "--signature", "2,1")
        assert code == 0, err
        mean, residual = self._canonical(out)
        assert mean["field"] == "H" and mean["rows"] == 3
        assert 0.0 <= next(iter(residual.values())) <= 1e-9


def _modules_loaded_by(module: str, wanted: str) -> str:
    """The modules named `wanted` or under it that `import module` loads in a
    fresh interpreter, as printed there."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = (f"import sys, {module}; "
            f"print([m for m in sys.modules if (m + '.').startswith('{wanted}.')])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("module", ["jcone", "jcone.cli"])
def test_cli_import_loads_no_scipy(module):
    # Importing scipy.linalg costs each CLI process about twice numpy's import,
    # so no kernel may reach for it (solve_triangular, lapack's trtri).
    assert _modules_loaded_by(module, "scipy") == "[]"


def test_cli_import_loads_no_propcheck():
    # The property suites are the largest module; only `jcone check` runs
    # them, so every other command's process goes without them.
    assert _modules_loaded_by("jcone.cli", "jcone.propcheck") == "[]"
