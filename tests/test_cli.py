import argparse
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from jcone.cli import build_parser, main
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

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_pow_rejects_a_non_finite_tol(self, fixtures, capsys, tol):
        with pytest.raises(SystemExit) as info:
            main(["pow", "--x", fixtures["x"], "-t", "0.5", "--signature", "1,1",
                  f"--tol={tol}"])
        assert info.value.code == 2
        assert f"argument --tol: not a finite number: '{tol}'" in capsys.readouterr().err

    def test_pow_takes_a_negative_t_in_exponent_form(self, fixtures, capsys):
        # X^t_J = J (JX)^t with JX = diag(3, 4).
        code, out, _ = run(capsys, "pow", "--x", fixtures["x"], "-t", "-1e-1",
                           "--signature", "1,1")
        assert code == 0
        np.testing.assert_allclose(np.array(json.loads(out.strip())["data"]),
                                   np.diag([3.0 ** -0.1, -(4.0 ** -0.1)]), rtol=1e-14)
        assert run(capsys, "pow", "--x", fixtures["x"], "-t=-0.1",
                   "--signature", "1,1")[1] == out

    def test_tol_takes_a_negative_value_in_exponent_form(self, fixtures, capsys):
        # The value reaches the library, whose J-Hermitian test fails against
        # the negative threshold it makes, instead of argparse's usage error.
        code, _, err = run(capsys, "pow", "--x", fixtures["x"], "-t", "0.5",
                           "--signature", "1,1", "--tol", "-1e-9")
        assert code == 2
        assert "NotJHermitian" in err and "exceeds -5.000e-09" in err

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

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_check_rejects_a_non_finite_tol(self, fixtures, capsys, tol):
        with pytest.raises(SystemExit) as info:
            main(["check", "--suite", "means", "--signature", "1,1", "--trials", "1",
                  f"--tol={tol}"])
        assert info.value.code == 2
        assert f"argument --tol: not a finite number: '{tol}'" in capsys.readouterr().err

    def test_check_keeps_a_negative_tol(self, fixtures, capsys):
        # A negative tol fails a margin taken against it: exit 1, with reports.
        code, out, _ = run(capsys, "check", "--suite", "geometry", "--signature", "1,1",
                           "--trials", "2", "--tol=-1")
        reports = {r["property_id"]: r for r in map(json.loads, out.strip().splitlines())}
        assert code == 1 and reports["geometry.pullback_geodesic"]["failures"] == 2

    @pytest.mark.parametrize("argv", [
        "rand --signature 1,1 --seed -1",
        "check --suite order --signature 1,1 --trials 1 --seed -5",
        "check --suite order --signature 1,1 --trials -3",
    ])
    def test_a_negative_seed_or_trial_count_exits_2(self, capsys, argv):
        # numpy takes no negative seed, and a negative trial count would
        # report a run of no trial: each is named at parse time.
        with pytest.raises(SystemExit) as info:
            main(argv.split())
        option, value = argv.split()[-2:]
        assert info.value.code == 2
        assert (f"argument {option}: not a non-negative integer: '{value}'"
                in capsys.readouterr().err)

    def test_check_unknown_suite(self, fixtures, capsys):
        code, _, _ = run(capsys, "check", "--suite", "bogus",
                         "--signature", "1,1")
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


OPTIONS = {
    "mean": ["--a", "--b", "-t", "--emit-diff", "--signature", "--tol", "--out"],
    "geodesic": ["--a", "--b", "--samples", "--signature", "--tol", "--out"],
    "pow": ["--x", "-t", "--signature", "--tol", "--out"],
    "order": ["--x", "--y", "--signature", "--tol", "--out"],
    "riccati": ["--a", "--b", "--signature", "--tol", "--out"],
    "rand": ["--field", "--signature", "--seed", "--out"],
    "check": ["--suite", "--field", "--trials", "--signature", "--tol", "--seed", "--out"],
}


def test_each_command_takes_the_options_it_reads():
    # An option that no command reads would be taken and ignored without a word.
    sub, = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: [s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")]
           for name, p in sub.choices.items()}
    assert got == OPTIONS and sum(map(len, got.values())) == 39


@pytest.mark.parametrize("argv", [
    "mean --a A --b B --signature 1,1 --seed 1",
    "geodesic --a A --b B --signature 1,1 --seed 1",
    "pow --x X -t 0.5 --signature 1,1 --seed 1",
    "order --x X --y Y --signature 1,1 --seed 1",
    "riccati --a A --b B --signature 1,1 --seed 1",
    "rand --signature 1,1 --tol 1e-9",
    "rand --signature 1,1 --dim 2",
    "check --suite order --signature 1,1 --trials 1 --dim 3",
])
def test_a_removed_option_exits_2(capsys, argv):
    # n comes from --signature alone, and --seed belongs to rand and check.
    with pytest.raises(SystemExit) as info:
        main(argv.split())
    option = argv.split()[-2]
    assert info.value.code == 2
    assert f"error: unrecognized arguments: {option} " in capsys.readouterr().err


def test_mean_bytes_hold_per_blas_thread_count(tmp_path):
    # README's contract: the bytes of a command hold for one BLAS build and
    # thread count.  At n = 64 over C, one and two OpenBLAS threads may
    # round a product differently, so each count is compared with itself,
    # the count set only on the child process.
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    for name, seed in (("a", 41), ("b", 42)):
        write_matrix(str(tmp_path / f"{name}.json"), random_pj(Signature(32, 32), "C", seed).matrix)
    argv = [sys.executable, "-m", "jcone.cli", "mean", "--a", str(tmp_path / "a.json"),
            "--b", str(tmp_path / "b.json"), "--signature", "32,32", "-t", "0.3"]
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
        runs = [subprocess.run(argv, capture_output=True, env=env, timeout=60) for _ in range(2)]
        assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
        assert runs[0].stdout == runs[1].stdout and runs[0].stdout.startswith(b'{"cols":64,')


def _modules_loaded_by(module: str, wanted: str, run: str = "pass") -> str:
    """The modules named `wanted` or under it that `import module` and then
    the statement `run` load in a fresh interpreter, as printed there."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = (f"import sys, {module}; {run}; "
            f"print([m for m in sys.modules if (m + '.').startswith('{wanted}.')])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("module", ["jcone", "jcone.cli", "jcone.propcheck", "jcone.cli check"])
def test_cli_import_loads_no_scipy(module):
    # Importing scipy.linalg costs each CLI process about twice numpy's import,
    # so no kernel may reach for it (solve_triangular, lapack's trtri), and
    # numpy is the only runtime dependency: neither does `jcone check` run
    # every suite (powers.exp_noninjectivity takes exp(X) from numpy's eigh).
    module, *command = module.split()
    run = ("jcone.cli.main(['check', '--suite', 'all', '--signature', '2,1', '--trials', '1', "
           "'--out', __import__('os').devnull])" if command else "pass")
    assert _modules_loaded_by(module, "scipy", run) == "[]"


@pytest.mark.parametrize("module", ["jcone", "jcone.propcheck"])
def test_import_loads_no_numpy_random(module):
    # Importing numpy.random costs about 10 ms; the property runner loads it
    # at its first trial, so a process that runs no trial goes without it.
    assert _modules_loaded_by(module, "numpy.random") == "[]"


def test_cli_import_loads_no_propcheck():
    # The property suites are the largest module; only `jcone check` runs
    # them, so every other command's process goes without them.
    assert _modules_loaded_by("jcone.cli", "jcone.propcheck") == "[]"
