"""The four benchmark workloads.

A workload builds its inputs from the seed with numpy (build), hands them to
jcone for certification (certify, the timed part of set-up), and yields
rounds of operations.  Every round of a workload holds the same operations
in the same order, so the mix, and any share of failed operations, is the
same in every run.  Each operation's output is checked against references.py
or against properties known by construction.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import references as ref
import jcone
import jcone.cli
import jcone.propcheck

# Largest relative error accepted as a correct output.
MAX_ERR = 1e-8
CONE_KINDS = ("weighted_mean_t0.5", "weighted_mean_t", "geodesic_distance",
              "pow_J", "j_leq", "is_j_positive")


@dataclass
class Outcome:
    ops: int = 1
    failed: int = 0
    err: float = 0.0             # largest relative error of the checked outputs
    problem: str | None = None   # set when an output is wrong


@dataclass
class Op:
    kind: str
    field: str
    call: Callable
    check: Callable              # output of call -> Outcome
    ops: int = 1                 # operations one call performs
    # The same work done with numpy/scipy alone, on the same inputs: timed
    # right after the call as its pair (see harness.run_rounds).
    ref: Callable | None = None


def _round_rng(seed: int, tag: int, r: int) -> np.random.Generator:
    return np.random.default_rng((seed, tag, r))


def to_jcone(m: np.ndarray, field: str):
    return jcone.QMatrix(*inputs.psi_parts(m)) if field == "H" else m


def from_jcone(x) -> np.ndarray:
    if isinstance(x, jcone.QMatrix):
        return inputs.psi(x.a, x.b)
    return np.asarray(x)


def _judge(errs: dict) -> Outcome:
    worst = max(errs.values())
    bad = {k: v for k, v in errs.items() if not v <= MAX_ERR}
    return Outcome(err=worst, problem=f"relative errors {bad}" if bad else None)


class FieldInputs:
    """A pool of cone elements X_k and positive definite S_k over one field."""

    def __init__(self, field: str, p: int, q: int, pool: int, seed: int):
        rng = np.random.default_rng((seed, inputs.FIELDS.index(field), p + q))
        self.field = field
        self.sig = jcone.Signature(p, q)
        self.jd = inputs.embedded_diag(inputs.signature_diag(p, q), field)
        self.xs = [inputs.cone_element(inputs.signature_diag(p, q), field, rng)
                   for _ in range(pool)]
        self.ss = [inputs.positive_definite(p + q, field, rng) for _ in range(pool)]
        self.raw = [to_jcone(x, field) for x in self.xs]
        self.certified = []
        # References that depend only on the pool, computed once per run.
        self.eigs = [np.linalg.eigh(self.jd[:, None] * x) for x in self.xs]
        self.lambda_mins = [ref.lambda_min(x, self.jd) for x in self.xs]
        self.s_eigs = [np.linalg.eigvalsh(s) for s in self.ss]
        self._spectra = {}

    def spectrum(self, i: int, j: int):
        if (i, j) not in self._spectra:
            self._spectra[i, j] = ref.spectrum(self.xs[i], self.xs[j], self.jd)
        return self._spectra[i, j]

    def certify(self):
        self.certified = [jcone.is_j_positive(x, self.sig) for x in self.raw]


def reference_ops(fi: FieldInputs, i: int, j: int, k: int, t: float, s: float,
                  y: np.ndarray) -> list[Callable]:
    """The cone operations of ConeWorkload._ops, in its order, with numpy/scipy
    alone: nothing cached, so each does the factorizations it needs."""
    a, b, x, jd = fi.xs[i], fi.xs[j], fi.xs[k], fi.jd
    return [lambda: ref.mean(a, b, jd, 0.5), lambda: ref.mean(a, b, jd, t),
            lambda: ref.distance(a, b, jd, fi.field), lambda: ref.power(a, jd, s),
            lambda: ref.lambda_min(y - a, jd), lambda: ref.lambda_min(x, jd)]


class ConeWorkload:
    """The operation mix of small-mixed and large-dense, fields in round-robin."""

    field_kinds = ("weighted_mean_t0.5", "weighted_mean_t")
    import_module = "jcone"
    warmup = True
    p50_by_round = True

    def __init__(self, name: str, shapes: dict, pool: int, tail_pct: float,
                 seed: int):
        self.name = name
        self.tail_pct = tail_pct
        self.seed = seed
        self.fields = [FieldInputs(f, p, q, pool, seed) for f, (p, q) in shapes.items()]

    def certify(self):
        for fi in self.fields:
            fi.certify()

    def round(self, r: int) -> list[Op]:
        rng = _round_rng(self.seed, 1, r)
        per_field = []
        for fi in self.fields:
            k = len(fi.xs)
            t = 0.5 + rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.4)
            s = rng.uniform(-2.0, 2.0)
            per_field.append(self._ops(fi, r % k, (r + 1) % k, (r + 2) % k,
                                       t, s, 1.0 if r % 2 == 0 else -1.0))
        # Round-robin: each kind of operation over every field in turn.
        return [ops[i] for i in range(len(CONE_KINDS)) for ops in per_field]

    @staticmethod
    def _ops(fi: FieldInputs, i: int, j: int, k: int, t: float, s: float,
             sign: float) -> list[Op]:
        A, B = fi.certified[i], fi.certified[j]
        a, b, jd, f, sig = fi.xs[i], fi.xs[j], fi.jd, fi.field, fi.sig
        y = a + sign * (jd[:, None] * fi.ss[i])
        y_raw = to_jcone(y, f)
        margin = fi.s_eigs[i][0] if sign > 0 else -fi.s_eigs[i][-1]

        def check_mean(tw):
            def check(res):
                m = from_jcone(res.mean.matrix)
                errs = {"mean": ref.rel_err(m, ref.mean(a, b, jd, tw, fi.spectrum(i, j)))}
                if tw == 0.5:
                    errs["riccati"] = ref.riccati_residual(m, a, b)
                return _judge(errs)
            return check

        def check_distance(d):
            want = ref.distance(a, b, jd, f, fi.spectrum(i, j))
            return _judge({"distance": abs(d - want) / want})

        def check_pow(res):
            want = ref.power(a, jd, s, fi.eigs[i])
            return _judge({"pow": ref.rel_err(from_jcone(res.matrix), want)})

        def check_leq(v):
            out = _judge({"margin": abs(v.margin - margin) / abs(margin)})
            if v.holds != (sign > 0):
                out.problem = f"j_leq verdict {v.holds}, expected {sign > 0}"
            return out

        def check_cert(c):
            want = fi.lambda_mins[k]
            return _judge({"lambda_min": abs(c.lambda_min_of_jx - want) / want})

        ops = [
            Op("weighted_mean_t0.5", f, lambda: jcone.weighted_mean(A, B, 0.5), check_mean(0.5)),
            Op("weighted_mean_t", f, lambda: jcone.weighted_mean(A, B, t), check_mean(t)),
            Op("geodesic_distance", f, lambda: jcone.geodesic_distance(A, B), check_distance),
            Op("pow_J", f, lambda: jcone.pow_J(A, s), check_pow),
            Op("j_leq", f, lambda: jcone.j_leq(fi.raw[i], y_raw, sig), check_leq),
            Op("is_j_positive", f, lambda: jcone.is_j_positive(fi.raw[k], sig), check_cert),
        ]
        for op, pair in zip(ops, reference_ops(fi, i, j, k, t, s, y)):
            op.ref = pair
        return ops

    def peak_rss_mb(self) -> float:
        return _self_rss_mb()


# Properties of run_suite whose margin is tol minus a relative error; the
# suite workload reads its accuracy from them.
SUITE_ORACLES = ("powers.kj_congruence", "powers.commuting_factorization",
                 "geometry.pullback_geodesic", "means.symmetry",
                 "means.inversion", "means.scaling", "means.time_reversal",
                 "means.kj_congruence", "means.composition",
                 "means.pullback_oracle")
SUITE_TOL = 1e-8
# Its fixed 1e-9 tolerance ignores the conditioning of the random congruence,
# so it fails on some seeds (see FOUND in CHANGES.md); a benchmark operation
# must fail on every seed or on none.
SUITE_LEFT_OUT = ("geometry.metric_invariance",)


class SuiteWorkload:
    """Every registered property at Signature(2, 1) over R, C and H.

    This is run_suite("all", ...) less SUITE_LEFT_OUT: the same run_property
    calls in registry order.  A round holds one call per field.
    """

    field_kinds = ("run_suite",)
    import_module = "jcone.propcheck"
    warmup = True
    p50_by_round = False

    def __init__(self, seed: int, trials: int, tail_pct: float = 0.0):
        self.name = "suite"
        self.seed = seed
        self.trials = trials
        self.tail_pct = tail_pct
        self.sig = jcone.Signature(2, 1)
        self.specs = [s for s in jcone.propcheck.REGISTRY
                      if s.property_id not in SUITE_LEFT_OUT]
        self.per_call = trials * len(self.specs)
        # The pair of a call: one small-mixed reference computation per trial.
        self.refs = {}
        for f in inputs.FIELDS:
            fi = FieldInputs(f, 2, 1, 3, seed)
            y = fi.xs[0] + fi.jd[:, None] * fi.ss[0]
            self.refs[f] = reference_ops(fi, 0, 1, 2, 0.3, 0.7, y)

    def certify(self):
        pass   # the properties draw their own inputs from the seed

    def round(self, r: int) -> list[Op]:
        seeds = _round_rng(self.seed, 2, r).integers(0, 2 ** 31, size=3)
        return [Op("run_suite", f, self._call(f, int(s)), self._check, self.per_call,
                   ref=self._ref(f))
                for f, s in zip(inputs.FIELDS, seeds)]

    def _ref(self, field: str):
        refs = self.refs[field]
        return lambda: [refs[i % len(refs)]() for i in range(self.per_call)]

    def _call(self, field: str, seed: int):
        ctx = jcone.propcheck.Context(self.sig, field, SUITE_TOL)
        return lambda: [jcone.propcheck.run_property(spec, ctx, self.trials, seed)
                        for spec in self.specs]

    def _check(self, reports) -> Outcome:
        out = Outcome(ops=sum(r.trials for r in reports),
                      failed=sum(r.failures for r in reports))
        wrong = [r.property_id for r in reports if r.trials != self.trials]
        failing = [r.property_id for r in reports if r.failures]
        errs = [SUITE_TOL - r.worst_margin for r in reports
                if r.property_id in SUITE_ORACLES and r.failures == 0]
        if not reports or wrong:
            out.problem = f"reports with a trial count other than {self.trials}: {wrong}"
        elif failing:
            out.problem = f"failing properties: {failing}"
        elif not errs:
            out.problem = "no oracle property in the suite report"
        out.err = max(errs, default=0.0)
        return out

    def peak_rss_mb(self) -> float:
        return _self_rss_mb()


CLI_SETS = (("R", 2, 1), ("C", 2, 1), ("H", 2, 1), ("C", 32, 32), ("H", 32, 32))


class CliWorkload:
    """jcone.cli on canonical JSON files, one process at a time.

    With in_process, jcone.cli.main(argv) is called in this process instead,
    which is how the traced run sees inside the command.
    """

    # Per field, every process on the n=3 files: there the weighted mean is
    # under 1 ms of a process of about 250 ms, and one command gives too few
    # samples for a steady median.
    field_kinds = tuple(f"{k}/n3" for k in
                        ("mean", "mean_t", "pow", "order", "riccati", "geodesic"))
    import_module = "jcone.cli"
    p50_by_round = True

    def __init__(self, seed: int, workdir: Path, tail_pct: float = 0.0,
                 sets=CLI_SETS, in_process: bool = False, env=None):
        self.name = "cli"
        self.seed = seed
        self.tail_pct = tail_pct
        self.workdir = workdir
        self.in_process = in_process
        # Each call is a fresh process, so there is nothing for a warm-up round to fill.
        self.warmup = in_process
        self.env = env
        self.stdout_path = workdir / "stdout"
        self.stderr_path = workdir / "stderr"
        self.first_stdout: dict = {}
        self.max_child_rss_kb = 0
        self.sets = [self._build(f, p, q) for f, p, q in sets]

    def _build(self, field: str, p: int, q: int) -> dict:
        fi = FieldInputs(field, p, q, 2, self.seed)
        rng = np.random.default_rng((self.seed, 3, inputs.FIELDS.index(field), p + q))
        a, b = fi.xs
        y = a + fi.jd[:, None] * fi.ss[0]
        t = float(0.5 + rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.4))
        s = float(rng.uniform(-2.0, 2.0))
        files = {}
        for name, m in (("a", a), ("b", b), ("y", y)):
            path = self.workdir / f"{field}{p + q}_{name}.json"
            path.write_text(json.dumps(inputs.payload(m, field), sort_keys=True,
                                       separators=(",", ":")) + "\n")
            files[name] = str(path)
        sig = ["--signature", f"{p},{q}"]
        margin = float(fi.s_eigs[0][0])
        half = ref.mean(a, b, fi.jd, 0.5)
        mean_t = ref.mean(a, b, fi.jd, t)
        power = ref.power(a, fi.jd, s)
        commands = {
            "mean": (["mean", "--a", files["a"], "--b", files["b"], "-t", "0.5"],
                     lambda out: self._riccati(out, half, a, b, "riccati_residual")),
            "mean_t": (["mean", "--a", files["a"], "--b", files["b"], "-t", repr(t)],
                       lambda out: self._matrices(out, [mean_t])),
            "pow": (["pow", "--x", files["a"], "-t", repr(s)],
                    lambda out: self._matrices(out, [power])),
            "order": (["order", "--x", files["a"], "--y", files["y"]],
                      lambda out: self._order(out, margin)),
            "riccati": (["riccati", "--a", files["a"], "--b", files["b"]],
                        lambda out: self._riccati(out, half, a, b, "residual")),
            "geodesic": (["geodesic", "--a", files["a"], "--b", files["b"], "--samples", "3"],
                         lambda out: self._matrices(out, [a, half, b])),
        }
        return {"field": field, "n": p + q,
                "matrices": [(fi.sig, to_jcone(m, field)) for m in (a, b, y)],
                "commands": {k: (argv + sig, chk) for k, (argv, chk) in commands.items()}}

    def certify(self):
        for st in self.sets:
            for sig, m in st["matrices"]:
                jcone.is_j_positive(m, sig)

    def round(self, r: int) -> list[Op]:
        ops = []
        for st in self.sets:
            for kind, (argv, check) in st["commands"].items():
                key = (st["field"], st["n"], kind)
                ops.append(Op(f"{kind}/n{st['n']}", st["field"], self._caller(argv),
                              self._checker(key, check), ref=self._bare))
        return ops

    def _caller(self, argv):
        if self.in_process:
            def call():
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = jcone.cli.main(argv)
                return code, buf.getvalue().encode()
            return call

        def call():
            with open(self.stdout_path, "wb") as out, open(self.stderr_path, "wb") as err:
                proc = subprocess.Popen([sys.executable, "-m", "jcone.cli", *argv],
                                        stdout=out, stderr=err, env=self.env)
                _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.max_child_rss_kb = max(self.max_child_rss_kb, usage.ru_maxrss)
            return proc.returncode, None
        return call

    def _bare(self):
        """A bare interpreter that imports numpy: the part of a jcone.cli
        process that jcone cannot make faster."""
        subprocess.run([sys.executable, "-c", "import numpy"], env=self.env, check=True)

    def _checker(self, key, check):
        def checked(result):
            code, data = result
            if data is None:
                data = self.stdout_path.read_bytes()
            if code != 0:
                err = "" if self.in_process else self.stderr_path.read_text()[-400:]
                return Outcome(problem=f"{key} exit code {code}: {err}")
            out = check(data.decode())
            first = self.first_stdout.setdefault(key, data)
            if first != data and out.problem is None:
                out.problem = f"{key} stdout differs from the first identical call"
            return out
        return checked

    @staticmethod
    def _matrices(text: str, refs: list) -> Outcome:
        rows = text.splitlines()
        if len(rows) != 1:
            return Outcome(problem=f"expected 1 output line, got {len(rows)}")
        obj = json.loads(rows[0])
        got = obj if isinstance(obj, list) else [obj]
        if len(got) != len(refs):
            return Outcome(problem=f"expected {len(refs)} matrices, got {len(got)}")
        return _judge({f"matrix{i}": ref.rel_err(inputs.from_payload(g), w)
                       for i, (g, w) in enumerate(zip(got, refs))})

    @staticmethod
    def _order(text: str, margin: float) -> Outcome:
        obj = json.loads(text)
        out = _judge({"margin": abs(obj["margin"] - margin) / margin})
        if obj["holds"] is not True:
            out.problem = "order verdict false for Y = X + J S"
        return out

    @staticmethod
    def _riccati(text: str, half, a, b, key: str) -> Outcome:
        rows = text.splitlines()
        if len(rows) != 2:
            return Outcome(problem=f"expected 2 output lines, got {len(rows)}")
        m = inputs.from_payload(json.loads(rows[0]))
        residual = json.loads(rows[1])[key]
        out = _judge({"mean": ref.rel_err(m, half),
                      "riccati": ref.riccati_residual(m, a, b)})
        if not math.isfinite(residual):
            out.problem = f"reported Riccati residual {residual}"
        return out

    def peak_rss_mb(self) -> float:
        return self.max_child_rss_kb / 1024.0


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


SMALL = {"R": (2, 1), "C": (2, 1), "H": (2, 1)}
LARGE = {"R": (128, 128), "C": (128, 128), "H": (64, 64)}
SUITE_TRIALS = 3
TAIL_PCT = {"small-mixed": 99.0, "large-dense": 80.0, "suite": 80.0, "cli": 75.0}


def make(name: str, seed: int, workdir: Path, in_process: bool, env) -> object:
    tail = TAIL_PCT[name]
    if name == "small-mixed":
        return ConeWorkload(name, SMALL, 32, tail, seed)
    if name == "large-dense":
        return ConeWorkload(name, LARGE, 3, tail, seed)
    if name == "suite":
        return SuiteWorkload(seed, SUITE_TRIALS, tail)
    if name == "cli":
        return CliWorkload(seed, workdir, tail, in_process=in_process, env=env)
    raise ValueError(f"unknown workload {name!r}")
