"""Measurement loop, set-up timing, metrics and result files.

The caller is one closed loop in one thread: it issues an operation, waits
for it, checks its output outside the timed region, then issues the next.
Runs are made of whole rounds (see workloads.py).
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import references as ref
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 15
PROPCHECK_SUITES = ("powers", "order", "geometry", "means", "inequalities", "quaternion")


def child_env() -> dict:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src)


@dataclass
class Run:
    # One entry per timed call, in flat arrays: a list of objects would make
    # the benchmark's own memory and garbage-collection work grow with the run.
    rounds: array = field(default_factory=lambda: array("l"))
    labels: array = field(default_factory=lambda: array("l"))   # index into names
    ms: array = field(default_factory=lambda: array("d"))       # latency of one operation
    cost: array = field(default_factory=lambda: array("d"))     # call time over its pair's
    names: dict = field(default_factory=dict)                   # (kind, field) -> index
    attempted: int = 0
    failed: int = 0
    busy: float = 0.0            # seconds spent inside calls that succeeded
    err: float = 0.0
    problems: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)

    @property
    def done(self) -> int:
        return self.attempted - self.failed

    def add(self, r: int, kind: str, fld: str, ms: float, cost: float):
        self.rounds.append(r)
        self.labels.append(self.names.setdefault((kind, fld), len(self.names)))
        self.ms.append(ms)
        self.cost.append(cost)

    def select(self, values: array, keep=lambda kind, fld: True) -> list:
        """(round, value) of the samples whose (kind, field) passes keep."""
        ids = {i for (kind, fld), i in self.names.items() if keep(kind, fld)}
        return [(r, v) for r, i, v in zip(self.rounds, self.labels, values) if i in ids]


def run_rounds(wl, first_round: int, seconds: float, min_samples: int,
               tracer=None, between=None, pair=False) -> Run:
    """Whole rounds for at least `seconds` and `min_samples` samples.

    With pair, each call that succeeds is followed at once by its pair,
    op.ref, and its cost is the call's time over the pair's.  between(share)
    is called after each round with the share of `seconds` elapsed.  Neither
    is inside a timed call.
    """
    run = Run()
    r = first_round
    start = perf_counter()
    deadline = start + seconds
    while True:
        for op in wl.round(r):
            t0 = perf_counter()
            try:
                out = tracer.call(op.call) if tracer else op.call()
            except Exception as exc:   # a failed call is counted and the loop goes on
                run.attempted += op.ops
                run.failed += op.ops
                name = f"{op.kind}/{op.field}: {type(exc).__name__}: {exc}"
                run.errors[name] = run.errors.get(name, 0) + 1
                run.problems.append(f"round {r} {name}")
                continue
            dt = perf_counter() - t0
            cost = math.nan
            if pair:
                t1 = perf_counter()
                op.ref()
                cost = dt / (perf_counter() - t1)
            try:
                res = op.check(out)
            except Exception as exc:   # an unreadable output is a wrong output
                res = workloads.Outcome(problem=f"{type(exc).__name__}: {exc}")
            run.attempted += res.ops
            run.failed += res.failed
            run.busy += dt
            run.err = max(run.err, res.err)
            if res.problem:
                run.problems.append(f"round {r} {op.kind}/{op.field}: {res.problem}")
            run.add(r, op.kind, op.field, 1e3 * dt / max(res.ops, 1), cost)
        r += 1
        if between is not None:
            between((perf_counter() - start) / seconds)
        if perf_counter() >= deadline and len(run.ms) >= min_samples:
            return run


def _p50(wl, samples) -> float:
    """Median over the rounds of the median within each round.

    A pooled median of a mix of operation kinds can fall in the gap between
    two kinds and jump between them; a round's median cannot, and a stray
    slow call does not move it.  A suite round holds one call per field, and
    the middle of three would pick the slower of R and C, so there each
    round gives the mean of its calls (wl.p50_by_round false).
    """
    within = statistics.median if wl.p50_by_round else statistics.fmean
    by_round: dict[int, list] = {}
    for r, v in samples:
        by_round.setdefault(r, []).append(v)
    return statistics.median(within(v) for v in by_round.values())


def min_samples(tail_pct: float) -> int:
    """Samples needed for ten beyond the tail percentile."""
    return math.ceil(10.0 / (1.0 - tail_pct / 100.0) - 1e-9)


def import_seconds(module: str) -> float:
    """Import time of a jcone module in a fresh interpreter, numpy already loaded."""
    code = ("import time, numpy; t = time.perf_counter(); "
            f"import {module}; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(),
                         capture_output=True, text=True, check=True)
    return float(out.stdout.split()[-1])


def wall_seconds(code: str) -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                   stdout=subprocess.DEVNULL)
    return perf_counter() - t0


class SetupTimer:
    """Repeated set-ups, spread over the run: import in a fresh interpreter
    plus certification.  The machine's speed drifts over seconds, so set-ups
    made back to back would all sample one moment of it."""

    def __init__(self, wl):
        self.wl = wl
        self.times = []

    def once(self):
        imported = import_seconds(self.wl.import_module)
        t0 = perf_counter()
        self.wl.certify()
        self.times.append(imported + perf_counter() - t0)

    def between(self, share: float):
        while len(self.times) < SETUP_REPEATS and share >= len(self.times) / SETUP_REPEATS:
            self.once()

    def median(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self.once()
        return statistics.median(self.times)


def end_to_end(wl, run: Run, setup_s: float) -> dict:
    metrics = {
        "setup_s": setup_s,
        "op_p50_x": _p50(wl, run.select(run.cost)),
        "op_tail_x": float(np.percentile(run.cost, wl.tail_pct)),
        "peak_rss_mb": wl.peak_rss_mb(),
        "accuracy_digits": ref.digits(run.err),
    }
    for f in ("R", "C", "H"):
        picked = run.select(run.cost, lambda kind, fld: fld == f and kind in wl.field_kinds)
        metrics[f"mean_{f}_p50_x"] = _p50(wl, picked)
    return metrics


def latencies(wl, run: Run) -> dict:
    """The wall-clock figures of the run, kept in the result file.

    They follow the machine's speed, which drifts (see README.md), so they
    are not end-to-end metrics with a bound.
    """
    out = {
        "ops_per_s": run.done / run.busy if run.busy else 0.0,
        "op_p50_ms": _p50(wl, run.select(run.ms)),
        "op_tail_ms": float(np.percentile(run.ms, wl.tail_pct)),
    }
    for f in ("R", "C", "H"):
        picked = run.select(run.ms, lambda kind, fld: fld == f and kind in wl.field_kinds)
        out[f"mean_{f}_p50_ms"] = _p50(wl, picked)
    return out


def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


def per_layer(loop: tracing.Stats, ops: int, probe: tracing.Stats,
              import_ms: float, overhead: float) -> dict:
    """Per-layer metrics of the traced loop; a metric whose layer the loop
    never reached is read from the probe instead."""
    m = {}
    lapack = {name: loop.calls(f"lapack.{name}") for name in tracing.LAPACK}
    m["lapack.calls_per_op"] = sum(lapack.values()) / ops
    for name in ("eigh", "eigvalsh", "svd", "inv", "cholesky", "solve"):
        m[f"lapack.{name}_per_op"] = lapack[name] / ops
    m["lapack.ms_per_op"] = 1e3 * loop.layer("lapack", 1) / ops
    m["lapack.time_share"] = loop.layer("lapack", 1) / loop.op_seconds
    for layer in ("matcore", "jstruct", "jcalc", "order", "geometry", "means"):
        m[f"{layer}.self_ms_per_op"] = 1e3 * loop.layer(layer, 2) / ops
    m["matcore.matrix_function_calls_per_op"] = loop.calls("matcore.matrix_function") / ops
    m["matcore.psi_roundtrips_per_op"] = loop.calls("matcore.psi_matrix",
                                                    "matcore.psi_inverse") / ops
    m["matcore.fnorm_calls_per_op"] = loop.calls("matcore.fnorm") / ops
    m["jstruct.certify_calls_per_op"] = loop.calls("jstruct.is_j_positive") / ops
    m["jstruct.jherm_checks_per_op"] = loop.calls("jstruct.is_j_hermitian") / ops
    m["jstruct.j_builds_per_op"] = loop.calls("jstruct.Signature.matrix") / ops

    def either(fn):
        value = fn(loop)
        return value if value is not None else fn(probe)

    for suite in PROPCHECK_SUITES:
        m[f"propcheck.{suite}_ms_per_trial"] = either(
            lambda st: _ratio(1e3 * st.suite_seconds.get(suite, 0.0),
                              st.suite_trials.get(suite, 0)))
    m["propcheck.useful_trial_ratio"] = either(
        lambda st: _ratio(st.rng_useful, st.rng_trials))
    m["fileio.read_ms_per_call"] = either(
        lambda st: _ratio(1e3 * st.spans.get("fileio.read_matrix", [0, 0.0])[1],
                          st.calls("fileio.read_matrix")))
    writes = ("fileio.matrix_to_payload", "fileio.canonical_dumps", "fileio.write_matrix")
    m["fileio.write_ms_per_call"] = either(
        lambda st: _ratio(1e3 * st.outer(*writes)[1], st.outer(*writes)[0]))
    m["fileio.bytes_per_call"] = either(
        lambda st: _ratio(st.bytes_read + st.bytes_written,
                          st.calls("fileio.read_matrix") + st.outer("fileio.canonical_dumps")[0]))
    m["cli.main_ms"] = either(
        lambda st: _ratio(1e3 * st.spans.get("cli.main", [0, 0.0])[1], st.calls("cli.main")))
    m["cli.import_ms"] = import_ms
    m["trace.overhead_share"] = overhead
    return m


def cli_import_ms() -> float:
    """Wall time of `import jcone.cli` in a fresh interpreter, less a bare one."""
    bare = statistics.median(wall_seconds("pass") for _ in range(SETUP_REPEATS))
    full = statistics.median(wall_seconds("import jcone.cli") for _ in range(SETUP_REPEATS))
    return 1e3 * (full - bare)


def _alternate(wl, seconds: float, tracer) -> tuple[list, list]:
    """Each round twice, untraced then traced, until `seconds` have passed.

    Alternating round by round puts the machine's drift in speed on both
    sides alike, so their difference is the tracing overhead.
    """
    plain, traced = [], []
    deadline = perf_counter() + seconds
    r = 1
    while perf_counter() < deadline or not traced:
        plain.append(run_rounds(wl, r, 0.0, 0))
        undo = tracing.install(tracer)
        try:
            traced.append(run_rounds(wl, r, 0.0, 0, tracer))
        finally:
            undo()
        r += 1
    return plain, traced


def _probe(seed: int, workdir: Path, tracer) -> tuple[tracing.Stats, list]:
    """One traced round of the suite and the in-process CLI at n=3."""
    probes = [workloads.SuiteWorkload(seed, 1),
              workloads.CliWorkload(seed, workdir, sets=workloads.CLI_SETS[:3],
                                    in_process=True)]
    problems = []
    for wl in probes:
        wl.certify()
        run = run_rounds(wl, 0, 0.0, 0, tracer)
        problems += run.problems + list(run.errors)
    return tracer.take(), problems


def openblas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def environment() -> dict:
    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": openblas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "caller_threads": 1,
    }


def declared_units(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    ref.self_check()
    workdir = BENCH / "work" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(name, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):   # another run may still use it
            workdir.parent.rmdir()


def _run(name, seed, seconds, trace, workdir) -> dict:
    wl = workloads.make(name, seed, workdir, trace, child_env())
    detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment()}
    setup = SetupTimer(wl)
    setup.once()
    if wl.warmup:
        run_rounds(wl, 0, 0.0, 0)   # warm-up: lazy imports and first-call costs
    if trace:
        tracer = tracing.Tracer()
        plain, traced = _alternate(wl, seconds, tracer)
        loop = tracer.take()
        undo = tracing.install(tracer)
        try:
            probe, probe_problems = _probe(seed, workdir, tracer)
        finally:
            undo()
        done = sum(r.done for r in traced)
        overhead = ((sum(r.busy for r in traced) / done)
                    / (sum(r.busy for r in plain) / sum(r.done for r in plain)) - 1.0)
        metrics = per_layer(loop, done, probe, cli_import_ms(), overhead)
        detail["spans"] = {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                           for k, v in sorted(loop.spans.items())}
        runs = plain + traced
    else:
        timed = run_rounds(wl, 1, seconds, min_samples(wl.tail_pct),
                           between=setup.between, pair=True)
        metrics = end_to_end(wl, timed, setup.median())
        detail.update(tail_percentile=wl.tail_pct, setup_runs_s=setup.times,
                      latency=latencies(wl, timed))
        runs, probe_problems = [timed], []
    units = declared_units(trace)
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "differ from BENCHMARK.json")
    problems = [p for r in runs for p in r.problems] + probe_problems
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    detail.update(samples=sum(len(r.ms) for r in runs), rounds=len({n for r in runs for n in r.rounds}),
                  problems=problems[:20], errors={k: v for r in runs for k, v in r.errors.items()})
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps({**result, "detail": detail}, indent=1) + "\n")
    return result
