"""Per-layer tracing from outside the library.

install() wraps the public functions of every jcone module, the method
Signature.matrix and the LAPACK entry points of numpy.linalg.  A function is
patched in every namespace that holds it (geometry imports mat_inverse by
name, for example), so each lookup goes through the wrapper.  Wrappers do
nothing unless a benchmark operation is open (Tracer.call), so reference
computations made between operations are not counted.

Spans are aggregated as they close: per key, the call count, the total time
and the self time (the span minus its child spans).  A call that re-enters a
function already open, such as the Psi recursion in matrix_function, runs
inside the open span, so counts are per top-level application.
"""

from __future__ import annotations

import inspect
import os
import sys
from time import perf_counter

LAPACK = ("cholesky", "cond", "det", "eig", "eigh", "eigvals", "eigvalsh",
          "inv", "lstsq", "matrix_rank", "pinv", "qr", "slogdet", "solve",
          "svd", "svdvals")


class Stats:
    """Aggregated spans of one traced phase."""

    def __init__(self):
        # key -> [calls, total seconds, self seconds, outer calls, outer seconds]
        # where an outer span is one with no enclosing span of the same layer.
        self.spans: dict[str, list] = {}
        self.op_seconds = 0.0
        self.bytes_read = 0
        self.bytes_written = 0
        self.suite_trials: dict[str, int] = {}
        self.suite_seconds: dict[str, float] = {}
        self.rng_trials = 0
        self.rng_useful = 0

    def calls(self, *keys) -> int:
        return sum(self.spans.get(k, (0,))[0] for k in keys)

    def layer(self, layer: str, index: int) -> float:
        return sum(v[index] for k, v in self.spans.items()
                   if k.split(".")[0] == layer)

    def outer(self, *keys) -> tuple[int, float]:
        rows = [self.spans[k] for k in keys if k in self.spans]
        return sum(r[3] for r in rows), sum(r[4] for r in rows)


class Tracer:
    def __init__(self):
        self.stats = Stats()
        self._children: list[float] = []   # child time of each open span
        self._open: set[str] = set()
        self._depth: dict[str, int] = {}   # open spans per layer
        self._rngs: list = []

    def take(self) -> Stats:
        done, self.stats = self.stats, Stats()
        return done

    def call(self, fn):
        """Run one benchmark operation as the root span."""
        self._children.append(0.0)
        t0 = perf_counter()
        try:
            return fn()
        finally:
            self.stats.op_seconds += perf_counter() - t0
            self._children.pop()

    def wrap(self, fn, key: str, after=None):
        layer = key.split(".")[0]
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._children or key in tracer._open:
                return fn(*args, **kwargs)
            tracer._open.add(key)
            depth = tracer._depth.get(layer, 0)
            tracer._depth[layer] = depth + 1
            tracer._children.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                child = tracer._children.pop()
                tracer._children[-1] += d
                tracer._open.discard(key)
                tracer._depth[layer] = depth
                row = tracer.stats.spans.setdefault(key, [0, 0.0, 0.0, 0, 0.0])
                row[0] += 1
                row[1] += d
                row[2] += d - child
                if depth == 0:
                    row[3] += 1
                    row[4] += d
            if after is not None:
                after(args, result, d)
            return result

        traced.__wrapped__ = fn
        return traced

    # Hooks that record what a span moved or decided.

    def _read(self, args, result, d):
        self.stats.bytes_read += os.path.getsize(args[0])

    def _dumps(self, args, result, d):
        if self._depth.get("fileio", 0) == 0:
            self.stats.bytes_written += len(result.encode())

    def _trial_rng(self, args, result, d):
        self._rngs.append((result, result.bit_generator.state))

    def _run_property(self, args, result, d):
        spec, trials = args[0], args[2]
        suite = spec.suites[0]
        st = self.stats
        st.suite_trials[suite] = st.suite_trials.get(suite, 0) + trials
        st.suite_seconds[suite] = st.suite_seconds.get(suite, 0.0) + d
        for rng, state in self._rngs:
            st.rng_trials += 1
            st.rng_useful += rng.bit_generator.state != state
        self._rngs.clear()


def _patch(patches, owner, name, new):
    patches.append((owner, name, getattr(owner, name)))
    setattr(owner, name, new)


def install(tracer: Tracer):
    """Wrap jcone and numpy.linalg; returns a function that undoes it."""
    import numpy.linalg
    import jcone.cli  # noqa: F401  (imports every module of the package)
    from jcone.jstruct import Signature

    patches = []
    for name in LAPACK:
        if hasattr(numpy.linalg, name):
            _patch(patches, numpy.linalg, name,
                   tracer.wrap(getattr(numpy.linalg, name), f"lapack.{name}"))

    modules = [m for n, m in sorted(sys.modules.items())
               if (n == "jcone" or n.startswith("jcone.")) and m is not None]
    hooks = {"fileio.read_matrix": tracer._read,
             "fileio.canonical_dumps": tracer._dumps,
             "propcheck.run_property": tracer._run_property,
             "propcheck._trial_rng": tracer._trial_rng}
    wrappers = {}
    for mod in modules:
        for name, obj in vars(mod).items():
            # scalars works entry by entry; a span per entry would cost more
            # than the work it measures, so its time counts in the caller.
            if (inspect.isfunction(obj) and obj.__module__.startswith("jcone.")
                    and obj.__module__ != "jcone.scalars" and obj.__name__ == name
                    and (not name.startswith("_") or name == "_trial_rng")):
                key = f"{obj.__module__[len('jcone.'):]}.{name}"
                if obj not in wrappers:
                    wrappers[obj] = tracer.wrap(obj, key, hooks.get(key))
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                _patch(patches, mod, name, wrappers[obj])
    _patch(patches, Signature, "matrix",
           tracer.wrap(Signature.matrix, "jstruct.Signature.matrix"))

    def uninstall():
        for owner, name, old in reversed(patches):
            setattr(owner, name, old)

    return uninstall
