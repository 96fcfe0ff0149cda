#!/usr/bin/env python3
"""Print the LAPACK factorizations and J builds of each cone operation.

    python3 bench/factorizations.py

Each operation of the small-mixed mix is run once per field under the
tracer of tracing.py, and the numpy.linalg calls it makes are counted by
routine.  The counts do not depend on the machine, the seed or the size.
"""

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

ROUTINES = ("eigvalsh", "eigh", "svd", "inv", "cholesky", "solve")


def main() -> int:
    wl = workloads.make("small-mixed", 1, None, False, None)
    wl.certify()
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    rows = {}
    try:
        for op in wl.round(0):
            tracer.call(op.call)
            st = tracer.take()
            counts = {r: st.calls(f"lapack.{r}") for r in ROUTINES}
            total = sum(st.calls(f"lapack.{r}") for r in tracing.LAPACK)
            rows.setdefault(op.kind, {})[op.field] = (
                total, counts, st.calls("jstruct.Signature.matrix"))
    finally:
        undo()
    print("| operation | fields | factorizations | "
          + " | ".join(ROUTINES) + " | J builds |")
    print("| --- " * (len(ROUTINES) + 4) + "|")
    for kind, per_field in rows.items():
        # One row when the fields agree, else one row per field.
        groups: dict = {}
        for field, row in per_field.items():
            groups.setdefault(repr(row), []).append(field)
        for fields in groups.values():
            total, counts, builds = per_field[fields[0]]
            cells = " | ".join(str(counts[r]) for r in ROUTINES)
            print(f"| {kind} | {','.join(fields)} | {total} | {cells} | {builds} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
