"""Command-line front-end for the cone calculus.

Commands: mean | geodesic | pow | order | riccati | rand | check.
Exit codes: 0 success / relation holds, 1 property or order violated,
2 input error (unparsable file, failed membership, bad arguments).

main parses --signature, certifies a command's matrix operands and writes
its output; a command returns its exit code, text and trailer line or None.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

from .errors import JConeError
from .fileio import canonical_dumps, matrix_to_payload, read_matrix
from .geometry import geodesic
from .jcalc import pow_J, random_pj
from .jstruct import Signature, is_j_positive
from .means import weighted_mean
from .order import j_leq
from .scalars import FIELDS


class InputError(Exception):
    pass


def _parse_signature(text: str) -> Signature:
    try:
        p, q = (int(part) for part in text.split(","))
        return Signature(p, q)
    except (ValueError, TypeError) as exc:
        raise InputError(f"bad --signature {text!r}: expected p,q") from exc


def _float(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _count(text: str) -> int:
    """--seed and --trials: numpy takes no negative seed, and a negative trial
    count would report a run of no trial."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return int(text)


def _finite_tol(text: str) -> float:
    """--tol as a float, negative allowed: a NaN or infinite threshold would
    pass or reject everything with no message naming it."""
    value = _float(text)
    if value is None or not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _attach_numbers(argv: list[str]) -> list[str]:
    """argv with each negative number after -t or --tol attached to it, as
    '-t=-1e-1': argparse takes an argument that starts with '-' for an option
    unless it reads as a plain decimal, so '-t -1e-1' would lose its value."""
    out, rest = [], list(argv)
    while rest and rest[0] != "--":
        arg = rest.pop(0)
        if (arg in ("-t", "--tol") and rest and rest[0].startswith("-")
                and _float(rest[0]) is not None):
            arg = f"{arg}={rest.pop(0)}"
        out.append(arg)
    return out + rest


def _load_jpositive(args) -> list:
    """Read and certify the matrix file given by each operand option, in order."""
    out = []
    for name in args.operands:
        path = getattr(args, name)
        try:
            X = read_matrix(path)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read matrix {name} from {path}: {exc}") from exc
        try:
            out.append(is_j_positive(X, args.signature, args.tol))
        except JConeError as exc:
            raise InputError(f"matrix {name} fails {type(exc).__name__}: {exc}") from exc
    return out


def _dumps_matrix(M) -> str:
    return canonical_dumps(matrix_to_payload(M))


def cmd_mean(args, A, B):
    result = weighted_mean(A, B, args.t)
    if args.emit_diff:
        diff = result.mean.matrix - pow_J(A, 0.5).matrix @ pow_J(B, 0.5).matrix
        return 0, _dumps_matrix(diff), None
    trailer = {"riccati_residual": result.riccati_residual} if args.t == 0.5 else None
    return 0, _dumps_matrix(result.mean.matrix), trailer


def cmd_geodesic(args, A, B):
    n = args.samples
    return 0, canonical_dumps([matrix_to_payload(geodesic(A, B, k / (n - 1)).matrix)
                               for k in range(n)]), None


def cmd_pow(args, X):
    try:
        result = pow_J(X, args.t)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return 0, _dumps_matrix(result.matrix), None


def cmd_order(args, X, Y):
    v = j_leq(X, Y, tol=args.tol)
    return 0 if v.holds else 1, canonical_dumps({"holds": v.holds, "margin": v.margin}), None


def cmd_riccati(args, A, B):
    result = weighted_mean(A, B, 0.5)
    return 0, _dumps_matrix(result.mean.matrix), {"residual": result.riccati_residual}


def cmd_rand(args):
    return 0, _dumps_matrix(random_pj(args.signature, args.field, args.seed).matrix), None


def cmd_check(args):
    # Imported here: the suites are most of the package, and only check runs them.
    from .propcheck import run_suite
    try:
        reports = run_suite(args.suite, args.signature, args.field, trials=args.trials,
                            seed=args.seed, tol=args.tol)
    except JConeError as exc:
        raise InputError(str(exc)) from exc
    return (0 if all(r.failures == 0 for r in reports) else 1,
            "\n".join(report.to_json_line() for report in reports), None)


SIGNATURE = ("--signature", dict(required=True, metavar="p,q"))
TOL = ("--tol", dict(type=_finite_tol, default=1e-9))
SEED = ("--seed", dict(type=_count, default=0))
OUT = ("--out", dict(default=None))
FIELD = ("--field", dict(default="R"))

# (name, help, matrix operands, options after them, function)
COMMANDS = (
    ("mean", "weighted geometric mean of two cone elements", ("a", "b"),
     [("-t", dict(type=float, default=0.5)),
      ("--emit-diff", dict(action="store_true",
                           help="emit (a # b) - a^{1/2}_J b^{1/2}_J instead of the mean")),
      SIGNATURE, TOL, OUT], cmd_mean),
    ("geodesic", "sample the geodesic between two cone elements", ("a", "b"),
     [("--samples", dict(type=int, default=2)), SIGNATURE, TOL, OUT], cmd_geodesic),
    ("pow", "fractional J-power of a cone element", ("x",),
     [("-t", dict(type=float, required=True)), SIGNATURE, TOL, OUT], cmd_pow),
    ("order", "test x <=_J y", ("x", "y"), [SIGNATURE, TOL, OUT], cmd_order),
    ("riccati", "solve X A^{-1} X = B on the cone", ("a", "b"),
     [SIGNATURE, TOL, OUT], cmd_riccati),
    ("rand", "draw a random cone element", (), [FIELD, SIGNATURE, SEED, OUT], cmd_rand),
    ("check", "run a randomized property suite (the quat.* properties, also in "
     "--suite all, run over H whatever --field)", (),
     [("--suite", dict(required=True)), FIELD, ("--trials", dict(type=_count, default=200)),
      SIGNATURE, TOL, SEED, OUT], cmd_check),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jcone", description="Calculus on the cone of J-positive matrices.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, operands, options, func in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for operand in operands:
            p.add_argument(f"--{operand}", required=True)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func, operands=operands)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(_attach_numbers(sys.argv[1:] if argv is None else argv))
    try:
        args.signature = _parse_signature(args.signature)
        if getattr(args, "field", "R") not in FIELDS:
            raise InputError(f"unknown field {args.field!r}")
        if getattr(args, "samples", 2) < 2:
            raise InputError("--samples must be at least 2")
        code, text, trailer = args.func(args, *_load_jpositive(args))
    except (InputError, JConeError) as exc:
        kind = "" if isinstance(exc, InputError) else f"{type(exc).__name__}: "
        print(f"error: {kind}{exc}", file=sys.stderr)
        return 2
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        print(text, file=fh)
    if trailer:
        print(canonical_dumps(trailer))
    return code


if __name__ == "__main__":
    sys.exit(main())
