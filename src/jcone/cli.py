"""Command-line front-end for the cone calculus.

Commands: mean | geodesic | pow | order | riccati | rand | check.
Exit codes: 0 success / relation holds, 1 property or order violated,
2 input error (unparsable file, failed membership, bad arguments).
"""

from __future__ import annotations

import argparse
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


def _finite_tol(text: str) -> float:
    """--tol as a float, negative allowed: a NaN or infinite threshold would
    pass or reject everything with no message naming it."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _attach_numbers(argv: list[str]) -> list[str]:
    """argv with each negative number after -t or --tol attached to it, as
    '-t=-1e-1': argparse takes an argument that starts with '-' for an option
    unless it reads as a plain decimal, so '-t -1e-1' would lose its value."""
    out, rest = [], list(argv)
    while rest and rest[0] != "--":
        arg = rest.pop(0)
        if arg in ("-t", "--tol") and rest and rest[0].startswith("-") and _is_number(rest[0]):
            arg = f"{arg}={rest.pop(0)}"
        out.append(arg)
    return out + rest


def _load_jpositive(args, sig: Signature, *names: str) -> list:
    """Read and certify the matrix file given by each named option, in order."""
    out = []
    for name in names:
        path = getattr(args, name)
        try:
            X = read_matrix(path)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read matrix {name} from {path}: {exc}") from exc
        try:
            out.append(is_j_positive(X, sig, args.tol))
        except JConeError as exc:
            raise InputError(f"matrix {name} fails {type(exc).__name__}: {exc}") from exc
    return out


def _emit(out_path: str | None, text: str):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_mean(args) -> int:
    sig = _parse_signature(args.signature)
    A, B = _load_jpositive(args, sig, "a", "b")
    result = weighted_mean(A, B, args.t)
    if args.emit_diff:
        diff = (result.mean.matrix
                - pow_J(A, 0.5).matrix @ pow_J(B, 0.5).matrix)
        _emit(args.out, canonical_dumps(matrix_to_payload(diff)))
        return 0
    _emit(args.out, canonical_dumps(matrix_to_payload(result.mean.matrix)))
    if args.t == 0.5:
        print(canonical_dumps({"riccati_residual": result.riccati_residual}))
    return 0


def cmd_geodesic(args) -> int:
    sig = _parse_signature(args.signature)
    if args.samples < 2:
        raise InputError("--samples must be at least 2")
    A, B = _load_jpositive(args, sig, "a", "b")
    payloads = []
    for k in range(args.samples):
        t = k / (args.samples - 1)
        payloads.append(matrix_to_payload(geodesic(A, B, t).matrix))
    _emit(args.out, canonical_dumps(payloads))
    return 0


def cmd_pow(args) -> int:
    sig = _parse_signature(args.signature)
    X, = _load_jpositive(args, sig, "x")
    try:
        result = pow_J(X, args.t)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _emit(args.out, canonical_dumps(matrix_to_payload(result.matrix)))
    return 0


def cmd_order(args) -> int:
    sig = _parse_signature(args.signature)
    X, Y = _load_jpositive(args, sig, "x", "y")
    verdict = j_leq(X, Y, tol=args.tol)
    _emit(args.out, canonical_dumps({"holds": verdict.holds,
                                     "margin": verdict.margin}))
    return 0 if verdict.holds else 1


def cmd_riccati(args) -> int:
    sig = _parse_signature(args.signature)
    A, B = _load_jpositive(args, sig, "a", "b")
    result = weighted_mean(A, B, 0.5)
    _emit(args.out, canonical_dumps(matrix_to_payload(result.mean.matrix)))
    print(canonical_dumps({"residual": result.riccati_residual}))
    return 0


def _sized_signature(args) -> Signature:
    """The --signature of rand and check, once --dim and --field agree with it."""
    sig = _parse_signature(args.signature)
    if args.dim is not None and args.dim != sig.n:
        raise InputError(f"--dim {args.dim} disagrees with signature n={sig.n}")
    if args.field not in FIELDS:
        raise InputError(f"unknown field {args.field!r}")
    return sig


def cmd_rand(args) -> int:
    sig = _sized_signature(args)
    X = random_pj(sig, args.field, args.seed)
    _emit(args.out, canonical_dumps(matrix_to_payload(X.matrix)))
    return 0


def cmd_check(args) -> int:
    sig = _sized_signature(args)
    # Imported here: the suites are most of the package, and only check runs them.
    from .propcheck import run_suite
    try:
        reports = run_suite(args.suite, sig, args.field, trials=args.trials,
                            seed=args.seed, tol=args.tol)
    except JConeError as exc:
        raise InputError(str(exc)) from exc
    lines = [report.to_json_line() for report in reports]
    _emit(args.out, "\n".join(lines))
    return 0 if all(r.failures == 0 for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jcone",
        description="Calculus on the cone of J-positive matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=True):
        p.add_argument("--signature", required=True, metavar="p,q")
        p.add_argument("--tol", type=_finite_tol, default=1e-9)
        p.add_argument("--seed", type=int, default=0)
        if out:
            p.add_argument("--out", default=None)

    p = sub.add_parser("mean", help="weighted geometric mean of two cone elements")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("-t", type=float, default=0.5)
    p.add_argument("--emit-diff", action="store_true",
                   help="emit (a # b) - a^{1/2}_J b^{1/2}_J instead of the mean")
    common(p)
    p.set_defaults(func=cmd_mean)

    p = sub.add_parser("geodesic", help="sample the geodesic between two cone elements")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--samples", type=int, default=2)
    common(p)
    p.set_defaults(func=cmd_geodesic)

    p = sub.add_parser("pow", help="fractional J-power of a cone element")
    p.add_argument("--x", required=True)
    p.add_argument("-t", type=float, required=True)
    common(p)
    p.set_defaults(func=cmd_pow)

    p = sub.add_parser("order", help="test x <=_J y")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    common(p)
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("riccati", help="solve X A^{-1} X = B on the cone")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    common(p)
    p.set_defaults(func=cmd_riccati)

    p = sub.add_parser("rand", help="draw a random cone element")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--field", default="R")
    common(p)
    p.set_defaults(func=cmd_rand)

    p = sub.add_parser("check", help="run a randomized property suite (the quat.* "
                       "properties, also in --suite all, run over H whatever --field)")
    p.add_argument("--suite", required=True)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--field", default="R")
    p.add_argument("--trials", type=int, default=200)
    common(p)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_numbers(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except JConeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
