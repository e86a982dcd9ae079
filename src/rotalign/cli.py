"""Command-line front end: detect, decompose, correlate, experiment, sample.

Machine output (``--json`` and report files) sticks to radians; human
output shows degrees alongside.  Exit codes: 0 on success (detection
converged), 2 when detection hits the iteration cap, 1 on usage errors
or bad input.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from .correlation import correlate_linear, correlate_sampled
from .experiments import TrialSpec, report_csv_header, run_campaign
from .fields import (
    LinearField,
    SymmetricDomain,
    UNIT_DISK,
    decompose,
    double_winding,
    inner_rotate,
    outer_rotate,
    recompose,
    Decomposition,
    sample,
    total_rotate,
    write_samples_csv,
)
from .registration import DetectionStatus, DetectorConfig, detect

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_domain(text: str) -> SymmetricDomain:
    kind, _, size = text.partition(":")
    if kind not in ("square", "disk") or not size:
        raise ValueError(f"domain must look like square:1.0 or disk:1.0, got {text!r}")
    return SymmetricDomain(kind, float(size))


def _parse_floats(text: str, count: int, what: str) -> list:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != count:
        raise ValueError(f"{what} needs {count} comma-separated numbers, got {text!r}")
    return [float(p) for p in parts]


def _field_from_args(args) -> LinearField:
    if getattr(args, "field_file", None):
        with open(args.field_file) as handle:
            return LinearField.from_json_dict(json.load(handle))
    if getattr(args, "field", None):
        a11, a12, a21, a22 = _parse_floats(args.field, 4, "--field")
        return LinearField(a11, a12, a21, a22, _parse_domain(args.domain))
    raise ValueError("one of --field or --field-file is required")


def _counterpart_from_args(args, field: LinearField, rotation: str = "total") -> LinearField:
    if getattr(args, "pattern_file", None):
        with open(args.pattern_file) as handle:
            return LinearField.from_json_dict(json.load(handle))
    if getattr(args, "alpha", None) is not None:
        rotate = {"total": total_rotate, "outer": outer_rotate,
                  "inner": inner_rotate}[rotation]
        return rotate(field, args.alpha)
    raise ValueError("one of --alpha or --pattern-file is required")


def _print_angle(label: str, radians: float) -> None:
    print(f"{label}: {radians:.12g} rad ({math.degrees(radians):.9g} deg)")


def _cmd_detect(args) -> int:
    field = _field_from_args(args)
    pattern = _counterpart_from_args(args, field)
    cfg = DetectorConfig(eps=args.eps, max_iter=args.max_iter)
    result = detect(field, pattern, cfg)

    if args.json:
        payload = {
            "alpha": result.alpha,
            "iterations": result.iterations,
            "status": result.status.value,
            "corrected": result.corrected.to_json_dict(),
        }
        if args.trace:
            payload["trace"] = [
                {"iteration": t.iteration, "phi": t.phi,
                 "alpha_after": t.alpha_after, "branch": t.branch}
                for t in result.trace
            ]
        print(json.dumps(payload, indent=2))
    else:
        print(f"status: {result.status.value}")
        _print_angle("alpha", result.alpha)
        print(f"iterations: {result.iterations}")
        if args.trace:
            for t in result.trace:
                branch = t.branch or "-"
                print(f"  iter {t.iteration:4d}  phi {t.phi:+.12e}  "
                      f"acc {t.alpha_after:+.12e}  branch {branch}")
    return 0 if result.status is DetectionStatus.CONVERGED else 2


def _cmd_decompose(args) -> int:
    if args.coeffs:
        a, b, c, d = _parse_floats(args.coeffs, 4, "--coeffs")
        field = recompose(Decomposition(a, b, c, d), _parse_domain(args.domain))
        if args.json:
            print(json.dumps(field.to_json_dict()))
        else:
            print(f"a11: {field.a11!r}")
            print(f"a12: {field.a12!r}")
            print(f"a21: {field.a21!r}")
            print(f"a22: {field.a22!r}")
        return 0
    field = _field_from_args(args)
    dec = decompose(field)
    if args.json:
        print(json.dumps({"a": dec.a, "b": dec.b, "c": dec.c, "d": dec.d}))
    else:
        print(f"saddle    a: {dec.a!r}")
        print(f"saddle45  b: {dec.b!r}")
        print(f"source    c: {dec.c!r}")
        print(f"vortex    d: {dec.d!r}")
    return 0


def _cmd_correlate(args) -> int:
    field = _field_from_args(args)
    pattern = _counterpart_from_args(args, field, rotation=args.rotation)
    with np.errstate(over="ignore", invalid="ignore"):
        if args.n is not None:
            cor = correlate_sampled(sample(pattern, args.n), sample(field, args.n))
        else:
            cor = correlate_linear(pattern, field)
    v = cor.value
    # Two nonzero fields that are orthogonal, or whose samples' products
    # underflowed, have no argument; atan2 would read 0.  (correlate_linear
    # refuses a value that underflows itself.)
    if cor.magnitude < sys.float_info.min and not (field.is_zero() or pattern.is_zero()):
        raise ValueError("the correlation of these nonzero fields is zero or subnormal, "
                         "so its argument is undefined")
    if args.json:
        print(json.dumps({"value": cor.value.to_json_dict(),
                          "argument": cor.argument,
                          "magnitude": cor.magnitude}))
    else:
        print(f"value: {v.s:.12g} + {v.x:.12g} e1 + {v.y:.12g} e2 + {v.b:.12g} e12")
        _print_angle("argument", cor.argument)
        print(f"magnitude: {cor.magnitude:.12g}")
    return 0


def _cmd_experiment(args) -> int:
    spec = TrialSpec(trials=args.trials, eps=args.eps, seed=args.seed,
                     coeff_bound=args.coeff_bound, max_iter=args.max_iter,
                     coefficient_space=args.coeff_space)
    report = run_campaign(spec)
    fmt = args.format or ("csv" if args.out and args.out.endswith(".csv") else "json")
    if fmt == "csv":
        buffer = io.StringIO()
        csv.writer(buffer).writerows([report_csv_header(), report.csv_row()])
        text = buffer.getvalue()
    else:
        text = report.to_json()
    if args.out:
        with open(args.out, "w", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_sample(args) -> int:
    if args.preset:
        if args.preset != "counterexample":
            raise ValueError(f"unknown preset {args.preset!r}")
        field, domain = double_winding(0.0), UNIT_DISK
        rotate = lambda _, alpha: double_winding(alpha)
    else:
        field, domain, rotate = _field_from_args(args), None, total_rotate
    write_samples_csv(sample(field, args.n, domain), args.out)
    if args.rotated_out:
        write_samples_csv(sample(rotate(field, args.alpha or 0.0), args.n, domain),
                          args.rotated_out)
    return 0


def _add_field_options(parser, with_counterpart: bool = True) -> None:
    parser.add_argument("--field", help="a11,a12,a21,a22")
    parser.add_argument("--field-file", help="path to a field JSON file")
    parser.add_argument("--domain", default="square:1.0",
                        help="square:HALF_SIDE or disk:RADIUS (default square:1.0)")
    if with_counterpart:
        parser.add_argument("--alpha", type=float,
                            help="build the counterpart by rotating the field")
        parser.add_argument("--pattern-file", help="counterpart field JSON file")


def _build_parser() -> _Parser:
    parser = _Parser(prog="rotalign",
                     description="Rotation alignment of 2D linear vector fields "
                                 "by geometric correlation.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("detect", help="recover the total-rotation offset")
    _add_field_options(p)
    p.add_argument("--eps", type=float, default=1e-6, help="stopping accuracy")
    p.add_argument("--max-iter", type=int, default=10000)
    p.add_argument("--json", action="store_true")
    p.add_argument("--trace", action="store_true", help="include per-iteration trace")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("decompose",
                       help="field to basis coefficients, or back with --coeffs")
    _add_field_options(p, with_counterpart=False)
    p.add_argument("--coeffs", help="a,b,c,d to rebuild a field instead")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("correlate", help="geometric correlation of two fields")
    _add_field_options(p)
    p.add_argument("--rotation", choices=("total", "outer", "inner"),
                   default="total", help="how --alpha builds the counterpart")
    p.add_argument("--n", type=int, help="use the sampled backend at this resolution")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser("experiment", help="randomized detection campaign")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coeff-bound", type=float, default=1.0)
    p.add_argument("--max-iter", type=int, default=10000)
    p.add_argument("--coeff-space", action="store_true",
                   help="draw basis coefficients instead of matrix entries")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "csv"))
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("sample", help="write cell-center samples as CSV")
    _add_field_options(p, with_counterpart=False)
    p.add_argument("--preset", help="'counterexample': the double-winding disk flow")
    p.add_argument("--alpha", type=float, help="angle for the rotated copy")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rotated-out", help="also write the rotated copy here")
    p.set_defaults(func=_cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"rotalign: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
