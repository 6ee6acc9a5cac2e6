"""Command-line front end.

Every command reads polynomials as {"coeffs": [[w,x,y,z], ...]} (lowest
power first) from a file or `-` for stdin, and quaternion arguments as
JSON arrays [w,x,y,z].  Floats are printed with 17 significant digits, so
emitted values parse back bit-identically; outputs are assembled in full
before printing, so a failing command never emits a partial result.

Exit codes: 0 success, 2 malformed input (the message names the offending
field), 1 domain errors (the message carries the error class name) and a
failed verify-cauchy margin check.

Each command imports the library modules it calls, so `eval` and `star`
never load the expansion, contour, zeros or calculus code.
"""

import argparse
import json
import math
import os
import sys

from .errors import SliceRegError
from .polynomial import SlicePoly
from .quaternion import Quaternion, Sphere, slice_decompose
from .tolerances import EPS_BOUND_MARGIN, FD_STEP


class ParseError(SliceRegError):
    """Malformed command input; exits with status 2."""


# argparse reads "--sphere -0.3,0.8" as two options, hence the "=" form.
SPHERE_HELP = "'x0,y0'; write a negative x0 as --sphere=-0.3,0.8"


# -- formatting -------------------------------------------------------

def format_float(x: float) -> str:
    """17 significant digits round-trip any double; NaN and infinities
    have no JSON spelling, so a result that overflowed is refused."""
    if not math.isfinite(x):
        raise SliceRegError("result is not finite")
    return format(float(x), ".17g")


def emit_json(obj) -> str:
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(emit_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = (f"{json.dumps(k)}: {emit_json(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def poly_json(f: SlicePoly) -> dict:
    return {"coeffs": [c.to_list() for c in f.coeffs]}


def complex_pair(c: complex) -> list:
    return [c.real, c.imag]


# -- parsing ----------------------------------------------------------

def _require_finite(value: float, field: str) -> float:
    if not math.isfinite(value):
        raise ParseError(f"field {field}: expected a finite number, "
                         f"got {value!r}")
    return value


def _require_number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"field {field}: expected a number, got {value!r}")
    try:
        return _require_finite(float(value), field)
    except OverflowError as exc:    # a JSON integer beyond the float range
        raise ParseError(f"field {field}: {exc}") from exc


def parse_quaternion_obj(obj, field: str) -> Quaternion:
    if not isinstance(obj, list) or len(obj) != 4:
        raise ParseError(f"field {field}: expected [w,x,y,z]")
    return Quaternion(*(_require_number(v, f"{field}[{n}]")
                        for n, v in enumerate(obj)))


def parse_quaternion_arg(text: str, field: str) -> Quaternion:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"field {field}: invalid JSON ({exc.msg})") from exc
    return parse_quaternion_obj(obj, field)


def parse_sphere_arg(text: str) -> Sphere:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError("field sphere: expected 'x0,y0'")
    try:
        x0, y0 = map(float, parts)
    except ValueError as exc:
        raise ParseError(f"field sphere: {exc}") from exc
    x0, y0 = _require_finite(x0, "sphere"), _require_finite(y0, "sphere")
    if y0 < 0:
        raise ParseError("field sphere: y0 must be >= 0")
    return Sphere(x0, y0)


def read_poly(path: str) -> SlicePoly:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8 (byte {exc.start}: "
                         f"{exc.reason})") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc.msg})") from exc
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise ParseError(f"{path}: expected an object with field 'coeffs'")
    coeffs = obj["coeffs"]
    if not isinstance(coeffs, list):
        raise ParseError("field coeffs: expected a list")
    return SlicePoly(parse_quaternion_obj(c, f"coeffs[{n}]")
                     for n, c in enumerate(coeffs))


def _check_zero_tol(value: float, name: str) -> float:
    """The one rule for a zero tolerance, from the flag or the
    environment: it lies in (0, 1)."""
    if not 0 < value < math.inf:
        raise ParseError(f"{name}: must be finite and > 0")
    if not value < 1:
        raise ParseError(f"{name}: must be < 1")
    return value


def env_zero_tol() -> float | None:
    raw = os.environ.get("SLICEREG_TOL")
    if raw is None:
        return None
    try:
        value = float(raw)
    except ValueError as exc:
        raise ParseError(f"SLICEREG_TOL: not a number: {raw!r}") from exc
    return _check_zero_tol(value, "SLICEREG_TOL")


# -- commands ---------------------------------------------------------

def cmd_eval(args) -> str:
    f = read_poly(args.file)
    q = parse_quaternion_arg(args.at, "at")
    return emit_json({"value": f(q).to_list()})


def cmd_star(args) -> str:
    f = read_poly(args.file)
    g = read_poly(args.other)
    return emit_json(poly_json(f * g))


def cmd_expand(args) -> str:
    from .expansion import expand_at
    f = read_poly(args.file)
    q0 = parse_quaternion_arg(args.q0, "q0")
    x0, y0, _ = slice_decompose(q0)
    expansion = expand_at(f, q0, args.order)
    out = {"x0": x0, "y0": y0, "q0": q0.to_list(),
           "A": [c.to_list() for c in expansion.coeffs]}
    if expansion.sphere_coeffs is not None:
        out["C"] = [c.to_list() for c in expansion.sphere_coeffs]
    return emit_json(out)


def cmd_deriv(args) -> str:
    from .calculus import directional_derivative
    f = read_poly(args.file)
    q0 = parse_quaternion_arg(args.q0, "q0")
    v = parse_quaternion_arg(args.direction, "direction")
    return emit_json(
        {"derivative": directional_derivative(f, q0, v).to_list()})


def cmd_jacobian(args) -> str:
    from .calculus import complex_jacobian
    f = read_poly(args.file)
    q0 = parse_quaternion_arg(args.q0, "q0")
    jac = complex_jacobian(f, q0, fd_step=args.fd_step)
    return emit_json({
        "I": jac.slice_unit.to_list(),
        "J": jac.normal_unit.to_list(),
        "holo": [[complex_pair(c) for c in row] for row in jac.holo],
        "antiholo": [[complex_pair(c) for c in row] for row in jac.antiholo],
    })


def cmd_mult(args) -> str:
    from .zeros import analyze_sphere
    f = read_poly(args.file)
    sphere = parse_sphere_arg(args.sphere)
    tol = args.zero_tol if args.zero_tol is not None else env_zero_tol()
    report = analyze_sphere(f, sphere, tol)
    return emit_json({
        "x0": sphere.x0,
        "y0": sphere.y0,
        "spherical_mult": report.spherical_mult,
        "isolated_point": (report.isolated_point.to_list()
                           if report.isolated_point is not None else None),
        "isolated_mult": report.isolated_mult,
        "factors": [p.to_list() for p in report.factors],
        "residual": poly_json(report.residual),
    })


def cmd_verify_cauchy(args) -> tuple[str, int]:
    from .contour import (circle_contour, coefficient_bound_report,
                          coefficient_integral)
    from .expansion import LemniscateDomain
    f = read_poly(args.file)
    sphere = parse_sphere_arg(args.sphere)
    unit = parse_quaternion_arg(args.unit, "unit")
    domain = LemniscateDomain(sphere.x0, sphere.y0, args.radius)
    report = coefficient_bound_report(f, domain, unit, args.order)
    # Verification circle: centered at x0, radius y0 + R encloses the
    # closed domain strictly; circles give spectral quadrature accuracy.
    contour = circle_contour(sphere.x0, sphere.y0 + args.radius, unit,
                             args.nodes)
    q0 = sphere.point(unit)
    integrals = [abs(coefficient_integral(f, q0, n, contour))
                 for n in range(len(report.coeff_mags))]
    rows = zip(report.coeff_mags, integrals, report.bounds, report.margins)
    lines = [f"{'n':>3}  {'|A_n| algebraic':>18}  {'|A_n| integral':>18}"
             f"  {'bound':>18}  {'margin':>18}"]
    for n, (mag, integral, bound, margin) in enumerate(rows):
        lines.append(f"{n:>3}  {mag:>18.12e}  {integral:>18.12e}"
                     f"  {bound:>18.12e}  {margin:>18.12e}")
    status = 1 if report.min_margin < -EPS_BOUND_MARGIN else 0
    return "\n".join(lines), status


def cmd_lemniscate(args) -> str:
    from .expansion import LemniscateDomain, boundary_parameterization
    if args.nodes % 2:
        raise ParseError("field nodes: boundary sampling needs an even count")
    sphere = parse_sphere_arg(args.sphere)
    domain = LemniscateDomain(sphere.x0, sphere.y0, args.radius)
    samples = boundary_parameterization(domain, args.nodes)
    if args.format == "json":
        return emit_json([{"theta": t, "re": z.real, "im": z.imag, "loop": n}
                          for t, z, n in samples])
    rows = ["theta,re,im,loop"]
    rows += [f"{format_float(t)},{format_float(z.real)},"
             f"{format_float(z.imag)},{loop}" for t, z, loop in samples]
    return "\n".join(rows)


# -- driver -----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicereg",
        description="Computations with slice-regular quaternionic polynomials.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a polynomial at a point")
    p.add_argument("file")
    p.add_argument("--at", required=True, help="quaternion [w,x,y,z]")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("star", help="star product of two polynomials")
    p.add_argument("file")
    p.add_argument("other")
    p.set_defaults(func=cmd_star)

    p = sub.add_parser("expand", help="series expansion at the sphere of q0")
    p.add_argument("file")
    p.add_argument("--q0", required=True)
    p.add_argument("--order", type=int, default=8,
                   help="highest coefficient index")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("deriv", help="directional derivative at q0")
    p.add_argument("file")
    p.add_argument("--q0", required=True)
    p.add_argument("--direction", required=True, help="unit quaternion")
    p.set_defaults(func=cmd_deriv)

    p = sub.add_parser("jacobian", help="complex Jacobian at q0")
    p.add_argument("file")
    p.add_argument("--q0", required=True)
    p.add_argument("--fd-step", type=float, default=FD_STEP)
    p.set_defaults(func=cmd_jacobian)

    p = sub.add_parser("mult", help="zero multiplicities on a sphere")
    p.add_argument("file")
    p.add_argument("--sphere", required=True, help=SPHERE_HELP)
    p.add_argument("--zero-tol", type=float, default=None,
                   help="relative zero tolerance: |v| <= tol * max|coeff|")
    p.set_defaults(func=cmd_mult)

    p = sub.add_parser("verify-cauchy",
                       help="coefficient bounds and integral cross-check")
    p.add_argument("file")
    p.add_argument("--sphere", required=True, help=SPHERE_HELP)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--nodes", type=int, default=256)
    p.add_argument("--unit", default="[0,1,0,0]",
                   help="imaginary unit of the slice plane (default i)")
    p.set_defaults(func=cmd_verify_cauchy)

    p = sub.add_parser("lemniscate", help="sample the boundary lemniscate")
    p.add_argument("--sphere", required=True, help=SPHERE_HELP)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--nodes", type=int, default=256)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_lemniscate)

    return parser


def _validate_config(args) -> None:
    nodes = getattr(args, "nodes", None)
    if nodes is not None and nodes < 16:
        raise ParseError("field nodes: need at least 16")
    for name in ("fd_step", "radius"):
        value = getattr(args, name, None)
        if value is not None and not 0 < value < math.inf:
            raise ParseError(f"field {name}: must be finite and > 0")
    zero_tol = getattr(args, "zero_tol", None)
    if zero_tol is not None:
        _check_zero_tol(zero_tol, "field zero_tol")
    order = getattr(args, "order", None)
    if order is not None and order < 0:
        raise ParseError("field order: must be >= 0")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate_config(args)
        result = args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SliceRegError, ZeroDivisionError) as exc:
        # Only named refusals, and the documented ZeroDivisionError; any
        # other exception is a fault and shows its traceback.
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if isinstance(result, tuple):
        text, status = result
    else:
        text, status = result, 0
    print(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
