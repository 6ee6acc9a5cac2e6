"""CLI workload: `python -m slicereg <command>` subprocesses, one at a time.

Every round runs the same command list over all eight subcommands, with
the seed's input files, plus three requests that must be refused.
`verify-cauchy` runs at four radii: it is the one command that does real
work after start-up, and 4 of the 16 commands keep it above the tail
percentile.  Stdout is compared bit for bit with the in-process result of
the public functions (floats are printed with 17 significant digits, so
they parse back exactly); refusals must match both the exit code and the
error name.
"""

import json
import os
import random
import subprocess
import sys

from algebra import rand_point, rand_sphere
from refmath import (ONE, Outputs, qabs, qscale, rand_poly, rand_quat,
                     rand_unit, ref_sphere_quadratic, ref_star, sphere_point)
from spans import Raised

DEGREE = 8
TIMEOUT_S = 120


def qarg(q):
    return json.dumps(list(q))


class InputSet:
    def __init__(self, rng, workdir):
        self.f = rand_poly(rng, DEGREE)
        self.g = rand_poly(rng, DEGREE)
        self.at = rand_point(rng)
        self.q0 = rand_point(rng)
        self.real = (rng.uniform(-0.5, 0.5), 0.0, 0.0, 0.0)
        direction = rand_quat(rng)
        self.v = qscale(direction, 1.0 / qabs(direction))
        self.unit = rand_unit(rng)
        self.x0, self.y0 = rand_sphere(rng)
        # Planted zeros: f * (q - p) * [(q - x0)^2 + y0^2] has spherical
        # multiplicity 2 and a zero on the sphere of p.
        self.sphere_arg = f"--sphere={self.x0!r},{self.y0!r}"
        p = sphere_point(self.x0, self.y0, rand_unit(rng))
        planted = ref_star(ref_star(self.f, [qscale(p, -1.0), ONE]),
                           ref_sphere_quadratic(self.x0, self.y0))
        self.files, self.polys = {}, {}
        for name, coeffs in (("f", self.f), ("g", self.g),
                             ("planted", planted)):
            path = os.path.join(workdir, f"{name}.json")
            write_poly(path, coeffs)
            self.files[name] = path
            self.polys[path] = coeffs

    def commands(self, malformed):
        f, g = self.files["f"], self.files["g"]
        unit = qarg(self.unit)
        return [
            ("eval", None, ["eval", f, "--at", qarg(self.at)]),
            ("star", None, ["star", f, g]),
            ("expand", None, ["expand", f, "--q0", qarg(self.q0),
                              "--order", "6"]),
            ("expand", None, ["expand", f, "--q0", qarg(self.real),
                              "--order", "6"]),
            ("deriv", None, ["deriv", f, "--q0", qarg(self.q0),
                             "--direction", qarg(self.v)]),
            ("jacobian", None, ["jacobian", f, "--q0", qarg(self.q0)]),
            ("mult", None, ["mult", self.files["planted"],
                            self.sphere_arg]),
            *(("verify-cauchy", None, ["verify-cauchy", f, "--sphere", "0,1",
                                       "--radius", radius, "--order", "2",
                                       "--nodes", "64", "--unit", unit])
              for radius in ("2", "0.5", "1.5", "3")),
            ("lemniscate", None, ["lemniscate", self.sphere_arg,
                                  "--radius",
                                  repr(0.7 * self.y0), "--nodes", "256"]),
            # At the pinch R = y0 the boundary is a figure-eight: the
            # command samples it (exit 0) rather than refusing.
            ("lemniscate", None, ["lemniscate", "--sphere", "0,1",
                                  "--radius", "1", "--nodes", "64",
                                  "--format", "json"]),
            ("eval", (2, "coeffs[1][2]"), ["eval", malformed, "--at",
                                           qarg(self.at)]),
            ("deriv", (2, "field q0"), ["deriv", f, "--q0", "[1, 0,",
                                        "--direction", qarg(self.v)]),
            ("verify-cauchy", (1, "PinchedContour"),
             ["verify-cauchy", f, "--sphere", "0,1", "--radius", "1",
              "--order", "2"]),
        ]


def write_poly(path, coeffs):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"coeffs": [list(c) for c in coeffs]}, handle)


class Commands:
    def __init__(self, root, workdir):
        self.root = root
        self.workdir = workdir

    def setup(self, lib, seed, smoke):
        rng = random.Random(seed)
        self.lib = lib
        os.makedirs(self.workdir, exist_ok=True)
        self.inputs = InputSet(rng, self.workdir)
        self.malformed = os.path.join(self.workdir, "malformed.json")
        with open(self.malformed, "w", encoding="utf-8") as handle:
            handle.write('{"coeffs": [[1, 0, 0, 0], [0, 1, "x", 0]]}')
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        self.outputs = Outputs()

    def run(self, argv):
        proc = subprocess.run([sys.executable, "-m", "slicereg", *argv],
                              cwd=self.root, env=self.env,
                              capture_output=True, text=True,
                              timeout=TIMEOUT_S, check=False)
        return proc.returncode, proc.stdout, proc.stderr

    def run_round(self, rec):
        for c, (name, refusal, argv) in enumerate(
                self.inputs.commands(self.malformed)):
            kind = f"cli.{name}" if refusal is None else f"refuse.{name}"
            out = rec.request(kind, self.run, argv)
            self.outputs.add(c, out)

    def check(self, corrupt=False):
        """Failed commands; `corrupt` shifts one expected value."""
        commands = self.inputs.commands(self.malformed)

        def check(c, out):
            name, refusal, argv = commands[c]
            return self.verify(self.inputs, name, refusal, argv, out,
                               corrupt and c == 0)

        return self.outputs.failed(check)

    def verify(self, s, name, refusal, argv, out, shift):
        if isinstance(out, Raised):
            return False
        code, stdout, stderr = out
        if refusal is not None:
            want_code, want_text = refusal
            return code == want_code and want_text in stderr \
                and stdout == ""
        want_code, expected = EXPECTED[name](self.lib, s, argv)
        if shift:
            expected = shift_first_float(expected)
        return code == want_code and parse(name, stdout) == expected


# -- in-process expectations ---------------------------------------------

def read_poly(lib, s, path):
    """The polynomial written to `path` (JSON round-trips floats exactly)."""
    return lib.SlicePoly(lib.Quaternion(*c) for c in s.polys[path])


def arg(argv, flag):
    """The value of `flag`, given as `flag value` or `flag=value`."""
    for n, item in enumerate(argv):
        if item == flag:
            return argv[n + 1]
        if item.startswith(flag + "="):
            return item[len(flag) + 1:]
    raise KeyError(flag)


def qlist(q):
    return [q.w, q.x, q.y, q.z]


def quat(lib, text):
    return lib.Quaternion(*json.loads(text))


def expect_eval(lib, s, argv):
    f = read_poly(lib, s, argv[1])
    return 0, {"value": qlist(f(quat(lib, arg(argv, "--at"))))}


def expect_star(lib, s, argv):
    f, g = read_poly(lib, s, argv[1]), read_poly(lib, s, argv[2])
    return 0, {"coeffs": [qlist(c) for c in (f * g).coeffs]}


def expect_expand(lib, s, argv):
    f = read_poly(lib, s, argv[1])
    q0 = quat(lib, arg(argv, "--q0"))
    order = int(arg(argv, "--order"))
    x0, y0, _ = lib.slice_decompose(q0)
    out = {"x0": x0, "y0": y0, "q0": qlist(q0)}
    try:
        exp = lib.expand_pair(f, lib.Sphere(x0, y0), q0, q0.conj(), order)
        out["A"] = [qlist(c) for c in exp.coeffs]
        out["C"] = [qlist(c) for c in exp.sphere_coeffs]
    except lib.DegenerateSphere:
        out["A"] = [qlist(c) for c in lib.expand_at(f, q0, order).coeffs]
    return 0, out


def expect_deriv(lib, s, argv):
    f = read_poly(lib, s, argv[1])
    value = lib.directional_derivative(f, quat(lib, arg(argv, "--q0")),
                                       quat(lib, arg(argv, "--direction")))
    return 0, {"derivative": qlist(value)}


def expect_jacobian(lib, s, argv):
    f = read_poly(lib, s, argv[1])
    jac = lib.complex_jacobian(f, quat(lib, arg(argv, "--q0")))

    def block(rows):
        return [[[c.real, c.imag] for c in row] for row in rows]

    return 0, {"I": qlist(jac.slice_unit), "J": qlist(jac.normal_unit),
               "holo": block(jac.holo), "antiholo": block(jac.antiholo)}


def expect_mult(lib, s, argv):
    f = read_poly(lib, s, argv[1])
    x0, y0 = (float(v) for v in arg(argv, "--sphere").split(","))
    sphere = lib.Sphere(x0, y0)
    report = lib.analyze_sphere(f, sphere)
    point = report.isolated_point
    return 0, {"x0": x0, "y0": y0, "spherical_mult": report.spherical_mult,
               "isolated_point": None if point is None else qlist(point),
               "isolated_mult": report.isolated_mult,
               "factors": [qlist(p) for p in report.factors],
               "residual": {"coeffs": [qlist(c)
                                       for c in report.residual.coeffs]}}


def expect_verify_cauchy(lib, s, argv):
    f = read_poly(lib, s, argv[1])
    x0, y0 = (float(v) for v in arg(argv, "--sphere").split(","))
    radius = float(arg(argv, "--radius"))
    order = int(arg(argv, "--order"))
    unit = quat(lib, arg(argv, "--unit"))
    report = lib.coefficient_bound_report(
        f, lib.LemniscateDomain(x0, y0, radius), unit, order)
    contour = lib.circle_contour(x0, y0 + radius, unit,
                                 int(arg(argv, "--nodes")))
    q0 = lib.Sphere(x0, y0).point(unit)
    rows = []
    for n, mag in enumerate(report.coeff_mags):
        integral = abs(lib.coefficient_integral(f, q0, n, contour))
        rows.append([n] + [float(format(v, ".12e")) for v in (
            mag, integral, report.bounds[n], report.margins[n])])
    return (1 if report.min_margin < -1e-6 else 0), rows


def expect_lemniscate(lib, s, argv):
    x0, y0 = (float(v) for v in arg(argv, "--sphere").split(","))
    domain = lib.LemniscateDomain(x0, y0, float(arg(argv, "--radius")))
    samples = lib.boundary_parameterization(domain, int(arg(argv, "--nodes")))
    return 0, [[t, z.real, z.imag, loop] for t, z, loop in samples]


EXPECTED = {"eval": expect_eval, "star": expect_star, "expand": expect_expand,
            "deriv": expect_deriv, "jacobian": expect_jacobian,
            "mult": expect_mult, "verify-cauchy": expect_verify_cauchy,
            "lemniscate": expect_lemniscate}


def parse(name, stdout):
    """The command's stdout as numbers, for exact comparison."""
    if name == "verify-cauchy":
        rows = [line.split() for line in stdout.strip().split("\n")[1:]]
        return [[int(r[0])] + [float(v) for v in r[1:]] for r in rows]
    if name == "lemniscate" and stdout.startswith("theta,"):
        rows = [line.split(",") for line in stdout.strip().split("\n")[1:]]
        return [[float(t), float(re), float(im), int(loop)]
                for t, re, im, loop in rows]
    data = json.loads(stdout)
    if name == "lemniscate":
        return [[d["theta"], d["re"], d["im"], d["loop"]] for d in data]
    return data


def shift_first_float(node, done=None):
    """A copy of the expectation with its first float changed."""
    done = [] if done is None else done
    if isinstance(node, dict):
        return {k: shift_first_float(v, done) for k, v in node.items()}
    if isinstance(node, list):
        return [shift_first_float(v, done) for v in node]
    if isinstance(node, float) and not done:
        done.append(True)
        return node + 1.0
    return node
