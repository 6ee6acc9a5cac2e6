import ast
import json
import math
import os
import subprocess
import sys

import pytest

import slicereg
from slicereg import (DegenerateSphere, Quaternion, SlicePoly, Sphere,
                      expand_at, expand_pair, slice_decompose)
from slicereg.cli import emit_json, main
from oracles import threshold_gap_poly

QSQ = {"coeffs": [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]}
QSQ_PLUS_1 = {"coeffs": [[1, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]}
# (q-i)*(q-j) = q^2 - q(i+j) + k
TWO_FACTOR = {"coeffs": [[0, 0, 0, 1], [0, -1, -1, 0], [1, 0, 0, 0]]}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval(tmp_path, capsys):
    path = write(tmp_path, "f.json", QSQ)
    code, out, _ = run_cli(capsys, ["eval", path, "--at", "[1,0,0,1]"])
    assert code == 0
    assert json.loads(out) == {"value": [0, 0, 0, 2]}


def test_star_golden(tmp_path, capsys):
    f = write(tmp_path, "f.json", {"coeffs": [[0, -1, 0, 0], [1, 0, 0, 0]]})
    g = write(tmp_path, "g.json", {"coeffs": [[0, 1, 0, 0], [1, 0, 0, 0]]})
    code, out, _ = run_cli(capsys, ["star", f, g])
    assert code == 0
    assert json.loads(out) == QSQ_PLUS_1


def test_expand_golden(tmp_path, capsys):
    path = write(tmp_path, "f.json", QSQ)
    code, out, _ = run_cli(capsys, ["expand", path, "--q0", "[0,1,0,0]",
                                    "--order", "4"])
    assert code == 0
    data = json.loads(out)
    assert data["A"] == [[-1, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0],
                         [0, 0, 0, 0], [0, 0, 0, 0]]
    assert data["C"][0] == [-1, 0, 0, 0]
    assert data["x0"] == 0 and data["y0"] == 1


def test_expand_real_point_omits_pair_family(tmp_path, capsys):
    path = write(tmp_path, "f.json", QSQ)
    code, out, _ = run_cli(capsys, ["expand", path, "--q0", "[2,0,0,0]",
                                    "--order", "3"])
    assert code == 0
    data = json.loads(out)
    assert "C" not in data
    assert data["A"][0] == [4, 0, 0, 0]   # Taylor at 2
    assert data["A"][1] == [4, 0, 0, 0]
    assert data["A"][2] == [1, 0, 0, 0]


@pytest.mark.parametrize("q0, has_c", [
    ([0, 1e-9, 0, 0], True), ([0.4, 1e-9, 0, 0], True),
    ([0.4, 0.3, -0.5, 0.2], True), ([0.4, 0, 0, 0], False),
    ([0, 1.0000000000000002e-14, 0, 0], True)])
def test_expand_matches_expand_pair(tmp_path, capsys, q0, has_c):
    # "C" is printed exactly where expand_pair accepts the conjugate pair
    # and "y0" is not 0: everywhere but on a degenerate sphere, so a
    # sphere of radius 1e-9, or one float past the point guard, is read
    # as given and keeps it.
    f = SlicePoly([Quaternion(0.5, -1, 0.25, 2), Quaternion(0, 1, 1, 0),
                   Quaternion(1, 0, -0.5, 0.125)])
    path = write(tmp_path, "f.json",
                 {"coeffs": [c.to_list() for c in f.coeffs]})
    code, out, _ = run_cli(capsys, ["expand", path, "--q0", json.dumps(q0),
                                    "--order", "5"])
    assert code == 0
    q = Quaternion(*q0)
    x0, y0, _ = slice_decompose(q)
    expected = {"x0": x0, "y0": y0, "q0": q.to_list()}
    try:
        expansion = expand_pair(f, Sphere(x0, y0), q, q.conj(), 5)
        expected["A"] = [c.to_list() for c in expansion.coeffs]
        expected["C"] = [c.to_list() for c in expansion.sphere_coeffs]
    except DegenerateSphere:
        expected["A"] = [c.to_list() for c in expand_at(f, q, 5).coeffs]
    assert ("C" in expected) == has_c == (y0 != 0.0)
    assert out == emit_json(expected) + "\n"


def test_mult_golden(tmp_path, capsys):
    path = write(tmp_path, "f.json", QSQ_PLUS_1)
    code, out, _ = run_cli(capsys, ["mult", path, "--sphere", "0,1"])
    assert code == 0
    data = json.loads(out)
    assert data["spherical_mult"] == 2
    assert data["isolated_point"] is None
    assert data["isolated_mult"] == 0

    path = write(tmp_path, "g.json", TWO_FACTOR)
    code, out, _ = run_cli(capsys, ["mult", path, "--sphere", "0,1"])
    data = json.loads(out)
    assert data["spherical_mult"] == 0
    assert data["isolated_mult"] == 2
    assert data["isolated_point"] == [-0.0, 1, -0.0, -0.0]


def test_mult_conjugate_factors_is_domain_error(tmp_path, capsys):
    # (q - i) * (q - p) with p a hair from -i: the peeled factors come out
    # conjugate, which the spherical test missed.
    eps = 5e-10
    p = Quaternion(0, -math.cos(eps), math.sin(eps), 0)
    f = SlicePoly.linear_factor(Quaternion(0, 1, 0, 0)) * \
        SlicePoly.linear_factor(p)
    path = write(tmp_path, "f.json",
                 {"coeffs": [c.to_list() for c in f.coeffs]})
    code, out, err = run_cli(capsys, ["mult", path, "--sphere", "0,1"])
    assert code == 1
    assert out == ""
    assert "SliceRegError" in err


def test_mult_cofactor_at_the_threshold_of_f(tmp_path, capsys):
    f, _, _ = threshold_gap_poly()
    path = write(tmp_path, "f.json",
                 {"coeffs": [c.to_list() for c in f.coeffs]})
    code, out, err = run_cli(capsys, ["mult", path, "--sphere", "1,0.05"])
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["spherical_mult"] == 2
    assert data["isolated_point"] is None and data["isolated_mult"] == 0


def test_deriv(tmp_path, capsys):
    path = write(tmp_path, "f.json", QSQ)
    code, out, _ = run_cli(capsys, ["deriv", path, "--q0", "[0,1,0,0]",
                                    "--direction", "[1,0,0,0]"])
    assert code == 0
    assert json.loads(out) == {"derivative": [0, 2, 0, 0]}


def test_deriv_rejects_non_unit(tmp_path, capsys):
    path = write(tmp_path, "f.json", QSQ)
    code, _, err = run_cli(capsys, ["deriv", path, "--q0", "[0,1,0,0]",
                                    "--direction", "[2,0,0,0]"])
    assert code == 1
    assert "NonUnitDirection" in err


def test_jacobian(tmp_path, capsys):
    path = write(tmp_path, "f.json", QSQ)
    code, out, _ = run_cli(capsys, ["jacobian", path, "--q0", "[0,1,0,0]"])
    assert code == 0
    data = json.loads(out)
    assert data["I"] == [0, 1, 0, 0]
    assert data["J"] == [0, 0, 1, 0]
    assert data["holo"][0][0] == [0, 2]
    assert data["holo"][1][0] == [0, 0]
    assert max(abs(x) for row in data["antiholo"] for c in row for x in c) \
        <= 1e-7


def test_lemniscate_pinch_row(capsys):
    code, out, _ = run_cli(capsys, ["lemniscate", "--sphere", "0,1",
                                    "--radius", "1", "--nodes", "16"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "theta,re,im,loop"
    assert lines[1] == "0,0,0,0"   # the figure-eight pinch point


def test_lemniscate_rows_on_boundary(capsys):
    code, out, _ = run_cli(capsys, ["lemniscate", "--sphere", "0.5,1",
                                    "--radius", "0.5", "--nodes", "32"])
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 32
    loops = {row.split(",")[3] for row in rows}
    assert loops == {"0", "1"}
    for row in rows:
        _, re_part, im_part, _ = row.split(",")
        z = complex(float(re_part), float(im_part))
        assert abs(abs((z - 0.5) ** 2 + 1.0) - 0.25) <= 1e-12


def test_lemniscate_huge_radius_rows_finite(capsys):
    radius = 1e200
    code, out, _ = run_cli(capsys, ["lemniscate", "--sphere", "0,1",
                                    "--radius", "1e200", "--nodes", "64"])
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 64
    for row in rows:
        theta, re_part, im_part, loop = map(float, row.split(","))
        assert all(math.isfinite(v) for v in (theta, re_part, im_part))
        # |(z - x0)^2 + y0^2| = R^2, scaled by R^2 so nothing overflows
        w = complex(re_part, im_part) / radius
        assert abs(abs(w * w + (1.0 / radius) ** 2) - 1.0) <= 1e-12


def test_verify_cauchy_table(tmp_path, capsys):
    path = write(tmp_path, "f.json", QSQ)
    code, out, _ = run_cli(capsys, ["verify-cauchy", path, "--sphere", "0,1",
                                    "--radius", "2", "--order", "4"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].split() == ["n", "|A_n|", "algebraic", "|A_n|",
                                "integral", "bound", "margin"]
    assert len(lines) == 6
    margins = [float(line.split()[-1]) for line in lines[1:]]
    assert all(m >= -1e-6 for m in margins)


def test_verify_cauchy_pinched_exits_1(tmp_path, capsys):
    path = write(tmp_path, "f.json", QSQ)
    code, _, err = run_cli(capsys, ["verify-cauchy", path, "--sphere", "0,1",
                                    "--radius", "1", "--order", "2"])
    assert code == 1
    assert "PinchedContour" in err


def test_verify_cauchy_pinch_follows_shape(tmp_path, capsys):
    # LemniscateDomain(0, 3, 3.000000007).shape() is the figure-eight
    path = write(tmp_path, "f.json", QSQ)
    code, out, err = run_cli(capsys, ["verify-cauchy", path, "--sphere",
                                      "0,3", "--radius", "3.000000007",
                                      "--order", "1"])
    assert code == 1 and out == ""
    assert err.startswith("PinchedContour: ")


def test_verify_cauchy_overflow_is_domain_error(tmp_path, capsys):
    path = write(tmp_path, "f.json", QSQ_PLUS_1)
    code, out, err = run_cli(capsys, ["verify-cauchy", path, "--sphere",
                                      "0,1", "--radius", "1e200",
                                      "--order", "1"])
    assert code == 1 and out == ""
    assert err.startswith("OverflowError: ")


@pytest.mark.parametrize("coeffs, radius, order", [
    (QSQ_PLUS_1, "1e200", "0"),
    ({"coeffs": [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]},
     "1e150", "1"),
], ids=["moments-overflow", "boundary-max-overflows"])
def test_verify_cauchy_non_finite_table_is_domain_error(tmp_path, capsys,
                                                         coeffs, radius,
                                                         order):
    # a NaN integral or an infinite bound is an overflow, not a verdict
    path = write(tmp_path, "f.json", coeffs)
    code, out, err = run_cli(capsys, ["verify-cauchy", path, "--sphere",
                                      "0,1", "--radius", radius,
                                      "--order", order])
    assert code == 1 and out == ""
    assert err.startswith("SliceRegError: result is not finite")


def test_parse_error_names_field(tmp_path, capsys):
    path = write(tmp_path, "bad.json", {"coeffs": [[0, 0, 0], [1, 0, 0, 0]]})
    code, _, err = run_cli(capsys, ["eval", path, "--at", "[0,1,0,0]"])
    assert code == 2
    assert "coeffs[0]" in err

    path = write(tmp_path, "bad2.json", {"coeffs": [[0, 0, "x", 0]]})
    code, _, err = run_cli(capsys, ["eval", path, "--at", "[0,1,0,0]"])
    assert code == 2
    assert "coeffs[0][2]" in err


@pytest.mark.parametrize("argv, env, field", [
    (["eval", "{f}", "--at", "[NaN,0,0,0]"], None, "at[0]"),
    (["eval", "{nan}", "--at", "[0,1,0,0]"], None, "coeffs[1][1]"),
    (["eval", "{huge}", "--at", "[0,1,0,0]"], None, "coeffs[1][0]"),
    (["expand", "{f}", "--q0", "[Infinity,0,0,0]"], None, "q0[0]"),
    (["deriv", "{f}", "--q0", "[0,1,0,0]", "--direction",
      "[-Infinity,0,0,0]"], None, "direction[0]"),
    (["verify-cauchy", "{f}", "--sphere", "0,1", "--radius", "2",
      "--unit", "[0,NaN,0,0]"], None, "unit[1]"),
    (["mult", "{f}", "--sphere", "nan,1"], None, "sphere"),
    (["mult", "{f}", "--sphere", "0,inf"], None, "sphere"),
    (["lemniscate", "--sphere", "0,1", "--radius", "nan"], None, "radius"),
    (["verify-cauchy", "{f}", "--sphere", "0,1", "--radius", "inf"], None,
     "radius"),
    (["jacobian", "{f}", "--q0", "[0,1,0,0]", "--fd-step", "inf"], None,
     "fd_step"),
    (["mult", "{f}", "--sphere", "0,1", "--zero-tol", "nan"], None,
     "zero_tol"),
    (["mult", "{f}", "--sphere", "0,1"], "nan", "SLICEREG_TOL"),
    (["mult", "{f}", "--sphere", "0,1"], "inf", "SLICEREG_TOL"),
])
def test_non_finite_input_is_parse_error(tmp_path, capsys, monkeypatch,
                                         argv, env, field):
    files = {
        "f": write(tmp_path, "f.json", QSQ),
        "nan": write(tmp_path, "nan.json",
                     {"coeffs": [[0, 0, 0, 0], [1, math.nan, 0, 0]]}),
        "huge": write(tmp_path, "huge.json",
                      {"coeffs": [[0, 0, 0, 0], [10 ** 400, 0, 0, 0]]}),
    }
    if env is not None:
        monkeypatch.setenv("SLICEREG_TOL", env)
    code, out, err = run_cli(capsys, [a.format(**files) for a in argv])
    assert code == 2
    assert out == ""
    assert field in err


def test_parse_error_bad_quaternion_arg(tmp_path, capsys):
    path = write(tmp_path, "f.json", QSQ)
    code, _, err = run_cli(capsys, ["eval", path, "--at", "[1,0,0]"])
    assert code == 2
    assert "at" in err


def test_nodes_validation(capsys):
    code, _, err = run_cli(capsys, ["lemniscate", "--sphere", "0,1",
                                    "--radius", "2", "--nodes", "8"])
    assert code == 2
    assert "nodes" in err

    code, _, err = run_cli(capsys, ["lemniscate", "--sphere", "0,1",
                                    "--radius", "2", "--nodes", "33"])
    assert code == 2
    assert "even" in err


def test_bad_unit_is_domain_error(tmp_path, capsys):
    path = write(tmp_path, "f.json", QSQ)
    code, _, err = run_cli(capsys, ["verify-cauchy", path, "--sphere", "0,1",
                                    "--radius", "2", "--order", "2",
                                    "--unit", "[0,0.5,0,0]"])
    assert code == 1
    assert "imaginary unit" in err


def test_eval_huge_coefficient(tmp_path, capsys):
    path = write(tmp_path, "f.json", {"coeffs": [[1e200, 0, 0, 0]]})
    code, out, _ = run_cli(capsys, ["eval", path, "--at", "[1,0,0,0]"])
    assert code == 0
    assert json.loads(out) == {"value": [1e200, 0, 0, 0]}


def test_non_finite_result_is_domain_error(tmp_path, capsys):
    # finite input whose value overflows: q^2 * 1e100 at |q| ~ 1.4e150
    path = write(tmp_path, "f.json",
                 {"coeffs": [[0, 0, 0, 0], [0, 0, 0, 0], [1e100, 0, 0, 0]]})
    code, out, err = run_cli(capsys, ["eval", path,
                                      "--at", "[1e150,1e150,0,0]"])
    assert code == 1
    assert out == ""
    assert "SliceRegError" in err and "not finite" in err


@pytest.mark.parametrize("argv", [
    ["star", "{big}", "{big}"],
    ["expand", "{q_sq}", "--q0", "[1e155,1,0,0]"],
    ["mult", "{q_sq}", "--sphere", "1e155,1"],
])
def test_non_finite_coefficient_is_domain_error(tmp_path, capsys, argv):
    # A coefficient overflows on the way: (1e200 + 1e200 q)^2, or the
    # remainder of q^2 at x0 = 1e155.  It used to be trimmed away, and
    # the zero polynomial was printed with exit 0.
    files = {"big": write(tmp_path, "big.json",
                          {"coeffs": [[1e200, 0, 0, 0], [1e200, 0, 0, 0]]}),
             "q_sq": write(tmp_path, "q_sq.json", QSQ)}
    code, out, err = run_cli(capsys, [a.format(**files) for a in argv])
    assert code == 1 and out == ""
    assert err.startswith("SliceRegError: coefficient is not finite")


def test_round_trip_bit_identical(tmp_path, capsys):
    # star output parsed back and re-emitted must be byte-identical
    f = write(tmp_path, "f.json", {"coeffs": [[0.1, -0.25, 1e-3, 3.7],
                                              [1.5, 0, 0, 0]]})
    g = write(tmp_path, "g.json", {"coeffs": [[0.3, 0.7, -2.25, 0.125]]})
    code, out, _ = run_cli(capsys, ["star", f, g])
    assert code == 0
    again = write(tmp_path, "again.json", json.loads(out))
    one = write(tmp_path, "one.json", {"coeffs": [[1, 0, 0, 0]]})
    code, out2, _ = run_cli(capsys, ["star", again, one])
    assert code == 0
    assert out == out2


def test_deterministic_output(tmp_path, capsys):
    path = write(tmp_path, "f.json", {"coeffs": [[0.1, 0.2, 0.3, 0.4],
                                                 [0, 0, 1, 0],
                                                 [0.5, 0, 0, -1]]})
    argv = ["verify-cauchy", path, "--sphere", "0.25,1", "--radius", "1.5",
            "--order", "5"]
    first = run_cli(capsys, argv)
    second = run_cli(capsys, argv)
    assert first == second


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(QSQ)))
    code, out, _ = run_cli(capsys, ["eval", "-", "--at", "[0,1,0,0]"])
    assert code == 0
    assert json.loads(out) == {"value": [-1, 0, 0, 0]}


def test_env_tolerance_override(tmp_path, capsys, monkeypatch):
    # a near-miss spherical factor: strict tolerance says 0, loose says 2
    noisy = {"coeffs": [[1 + 1e-6, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]}
    path = write(tmp_path, "noisy.json", noisy)
    code, out, _ = run_cli(capsys, ["mult", path, "--sphere", "0,1"])
    assert json.loads(out)["spherical_mult"] == 0

    monkeypatch.setenv("SLICEREG_TOL", "1e-4")
    code, out, _ = run_cli(capsys, ["mult", path, "--sphere", "0,1"])
    assert json.loads(out)["spherical_mult"] == 2

    monkeypatch.setenv("SLICEREG_TOL", "not-a-number")
    code, _, err = run_cli(capsys, ["mult", path, "--sphere", "0,1"])
    assert code == 2
    assert "SLICEREG_TOL" in err


def test_zero_tol_flag_wins_over_env(tmp_path, capsys, monkeypatch):
    noisy = {"coeffs": [[1 + 1e-6, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]}
    path = write(tmp_path, "noisy.json", noisy)
    monkeypatch.setenv("SLICEREG_TOL", "1e-12")
    code, out, _ = run_cli(capsys, ["mult", path, "--sphere", "0,1",
                                    "--zero-tol", "1e-4"])
    assert json.loads(out)["spherical_mult"] == 2


def test_module_entry_point(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(QSQ))
    proc = subprocess.run([sys.executable, "-m", "slicereg", "eval",
                           str(path), "--at", "[0,0,1,0]"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"value": [-1, 0, 0, 0]}


def test_cli_import_footprint():
    # The CLI's start-up cost is mostly imports; the library must not pull
    # in dataclasses (and with it inspect, ast, dis, tokenize) or typing.
    # -S keeps site hooks from preloading modules of their own.
    src = os.path.dirname(os.path.dirname(slicereg.__file__))
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, slicereg.cli; print(sorted(sys.modules))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src})
    loaded = set(ast.literal_eval(proc.stdout))
    assert "slicereg.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "typing"}
