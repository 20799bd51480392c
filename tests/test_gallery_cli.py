"""Gallery construction, reports, and the command-line driver end to end."""

import io
import itertools
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from crgeo import cli, hypersurface, symbolic as sym
from crgeo.cli import main, parse_params, parse_point
from crgeo.errors import BadParams, InputError, UnknownSurface
from crgeo.gallery import _angle_grid, _nodes_per_axis, gallery, load_surface
from crgeo.hypersurface import HypersurfaceChart
from crgeo.dsl import parse_surface_file
from crgeo.report import Report, decode_number, scan_csv

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


class TestGallery:
    def test_sphere_passes_invariants(self):
        surf = gallery("sphere", r=1.0, n=1)
        assert surf.dim == 2
        P = surf.random_points(20, seed=0)
        assert np.max(np.abs(surf.chart.rho_at(P))) < 1e-12

    def test_ellipsoid_needs_matching_dim(self):
        with pytest.raises(BadParams):
            gallery("ellipsoid", A=(0.1, 0.2), dim=3)
        surf = gallery("ellipsoid", A=(0.1, 0.2, 0.3), dim=3)
        assert surf.dim == 3

    def test_ellipsoid_rejects_large_coefficients(self):
        with pytest.raises(BadParams):
            gallery("ellipsoid", A=(1.0, 0.2, 0.0))

    def test_whitney_shape(self):
        surf = gallery("whitney")
        assert surf.immersion.N == 3 and surf.n == 1
        from crgeo.gallery import curvature_batch

        _, f, _, _, _ = curvature_batch(surf, np.array([[1.0, 0.0]], dtype=complex))
        assert abs(f["II0"][0] - 4.0) < 1e-12

    def test_unknown_name(self):
        with pytest.raises(UnknownSurface):
            gallery("torus")

    def test_reinhardt_scan_grid_on_surface(self):
        surf = gallery("reinhardt", n=1)
        P, spacing = surf.scan_grid(10**3)
        assert np.max(np.abs(surf.chart.rho_at(P))) < 1e-12
        assert spacing > 0

    def test_custom_surface_consistency_check(self):
        fields = parse_surface_file(
            "rho = abs2(z1) + abs2(z2) - 1\ndim = 2\nF = [z1, z2]\npsi = -1\n"
        )
        surf = load_surface(fields)
        assert surf.immersion is not None
        bad = dict(fields)
        bad["psi"] = None
        bad["psi"] = sym.const(-2)
        with pytest.raises(BadParams):
            load_surface(bad)


class TestParamParsing:
    def test_scalars_and_tuples(self):
        d = parse_params("r=2,n=1,A=(0.1,0.2,0.0)")
        assert d == {"r": 2, "n": 1, "A": (0.1, 0.2, 0.0)}

    def test_bad_item(self):
        with pytest.raises(InputError):
            parse_params("r")

    def test_point_complex_literals(self):
        p = parse_point("0.5+0.5i, 1", 2)
        assert np.allclose(p, [0.5 + 0.5j, 1.0])

    def test_point_interleaved_reals(self):
        p = parse_point("0,1,0.5,-0.25", 2)
        assert np.allclose(p, [1j, 0.5 - 0.25j])

    def test_complex_literal_point_compiles_nothing(self, monkeypatch):
        # a literal folds to one constant node at parse time: its value is read, not run
        def no_compile(roots):
            raise AssertionError("a program was compiled")

        monkeypatch.setattr(sym, "_compile", no_compile)
        p = parse_point("0.31415926535+0.27182818284i, (1/8)-0.577215664901i, 2*0.3", 3)
        assert p.tolist() == [0.31415926535 + 0.27182818284j, 0.125 - 0.577215664901j, 0.6]

    @pytest.mark.parametrize("text,message", [("1/0, 1", "reciprocal of the zero constant"),
                                              ("log(0), 1", "log of the zero constant")])
    def test_singular_point_literal_exits_2(self, text, message):
        rc, out, err = run_cli(["analyze", "--surface", "sphere", f"--point={text}"])
        assert (rc, out, json.loads(err)) == (2, "", {"error": "DomainError", "message": message})


class TestReport:
    def test_float_round_trip_is_exact(self):
        x = 1 / 3 + 1e-16
        rep = Report(surface={"name": "t"}, command="c", records=[{"x": x}])
        back = Report.from_json(rep.to_json())
        assert decode_number(back.records[0]["x"]) == x

    def test_reencoding_is_byte_identical(self):
        rep = Report(
            surface={"name": "t"},
            command="c",
            records=[{"x": 0.1, "z": 1 + 2j, "flag": True, "k": 3}],
            aggregates={"v": [1.5, None]},
        )
        text = rep.to_json()
        again = Report.from_json(text).to_json()
        assert text == again

    def test_scan_csv_bytes(self):
        scan = {
            "points": np.array([[complex(-0.0, 1e-20), complex(1e20, -0.5)],
                                [complex(0.1, 0.0), complex(-2.5, 3.0)]]),
            "r": np.array([1.0, -0.0]),
            "J": np.array([1e20, 0.25]),
            "scalarR": np.array([2.0, 3.0]),
            "min_eig_L": np.array([-1e-20, 0.0]),
        }
        header = "z1_re,z1_im,z2_re,z2_im,II0norm2,Hnorm2,r,J,scalarR,min_eig_L,is_umbilic\r\n"
        assert scan_csv(scan, 2) == header + (
            "-0,9.9999999999999995e-21,1e+20,-0.5,,,1,1e+20,2,-9.9999999999999995e-21,\r\n"
            "0.10000000000000001,0,-2.5,3,,,-0,0.25,3,0,\r\n"
        )
        scan.update(II0norm2=np.array([0.0, 1e-20]), Hnorm2=np.array([1.0, 2.0]),
                    is_umbilic=np.array([True, False]))
        assert scan_csv(scan, 2) == header + (
            "-0,9.9999999999999995e-21,1e+20,-0.5,0,1,1,1e+20,2,-9.9999999999999995e-21,true\r\n"
            "0.10000000000000001,0,-2.5,3,9.9999999999999995e-21,2,-0,0.25,3,0,false\r\n"
        )


class TestReportSchema:
    def test_analyze_and_bound_reports_validate(self):
        import pathlib

        import jsonschema

        schema = json.loads(
            (pathlib.Path(__file__).parent.parent / "docs" / "report.schema.json").read_text()
        )
        def subschema(name):
            return {"$defs": schema["$defs"], "$ref": f"#/$defs/{name}"}

        _, out, _ = run_cli(["analyze", "--surface", "whitney", "--point", "0.6,0.8"])
        doc = json.loads(out)
        jsonschema.validate(doc, schema)
        jsonschema.validate(doc["records"][0], subschema("point_record"))
        _, out, _ = run_cli(["bound", "--surface", "sphere", "--params", "r=1,n=1", "--quad", "grid:8"])
        doc = json.loads(out)
        jsonschema.validate(doc, schema)
        jsonschema.validate(doc["aggregates"], subschema("bound_aggregates"))


BAD_SURFACE_FILES = {
    "complex_sigma.txt": "rho = abs2(z1) + abs2(z2) - 1\ndim = 2\nsigma = z1\n",
    "psi_without_F.txt": "rho = abs2(z1) + abs2(z2) - 1\ndim = 2\npsi = 5\n",
    "long_sum.txt": "rho = abs2(z1) + abs2(z2) - 1" + " + z1 - z1" * 1500 + "\ndim = 2\n",
    "deep_parens.txt": "rho = " + "(" * 1200 + "abs2(z1) + abs2(z2) - 1" + ")" * 1200 + "\ndim = 2\n",
    "huge_dim.txt": "rho = abs2(z1) + abs2(z2) - 1\ndim = 1000000000\n",
}


@pytest.mark.parametrize("argv,error", [
    (["analyze", "--surface", "ellipsoid", "--params", "A=(x)", "--point", "1,0,0"], "InputError"),
    (["check", "--surface", "sphere", "--seed", "-1"], "BadParams"),
    (["bound", "--surface", "sphere", "--quad", "mc:8:-1"], "BadParams"),
    (["bound", "--surface", "sphere", "--quad", "qmc:8:-1"], "BadParams"),
    (["analyze", "--surface", "sphere", "--params", "r=1e300", "--point", "1,0"], "BadParams"),
    (["analyze", "--surface", "sphere", "--point", "1e999,0"], "InputError"),
    (["scan", "--surface", "sphere", "--grid", "3", "--umbilic-tol", "nan"], "BadParams"),
    (["scan", "--surface", "sphere", "--grid", "3", "--umbilic-tol", "-1"], "BadParams"),
    (["analyze", "--surface", "sphere", "--params", "n=1.5", "--point", "1,0"], "BadParams"),
    (["analyze", "--surface", "sphere", "--params", "r=nan", "--point", "1,0"], "BadParams"),
    (["analyze", "--surface", "ellipsoid", "--params", "A=(nan,0)", "--point", "1,0"], "BadParams"),
    (["check", "--surface-file", "complex_sigma.txt"], "NotRealValued"),
    (["bound", "--surface-file", "psi_without_F.txt", "--quad", "grid:4"], "BadParams"),
    # output paths in a directory that does not exist
    (["scan", "--surface", "sphere", "--grid", "3", "--out", "absent/x.csv"], "UnwritableFile"),
    (["scan", "--surface", "sphere", "--grid", "3", "--meta-out", "absent/m.json"], "UnwritableFile"),
    (["check", "--surface", "sphere", "--out", "absent/c.json"], "UnwritableFile"),
    # --params that would silently build another surface
    (["analyze", "--surface", "ellipsoid", "--params", "A=(0.1,,0.3)", "--point", "1,0,0"], "InputError"),
    (["analyze", "--surface", "sphere", "--params", "r=1,r=2", "--point", "1,0"], "InputError"),
    # oversized inputs: a CR dimension past its ceiling, nesting past the recursion limit,
    # node counts past the ceiling
    (["analyze", "--surface", "sphere", "--params", "n=100000", "--point", "1,0"], "BadParams"),
    (["analyze", "--surface-file", "long_sum.txt", "--point", "1,0"], "InputError"),
    (["analyze", "--surface-file", "deep_parens.txt", "--point", "1,0"], "InputError"),
    (["scan", "--surface", "sphere", "--grid", "100000"], "BadParams"),
    (["bound", "--surface", "sphere", "--quad", "grid:100000000"], "BadParams"),
    # usage errors: a missing required flag, an untyped value, an unknown flag
    (["analyze", "--surface", "sphere"], "InputError"),
    (["scan", "--surface", "sphere", "--grid", "abc"], "InputError"),
    (["analyze", "--surface", "sphere", "--point", "1,0", "--bogus"], "InputError"),
    # a CR dimension whose m^3 third jets per point would not fit in memory, checked before any build
    (["analyze", "--surface", "sphere", "--params", "n=1000000000", "--point", "1,0"], "BadParams"),
    (["check", "--surface-file", "huge_dim.txt"], "BadParams"),
    # a product grid past the point ceiling (odd polar counts), and a budget past the float range
    (["scan", "--surface", "ellipsoid", "--grid", "100"], "BadParams"),
    (["scan", "--surface", "whitney", "--params", "n=2", "--grid", "99"], "BadParams"),
    (["scan", "--surface", "sphere", "--grid", "1" + "0" * 110], "BadParams"),
])
def test_bad_input_exits_2_with_a_json_error(argv, error, tmp_path):
    for name, text in BAD_SURFACE_FILES.items():
        (tmp_path / name).write_text(text)
    in_tmp = lambda a: a in BAD_SURFACE_FILES or a.startswith("absent/")
    rc, _, err = run_cli([str(tmp_path / a) if in_tmp(a) else a for a in argv])
    assert rc == 2
    doc = json.loads(err)
    assert set(doc) == {"error", "message"}
    assert doc["error"] == error


def test_help_still_exits_0():
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit) as exc:
        main(["analyze", "--help"])
    assert exc.value.code == 0
    assert out.getvalue().startswith("usage: crgeo analyze")


def test_one_parser_serves_every_call(monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    analyze = ["analyze", "--surface", "sphere", "--params", "r=1,n=2", "--point", "0.6,0.8i,0"]
    first = run_cli(analyze)
    usage = run_cli(["analyze", "--surface", "sphere"])
    scan = run_cli(["scan", "--surface", "sphere", "--grid", "3"])
    again = run_cli(analyze)
    cli._parser.cache_clear()
    assert len(built) == 1
    assert usage[0] == 2 and json.loads(usage[2])["error"] == "InputError"
    assert scan[0] == 0 and first[0] == 0
    assert again == first


def test_far_point_is_not_on_the_surface():
    # |rho| overflows to inf and Newton to NaN: the projection gate must still fire
    rc, _, err = run_cli(["analyze", "--surface", "sphere", "--point", "1e200,0"])
    assert rc == 3
    assert json.loads(err)["error"] == "NotOnSurface"


class TestCli:
    def test_gallery_list(self):
        rc, out, _ = run_cli(["gallery-list"])
        assert rc == 0
        doc = json.loads(out)
        names = {r["name"] for r in doc["records"]}
        assert {"sphere", "ellipsoid", "whitney", "reinhardt", "custom"} <= names

    def test_analyze_sphere_point(self):
        rc, out, _ = run_cli(["analyze", "--surface", "sphere", "--params", "r=1,n=1", "--point", "0,1"])
        assert rc == 0
        doc = json.loads(out)
        rec = doc["records"][0]
        assert decode_number(rec["r"]) == 1.0
        assert decode_number(rec["J"]) == 1.0
        assert decode_number(rec["II0norm2"]) == 0.0

    def test_analyze_is_deterministic(self):
        args = ["analyze", "--surface", "ellipsoid", "--params", "A=(0.1,0.2,0.3)", "--point", "0.2+0.1i,0.3,0.9"]
        _, out1, _ = run_cli(args)
        _, out2, _ = run_cli(args)
        assert out1 == out2

    def test_scan_whitney_umbilics_cluster_on_circle(self, tmp_path):
        out_csv = tmp_path / "scan.csv"
        rc, _, _ = run_cli([
            "scan", "--surface", "whitney", "--grid", "12",
            "--out", str(out_csv), "--meta-out", str(tmp_path / "meta.json"),
        ])
        assert rc == 0
        raw = out_csv.read_bytes()
        assert raw.startswith(b"z1_re,z1_im,z2_re,z2_im,II0norm2,")
        assert b"\r\n" in raw
        text = raw.decode()
        rows = [r.split(",") for r in text.strip().split("\r\n")[1:]]
        flagged = [r for r in rows if r[-1] == "true"]
        assert flagged
        meta = json.loads((tmp_path / "meta.json").read_text())
        spacing = decode_number(meta["aggregates"]["spacing"])
        for r in flagged:
            z = complex(float(r[0]), float(r[1]))
            w = complex(float(r[2]), float(r[3]))
            assert np.hypot(abs(z), abs(w) - 1) < spacing

    def test_bound_sphere(self):
        rc, out, _ = run_cli(["bound", "--surface", "sphere", "--params", "r=1,n=1", "--quad", "grid:12"])
        assert rc == 0
        agg = json.loads(out)["aggregates"]
        assert abs(decode_number(agg["reilly_upper"]) - 1.0) < 1e-3
        assert abs(decode_number(agg["volume"]) - 4 * np.pi**2) / (4 * np.pi**2) < 1e-3
        assert abs(decode_number(agg["tension_upper"]) - 1.0) < 1e-3

    def test_bound_reinhardt_certified(self):
        rc, out, _ = run_cli(["bound", "--surface", "reinhardt", "--params", "n=1", "--quad", "grid:8"])
        assert rc == 0
        agg = json.loads(out)["aggregates"]
        assert agg["reilly_upper"] is None
        assert abs(decode_number(agg["tension_upper"]) - 0.5) < 1e-12
        # the report names the rule that ran, not the --quad it could not use
        assert (agg["samples_used"], agg["quad"]) == (100, "certified:100:0")
        _, out, _ = run_cli(["bound", "--surface", "reinhardt", "--params", "n=1", "--quad", "mc:64:7"])
        assert json.loads(out)["aggregates"]["quad"] == "certified:100:7"

    def test_bound_deterministic_with_mc_seed(self):
        args = ["bound", "--surface", "sphere", "--params", "r=1,n=1", "--quad", "mc:2000:5"]
        _, out1, _ = run_cli(args)
        _, out2, _ = run_cli(args)
        assert out1 == out2

    def test_check_single_surface(self):
        rc, out, _ = run_cli(["check", "--surface", "sphere", "--params", "r=1,n=1"])
        assert rc == 0
        assert "ALL CHECKS PASSED" in out
        assert "FAIL" not in out

    def test_surface_file_analyze(self, tmp_path):
        f = tmp_path / "surf.txt"
        f.write_text("rho = abs2(z1) + abs2(z2) - 1\ndim = 2\nF = [z1, z2]\npsi = -1\n")
        rc, out, _ = run_cli(["analyze", "--surface-file", str(f), "--point", "0,1"])
        assert rc == 0
        assert decode_number(json.loads(out)["records"][0]["r"]) == 1.0

    def test_large_pluriharmonic_psi_loads(self, tmp_path):
        # psi = 1e6 log|z1|^2 - 1 has mixed derivatives at the rounding of 1e6-sized values
        f = tmp_path / "surf.txt"
        f.write_text("dim = 2\nrho = abs2(z1) + abs2(z2) + 1e6*log(abs2(z1)) - 1\n"
                     "F = [z1, z2]\npsi = 1e6*log(abs2(z1)) - 1\n")
        rc, _, err = run_cli(["analyze", "--surface-file", str(f), "--point", "1,0"])
        assert rc == 0, err

    def test_large_holomorphic_component_with_cancelling_conjugates_loads(self, tmp_path):
        # the sphere immersion at c = 1e8, F[0] = 1e4 z1 written as 1e4 z1 conj(z2)/conj(z2):
        # its dzbar derivative is the rounding of 1e4-sized values, judged against |F[0]|
        f = tmp_path / "surf.txt"
        f.write_text("dim = 2\nrho = 1e8*(abs2(z1) + abs2(z2) - 1)\n"
                     "F = [1e4*z1*conj(z2)/conj(z2), 1e4*z2]\npsi = -1e8\n")
        rc, out, err = run_cli(["analyze", "--surface-file", str(f), "--point=0.6,0.8"])
        assert rc == 0, err
        assert decode_number(json.loads(out)["records"][0]["r"]) == pytest.approx(1e-8, rel=1e-12)

    def test_check_surface_file(self, tmp_path):
        f = tmp_path / "surf.txt"
        f.write_text("rho = abs2(z1) + abs2(z2) - 1\ndim = 2\nF = [z1, z2]\npsi = -1\n")
        rc, out, _ = run_cli(["check", "--surface-file", str(f)])
        assert rc == 0
        assert "ALL CHECKS PASSED" in out

    def test_exit_code_2_on_bad_input(self):
        rc, _, err = run_cli(["analyze", "--surface", "torus", "--point", "0,1"])
        assert rc == 2
        assert json.loads(err)["error"] == "UnknownSurface"
        rc, _, err = run_cli(["analyze", "--surface", "sphere", "--point", "0,1,2"])
        assert rc == 2

    @pytest.mark.parametrize("text", [
        "rho = abs2(z1) + abs2(z2) - 1 + i\ndim = 2\n",
        "rho = abs2(z1) + abs2(z2) + i\ndim = 2\nF = [z1, z2]\npsi = i\n",
    ])
    def test_nonreal_surface_file_exits_2(self, tmp_path, text):
        f = tmp_path / "surf.txt"
        f.write_text(text)
        rc, _, err = run_cli(["analyze", "--surface-file", str(f), "--point", "0,1"])
        assert rc == 2
        assert json.loads(err)["error"] == "NotRealValued"

    def test_missing_surface_file_exits_2(self, tmp_path):
        rc, _, err = run_cli(["analyze", "--surface-file", str(tmp_path / "absent.txt"), "--point", "0,1"])
        assert rc == 2
        assert json.loads(err)["error"] == "UnreadableFile"

    @pytest.mark.parametrize("grid", ["-3", "0"])
    def test_nonpositive_scan_grid_exits_2(self, grid):
        rc, out, err = run_cli(["scan", "--surface", "sphere", "--grid", grid])
        assert (rc, out) == (2, "")
        assert json.loads(err)["error"] == "BadParams"

    @pytest.mark.parametrize("surface,grid,smallest", [("ellipsoid", "4", 5), ("sphere", "2", 3)])
    def test_scan_grid_below_three_nodes_per_axis_exits_2(self, surface, grid, smallest):
        rc, out, err = run_cli(["scan", "--surface", surface, "--grid", grid])
        assert (rc, out) == (2, "")
        error = json.loads(err)
        assert error["error"] == "BadParams"
        assert error["message"].endswith(f"smallest accepted grid is {smallest}")

    def test_smallest_grid_hint_is_the_least_grid_with_three_nodes(self):
        for n_axes in range(1, 16):
            least = next(g for g in itertools.count(1) if round((g**3) ** (1.0 / n_axes)) >= 3)
            with pytest.raises(BadParams, match=f"the smallest accepted grid is {least}$"):
                _nodes_per_axis((least - 1) ** 3, n_axes)
            assert _nodes_per_axis(least**3, n_axes) >= 3
        for n_axes in (16, 17, 25, 49, 81):
            with pytest.raises(BadParams, match="no grid within the ceiling of 1000000 points gives 3$"):
                _nodes_per_axis(8**3, n_axes)

    @pytest.mark.parametrize("grid,n_polar,n_azimuth,shape", [
        (100, 2, 1, "101^2 x 100^1 = 1020100"),  # sphere n=1
        (100, 1, 4, "17^1 x 16^4 = 1114112"),  # reinhardt n=2
        (100, 4, 1, "17^4 x 16^1 = 1336336"),  # the C^3 ellipsoid, whitney n=2
        (99, 4, 1, "17^4 x 16^1 = 1336336"),
    ])
    def test_scan_grid_past_the_ceiling_is_rejected(self, grid, n_polar, n_azimuth, shape):
        with pytest.raises(BadParams, match=rf"^scan grid of {re.escape(shape)} points exceeds the ceiling of 1000000"):
            _angle_grid(grid**3, n_polar, n_azimuth)

    def test_scan_grid_within_the_ceiling_is_built(self):
        angles, _ = _angle_grid(40**3, 4, 1)  # the C^3 ellipsoid at grid 40
        assert angles.shape == (59049, 5)

    def test_scan_over_fifteen_axes_exits_2_at_once(self):
        # sphere n = 40 scans 81 axes: no grid within the node ceiling gives 3 nodes per axis
        rc, out, err = run_cli(["scan", "--surface", "sphere", "--params", "n=40", "--grid", "8"])
        assert (rc, out) == (2, "")
        error = json.loads(err)
        assert error["error"] == "BadParams"
        assert error["message"].endswith("over 81 axes, at least 3 are needed: "
                                         "no grid within the ceiling of 1000000 points gives 3")

    @pytest.mark.parametrize("name,lines", [
        ("sphere", ["sphere.conjugate-energy-sum", "sphere.conjugate-eigenfunctions"]),
        ("reinhardt", ["reinhardt.kohn-identity", "reinhardt.energy-density", "reinhardt.energy-sum"]),
    ])
    def test_closed_form_oracles_follow_the_builder_not_the_name(self, tmp_path, monkeypatch, name, lines):
        closed_forms = re.compile(rf"\] (?:PASS|FAIL) ({name}\.[\w-]+):")
        rc, out, _ = run_cli(["check", "--surface", name, "--seed", "0"])
        assert rc == 0
        assert closed_forms.findall(out) == lines
        # a surface file is named by its path: one named like a gallery surface runs no closed form of it
        monkeypatch.chdir(tmp_path)
        F = "F = [z1, z2]\n" if name == "sphere" else ""
        (tmp_path / name).write_text(f"dim = 2\nrho = abs2(z1) + abs2(z2) - 1\n{F}")
        rc, out, _ = run_cli(["check", "--surface-file", name, "--seed", "0"])
        assert rc == 0
        assert "ALL CHECKS PASSED" in out
        assert closed_forms.findall(out) == []

    @pytest.mark.parametrize("surface,grid,rows", [("ellipsoid", "5", 243), ("sphere", "3", 27)])
    def test_smallest_scan_grid_rows(self, surface, grid, rows):
        rc, out, _ = run_cli(["scan", "--surface", surface, "--grid", grid])
        assert rc == 0
        assert out.count("\r\n") == rows + 1

    def test_exit_code_3_on_geometry_error(self, monkeypatch):
        # the origin cannot be projected onto the sphere: its gradient vanishes,
        # so projection stops at the first rho evaluation
        calls = []
        real = HypersurfaceChart.rho_at
        monkeypatch.setattr(HypersurfaceChart, "rho_at", lambda ch, P: calls.append(1) or real(ch, P))
        rc, _, err = run_cli(["analyze", "--surface", "sphere", "--point", "0,0"])
        assert rc == 3
        assert json.loads(err)["error"] == "NotOnSurface"
        assert len(calls) == 1


# rho scaled by 100: J is of order 1e8, and its rounding left an imaginary part
# of 2e-8, above the old absolute gate of 1e-9
C3_TIMES_100 = "dim = 3\nrho = 100*(abs2(z1) + abs2(z2) + abs2(z3) + re(0.3*z1^2 + (0.1+0.2i)*z2*z3) - 1)\n"


# one quadric per ambient dimension, its rho scaled by c
SCALED_QUADRIC = {
    2: "dim = 2\nrho = {c!r}*(abs2(z1) + abs2(z2) + re(0.3*z1^2 + (0.1+0.2i)*z1*z2) - 1)\n",
    3: "dim = 3\nrho = {c!r}*(abs2(z1) + abs2(z2) + abs2(z3) + re(0.3*z1^2 + (0.1+0.2i)*z2*z3) - 1)\n",
}


def _quadric_file(path, c, A):
    terms = " + ".join(f"abs2(z{j + 1})" for j in range(len(A)))
    holo = " + ".join(f"({float(a.real)!r}{float(a.imag):+.17g}i)*z{j + 1}^2" for j, a in enumerate(A))
    path.write_text(f"dim = {len(A)}\nrho = {c!r}*({terms} + re({holo}) - 1)\n")
    return str(path)


def _analyze(path, point):
    arg = ",".join(repr(float(x)) for z in point for x in (z.real, z.imag))
    rc, out, err = run_cli(["analyze", "--surface-file", path, f"--point={arg}"])
    assert rc == 0, err
    return {k: np.asarray(_decoded(v)) for k, v in json.loads(out)["records"][0].items()}


def _decoded(v):
    return [_decoded(x) for x in v] if isinstance(v, list) else decode_number(v)


class TestScaleCovariance:
    """c rho (c > 0) is the same CR manifold: theta -> c theta, so J -> c^(m+1) J,
    r -> r/c, h -> c h, scalarR -> scalarR/c, while ric and the log J Hessian stay."""

    @given(
        m=st.sampled_from([2, 3]),
        u=st.floats(-8.0, 8.0),
        moduli=st.lists(st.floats(0.0, 0.4), min_size=3, max_size=3),
        angles=st.lists(st.floats(0.0, 2 * np.pi), min_size=3, max_size=3),
        direction=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
    )
    @example(m=2, u=-8.0, moduli=[0.3, 0.2, 0.1], angles=[0.0, 1.1, 2.0], direction=[0.6, 0.7, 0.0, 0.1, -0.2, 0.0])
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_invariants_follow_their_scaling_laws(self, tmp_path_factory, m, u, moduli, angles, direction):
        tmp = tmp_path_factory.mktemp("quadric")
        A = [r * np.exp(1j * t) for r, t in zip(moduli[:m], angles[:m])]
        v = np.array(direction[:m]) + 1j * np.array(direction[3:3 + m]) + 0.1  # never the origin
        c = 10.0 ** u
        base = _analyze(_quadric_file(tmp / "base.txt", 1.0, A), v / np.linalg.norm(v))
        scaled = _analyze(_quadric_file(tmp / "scaled.txt", c, A), base["point"])

        def close(key, factor, floor=0.0):
            want = factor * base[key]
            assert np.max(np.abs(scaled[key] - want)) <= 1e-12 * max(np.max(np.abs(want)), floor), key

        close("J", c ** (m + 1))
        close("r", 1 / c)
        close("scalarR", 1 / c)
        close("h", c)
        close("ric", 1.0)
        close("loghessJ_eigs", 1.0, floor=1.0)  # L vanishes with A: compare at unit scale

    def test_scaled_ambient_quadric_runs_every_command(self, tmp_path):
        f = tmp_path / "c3.txt"
        f.write_text(C3_TIMES_100)
        rc, _, err = run_cli(["analyze", "--surface-file", str(f), "--point=0.3+0.3i,0.5-0.2i,0.6"])
        assert rc == 0, err
        rc, _, err = run_cli(["scan", "--surface-file", str(f), "--grid", "16"])
        assert rc == 0, err
        rc, out, err = run_cli(["check", "--surface-file", str(f), "--seed", "0"])
        assert rc == 0, err
        assert "ALL CHECKS PASSED" in out

    @pytest.mark.parametrize("c", [1e4, 1e6])
    def test_scaled_quadric_passes_every_check(self, tmp_path, c):
        # the Levi-Hermitian residual is read on the frame gate's scale max(1, |Zc|^2 max|H|)
        f = tmp_path / "q.txt"
        f.write_text(SCALED_QUADRIC[2].format(c=c))
        rc, out, err = run_cli(["check", "--surface-file", str(f), "--seed", "0"])
        assert rc == 0, out + err
        assert "ALL CHECKS PASSED" in out

    @pytest.mark.parametrize("m", [2, 3])
    def test_scaled_quadric_scan_follows_the_unit_scan(self, tmp_path, m):
        # the radial root and the on-surface gates scale with |P| |rho_j|: every c scans
        def scan(c):
            f = tmp_path / f"q{c:g}.txt"
            f.write_text(SCALED_QUADRIC[m].format(c=c))
            rc, out, err = run_cli(["scan", "--surface-file", str(f), "--grid", "10"])
            assert rc == 0, err
            header, *rows = out.splitlines()
            return dict(zip(header.split(","), zip(*(row.split(",") for row in rows))))

        base = scan(1.0)
        for c in (1e4, 1e6, 1e8):
            scaled = scan(c)
            for j in range(1, m + 1):
                assert scaled[f"z{j}_re"] == base[f"z{j}_re"] and scaled[f"z{j}_im"] == base[f"z{j}_im"], c
            for key, factor in [("J", c ** (m + 1)), ("r", 1 / c), ("scalarR", 1 / c)]:
                want = factor * np.array(base[key], dtype=float)
                gap = np.abs(np.array(scaled[key], dtype=float) - want)
                assert np.max(gap) <= 1e-12 * np.max(np.abs(want)), (c, key)

    def test_scaled_sphere_immersion_bounds(self, tmp_path):
        def bound(c):
            f = tmp_path / f"s{c:g}.txt"
            f.write_text(f"dim = 2\nrho = {c!r}*(abs2(z1) + abs2(z2) - 1)\n"
                         f"F = [{c ** 0.5!r}*z1, {c ** 0.5!r}*z2]\npsi = {-c!r}\n")
            rc, out, err = run_cli(["bound", "--surface-file", str(f), "--quad", "grid:6"])
            assert rc == 0, err
            return {k: decode_number(v) for k, v in json.loads(out)["aggregates"].items() if k in ("volume", "mean_H2")}

        base, scaled = bound(1.0), bound(1e4)
        assert abs(scaled["volume"] - 1e8 * base["volume"]) <= 1e-10 * 1e8 * base["volume"]
        assert abs(scaled["mean_H2"] - 1e-4 * base["mean_H2"]) <= 1e-12 * 1e-4 * base["mean_H2"]

    def test_large_multiple_of_the_sphere_immersion_loads(self, tmp_path):
        # rho - |F|^2 - psi is held to 1e-9 max(1, |rho|): at c = 1e8 its rounding
        # alone failed the old absolute 1e-9, and a wrong F still fails
        for f2, want in [("1e4", 0), ("1.0001e4", 2)]:
            f = tmp_path / f"s{f2}.txt"
            f.write_text(f"dim = 2\nrho = 1e8*(abs2(z1) + abs2(z2) - 1)\nF = [1e4*z1, {f2}*z2]\npsi = -1e8\n")
            for argv in (["analyze", "--surface-file", str(f), "--point=0.6,0.8"],
                         ["bound", "--surface-file", str(f), "--quad", "grid:4"]):
                rc, _, err = run_cli(argv)
                assert rc == want, err
                assert not rc or json.loads(err)["error"] == "BadParams"

    def test_large_multiple_of_the_sphere_loads(self, tmp_path):
        f = tmp_path / "s.txt"
        f.write_text("dim = 2\nrho = 100000*(abs2(z1) + abs2(z2) - 1)\n")
        rec = _analyze(str(f), np.array([0.6, 0.8]))
        for key, want in [("r", 1e-5), ("J", 1e15), ("scalarR", 2e-5)]:
            assert abs(rec[key] - want) <= 1e-12 * want, key


@pytest.mark.parametrize("argv", [
    ["analyze", "--surface", "whitney", "--params", "n=1", "--point", "1,0"],
    ["analyze", "--surface-file", "c3x100.txt", "--point=0.3+0.3i,0.5-0.2i,0.6"],
])
def test_a_repeated_analyze_compiles_nothing(argv, tmp_path, monkeypatch):
    # nodes are interned for the process, so the rebuilt surface finds every
    # derivative and program of the first build
    (tmp_path / "c3x100.txt").write_text(C3_TIMES_100)
    argv = [str(tmp_path / a) if a == "c3x100.txt" else a for a in argv]
    first = run_cli(argv)
    assert first[0] == 0, first[2]

    def no_compile(roots):
        raise AssertionError("a program was compiled")

    monkeypatch.setattr(sym, "_compile", no_compile)
    assert run_cli(argv) == first


def test_nonreal_J_exits_3_with_a_json_error(monkeypatch):
    det = np.linalg.det
    monkeypatch.setattr(hypersurface.np.linalg, "det", lambda B: det(B) * (1 + 1e-6j))
    rc, out, err = run_cli(["analyze", "--surface", "sphere", "--point", "0.6,0.8"])
    assert (rc, out) == (3, "")
    assert json.loads(err)["error"] == "NonpositiveJ"


# the CI smoke commands and their surface files (.github/workflows/tier1.yml); the
# dimension-3 `check` runs (whitney n=2, c3x100) are left out, at about 8 s per run
SMOKE_FILES = {
    "c3x100.txt": C3_TIMES_100,
    "q2x1e6.txt": "dim = 2\nrho = 1e6*(abs2(z1) + abs2(z2) + re(0.3*z1^2 + (0.1+0.2i)*z1*z2) - 1)\n",
    "s2x1e4.txt": "dim = 2\nrho = 1e4*(abs2(z1) + abs2(z2) - 1)\nF = [100*z1, 100*z2]\npsi = -1e4\n",
    "s2x1e8.txt": "dim = 2\nrho = 1e8*(abs2(z1) + abs2(z2) - 1)\nF = [1e4*z1, 1e4*z2]\npsi = -1e8\n",
    "q2x1e-8.txt": "dim = 2\nrho = 1e-8*(abs2(z1) + abs2(z2) + re(0.3*z1^2 + (0.1+0.2i)*z1*z2) - 1)\n",
}
SMOKE_COMMANDS = [
    "gallery-list",
    "analyze --surface sphere --point 1,0",
    "scan --surface sphere --grid 3",
    "bound --surface sphere --quad grid:4",
    "bound --surface reinhardt --params n=1 --quad grid:8",
    "scan --surface whitney --grid 5 --out scan.csv --meta-out scan.json",
    "check --surface whitney --seed 0",
    "analyze --surface-file c3x100.txt --point=0.3+0.3i,0.5-0.2i,0.6",
    "scan --surface-file c3x100.txt --grid 8",
    "analyze --surface-file q2x1e6.txt --point=0.6,0.7",
    "scan --surface-file q2x1e6.txt --grid 8",
    "check --surface-file q2x1e6.txt --seed 0",
    "bound --surface-file s2x1e4.txt --quad grid:4",
    "check --surface-file s2x1e4.txt --seed 0",
    "analyze --surface-file s2x1e8.txt --point=0.6,0.8",
    "bound --surface-file s2x1e8.txt --quad grid:4",
    "analyze --surface-file q2x1e-8.txt --point=0.6,0.7",
    "scan --surface-file q2x1e-8.txt --grid 8",
]
# runs each command twice in one fresh process and prints the ones whose second run differs
WARM_EQUALS_COLD = """
import io, json, os, sys
from contextlib import redirect_stdout
from crgeo.cli import main

def run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    files = {}
    for flag in ("--out", "--meta-out"):
        if flag in argv:
            with open(argv[argv.index(flag) + 1], encoding="utf-8", newline="") as fh:
                files[flag] = fh.read()
    return code, out.getvalue(), files

differ = []
for line in json.loads(sys.argv[1]):
    cold, warm = run(line.split()), run(line.split())
    if cold != warm or cold[0] != 0:
        differ.append([line, cold[0], warm[0]])
print(json.dumps(differ))
"""


def test_smoke_commands_repeat_their_bytes_in_one_process(tmp_path):
    # per-structure caches (jets, layouts, programs, zero-test points) are
    # filled by the first run: the second must write the same bytes
    for name, text in SMOKE_FILES.items():
        (tmp_path / name).write_text(text)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run([sys.executable, "-c", WARM_EQUALS_COLD, json.dumps(SMOKE_COMMANDS)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_a_second_build_makes_no_zero_test_points_and_compiles_no_program(tmp_path, monkeypatch):
    # the load checks (realness of rho and sigma, holomorphic F, pluriharmonic psi
    # and family, rho = |F|^2 + psi) run again, on points built once per dimension
    # and programs kept on the interned nodes
    (tmp_path / "s.txt").write_text("dim = 2\nrho = 4*(abs2(z1) + abs2(z2) - 1)\nF = [2*z1, 2*z2]\npsi = -4\n"
                                    "sigma = log(1 + abs2(z2))\n")

    def builds():
        surfaces = [gallery("whitney", n=2), gallery("reinhardt", n=2), gallery("ellipsoid", A=(0.3, -0.2)),
                    load_surface(parse_surface_file((tmp_path / "s.txt").read_text()))]
        for s in surfaces:
            for f in s.plurifamily:
                f.ensure_valid()
        return surfaces

    builds()

    def forbidden(*args):
        raise AssertionError("built again")

    monkeypatch.setattr(sym, "_random_coords", forbidden)
    monkeypatch.setattr(sym, "_compile", forbidden)
    builds()


@pytest.mark.parametrize("text,code,error", [
    ("dim = 2\nrho = abs2(z1) + abs2(z2) - 1 + i*re(z1)\n", 2, "NotRealValued"),
    ("dim = 2\nrho = 1e8*(abs2(z1) + abs2(z2) - 1)\nF = [1e4*z1, 1.0001e4*z2]\npsi = -1e8\n", 2, "BadParams"),
    ("dim = 2\nrho = abs2(z1) + abs2(z2) - 1\nF = [conj(z1), z2]\npsi = -1\n", 2, "NotPluriharmonic"),
    ("dim = 2\nrho = abs2(z1) - 1\nF = [z1]\npsi = -1\n", 2, "BadParams"),
])
def test_a_failed_load_check_fails_every_load(tmp_path, text, code, error):
    # a second load of the same structure, its programs cached, still runs the check
    f = tmp_path / "bad.txt"
    f.write_text(text)
    for _ in range(2):
        rc, out, err = run_cli(["analyze", "--surface-file", str(f), "--point=0.6,0.8"])
        assert (rc, out, json.loads(err)["error"]) == (code, "", error)
