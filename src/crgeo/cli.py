"""Command-line driver.

Subcommands::

    analyze       per-point JSON report (frame, curvature, umbilicity data)
    scan          whole-surface CSV scan over a deterministic grid
    bound         eigenvalue-bound JSON report (mean-curvature and tension)
    check         run the invariant suites; nonzero exit on any breach
    gallery-list  built-in surfaces and their parameters

Exit codes: 0 success, 2 malformed input, 3 geometry failure at a point,
4 invariant-suite breach.  Errors are mirrored as JSON on stderr.  Identical
invocations (including Monte-Carlo seeds) produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import dsl
from . import symbolic as sym
from .checks import run_suites
from .errors import BadParams, CrgeoError, GeometryError, InputError, UnreadableFile, UnwritableFile
from .gallery import GALLERY_DOC, SurfaceSpec, curvature_batch, gallery, load_surface, scan_surface
from .hypersurface import _frame_batch  # noqa: F401 -- perfbench's tracer test reads this binding
from .immersion import _gauss_form, _levi_norm2
from .quadrature import parse_quad_flag
from .report import Report, scan_csv
from .spectral import reilly_bound, tension_bound

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_GEOMETRY = 3
EXIT_INVARIANT = 4

_DEFAULT_GALLERY = (
    ("sphere", {"r": 1.0, "n": 1}),
    ("sphere", {"r": 1.0, "n": 2}),
    ("ellipsoid", {"A": (0.1, 0.2, 0.3)}),
    ("whitney", {"n": 1}),
    ("reinhardt", {"n": 1}),
    ("reinhardt", {"n": 2}),
)


def _parse_value(text, kinds=(int, float)):
    """The first of ``kinds`` that parses ``text``; InputError when none does."""
    for kind in kinds:
        try:
            return kind(text)
        except ValueError:
            pass
    raise InputError(f"cannot parse value {text!r}")


def parse_params(text):
    """Parse 'k=v,k=(a,b,c)' CLI parameter strings."""
    out = {}
    if not text:
        return out
    for item in dsl.split_top_level(text):
        if "=" not in item:
            raise InputError(f"parameter {item!r} is not of the form key=value")
        key, value = item.split("=", 1)
        key, value = key.strip(), value.strip()
        if key in out:
            raise InputError(f"parameter {key!r} is given twice")
        if value.startswith("("):
            if not value.endswith(")"):
                raise InputError(f"unbalanced tuple in {item!r}")
            out[key] = tuple(_parse_value(v, (float,)) for v in value[1:-1].split(","))  # "" entries fail
        else:
            out[key] = _parse_value(value)
    return out


def parse_point(text, dim):
    """Comma-separated complex literals (re+im i syntax) into a point."""
    parts = dsl.split_top_level(text)
    if len(parts) == 2 * dim and all("i" not in p for p in parts):
        vals = [float(p) for p in parts]
        point = np.array([complex(vals[2 * j], vals[2 * j + 1]) for j in range(dim)])
    elif len(parts) != dim:
        raise InputError(f"point needs {dim} complex components (or {2 * dim} reals), got {len(parts)}")
    else:
        point = []
        for p in parts:
            # the constructors fold an expression without variables into one constant node
            value = sym.constants([dsl.parse_expr(p)])
            if value is None:
                raise InputError(f"point component {p!r} is not a constant")
            point.append(value[0])
        point = np.array(point)
    if not np.isfinite(point).all():
        raise InputError(f"point {text!r} has a non-finite coordinate")
    return point


def _load_surface(args) -> SurfaceSpec:
    if getattr(args, "surface_file", None):
        try:
            with open(args.surface_file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UnreadableFile(f"cannot read surface file {args.surface_file!r}: {exc}") from exc
        fields = dsl.parse_surface_file(text)
        return load_surface(fields, name=args.surface_file)
    if not args.surface:
        raise InputError("one of --surface or --surface-file is required")
    return gallery(args.surface, **parse_params(getattr(args, "params", None)))


def _surface_meta(surface):
    return {"name": surface.name, "params": surface.params, "dim": surface.dim, "n": surface.n}


def _emit(text, out_path):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise UnwritableFile(f"cannot write {out_path!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


# ---- subcommands -----------------------------------------------------------


def cmd_analyze(args):
    surface = _load_surface(args)
    p = surface.chart.project(parse_point(args.point, surface.dim))

    fb, f, ric, R, L = curvature_batch(surface, p[None, :])
    record = {
        "point": p,
        "h": fb.h[0],
        "r": float(fb.r[0]),
        "J": float(fb.J[0]),
        "ric": ric[0],
        "scalarR": float(R[0]),
        "loghessJ_eigs": np.linalg.eigvalsh(L)[0],
    }
    if f is not None:
        G = _gauss_form(f["holo"], fb.hinv)
        record.update({
            "II0norm2": float(f["II0"][0]),
            "H": f["H"][0],
            "torsion_norm2": float(_levi_norm2(f["torsion"], fb.hinv)[0]),
            "gauss_residuals": {
                "traced_two_route": float(np.abs(L - G).max()),
                "normality": float(f["normality"][0]),
                "symmetry": float(f["symmetry"][0]),
                "mean_curvature_vs_r": float(abs(f["Hnorm2"][0] - fb.r[0])),
            },
        })
    rep = Report(surface=_surface_meta(surface), command="analyze", records=[record])
    _emit(rep.to_json(), args.out)
    return EXIT_OK


def cmd_scan(args):
    surface = _load_surface(args)
    if args.grid < 1:
        raise BadParams(f"--grid must be a positive integer, got {args.grid}")
    if not 0 < args.umbilic_tol < np.inf:
        raise BadParams(f"--umbilic-tol must be a finite number above 0, got {args.umbilic_tol}")
    budget = int(args.grid) ** 3
    scan = scan_surface(surface, budget, umbilic_tolerance=args.umbilic_tol)
    _emit(scan_csv(scan, surface.dim), args.out)
    if args.meta_out:
        rep = Report(
            surface=_surface_meta(surface),
            command=f"scan --grid {args.grid}",
            aggregates={
                "points": int(scan["points"].shape[0]),
                "spacing": float(scan["spacing"]),
                "min_II0norm2": float(np.min(scan["II0norm2"])) if "II0norm2" in scan else None,
                "umbilic_count": int(np.sum(scan["is_umbilic"])) if "is_umbilic" in scan else None,
            },
        )
        _emit(rep.to_json(), args.meta_out)
    return EXIT_OK


def cmd_bound(args):
    surface = _load_surface(args)
    rule = parse_quad_flag(args.quad)
    agg = {
        "volume": None, "mean_H2": None, "reilly_upper": None,
        "tension_energy": None, "tension_total": None, "tension_upper": None,
        "samples_used": None, "quad": rule.describe(),
        "volume_error": None,
    }
    if surface.immersion is not None and surface.star_shaped:
        rb = reilly_bound(surface.immersion, rule)
        agg.update({
            "volume": rb.volume, "mean_H2": rb.mean_H2, "reilly_upper": rb.upper_bound,
            "samples_used": rb.samples_used, "volume_error": rb.volume_error,
        })
    if surface.plurifamily:
        if surface.star_shaped:
            tb = tension_bound(surface.chart, surface.plurifamily, quad=rule)
        else:
            pts = surface.random_points(100, seed=rule.seed)
            tb = tension_bound(surface.chart, surface.plurifamily, sample_points=pts)
            agg["quad"] = f"certified:{len(pts)}:{rule.seed}"  # the rule that ran
        agg.update({
            "tension_energy": tb.energy, "tension_total": tb.total_tension,
            "tension_upper": tb.tension_bound,
        })
        if agg["volume"] is None:
            agg["volume"] = tb.volume
        if agg["samples_used"] is None:
            agg["samples_used"] = tb.samples_used
    rep = Report(surface=_surface_meta(surface), command=f"bound --quad {args.quad}", aggregates=agg)
    _emit(rep.to_json(), args.out)
    return EXIT_OK


def cmd_check(args):
    if args.seed < 0:
        raise BadParams(f"--seed must be nonnegative, got {args.seed}")
    if args.all:
        targets = [gallery(name, **params) for name, params in _DEFAULT_GALLERY]
    else:
        targets = [_load_surface(args)]
    all_results = []
    ok = True
    for i, surface in enumerate(targets):
        results = run_suites(surface, seed=args.seed, include_symbolic=(i == 0))
        label = f"{surface.name}{surface.params}"
        for r in results:
            print(f"[{label}] {r.line()}")
        ok = ok and all(r.passed for r in results)
        all_results.append((surface, results))
    if args.out:
        rep = Report(
            surface={"targets": [f"{s.name}{s.params}" for s, _ in all_results]},
            command="check",
            records=[
                {"surface": s.name, "name": r.name, "residual": r.residual,
                 "threshold": r.threshold, "passed": r.passed}
                for s, rs in all_results for r in rs
            ],
            aggregates={"passed": ok},
        )
        _emit(rep.to_json(), args.out)
    print("ALL CHECKS PASSED" if ok else "CHECK FAILURES PRESENT")
    return EXIT_OK if ok else EXIT_INVARIANT


def cmd_gallery_list(args):
    rep = Report(surface={"name": "gallery"}, command="gallery-list",
                 records=[{"name": k, "doc": v} for k, v in sorted(GALLERY_DOC.items())])
    _emit(rep.to_json(), args.out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InputError, so ``main`` answers them with exit 2 and
    a JSON error like any other malformed input; subparsers inherit the class."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def build_parser():
    ap = _Parser(prog="crgeo", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_surface_args(p):
        p.add_argument("--surface", help="gallery surface name")
        p.add_argument("--surface-file", help="path to a surface-specification file")
        p.add_argument("--params", help="gallery parameters, e.g. r=2,n=1 or A=(0.1,0.2,0)")
        p.add_argument("--out", help="write the report here instead of stdout")

    p = sub.add_parser("analyze", help="per-point report")
    add_surface_args(p)
    p.add_argument("--point", required=True, help="comma-separated complex literals, e.g. 0,1 or 0.5+0.1i,0.8")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("scan", help="surface scan to CSV")
    add_surface_args(p)
    p.add_argument("--grid", type=int, required=True, help="point budget is grid^3")
    p.add_argument("--umbilic-tol", type=float, default=1e-8)
    p.add_argument("--meta-out", help="optional JSON with scan aggregates")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("bound", help="eigenvalue bound report")
    add_surface_args(p)
    p.add_argument("--quad", required=True, help="grid:<n>, mc:<samples>:<seed> or qmc:<samples>:<seed>")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("check", help="run invariant suites")
    add_surface_args(p)
    p.add_argument("--all", action="store_true", help="check every default gallery surface")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gallery-list", help="list built-in surfaces")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gallery_list)
    return ap


@functools.cache
def _parser():
    """The parser, built on the first call: it holds no state between parses."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except InputError as exc:
        _error_json(exc)
        return EXIT_INPUT
    except GeometryError as exc:
        _error_json(exc)
        return EXIT_GEOMETRY
    except CrgeoError as exc:
        _error_json(exc)
        return EXIT_INPUT
    except RecursionError:  # every recursive walk (parser, expression trees) follows a user expression
        _error_json(InputError(f"an expression nests past the recursion limit {sys.getrecursionlimit()}"))
        return EXIT_INPUT


def _error_json(exc):
    sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")


def entrypoint():  # console-script hook
    raise SystemExit(main())
