"""Workload definitions: seeded inputs, the job list of one round, and the
checks every output must pass.

Each workload is a fixed list of CLI invocations (one "round") generated
from the seed; the benchmark replays the round until its time is up, so
counts per round repeat exactly for a seed.  Inputs are generated here with
the benchmark's own closed forms (on-surface points, expected curvatures);
the program receives only the generated argv.

Failure classes of one op:
  traceback      the CLI raised instead of returning an exit code
  exit<N>        the CLI returned exit code N where another was expected
  no_json_error  an error exit without a JSON error object on stderr
  wrong_output   exit 0, but an output check did not hold
  not_repeatable the output differs from the first run of the same job
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("quadrature", "scan", "pointwise")

DIGITS_CAP = 16.0
POINTWISE_REQUESTS = 200
POINTWISE_MALFORMED = 10  # 5% of each round

# check names whose pass condition is "value above the threshold"
FLOOR_CHECKS = {
    "frame.levi-positive",
    "frame.J-positive",
    "loghess.positive-semidefinite",
    "gauss.ricci-upper-bound",
    "quadrature.refinement-convergence",
    "quadrature.orientation-positive",
}


def is_oracle_check(name: str) -> bool:
    """Checks whose residual is the oracle's own error (finite-difference
    truncation, Monte-Carlo sampling), not an error of the program's values."""
    return name.startswith("fd.") or name.endswith(("-vs-fd", "-vs-monte-carlo"))


@dataclass
class Outcome:
    """What one op returned; ``files`` maps output paths to their text."""

    code: int | None
    stdout: str
    stderr: str
    error: str | None = None
    files: dict = field(default_factory=dict)


@dataclass
class Job:
    label: str
    argv: list
    points: int
    expect: int = 0
    check: object = None  # callable(Outcome) -> correct digits; raises CheckFailed
    out_path: str | None = None


class CheckFailed(Exception):
    pass


def err_digits(err) -> float:
    """Correct decimal digits of a relative error, capped at DIGITS_CAP."""
    return DIGITS_CAP if err == 0 else min(DIGITS_CAP, -math.log10(err))


def digits(value, exact) -> float:
    """Correct decimal digits of value against a nonzero exact value."""
    return err_digits(abs(value - exact) / abs(exact))


def residual_digits(residual, threshold) -> float:
    return err_digits(residual / threshold)


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _num(v):
    if v is None:
        return None
    if isinstance(v, dict):
        return complex(float(v["re"]), float(v["im"]))
    return float(v)


def classify(job: Job, outcome: Outcome):
    """(failure class or None, digits list) for one op's outcome."""
    if outcome.error is not None:
        return "traceback", []
    if outcome.code != job.expect:
        return f"exit{outcome.code}: {_failure_detail(outcome)}", []
    if job.expect != 0:
        try:
            err = json.loads(outcome.stderr)
            ok = isinstance(err, dict) and set(err) == {"error", "message"}
        except ValueError:
            ok = False
        return (None if ok else "no_json_error"), []
    try:
        return None, list(job.check(outcome))
    except (CheckFailed, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"wrong_output: {exc}", []


def _failure_detail(outcome: Outcome) -> str:
    """The JSON error type, or the names of failed checks."""
    try:
        return json.loads(outcome.stderr)["error"]
    except (ValueError, KeyError, TypeError):
        pass
    failed = [m["name"] for m in map(_CHECK_LINE.match, outcome.stdout.splitlines()) if m and m["status"] == "FAIL"]
    return ", ".join(failed) or "no error report"


def fingerprint(outcome: Outcome) -> str:
    h = hashlib.sha256()
    for part in (str(outcome.code), outcome.stdout, outcome.stderr, outcome.error or ""):
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    for path in sorted(outcome.files):
        h.update(outcome.files[path].encode("utf-8"))
    return h.hexdigest()


# ---- closed forms -------------------------------------------------------------


def unit_complex(rng: random.Random, m: int) -> np.ndarray:
    v = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(m)])
    return v / np.linalg.norm(v)


def quadric_point(u: np.ndarray, A) -> np.ndarray:
    """On {|z|^2 + Re sum A_j z_j^2 = 1} along the complex direction u."""
    return u / math.sqrt(1.0 + float(np.real(np.sum(np.asarray(A) * u * u))))


def whitney_point(u: np.ndarray) -> np.ndarray:
    """On {|z|^2 + |z w|^2 + |w|^4 = 1} (z = u[:-1], w = u[-1]) along u."""
    a2 = float(np.sum(np.abs(u[:-1]) ** 2))
    b2 = abs(u[-1]) ** 2
    c = a2 * b2 + b2 * b2
    s = 1.0 / a2 if c == 0 else (-a2 + math.sqrt(a2 * a2 + 4.0 * c)) / (2.0 * c)
    return math.sqrt(s) * u


def reinhardt_point(rng: random.Random, m: int) -> np.ndarray:
    L = np.array([rng.gauss(0, 1) for _ in range(m)])
    L /= np.linalg.norm(L)
    phases = np.array([rng.uniform(0, 2 * math.pi) for _ in range(m)])
    return np.exp(L / 2.0) * np.exp(1j * phases)


def rho_value(kind: str, params: dict, z):
    """The closed-form defining function at a point (m,) or rows (K, m)."""
    z = np.asarray(z, dtype=complex)
    a2 = np.abs(z) ** 2
    if kind == "sphere":
        return np.sum(a2, axis=-1) - params["r"] ** 2
    if kind in ("ellipsoid", "custom"):
        return np.sum(a2, axis=-1) + np.real(np.sum(np.asarray(params["A"]) * z * z, axis=-1)) - 1.0
    if kind == "whitney":
        w2 = a2[..., -1]
        return np.sum(a2[..., :-1], axis=-1) * (1.0 + w2) + w2 * w2 - 1.0
    if kind == "reinhardt":
        return np.sum(np.log(a2) ** 2, axis=-1) - 1.0
    raise ValueError(kind)


def fmt_params(params: dict) -> str:
    parts = []
    for k, v in params.items():
        if isinstance(v, (tuple, list)):
            parts.append(f"{k}=({','.join(repr(float(x)) for x in v)})")
        else:
            parts.append(f"{k}={v!r}")
    return ",".join(parts)


# ---- quadrature ------------------------------------------------------------------


def grid_rule_nodes(resolution: int, d: int) -> int:
    """Distinct nodes of a ``grid:<resolution>`` rule on S^{d-1}: the full and
    the half grid (resolution // 2, at least 3), each Gauss-Legendre in the
    d-2 polar angles and max(4, resolution) uniform azimuths."""
    half = max(3, resolution // 2)
    return resolution ** (d - 2) * max(4, resolution) + half ** (d - 2) * max(4, half)


def _bound_aggregates(outcome):
    rep = json.loads(outcome.stdout)
    return {k: _num(v) if k not in ("quad", "samples_used") else v for k, v in rep["aggregates"].items()}


def _check_bound_sphere(r, n, grid):
    def check(outcome):
        agg = _bound_aggregates(outcome)
        exact_vol = (2 * math.pi * r * r) ** (n + 1)
        exact_bound = n / (r * r)
        vol, err = agg["volume"], agg["volume_error"]
        # grid: within twice the program's refinement estimate; MC on the
        # sphere is exact up to the tangent step, so a relative 1e-7 holds
        tol = 2 * err + 1e-7 * exact_vol if grid else 6 * err + 1e-7 * exact_vol
        _require(abs(vol - exact_vol) <= tol, f"volume {vol} vs (2 pi r^2)^(n+1) = {exact_vol}")
        for key in ("reilly_upper", "tension_upper"):
            _require(abs(agg[key] - exact_bound) <= 1e-8 * exact_bound, f"{key} {agg[key]} vs n/r^2 = {exact_bound}")
        return [digits(vol, exact_vol), digits(agg["reilly_upper"], exact_bound)]

    return check


def _check_bound_reference(n, reference):
    """Volume and mean |H|^2 against ``reilly_bound`` of the same surface with
    a finer rule, within the sum of the two runs' refinement estimates
    (``volume_error``, relative to the volume, also bounds mean_H2)."""
    _, ref_volume, ref_error, ref_mean = reference

    def check(outcome):
        agg = _bound_aggregates(outcome)
        vol, err, mean, upper = agg["volume"], agg["volume_error"], agg["mean_H2"], agg["reilly_upper"]
        _require(0 <= err < vol, f"volume error {err} of volume {vol}")
        rel = (err + ref_error) / ref_volume + 1e-9
        _require(abs(vol - ref_volume) <= rel * ref_volume, f"volume {vol} vs reference {ref_volume} (error {err:.2e})")
        _require(abs(mean - ref_mean) <= rel * ref_mean, f"mean_H2 {mean} vs reference {ref_mean}")
        _require(abs(upper - n * mean) <= 1e-12 * upper, f"reilly_upper {upper} != n * mean_H2")
        _require(agg["tension_upper"] is None, "tension bound on a surface without a plurifamily")
        return []

    return check


def _check_bound_reinhardt(n):
    def check(outcome):
        agg = _bound_aggregates(outcome)
        exact = n / 2.0
        _require(agg["volume"] is None, "certified-constant path reports no volume")
        _require(abs(agg["tension_upper"] - exact) <= 1e-9, f"tension_upper {agg['tension_upper']} vs n/2")
        return []

    return check


# reilly_bound with a finer rule than the jobs use: (rule, volume, its
# volume_error, mean_H2).  Whitney n=1 at grid:16 agrees with its reference to
# 3e-11; dimension-3 grids converge slowly, so the ellipsoid at grid:4 carries
# an estimate of 40-75% of its volume and its check catches only gross errors.
WHITNEY_REFERENCE = ("grid:32", 92.11630774595442, 2.510844865355466e-09, 1.0226975833375125)
ELLIPSOID_REFERENCES = {
    (0.3, -0.2, 0.1): ("grid:8", 266.72551874423624, 26.386912348131887, 0.9974057129636762),
    (-0.25, 0.15, 0.35): ("grid:8", 276.504802208497, 13.307772278855794, 1.0011408798433108),
    (0.05, -0.35, -0.15): ("grid:8", 268.14439648841517, 20.08178382513529, 0.999540487120147),
    (0.2, 0.25, -0.3): ("grid:8", 274.01188192140853, 30.393664588481045, 0.999006731479117),
}


def quadrature_jobs(rng: random.Random):
    r1, r2, r3 = (round(rng.uniform(0.5, 2.0), 6) for _ in range(3))
    A = rng.choice(sorted(ELLIPSOID_REFERENCES))
    n_reinhardt = rng.choice((1, 2))
    mc_seed, cert_seed = rng.randrange(1 << 30), rng.randrange(1 << 30)

    def bound(surface, params, quad):
        return ["bound", "--surface", surface, "--params", fmt_params(params), "--quad", quad]

    return [
        Job(f"bound reinhardt n={n_reinhardt} certified", bound("reinhardt", {"n": n_reinhardt}, f"mc:100:{cert_seed}"),
            100, check=_check_bound_reinhardt(n_reinhardt)),
        Job("bound sphere n=1 grid:8", bound("sphere", {"r": r1, "n": 1}, "grid:8"), grid_rule_nodes(8, 4),
            check=_check_bound_sphere(r1, 1, True)),
        Job("bound sphere n=2 grid:4", bound("sphere", {"r": r2, "n": 2}, "grid:4"), grid_rule_nodes(4, 6),
            check=_check_bound_sphere(r2, 2, True)),
        Job("bound whitney grid:16", bound("whitney", {"n": 1}, "grid:16"), grid_rule_nodes(16, 4),
            check=_check_bound_reference(1, WHITNEY_REFERENCE)),
        Job("bound ellipsoid grid:4", bound("ellipsoid", {"A": A}, "grid:4"), grid_rule_nodes(4, 6),
            check=_check_bound_reference(2, ELLIPSOID_REFERENCES[A])),
        Job("bound sphere n=1 mc:1000", bound("sphere", {"r": r3, "n": 1}, f"mc:1000:{mc_seed}"), 1000,
            check=_check_bound_sphere(r3, 1, False)),
    ]


# ---- scan ----------------------------------------------------------------------------


def odd(k):
    return k if k % 2 == 1 else k + 1


def scan_rows(kind: str, grid: int, m: int) -> int:
    """Rows of ``scan --grid`` from the documented grid rule: grid^3 points
    over the chart angles, polar node counts odd; the Reinhardt torus sampler
    spreads them over m-2 polar, one azimuth and m phase axes."""
    axes = 2 * m - 1
    q = max(3, int(round((grid ** 3) ** (1.0 / axes))))
    if kind == "reinhardt":
        return odd(q) ** (m - 2) * q ** (m + 1)
    return odd(q) ** (axes - 1) * q


def _check_scan(kind, params, m, rows, immersion):
    def check(outcome):
        text = next(iter(outcome.files.values()))
        lines = text.split("\r\n")
        _require(lines[-1] == "", "CSV must end with CRLF")
        header = lines[0].split(",")
        coord = [f"z{j + 1}_{p}" for j in range(m) for p in ("re", "im")]
        _require(header == coord + ["II0norm2", "Hnorm2", "r", "J", "scalarR", "min_eig_L", "is_umbilic"],
                 f"header {header}")
        body = lines[1:-1]
        _require(len(body) == rows, f"{len(body)} rows, grid rule gives {rows}")
        cols = list(zip(*(row.split(",") for row in body)))
        num = {name: np.array(cols[i], dtype=float) for i, name in enumerate(header)
               if name != "is_umbilic" and (immersion or name not in ("II0norm2", "Hnorm2"))}
        Z = np.stack([num[f"z{j + 1}_re"] + 1j * num[f"z{j + 1}_im"] for j in range(m)], axis=1)
        off = float(np.max(np.abs(rho_value(kind, params, Z))))
        _require(off <= 1e-9, f"scan point off the surface by {off:.2e}")
        for name in ("r", "J", "scalarR", "min_eig_L"):
            _require(np.all(np.isfinite(num[name])), f"non-finite {name}")
        _require(np.all(num["J"] > 0), "J is not positive")
        if not immersion:
            _require(set(cols[-1]) == {""}, "non-immersion scan has umbilic flags")
            return []
        _require(np.all(num["min_eig_L"] > -1e-9), "log-J form of a squared-norm surface is not PSD")
        umb = np.array(cols[-1]) == "true"
        _require(np.array_equal(umb, num["II0norm2"] < 1e-8), "is_umbilic disagrees with II0norm2 < 1e-8")
        rel = np.abs(num["Hnorm2"] - num["r"]) / np.abs(num["r"])
        worst = float(np.max(rel))
        _require(worst <= 1e-8, f"|Hnorm2 - r|/r = {worst:.2e}")
        return [err_digits(worst)]

    return check


def _scan_job(kind, params, m, grid, immersion, out):
    rows = scan_rows(kind, grid, m)
    return Job(f"scan {kind} {fmt_params(params)} grid {grid}",
               ["scan", "--surface", kind, "--params", fmt_params(params), "--grid", str(grid), "--out", out],
               rows, check=_check_scan(kind, params, m, rows, immersion), out_path=out)


def scan_jobs(rng: random.Random, tmpdir: str):
    """Eight scans of about 3k points each (0.1-0.3 s): short enough for
    every job to run many times in one measured window."""
    A1, A2 = (tuple(round(rng.uniform(-0.4, 0.4), 6) for _ in range(3)) for _ in range(2))
    r1, r2 = (round(rng.uniform(0.5, 2.0), 6) for _ in range(2))
    specs = [
        ("ellipsoid", {"A": A1}, 3, 16, True),
        ("ellipsoid", {"A": A2}, 3, 16, True),
        ("whitney", {"n": 1}, 2, 14, True),
        ("whitney", {"n": 2}, 3, 16, True),
        ("sphere", {"r": r1, "n": 1}, 2, 14, True),
        ("sphere", {"r": r2, "n": 2}, 3, 16, True),
        ("reinhardt", {"n": 1}, 2, 14, False),
        ("reinhardt", {"n": 2}, 3, 16, False),
    ]
    return [_scan_job(*spec, os.path.join(tmpdir, f"scan-{i}.csv")) for i, spec in enumerate(specs)]


def scan_split_job(seed: int, tmpdir: str) -> Job:
    """The ellipsoid grid-40 scan (59k points) whose stage split the traced
    run compares with the ROADMAP profile; not part of the timed round."""
    rng = random.Random(f"scan-split:{seed}")
    A = tuple(round(rng.uniform(-0.4, 0.4), 6) for _ in range(3))
    return _scan_job("ellipsoid", {"A": A}, 3, 40, True, os.path.join(tmpdir, "scan-split.csv"))


# ---- pointwise -----------------------------------------------------------------------


def _fmt_point(z, complex_literals: bool) -> str:
    if complex_literals:
        return ",".join(f"{c.real:.17g}{c.imag:+.17g}i" for c in z)
    return ",".join(f"{x:.17g}" for c in z for x in (c.real, c.imag))


def _check_analyze(kind, params, p_in, immersion):
    def check(outcome):
        rec = json.loads(outcome.stdout)["records"][0]
        p = np.array([_num(c) for c in rec["point"]])
        off = float(abs(rho_value(kind, params, p)))
        _require(off <= 1e-10, f"projected point off the surface by {off:.2e}")
        _require(np.max(np.abs(p - p_in)) <= 1e-2, "projection moved the point too far")
        h = np.array([[_num(c) for c in row] for row in rec["h"]])
        _require(np.max(np.abs(h - h.conj().T)) <= 1e-9 * (1 + np.max(np.abs(h))), "Levi matrix not Hermitian")
        _require(np.min(np.linalg.eigvalsh(0.5 * (h + h.conj().T))) > 0, "Levi matrix not positive")
        r, R, J = _num(rec["r"]), _num(rec["scalarR"]), _num(rec["J"])
        _require(all(math.isfinite(x) for x in (r, R, J)), "non-finite scalar")
        if immersion:
            res = rec["gauss_residuals"]
            _require(_num(res["mean_curvature_vs_r"]) <= 1e-8, "|H|^2 != r")
            _require(_num(res["traced_two_route"]) <= 1e-7, "traced Gauss identity fails")
        if kind != "sphere":
            return []
        radius, n = params["r"], params["n"]
        exact_r, exact_R = 1.0 / radius ** 2, n * (n + 1) / radius ** 2
        _require(abs(r - exact_r) <= 1e-9 * exact_r, f"r {r} vs 1/r^2")
        _require(abs(R - exact_R) <= 1e-9 * exact_R, f"scalarR {R} vs n(n+1)/r^2")
        return [digits(r, exact_r), digits(R, exact_R)]

    return check


def _custom_surface(rng: random.Random, tmpdir: str):
    A = tuple(complex(round(rng.uniform(-0.25, 0.25), 6), round(rng.uniform(-0.25, 0.25), 6)) for _ in range(2))
    quad = " + ".join(f"({a.real!r}{a.imag:+.6f}i)*z{j + 1}^2" for j, a in enumerate(A))
    path = os.path.join(tmpdir, "custom.surface")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"rho = abs2(z1) + abs2(z2) + re({quad}) - 1\n"
                 "dim = 2\n"
                 "F = [z1, z2]\n"
                 f"psi = re({quad}) - 1\n")
    return path, A


def _surface_kinds(rng, tmpdir):
    """(label, kind, m, immersion, sampler); sampler(rng) gives the argv
    surface arguments, the parameters of the closed-form rho and a point."""
    custom_path, custom_A = _custom_surface(rng, tmpdir)
    kinds = []
    for n in (1, 2):
        def sphere(rng, n=n):
            r = round(rng.uniform(0.5, 2.0), 6)
            return ["--surface", "sphere", "--params", fmt_params({"r": r, "n": n})], {"r": r, "n": n}, \
                r * unit_complex(rng, n + 1)
        kinds.append((f"sphere n={n}", "sphere", n + 1, True, sphere))

    def ellipsoid(rng):
        A = tuple(round(rng.uniform(-0.4, 0.4), 6) for _ in range(3))
        return ["--surface", "ellipsoid", "--params", fmt_params({"A": A})], {"A": A}, \
            quadric_point(unit_complex(rng, 3), A)
    kinds.append(("ellipsoid", "ellipsoid", 3, True, ellipsoid))
    for n in (1, 2):
        def whitney(rng, n=n):
            return ["--surface", "whitney", "--params", f"n={n}"], {"n": n}, whitney_point(unit_complex(rng, n + 1))
        kinds.append((f"whitney n={n}", "whitney", n + 1, True, whitney))
    for n in (1, 2):
        def reinhardt(rng, n=n):
            return ["--surface", "reinhardt", "--params", f"n={n}"], {"n": n}, reinhardt_point(rng, n + 1)
        kinds.append((f"reinhardt n={n}", "reinhardt", n + 1, False, reinhardt))

    def custom(rng):
        return ["--surface-file", custom_path], {"A": custom_A}, quadric_point(unit_complex(rng, 2), custom_A)
    kinds.append(("custom file", "custom", 2, True, custom))
    return kinds


def _malformed(rng: random.Random, cls: str, tmpdir: str):
    """(argv, expected exit code) for one malformed request of class ``cls``."""
    p = _fmt_point(unit_complex(rng, 2), False)
    if cls == "unknown_surface":
        return ["analyze", "--surface", rng.choice(("torus", "Sphere", "ellipse")), "--point=" + p], 2
    if cls == "bad_params":
        return ["analyze", "--surface", "sphere", "--params", f"r={-rng.uniform(0.1, 2):.6f},n=1", "--point=" + p], 2
    if cls == "point_arity":
        return ["analyze", "--surface", "sphere", "--params", "r=1,n=1", "--point=0.6+0.1i,0.5,0.6"], 2
    if cls == "bad_surface_file":
        path = os.path.join(tmpdir, "broken.surface")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("rho = abs2(z1) + * abs2(z2) - 1\ndim = 2\n")
        return ["analyze", "--surface-file", path, "--point=" + p], 2
    if cls == "off_surface":
        return ["analyze", "--surface", "sphere", "--params", "r=1,n=1", "--point=0,0"], 3
    if cls == "non_numeric_real":
        tokens = p.split(",")
        tokens[rng.randrange(4)] = rng.choice(("x", "1..2", "q7", "0x1F", "--1"))
        return ["analyze", "--surface", "sphere", "--params", "r=1,n=1", "--point=" + ",".join(tokens)], 2
    raise ValueError(cls)


MALFORMED_CLASSES = ("unknown_surface", "bad_params", "point_arity", "bad_surface_file", "off_surface",
                     "non_numeric_real")


def pointwise_jobs(rng: random.Random, tmpdir: str):
    kinds = _surface_kinds(rng, tmpdir)
    wellformed = POINTWISE_REQUESTS - POINTWISE_MALFORMED
    jobs = []
    for i in range(wellformed):
        label, kind, m, immersion, sample = kinds[i % len(kinds)]
        prefix, params, z = sample(rng)
        # off the surface by ~1e-4 so the projection step does work
        z_in = z * (1.0 + rng.uniform(-1e-4, 1e-4)) + 1e-5 * unit_complex(rng, m)
        argv = ["analyze"] + prefix + ["--point=" + _fmt_point(z_in, rng.random() < 0.5)]
        jobs.append(Job(f"analyze {label}", argv, 1, check=_check_analyze(kind, params, z_in, immersion)))
    for i in range(POINTWISE_MALFORMED):
        cls = MALFORMED_CLASSES[i % len(MALFORMED_CLASSES)]
        argv, code = _malformed(rng, cls, tmpdir)
        jobs.append(Job(f"malformed {cls}", argv, 0, expect=code))
    rng.shuffle(jobs)
    return jobs


# ---- check suites (part of the quadrature round) -----------------------------------------

_CHECK_LINE = re.compile(r"^\[(?P<label>.*)\] (?P<status>PASS|FAIL) (?P<name>\S+): "
                         r"residual (?P<res>\S+) \(threshold (?P<thr>\S+)\)$")


def _check_suites():
    def check(outcome):
        lines = outcome.stdout.splitlines()
        _require(lines and lines[-1] in ("ALL CHECKS PASSED", "CHECK FAILURES PRESENT"), "missing verdict line")
        results = []
        for line in lines[:-1]:
            m = _CHECK_LINE.match(line)
            _require(m is not None, f"unparseable check line {line!r}")
            res, thr = float(m["res"]), float(m["thr"])
            passed = m["status"] == "PASS"
            if m["name"] not in FLOOR_CHECKS:
                # printed values are rounded: flag only a clear contradiction
                _require(not (passed and res > 1.001 * thr) and not (not passed and res < 0.999 * thr),
                         f"{m['name']} status contradicts its residual")
            results.append((m["name"], res, thr, passed))
        all_pass = all(p for *_, p in results)
        _require(all_pass == (lines[-1] == "ALL CHECKS PASSED"), "verdict contradicts the check lines")
        return [residual_digits(res, thr) for name, res, thr, passed in results
                if passed and name not in FLOOR_CHECKS and not is_oracle_check(name)]

    return check


# sample points each suite evaluates at this commit (checks.run_suites):
# symbolic 50, hypersurface 100, immersion 50 (immersions only), spectral 50,
# and for star-shaped surfaces the quadrature suite's grid rules
# (resolutions 4, 8, reference 16 and the volume at 8; full + half grid
# each) plus 4000 Monte-Carlo samples.
def _suite_points(immersion: bool, star_shaped: bool) -> int:
    pts = 50 + 100 + 50 + (50 if immersion else 0)
    if star_shaped:
        pts += sum(grid_rule_nodes(r, 4) for r in (4, 8, 16, 8)) + 4000
    return pts


def check_jobs(seed: int):
    surfaces = [
        ("reinhardt", "n=1", False, False),
        ("sphere", "r=1,n=1", True, True),
        ("whitney", "n=1", True, True),
        ("reinhardt", "n=2", False, False),
    ]
    return [
        Job(f"check {name} {params}", ["check", "--surface", name, "--params", params, "--seed", str(seed)],
            _suite_points(imm, star), check=_check_suites())
        for name, params, imm, star in surfaces
    ]


def build(name: str, seed: int, tmpdir: str) -> list:
    """The job list of one round of workload ``name`` for ``seed``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{name}:{seed}")
    if name == "quadrature":
        return quadrature_jobs(rng) + check_jobs(seed)
    if name == "scan":
        return scan_jobs(rng, tmpdir)
    return pointwise_jobs(rng, tmpdir)


WARMUP_ARGV = {
    "quadrature": ["bound", "--surface", "sphere", "--params", "r=1.0,n=1", "--quad", "mc:100:0"],
    "scan": ["scan", "--surface", "ellipsoid", "--params", "A=(0.1,0.2,-0.1)", "--grid", "8", "--out"],
    "pointwise": ["analyze", "--surface", "sphere", "--params", "r=1.0,n=1", "--point=0.6,0,0.8,0"],
}


def warmup_job(name: str, tmpdir: str) -> Job:
    """The untimed op a worker runs once to finish its set-up.  It is the
    same for every seed, so set-up time does not depend on the inputs."""
    argv = list(WARMUP_ARGV[name])
    out = None
    if argv[-1] == "--out":
        out = os.path.join(tmpdir, "warmup.csv")
        argv.append(out)
    return Job(f"warm-up {name}", argv, 0, out_path=out)


def read_outputs(job: Job) -> dict:
    if job.out_path is None:
        return {}
    with open(job.out_path, "r", encoding="utf-8", newline="") as fh:
        return {job.out_path: fh.read()}


def run_cli(main, job: Job) -> Outcome:
    """Run one CLI op in-process, capturing its streams and exit code."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(job.argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # noqa: BLE001 - any escape from main is a traceback
        error = f"{type(exc).__name__}: {exc}"
    return Outcome(code, out.getvalue(), err.getvalue(), error)
