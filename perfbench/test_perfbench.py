"""Tests of the benchmark itself: span arithmetic, counter determinism, the
failure classifier and the closed forms the inputs are generated from."""

import importlib.util
import json
import os
import random
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
if importlib.util.find_spec("crgeo") is None:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import crgeo.cli as cli  # noqa: E402
import crgeo.hypersurface as hypersurface  # noqa: E402
import crgeo.symbolic as symbolic  # noqa: E402
from crgeo.gallery import gallery  # noqa: E402

import jobs  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402


def test_self_time_subtracts_union_of_children():
    # 0: [0, 10] with children 1: [1, 3], 2: [2, 5] (overlapping), 3: [8, 12]
    # (clipped to 10); 1 has child 4: [1.5, 2]
    start = [0.0, 1.0, 2.0, 8.0, 1.5]
    end = [10.0, 3.0, 5.0, 12.0, 2.0]
    parent = [-1, 0, 0, 0, 1]
    st = spans.self_times(start, end, parent)
    assert st == pytest.approx([10 - 4 - 2, 2 - 0.5, 3, 4, 0.5])


def test_self_times_add_up_to_the_root_span():
    rec = spans.Recorder()
    outer = rec.begin("cli")
    inner = rec.begin("symbolic.evaluate")
    rec.finish(inner, "symbolic.evaluate")
    rec.finish(outer, "cli")
    assert sum(rec.self_times()) == pytest.approx(rec.end[0] - rec.start[0])
    assert set(rec.layer_totals()) == {"cli.self_s", "symbolic.evaluate_s"}


def test_timings_are_divided_by_the_host_slowdown():
    job = jobs.Job("x", [], points=10)
    # two untraced rounds of one job at 0.1 s and 0.3 s; a traced round is ignored
    rounds = [(False, 0.1, [(0, 0.1, 0, False, None)]), (True, 9.0, [(0, 9.0, 0, False, None)]),
              (False, 0.3, [(0, 0.3, 0, False, None)])]
    refs = [("fp", None, [15.0])]
    at_ref = worker.end_to_end([job], refs, rounds, [worker.PROBE_REF_S] * 4)
    assert at_ref["metrics"]["ops_per_s"] == pytest.approx(2 / 0.4)
    assert at_ref["metrics"]["points_per_s"] == pytest.approx(20 / 0.4)
    assert at_ref["metrics"]["op_p50_ms"] == pytest.approx(200.0)
    twice = worker.end_to_end([job], refs, rounds, [2 * worker.PROBE_REF_S] * 4)
    assert twice["slowdown"] == pytest.approx(2.0)
    assert twice["metrics"]["ops_per_s"] == pytest.approx(2 * at_ref["metrics"]["ops_per_s"])
    assert twice["metrics"]["op_p50_ms"] == pytest.approx(at_ref["metrics"]["op_p50_ms"] / 2)
    assert twice["raw"] == at_ref["raw"]


def _traced_counts(job):
    rec = spans.Recorder()
    with rec.installed():
        rec.op_id = 0
        outcome = jobs.run_cli(cli.main, job)
    assert outcome.code == 0, outcome.stderr
    return rec.counts


@pytest.fixture(scope="module")
def workload_jobs(tmp_path_factory):
    tmp = str(tmp_path_factory.mktemp("bench"))
    return {name: jobs.build(name, 3, tmp) for name in jobs.WORKLOADS}


def test_counts_repeat_exactly_for_a_seed(workload_jobs, tmp_path):
    scan = next(j for j in workload_jobs["scan"] if j.label.startswith("scan reinhardt"))
    mc = next(j for j in workload_jobs["quadrature"] if j.label.endswith("mc:1000"))
    again = jobs.build("quadrature", 3, str(tmp_path))
    assert [j.argv for j in again] == [j.argv for j in workload_jobs["quadrature"]]
    keys = ("quadrature.rays", "hypersurface.rho_evals", "symbolic.evaluate_calls", "report.csv_bytes")
    for job in (scan, mc):
        first, second = _traced_counts(job), _traced_counts(job)
        assert {k: first[k] for k in keys} == {k: second[k] for k in keys}
    assert first["quadrature.rays"] > 0 and first["hypersurface.rho_evals"] > 0


def test_sphere_bound_work_ratios(workload_jobs):
    job = next(j for j in workload_jobs["quadrature"] if j.label.endswith("mc:1000"))
    ratios = spans.ratios(_traced_counts(job))
    # 1 + 2(d-1) = 7 radial solves per node for each of 5 integrals
    assert ratios["quadrature.rays_per_node"] == 35
    assert ratios["quadrature.rho_evals_per_ray"] == 92


def test_tracer_restores_every_binding():
    before = (symbolic.differentiate, cli.main, hypersurface._frame_batch, cli._frame_batch,
              hypersurface.HypersurfaceChart.__dict__["rho_at"], np.linalg.lstsq)
    with spans.Recorder().installed():
        assert cli.main is not before[1]
    after = (symbolic.differentiate, cli.main, hypersurface._frame_batch, cli._frame_batch,
             hypersurface.HypersurfaceChart.__dict__["rho_at"], np.linalg.lstsq)
    assert all(a is b for a, b in zip(before, after))


def test_classifier_flags_the_non_numeric_point_defect(workload_jobs):
    job = next(j for j in workload_jobs["pointwise"] if j.label == "malformed non_numeric_real")
    cls, _ = jobs.classify(job, jobs.run_cli(cli.main, job))
    assert cls == "traceback"


def test_classifier_accepts_clean_errors_and_flags_wrong_numbers(workload_jobs):
    unknown = next(j for j in workload_jobs["pointwise"] if j.label == "malformed unknown_surface")
    assert jobs.classify(unknown, jobs.run_cli(cli.main, unknown)) == (None, [])

    sphere = next(j for j in workload_jobs["pointwise"] if j.label.startswith("analyze sphere"))
    good = jobs.run_cli(cli.main, sphere)
    cls, digits = jobs.classify(sphere, good)
    assert cls is None and min(digits) > 12
    report = json.loads(good.stdout)
    report["records"][0]["r"] = "123.0"
    bad = jobs.Outcome(0, json.dumps(report), good.stderr)
    assert jobs.classify(sphere, bad)[0].startswith("wrong_output")


def test_reference_check_flags_a_wrong_volume(workload_jobs):
    job = next(j for j in workload_jobs["quadrature"] if j.label == "bound whitney grid:16")
    good = jobs.run_cli(cli.main, job)
    assert jobs.classify(job, good) == (None, [])
    report = json.loads(good.stdout)
    report["aggregates"]["volume"] = repr(float(report["aggregates"]["volume"]) * (1 + 1e-4))
    bad = jobs.Outcome(0, json.dumps(report), good.stderr)
    assert jobs.classify(job, bad)[0].startswith("wrong_output")


@pytest.mark.parametrize("kind,params,grid,m", [
    ("ellipsoid", {"A": (0.1, 0.2, 0.3)}, 5, 3),
    ("whitney", {"n": 1}, 8, 2),
    ("whitney", {"n": 2}, 5, 3),
    ("sphere", {"r": 1.5, "n": 1}, 7, 2),
    ("sphere", {"r": 1.5, "n": 2}, 5, 3),
    ("reinhardt", {"n": 1}, 6, 2),
    ("reinhardt", {"n": 2}, 5, 3),
])
def test_scan_rows_follow_the_grid_rule(kind, params, grid, m):
    P, _ = gallery(kind, **params).scan_grid(grid ** 3)
    assert jobs.scan_rows(kind, grid, m) == P.shape[0]


def test_generated_points_lie_on_the_program_surfaces():
    rng = random.Random(0)
    A = (0.3, -0.2, 0.1)
    cases = [
        ("ellipsoid", {"A": A}, gallery("ellipsoid", A=A), jobs.quadric_point(jobs.unit_complex(rng, 3), A)),
        ("whitney", {"n": 2}, gallery("whitney", n=2), jobs.whitney_point(jobs.unit_complex(rng, 3))),
        ("reinhardt", {"n": 1}, gallery("reinhardt", n=1), jobs.reinhardt_point(rng, 2)),
    ]
    for kind, params, surface, z in cases:
        assert abs(jobs.rho_value(kind, params, z)) < 1e-12
        assert abs(surface.chart.rho_at(z[None, :])[0]) < 1e-12
