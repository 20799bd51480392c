"""One benchmark worker process.

Every worker imports crgeo, builds the workload's jobs from the seed and
runs one untimed warm-up op (``jobs.warmup_job``, the same for every seed);
its set-up time runs from the moment the parent spawned it (``--spawned-at``,
wall clock) to the end of that op.  Then, by role:

  setup    nothing more
  check    run every job once, check each output in full and write the
           fingerprint, failure class and digits of each to ``--refs``
  measure  replay the rounds in a closed loop with one client until the time
           is up, comparing every output with the checked one

Started by run.py with BLAS threads pinned to 1.  The worker prints one JSON
object as the last line of its standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import sys
import time
import warnings

import numpy as np

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
MIN_ROUNDS = 2

# Host-speed probe.  The host the benchmark was built on switches between a
# fast and a slow state, in a mix that drifts over minutes by up to 2x, so
# raw times of whole runs spread by up to 0.37 (IQR over median).  After
# every untraced op the worker times a fixed probe for about PROBE_SHARE of
# the op's latency (at least once); the probes' mean time over PROBE_REF_S
# is the run's slowdown, and the gated timing metrics are divided by it.
# The probe shares no code with crgeo, so a change to the program moves the
# metrics and not the probe.
PROBE_SHARE = 0.02
PROBE_REF_S = 4e-4
SETUP_PROBES = 30


def nearest_rank(sorted_vals, pct):
    return sorted_vals[max(0, math.ceil(pct / 100.0 * len(sorted_vals)) - 1)]


def tail(latencies):
    """Highest percentile with at least ten samples beyond it, or None."""
    vals = sorted(latencies)
    for pct in TAIL_PERCENTILES:
        if len(vals) * (1 - pct / 100.0) >= 10:
            return {"percentile": pct, "value_ms": 1e3 * nearest_rank(vals, pct), "samples": len(vals)}
    return None


def _import_program(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import crgeo
    import crgeo.cli

    where = os.path.realpath(crgeo.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"crgeo imported from {where}, not from {src}")
    return crgeo.cli


def blas_info():
    import numpy as np

    info = {"numpy": np.__version__}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (AttributeError, KeyError, TypeError):
        info["blas"] = "unknown"
    info["thread_env"] = {k: os.environ.get(k) for k in
                          ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return info


_PROBE_Z = (np.arange(512, dtype=float) % 7 - 3.0).reshape(64, 8) * (1 + 0.5j)


def probe():
    """Seconds of a fixed mix of interpreter and small-array NumPy work,
    about 0.4 ms, like the program's own mix."""
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(40):
        acc += float(np.abs(_PROBE_Z * (1 + k)).sum()) + sum(i * 0.5 for i in range(40))
    return time.perf_counter() - t0


def probes_after(dt):
    out = [probe()]
    while sum(out) < PROBE_SHARE * dt:
        out.append(probe())
    return out


def slowdown(probes):
    return statistics.mean(probes) / PROBE_REF_S


def check_round(jobs_mod, cli, jobs):
    """Run every job once and check its output in full: (fingerprint,
    failure class, digits) per job.  Runs in its own worker, so the checks'
    memory does not count in the measuring worker's peak RSS."""
    refs = []
    for job in jobs:
        outcome = run_op(jobs_mod, cli, job)[1]
        cls, digits = jobs_mod.classify(job, outcome)
        refs.append((jobs_mod.fingerprint(outcome), cls, digits))
    return refs


def run_op(jobs_mod, cli, job):
    t0 = time.perf_counter()
    outcome = jobs_mod.run_cli(cli.main, job)
    dt = time.perf_counter() - t0
    if outcome.code == 0 and job.out_path:
        outcome.files = jobs_mod.read_outputs(job)
    return dt, outcome


def measure(jobs_mod, cli, jobs, refs, seconds, rec):
    """Replay whole rounds until the next one would end after ``seconds``.
    Each op's output must repeat the checked one byte for byte; with a
    recorder, every second round is traced."""
    rounds = []  # (traced, busy seconds, [(job index, latency, code, error, class)])
    op_labels = []
    probes = []
    t_start = time.perf_counter()
    while True:
        traced = rec is not None and len(rounds) % 2 == 1
        ops = []
        with rec.installed() if traced else contextlib.nullcontext():
            for i, job in enumerate(jobs):
                if traced:
                    rec.op_id = len(op_labels)
                    op_labels.append(job.label)
                dt, outcome = run_op(jobs_mod, cli, job)
                fp, cls, _ = refs[i]
                if jobs_mod.fingerprint(outcome) != fp:
                    cls = "not_repeatable"
                ops.append((i, dt, outcome.code, outcome.error is not None, cls))
                if not traced:
                    probes.extend(probes_after(dt))
        rounds.append((traced, sum(o[1] for o in ops), ops))
        elapsed = time.perf_counter() - t_start
        if len(rounds) >= MIN_ROUNDS and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    return rounds, probes, op_labels, time.perf_counter() - t_start


def end_to_end(jobs, refs, rounds, probes):
    """Metrics of the untraced rounds.  The timed window is the sum of the op
    latencies, so the fingerprint comparison and the probes between ops are
    not in it.  Gated timings are divided by the run's slowdown; the raw
    values are kept beside them."""
    ops = [o for traced, _, r in rounds if not traced for o in r]
    lat = [o[1] for o in ops]
    busy = sum(lat)
    slow = slowdown(probes)
    raw = {
        "ops_per_s": len(ops) / busy,
        "points_per_s": sum(jobs[o[0]].points for o in ops) / busy,
        "op_p50_ms": 1e3 * statistics.median(lat),
    }
    failed = [cls for *_, cls in ops if cls is not None]
    classes = {}
    for cls in failed:
        key = cls.split(":")[0]
        classes[key] = classes.get(key, 0) + 1
    digits = [d for _, _, ds in refs for d in ds]
    wrong = [cls for cls in failed if cls.startswith(("wrong_output", "not_repeatable"))]
    failed_jobs = sorted({f"{jobs[i].label}: {cls}" for i, *_, cls in ops if cls is not None})
    return {
        "attempted": len(ops),
        "failed": len(failed),
        "correct": not wrong,
        "metrics": {
            "ops_per_s": raw["ops_per_s"] * slow,
            "points_per_s": raw["points_per_s"] * slow,
            "op_p50_ms": raw["op_p50_ms"] / slow,
            "accuracy_digits": min(digits) if digits else 0.0,
        },
        "raw": raw,
        "slowdown": slow,
        "probes": len(probes),
        "op_tail": tail(lat),
        "fail_frac": len(failed) / len(ops),
        "fail_classes": classes,
        "failed_jobs": failed_jobs,
        "rounds": sum(1 for traced, *_ in rounds if not traced),
        "busy_s": busy,
        "round_s": [wall for traced, wall, _ in rounds if not traced],
        "latency_s": [[o[1] for o in r] for traced, _, r in rounds if not traced],
    }


def mean_round_s(rounds, traced):
    return statistics.mean(wall for t, wall, _ in rounds if t == traced)


def per_layer(spans_mod, rec, rounds):
    traced = [r for r in rounds if r[0]]
    n = len(traced)
    totals = rec.layer_totals()
    out = {}
    for metric in spans_mod.SELF_TIME_METRIC.values():
        out[metric] = totals.get(metric, 0.0) / n
    counts = dict(rec.counts)
    for _, _, ops in traced:
        for _, _, code, error, _ in ops:
            key = "cli.traceback" if error else {2: "cli.exit2", 3: "cli.exit3"}.get(code)
            if key:
                counts[key] = counts.get(key, 0) + 1
    for metric in spans_mod.COUNT_METRICS:
        out[metric] = counts.get(metric, 0) / n
    out.update(spans_mod.ratios(counts))
    out["trace.overhead_frac"] = mean_round_s(rounds, True) / mean_round_s(rounds, False) - 1.0
    out["trace.spans"] = len(rec.name) / n
    return out


def scan_split(spans_mod, jobs_mod, cli, job, repeats=3):
    """Inclusive stage times of ``job``, the median of ``repeats`` traced
    runs, beside the ROADMAP profile of the same scan; and the failure class
    of its output."""
    runs = []
    for _ in range(repeats):
        rec = spans_mod.Recorder()
        with rec.installed():
            rec.op_id = 0
            outcome = run_op(jobs_mod, cli, job)[1]
        runs.append(rec.inclusive_by_op([0]))
    cls, _ = jobs_mod.classify(job, outcome)
    stages = {stage: statistics.median(inc.get(span, 0.0) for inc in runs)
              for stage, span, _ in spans_mod.SCAN_SPLIT_STAGES}
    ref = {stage: ref for stage, _, ref in spans_mod.SCAN_SPLIT_STAGES}
    tot, ref_tot = sum(stages.values()), sum(ref.values())
    return {
        "job": f"{job.label}, median of {repeats} traced runs",
        "failure": cls,
        "stages": {
            stage: {"seconds": stages[stage], "share": stages[stage] / tot, "roadmap_seconds": ref[stage],
                    "roadmap_share": ref[stage] / ref_tot}
            for stage in stages
        },
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--role", choices=("setup", "check", "measure"), required=True)
    ap.add_argument("--tmpdir", required=True)
    ap.add_argument("--refs", help="file the check worker writes and the measuring worker reads")
    ap.add_argument("--spans-out")
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args(argv)

    # a fresh CLI process shows every warning once; replaying ops in one
    # process must show them every time for outputs to repeat
    warnings.simplefilter("always")
    cli = _import_program(args.root)
    import jobs as jobs_mod
    import spans as spans_mod

    jobs = jobs_mod.build(args.workload, args.seed, args.tmpdir)
    warmup = jobs_mod.warmup_job(args.workload, args.tmpdir)
    code = run_op(jobs_mod, cli, warmup)[1].code
    setup_s = time.time() - args.spawned_at
    if code != 0:
        raise SystemExit(f"warm-up op {warmup.argv} exited {code}")
    slow = slowdown([probe() for _ in range(SETUP_PROBES)])
    result = {"setup_s": setup_s / slow, "setup_raw_s": setup_s}
    if args.role == "check":
        with open(args.refs, "w", encoding="utf-8") as fh:
            json.dump(check_round(jobs_mod, cli, jobs), fh)
    elif args.role == "measure":
        with open(args.refs, encoding="utf-8") as fh:
            refs = json.load(fh)
        rec = spans_mod.Recorder() if args.trace else None
        rounds, probes, op_labels, wall = measure(jobs_mod, cli, jobs, refs, args.seconds, rec)
        result.update(end_to_end(jobs, refs, rounds, probes))
        result["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["wall_s"] = wall
        result["env"] = blas_info()
        result["jobs"] = [job.label for job in jobs] if len(jobs) <= 16 else f"{len(jobs)} requests"
        if rec is not None:
            result["per_layer"] = per_layer(spans_mod, rec, rounds)
            if args.spans_out:
                rec.write(args.spans_out, op_labels)
            if args.workload == "scan":
                result["scan_split"] = scan_split(spans_mod, jobs_mod, cli,
                                                  jobs_mod.scan_split_job(args.seed, args.tmpdir))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
