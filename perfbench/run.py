"""crgeo benchmark: drives ``crgeo.cli.main`` in-process on one workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {quadrature,scan,pointwise} \
        --seed N --seconds S --trace {0,1}

Workers run one after another, each a fresh process with BLAS threads pinned
to 1 (see worker.py): SETUP_WORKERS that only set up, one that runs every job
once and checks its output in full, and one that measures with one client in
a closed loop, comparing every output with the checked one.  ``setup_s`` is
the median set-up of all of them.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones, with the tracing overhead.
Human-readable lines come first; the last line of standard output is the
JSON result.  Results, provenance and spans are also written under
perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from jobs import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_WORKERS = 5
DEADLINE_S = 170.0
# tuning and baselines use seeds 1-10; claims are confirmed on this one
HELD_OUT_SEED = 9001

# printed beside the gated metrics of BENCHMARK.json, but not gated there
UNGATED = {"op_tail_ms": ("ms", "lower"), "fail_frac": ("ratio", "lower")}


def fail(message):
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return ({m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]},
            {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]})


def provenance(seed):
    src = os.path.join(ROOT, "src", "crgeo")
    lines, digest = 0, hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                data = fh.read()
            lines += data.count(b"\n")
            digest.update(name.encode() + b"\0" + data)
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "src_crgeo_lines": lines,
        "src_crgeo_sha256": digest.hexdigest(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def git_commit():
    """HEAD of the checkout if it is a git work tree (read, no subprocess)."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable (not a git checkout)"


def spawn(args, role, tmpdir, deadline):
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--role", role, "--tmpdir", tmpdir, "--spawned-at", repr(time.time())]
    if role != "setup":
        cmd += ["--refs", os.path.join(tmpdir, "refs.json")]
    if role == "measure" and args.trace:
        cmd += ["--spans-out", os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{role} worker exceeded the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0 or not out.strip():
        fail(f"{role} worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def summary_lines(workload, res, e2e):
    m = res["metrics"]
    yield (f"workload {workload}: {res['attempted']} ops in {res['rounds']} rounds, {res['busy_s']:.2f} s busy; "
           f"host slowdown {res['slowdown']:.4f} from {res['probes']} probes")
    for name, (unit, better) in e2e.items():
        if name in m:
            raw = f"  raw {res['raw'][name]:.6g}" if name in res["raw"] else ""
            yield f"  {name:16s} {m[name]:14.6g} {unit:9s} ({better} is better){raw}"
    unit, better = UNGATED["op_tail_ms"]
    t = res["op_tail"]
    if t:
        yield (f"  {'op_tail_ms':16s} {t['value_ms']:14.6g} {unit:9s} ({better} is better; "
               f"p{t['percentile']:g} of {t['samples']} ops)")
    else:
        yield f"  {'op_tail_ms':16s} {'n/a':>14s} {unit:9s} (fewer than 10 ops beyond p90 of {res['attempted']})"
    unit, better = UNGATED["fail_frac"]
    classes = ", ".join(f"{k}={v}" for k, v in sorted(res["fail_classes"].items())) or "none"
    yield f"  {'fail_frac':16s} {res['fail_frac']:14.6g} {unit:9s} ({better} is better; by class: {classes})"
    for job in res["failed_jobs"]:
        yield f"    failed: {job}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "crgeo", "cli.py")):
        fail(f"no crgeo sources under {os.path.join(ROOT, 'src')}")
    e2e, layers = declared_metrics()
    os.makedirs(OUT, exist_ok=True)
    tmpdir = os.path.join(OUT, f"tmp-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(tmpdir, exist_ok=True)
    try:
        results = [spawn(args, role, tmpdir, deadline) for role in ["setup"] * SETUP_WORKERS + ["check", "measure"]]
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    res = results[-1]
    setup_runs = [r["setup_s"] for r in results]
    res["metrics"]["setup_s"] = statistics.median(setup_runs)
    res["raw"]["setup_s"] = statistics.median(r["setup_raw_s"] for r in results)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "provenance": dict(provenance(args.seed), **res.pop("env")),
              "setup_runs_s": setup_runs, **res}
    for line in summary_lines(args.workload, res, e2e):
        print(line)
    if args.trace:
        values = res["per_layer"]
        declared = layers
        print(f"  tracing overhead {values['trace.overhead_frac']:+.1%} (traced vs untraced rounds)")
        split = res.get("scan_split")
        if split:
            print(f"  {split['job']}, inclusive stage time (output check: {split['failure'] or 'ok'})")
            print("    stage      this run            ROADMAP")
            for stage, v in split["stages"].items():
                print(f"    {stage:8s} {v['seconds']:8.3f} s {v['share']:7.1%}    "
                      f"{v['roadmap_seconds']:6.2f} s {v['roadmap_share']:7.1%}")
    else:
        values = res["metrics"]
        declared = e2e
    missing = set(declared) - set(values)
    if missing:
        fail(f"metrics not measured: {sorted(missing)}")
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, (unit, _) in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
