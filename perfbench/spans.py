"""In-memory span recorder for the traced benchmark run.

The traced run wraps the entry points of crgeo's modules from outside: each
function or method listed in ``ENTRY_POINTS`` is replaced, in every crgeo
module namespace that binds it, by a wrapper that records a span (name,
start, end, parent span, op id) and the counters attached to it.  Nothing
under ``src/`` changes, and ``Recorder.installed()`` restores every binding
on exit.

A layer's self time is its span's duration minus the part of that interval
its child spans cover, so the self times of one op add up to the op's traced
wall time and no stage is counted twice.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from collections import Counter

import numpy as np

from jobs import grid_rule_nodes

# (span name, module, attribute, outermost only).  "Outermost only" spans
# skip nested calls of the same span name: recursion in ``differentiate`` and
# ``parse_expr`` called from ``parse_surface_file`` are one span each.
ENTRY_POINTS = (
    ("symbolic.differentiate", "crgeo.symbolic", "differentiate", True),
    ("symbolic.evaluate", "crgeo.symbolic", "evaluate", False),
    ("dsl.parse", "crgeo.dsl", "parse_expr", True),
    ("dsl.parse", "crgeo.dsl", "parse_expr_list", True),
    ("dsl.parse", "crgeo.dsl", "parse_surface_file", True),
    ("gallery.build", "crgeo.gallery", "gallery", True),
    ("gallery.build", "crgeo.gallery", "load_surface", True),
    ("gallery.scan_grid", "crgeo.gallery", "SurfaceSpec.scan_grid", False),
    ("gallery.scan", "crgeo.gallery", "scan_surface", False),
    ("hypersurface.frame", "crgeo.hypersurface", "_frame_batch", False),
    ("hypersurface.transverse", "crgeo.hypersurface", "_transverse_batch", False),
    ("hypersurface.loghess", "crgeo.hypersurface", "_loghess_batch", False),
    ("hypersurface.connection", "crgeo.hypersurface", "_connection_batch", False),
    ("hypersurface.project", "crgeo.hypersurface", "HypersurfaceChart.project", False),
    ("immersion.sff", "crgeo.immersion", "_sff_batch", False),
    ("immersion.normal_basis", "crgeo.immersion", "_normal_basis", False),
    ("quadrature.integrate", "crgeo.quadrature", "integrate", False),
    ("quadrature.radial", "crgeo.quadrature", "_radial_batch", False),
    ("quadrature.volume_form", "crgeo.quadrature", "contact_volume_density", False),
    ("spectral.reilly", "crgeo.spectral", "reilly_bound", False),
    ("spectral.tension", "crgeo.spectral", "tension_bound", False),
    ("spectral.density", "crgeo.spectral", "_xi_batch", True),
    ("spectral.density", "crgeo.spectral", "_boxb_batch", True),
    ("spectral.density", "crgeo.spectral", "_energy_density_batch", True),
    ("report.csv", "crgeo.report", "scan_csv", False),
    ("report.json", "crgeo.report", "Report.to_json", False),
    ("cli", "crgeo.cli", "main", False),
    ("checks.symcore", "crgeo.checks", "symcore_suite", False),
    ("checks.hypersurface_suite", "crgeo.checks", "hypersurface_suite", False),
    ("checks.immersion_suite", "crgeo.checks", "immersion_suite", False),
    ("checks.spectral_suite", "crgeo.checks", "spectral_suite", False),
    ("checks.quadrature_suite", "crgeo.checks", "quadrature_suite", False),
    ("checks.fd", "crgeo.checks", "max_fd_mismatch", True),
    ("checks.fd", "crgeo.checks", "_fd_suite", True),
)

# per-layer time metric fed by the self time of each span name
SELF_TIME_METRIC = {
    "symbolic.differentiate": "symbolic.build_s",
    "symbolic.evaluate": "symbolic.evaluate_s",
    "dsl.parse": "dsl.parse_s",
    "gallery.build": "gallery.build_s",
    "gallery.scan_grid": "gallery.scan_grid_s",
    "gallery.scan": "gallery.scan_s",
    "hypersurface.frame": "hypersurface.frame_s",
    "hypersurface.transverse": "hypersurface.transverse_s",
    "hypersurface.loghess": "hypersurface.loghess_s",
    "hypersurface.connection": "hypersurface.connection_s",
    "hypersurface.project": "hypersurface.project_s",
    "immersion.sff": "immersion.sff_s",
    "immersion.normal_basis": "immersion.normal_basis_s",
    "quadrature.integrate": "quadrature.integrate_s",
    "quadrature.radial": "quadrature.radial_s",
    "quadrature.volume_form": "quadrature.volume_form_s",
    "spectral.reilly": "spectral.reilly_s",
    "spectral.tension": "spectral.tension_s",
    "spectral.density": "spectral.density_s",
    "report.csv": "report.csv_s",
    "report.json": "report.json_s",
    "cli": "cli.self_s",
    "checks.symcore": "checks.symcore_s",
    "checks.hypersurface_suite": "checks.hypersurface_suite_s",
    "checks.immersion_suite": "checks.immersion_suite_s",
    "checks.spectral_suite": "checks.spectral_suite_s",
    "checks.quadrature_suite": "checks.quadrature_suite_s",
    "checks.fd": "checks.fd_s",
}

COUNT_METRICS = (
    "symbolic.derivatives",
    "symbolic.evaluate_calls",
    "hypersurface.rho_evals",
    "hypersurface.project_rho_calls",
    "hypersurface.lstsq_fallbacks",
    "quadrature.integrate_calls",
    "quadrature.rays",
    "report.csv_bytes",
    "cli.exit2",
    "cli.exit3",
    "cli.traceback",
)

# the stages of the scan split table, timed inclusively as a profile would
SCAN_SPLIT_STAGES = (
    ("CSV", "report.csv", 1.7),
    ("radial", "quadrature.radial", 1.15),
    ("SFF", "immersion.sff", 1.2),
    ("frame", "hypersurface.frame", 0.46),
)


def _points(P) -> int:
    shape = np.shape(P)[:-1]
    return int(np.prod(shape)) if shape else 1


class Recorder:
    """Spans and counters of one traced run, kept in memory until written."""

    def __init__(self):
        self.name_ids: dict[str, int] = {}
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.op = []
        self.counts = Counter()
        self.op_id = -1
        self._stack = []
        self._open = Counter()
        self._nodes_seen = set()

    # ---- recording --------------------------------------------------------

    def begin(self, name: str) -> int:
        nid = self.name_ids.setdefault(name, len(self.name_ids))
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self._open[name] += 1
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int, name: str):
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._open[name] -= 1

    def inside(self, name: str) -> bool:
        return self._open[name] > 0

    def _wrap(self, name, fn, outermost):
        after = _AFTER.get(fn.__name__)

        def wrapper(*args, **kwargs):
            if outermost and self._open[name]:
                return fn(*args, **kwargs)
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.finish(idx, name)
            if after is not None:
                after(self, args, out)
            return out

        return wrapper

    # ---- installation -----------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        undo = []
        try:
            for name, modname, attr, outermost in ENTRY_POINTS:
                module = importlib.import_module(modname)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(name, orig, outermost))
                    undo.append((cls, meth, orig))
                    continue
                orig = getattr(module, attr)
                wrapper = self._wrap(name, orig, outermost)
                for mod in _crgeo_modules():
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, orig))
            chart_cls = importlib.import_module("crgeo.hypersurface").HypersurfaceChart
            undo.append((chart_cls, "rho_at", chart_cls.__dict__["rho_at"]))
            chart_cls.rho_at = self._counted_rho_at(chart_cls.__dict__["rho_at"])
            undo.append((np.linalg, "lstsq", np.linalg.lstsq))
            np.linalg.lstsq = self._counted_lstsq(np.linalg.lstsq)
            yield self
        finally:
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)

    def _counted_rho_at(self, fn):
        def rho_at(chart, P):
            k = _points(P)
            self.counts["hypersurface.rho_evals"] += k
            if self.inside("quadrature.radial"):
                self.counts["quadrature.radial_rho_evals"] += k
            if self.inside("hypersurface.project"):
                self.counts["hypersurface.project_rho_calls"] += 1
            return fn(chart, P)

        return rho_at

    def _counted_lstsq(self, fn):
        def lstsq(*args, **kwargs):
            if self.inside("hypersurface.transverse"):
                self.counts["hypersurface.lstsq_fallbacks"] += 1
            return fn(*args, **kwargs)

        return lstsq

    # ---- results ----------------------------------------------------------

    def self_times(self) -> np.ndarray:
        return self_times(self.start, self.end, self.parent)

    def layer_totals(self) -> dict:
        """Summed self time per per-layer time metric."""
        names = {v: k for k, v in self.name_ids.items()}
        st = self.self_times()
        totals = Counter()
        for nid, s in zip(self.name, st):
            metric = SELF_TIME_METRIC.get(names[nid])
            if metric is not None:
                totals[metric] += float(s)
        return dict(totals)

    def inclusive_by_op(self, op_ids) -> Counter:
        """Inclusive (profile cumulative) time per span name over the given
        ops, counting only outermost spans of each name."""
        names = {v: k for k, v in self.name_ids.items()}
        wanted = set(op_ids)
        out = Counter()
        for i, nid in enumerate(self.name):
            if self.op[i] not in wanted:
                continue
            p, nested = self.parent[i], False
            while p >= 0:
                if self.name[p] == nid:
                    nested = True
                    break
                p = self.parent[p]
            if not nested:
                out[names[nid]] += self.end[i] - self.start[i]
        return out

    def write(self, path, op_labels):
        names = sorted(self.name_ids, key=self.name_ids.get)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": names,
                "ops": op_labels,
                "name": self.name,
                "start": self.start,
                "end": self.end,
                "parent": self.parent,
                "op": self.op,
            }, fh)


def self_times(start, end, parent) -> np.ndarray:
    """Span duration minus the union of the intervals its children cover
    (children clipped to the parent's interval)."""
    n = len(start)
    children = [[] for _ in range(n)]
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = np.empty(n)
    for i in range(n):
        s0, e0 = start[i], end[i]
        covered, cur_s, cur_e = 0.0, None, None
        for c in sorted(children[i], key=lambda c: start[c]):
            s, e = max(start[c], s0), min(end[c], e0)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[i] = (e0 - s0) - covered
    return out


def _crgeo_modules():
    return [m for k, m in list(sys.modules.items()) if m is not None and (k == "crgeo" or k.startswith("crgeo."))]


# ---- counters recorded after a wrapped call returns --------------------------


def _after_differentiate(rec, args, out):
    rec.counts["symbolic.derivatives"] += 1


def _after_evaluate(rec, args, out):
    coords = args[1]
    rec.counts["symbolic.evaluate_calls"] += 1
    rec.counts["symbolic.evaluate_points"] += max((int(np.size(c)) for c in coords), default=1)


def _after_radial(rec, args, out):
    k = int(args[1].shape[0])
    rec.counts["quadrature.rays"] += k
    if rec.inside("quadrature.integrate"):
        rec.counts["quadrature.integrate_rays"] += k


def _after_integrate(rec, args, out):
    rc, _, rule = args[:3]
    rec.counts["quadrature.integrate_calls"] += 1
    key = (rec.op_id, id(rc.chart), rule)
    if key not in rec._nodes_seen:
        rec._nodes_seen.add(key)
        d = 2 * rc.chart.m
        nodes = grid_rule_nodes(rule.resolution, d) if rule.kind == "product-grid" else rule.samples
        rec.counts["quadrature.distinct_nodes"] += nodes


def _after_csv(rec, args, out):
    rec.counts["report.csv_bytes"] += len(out.encode("utf-8"))


_AFTER = {
    "differentiate": _after_differentiate,
    "evaluate": _after_evaluate,
    "_radial_batch": _after_radial,
    "integrate": _after_integrate,
    "scan_csv": _after_csv,
}


def ratios(counts) -> dict:
    def div(a, b):
        return counts.get(a, 0) / counts[b] if counts.get(b) else 0.0

    return {
        "symbolic.points_per_evaluate": div("symbolic.evaluate_points", "symbolic.evaluate_calls"),
        "quadrature.rays_per_node": div("quadrature.integrate_rays", "quadrature.distinct_nodes"),
        "quadrature.rho_evals_per_ray": div("quadrature.radial_rho_evals", "quadrature.rays"),
    }
