"""Timing spans around the library's public functions, from outside ``src/``.

A :class:`Tracer` replaces each traced name in the module that binds it for
its caller (``specsense.harness.realize_links``, not
``specsense.propagation.realize_links``), records one span per call and
restores the original names on exit. Spans hold name, start, end and parent
index and stay in memory until :meth:`Tracer.write` dumps them.

A span's self time is its duration minus the durations of its child spans;
the name's first component is its layer.
"""

import contextlib
import json
import os
import zlib
from time import perf_counter

from specsense import baselines, diffusion, harness, scheduler

LAYERS = ("model", "propagation", "scheduler", "diffusion", "baselines",
          "metrics", "harness")
SCHEMES = baselines.SCHEME_IDS
EXACT_SIZES = (8, 12, 16, 20)

# Every per-layer metric a traced run reports, in report order: (name, unit).
PER_LAYER = (
    [("diffusion.run_diffusion.scheme.s", "s"),
     ("diffusion.run_diffusion.calib.s", "s"),
     ("diffusion.run_diffusion.calls", "count"),
     ("diffusion.run_diffusion.calls_per_item", "count/item"),
     ("diffusion.run_diffusion.calib_calls", "count"),
     ("diffusion.dense_pair_iters", "count"),
     ("diffusion.edge_pair_iters", "count"),
     ("diffusion.edge_useful_ratio", "ratio"),
     ("diffusion.calibration.structures", "count"),
     ("diffusion.calibration.used_ratio", "ratio"),
     ("propagation.realize_links.s", "s"),
     ("propagation.generate_measurements.s", "s"),
     ("propagation.compute_ground_truth.s", "s"),
     ("propagation.generate_reference_powers.s", "s"),
     ("propagation.links.count", "count"),
     ("propagation.frame.bytes", "bytes"),
     ("propagation.fade_gains.bytes", "bytes"),
     ("scheduler.heuristic_assign.s", "s"),
     ("scheduler.heuristic_assign.calls", "count")]
    + [(f"scheduler.solve_exact.k{k}.s", "s") for k in EXACT_SIZES]
    + [("scheduler.benchmark_gap.self_s", "s")]
    + [(f"baselines.run_scheme.{s}.{m}", u) for s in SCHEMES
       for m, u in (("self_s", "s"), ("calls", "count"))]
    + [("metrics.schedule_devices.s", "s"),
       ("metrics.schedule_devices.calls", "count"),
       ("metrics.attach_useful_ratio", "ratio"),
       ("metrics.decision_metrics.s", "s"),
       ("harness.run_realization.self_s", "s"),
       ("harness.calibrate_campaign.self_s", "s"),
       ("harness.run_campaign.self_s", "s"),
       ("harness.write_results_csv.s", "s"),
       ("harness.results_csv.bytes", "bytes"),
       ("model.generate_scenario.s", "s")]
    + [(f"layer.{layer}.self_s", "s") for layer in LAYERS]
    + [("trace.overhead_s", "s"),
       ("trace.unattributed_frac", "ratio"),
       ("trace.spans", "count")]
)

# Work counts derived from the traced calls' inputs and outputs rather than
# timed; the record labels them "computed".
COMPUTED = {"diffusion.dense_pair_iters", "diffusion.edge_pair_iters",
            "diffusion.edge_useful_ratio", "propagation.links.count",
            "propagation.frame.bytes", "propagation.fade_gains.bytes",
            "harness.results_csv.bytes"}


@contextlib.contextmanager
def patched(module, name, make_wrapper):
    """Bind ``module.name`` to ``make_wrapper(original)`` for the block."""
    original = getattr(module, name)
    setattr(module, name, make_wrapper(original))
    try:
        yield
    finally:
        setattr(module, name, original)


class Tracer:
    """In-memory span recorder plus the counters measured at the same calls."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent]
        self._open = []
        self.counters = {}
        self._lams = {}          # id(threshold array) -> calibration structure
        self._used = set()
        self._device_inputs = set()

    # -- spans --------------------------------------------------------------

    def begin(self, name):
        parent = self._open[-1] if self._open else None
        self.spans.append([name, perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index):
        self.spans[index][2] = perf_counter()
        self._open.pop()

    def _add(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _max(self, key, value):
        self.counters[key] = max(self.counters.get(key, 0), value)

    def _wrap(self, name, after=None):
        """Wrapper factory: span named ``name`` (str or f(args) -> str)."""
        def make(fn):
            def traced(*args, **kwargs):
                label = name(*args, **kwargs) if callable(name) else name
                index = self.begin(label)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.end(index)
                if after is not None:
                    after(out, *args, **kwargs)
                return out
            return traced
        return make

    # -- counters measured at the traced calls ------------------------------

    def _diffusion_work(self, _out, measurements, sensing_mask,
                        reference_powers, adjacency, params, *_a, **_k):
        k_count, m_count, _ = measurements.shape
        iters = params.iterations
        self._add("dense_pair_iters", k_count * k_count * m_count * iters)
        self._add("edge_pair_iters", int(adjacency.sum()) * m_count * iters)

    def _links(self, links, *_a, **_k):
        self._add("links", int(links.inc_gain_db.size))
        self._max("fade_bytes", sum(g.nbytes for _, g in links.inc_fade))

    def _frame(self, frame, *_a, **_k):
        self._max("frame_bytes", frame.y.nbytes)

    def _scenario(self, scenario, *_a, **_k):
        adjacency = scenario.topology.adjacency
        self.counters["graph_density"] = adjacency.sum() / adjacency.size

    def _calibrated(self, lams, *_a, **_k):
        self._add("structures", len(lams))
        self._lams.update((id(v), name) for name, v in lams.items())

    def _decided(self, _out, _w, thresholds):
        if id(thresholds) in self._lams:
            self._used.add(self._lams[id(thresholds)])

    def _devices(self, _out, _dm, _truth, devices, sap_positions, *_a, **_k):
        self._device_inputs.add((zlib.crc32(devices.tobytes()),
                                 zlib.crc32(sap_positions.tobytes())))

    def _csv_written(self, _out, _rows, path):
        self._add("csv_bytes", os.path.getsize(path))

    def installed(self):
        """Context manager that traces every layer boundary of the library."""
        w = self._wrap
        scheme_span = w(lambda name, **_: f"baselines.run_scheme.{name}")
        exact_span = w(lambda cost, *_a, **_k:
                       f"scheduler.solve_exact.k{cost.shape[0]}")
        decision = w("metrics.decision_metrics")
        bindings = [
            (harness, "generate_scenario",
             w("model.generate_scenario", self._scenario)),
            (harness, "run_campaign", w("harness.run_campaign")),
            (harness, "representative_assignment",
             w("harness.representative_assignment")),
            (harness, "calibrate_campaign",
             w("harness.calibrate_campaign", self._calibrated)),
            (harness, "run_realization", w("harness.run_realization")),
            (harness, "realize_links", w("propagation.realize_links",
                                         self._links)),
            (harness, "generate_measurements",
             w("propagation.generate_measurements", self._frame)),
            (harness, "compute_ground_truth",
             w("propagation.compute_ground_truth")),
            (harness, "generate_reference_powers",
             w("propagation.generate_reference_powers")),
            (harness, "heuristic_assign", w("scheduler.heuristic_assign")),
            (harness, "run_scheme", scheme_span),
            (harness, "utilization_ratio", decision),
            (harness, "misdetection_probability", decision),
            (harness, "correct_decision_pct", decision),
            (harness, "schedule_devices",
             w("metrics.schedule_devices", self._devices)),
            (harness, "write_results_csv",
             w("harness.write_results_csv", self._csv_written)),
            (baselines, "run_diffusion", w("diffusion.run_diffusion.scheme",
                                           self._diffusion_work)),
            (baselines, "decide", w("diffusion.decide", self._decided)),
            (diffusion, "run_diffusion", w("diffusion.run_diffusion.calib",
                                           self._diffusion_work)),
            (scheduler, "benchmark_gap", w("scheduler.benchmark_gap")),
            (scheduler, "heuristic_assign", w("scheduler.heuristic_assign")),
            (scheduler, "solve_exact", exact_span),
        ]
        stack = contextlib.ExitStack()
        for module, name, make in bindings:
            stack.enter_context(patched(module, name, make))
        return stack

    # -- reduction ----------------------------------------------------------

    def self_times(self):
        """(name, self seconds) per span, in record order."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [(s[0], s[2] - s[1] - c) for s, c in zip(self.spans, child)]

    def layer_metrics(self, items, traced_wall_s, untraced_wall_s):
        """Every PER_LAYER metric from the recorded spans and counters.

        ``items`` is the number of realizations or gap instances the traced
        pass completed. Time of the traced pass that no top-level span
        covers is the unattributed share.
        """
        selfs = {}
        calls = {}
        for name, t in self.self_times():
            selfs[name] = selfs.get(name, 0.0) + t
            calls[name] = calls.get(name, 0) + 1

        def s(name):
            return selfs.get(name, 0.0)

        c = self.counters
        scheme_calls = calls.get("diffusion.run_diffusion.scheme", 0)
        dense = c.get("dense_pair_iters", 0)
        structures = c.get("structures", 0)
        sched_calls = calls.get("metrics.schedule_devices", 0)
        covered = sum(end - start for _, start, end, parent in self.spans
                      if parent is None)
        v = {
            "diffusion.run_diffusion.scheme.s":
                s("diffusion.run_diffusion.scheme"),
            "diffusion.run_diffusion.calib.s":
                s("diffusion.run_diffusion.calib"),
            "diffusion.run_diffusion.calls": scheme_calls,
            "diffusion.run_diffusion.calls_per_item":
                scheme_calls / items if items else 0.0,
            "diffusion.run_diffusion.calib_calls":
                calls.get("diffusion.run_diffusion.calib", 0),
            "diffusion.dense_pair_iters": dense,
            "diffusion.edge_pair_iters": c.get("edge_pair_iters", 0),
            "diffusion.edge_useful_ratio": float(c.get("graph_density", 0.0)),
            "diffusion.calibration.structures": structures,
            "diffusion.calibration.used_ratio":
                len(self._used) / structures if structures else 0.0,
            "propagation.links.count": c.get("links", 0),
            "propagation.frame.bytes": c.get("frame_bytes", 0),
            "propagation.fade_gains.bytes": c.get("fade_bytes", 0),
            "scheduler.heuristic_assign.s": s("scheduler.heuristic_assign"),
            "scheduler.heuristic_assign.calls":
                calls.get("scheduler.heuristic_assign", 0),
            "scheduler.benchmark_gap.self_s": s("scheduler.benchmark_gap"),
            "metrics.schedule_devices.s": s("metrics.schedule_devices"),
            "metrics.schedule_devices.calls": sched_calls,
            "metrics.attach_useful_ratio":
                len(self._device_inputs) / sched_calls if sched_calls else 0.0,
            "metrics.decision_metrics.s": s("metrics.decision_metrics"),
            "harness.run_realization.self_s": s("harness.run_realization"),
            "harness.calibrate_campaign.self_s": s("harness.calibrate_campaign"),
            "harness.run_campaign.self_s": s("harness.run_campaign"),
            "harness.write_results_csv.s": s("harness.write_results_csv"),
            "harness.results_csv.bytes": c.get("csv_bytes", 0),
            "model.generate_scenario.s": s("model.generate_scenario"),
            "trace.overhead_s": traced_wall_s - untraced_wall_s,
            "trace.unattributed_frac": 1.0 - covered / traced_wall_s,
            "trace.spans": len(self.spans),
        }
        for stage in ("realize_links", "generate_measurements",
                      "compute_ground_truth", "generate_reference_powers"):
            v[f"propagation.{stage}.s"] = s(f"propagation.{stage}")
        for k in EXACT_SIZES:
            v[f"scheduler.solve_exact.k{k}.s"] = s(f"scheduler.solve_exact.k{k}")
        for scheme in SCHEMES:
            name = f"baselines.run_scheme.{scheme}"
            v[f"{name}.self_s"] = s(name)
            v[f"{name}.calls"] = calls.get(name, 0)
        for layer in LAYERS:
            v[f"layer.{layer}.self_s"] = sum(
                t for name, t in selfs.items() if name.startswith(layer + "."))
        return {name: v[name] for name, _ in PER_LAYER}

    def write(self, path):
        """Dump the spans as JSON: one [name, start, end, parent] per span."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
            fh.write("\n")
