"""Span tracing for the traced benchmark run.

Spans are recorded around calls into the package's public functions: the
calls the benchmark itself makes, and the names each package module
imports from another (``rotalign.experiments.detect`` and so on).  The
wrappers are installed only in the traced process and removed when it
ends, so the untraced measurement runs the program unmodified.

Spans live in flat in-memory arrays (name, start, end, parent) and are
turned into counts and self times only after the traced phase.  The
process is single-threaded, so spans nest properly and a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import os
from array import array
from time import perf_counter

import numpy as np

ROOT_SPAN = "bench.root"

# Names that one package module imports from another, wrapped where they
# are looked up.  Each entry is (module, attribute, span name); the span's
# layer is the module that defines the callee.
INTERNAL_NAMES = (
    ("rotalign.cli", "run_campaign", "experiments.run_campaign"),
    ("rotalign.experiments", "run_trial", "experiments.run_trial"),
    ("rotalign.experiments", "detect", "registration.detect"),
    ("rotalign.experiments", "total_rotate", "fields.total_rotate"),
    ("rotalign.experiments", "recompose", "fields.recompose"),
    ("rotalign.registration", "decompose", "fields.decompose"),
    ("rotalign.registration", "recompose", "fields.recompose"),
    ("rotalign.registration", "total_rotate", "fields.total_rotate"),
    ("rotalign.registration", "correlate_sampled", "correlation.correlate_sampled"),
    ("rotalign.registration", "correlate_linear", "correlation.correlate_linear"),
    ("rotalign.registration", "second_moment", "correlation.second_moment"),
    ("rotalign.registration", "field_norms", "correlation.field_norms"),
    ("rotalign.registration", "wrap_angle", "multivector.wrap_angle"),
    ("rotalign.correlation", "decompose", "fields.decompose"),
)

# numpy.random.default_rng as experiments uses it: per-trial RNG setup.
# It is numpy's work done on behalf of experiments, so it counts there.
RNG_SPAN = "experiments.rng_setup"

LAYERS = ("bench", "cli", "experiments", "registration", "correlation",
          "fields", "multivector")


class _Proxy:
    """Stands in for a module, overriding some attributes."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Records spans into flat arrays; one instance per traced phase."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.absent = set()      # span names whose wrapped attribute is missing
        self.observed = {}       # span name -> {counter: total}
        self._patches = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def count(self, name: str, counter: str, amount: float) -> None:
        bucket = self.observed.setdefault(name, {})
        bucket[counter] = bucket.get(counter, 0) + amount

    def wrap(self, name: str, fn, observe=None):
        """Return fn wrapped in a span; observe(tracer, args, result) runs after it."""
        self._id(name)

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def patch_internal(self, observers: dict) -> None:
        """Wrap the cross-module names; a missing one is recorded as absent."""
        for module_name, attr, span in INTERNAL_NAMES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.add(span)
                continue
            setattr(module, attr, self.wrap(span, original, observers.get(span)))
            self._patches.append((module, attr, original))
        experiments = importlib.import_module("rotalign.experiments")
        np_used = getattr(experiments, "np", None)
        rng = getattr(getattr(np_used, "random", None), "default_rng", None)
        if rng is None:
            self.absent.add(RNG_SPAN)
            return
        proxy = _Proxy(np_used, random=_Proxy(np_used.random,
                                              default_rng=self.wrap(RNG_SPAN, rng)))
        experiments.np = proxy
        self._patches.append((experiments, "np", np_used))

    def unpatch(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; plus per-layer self time."""
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        own = dur.copy()
        has_parent = parent >= 0
        np.subtract.at(own, parent[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        self_total = np.bincount(ids, weights=own, minlength=k)
        by_name = {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                          "self_s": float(self_total[i])}
                   for i, name in enumerate(self.names)}
        layers = dict.fromkeys(LAYERS, 0.0)
        for name, stats in by_name.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + stats["self_s"]
        roots = dur[~has_parent]
        return {"spans": by_name, "layer_self_s": layers,
                "wall_s": float(roots.sum()), "span_count": int(len(dur))}


# Observers: counts read from arguments and results, outside the span.

def observe_detect(tracer, args, result):
    tracer.count("registration.detect", "iterations", result.iterations)
    if result.status.value == "max_iter_exceeded":
        tracer.count("registration.detect", "capped", 1)
    for entry in result.trace:
        if entry.branch:
            tracer.count("registration.detect", "branch_" + entry.branch, 1)


def observe_detect_sampled(tracer, args, result):
    tracer.count("registration.detect_sampled", "iterations", result.iterations)


def observe_correlate_sampled(tracer, args, result):
    # Computed, not measured: the two values arrays and masks are read once;
    # per cell the scalar sum takes 4 flops and the bivector sum 4.
    u, v = args[0], args[1]
    tracer.count("correlation.correlate_sampled", "bytes",
                 u.values.nbytes + v.values.nbytes + u.mask.nbytes + v.mask.nbytes)
    tracer.count("correlation.correlate_sampled", "flops", 8 * u.n * u.n)


def observe_sample(tracer, args, result):
    # Computed, not measured: two coordinate grids plus the values array and
    # mask written; per cell 6 flops for A x, and 3 more for a disk mask.
    cells = result.n * result.n
    tracer.count("fields.sample", "bytes",
                 2 * 8 * cells + result.values.nbytes + result.mask.nbytes)
    tracer.count("fields.sample", "flops",
                 (9 if result.domain.kind == "disk" else 6) * cells)


def observe_main(tracer, args, result):
    argv = list(args[0]) if args else []
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        tracer.count("cli.main", "report_bytes", os.path.getsize(path))


OBSERVERS = {
    "registration.detect": observe_detect,
    "registration.detect_sampled": observe_detect_sampled,
    "correlation.correlate_sampled": observe_correlate_sampled,
    "fields.sample": observe_sample,
    "cli.main": observe_main,
}


def _per(numerator, denominator, scale=1.0):
    return numerator * scale / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, overhead_frac: float) -> tuple:
    """The per-layer metrics, name -> (value, unit), and the span summary.

    A value of None marks a metric whose wrapped name is absent.
    """
    s = tracer.summary()
    self_sum = sum(s["layer_self_s"].values())
    if abs(self_sum - s["wall_s"]) > 1e-9 * max(1.0, s["wall_s"]):
        raise RuntimeError(f"layer self times sum to {self_sum}, wall is {s['wall_s']}")
    spans = s["spans"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def own(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def seen(name, counter):
        return tracer.observed.get(name, {}).get(counter, 0)

    trials = calls("experiments.run_trial")
    detect_iters = seen("registration.detect", "iterations")
    sampled_iters = seen("registration.detect_sampled", "iterations")
    metrics = {
        "traced_wall_ms": (s["wall_s"] * 1e3, "ms"),
        "trace_overhead_frac": (overhead_frac, "frac"),
    }
    for layer, seconds in s["layer_self_s"].items():
        metrics[f"{layer}.self_ms"] = (seconds * 1e3, "ms")
    metrics.update({
        "experiments.rng_setup_calls": (calls(RNG_SPAN), "count"),
        "experiments.rng_setup_us_per_trial": (_per(total(RNG_SPAN), trials, 1e6), "us"),
        "experiments.run_trial_calls": (trials, "count"),
        "experiments.self_us_per_trial":
            (_per(own("experiments.run_campaign"), trials, 1e6), "us"),
        "registration.detect_calls": (calls("registration.detect"), "count"),
        "registration.detect_us_per_call":
            (_per(total("registration.detect"), calls("registration.detect"), 1e6), "us"),
        "registration.detect_iterations_per_call":
            (_per(detect_iters, calls("registration.detect")), "count"),
        "registration.detect_ns_per_iteration":
            (_per(total("registration.detect"), detect_iters, 1e9), "ns"),
        "registration.detect_capped_calls":
            (seen("registration.detect", "capped"), "count"),
        "registration.branch_perturb": (seen("registration.detect", "branch_perturb"), "count"),
        "registration.branch_halve": (seen("registration.detect", "branch_halve"), "count"),
        "registration.branch_lock": (seen("registration.detect", "branch_lock"), "count"),
        "registration.oracle_calls": (calls("registration.oracle_detect"), "count"),
        "registration.oracle_ms_per_call":
            (_per(total("registration.oracle_detect"),
                  calls("registration.oracle_detect"), 1e3), "ms"),
        "registration.detect_sampled_iterations": (sampled_iters, "count"),
        "registration.detect_sampled_self_ms_per_iteration":
            (_per(own("registration.detect_sampled"), sampled_iters, 1e3), "ms"),
        "correlation.correlate_sampled_calls":
            (calls("correlation.correlate_sampled"), "count"),
        "correlation.correlate_sampled_ms_per_call":
            (_per(total("correlation.correlate_sampled"),
                  calls("correlation.correlate_sampled"), 1e3), "ms"),
        "correlation.correlate_sampled_bytes_computed":
            (_per(seen("correlation.correlate_sampled", "bytes"),
                  calls("correlation.correlate_sampled")), "B"),
        "correlation.correlate_sampled_flops_computed":
            (_per(seen("correlation.correlate_sampled", "flops"),
                  calls("correlation.correlate_sampled")), "flop"),
        "fields.total_rotate_calls": (calls("fields.total_rotate"), "count"),
        "fields.total_rotate_us_per_call":
            (_per(total("fields.total_rotate"), calls("fields.total_rotate"), 1e6), "us"),
        "fields.decompose_calls": (calls("fields.decompose"), "count"),
        "fields.recompose_calls": (calls("fields.recompose"), "count"),
        "fields.sample_calls": (calls("fields.sample"), "count"),
        "fields.sample_ms_per_call":
            (_per(total("fields.sample"), calls("fields.sample"), 1e3), "ms"),
        "fields.sample_bytes_computed":
            (_per(seen("fields.sample", "bytes"), calls("fields.sample")), "B"),
        "fields.sample_flops_computed":
            (_per(seen("fields.sample", "flops"), calls("fields.sample")), "flop"),
        "multivector.wrap_angle_calls": (calls("multivector.wrap_angle"), "count"),
        "cli.main_calls": (calls("cli.main"), "count"),
        "cli.main_self_ms": (_per(own("cli.main"), calls("cli.main"), 1e3), "ms"),
        "cli.report_bytes": (_per(seen("cli.main", "report_bytes"), calls("cli.main")), "B"),
    })
    # A metric built on a wrapped name that no longer exists is absent.
    depends = {
        RNG_SPAN: ("experiments.rng_setup_calls", "experiments.rng_setup_us_per_trial"),
        "experiments.run_trial": ("experiments.run_trial_calls", "experiments.rng_setup_us_per_trial",
                                  "experiments.self_us_per_trial"),
        "experiments.run_campaign": ("experiments.self_us_per_trial", "cli.main_self_ms"),
        "registration.detect": ("registration.detect_calls", "registration.detect_us_per_call",
                                "registration.detect_iterations_per_call",
                                "registration.detect_ns_per_iteration",
                                "registration.detect_capped_calls"),
        "correlation.correlate_sampled": ("correlation.correlate_sampled_calls",
                                          "correlation.correlate_sampled_ms_per_call",
                                          "correlation.correlate_sampled_bytes_computed",
                                          "correlation.correlate_sampled_flops_computed",
                                          "registration.detect_sampled_self_ms_per_iteration"),
        "fields.total_rotate": ("fields.total_rotate_calls", "fields.total_rotate_us_per_call"),
        "fields.decompose": ("fields.decompose_calls",),
        "fields.recompose": ("fields.recompose_calls",),
        "multivector.wrap_angle": ("multivector.wrap_angle_calls",),
    }
    for span in tracer.absent:
        if calls(span):
            continue    # still reached through the benchmark's own call
        for metric in depends.get(span, ()):
            metrics[metric] = (None, metrics[metric][1])
    return metrics, s
