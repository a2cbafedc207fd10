"""Outside-in span tracer for the benchmark's traced run.

The tracer replaces public entry points of the sourcescope modules (and
numpy's `leggauss`) with wrappers that record one span per call: name,
start, end, thread, the parent span and the id of the unit of work it
belongs to.  Spans stay in memory until the run ends.  Nothing inside the
program is changed; the originals are restored when a unit finishes.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._run_id = None

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name, fn, counts=None):
        """`fn` recording a span per call; `counts(args, result)` adds
        counters to the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._record(span_id, parent, name, start, error=True)
                raise
            finally:
                stack.pop()
            span = tracer._record(span_id, parent, name, start)
            if counts is not None:
                span.update(counts(args, result))
            return result

        return traced

    def _record(self, span_id, parent, name, start, error=False):
        span = {"id": span_id, "parent": parent, "run": self._run_id,
                "name": name, "start": start, "end": time.perf_counter(),
                "thread": threading.get_ident()}
        if error:
            span["error"] = True
        self.spans.append(span)
        return span

    def run_unit(self, run_id, fn, *args):
        """Call `fn(*args)` as the root span of unit `run_id`."""
        self._run_id = run_id
        try:
            return self.wrap("unit", fn)(*args)
        finally:
            self._run_id = None

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _events(args, result):
    return {"events": len(result)}


def _certificates(args, result):
    certs = result[0]
    return {"certificates": len(certs),
            "satisfied": sum(1 for c in certs if c.satisfied)}


def _records(args, result):
    counts = {"records_m": 0, "records_s": 0, "records_laplace": 0}
    for rec in result.records:
        family = "laplace" if rec.family.startswith("laplace") \
            else rec.family
        counts["records_" + family] += 1
    return counts


def _points(args, result):
    return {"points": len(result)}


def _emitted_bytes(args, result):
    return {"bytes": sum(os.path.getsize(p) for p in result)}


@contextlib.contextmanager
def installed(tracer):
    """Wrap every traced entry point for the duration of the block."""
    import numpy.polynomial.legendre as legendre

    from sourcescope import (alg1, alg2, bench, bounds, cli, dynamics,
                             sampling, scenarios)

    entry_points = [
        (cli, "main", "cli.main", None),
        (cli, "load_scenario", "scenarios.load", None),
        (scenarios, "load_scenario", "scenarios.load", None),
        (scenarios, "build_scenario", "scenarios.build", None),
        (scenarios.Scenario, "validate", "scenarios.validate", None),
        (scenarios.Scenario, "with_overrides", "scenarios.with_overrides",
         None),
        (dynamics.Trajectory, "__init__", "dynamics.trajectory_init", None),
        (dynamics.Trajectory, "state_values", "dynamics.state_values",
         _points),
        (sampling.Sampler, "__init__", "sampling.sampler_init", None),
        (legendre, "leggauss", "sampling.leggauss", None),
        (sampling.SampledStreams, "m", "sampling.stream_pull", None),
        (sampling.SampledStreams, "s", "sampling.stream_pull", None),
        (sampling.SampledStreams, "delta", "sampling.stream_pull", None),
        (alg1, "run_alg1", "alg1.run", _events),
        (alg2, "run_alg2", "alg2.run", _events),
        (bounds, "certify_alg1", "bounds.certify", _certificates),
        (bounds, "certify_alg2", "bounds.certify", _certificates),
        (bench, "run_scenario", "bench.run_scenario", _records),
        (bench, "emit_outputs", "bench.emit", _emitted_bytes),
    ]
    originals = []
    try:
        for owner, attr, name, counts in entry_points:
            original = getattr(owner, attr)
            originals.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, counts))
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """span id -> duration minus the part its children cover."""
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append((span["start"], span["end"]))
    return {span["id"]: span["end"] - span["start"] - _covered(
                children[span["id"]], span["start"], span["end"])
            for span in spans}


def layer_metrics(spans, units):
    """Per-layer metrics per unit of work, as {name: (value, unit)}."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
    name_of = {span["id"]: span["name"] for span in spans}

    def duration(name):
        return sum(s["end"] - s["start"] for s in by_name[name])

    def self_time(name):
        return sum(own[s["id"]] for s in by_name[name])

    def total(name, key):
        return sum(s.get(key, 0) for s in by_name[name])

    # nested scenario calls (load -> build -> validate) count once
    scenario_s = sum(
        s["end"] - s["start"] for s in spans
        if s["name"].startswith("scenarios.")
        and not name_of.get(s["parent"], "").startswith("scenarios."))
    certificates = total("bounds.certify", "certificates")

    per_unit = {
        "dynamics.trajectory_init_s": (duration("dynamics.trajectory_init"),
                                       "s"),
        "dynamics.state_values_s": (duration("dynamics.state_values"), "s"),
        "dynamics.state_values_calls": (len(by_name["dynamics.state_values"]),
                                        "count"),
        "dynamics.state_points": (total("dynamics.state_values", "points"),
                                  "count"),
        "sampling.sampler_init_self_s": (self_time("sampling.sampler_init"),
                                         "s"),
        "sampling.leggauss_calls": (len(by_name["sampling.leggauss"]),
                                    "count"),
        "sampling.leggauss_s": (duration("sampling.leggauss"), "s"),
        "sampling.stream_pull_s": (duration("sampling.stream_pull"), "s"),
        "sampling.records_m": (total("bench.run_scenario", "records_m"),
                               "count"),
        "sampling.records_s": (total("bench.run_scenario", "records_s"),
                               "count"),
        "sampling.records_laplace": (
            total("bench.run_scenario", "records_laplace"), "count"),
        "alg1.run_s": (self_time("alg1.run"), "s"),
        "alg1.events": (total("alg1.run", "events"), "count"),
        "alg2.run_s": (self_time("alg2.run"), "s"),
        "alg2.events": (total("alg2.run", "events"), "count"),
        "bounds.certify_s": (duration("bounds.certify"), "s"),
        "bounds.certificates": (certificates, "count"),
        "scenarios.build_s": (scenario_s, "s"),
        "bench.run_scenario_self_s": (self_time("bench.run_scenario"), "s"),
        "bench.emit_s": (duration("bench.emit"), "s"),
        "bench.emit_bytes": (total("bench.emit", "bytes"), "bytes"),
    }
    metrics = {name: (value / units, unit)
               for name, (value, unit) in per_unit.items()}
    metrics["bounds.satisfied_ratio"] = (
        total("bounds.certify", "satisfied") / certificates
        if certificates else 1.0, "ratio")
    return metrics
