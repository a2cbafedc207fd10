"""Benchmark of the sourcescope certified pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a sourcescope checkout; the program is imported from
its `src/` directory.  NAME is fig1_cli, random_admissible, or `all`
for each of them in its own process.

With --trace 0 the workload's units run one at a time (a closed loop with
one client) for S seconds of timed work, every unit's outputs are checked,
and the end-to-end metrics are printed.  With --trace 1 a fixed number of
units each run twice, untraced and traced, and the per-layer metrics of
the traced copies are printed together with the tracing overhead.  The
last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")
THREADS_ENV = "SOURCE_SCOPE_THREADS"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
SETUP_REPEATS = 12
DEFAULT_SEED = 1

SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import sourcescope, workloads
workloads.WORKLOADS[{name!r}]({root!r}, {workdir!r}).prepare()
print(time.perf_counter() - start)
"""


def pin_threads():
    """One BLAS thread, and no sweep thread-count override from the
    environment; returns the override that was removed, if any."""
    removed = os.environ.pop(THREADS_ENV, None)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return removed


def import_program():
    if not os.path.isdir(os.path.join(SRC, "sourcescope")):
        sys.exit("perfbench: no sourcescope package under %s" % SRC)
    sys.path[:0] = [SRC, HERE]
    import sourcescope
    import spans
    import workloads

    if not os.path.abspath(sourcescope.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: imported sourcescope from %s, not %s"
                 % (sourcescope.__file__, SRC))
    if not os.path.isfile(os.path.join(ROOT, workloads.SCENARIO_FILE)):
        sys.exit("perfbench: missing %s" % workloads.SCENARIO_FILE)
    return spans, workloads


def machine(removed_env):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas["name"], blas["version"])
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas,
            "blas_threads": int(os.environ[BLAS_THREAD_VARS[0]]),
            THREADS_ENV + "_removed": removed_env}


def setup_seconds(name, repeats, host):
    """Seconds, in each of `repeats` fresh processes, to import sourcescope
    and load or build the workload's fixed inputs; the host is probed after
    each."""
    code = SETUP_PROBE.format(src=SRC, here=HERE, name=name, root=ROOT,
                              workdir=WORKDIR)
    samples = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        samples.append(float(proc.stdout.split()[-1]))
        host.sample()
    return samples


def tail(times):
    """(value, percentile, samples beyond it) of the highest percentile with
    at least ten samples beyond it; the maximum when there are ten samples
    or fewer."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def middle_rate(times, runs):
    """Runs per second over the units between the first and the third
    quartile of unit time, so that a few units slowed by a burst of load on
    the machine do not move it."""
    ordered = sorted(zip(times, runs))
    cut = len(ordered) // 4
    middle = ordered[cut:len(ordered) - cut]
    return sum(r for _, r in middle) / sum(t for t, _ in middle)


def run_timed(workload, inputs, seconds, host):
    """Closed loop: one unit at a time until `seconds` of unit time have
    passed (and at least the units the accuracy metrics read); the host is
    probed after each unit."""
    times, checked = [], []
    while sum(times) < seconds or len(times) < max(workload.rho_units, 1):
        item = next(inputs)
        start = time.perf_counter()
        result = workload.run(item)
        times.append(time.perf_counter() - start)
        checked.append(workload.check(item, result))
        host.sample()
    return times, checked


def end_to_end(args, workload, inputs, notes):
    """The end-to-end metrics of an untraced run, with every time at the
    reference host speed, and the checks of its units."""
    with hostspeed.HostSpeed(ROOT) as host:
        # half the set-up probes run after the timed loop, so that their
        # median spans the same stretch of machine load as the units
        setup = setup_seconds(args.workload, SETUP_REPEATS // 2, host)
        times, checked = run_timed(workload, inputs, args.seconds, host)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup += setup_seconds(args.workload, SETUP_REPEATS - len(setup),
                               host)
    speed = host.factor()
    times = [t * speed for t in times]
    setup = [t * speed for t in setup]
    gap, rho, extra = workload.quality(checked)
    tail_value, tail_pct, beyond = tail(times)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "run_p50_s": (statistics.median(times), "s"),
        "run_tail_s": (tail_value, "s"),
        "runs_per_s": (middle_rate(times, [c.runs for c in checked]), "1/s"),
        "oracle_gap_max": (gap, "abs"),
        "rho_rel_err_p50": (statistics.median(rho) if rho else math.nan,
                            "ratio"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    notes.append("times are at the reference host speed: wall times x %.4f"
                 " (probe median %.4f s over %d probes, reference %.4f s)"
                 % (speed, statistics.median(host.samples),
                    len(host.samples), hostspeed.REFERENCE_S))
    notes.append("run_tail_s is p%.1f of %d units, %d beyond it"
                 % (tail_pct, len(times), beyond))
    return metrics, checked + extra


def run_traced(workload, inputs, spans, out_path):
    """Each unit untraced and traced, alternating which goes first."""
    tracer = spans.Tracer()
    plain, traced, checked = [], [], []
    for i in range(workload.traced_units):
        item = next(inputs)
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                with spans.installed(tracer):
                    start = time.perf_counter()
                    result = tracer.run_unit(i, workload.run, item)
                    traced.append(time.perf_counter() - start)
            else:
                start = time.perf_counter()
                result = workload.run(item)
                plain.append(time.perf_counter() - start)
            checked.append(workload.check(item, result))
    tracer.write(out_path)
    metrics = spans.layer_metrics(tracer.spans, workload.traced_units)
    metrics["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(plain), "s")
    return metrics, checked


def run_workload(args, spans, workloads, info):
    name = args.workload
    workload = workloads.WORKLOADS[name](ROOT, WORKDIR)
    workload.prepare()
    inputs = workload.inputs(args.seed)
    warm = next(inputs)
    checked = [workload.check(warm, workload.run(warm))]
    notes = []
    if args.trace:
        out_path = os.path.join(WORKDIR, "trace_%s_seed%d.jsonl"
                                % (name, args.seed))
        metrics, timed_checked = run_traced(workload, inputs, spans,
                                            out_path)
        checked += timed_checked
        correct = True
        notes.append("spans written to %s" % os.path.relpath(out_path, ROOT))
    else:
        metrics, timed_checked = end_to_end(args, workload, inputs, notes)
        checked += timed_checked
        gap = metrics["oracle_gap_max"][0]
        correct = gap <= workloads.ORACLE_LIMIT
        if not correct:
            notes.append("oracle gap %.3g exceeds %g"
                         % (gap, workloads.ORACLE_LIMIT))
    attempted = sum(c.runs for c in checked)
    failed = sum(c.failed for c in checked)
    correct = correct and failed == 0 and all(
        math.isfinite(v) for v, _ in metrics.values())
    # failed_frac is 0 on working code, so the result carries it as
    # failed / attempted rather than as a metric
    notes.append("failed_frac %.6g ratio (%d of %d runs)"
                 % (failed / attempted, failed, attempted))
    notes += [msg for c in checked for msg in c.messages]
    print("# %s seed=%d seconds=%g trace=%d" % (
        name, args.seed, args.seconds, args.trace))
    print("# machine " + json.dumps(info, sort_keys=True))
    for metric, (value, unit) in sorted(metrics.items()):
        print("%-18s %-30s %.6g %s" % (name, metric, value, unit))
    for note in notes:
        print("# " + note)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {metric: {"value": value, "unit": unit}
                        for metric, (value, unit) in metrics.items()}}


def run_all(args, names):
    """Each workload in a fresh process; metrics are prefixed by name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"]["%s.%s" % (name, metric)] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    removed_env = pin_threads()  # before numpy is imported
    spans, workloads = import_program()
    names = sorted(workloads.WORKLOADS)
    if args.workload == "all":
        return run_all(args, names)
    if args.workload not in workloads.WORKLOADS:
        parser.error("--workload must be one of %s or all" % names)
    os.makedirs(WORKDIR, exist_ok=True)
    result = run_workload(args, spans, workloads, machine(removed_env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
