"""kxstit benchmark: three closed-loop workloads with one caller each.

    python3 perfbench/run.py --workload suite --seed 0 --seconds 35 --trace 0

Run it from the repository root; it imports the package from ./src.  It sets
the workload up at least five times and for at least two seconds, then runs
verdict units back to back for --seconds, starting the next unit when the
previous verdict is in, and checks every verdict against its expected answer.
It prints a report, then as its last line one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 every unit runs twice, untraced and then
traced, whole passes only, and the metrics are the per-layer ones (see
README.md).  The gated timings are scaled to a fixed machine speed by a
reference kernel timed between set-ups and between units.  Exits 0 when
every verdict was right, 1 when one was wrong or raised, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

WORKLOADS = ("suite", "transform", "query")
# The highest percentile with at least ten of one pass's units beyond it:
# 200 models, 201 transform units, 1,038 queries.
TAIL_PCT = {"suite": 95, "transform": 95, "query": 99}
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
PROCESS_RUNS = 5
# The host's speed drifts by up to 1.7 times over minutes (README.md, "Machine
# and noise").  Gated timings are therefore given at a fixed speed: scaled by
# (REFERENCE_S / k) ** REFERENCE_POWER, where k is the median time of
# reference_kernel() in the same stretch of the run, timed SETUP_REFERENCE
# times after each set-up and between units once per REFERENCE_EVERY
# seconds, at most REFERENCE_BURST times in a row.  The kernel's speed swings
# about twice as far as the workloads', hence the square root.
REFERENCE_S = 0.005
REFERENCE_POWER = 0.5
REFERENCE_EVERY = 0.25
REFERENCE_BURST = 20
SETUP_REFERENCE = 3
OUT_DIR = ".perfbench"


def reference_kernel():
    """Fixed pure-Python work shaped like the program's: dict and str
    arithmetic, frozenset algebra and a chain of small linked tuples."""
    counts = {}
    for i in range(5000):
        counts[i % 97] = counts.get(i % 97, 0) + len(str(i))
    cells = [frozenset(range(i, i + 30)) for i in range(0, 300, 3)]
    overlap = 0
    for a in cells[:60]:
        for b in cells[::4]:
            if a & b:
                overlap += len(a | b)
    nodes = [(None, None, 0)]
    for i in range(7000):
        nodes.append((nodes[i // 2], nodes[-1], i))
    return len(counts) + overlap + len(nodes)


def time_reference():
    """Seconds one reference_kernel() takes.  The collector is off, so the
    time does not depend on how large the program's heap is."""
    gc.disable()
    try:
        start = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - start
    finally:
        gc.enable()


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(pct / 100 * len(ordered)), 1) - 1]


class Measurement:
    """Unit times per input key, untraced and traced, and verdict counts."""

    def __init__(self, units):
        self.times = {u.key: [] for u in units}
        self.traced = {u.key: [] for u in units}
        self.instances = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.passes = 0
        self.reference = []

    def count(self, unit, instances, error):
        self.attempted += 1
        self.instances += instances
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{unit.key}: {error}")

    def busy_s(self, traced=False):
        return sum(sum(ts) for ts in (self.traced if traced else self.times).values())


def run_unit(unit, tracer=None, label=None):
    """Time one verdict unit and verify it: (seconds, instances, error)."""
    arg = unit.prepare()
    # start from an empty heap of garbage: cycles left by the previous unit
    # would otherwise be collected (and held in memory) by this one
    gc.collect()
    if tracer is not None:
        tracer.install(label)
    try:
        start = time.perf_counter()
        try:
            result, error = unit.run(arg), None
        except Exception:  # a raised verdict is a failed unit; the run goes on
            result, error = None, traceback.format_exc(limit=-2).strip()
        elapsed = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    instances = 0
    if error is None:
        try:
            instances, error = unit.verify(result, unit.expected)
        except Exception:  # output the check cannot read is a wrong verdict
            error = traceback.format_exc(limit=-2).strip()
    return elapsed, instances, error


def measure(units, seconds, tracer=None):
    """Closed loop over passes of ``units``.  Untraced, it stops once
    ``seconds`` have passed and one pass is complete, and times the
    reference kernel between units; traced, it runs every unit untraced and
    then traced, and stops at a pass boundary."""
    res = Measurement(units)
    start = last_reference = time.perf_counter()
    while True:
        for unit in units:
            if tracer is None and res.passes and time.perf_counter() - start >= seconds:
                return res
            elapsed, instances, error = run_unit(unit)
            res.times[unit.key].append(elapsed)
            res.count(unit, instances, error)
            if tracer is None:
                # one kernel per REFERENCE_EVERY seconds gone, so that a long
                # unit weighs in the median as much as the time it took
                due = int((time.perf_counter() - last_reference) / REFERENCE_EVERY)
                if due or not res.reference:
                    res.reference.extend(time_reference()
                                         for _ in range(min(max(due, 1), REFERENCE_BURST)))
                    last_reference = time.perf_counter()
            if tracer is not None:
                elapsed, instances, error = run_unit(unit, tracer, f"{res.passes}:{unit.key}")
                res.traced[unit.key].append(elapsed)
                res.count(unit, instances, error)
        res.passes += 1
        if time.perf_counter() - start >= seconds:
            return res


def timed_setup(workload, seed, workdir, durations):
    """Build the workload's units, appending the time it took to ``durations``."""
    import workloads   # imports kxstit, so only once ./src is on the path
    start = time.perf_counter()
    units = workloads.SETUPS[workload](seed, workdir)
    durations.append(time.perf_counter() - start)
    return units


def machine_line(seed):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"machine: nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} "
            f"seed={seed}")


def unit_times(workload, times):
    """(p50, tail, tail note, pass) from unit times per input key, in seconds."""
    samples = [t for ts in times.values() for t in ts]
    pct = TAIL_PCT[workload]
    beyond = len(samples) - max(math.ceil(pct / 100 * len(samples)), 1)
    return (statistics.median(samples), percentile(samples, pct),
            f"p{pct}, n={len(samples)}, {beyond} beyond",
            sum(statistics.median(ts) for ts in times.values()))


def end_to_end(setup_times, setup_reference, res):
    """name -> (value, unit, note) for every gated end-to-end metric.  The
    times are scaled towards the speed at which reference_kernel() takes
    REFERENCE_S: set-up by the kernel timed between set-ups, the rest by the
    kernel timed between units."""
    setup_ref, run_ref = statistics.median(setup_reference), statistics.median(res.reference)
    setup = statistics.median(setup_times)
    busy = res.busy_s()
    return {
        "setup_s": (setup * (REFERENCE_S / setup_ref) ** REFERENCE_POWER, "s",
                    f"median of {len(setup_times)} set-ups, {setup:.6f} s unscaled, "
                    f"kernel {setup_ref * 1e3:.3f} ms (median of {len(setup_reference)})"),
        "instances_per_s": (res.instances / busy * (run_ref / REFERENCE_S) ** REFERENCE_POWER,
                            "1/s",
                            f"{res.instances} instances in {busy:.3f} s unscaled, kernel "
                            f"{run_ref * 1e3:.3f} ms (median of {len(res.reference)})"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
                        "ru_maxrss of this process"),
    }


def ungated(workload, res):
    """Report lines for the unit-time metrics that are printed but not gated:
    on a host that switches between a fast and a slow state, a median jumps
    to whichever state held most of the run, where a throughput averages
    the states in proportion (see README.md)."""
    p50, tail, tail_note, pass_s = unit_times(workload, res.times)
    lines = [f"verdict_p50_ms   {p50 * 1e3:.6f} ms  (not gated: "
             f"n={sum(map(len, res.times.values()))} units)",
             f"verdict_tail_ms  {tail * 1e3:.6f} ms  (not gated: {tail_note})",
             f"pass_s           {pass_s:.6f} s  (not gated: sum of per-input medians over "
             f"{len(res.times)} inputs, {res.passes} whole passes)"]
    fixture = res.times.get("fixture", [])
    if fixture:
        lines.append(f"fixture_s        {statistics.median(fixture):.6f} s  (not gated: "
                     f"729-world matrix, median of {len(fixture)})")
    return lines


def per_layer(tracer, res):
    """name -> (value, unit, note) for every per-layer metric, per pass."""
    busy = res.busy_s(traced=True)
    out = {}
    for name, stats in tracer.stats.items():
        out[f"{name}.calls"] = (stats.calls / res.passes, "count", "per pass")
        out[f"{name}.self_pct"] = (100 * stats.self_s / busy, "%",
                                   f"self {stats.self_s / res.passes:.6f} s per pass")
        for size, total in stats.sizes.items():
            out[f"{name}.{size}"] = (total / res.passes, "count", "per pass")
    ratio = tracer.memo_distinct / tracer.memo_evaluated if tracer.memo_evaluated else 0.0
    out["axioms.distinct_subformula_ratio"] = (
        ratio, "ratio", f"{tracer.memo_distinct} distinct of {tracer.memo_evaluated} evaluated")
    overhead = [t - u for key in res.times for u, t in zip(res.times[key], res.traced[key])]
    out["trace.busy_s"] = (busy / res.passes, "s", "traced unit time per pass")
    out["trace.overhead_ms"] = (statistics.median(overhead) * 1e3, "ms",
                                "median per unit of traced minus untraced time")
    out["trace.spans"] = (len(tracer.span_id) / res.passes, "count", "per pass")
    return out


def process_check(workdir, res):
    """Informational: wall time of whole `kxstit check` processes."""
    path = os.path.join(workdir, "fig1a.model")
    argv = [sys.executable, "-m", "kxstit.cli", "check", path, "--world", "m4_h9",
            "--formula", "[Ags] X s"]
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    times = []
    for _ in range(PROCESS_RUNS):
        start = time.perf_counter()
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        wrong = proc.returncode != 0 or proc.stdout.strip() != "true"
        res.attempted += 1
        if wrong:
            res.failed += 1
            res.errors.append(f"process check: exit {proc.returncode} {proc.stdout!r} {proc.stderr!r}")
    return statistics.median(times) * 1e3, times


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "kxstit", "__init__.py")):
        print(f"perfbench: no kxstit package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    workdir = os.path.abspath(os.path.join(OUT_DIR, args.workload))
    os.makedirs(workdir, exist_ok=True)

    setup_times, setup_reference = [], []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        units = timed_setup(args.workload, args.seed, workdir, setup_times)
        setup_reference.extend(time_reference() for _ in range(SETUP_REFERENCE))
    # the inputs live for the whole run: keep them out of every collection
    gc.collect()
    gc.freeze()
    lines = [f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
             f"trace={args.trace} units/pass={len(units)}", machine_line(args.seed)]
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        res = measure(units, args.seconds, tracer)
        metrics = per_layer(tracer, res)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.tsv")
        written = tracer.write_spans(spans_path)
        plain, traced = unit_times(args.workload, res.times), unit_times(args.workload, res.traced)
        for label, i, scale, unit in (("verdict_p50", 0, 1e3, "ms"), ("pass", 3, 1, "s")):
            lines.append(f"tracing overhead on {label}: traced {traced[i] * scale:.6g} - untraced "
                         f"{plain[i] * scale:.6g} = {(traced[i] - plain[i]) * scale:.6g} {unit}")
        lines.append(f"spans: {written} written to {spans_path}")
        wrapped = sum(v for k, (v, _, _) in metrics.items() if k.endswith(".self_pct"))
        lines.append(f"outside wrapped layers (other code and tracer bookkeeping): "
                     f"{100 - wrapped:.2f} %")
    else:
        res = measure(units, args.seconds)
        metrics = end_to_end(setup_times, setup_reference, res)
        lines.extend(ungated(args.workload, res))
        if args.workload == "query":
            p50, times = process_check(workdir, res)
            lines.append(f"cli.process_ms   {p50:.3f} ms  (informational, not gated: median of "
                         f"{len(times)} whole `kxstit check` processes)")
    lines.append(f"failed_ratio     {res.failed / res.attempted:.6g}  "
                 f"({res.failed} of {res.attempted} verdicts wrong or raised)")
    for name, (value, unit, note) in metrics.items():
        lines.append(f"{name:<40} {value:>14.6f} {unit:<6} {note}")
    lines.extend(f"error: {e}" for e in res.errors)
    print("\n".join(lines))
    print(json.dumps({"correct": res.failed == 0, "attempted": res.attempted,
                      "failed": res.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}))
    return 0 if res.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
