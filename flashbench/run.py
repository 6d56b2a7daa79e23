#!/usr/bin/env python3
"""The flashsim benchmark: builds the driver, runs one workload, checks it.

Run from the repository root:

  python3 flashbench/run.py --workload policy_grid --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics (host time, tracing off); --trace 1
runs the driver's self-test, then an untraced and a traced run, and prints
the per-layer metrics. The last line of stdout is one JSON object:

  {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value", "unit"}}}

`attempted` counts sweep points run (points x timed repetitions); a point
fails when it crashed, broke a conservation identity, or its digest differs
from the pinned one in digests.json (or, for an unpinned seed, from the
first repetition's). See README.md for the workloads and metrics.

Maintenance modes:
  --selftest            the driver's self-test only (replay round trip,
                        corruption seam, traced == untraced)
  --write-pins A-B      re-pin digests.json for seeds A..B (after an
                        intentional change to simulated results)
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PINS = os.path.join(HERE, "digests.json")

# Workload -> (sweep points, set-up repetitions before each timed one). The
# sweeps' set-up is one ~0.1 ms model build, repeated often enough for a
# steady median; the replay's (~2 s, mostly writing the trace) runs once.
WORKLOADS = {
    "policy_grid": (147, 51),
    "trace_replay": (1, 1),
    "write_sharing": (24, 51),
}
MIN_REPS = 3  # timed repetitions per run, at least
# Every driver call of a run must end this many seconds after the build, so
# one run stays inside its 180 s limit.
RUN_LIMIT_S = 170
deadline = None  # set after the build; None = no limit (pinning)

END_TO_END = [
    ("wall_s", "s"),
    ("blocks_per_s", "blocks/s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
]

# Per-layer metrics the driver computes for one traced repetition.
LAYER_UNITS = {
    "harness.point_s_p50": "s",
    "harness.point_s_p90": "s",
    "harness.busy_frac": "ratio",
    "harness.tail_s": "s",
    "tracegen.fs_model_s": "s",
    "tracegen.next_s": "s",
    "tracegen.records": "count",
    "tracegen.ns_per_record": "ns",
    "trace.write_s": "s",
    "trace.open_s": "s",
    "trace.next_s": "s",
    "trace.ns_per_record": "ns",
    "core.builds": "count",
    "core.build_s": "s",
    "core.teardown_s": "s",
    "core.resident_mib": "MiB",
    "core.run_self_s": "s",
    "core.events": "count",
    "core.ns_per_event": "ns",
    "core.events_per_record": "ratio",
}
# Modelled work counts (exact for a seed) from the driver's counts block.
COUNT_UNITS = {
    "cache.ram_hits": "count",
    "cache.flash_hits": "count",
    "cache.flash_installs": "count",
    "cache.index_rehashes": "count",
    "backend.filer_reads": "count",
    "backend.filer_writebacks": "count",
    "backend.filer_queued": "count",
    "device.writebacks_enqueued": "count",
    "consistency.invalidations": "count",
    "consistency.messages": "count",
    "consistency.stalled_ops": "count",
    "sim.end_time_s": "s",
}
# Computed here from the untraced and traced runs.
RUN_UNITS = {
    "harness.failed_frac": "ratio",
    "tracing.untraced_wall_s": "s",
    "tracing.traced_wall_s": "s",
    "tracing.overhead_s": "s",
}


def log(message):
    print("flashbench: " + message, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "flashbench")


def build():
    """Configures and builds the driver; exits 1 (no result) on failure."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs, "--target", "flashbench", "flashbench_traced"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(step))
            sys.exit(1)
    return os.path.join(out, "flashbench"), os.path.join(out, "flashbench_traced")


def time_left():
    return None if deadline is None else max(1.0, deadline - time.monotonic())


def run_driver(exe, args):
    """Runs the driver; returns (parsed stdout lines, exit code)."""
    try:
        proc = subprocess.run([exe] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=time_left())
    except subprocess.TimeoutExpired as e:
        # subprocess.run has already killed and reaped the driver.
        log("driver timed out: %s" % " ".join(e.cmd))
        return [], -1
    lines = []
    for line in proc.stdout.splitlines():
        try:
            lines.append(json.loads(line))
        except ValueError:
            log("unparsable driver line: " + line[:200])
    return lines, proc.returncode


def load_pins():
    with open(PINS) as f:
        return json.load(f)


class Run:
    """One driver invocation, split into its repetitions and checked."""

    def __init__(self, workload, seed, lines, code, pins):
        self.points = WORKLOADS[workload][0]
        self.summary = next((l["summary"] for l in lines if "summary" in l), None)
        self.reps = [l for l in lines if "rep" in l and "point" not in l]
        point_lines = [l for l in lines if "point" in l]
        self.digests = {}  # rep -> [digest per point]
        for l in point_lines:
            self.digests.setdefault(l["rep"], []).append(l["digest"])
        pinned = pins.get(workload, {}).get(str(seed))
        reference = pinned or self.digests.get(0, [])
        good = 0
        for l in point_lines:
            i = l["point"]
            if l["error"]:
                log("rep %d point %d (%s): %s" % (l["rep"], i, l["label"], l["error"]))
            elif i >= len(reference) or l["digest"] != reference[i]:
                log("rep %d point %d (%s): digest %s differs from %s" %
                    (l["rep"], i, l["label"], l["digest"],
                     "the pinned one" if pinned else "repetition 0's"))
            else:
                good += 1
        # A crash leaves its repetition's points unreported: count them.
        reps_started = len(self.reps) + (0 if self.summary else 1)
        self.attempted = max(reps_started * self.points, len(point_lines), 1)
        self.failed = self.attempted - good
        counts = [json.dumps(r["counts"], sort_keys=True) for r in self.reps]
        consistent = len(set(counts)) <= 1
        if not consistent:
            log("work counts differ between repetitions")
        self.ok = (code == 0 and self.summary is not None and self.failed == 0 and
                   consistent and len(self.reps) > 0)
        if code != 0:
            log("driver exited with code %d" % code)

    def median(self, key):
        return statistics.median(r[key] for r in self.reps)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, seconds, exe, pins, tmp):
    setup_reps = WORKLOADS[workload][1]
    lines, code = run_driver(exe, [
        "--workload=" + workload, "--seed=%d" % seed, "--seconds=%g" % seconds,
        "--min_reps=%d" % MIN_REPS, "--setup_reps=%d" % setup_reps, "--tmp_dir=" + tmp,
    ])
    run = Run(workload, seed, lines, code, pins)
    metrics = {}
    if run.ok:
        blocks = run.reps[0]["counts"]["blocks"]
        values = {
            "wall_s": run.median("wall_s"),
            "blocks_per_s": statistics.median(blocks / r["wall_s"] for r in run.reps),
            "cpu_s": run.median("cpu_s"),
            "peak_rss_mib": run.summary["peak_rss_mib"],
            "setup_s": run.summary["setup_s"],
        }
        metrics = {name: metric(values[name], unit) for name, unit in END_TO_END}
    return run.ok, run.attempted, run.failed, metrics


def per_layer(workload, seed, seconds, exe, traced_exe, pins, tmp):
    start = time.monotonic()
    try:
        selftest = subprocess.run([traced_exe, "--selftest", "--tmp_dir=" + tmp],
                                  stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=time_left()).returncode == 0
    except subprocess.TimeoutExpired:
        selftest = False
    if not selftest:
        log("self-test failed")
    # Split what is left of the budget between the untraced and traced runs.
    budget = max(0.0, seconds - (time.monotonic() - start)) / 2
    common = ["--workload=" + workload, "--seed=%d" % seed, "--seconds=%g" % budget,
              "--min_reps=1", "--setup_reps=1", "--tmp_dir=" + tmp]
    plain = Run(workload, seed, *run_driver(exe, common), pins)
    spans = os.path.join(build_dir(), "spans-%s-%d.json" % (workload, seed))
    traced = Run(workload, seed,
                 *run_driver(traced_exe, common + ["--traced", "--spans=" + spans]), pins)
    same = plain.digests.get(0) == traced.digests.get(0)
    if not same:
        log("traced digests differ from untraced")
    ok = selftest and plain.ok and traced.ok and same
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    metrics = {}
    if ok:
        for name, unit in LAYER_UNITS.items():
            metrics[name] = metric(statistics.median(r["layers"][name] for r in traced.reps),
                                   unit)
        for name, unit in COUNT_UNITS.items():
            metrics[name] = metric(traced.reps[0]["counts"][name], unit)
        untraced_wall = plain.median("wall_s")
        traced_wall = traced.median("wall_s")
        values = {
            "harness.failed_frac": failed / attempted,
            "tracing.untraced_wall_s": untraced_wall,
            "tracing.traced_wall_s": traced_wall,
            "tracing.overhead_s": traced_wall - untraced_wall,
        }
        for name, unit in RUN_UNITS.items():
            metrics[name] = metric(values[name], unit)
        log("spans written to " + spans)
    return ok, attempted, failed, metrics


def write_pins(seed_range, exe):
    lo, _, hi = seed_range.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    pins = {}
    for workload in WORKLOADS:
        pins[workload] = {}
        for seed in seeds:
            # --pin runs trace_replay through RunExperiment, so the replay
            # is checked against the synthetic path, not against itself.
            lines, code = run_driver(exe, ["--workload=" + workload, "--seed=%d" % seed,
                                           "--pin"])
            run = Run(workload, seed, lines, code, {})
            if not run.ok:
                log("cannot pin %s seed %d" % (workload, seed))
                sys.exit(1)
            pins[workload][str(seed)] = run.digests[0]
            log("pinned %s seed %d" % (workload, seed))
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


def run_one(workload, trace, args, exe, traced_exe, pins, tmp):
    global deadline
    deadline = time.monotonic() + RUN_LIMIT_S
    if trace:
        result = per_layer(workload, args.seed, args.seconds, exe, traced_exe, pins, tmp)
    else:
        result = end_to_end(workload, args.seed, args.seconds, exe, pins, tmp)
    ok, attempted, failed, metrics = result
    return {"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                        help="'all' runs every workload with --trace 0 and 1, one line each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-pins", metavar="A-B")
    args = parser.parse_args()
    if args.workload is None and not (args.selftest or args.write_pins):
        parser.error("--workload is required")

    exe, traced_exe = build()
    tmp = os.path.join(build_dir(), "tmp-%d" % os.getpid())
    os.makedirs(tmp, exist_ok=True)
    try:
        if args.selftest:
            sys.exit(subprocess.run([traced_exe, "--selftest", "--tmp_dir=" + tmp]).returncode)
        if args.write_pins:
            write_pins(args.write_pins, exe)
            return
        pins = load_pins()
        if args.workload == "all":
            for workload in WORKLOADS:
                for trace in (0, 1):
                    result = run_one(workload, trace, args, exe, traced_exe, pins, tmp)
                    print(json.dumps(dict(workload=workload, trace=trace, **result)), flush=True)
        else:
            print(json.dumps(run_one(args.workload, args.trace, args, exe, traced_exe, pins,
                                     tmp)))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
