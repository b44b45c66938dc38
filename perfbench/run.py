#!/usr/bin/env python3
"""The dproc benchmark: runs one workload and prints one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench/` (a cargo package of its own that uses the program's
crates by path), then runs the workload again and again, each run in a
fresh process, until the measured windows add up to `--seconds` of wall
time. Each run sets up the cluster (timed as `setup_s`), runs a window of
fixed simulated length, checks its outputs and reports. Just before each
run a fixed reference workload gauges the host's speed in a process of
its own, and the run's CPU times are scaled by it. Medians over the runs
are printed; the peak RSS of each process comes from `wait4`.

With `--trace 0` the last line carries every end-to-end metric. With
`--trace 1` traced runs alternate with untraced ones and the last line
carries every per-layer metric, the tracing overhead included.
`--workload all` runs every workload in turn, one result line each.

Every run of one seed must report the same deterministic counters and
modeled metrics; a failed check is named on stderr and the exit code is 1.
See `perfbench/README.md` for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("star64_filtered", "racks2048", "churn_racks")

# name -> (unit, where the value comes from: "det" is a deterministic
# field of the run, "wall" a host measurement taken as the median over
# the runs printed, "untraced" the same over the untraced runs of a
# traced invocation). `ns_per_event` and `setup_s` are CPU times scaled
# to the nominal host speed (see NOMINAL_REFERENCE_MS); the `proc.*`
# times are as measured.
END_TO_END = {
    "ns_per_event": ("ns", "wall"),
    "peak_rss_mb": ("MB", "rss"),
    "setup_s": ("s", "wall"),
    "proc_age_p50_ms": ("ms", "det"),
    "proc_age_p99_ms": ("ms", "det"),
    "mon_latency_p50_us": ("us", "det"),
    "mon_latency_p99_us": ("us", "det"),
    "monitor_cpu_pct": ("%", "det"),
    "delivered_share": ("ratio", "det"),
}

PER_LAYER = {
    "cluster.poll_ns": ("ns", "wall"),
    "cluster.deliver_mon_ns": ("ns", "wall"),
    "cluster.deliver_ctl_ns": ("ns", "wall"),
    "cluster.other_ns": ("ns", "wall"),
    "cluster.unattributed_ns": ("ns", "wall"),
    "cluster.attributed_pct": ("%", "wall"),
    "cluster.trace_overhead_pct": ("%", "overhead"),
    "proc.cpu_ns_per_event": ("ns", "untraced"),
    "proc.wall_ns_per_event": ("ns", "untraced"),
    "proc.setup_cpu_s": ("s", "untraced"),
    "proc.setup_wall_s": ("s", "untraced"),
    "proc.cpu_share_pct": ("%", "untraced"),
    "proc.reference_ms": ("ms", "untraced"),
    "simcore.dispatches_per_event": ("count/event", "det"),
    "simcore.pending_hwm": ("count", "det"),
    "simnet.sends_per_event": ("count/event", "det"),
    "simnet.payload_bytes_per_event": ("B/event", "det"),
    "simnet.link_drops": ("count", "det"),
    "simnet.spine_drops": ("count", "det"),
    "simnet.fault_drops": ("count", "det"),
    "simnet.queue_hwm_msgs": ("count", "det"),
    "simnet.send_ns": ("ns", "wall"),
    "dmon.rss_after_setup_mb": ("MB", "wall"),
    "dmon.events_per_poll": ("count/poll", "det"),
    "dmon.heartbeats_sent": ("count", "det"),
    "dmon.modules_skipped": ("count", "det"),
    "dmon.memo_bypassed": ("count", "det"),
    "dmon.events_shed": ("count", "det"),
    "dmon.credits_stalled": ("count", "det"),
    "dmon.ladder_transitions": ("count", "det"),
    "dmon.gaps_detected": ("count", "det"),
    "dmon.nodes_evicted": ("count", "det"),
    "dmon.resyncs": ("count", "det"),
    "dmon.digests_sent": ("count", "det"),
    "dmon.digest_records": ("count", "det"),
    "dmon.digest_age_p99_ms": ("ms", "det"),
    "dmon.control_handled": ("count", "det"),
    "dmon.control_errors": ("count", "det"),
    "ecode.admit_ns": ("ns", "wall"),
    "ecode.filters_compiled": ("count", "det"),
    "ecode.interp_fallbacks": ("count", "det"),
    "kecho.wire_bytes_per_event": ("B/event", "det"),
    "simos.procfs_entries": ("count", "det"),
    "simos.conn_entries": ("count", "det"),
    "simos.procfs_read_ns": ("ns", "wall"),
    "proc.allocs_per_event": ("count/event", "wall"),
}

# CPU time of one round of the reference workload (src/reference.rs) on
# the nominal host: about what it took on a 2-vCPU virtual machine on an
# Intel Xeon at 2.1 GHz. `ns_per_event` and `setup_s` are CPU times scaled
# by this over the reference time measured just before each run.
NOMINAL_REFERENCE_MS = 6.0

MIN_RUNS = 3
# Stop adding runs past this much wall time, so one invocation ends well
# inside its time limit even on a slow machine.
BUDGET_S = 120.0


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr)
    except OSError as e:
        log(f"cannot run cargo: {e}")
        return None
    if done.returncode != 0:
        log("build failed")
        return None
    target = Path(os.environ.get("CARGO_TARGET_DIR") or BENCH / "target")
    return target / "release" / "dproc-perfbench"


def run_once(binary, workload, seed, traced):
    """One run in a fresh process: its JSON report and its peak RSS in MB."""
    gauge = subprocess.run([str(binary), "--reference"], stdout=subprocess.PIPE)
    if gauge.returncode != 0:
        raise RuntimeError(f"reference exited with {gauge.returncode}")
    reference_ms = json.loads(gauge.stdout)["reference_ms"]
    cmd = [str(binary), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited with {proc.returncode}")
    report = json.loads(out.decode().strip().splitlines()[-1])
    wall = report["wall"]
    scale = NOMINAL_REFERENCE_MS / reference_ms
    wall["reference_ms"] = reference_ms
    wall["ns_per_event"] = wall["cpu_ns_per_event"] * scale
    wall["setup_s"] = wall["setup_cpu_s"] * scale
    # ru_maxrss is in KiB on Linux.
    return report, usage.ru_maxrss / 1024.0


def median_of(reports, section, key):
    return statistics.median(r[section][key] for r in reports)


def measure(binary, workload, seed, seconds, trace):
    """Run `workload` until `seconds` are measured; return the result object."""
    started = time.monotonic()
    plain, traced, rss = [], [], []
    measured = 0.0
    modes = (False, True) if trace else (False,)
    while True:
        for mode in modes:
            report, peak = run_once(binary, workload, seed, mode)
            (traced if mode else plain).append(report)
            if not mode:
                rss.append(peak)
            measured += report["wall"]["window_wall_s"]
        if len(plain) >= MIN_RUNS and (measured >= seconds
                                       or time.monotonic() - started > BUDGET_S):
            break
    log(f"{workload} seed {seed}: {len(plain)} untraced + "
        f"{len(traced)} traced runs, {measured:.2f} s measured")

    # ---- correctness ----
    failed_checks = set()
    for r in plain + traced:
        failed_checks.update(r["checks"])
    # Exact replay: every run of the seed reports the same deterministic
    # fields; tracing adds fields but may change none.
    base = plain[0]["det"]
    for r in plain[1:] + traced:
        if any(r["det"][k] != v for k, v in base.items()):
            failed_checks.add("replay_untraced")
    for r in traced[1:]:
        if r["det"] != traced[0]["det"]:
            failed_checks.add("replay_traced")
    for name in sorted(failed_checks):
        log(f"{workload}: CHECK FAILED: {name}")

    # ---- metrics ----
    metrics = {}
    if trace:
        det = traced[0]["det"]
        untraced_ns = median_of(plain, "wall", "ns_per_event")
        traced_ns = median_of(traced, "wall", "ns_per_event")
        for name, (unit, source) in PER_LAYER.items():
            if source == "det":
                value = det[name]
            elif source == "overhead":
                value = 100.0 * (traced_ns / untraced_ns - 1.0)
            elif source == "untraced":
                value = median_of(plain, "wall", name.removeprefix("proc."))
            else:
                value = median_of(traced, "wall", name)
            metrics[name] = {"value": value, "unit": unit}
    else:
        for name, (unit, source) in END_TO_END.items():
            if source == "det":
                value = base[name]
            elif source == "rss":
                value = statistics.median(rss)
            else:
                value = median_of(plain, "wall", name)
            metrics[name] = {"value": value, "unit": unit}

    # The operations the benchmark performs are the reader probe's peer
    # reads and the control-file writes; a peer without an entry or a
    # write the publisher refused is a failed operation.
    reports = plain + traced
    attempted = sum(r["det"]["probe_reads"] + r["det"]["control_writes"] for r in reports)
    failed = sum(r["det"]["probe_missing"] + r["det"]["failed_writes"] for r in reports)
    return {"correct": not failed_checks, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    if binary is None or not binary.exists():
        sys.exit(2)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    for workload in workloads:
        result = measure(binary, workload, args.seed, args.seconds, args.trace)
        correct &= result["correct"]
        print(json.dumps(result), flush=True)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
