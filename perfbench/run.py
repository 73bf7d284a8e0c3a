#!/usr/bin/env python3
"""Benchmark of the M2NDP simulator: host speed and paper fidelity.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

It builds perfbench/perfbench.cc against the checkout's simulator (into
$CARGO_TARGET_DIR, default .bench_build), runs one workload, checks the
outputs and prints one JSON object as the last line of stdout:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones and writes a Chrome
trace-event file. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("olap_q6", "pgrank", "kvs_a", "dlrm_4dev")
RUN_LIMIT_S = 175        # a run must end within 180 s
FIRST_RUN_LIMIT_S = 880  # ... or 900 s when it had to build
DRAM_PEAK_GBPS = 409.6   # per device (Table IV)
PAGE_BYTES = 4096        # SparseMemory frame


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configure (once) and build the driver; True if it compiled anything."""
    tmp = build_dir / "tmp"  # keep the compiler's temporaries in the checkout
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    run = lambda cmd: subprocess.run(cmd, check=True, env=env, stdout=sys.stderr,
                                     stderr=sys.stderr)
    if not any((build_dir / f).exists() for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run(cmd)
    binary = build_dir / "perfbench"
    before = binary.stat().st_mtime_ns if binary.exists() else None
    run(["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", "4"])
    return before != binary.stat().st_mtime_ns


def ratio(num, den):
    return num / den if den else 0.0


def measured_speedup(doc):
    """The workload's simulated speedup over its baseline."""
    return ratio(doc["baseline"]["runtime_ps"], doc["reps"][0]["sim"]["headline_runtime_ps"])


def fidelity_speedup(doc):
    """The speedup paper_err compares with the paper's figure."""
    base = doc["baseline"]
    if base["fig_m2ndp_ps"]:  # dlrm_4dev: Fig. 10c's one-device point
        return ratio(base["fig_gpu_ps"], base["fig_m2ndp_ps"])
    return measured_speedup(doc)


def paper_err(doc):
    return abs(math.log(fidelity_speedup(doc) / doc["info"]["paper"]))


def check(doc, ref_path, binary_hash):
    """Returns (problems, per-rep failed counts).

    Each rep must verify and reproduce the first rep's simulated values;
    dlrm_4dev's 2-thread rep must match its 1-thread reps. The first run of
    a seed with this binary is stored and later runs must match it.
    """
    problems = []
    reps = doc["reps"] + doc["extra"]
    first = reps[0]["sim"]  # every simulated value of the rep
    failed = []
    for i, rep in enumerate(reps):
        bad = False
        if not rep["verified"]:
            problems.append(f"rep {i}: verification failed")
            bad = True
        if rep["sim"] != first:
            diff = sorted(k for k in set(first["counters"]) | set(rep["sim"]["counters"])
                          if first["counters"].get(k) != rep["sim"]["counters"].get(k))
            problems.append(f"rep {i} (threads={rep['threads']}, traced={rep['traced']}): "
                            f"simulated values differ from rep 0: {diff[:8]}")
            bad = True
        failed.append(rep["attempted"] if bad else rep["failed"])
    if doc["baseline"]["mismatch"]:
        problems.append("baseline did not repeat")
    if not doc["baseline"]["ok"]:
        problems.append("baseline run did not complete")

    record = {"binary": binary_hash, "sim": first, "baseline": {
        k: v for k, v in doc["baseline"].items() if k != "mismatch"}}
    ref = json.loads(ref_path.read_text()) if ref_path.exists() else None
    if ref and ref["binary"] == binary_hash:
        if ref != record:
            problems.append(f"simulated values differ from the first run of "
                            f"this seed ({ref_path})")
            failed = [rep["attempted"] for rep in reps]
    else:
        ref_path.parent.mkdir(parents=True, exist_ok=True)
        ref_path.write_text(json.dumps(record))
    if problems and not any(failed):
        failed = [rep["attempted"] for rep in reps]
    return problems, failed


def end_to_end(doc):
    reps = doc["reps"]
    # Thread CPU time: the timed reps run one executor thread.
    rates = [ratio(r["sim"]["counters"]["ndp.instructions"], r["cpu_s"]["run"]) for r in reps]
    return {
        "sim_inst_per_s": (statistics.median(rates), "1/s"),
        "setup_s": (statistics.median(doc["setups"]), "s"),
        "peak_rss_mb": (doc["peak_rss_kb"] / 1024.0, "MB"),
        "paper_err": (paper_err(doc), "ln"),
    }


def per_layer(doc):
    untraced = doc["reps"][0]  # one executor thread, like the traced rep
    traced = doc["extra"][-1]
    parallel = doc["extra"][0] if len(doc["extra"]) > 1 else None  # 2 threads
    c = traced["sim"]["counters"]
    sim = traced["sim"]
    hot = traced["hot"]
    region_s = sim["region_ps"] * 1e-12

    def busy(rep):  # the rep's wall time without its baseline, which only rep 0 computes
        return rep["wall_s"]["whole"] - rep["wall_s"]["baseline"]

    def pct(part):
        return 100.0 * ratio(part, hot["total"])

    issue = pct(hot["issue"] - hot["functional"])
    functional = pct(hot["functional"])
    fill = pct(hot["fill"])
    l1l2 = lambda key: c["l1." + key] + c["l2." + key]
    m = {
        "ndp.issue_pct": (issue, "%"),
        "ndp.instructions": (c["ndp.instructions"], "count"),
        "ndp.issue_util": (ratio(c["ndp.issue_cycles"], c["ndp.active_cycles"]), "ratio"),
        "ndp.occupancy_avg": (ratio(c["ndp.occupancy_integral"], c["ndp.active_cycles"]), "slots"),
        "ndp.stall_mem_wait_frac": (ratio(c["ndp.stall_mem_wait"],
                                          c["ndp.active_cycles"] * c["ndp.subcores_per_unit"]),
                                    "ratio"),
        "ndp.load_latency_ns": (ratio(c["ndp.load_latency_ticks"], c["ndp.load_samples"]) / 1e3,
                                "ns"),
        "ndp.dtlb_hit_rate": (ratio(c["dtlb.hits"], c["dtlb.hits"] + c["dtlb.misses"]), "ratio"),
        "ndp.dtlb_fast_hit_rate": (ratio(c["dtlb.fast_hits"], c["dtlb.hits"]), "ratio"),
        "isa.functional_pct": (functional, "%"),
        "cache.fill_pct": (fill, "%"),
        "cache.l1_miss_rate": (ratio(c["l1.misses"], c["l1.accesses"]), "ratio"),
        "cache.l2_miss_rate": (ratio(c["l2.misses"], c["l2.accesses"]), "ratio"),
        "cache.mshr_merges": (l1l2("mshr_merges"), "count"),
        "cache.mshr_stalls": (l1l2("mshr_stalls"), "count"),
        "cache.packets_per_miss": (ratio(l1l2("miss_path_packets"), l1l2("miss_forwards")),
                                   "ratio"),
        "noc.flits": (c["noc.flits"], "count"),
        "noc.queueing_ns_per_flit": (ratio(c["noc.queueing_ticks"], c["noc.flits"]) / 1e3, "ns"),
        "dram.bytes": (c["dram.bytes"], "B"),
        "dram.row_hit_rate": (ratio(c["dram.row_hits"], c["dram.row_hits"] + c["dram.row_misses"]),
                              "ratio"),
        "dram.bw_util": (ratio(c["dram.bytes"], region_s * DRAM_PEAK_GBPS * 1e9 * doc["devices"]),
                         "ratio"),
        "host.launches": (c["runtime.launches"], "count"),
        "host.polls_per_launch": (ratio(c["runtime.polls"], c["runtime.launches"]), "ratio"),
        "host.peak_in_flight": (c["runtime.peak_in_flight"], "count"),
        "host.req_p50_ns": (sim["req_p50_ns"], "ns"),
        "host.req_p99_ns": (sim["req_p99_ns"], "ns"),
        "host.req_samples": (sim["req_samples"], "count"),
        "host.baseline_p95_ns": ((doc["baseline"]["runtime_ps"] / 1e3
                                  if doc["workload"] == "kvs_a" else 0.0), "ns"),
        "cxl.messages": (c["cxl.messages"], "count"),
        "cxl.bytes": (c["cxl.bytes"], "B"),
        "cxl.queueing_ns_per_msg": (ratio(c["cxl.queueing_ticks"], c["cxl.messages"]) / 1e3, "ns"),
        "device.m2func_calls": (c["device.m2func_calls"], "count"),
        "device.m2func_batched_stores": (c["device.m2func_batched_stores"], "count"),
        "device.host_writes": (c["device.host_writes"], "count"),
        "sim.events": (c["sim.events"], "count"),
        "sim.events_per_inst": (ratio(c["sim.events"], c["ndp.instructions"]), "ratio"),
        "sim.host_ns_per_event": (ratio(untraced["cpu_s"]["run"] * 1e9, c["sim.events"]), "ns"),
        # Every CXL message crosses between the host partition and a device
        # partition as one mailbox post; the engine has no public post count.
        "sim.cross_partition_posts": (c["cxl.messages"], "count"),
        "sim.parallel_speedup": ((ratio(untraced["wall_s"]["run"], parallel["wall_s"]["run"])
                                  if parallel else 1.0), "x"),
        "mem.footprint_mb": (c["mem.frames"] * PAGE_BYTES / 2**20, "MB"),
        "mem.packet_allocs": (traced["packet_allocs"], "count"),
        "workloads.generate_s": (untraced["cpu_s"]["generate"], "s"),
        "workloads.setup_call_s": (untraced["cpu_s"]["setup_call"], "s"),
        "system.sim_us": (sim["region_ps"] / 1e6, "us"),
        "system.speedup_vs_baseline": (measured_speedup(doc), "x"),
        "system.other_pct": (max(0.0, 100.0 - issue - functional - fill), "%"),
        "trace.overhead_s": (busy(traced) - busy(untraced), "s"),
    }
    return m


def write_trace(doc, path, metrics, run_id):
    """Chrome trace-event JSON: open in https://ui.perfetto.dev or chrome://tracing."""
    events = []
    for s in doc["spans"]:
        events.append({"name": s["name"], "ph": "X", "ts": s["start_us"], "dur": s["dur_us"],
                       "pid": 1, "tid": 1,
                       "args": {"run_id": run_id, "span": s["id"], "parent": s["parent"]}})
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"run_id": run_id, "workload": doc["workload"], "seed": doc["seed"],
                      "metrics": {k: v[0] for k, v in metrics.items()}},
    }))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds in (0, 60]")

    start = time.monotonic()
    root = Path(__file__).resolve().parent.parent
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    try:
        built = build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"perfbench: build failed: {e}")
        return 1
    limit = (FIRST_RUN_LIMIT_S if built else RUN_LIMIT_S) - (time.monotonic() - start)

    binary = build_dir / "perfbench"
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}-{int(time.time())}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=max(limit, 1))
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} did not finish within {limit:.0f} s")
        return 1
    if proc.returncode != 0:
        log(proc.stderr)
        log(f"perfbench: {args.workload} exited with {proc.returncode}")
        return 1
    doc = json.loads(proc.stdout)

    binary_hash = hashlib.sha256(binary.read_bytes()).hexdigest()
    ref_path = build_dir / "reference" / f"{args.workload}-seed{args.seed}.json"
    problems, failed = check(doc, ref_path, binary_hash)
    for p in problems:
        log("perfbench: MISMATCH:", p)

    reps = doc["reps"] + doc["extra"]
    attempted = sum(r["attempted"] for r in reps)
    n_failed = sum(failed)

    fidelity = {
        "workload": doc["workload"], "seed": doc["seed"], "input": doc["info"]["input"],
        "cache_state": doc["info"]["cache_state"], "figure": doc["info"]["figure"],
        "series": doc["info"]["series"], "paper": doc["info"]["paper"],
        "measured": fidelity_speedup(doc),
        "paper_err": paper_err(doc),
        "seed_use": doc["info"]["seed_use"],
        "speedup_vs_baseline": measured_speedup(doc),
    }
    print("fidelity: " + json.dumps(fidelity))

    if args.trace == 0:
        metrics = end_to_end(doc)
        metrics["success_ratio"] = (1.0 - ratio(n_failed, attempted), "ratio")
    else:
        metrics = per_layer(doc)
        trace_path = build_dir / "traces" / f"{run_id}.json"
        write_trace(doc, trace_path, metrics, run_id)
        print(f"trace: {trace_path}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {unit}")

    result = {
        "correct": not problems and n_failed == 0,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
