#!/usr/bin/env python3
"""Host-speed benchmark of the Flick simulator.

    python3 perfbench/run.py --workload roundtrip|bfs|storm --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. Builds the simulator and the driver
(perfbench.cpp) with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs one workload for S CPU seconds, checks its
outputs, prints a report, and prints as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the per-layer ones.

Host seconds are CPU seconds scaled to a reference host speed (see
calibration.hh); the report shows the raw figures beside them.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave nothing behind in the checkout

import spans as spanfile  # noqa: E402
import stats  # noqa: E402

WORKLOADS = ("roundtrip", "bfs", "storm")

# Paper references of paper_err_pct; storm's model has none.
PAPER_REFERENCE = {
    "roundtrip": "Table III: 18.3 us Host-NxP-Host, 16.9 us NxP-Host-NxP",
    "bfs": "Table IV: mean error of the three speedups 0.75x/1.19x/1.09x",
}

# Exact per-layer counts of one repetition's measured phase:
# (metric, counter, unit, what it should move).
COUNTS = [
    ("sim.events", "sim.events", "count", "all workloads"),
    ("isa.host.instructions", "isa.host.instructions", "count",
     "sim_mips on bfs"),
    ("isa.nxp.instructions", "isa.nxp.instructions", "count",
     "sim_mips on storm"),
    ("vm.walks", "vm.walks", "count", "sim_mips on bfs"),
    ("mem.routed_accesses", "mem.routed_accesses", "count",
     "sim_mips on bfs"),
    ("mem.pcie_accesses", "mem.pcie_accesses", "count", "sim_mips on bfs"),
    ("mem.dma.transfers", "mem.dma.transfers", "count",
     "crossings_per_host_s on roundtrip"),
    ("mem.dma.bytes", "mem.dma.bytes", "B",
     "crossings_per_host_s on roundtrip"),
    ("mem.irq.raised", "mem.irq.raised", "count",
     "crossings_per_host_s on roundtrip"),
    ("flick.crossings", "flick.crossings", "count",
     "crossings_per_host_s on every workload"),
    ("flick.retries", "flick.retries", "count", "must stay 0 (chaos off)"),
    ("flick.qos.shed", "flick.qos.shed", "count",
     "crossings_per_host_s on storm"),
    ("policy.rebalanced", "policy.rebalanced", "count",
     "crossings_per_host_s on storm"),
    ("os.nx_faults", "os.nx_faults", "count",
     "crossings_per_host_s on roundtrip"),
]

# Microbenchmarks: (metric, unit, counter giving its operation count per
# repetition, how many operations per counted event, what it moves).
LAYERS = [
    ("flick.descriptor.encode_ns", "ns", "flick.crossings", 2,
     "crossings_per_host_s on roundtrip, less on bfs, not storm"),
    ("flick.descriptor.verify_ns", "ns", "flick.crossings", 2,
     "crossings_per_host_s on roundtrip, less on bfs, not storm"),
    ("flick.descriptor.decode_ns", "ns", "flick.crossings", 2,
     "crossings_per_host_s on roundtrip, less on bfs, not storm"),
    ("sim.event.dispatch_ns.d4", "ns", "sim.events", 1,
     "crossings_per_host_s on roundtrip"),
    ("sim.event.dispatch_ns.d4096", "ns", "sim.events", 1,
     "crossings_per_host_s on storm"),
    ("sim.stats.inc_ns", "ns", "sim.stat_increments", 1,
     "every workload"),
    ("mem.sparse.read_ns", "ns", "mem.routed_accesses", 1,
     "sim_mips on bfs"),
    ("mem.route.read_ns.host_dram", "ns", "mem.host_dram_accesses", 1,
     "sim_mips on bfs"),
    ("mem.route.read_ns.nxp_local", "ns", "mem.nxp_local_accesses", 1,
     "sim_mips on bfs"),
    ("mem.route.read_ns.pcie", "ns", "mem.pcie_accesses", 1,
     "sim_mips on bfs"),
    ("vm.translate_ns.hit", "ns", "vm.tlb_hits", 1, "sim_mips on bfs"),
    ("vm.translate_ns.walk", "ns", "vm.walks", 1, "sim_mips on bfs"),
    ("isa.rv64.mips", "MIPS", "isa.nxp.instructions", 1,
     "sim_mips on storm"),
    ("isa.hx64.mips", "MIPS", "isa.host.instructions", 1,
     "sim_mips on bfs"),
    ("mem.dma.transfer_ns", "ns", "mem.dma.transfers", 1,
     "crossings_per_host_s on roundtrip"),
    ("policy.place_ns", "ns", "os.nx_faults", 1,
     "crossings_per_host_s on storm"),
]

SPANS = ["span.setup.construct", "span.setup.load", "span.setup.upload",
         "span.run.submit", "span.run.wait", "span.run.advance",
         "span.run.verify"]

# What each derived per-layer metric should move, on which workload.
MOVES = {
    "sim.host_ns_per_event": "crossings_per_host_s on roundtrip and storm",
    "isa.host.decode_hit_ratio": "sim_mips on bfs",
    "isa.nxp.decode_hit_ratio": "sim_mips on storm",
    "vm.host_tlb_miss_ratio": "sim_mips on bfs",
    "vm.nxp_tlb_miss_ratio": "sim_mips on bfs",
    "flick.batch.descriptors_per_doorbell": "crossings_per_host_s on storm",
    "flick.qos.admit_ratio": "crossings_per_host_s on storm",
    "span.setup.construct": "setup_s on every workload",
    "span.setup.load": "setup_s on every workload",
    "span.setup.upload": "setup_s on bfs",
    "span.run.submit": "crossings_per_host_s on storm (flick, qos, policy)",
    "span.run.wait": "every rate on roundtrip and bfs (the simulation)",
    "span.run.advance": "every rate on storm (the simulation)",
    "span.run.verify": "nothing (the benchmark's own checks)",
    "trace.overhead_pct": "nothing (cost of tracing the benchmark)",
}
MOVES.update({name: moves for name, _, _, moves in COUNTS})
MOVES.update({name: moves for name, _, _, _, moves in LAYERS})
MOVES.update({name + ".est_share": moves for name, _, _, _, moves in LAYERS})


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the driver; raises on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr)


def ratio(num, den, empty=0.0):
    return num / den if den else empty


def per_rep(raw, key, scaled=True, traced=False):
    """Per-repetition host seconds (`setup_s` or `run_s`).

    Scaled seconds are at the reference host speed: raw * nominal /
    the calibration kernel's mean time during that repetition.
    """
    nominal = raw["reference_nominal_s"]
    return [r[key] * (nominal / r["ref_s"] if scaled else 1.0)
            for r in raw["reps"] if r["traced"] == traced]


def end_to_end(raw):
    c = raw["counts"]
    run_s = per_rep(raw, "run_s")
    sim_s = c["sim.ticks"] / raw["ticks_per_second"]
    instructions = c["isa.host.instructions"] + c["isa.nxp.instructions"]
    series = {
        "crossings_per_host_s": ([c["flick.crossings"] / s for s in run_s],
                                 "1/s", "low"),
        "sim_mips": ([instructions / s / 1e6 for s in run_s], "MIPS",
                     "low"),
        "sim_s_per_host_s": ([sim_s / s for s in run_s], "s/s", "low"),
        "setup_s": (per_rep(raw, "setup_s"), "s", "high"),
    }
    metrics, report = {}, []
    for name, (values, unit, worse) in series.items():
        summary = stats.summarize(values, worse)
        metrics[name] = {"value": summary["median"], "unit": unit}
        report.append("%-22s %s" % (name, stats.describe(summary, " " + unit)))
    metrics["peak_rss_mb"] = {"value": raw["peak_rss_mb"], "unit": "MB"}
    report.append("%-22s %.6g MB" % ("peak_rss_mb", raw["peak_rss_mb"]))
    raw_run = stats.summarize(per_rep(raw, "run_s", scaled=False))
    report.append("%-22s %s (unscaled CPU time of one repetition)" % (
        "run_cpu_s", stats.describe(raw_run, " s")))
    return metrics, report


def per_layer(raw, spans_path):
    c = dict(raw["counts"])
    c["vm.tlb_hits"] = c["vm.host_tlb_hits"] + c["vm.nxp_tlb_hits"]
    run_untraced = stats.summarize(per_rep(raw, "run_s", scaled=False))
    run_ns = run_untraced["median"] * 1e9
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name, counter, unit, _ in COUNTS:
        put(name, c[counter], unit)
    put("sim.host_ns_per_event", ratio(run_ns, c["sim.events"]), "ns")
    for isa in ("host", "nxp"):
        decodes = sum(c["isa.%s.decode_%s" % (isa, k)]
                      for k in ("hits", "fills", "fallbacks"))
        put("isa.%s.decode_hit_ratio" % isa,
            ratio(c["isa.%s.decode_hits" % isa], decodes), "ratio")
        put("vm.%s_tlb_miss_ratio" % isa,
            ratio(c["vm.%s_tlb_misses" % isa],
                  c["vm.%s_tlb_hits" % isa] + c["vm.%s_tlb_misses" % isa]),
            "ratio")
    # Without batching every doorbell carries one descriptor.
    put("flick.batch.descriptors_per_doorbell",
        ratio(c["flick.doorbells"] + c["flick.batch_coalesced"],
              c["flick.doorbells"], 1.0), "ratio")
    # Admitted = let in at once or after queueing = submitted - shed;
    # without QoS every call is admitted.
    put("flick.qos.admit_ratio",
        ratio(c["flick.qos.submitted"] - c["flick.qos.shed"],
              c["flick.qos.submitted"], 1.0), "ratio")

    shares = {}
    for name, unit, counter, per_event, _ in LAYERS:
        summary = stats.summarize(raw["layers"][name],
                                  "low" if unit == "MIPS" else "high")
        ns_per_op = (1e3 / summary["median"] if unit == "MIPS"
                     else summary["median"])
        ops = c[counter] * per_event
        share = ratio(ns_per_op * ops, run_ns)
        put(name, summary["median"], unit)
        put(name + ".est_share", share, "ratio")
        shares[name] = (summary, ops, share)

    # Self time per traced repetition, in ms, of every span in the file;
    # "rep" is the benchmark's own loop, "calibrate" the speed samples.
    totals, counts = spanfile.self_times(spanfile.load(spans_path))
    self_ms = {"span." + k: ratio(v, counts.get("rep", 0)) / 1e3
               for k, v in sorted(totals.items())}
    for name in SPANS:
        put(name, self_ms.get(name, 0.0), "ms")
    traced = per_rep(raw, "run_s", traced=True)
    untraced = per_rep(raw, "run_s")
    overhead = 0.0
    if traced and untraced:
        t = stats.quartiles(traced)[1]
        u = stats.quartiles(untraced)[1]
        overhead = 100.0 * (t - u) / u
    put("trace.overhead_pct", overhead, "%")
    return metrics, attribution(raw, run_untraced, self_ms, shares)


def attribution(raw, run_untraced, self_ms, shares):
    """The per-workload table: span self times beside est_share."""
    rep_ms = sum(self_ms.values()) or 1.0
    lines = ["attribution for %s (one repetition: measured phase %.1f ms "
             "untraced, spans %.1f ms traced)" % (
                 raw["workload"], run_untraced["median"] * 1e3, rep_ms),
             "  %-24s %12s %8s" % ("span (self time)", "ms/rep", "share")]
    for name, ms in self_ms.items():
        lines.append("  %-24s %12.3f %7.1f%%" % (name, ms, 100 * ms / rep_ms))
    lines.append("  %-30s %12s %14s %10s  %s" % (
        "microbenchmark", "median", "ops/rep", "est_share", "moves"))
    for name, unit, _, _, moves in LAYERS:
        summary, ops, share = shares[name]
        lines.append("  %-30s %9.4g %-4s %12d %9.2f%%  %s" % (
            name, summary["median"], unit, ops, 100 * share, moves))
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = root.resolve() / "perfbench"
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 1

    tag = "%s-%d-%d" % (args.workload, args.seed, args.trace)
    out = build_dir / ("raw-%s.json" % tag)
    spans_path = build_dir / ("spans-%s.json" % tag)
    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out),
           "--spans", str(spans_path)]
    try:
        subprocess.run(cmd, check=True, timeout=150)
    except (OSError, subprocess.SubprocessError) as e:
        log("perfbench: run failed: %s" % e)
        return 1
    with open(out) as f:
        raw = json.load(f)

    print("perfbench %s seed %d: %d repetitions, %d checks, %d failed" % (
        args.workload, args.seed, len(raw["reps"]), raw["attempted"],
        raw["failed"]))
    errs = [e for r in raw["reps"] for e in r["paper_err_pct"]]
    if args.workload in PAPER_REFERENCE:
        print("paper_err_pct          %.4g %% (%s)" % (
            sum(errs) / len(errs), PAPER_REFERENCE[args.workload]))
    else:
        print("paper_err_pct          none: no paper reference, the %s "
              "model is unvalidated" % args.workload)
    for k, v in sorted(raw["sim"].items()):
        print("sim.%-30s %d" % (k, v))

    if args.trace:
        metrics, lines = per_layer(raw, spans_path)
        lines += ["%-40s %12.6g %-6s moves %s" % (
            k, v["value"], v["unit"], MOVES[k])
            for k, v in sorted(metrics.items())]
    else:
        metrics, lines = end_to_end(raw)
    print("\n".join(lines))
    print(json.dumps({"correct": raw["failed"] == 0,
                      "attempted": raw["attempted"],
                      "failed": raw["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
