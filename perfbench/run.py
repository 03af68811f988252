#!/usr/bin/env python3
"""Whole-campaign host-time benchmark of the TopoShot reproduction.

Builds perfbench/hostbench from the checkout's own sources (CMake Release,
into .bench_build/perfbench), runs one workload, checks its outputs and
prints every metric with its unit, then one JSON result line:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 25 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 runs the traced variant,
prints the per-layer metrics and writes a Chrome trace under
.bench_build/traces/. The exit status is 0 only when every output check and
the determinism check passed. Metric definitions: perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import summary  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("campaign", "discover", "monitor")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"

# name -> unit, in print order.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "pairs_per_s": "1/s",
    "epoch_s.p50": "s",
    "rpc_us.p90": "us",
    "precision": "frac",
    "recall": "frac",
    "detect_rate": "frac",
}

RPC_METHODS = ("topo_getSnapshot", "topo_getDiff", "topo_getStatus", "topo_getHealth",
               "topo_getMetrics")
EVENT_KINDS = ("closure", "deliver_tx", "deliver_announce", "deliver_get_tx", "fetch_timeout",
               "mine_tick", "block_commit", "maintenance", "regossip", "campaign_step",
               "deliver_tx_batch")
# Span names whose per-pass self time is a per-layer metric.
SPAN_METRICS = {
    "exec.campaign_s": "exec.run_sharded_campaign",
    "core.scout_build_s": "core.scout_build",
    "core.warm_s": "core.warm",
    "core.preprocess_s": "core.preprocess",
    "core.snapshot_s": "core.snapshot",
    "core.fork_s": "core.fork",
    "disc.emerge_s": "disc.emerge_topology",
    "graph.distance_s": "graph.distance",
    "graph.clustering_s": "graph.clustering",
    "graph.louvain_s": "graph.louvain",
    "graph.cliques_s": "graph.cliques",
    "graph.baselines_s": "graph.baselines",
    "monitor.bootstrap_s": "monitor.bootstrap",
}
# Counts the program publishes (obs::MetricsSnapshot), reported as they are.
PUBLISHED_COUNTS = (
    ["probe.runs", "probe.parallel.runs", "probe.txs_injected", "probe.verdicts.connected",
     "probe.verdicts.negative", "probe.verdicts.inconclusive", "sim.events_processed"]
    + ["sim.dispatch." + k for k in EVENT_KINDS]
    + ["sim.queue_high_water", "net.messages", "net.messages.tx", "net.bytes",
       "net.arena_peak", "mempool.admits.pending", "mempool.admits.future",
       "mempool.replacements", "mempool.rejects", "mempool.evictions",
       "mempool.index.compactions", "mempool.index.tombstone_peak", "obs.trace.dropped"])
# Values hostbench measures per pass beside the spans.
PASS_VALUES = {
    "exec.batches": "count",
    "exec.shards": "count",
    "exec.makespan_sim_s": "sim_s",
    "disc.edges": "count",
    "monitor.epoch_sim_s": "sim_s",
    "monitor.budget_utilization": "frac",
}


def per_layer_units():
    """Every per-layer metric name -> unit, in print order."""
    units = {name: "s" for name in SPAN_METRICS}
    units.update(PASS_VALUES)
    units.update({name: ("bytes" if name == "net.bytes" else "count")
                  for name in PUBLISHED_COUNTS})
    units.update({
        "probe.resolve_ratio": "frac",
        "sim.ns_per_event": "ns",
        "p2p.us_per_delivery": "us",
        "p2p.useful_delivery_ratio": "frac",
        "monitor.epoch_growth": "frac",
        "rpc.latency_us.p50": "us",
        "rpc.latency_us.p99": "us",
        "rpc.errors": "count",
        "rpc.lateness_ms": "ms",
        "obs.trace_overhead_frac": "frac",
    })
    for m in RPC_METHODS:
        units[f"rpc.handle_us.{m}.p50"] = "us"
        units[f"rpc.handle_us.{m}.p90"] = "us"
        units[f"rpc.response_bytes.{m}"] = "bytes"
    return units


PER_LAYER = per_layer_units()


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(root):
    """Configures (once) and builds hostbench; returns its path or None."""
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "hostbench", "-j", BUILD_JOBS])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build step failed:", " ".join(cmd))
            return None
    return os.path.join(build_dir, "hostbench")


def run_hostbench(binary, args):
    """Runs hostbench and returns its JSON document, or None on failure."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log(f"perfbench: hostbench exceeded {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: hostbench exited with {proc.returncode}")
        return None
    return json.loads(lines[-1])


def seeded_values(p):
    return {"counts": p["counts"], "digest": p["digest"], "pairs": p["pairs"]}


def ledger_check(root, binary, doc):
    """Cross-run determinism: (errors, warnings).

    The seeded values of a (workload, seed) must match what earlier runs of
    the same binary recorded; a mismatch is an error. Each binary keeps its
    own entry, so runs of two builds that alternate in one checkout still
    compare each build with itself. A build whose seeded values differ from
    another build's gets a warning: a pure speed-up leaves them unchanged, a
    trajectory change does not.
    """
    with open(binary, "rb") as f:
        binary_id = hashlib.sha256(f.read()).hexdigest()[:12]
    ledger_dir = os.path.join(root, ".bench_build", "ledger")
    os.makedirs(ledger_dir, exist_ok=True)
    stem = f"{doc['workload']}-seed{doc['seed']}-"
    seeded = seeded_values(doc["passes"][0])
    errors, warnings = [], []
    for name in sorted(os.listdir(ledger_dir)):
        if not (name.startswith(stem) and name.endswith(".json")):
            continue
        with open(os.path.join(ledger_dir, name)) as f:
            old = json.load(f)
        if old == seeded:
            continue
        other = name[len(stem):-len(".json")]
        if other == binary_id:
            errors.append("seeded counts or digest differ from an earlier run of this seed")
        else:
            warnings.append(f"seeded counts or digest differ from build {other}: "
                            "the trajectory changed")
    path = os.path.join(ledger_dir, f"{stem}{binary_id}.json")
    if not os.path.exists(path):
        with open(path, "w") as f:
            json.dump(seeded, f)
    return errors, warnings


def end_to_end(passes, peak_rss_mb):
    """Every end-to-end metric -> (value, note); value None = not reportable."""
    setup = [s for p in passes for s in p["setup_s"]]
    walls = [p["wall_s"] for p in passes]
    epochs = [e for p in passes for e in p["epoch_s"]]
    rpc = [r for p in passes for r in p["rpc_us"]]
    first = passes[0]
    return {
        "setup_s": (summary.median(setup), f"median of n={len(setup)} set-ups"),
        "wall_s": (summary.median(walls), f"median of n={len(walls)} timed passes"),
        "peak_rss_mb": (peak_rss_mb, "VmHWM of the run"),
        "pairs_per_s": (summary.median([p["pairs"] / p["wall_s"] for p in passes]),
                        f"{first['pairs']} pairs per pass"),
        "epoch_s.p50": (summary.median(epochs), summary.describe(epochs, "s", 0.9)),
        "rpc_us.p90": (summary.tail_percentile(rpc, 0.9), summary.describe(rpc, "us", 0.9)),
        "precision": (first["precision"], "seeded"),
        "recall": (first["recall"], "seeded"),
        "detect_rate": (first["detect_rate"], "seeded"),
    }


def growth(epoch_s):
    """Median host epoch time of the last third over that of the first."""
    third = len(epoch_s) // 3
    if third < 2:
        return 0.0
    return summary.ratio(summary.median(epoch_s[-third:]), summary.median(epoch_s[:third]))


def per_layer(passes):
    """Every per-layer metric -> (value, note)."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    counts = passes[0]["counts"]
    out = {}
    for name, span in SPAN_METRICS.items():
        out[name] = (summary.median([p["span_self_s"].get(span, 0.0) for p in traced]),
                     f"span self time, median of {len(traced)} traced passes")
    for name in PASS_VALUES:
        out[name] = (passes[0]["layer"].get(name, 0.0), "")
    for name in PUBLISHED_COUNTS:
        out[name] = (counts.get(name, 0.0), "published count")

    def c(name):
        return counts.get(name, 0.0)

    decisive = c("probe.verdicts.connected") + c("probe.verdicts.negative")
    verdicts = decisive + c("probe.verdicts.inconclusive")
    out["probe.resolve_ratio"] = (summary.ratio(decisive, verdicts),
                                  summary.format_ratio(decisive, verdicts, "verdicts"))
    # Inclusive host time of the calls that drive the simulator.
    sim_host = sum(summary.median([p["span_self_s"].get(s, 0.0) for p in traced])
                   for s in ("exec.run_sharded_campaign", "monitor.bootstrap",
                             "monitor.run_epoch"))
    events = c("sim.events_processed")
    out["sim.ns_per_event"] = (summary.ratio(sim_host * 1e9, events),
                               f"inclusive; base {events:.6g} events")
    tx = c("net.messages.tx")
    out["p2p.us_per_delivery"] = (summary.ratio(out["exec.campaign_s"][0] * 1e6, tx),
                                  f"inclusive; base {tx:.6g} tx deliveries")
    useful = c("mempool.admits.pending") + c("mempool.admits.future") + c("mempool.replacements")
    out["p2p.useful_delivery_ratio"] = (summary.ratio(useful, tx),
                                        summary.format_ratio(useful, tx, "net.messages.tx"))
    epoch_growths = [growth(p["epoch_s"]) for p in passes]
    out["monitor.epoch_growth"] = (summary.median(epoch_growths),
                                   f"median of {len(passes)} passes")

    errors = 0
    for m in RPC_METHODS:
        us = [x for p in passes for x in p["methods"].get(m, {}).get("us", [])]
        n = len(us)
        nbytes = sum(p["methods"].get(m, {}).get("bytes", 0) for p in passes)
        errors += sum(p["methods"].get(m, {}).get("errors", 0) for p in passes)
        out[f"rpc.handle_us.{m}.p50"] = (summary.median(us) if us else 0.0, f"n={n}")
        out[f"rpc.handle_us.{m}.p90"] = (summary.tail_percentile(us, 0.9) or 0.0, f"n={n}")
        out[f"rpc.response_bytes.{m}"] = (summary.ratio(nbytes, n), f"mean of n={n}")
    rpc = [x for p in passes for x in p["rpc_us"]]
    out["rpc.latency_us.p50"] = (summary.median(rpc) if rpc else 0.0, f"n={len(rpc)}")
    out["rpc.latency_us.p99"] = (summary.tail_percentile(rpc, 0.99) or 0.0,
                                 "from due time, " + summary.describe(rpc, "us"))
    out["rpc.errors"] = (errors, "")
    late = [x for p in passes for x in p["rpc_lateness_ms"]]
    out["rpc.lateness_ms"] = (summary.tail_percentile(late, 0.99) or 0.0,
                              "p99, " + summary.describe(late, "ms"))
    walls_t = [p["wall_s"] for p in traced]
    walls_u = [p["wall_s"] for p in untraced]
    out["obs.trace_overhead_frac"] = (
        summary.median(walls_t) / summary.median(walls_u) - 1.0,
        f"traced vs untraced wall_s, {len(walls_t)} vs {len(walls_u)} passes")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    binary = build(root)
    if binary is None:
        return 2
    hb_args = [f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}"]
    trace_path = None
    if args.trace:
        trace_dir = os.path.join(root, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")
        hb_args.append(f"--trace-out={trace_path}")
    doc = run_hostbench(binary, hb_args)
    if doc is None:
        return 2
    passes = doc["passes"]

    # Output checks and operations of every pass, plus the cross-run
    # determinism check as one more attempted check.
    attempted, failed, _ = summary.fail_frac(passes)
    errors = [e for p in passes for e in p["errors"]]
    ledger, warnings = ledger_check(root, binary, doc)
    errors += ledger
    attempted, failed = attempted + 1, failed + (1 if ledger else 0)
    frac = failed / attempted

    if args.trace:
        table, units = per_layer(passes), PER_LAYER
    else:
        table, units = end_to_end(passes, doc["peak_rss_mb"]), END_TO_END
    errors += [f"{name}: not reportable ({table[name][1]})"
               for name in units if table[name][0] is None]

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} passes, digest {passes[0]['digest']}")
    for name, unit in units.items():
        value, note = table[name]
        print(f"{name:40s} {value!s:>22} {unit:6s} {note}")
    print(f"{'fail_frac':40s} {frac:>22.6g} {'frac':6s} {failed} / {attempted} operations")
    if args.workload == "campaign":
        pf = passes[0]["counts"].get("report.pair_failures", 0.0)
        print(f"{'pair fail_frac':40s} "
              f"{summary.format_ratio(pf, passes[0]['pairs'], 'pairs (wrong or inconclusive)')}")
    if trace_path:
        print(f"# trace: {os.path.relpath(trace_path, root)}")
    for w in warnings:
        print(f"# WARNING: {w}")
    for e in errors:
        print(f"# FAILED: {e}")

    correct = not errors and failed == 0
    result = {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": table[name][0], "unit": unit}
                    for name, unit in units.items() if table[name][0] is not None},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
