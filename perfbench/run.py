#!/usr/bin/env python3
"""Campaign benchmark of mkos: builds the harness from source, runs one
workload, checks its outputs and prints the metrics as one JSON line.

    python3 perfbench/run.py --workload fig4 --seed 1 --seconds 45 --trace 0

Workloads: fig4, numa_lookup (see perfbench/README.md).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones from
a separate traced run. The build goes to .bench_build/ at the repository
root; the last line of standard output is the result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import stats  # noqa: E402

WORKLOADS = ("fig4", "numa_lookup")
# Extra harness processes that only set up and run the golden pass: with the
# main run they give nine set-up samples (process start to first dispatch).
SETUP_PROBES = 8
# Passes are grouped in rounds of this many; timings are the median over
# rounds of each round's fastest pass.
ROUND = 3

END_TO_END = {
    "campaign_s": "s",
    "campaign_pooled_s": "s",
    "warm_s": "s",
    "cell_ms_p50": "ms",
    "cell_ms_p99": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Span layers whose self time is reported per pass, in ms.
LAYERS = (
    "hw.machine", "kernel.job", "workloads.setup", "runtime.world",
    "workloads.run", "alloc.init", "alloc.drain", "obs.record", "obs.merge",
    "obs.to_json", "core.store_save", "core.store_load",
)
# Spans outside the timed campaign passes: the per-cell bookkeeping parent,
# the store writes between the cold and the warm pass, and the serialization
# after them.
NOT_IN_CAMPAIGN = ("core.cell", "core.store_save", "obs.to_json")

COUNTS = {
    "runtime.heap_replay_frac": "ratio",
    "runtime.coll_cache_hit_frac": "ratio",
    "runtime.msg_cache_hit_frac": "ratio",
    "runtime.noise_draws": "count",
    "heap.brk_calls": "count",
    "mem.faults": "count",
    "alloc.vmem_allocs": "count",
    "alloc.magazine_hit_frac": "ratio",
    "alloc.depot_loads": "count",
    "alloc.slab_creates": "count",
    "core.reps_simulated": "count",
    "core.cache_hit_frac": "ratio",
    "core.store_hit_frac": "ratio",
    "core.store_bytes_written": "bytes",
    "core.store_bytes_read": "bytes",
    "obs.ledger_bytes": "bytes",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build the harness (incremental)."""
    cache = build_dir / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in cache.read_text():
        shutil.rmtree(build_dir)  # configured from another checkout
    if not cache.exists():
        try:
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                            "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
        except subprocess.CalledProcessError:
            shutil.rmtree(build_dir, ignore_errors=True)  # no half-configured cache
            raise
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "mkos_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return build_dir / "mkos_perfbench"


def end_to_end(raw, setup_samples):
    per_pass = raw["per_pass"]
    samples = {"setup_s": setup_samples}
    for name in ("campaign_s", "campaign_pooled_s", "warm_s"):
        values = per_pass[name]
        samples[name] = [values[i] for i in stats.round_minima(values, ROUND)]
    cell_ms = [ms for pass_cells in raw["cell_ms"] for ms in pass_cells]
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    p50_used, metrics["cell_ms_p50"] = stats.tail_percentile(cell_ms, 0.50)
    p99_used, metrics["cell_ms_p99"] = stats.tail_percentile(cell_ms, 0.99)
    metrics["peak_rss_mb"] = raw["peak_rss_mb"]
    log(f"passes={raw['passes']} rounds={len(samples['campaign_s'])} "
        f"cells timed={len(cell_ms)} percentiles used: p{100 * p50_used:.2f}, "
        f"p{100 * p99_used:.2f}")
    for name, values in samples.items():
        q1, q2, q3 = stats.quartiles(values)
        log(f"  {name}: median {q2:.6g} (Q1 {q1:.6g}, Q3 {q3:.6g}, n={len(values)})")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}


def run_harness(exe, args, seconds, out_dir):
    """One harness process; adds its set-up time, measured from the spawn
    (both clocks are CLOCK_MONOTONIC) to its first dispatched cell."""
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace), "--out", str(out_dir)]
    spawned_ns = time.monotonic_ns()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=seconds * 4 + 60)
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    raw["setup_s"] = (raw["first_dispatch_ns"] - spawned_ns) / 1e9
    return raw


def golden_failures(raw, golden):
    """Cells of the golden pass, when its FOM digest is not the recorded one."""
    if golden.get("seed") == raw["golden"]["seed"] and golden.get("digest") == raw["golden"]["digest"]:
        return 0
    log(f"perfbench: FOM digest {raw['golden']['digest']} at seed "
        f"{raw['golden']['seed']} does not match perfbench/golden.json")
    return raw["golden"]["cells"]


def layer_self_ms(path):
    """Per pass, each layer's summed self time in ms. The span file lists a
    pass's spans together, so one pass is held in memory at a time."""
    out = {}

    def flush(pass_, spans, layer_of):
        totals = defaultdict(float)
        for sid, self_ns in stats.self_times(spans).items():
            totals[layer_of[sid]] += self_ns / 1e6
        out[pass_] = totals

    current, spans, layer_of = None, {}, {}
    with open(path) as f:
        next(f)  # header
        for line in f:
            pass_, sid, parent, layer, _cell, start, end = line.split("\t")
            if pass_ != current:
                if spans:
                    flush(int(current), spans, layer_of)
                current, spans, layer_of = pass_, {}, {}
            spans[sid] = (parent, int(start), int(end))
            layer_of[sid] = layer
    if spans:
        flush(int(current), spans, layer_of)
    return out


def per_layer(raw):
    per_pass = raw["per_pass"]
    layer_ms = defaultdict(list)
    residual_ms = []
    for pass_, totals in sorted(layer_self_ms(raw["spans"]).items()):
        for layer in LAYERS:
            layer_ms[layer].append(totals[layer])
        in_campaign = sum(ms for layer, ms in totals.items() if layer not in NOT_IN_CAMPAIGN)
        residual_ms.append(1e3 * per_pass["untraced_s"][pass_] - in_campaign)
    metrics = {f"{layer}_ms": (statistics.median(values), "ms") for layer, values in layer_ms.items()}
    metrics["core.residual_ms"] = (statistics.median(residual_ms), "ms")
    overhead = [1e3 * (t - u) for t, u in zip(per_pass["traced_s"], per_pass["untraced_s"])]
    metrics["trace.overhead_ms"] = (statistics.median(overhead), "ms")
    metrics["sim.pool_busy_frac"] = (statistics.median(per_pass["busy_frac"]), "ratio")
    for name, unit in COUNTS.items():
        metrics[name] = (raw["counts"][name], unit)
    traced = sum(statistics.median(v) for layer, v in layer_ms.items() if layer not in NOT_IN_CAMPAIGN)
    setup = sum(statistics.median(layer_ms[x]) for x in
                ("hw.machine", "kernel.job", "workloads.setup", "runtime.world"))
    log(f"passes={raw['passes']} setup layers {100 * stats.ratio(setup, traced):.1f}% and "
        f"workloads.run {100 * stats.ratio(statistics.median(layer_ms['workloads.run']), traced):.1f}% "
        f"of the traced campaign passes")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = HERE.parent
    build_root = root / ".bench_build"
    try:
        exe = build(build_root / "perfbench")
    except (subprocess.CalledProcessError, OSError) as err:
        log(f"perfbench: build failed: {err}")
        return 1

    out_dir = build_root / "runs" / f"{args.workload}-{os.getpid()}"
    try:
        probes = [] if args.trace else [run_harness(exe, args, 0, out_dir / f"probe{i}")
                                        for i in range(SETUP_PROBES)]
        raw = run_harness(exe, args, args.seconds, out_dir / "main")
        log(f"host: {json.dumps(raw['host'])}")
        if args.trace:
            metrics = per_layer(raw)
        else:
            metrics = end_to_end(raw, [r["setup_s"] for r in probes + [raw]])
    except (subprocess.SubprocessError, OSError, ValueError, KeyError, IndexError) as err:
        log(f"perfbench: harness run failed: {err}")
        return 1
    finally:
        if args.trace and (out_dir / "main" / "spans.tsv").exists():
            trace_dir = build_root / "trace"
            trace_dir.mkdir(exist_ok=True)
            shutil.move(str(out_dir / "main" / "spans.tsv"), trace_dir / f"{args.workload}.spans.tsv")
        shutil.rmtree(out_dir, ignore_errors=True)

    golden = json.loads((HERE / "golden.json").read_text()).get(args.workload, {})
    attempted = failed = 0
    for r in probes + [raw]:
        attempted += r["attempted"]
        failed += r["failed"] + golden_failures(r, golden)
        if r["failed"]:
            log(f"perfbench: check failures {json.dumps(r['check_failures'])}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
