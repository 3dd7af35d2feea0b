#!/usr/bin/env python3
"""CloudIQ benchmark: builds cloudiq_bench, runs one workload, checks its
outputs and prints every metric by name with its unit.

    python3 perfbench/run.py --workload tpch_warm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 7      # every workload
    python3 perfbench/run.py --record-digests            # refresh digests.json
    python3 perfbench/run.py --selftest                  # digest self-test

Run from the root of a CloudIQ checkout. cloudiq_bench is built from the
checkout's sources into .bench_build/perfbench; raw outputs, results and
traces land in .bench_build/perfbench-out. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. Any correctness failure makes the exit code nonzero.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench_lib  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
BENCH_BIN = os.path.join(BUILD, "cloudiq_bench")
DIGESTS = os.path.join(HERE, "digests.json")

WORKLOADS = ("tpch_warm", "tpch_cold", "page_churn", "tenant_mix")
READ_WORKLOADS = ("tpch_warm", "tpch_cold")

# (name, unit, better)
END_TO_END = [
    ("op_ref_ms_p50", "ms", "lower"),
    ("op_ref_ms_p95", "ms", "lower"),
    ("ops_per_ref_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("rss_mb", "MB", "lower"),
    ("sim_s", "s", "lower"),
    ("usd", "USD", "lower"),
    ("space_amp", "ratio", "lower"),
]

# Host times are process CPU times scaled to a machine on which the
# SpeedReference kernel (perfbench/cpp/harness.h) takes this long: its
# median on the 4-core Xeon VM the benchmark was written on.
SPEED_REF_NOMINAL_MS = 2.9

WAIT_CLASSES = ("cpu_exec", "lock_wait", "admission_queue", "buffer_fill",
                "ocm_fetch", "ocm_upload", "network_transfer",
                "throttle_backoff", "ndp_select")

PER_LAYER = (
    [("tpch.gen_ns_per_row", "ns", "lower"),
     ("tpch.load_s", "s", "lower"),
     ("tpch.load_rows_per_s", "rows/s", "higher")]
    + [("tpch.query_ms.Q%d" % q, "ms", "lower") for q in range(1, 23)]
    + [("exec.scan_ns_per_value", "ns", "lower"),
       ("exec.filter_ns_per_row", "ns", "lower"),
       ("exec.join_ns_per_row", "ns", "lower"),
       ("exec.agg_ns_per_row", "ns", "lower"),
       ("exec.sort_ns_per_row", "ns", "lower"),
       ("exec.scan_speedup", "x", "higher"),
       ("exec.morsels", "count", "lower"),
       ("exec.parallel_sections", "count", "lower"),
       ("columnar.decode_ns_per_value", "ns", "lower"),
       ("columnar.decode_ns_per_byte", "ns", "lower"),
       ("columnar.encode_ns_per_value", "ns", "lower"),
       ("columnar.fetch_us_per_page", "us", "lower"),
       ("store.page_decode_ns_per_byte", "ns", "lower"),
       ("store.page_encode_ns_per_byte", "ns", "lower"),
       ("store.pages_read", "count", "lower"),
       ("store.pages_written", "count", "lower"),
       ("store.encoded_per_raw", "ratio", "lower"),
       ("store.retries", "count", "lower"),
       ("buffer.hits", "count", "higher"),
       ("buffer.misses", "count", "lower"),
       ("buffer.hit_ratio", "ratio", "higher"),
       ("buffer.commit_flushes", "count", "lower"),
       ("buffer.churn_flushes", "count", "lower"),
       ("ocm.hits", "count", "higher"),
       ("ocm.misses", "count", "lower"),
       ("ocm.hit_ratio", "ratio", "higher"),
       ("ocm.evictions", "count", "lower"),
       ("ocm.bg_uploads", "count", "lower"),
       ("sim.gets", "count", "lower"),
       ("sim.ranged_gets", "count", "lower"),
       ("sim.puts", "count", "lower"),
       ("sim.deletes", "count", "lower"),
       ("sim.throttle_events", "count", "lower"),
       ("sim.not_found_races", "count", "lower"),
       ("sim.stale_reads", "count", "lower"),
       ("sim.data_overwrites", "count", "lower"),
       ("sim.live_mb", "MB", "lower"),
       ("sim.query_p95_s", "s", "lower")]
    + [("stall.%s_s" % c, "s", "lower") for c in WAIT_CLASSES]
    + [("stall.background_s", "s", "lower"),
       ("keygen.range_fetches", "count", "lower"),
       ("keygen.keys_per_fetch", "count", "higher"),
       ("txn.commits", "count", "higher"),
       ("txn.commit_call_ms_p50", "ms", "lower"),
       ("txn.gc_ms", "ms", "lower"),
       ("txn.gc_pages_deleted", "count", "higher"),
       ("txn.chain_length_max", "count", "lower"),
       ("blockmap.puts_per_page_write", "count", "lower"),
       ("snapshot.take_ms", "ms", "lower"),
       ("snapshot.collect_expired_ms", "ms", "lower"),
       ("snapshot.retained_pages", "count", "lower"),
       ("snapshot.metadata_overwrites", "count", "lower"),
       ("engine.recover_ms", "ms", "lower"),
       ("engine.consistency_check_ms", "ms", "lower"),
       ("engine.unreadable_pages", "count", "lower"),
       ("engine.leaked_objects", "count", "lower"),
       ("workload.steps", "count", "lower"),
       ("workload.host_us_per_step", "us", "lower"),
       ("workload.queue_wait_p95_s", "s", "lower"),
       ("workload.shed", "count", "lower"),
       ("workload.fairness", "ratio", "higher"),
       ("multiplex.sync_catalogs_ms", "ms", "lower"),
       ("telemetry.ledger_entries", "count", "lower"),
       ("bench.trace_overhead", "ratio", "lower"),
       ("bench.error_rate", "ratio", "lower")])

# Per-layer metrics read from span durations (median, in the unit given).
SPAN_METRICS = {
    "txn.commit_call_ms_p50": "txn.Commit",
    "snapshot.take_ms": "snapshot.TakeSnapshot",
    "snapshot.collect_expired_ms": "snapshot.CollectExpired",
    "engine.recover_ms": "engine.CrashAndRecover",
    "engine.consistency_check_ms": "engine.CheckConsistency",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds cloudiq_bench; False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_build", "perfbench-build.log")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "a") as build_log:
        steps = [["cmake", "-S", HERE, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                 ["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "cloudiq_bench"]]
        for cmd in steps:
            try:
                result = subprocess.run(cmd, stdout=build_log,
                                        stderr=subprocess.STDOUT, env=env,
                                        timeout=840)
            except (OSError, subprocess.TimeoutExpired) as e:
                log("build step failed: %s: %s" % (" ".join(cmd), e))
                return False
            if result.returncode != 0:
                log("build failed (%s); see %s" % (" ".join(cmd), log_path))
                return False
    return os.path.exists(BENCH_BIN)


def cmake_cache():
    values = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    values[key.split(":", 1)[0]] = value
    except OSError:
        pass
    return values


def source_digest():
    """sha256 over the program and benchmark sources (the checkout need not
    be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in sorted(os.walk(base)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cc", ".h", ".txt", ".py", ".json")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def provenance(raw):
    cache = cmake_cache()
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        version = compiler
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(x for x in (
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), ""),
        "-Wall -Wextra -std=c++20") if x)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    prov = dict(raw.get("provenance", {}))
    prov.update({"compiler": version, "build_type": build_type,
                 "flags": flags, "commit": commit,
                 "source_digest": source_digest(),
                 "seed": raw["seed"], "data_variant": raw["data_variant"],
                 "speed_ref_ms": bench_lib.median(
                     [ms for group in raw["setup_speed_ms"] +
                      raw["timed_speed_ms"] for ms in group]),
                 "speed_ref_nominal_ms": SPEED_REF_NOMINAL_MS})
    return prov


def load_digests():
    try:
        with open(DIGESTS) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def check(raw):
    """Returns (attempted, failed, notes) after every correctness rule."""
    attempted = raw["attempted"]
    failed = raw["failed"]
    notes = ["%s: %s" % (c["name"], c["detail"])
             for c in raw["checks"] if not c["ok"]]
    bad = bench_lib.stall_sum_mismatches(raw["stalls"])
    attempted += len(raw["stalls"])
    failed += len(bad)
    notes += ["stall sum != sim: %s" % row for row in bad[:5]]
    if raw["workload"] in READ_WORKLOADS:
        recorded = load_digests()
        variant = str(raw["data_variant"])
        if recorded is None or variant not in recorded.get("variants", {}):
            attempted += 1
            failed += 1
            notes.append("no recorded digests for data variant " + variant)
        else:
            n, fails = bench_lib.digest_mismatches(
                raw["digests"], recorded["variants"][variant])
            attempted += n
            failed += len(fails)
            notes += fails
    return attempted, failed, notes


def end_to_end(raw):
    intervals = bench_lib.at_reference_speed(
        raw["op_cpu_ms"], raw["timed_speed_ms"], SPEED_REF_NOMINAL_MS)
    ops = [ms for interval in intervals for ms in interval]
    timed_s = sum(bench_lib.at_reference_speed(
        raw["interval_cpu_s"], raw["timed_speed_ms"], SPEED_REF_NOMINAL_MS))
    setup_s = bench_lib.at_reference_speed(
        raw["setup_s"], raw["setup_speed_ms"], SPEED_REF_NOMINAL_MS)
    supported = bench_lib.highest_supported_percentile(len(ops))
    if supported is None or supported < 95:
        log("warning: %d operations support only p%s" % (len(ops), supported))
    return {
        "op_ref_ms_p50": bench_lib.percentile(ops, 50),
        "op_ref_ms_p95": bench_lib.percentile(ops, 95),
        "ops_per_ref_s": len(ops) / timed_s,
        "setup_s": bench_lib.median(setup_s),
        "rss_mb": raw["rss_mb"],
        "sim_s": raw["sim_s"],
        "usd": raw["usd"],
        "space_amp": raw["space_amp"],
    }


def per_layer(raw, attempted, failed, trace_path):
    values = dict(raw["layers"])
    names = raw["span_counters"]
    spans = [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
              "op": s[4], "deltas": s[5:]} for s in raw["spans"]]
    table = bench_lib.span_table(spans)
    for q in range(1, 23):
        row = table.get("tpch.RunTpchQuery.Q%d" % q)
        values["tpch.query_ms.Q%d" % q] = (
            bench_lib.median(row["durations_ms"]) if row else 0.0)
    for metric, span in SPAN_METRICS.items():
        row = table.get(span)
        if row:
            values[metric] = bench_lib.median(row["durations_ms"])
    values["tpch.load_s"] = bench_lib.median(
        [l["host_s"] for l in raw["setup_loads"]])
    values["tpch.load_rows_per_s"] = bench_lib.load_rows_per_s(
        raw["round_loads"] or raw["setup_loads"])
    if raw["sim_latencies_s"]:
        values["sim.query_p95_s"] = bench_lib.percentile(
            raw["sim_latencies_s"], 95)
    if raw["gc_ms"]:
        values["txn.gc_ms"] = bench_lib.median(raw["gc_ms"])
    o = raw["overhead"]
    if o["traced_ops"] > 0 and o["untraced_ops"] > 0:
        values["bench.trace_overhead"] = (
            (o["traced_host_s"] / o["traced_ops"]) /
            (o["untraced_host_s"] / o["untraced_ops"]) - 1.0)
    else:
        values["bench.trace_overhead"] = 0.0
    values["bench.error_rate"] = failed / attempted if attempted else 0.0
    summary = {
        name: {"count": row["count"], "total_ms": row["total_ms"],
               "self_ms": row["self_ms"],
               "deltas": dict(zip(names, row["deltas"]))}
        for name, row in sorted(table.items())}
    with open(trace_path, "w") as f:
        json.dump({"workload": raw["workload"], "seed": raw["seed"],
                   "span_fields": ["name", "start_ns", "end_ns", "parent",
                                   "op_id"] + names,
                   "spans": raw["spans"], "self_time": summary}, f)
    if summary:
        log("self time by span (ms): " + ", ".join(
            "%s %.1f/%.1f" % (n, r["self_ms"], r["total_ms"])
            for n, r in sorted(summary.items(),
                               key=lambda kv: -kv[1]["self_ms"])[:8]))
    return {name: values.get(name, 0.0) for name, _, _ in PER_LAYER}


def run_workload(workload, seed, seconds, trace):
    os.makedirs(OUT, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (workload, seed, trace)
    raw_path = os.path.join(OUT, "raw-%s.json" % tag)
    cmd = [BENCH_BIN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", raw_path]
    try:
        result = subprocess.run(cmd, timeout=seconds + 150)
    except subprocess.TimeoutExpired:
        log("%s: cloudiq_bench timed out" % workload)
        return None
    if result.returncode != 0:
        log("%s: cloudiq_bench exited with %d" % (workload, result.returncode))
        return None
    with open(raw_path) as f:
        raw = json.load(f)
    attempted, failed, notes = check(raw)
    for note in notes[:20]:
        log("%s: FAILED %s" % (workload, note))
    if trace:
        values = per_layer(raw, attempted, failed,
                           os.path.join(OUT, "trace-%s.json" % tag))
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        values = end_to_end(raw)
        units = {n: u for n, u, _ in END_TO_END}
    prov = provenance(raw)
    out = {"correct": failed == 0, "attempted": attempted, "failed": failed,
           "metrics": {n: {"value": v, "unit": units[n]}
                       for n, v in values.items()}}
    with open(os.path.join(OUT, "result-%s.json" % tag), "w") as f:
        json.dump(dict(out, provenance=prov, workload=workload), f,
                  indent=1)
    print("# %s provenance: %s" % (workload, json.dumps(prov, sort_keys=True)))
    for n, v in values.items():
        print("# %s %s = %.6g %s" % (workload, n, v, units[n]))
    return out


def record_digests():
    path = os.path.join(OUT, "digests-recorded.json")
    os.makedirs(OUT, exist_ok=True)
    result = subprocess.run([BENCH_BIN, "--record-digests", "--out", path],
                            timeout=900)
    if result.returncode != 0:
        return 1
    with open(path) as f:
        data = json.load(f)
    with open(DIGESTS, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")
    log("wrote " + DIGESTS)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not (args.workload or args.record_digests or args.selftest):
        parser.error("one of --workload, --record-digests, --selftest")
    if not build():
        return 2
    if args.record_digests:
        return record_digests()
    if args.selftest:
        return subprocess.run([BENCH_BIN, "--selftest"], timeout=120).returncode
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for workload in workloads:
        out = run_workload(workload, args.seed, args.seconds, args.trace)
        if out is None:
            return 1
        print(json.dumps(out), flush=True)
        ok = ok and out["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
