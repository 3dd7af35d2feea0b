"""Pure functions behind perfbench/run.py: percentiles, span self time,
per-round aggregation, the stall-sum rule and digest comparison.

Kept free of I/O so perfbench/test_bench_lib.py can check each rule on
small hand-made inputs.
"""

import math

# Percentiles the benchmark may report, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)
# A percentile is only reported when at least this many samples lie
# beyond it.
MIN_SAMPLES_BEYOND = 10


def median(values):
    values = sorted(values)
    if not values:
        raise ValueError("median of no values")
    n = len(values)
    mid = n // 2
    return values[mid] if n % 2 else 0.5 * (values[mid - 1] + values[mid])


def at_reference_speed(values, checkpoints, nominal_ms):
    """Scales CPU times to a machine on which the speed-reference kernel
    takes `nominal_ms`. values[i] (a number or a list of numbers) was
    measured between checkpoints i and i+1; each checkpoint is a list of
    kernel times. values[i] is multiplied by `nominal_ms` over the median
    kernel time of those two checkpoints, so it is scaled by the machine
    speed right around it."""
    if len(checkpoints) != len(values) + 1:
        raise ValueError("%d intervals need %d checkpoints, got %d" % (
            len(values), len(values) + 1, len(checkpoints)))
    out = []
    for i, v in enumerate(values):
        k = nominal_ms / median(checkpoints[i] + checkpoints[i + 1])
        out.append([x * k for x in v] if isinstance(v, list) else v * k)
    return out


def percentile(values, p):
    """Linear-interpolation percentile (numpy's default), p in [0, 100]."""
    values = sorted(values)
    if not values:
        raise ValueError("percentile of no values")
    rank = (len(values) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    return values[lo] + (values[hi] - values[lo]) * (rank - lo)


def highest_supported_percentile(n, ladder=PERCENTILE_LADDER,
                                 beyond=MIN_SAMPLES_BEYOND):
    """The highest percentile of `ladder` with >= `beyond` of `n` samples
    above it, or None when even the lowest has too few."""
    best = None
    for p in ladder:
        if n * (100.0 - p) / 100.0 >= beyond - 1e-9:
            best = p
    return best


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    covered by its direct children (overlapping children count once).

    `spans` is a list of dicts with "start", "end" and "parent" (index into
    the list, or -1). Returns a list of self durations, same order.
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s["start"], s["end"]
        intervals = sorted(
            (max(start, spans[c]["start"]), min(end, spans[c]["end"]))
            for c in children[i])
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def span_table(spans):
    """Per span name: count, total and self time in ms, and the summed
    counter deltas."""
    selfs = self_times(spans)
    table = {}
    for s, self_ns in zip(spans, selfs):
        row = table.setdefault(s["name"], {
            "count": 0, "total_ms": 0.0, "self_ms": 0.0, "durations_ms": [],
            "deltas": [0] * len(s.get("deltas", []))})
        dur_ms = (s["end"] - s["start"]) / 1e6
        row["count"] += 1
        row["total_ms"] += dur_ms
        row["self_ms"] += self_ns / 1e6
        row["durations_ms"].append(dur_ms)
        for k, d in enumerate(s.get("deltas", [])):
            row["deltas"][k] += d
    return table


def load_rows_per_s(loads):
    """Median over rounds of each round's rows per host second."""
    rates = [l["rows"] / l["host_s"] for l in loads if l["host_s"] > 0]
    if not rates:
        raise ValueError("no load rounds")
    return median(rates)


def stall_sum_mismatches(stalls):
    """Rows [query, sim_ns, background_ns, class_ns...] whose wait classes,
    minus the background share, do not add up to the query's sim ns."""
    bad = []
    for row in stalls:
        q, sim_ns, background = row[0], row[1], row[2]
        if sum(row[3:]) - background != sim_ns:
            bad.append(row)
    return bad


def digest_mismatches(seen, recorded):
    """Compare the digests a run saw with the recorded ones.

    `seen` maps "Q<n>" -> {mode: [digest, ...]}; `recorded` maps
    "Q<n>" -> digest. Returns (checks, failures): one check per
    (query, mode) pair, failing unless that mode saw exactly the recorded
    digest, and one per recorded query the run never ran.
    """
    checks = 0
    failures = []
    for q, expected in recorded.items():
        modes = seen.get(q)
        if not modes:
            checks += 1
            failures.append("%s: not run" % q)
            continue
        for mode, digests in sorted(modes.items()):
            checks += 1
            if digests != [expected]:
                failures.append("%s %s: %s != %s" % (q, mode, digests,
                                                     expected))
    return checks, failures
