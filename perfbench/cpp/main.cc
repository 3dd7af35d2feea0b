// cloudiq_bench: runs one benchmark workload against CloudIQ and writes
// its raw measurements (per-operation host times, simulated-clock totals,
// result digests, correctness checks, counter deltas and, when traced,
// spans and probe timings) as one JSON document. perfbench/run.py builds
// this binary, runs it, checks the digests and turns the raw numbers into
// the benchmark's metrics.
//
//   cloudiq_bench --workload tpch_warm --seed 1 --seconds 10
//       --trace 0 --out raw.json
//   cloudiq_bench --record-digests --out digests.json
//   cloudiq_bench --calibrate
//   cloudiq_bench --selftest
//
// Workloads (see perfbench/README.md for why each exists):
//   tpch_warm      warm buffer, sim exec at 1 worker, 22-query passes
//   tpch_cold      small buffer and OCM, 22-query passes
//   page_churn     load, small page-rewrite transactions, crash, recover
//   tenant_mix     2 tenants, open-loop Poisson, 2-node multiplex

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "columnar/encoding.h"
#include "common/random.h"
#include "engine/consistency_check.h"
#include "engine/database.h"
#include "engine/metrics.h"
#include "harness.h"
#include "multiplex/multiplex.h"
#include "store/page_codec.h"
#include "telemetry/stall_profiler.h"
#include "tpch/queries.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_loader.h"
#include "workload/workload_driver.h"

namespace perfbench {
namespace {

using namespace cloudiq;

// ---------------------------------------------------------------------------
// Fixed configuration. Changing any of these changes the benchmark.

// Data variants: the TPC-H generator seed is kDataSeedBase + seed % 8, so
// every --seed maps to one of eight recorded digest sets.
constexpr uint64_t kDataSeedBase = 20210620;
constexpr int kDataVariants = 8;
// Scale factors (rows at rest: SF 0.01 ~ 87k, SF 0.02 ~ 173k).
constexpr double kTpchScale = 0.02;
constexpr double kChurnScale = 0.01;
constexpr double kTenantScale = 0.01;
// Set-up repetitions per run (setup_s is their median).
constexpr int kSetupReps = 5;
// SpeedReference checkpoints bracket every set-up repetition and every
// interval of the timed phase, so each is scaled by the machine speed
// measured right around it. An interval closes at the first operation
// boundary after this much process CPU time; the host's speed drifts by
// 20% within seconds on a shared VM. Each checkpoint runs the kernel
// kSpeedRepsPerCheckpoint times (about 14 ms, some 5% of an interval).
constexpr int64_t kSpeedIntervalCpuNs = 300'000'000;
constexpr int kSpeedRepsPerCheckpoint = 5;
// Minimum host-timed operations per run, so p95 has >= 10 samples beyond.
constexpr size_t kMinOps = 200;
// The simulated-clock metrics cover a fixed amount of work, independent
// of host speed: the first timed passes (22 queries each), the first
// churn round, the first tenant episodes. tpch_cold and tenant_mix
// average more units because their sim time per unit varies with the
// seeded order (cache state) and arrivals.
constexpr int kWarmSimPasses = 10;
constexpr int kColdSimPasses = 12;
constexpr int kTenantSimEpisodes = 10;
// page_churn.
constexpr int kChurnTxnsPerRound = 200;
constexpr int kChurnPagesPerTxn = 4;
constexpr int kChurnGcEvery = 8;
constexpr int kChurnSnapshotEvery = 50;
constexpr double kChurnRetentionSeconds = 2.0;
constexpr int kChurnReadBack = 8;
// tpch_cold cache sizes, as fractions of the raw input bytes. At SF
// 0.02 LoadTpch keeps 20.5 MB at rest for 22.2 MB of input, so these are
// ~1/13 (1.6 MB) and ~1/4 (4.7 MB) of the data at rest. The 22 queries
// touch well under half the data: an OCM of half the data at rest holds
// their whole working set and no pass would reach the object store.
constexpr double kColdBufferPerInput = 0.07;
constexpr double kColdOcmPerInput = 0.21;
// tenant_mix: per-tenant Poisson rate (queries per simulated second),
// ~70% of the pool's closed-loop capacity as measured by --calibrate.
constexpr double kTenantRate = 10276.0;
constexpr int kTenantQueriesPerEpisode = 22;
// The engine's host cost per query grows with the number of queries it
// has completed (each completion refreshes the tenant's wait-class gauges
// from StallProfiler::TenantTotal, which scans every entry so far). A
// time-bounded phase would make that growth depend on host speed, so the
// episode count is fixed from --seconds instead, at about this many host
// seconds per episode.
constexpr double kTenantEpisodeSeconds = 1.5;
constexpr int kTenantConcurrency = 4;
constexpr size_t kTenantQueueDepth = 64;

// Native-exec workers: min(nproc, 4).
int HostWorkers() {
  int n = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(n, 1, 4);
}

uint64_t DataSeed(uint64_t seed) { return kDataSeedBase + seed % kDataVariants; }

// ---------------------------------------------------------------------------
// Raw results.

struct LoadSample {
  uint64_t rows = 0;
  double host_s = 0;
  uint64_t input_bytes = 0;
  uint64_t bytes_at_rest = 0;
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

struct Raw {
  std::map<std::string, std::string> provenance;
  std::vector<double> setup_s;  // process CPU s of each set-up repetition
  std::vector<LoadSample> setup_loads;
  std::vector<LoadSample> round_loads;
  // Per interval of the timed phase: the process CPU ms of each operation,
  // and the CPU s of the whole interval (speed checkpoints excluded).
  std::vector<std::vector<double>> op_cpu_ms;
  std::vector<double> interval_cpu_s;
  size_t ops = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Simulated clock, over the fixed unit of work.
  double sim_s = 0;
  double usd = 0;
  std::vector<double> sim_latencies_s;
  std::vector<double> gc_ms;  // page_churn: each RunGarbageCollection
  // SpeedReference kernel CPU ms, one group per checkpoint: before the
  // first set-up and after each; at the start of the timed phase and at
  // the end of each interval.
  std::vector<std::vector<double>> setup_speed_ms;
  std::vector<std::vector<double>> timed_speed_ms;
  double space_amp = 0;
  std::vector<Check> checks;
  std::vector<std::vector<int64_t>> stalls;
  // Digests seen per query number (read workloads), by mode.
  std::map<int, std::map<std::string, std::vector<std::string>>> digests;
  std::map<std::string, double> layers;
  // Traced runs: host time of traced and untraced units.
  double traced_host_s = 0, traced_ops = 0;
  double untraced_host_s = 0, untraced_ops = 0;

  void AddCheck(const std::string& name, bool ok,
                const std::string& detail = "") {
    checks.push_back(Check{name, ok, detail});
    ++attempted;
    if (!ok) ++failed;
  }
};

// ---------------------------------------------------------------------------
// Counter snapshots from public accessors.

struct Counters {
  MetricsSnapshot m;  // node 0 plus env-level
  uint64_t buffer_hits = 0, buffer_misses = 0;
  uint64_t commit_flushes = 0, churn_flushes = 0;
  uint64_t ocm_hits = 0, ocm_misses = 0, ocm_evictions = 0, ocm_uploads = 0;
  uint64_t pages_read = 0, pages_written = 0;
  uint64_t bytes_written = 0, raw_bytes_written = 0;
  uint64_t retries = 0;
  uint64_t commits = 0, gc_pages_deleted = 0;
  uint64_t key_fetches = 0, max_key = 0;
  uint64_t morsels = 0, parallel_sections = 0, workload_steps = 0;
  StallProfiler::Entry stall;
  double usd = 0;
};

uint64_t RegistryCounter(SimEnvironment& env, const std::string& name) {
  return env.telemetry().stats().counter(name).value();
}

Counters Sample(const std::vector<Database*>& nodes) {
  Counters c;
  c.m = CollectMetrics(nodes[0]);
  for (Database* db : nodes) {
    MetricsSnapshot m = db == nodes[0] ? c.m : CollectMetrics(db);
    c.buffer_hits += m.buffer_hits;
    c.buffer_misses += m.buffer_misses;
    c.commit_flushes += m.commit_flushes;
    c.churn_flushes += m.churn_flushes;
    c.ocm_hits += m.ocm_hits;
    c.ocm_misses += m.ocm_misses;
    c.ocm_evictions += m.ocm_evictions;
    c.ocm_uploads += m.ocm_background_uploads;
    c.pages_read += m.pages_read;
    c.pages_written += m.pages_written;
    c.bytes_written += m.bytes_written;
    c.raw_bytes_written += m.raw_bytes_written;
    c.retries += m.not_found_retries + m.transient_retries;
    c.commits += m.commits;
    c.gc_pages_deleted += m.gc_pages_deleted;
    c.key_fetches += m.key_fetches;
    c.max_key = std::max(c.max_key, m.max_allocated_key);
  }
  SimEnvironment& env = nodes[0]->env();
  c.morsels = RegistryCounter(env, "exec.morsels");
  c.parallel_sections = RegistryCounter(env, "exec.parallel_sections");
  c.workload_steps = RegistryCounter(env, "workload.steps");
  c.stall = env.telemetry().profiler().GrandTotal();
  c.usd = env.cost_meter().TotalComputeUsd();
  return c;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Per-layer counter deltas across the timed phase.
void CounterLayers(const Counters& a, const Counters& b, Database* db,
                   Raw* raw) {
  auto d = [](uint64_t x, uint64_t y) { return static_cast<double>(y - x); };
  std::map<std::string, double>& L = raw->layers;
  L["buffer.hits"] = d(a.buffer_hits, b.buffer_hits);
  L["buffer.misses"] = d(a.buffer_misses, b.buffer_misses);
  L["buffer.hit_ratio"] =
      Ratio(L["buffer.hits"], L["buffer.hits"] + L["buffer.misses"]);
  L["buffer.commit_flushes"] = d(a.commit_flushes, b.commit_flushes);
  L["buffer.churn_flushes"] = d(a.churn_flushes, b.churn_flushes);
  L["ocm.hits"] = d(a.ocm_hits, b.ocm_hits);
  L["ocm.misses"] = d(a.ocm_misses, b.ocm_misses);
  L["ocm.hit_ratio"] = Ratio(L["ocm.hits"], L["ocm.hits"] + L["ocm.misses"]);
  L["ocm.evictions"] = d(a.ocm_evictions, b.ocm_evictions);
  L["ocm.bg_uploads"] = d(a.ocm_uploads, b.ocm_uploads);
  L["sim.gets"] = d(a.m.s3_gets, b.m.s3_gets);
  L["sim.ranged_gets"] = d(a.m.s3_ranged_gets, b.m.s3_ranged_gets);
  L["sim.puts"] = d(a.m.s3_puts, b.m.s3_puts);
  L["sim.deletes"] = d(a.m.s3_deletes, b.m.s3_deletes);
  L["sim.throttle_events"] =
      d(a.m.s3_throttle_events, b.m.s3_throttle_events);
  L["sim.not_found_races"] =
      d(a.m.s3_not_found_races, b.m.s3_not_found_races);
  L["sim.stale_reads"] = d(a.m.s3_stale_reads, b.m.s3_stale_reads);
  L["sim.live_mb"] = b.m.live_bytes / 1e6;
  for (int i = 0; i < kNumWaitClasses; ++i) {
    L[std::string("stall.") + WaitClassName(static_cast<WaitClass>(i)) +
      "_s"] = (b.stall.ns[i] - a.stall.ns[i]) / 1e9;
  }
  L["stall.background_s"] = (b.stall.background - a.stall.background) / 1e9;
  L["store.pages_read"] = d(a.pages_read, b.pages_read);
  L["store.pages_written"] = d(a.pages_written, b.pages_written);
  L["store.encoded_per_raw"] =
      Ratio(static_cast<double>(b.bytes_written),
            static_cast<double>(b.raw_bytes_written));
  L["store.retries"] = d(a.retries, b.retries);
  L["keygen.range_fetches"] = d(a.key_fetches, b.key_fetches);
  L["keygen.keys_per_fetch"] =
      Ratio(d(a.max_key, b.max_key), L["keygen.range_fetches"]);
  L["txn.commits"] = d(a.commits, b.commits);
  L["txn.gc_pages_deleted"] = d(a.gc_pages_deleted, b.gc_pages_deleted);
  L["exec.morsels"] = d(a.morsels, b.morsels);
  L["exec.parallel_sections"] = d(a.parallel_sections, b.parallel_sections);
  L["workload.steps"] = d(a.workload_steps, b.workload_steps);
  L["snapshot.retained_pages"] =
      static_cast<double>(db->snapshot_mgr()->retained_page_count());
  L["telemetry.ledger_entries"] =
      static_cast<double>(db->env().telemetry().ledger().entries().size());
}

// ---------------------------------------------------------------------------
// Calls into CloudIQ.

struct Ctx {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  SpanRecorder spans;
  Calls calls{&spans};
  SpeedReference speed;
  Raw raw;
  uint64_t next_op = 0;
  int64_t interval_cpu0 = 0;  // CpuNanos() at the current interval's start
  int64_t checkpoint_host_ns = 0;  // steady-clock ns spent in checkpoints
};

// The samplers look the buffer up through `db` on every call:
// CrashAndRecover replaces the node's BufferManager, so a pointer kept
// across it would dangle. The new buffer's counts start at 0, so the
// buffer_misses delta of the engine.CrashAndRecover span itself is
// negative; every other span sees one buffer.
void WireCounters(Ctx* ctx, Database* db) {
  ctx->calls.set_overwrites(
      [db] { return db->env().object_store().stats().overwrites; });
  ctx->spans.SetCounters(
      {"s3_gets", "s3_puts", "s3_deletes", "buffer_misses"},
      [db] {
        SimObjectStore::Stats s = db->env().object_store().stats();
        return std::vector<int64_t>{
            static_cast<int64_t>(s.gets), static_cast<int64_t>(s.puts),
            static_cast<int64_t>(s.deletes),
            static_cast<int64_t>(db->txn_mgr().buffer().stats().misses)};
      });
}

void ChargeCompute(Database* db, const AttributionContext& who,
                   double seconds) {
  double hourly = db->node().profile().hourly_usd;
  db->env().cost_meter().AddEc2Hours(seconds / 3600.0, hourly);
  db->env().telemetry().ledger().ChargeCompute(who, seconds, hourly);
}

Result<LoadSample> Load(Ctx* ctx, Database* db, TpchGenerator* gen) {
  CostLedger& ledger = db->env().telemetry().ledger();
  AttributionContext attr;
  attr.query_id = ledger.NextQueryId();
  attr.node_id = db->node().trace_pid();
  attr.tag = "load";
  int64_t t0 = HostNanos();
  Result<TpchLoadResult> load = [&]() -> Result<TpchLoadResult> {
    ScopedAttribution scope(&ledger, attr);
    StallProfiler& profiler = db->env().telemetry().profiler();
    ScopedStall stall(&profiler, &db->node().clock(), WaitClass::kCpuExec);
    profiler.PinScopeAttribution();
    return ctx->calls("tpch.LoadTpch",
                      [&] { return LoadTpch(db, gen, {}); });
  }();
  double host_s = (HostNanos() - t0) / 1e9;
  CLOUDIQ_RETURN_IF_ERROR(load.status());
  ChargeCompute(db, attr, load->seconds);
  LoadSample s;
  s.rows = load->rows;
  s.host_s = host_s;
  s.input_bytes = load->input_bytes;
  s.bytes_at_rest = load->bytes_at_rest;
  return s;
}

struct QueryOutcome {
  std::string digest;
  double cpu_ms = 0;  // Begin through Commit, process CPU time
  double sim_s = 0;
  // [query, sim ns, background ns, ns per wait class...]: the stall-sum
  // check in run.py needs the classes minus background to equal sim ns.
  std::vector<int64_t> stall;
};

// One TPC-H query under full attribution: Begin, RunTpchQuery and Commit
// inside the query's ledger and stall scopes, then its simulated
// duration billed as compute. Only Begin through Commit is host-timed.
Result<QueryOutcome> RunQuery(Ctx* ctx, Database* db, int q) {
  std::string tag = "Q" + std::to_string(q);
  int64_t t0 = CpuNanos();
  Transaction* txn = db->Begin();
  QueryContext qctx = db->NewQueryContext(txn, tag);
  StallProfiler& profiler = db->env().telemetry().profiler();
  SimClock& clock = db->node().clock();
  QueryOutcome out;
  SimTime before = clock.now();
  std::optional<Result<Batch>> result;
  Status status = Status::Ok();
  {
    ScopedQueryAttribution scope(&qctx);
    ScopedStall stall(&profiler, &clock, WaitClass::kCpuExec);
    profiler.PinScopeAttribution();
    result = ctx->calls("tpch.RunTpchQuery." + tag,
                        [&] { return RunTpchQuery(&qctx, q); });
    if (result->ok()) {
      status = ctx->calls("txn.Commit", [&] { return db->Commit(txn); });
    } else {
      status = result->status();
      (void)db->Rollback(txn);
    }
  }
  out.cpu_ms = (CpuNanos() - t0) / 1e6;
  SimTime after = clock.now();
  CLOUDIQ_RETURN_IF_ERROR(status);
  ResultDigest digest;
  digest.Add(**result);
  out.digest = digest.Hex();
  out.sim_s = after - before;
  ChargeCompute(db, qctx.attribution(), out.sim_s);
  StallProfiler::Entry entry =
      profiler.QueryTotal(qctx.attribution().query_id);
  out.stall = {q, StallProfiler::ToNanos(after) - StallProfiler::ToNanos(before),
               entry.background};
  out.stall.insert(out.stall.end(), entry.ns.begin(), entry.ns.end());
  return out;
}

std::vector<int> AllQueries() {
  std::vector<int> order;
  for (int q = 1; q <= kTpchQueryCount; ++q) order.push_back(q);
  return order;
}

std::vector<int> ShuffledQueries(uint64_t seed, uint64_t pass) {
  std::vector<int> order = AllQueries();
  Rng rng(seed * 1000003 + pass * 7919 + 17);
  for (size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.Uniform(i + 1)]);
  }
  return order;
}

// ---------------------------------------------------------------------------
// Probes: direct calls into single layers over the loaded data, made
// after the timed phase of a traced run.

template <typename F>
double TimeNs(F&& f) {
  int64_t t0 = HostNanos();
  f();
  return static_cast<double>(HostNanos() - t0);
}

Status RunProbes(Ctx* ctx, Database* db, TpchGenerator* gen) {
  std::map<std::string, double>& L = ctx->raw.layers;
  // tpch: generator cost per row.
  {
    uint64_t rows = std::min<uint64_t>(gen->RowCount(kLineitem), 50000);
    double ns = TimeNs([&] { gen->GenerateBatch(kLineitem, 0, rows); });
    L["tpch.gen_ns_per_row"] = ns / rows;
  }
  ExecMode saved_mode = db->options().exec_mode;
  int saved_workers = db->options().exec_workers;
  db->SetExecOptions(ExecMode::kSim, 1);
  Transaction* txn = db->Begin();
  QueryContext qctx = db->NewQueryContext(txn, "probe");
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader lineitem,
                           db->OpenTable(txn, kLineitem));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader orders, db->OpenTable(txn, kOrders));
  const std::vector<std::string> cols = {
      "l_orderkey",  "l_quantity",   "l_extendedprice", "l_discount",
      "l_returnflag", "l_linestatus", "l_shipdate"};
  // exec: scan (warm-up scan first so every layer sees a filled buffer).
  CLOUDIQ_RETURN_IF_ERROR(ScanTable(&qctx, &lineitem, cols).status());
  std::optional<Result<Batch>> scanned;
  double scan_ns = TimeNs([&] { scanned = ScanTable(&qctx, &lineitem, cols); });
  CLOUDIQ_RETURN_IF_ERROR(scanned->status());
  Batch batch = std::move(**scanned);
  L["exec.scan_ns_per_value"] =
      scan_ns / std::max<double>(1, batch.rows() * cols.size());
  // exec: scan speedup, native N workers vs native 1 worker.
  {
    int workers = HostWorkers();
    double t[2] = {0, 0};
    int counts[2] = {1, workers};
    for (int i = 0; i < 2; ++i) {
      db->SetExecOptions(ExecMode::kNative, counts[i]);
      QueryContext pctx = db->NewQueryContext(txn, "probe.par");
      std::optional<Result<Batch>> r;
      t[i] = TimeNs([&] { r = ScanTable(&pctx, &lineitem, cols); });
      CLOUDIQ_RETURN_IF_ERROR(r->status());
    }
    L["exec.scan_speedup"] = Ratio(t[0], t[1]);
    db->SetExecOptions(ExecMode::kSim, 1);
  }
  // exec: filter, aggregate, join, sort.
  {
    int shipdate = batch.Col("l_shipdate");
    int64_t cutoff = DaysFromCivil(1998, 9, 2) - 90;
    double ns = TimeNs([&] {
      FilterBatch(&qctx, batch, [&](const Batch& b, size_t r) {
        return b.columns[shipdate].ints[r] <= cutoff;
      });
    });
    L["exec.filter_ns_per_row"] = ns / std::max<size_t>(1, batch.rows());
  }
  {
    std::optional<Result<Batch>> r;
    double ns = TimeNs([&] {
      r = HashAggregate(&qctx, batch, {"l_returnflag", "l_linestatus"},
                        {{AggOp::kSum, "l_quantity", "sum_qty"},
                         {AggOp::kSum, "l_extendedprice", "sum_price"},
                         {AggOp::kCount, "", "n"}});
    });
    CLOUDIQ_RETURN_IF_ERROR(r->status());
    L["exec.agg_ns_per_row"] = ns / std::max<size_t>(1, batch.rows());
  }
  {
    CLOUDIQ_ASSIGN_OR_RETURN(
        Batch right, ScanTable(&qctx, &orders, {"o_orderkey", "o_orderdate"}));
    std::optional<Result<Batch>> r;
    double ns = TimeNs([&] {
      r = HashJoin(&qctx, batch, "l_orderkey", right, "o_orderkey",
                   JoinType::kInner);
    });
    CLOUDIQ_RETURN_IF_ERROR(r->status());
    L["exec.join_ns_per_row"] =
        ns / std::max<size_t>(1, batch.rows() + right.rows());
  }
  {
    Batch copy = batch;
    double ns = TimeNs([&] {
      SortBatch(&qctx, std::move(copy), {{"l_extendedprice", false}});
    });
    L["exec.sort_ns_per_row"] = ns / std::max<size_t>(1, batch.rows());
  }
  // columnar + store: every lineitem page, fetched, decoded, re-encoded.
  {
    std::vector<BufferManager::PageData> frames;
    const TableMeta& meta = lineitem.meta();
    double fetch_ns = 0;
    for (size_t p = 0; p < meta.partitions.size(); ++p) {
      for (size_t c = 0; c < meta.partitions[p].columns.size(); ++c) {
        size_t pages = meta.partitions[p].columns[c].page_rows.size();
        for (size_t pg = 0; pg < pages; ++pg) {
          std::optional<Result<BufferManager::PageData>> r;
          fetch_ns += TimeNs([&] {
            r = lineitem.FetchPage(p, static_cast<int>(c), pg);
          });
          CLOUDIQ_RETURN_IF_ERROR(r->status());
          frames.push_back(**r);
        }
      }
    }
    L["columnar.fetch_us_per_page"] =
        fetch_ns / 1e3 / std::max<size_t>(1, frames.size());
    std::vector<ColumnVector> decoded;
    double values = 0, bytes = 0;
    Status decode_status = Status::Ok();
    double decode_ns = TimeNs([&] {
      for (const auto& f : frames) {
        Result<ColumnVector> v = DecodeColumnPage(*f);
        if (!v.ok()) {
          decode_status = v.status();
          return;
        }
        decoded.push_back(std::move(*v));
      }
    });
    CLOUDIQ_RETURN_IF_ERROR(decode_status);
    for (size_t i = 0; i < frames.size(); ++i) {
      values += decoded[i].size();
      bytes += frames[i]->size();
    }
    L["columnar.decode_ns_per_value"] = Ratio(decode_ns, values);
    L["columnar.decode_ns_per_byte"] = Ratio(decode_ns, bytes);
    double encode_ns = TimeNs([&] {
      for (const ColumnVector& v : decoded) {
        ZoneMapEntry zone;
        EncodeColumnPage(v, 0, v.size(), &zone);
      }
    });
    L["columnar.encode_ns_per_value"] = Ratio(encode_ns, values);
    std::vector<std::vector<uint8_t>> encoded;
    double page_encode_ns = TimeNs([&] {
      for (const auto& f : frames) encoded.push_back(EncodePage(*f));
    });
    double page_decode_ns = TimeNs([&] {
      for (const auto& e : encoded) {
        Result<std::vector<uint8_t>> r = DecodePage(e);
        if (!r.ok()) decode_status = r.status();
      }
    });
    CLOUDIQ_RETURN_IF_ERROR(decode_status);
    L["store.page_encode_ns_per_byte"] = Ratio(page_encode_ns, bytes);
    L["store.page_decode_ns_per_byte"] = Ratio(page_decode_ns, bytes);
  }
  CLOUDIQ_RETURN_IF_ERROR(
      ctx->calls("txn.Commit", [&] { return db->Commit(txn); }));
  db->SetExecOptions(saved_mode, saved_workers);
  return Status::Ok();
}

void FinishOverwrites(Ctx* ctx) {
  ctx->raw.layers["sim.data_overwrites"] =
      static_cast<double>(ctx->calls.data_overwrites());
  ctx->raw.layers["snapshot.metadata_overwrites"] =
      static_cast<double>(ctx->calls.metadata_overwrites());
  std::string where;
  for (const std::string& c : ctx->calls.data_overwrite_calls()) {
    where += c + " ";
  }
  ctx->raw.AddCheck("never_write_twice.data", ctx->calls.data_overwrites() == 0,
                    where);
}

void SpeedCheckpoint(Ctx* ctx, std::vector<std::vector<double>>* groups) {
  int64_t t0 = HostNanos();
  groups->emplace_back();
  ctx->speed.Sample(kSpeedRepsPerCheckpoint, &groups->back());
  ctx->checkpoint_host_ns += HostNanos() - t0;
}

// The steady clock with the speed checkpoints left out, for the host
// times of the traced run (units, workload.host_us_per_step).
int64_t UnitHostNanos(const Ctx& ctx) {
  return HostNanos() - ctx.checkpoint_host_ns;
}

// Opens the timed phase: a speed checkpoint, then the first interval.
void StartTimed(Ctx* ctx) {
  SpeedCheckpoint(ctx, &ctx->raw.timed_speed_ms);
  ctx->raw.op_cpu_ms.emplace_back();
  ctx->interval_cpu0 = CpuNanos();
}

// Closes the current interval with a speed checkpoint.
void CloseInterval(Ctx* ctx) {
  ctx->raw.interval_cpu_s.push_back((CpuNanos() - ctx->interval_cpu0) / 1e9);
  SpeedCheckpoint(ctx, &ctx->raw.timed_speed_ms);
}

// Records one timed operation's CPU ms. Once the interval has run
// kSpeedIntervalCpuNs, closes it and opens the next; returns true then,
// as the checkpoint's own CPU time must not count toward the next gap.
bool RecordOp(Ctx* ctx, double cpu_ms) {
  ctx->raw.op_cpu_ms.back().push_back(cpu_ms);
  ++ctx->raw.ops;
  if (CpuNanos() - ctx->interval_cpu0 < kSpeedIntervalCpuNs) return false;
  CloseInterval(ctx);
  ctx->raw.op_cpu_ms.emplace_back();
  ctx->interval_cpu0 = CpuNanos();
  return true;
}

// Alternates traced and untraced units in a traced run (even units
// untraced), so the run itself measures the tracing overhead.
void BeginUnit(Ctx* ctx, uint64_t unit) {
  ctx->spans.set_enabled(ctx->trace && unit % 2 == 1);
}

void EndUnit(Ctx* ctx, uint64_t unit, double host_s, double ops) {
  if (!ctx->trace) return;
  if (unit % 2 == 1) {
    ctx->raw.traced_host_s += host_s;
    ctx->raw.traced_ops += ops;
  } else {
    ctx->raw.untraced_host_s += host_s;
    ctx->raw.untraced_ops += ops;
  }
  ctx->spans.set_enabled(false);
}

// ---------------------------------------------------------------------------
// tpch_warm and tpch_cold.

struct TpchDeployment {
  std::unique_ptr<SimEnvironment> env;
  std::unique_ptr<Database> db;
  std::unique_ptr<TpchGenerator> gen;
};

uint64_t RawInputBytes(const TpchGenerator& gen) {
  uint64_t bytes = 0;
  for (uint64_t t = kRegion; t <= kLineitem; ++t) {
    TpchTable table = static_cast<TpchTable>(t);
    bytes += gen.RowCount(table) * TpchGenerator::RawRowBytes(table);
  }
  return bytes;
}

Database::Options TpchOptions(bool cold, const TpchGenerator& gen,
                              Raw* raw) {
  Database::Options options;
  options.user_storage = UserStorage::kObjectStore;
  if (cold) {
    double input = static_cast<double>(RawInputBytes(gen));
    options.buffer_capacity_override =
        static_cast<uint64_t>(input * kColdBufferPerInput);
    double ssd = InstanceProfile::M5ad4xlarge().ssd_gb * 1e9;
    options.ocm.capacity_fraction = input * kColdOcmPerInput / ssd;
    raw->provenance["buffer_bytes"] =
        std::to_string(options.buffer_capacity_override);
    raw->provenance["ocm_bytes"] =
        std::to_string(static_cast<uint64_t>(input * kColdOcmPerInput));
  } else {
    raw->provenance["buffer_bytes"] = std::to_string(static_cast<uint64_t>(
        InstanceProfile::M5ad4xlarge().ram_gb * 1e9 *
        options.buffer_ram_fraction));
    raw->provenance["ocm_bytes"] = std::to_string(static_cast<uint64_t>(
        InstanceProfile::M5ad4xlarge().ssd_gb * 1e9));
  }
  return options;
}

void RecordDigest(Raw* raw, int q, const std::string& mode,
                  const std::string& digest) {
  std::vector<std::string>& seen = raw->digests[q][mode];
  if (std::find(seen.begin(), seen.end(), digest) == seen.end()) {
    seen.push_back(digest);
  }
}

// Runs one pass over `order`, recording each query as a timed operation
// if `timed`, and appending sim seconds per query to `sim_s` if given.
// Digests are recorded under `mode` unless it is empty.
void RunPass(Ctx* ctx, Database* db, const std::vector<int>& order,
             const std::string& mode, bool timed,
             std::vector<double>* sim_s) {
  for (int q : order) {
    ctx->spans.set_op_id(++ctx->next_op);
    Result<QueryOutcome> r = [&] {
      ScopedSpan span(&ctx->spans, "op.query");
      return RunQuery(ctx, db, q);
    }();
    ++ctx->raw.attempted;
    if (!r.ok()) {
      ++ctx->raw.failed;
      ctx->raw.checks.push_back(
          Check{"query.Q" + std::to_string(q), false, r.status().ToString()});
      continue;
    }
    if (!mode.empty()) RecordDigest(&ctx->raw, q, mode, r->digest);
    ctx->raw.stalls.push_back(r->stall);
    if (timed) RecordOp(ctx, r->cpu_ms);
    if (sim_s != nullptr) sim_s->push_back(r->sim_s);
  }
}

Status RunTpch(Ctx* ctx, bool cold) {
  Raw& raw = ctx->raw;
  const int sim_passes = cold ? kColdSimPasses : kWarmSimPasses;
  // The untimed pass of tpch_cold runs native on N workers, so every run
  // checks that native results equal the recorded (sim) digests. Timed
  // passes run sim at 1 worker: native host times on a shared 4-core VM
  // spread 0.3 from run to run, far past any usable bound.
  const int warmup_workers = cold ? HostWorkers() : 1;
  const ExecMode warmup_mode = cold ? ExecMode::kNative : ExecMode::kSim;
  const std::string warmup_name =
      std::string(cold ? "native" : "sim") + std::to_string(warmup_workers);
  raw.provenance["sf"] = std::to_string(kTpchScale);
  raw.provenance["exec"] = "sim1";
  raw.provenance["warmup_exec"] = warmup_name;
  TpchDeployment dep;
  SpeedCheckpoint(ctx, &raw.setup_speed_ms);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    int64_t t0 = CpuNanos();
    dep = TpchDeployment();
    dep.gen = std::make_unique<TpchGenerator>(kTpchScale,
                                              DataSeed(ctx->seed));
    dep.env = std::make_unique<SimEnvironment>();
    dep.db = std::make_unique<Database>(dep.env.get(),
                                        InstanceProfile::M5ad4xlarge(),
                                        TpchOptions(cold, *dep.gen, &raw));
    WireCounters(ctx, dep.db.get());
    CLOUDIQ_ASSIGN_OR_RETURN(LoadSample load,
                             Load(ctx, dep.db.get(), dep.gen.get()));
    raw.setup_loads.push_back(load);
    // Untimed warm-up pass in query order; it brings the caches to steady
    // state (sim time is the same in either exec mode).
    dep.db->SetExecOptions(warmup_mode, warmup_workers);
    RunPass(ctx, dep.db.get(), AllQueries(), warmup_name, false, nullptr);
    dep.db->SetExecOptions(ExecMode::kSim, 1);
    raw.setup_s.push_back((CpuNanos() - t0) / 1e9);
    SpeedCheckpoint(ctx, &raw.setup_speed_ms);
  }
  Database* db = dep.db.get();
  raw.space_amp = Ratio(
      static_cast<double>(db->env().object_store().LiveBytes()),
      static_cast<double>(raw.setup_loads.back().input_bytes));

  Counters before = Sample({db});
  double usd0 = db->env().cost_meter().TotalComputeUsd();
  StartTimed(ctx);
  int64_t start = HostNanos();
  uint64_t pass = 0;
  for (;; ++pass) {
    double elapsed = (HostNanos() - start) / 1e9;
    if (elapsed >= ctx->seconds && raw.ops >= kMinOps &&
        pass >= static_cast<uint64_t>(sim_passes) &&
        (!ctx->trace || pass >= 2)) {
      break;
    }
    BeginUnit(ctx, pass);
    int64_t u0 = UnitHostNanos(*ctx);
    size_t ops0 = raw.ops;
    std::vector<double>* sims =
        pass < static_cast<uint64_t>(sim_passes) ? &raw.sim_latencies_s
                                                 : nullptr;
    RunPass(ctx, db, ShuffledQueries(ctx->seed, pass + 1), "sim1",
            true, sims);
    EndUnit(ctx, pass, (UnitHostNanos(*ctx) - u0) / 1e9,
            static_cast<double>(raw.ops - ops0));
    if (pass + 1 == static_cast<uint64_t>(sim_passes)) {
      raw.usd = (db->env().cost_meter().TotalComputeUsd() - usd0) /
                sim_passes;
    }
  }
  CloseInterval(ctx);
  double sim_total = 0;
  for (double s : raw.sim_latencies_s) sim_total += s;
  raw.sim_s = sim_total / sim_passes;
  raw.provenance["passes"] = std::to_string(pass);
  Counters after = Sample({db});
  CounterLayers(before, after, db, &raw);
  if (ctx->trace) {
    CLOUDIQ_RETURN_IF_ERROR(RunProbes(ctx, db, dep.gen.get()));
  }
  FinishOverwrites(ctx);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// page_churn.

struct RewrittenPage {
  uint64_t object_id = 0;
  uint64_t page = 0;
  ColumnVector values;
  std::string digest;  // of `values`, filled for read-back samples only
};

std::string VectorDigest(const ColumnVector& v) {
  Batch b;
  b.AddColumn("v", v);
  ResultDigest d;
  d.Add(b);
  return d.Hex();
}

// Reads back `pages` in a fresh transaction and compares their values.
Status ReadBack(Ctx* ctx, Database* db,
                const std::vector<RewrittenPage>& pages,
                const std::string& when) {
  Transaction* txn = db->Begin();
  for (const RewrittenPage& p : pages) {
    CLOUDIQ_ASSIGN_OR_RETURN(std::unique_ptr<StorageObject> obj,
                             db->txn_mgr().OpenForRead(txn, p.object_id));
    CLOUDIQ_ASSIGN_OR_RETURN(BufferManager::PageData data,
                             obj->ReadPage(p.page));
    CLOUDIQ_ASSIGN_OR_RETURN(ColumnVector values, DecodeColumnPage(*data));
    ctx->raw.AddCheck("churn.read_back." + when,
                      VectorDigest(values) == p.digest,
                      "object " + std::to_string(p.object_id) + " page " +
                          std::to_string(p.page));
  }
  return ctx->calls("txn.Commit", [&] { return db->Commit(txn); });
}

// One rewrite transaction: OpenForWrite, ReadPage, value-preserving
// decode + re-encode, WritePage on a few random column pages, Commit.
Status RewriteTxn(Ctx* ctx, Database* db, Rng* rng,
                  const std::vector<TableMeta>& metas,
                  std::vector<RewrittenPage>* written) {
  Calls& calls = ctx->calls;
  Transaction* txn = calls("txn.Begin", [&] { return db->Begin(); });
  std::map<uint64_t, StorageObject*> open;
  std::vector<RewrittenPage> mine;
  for (int i = 0; i < kChurnPagesPerTxn; ++i) {
    const TableMeta& meta = metas[rng->Uniform(metas.size())];
    size_t part = rng->Uniform(meta.partitions.size());
    const PartitionMeta& pm = meta.partitions[part];
    size_t col = rng->Uniform(pm.columns.size());
    const SegmentMeta& seg = pm.columns[col];
    if (seg.page_rows.empty()) continue;
    uint64_t page = rng->Uniform(seg.page_rows.size());
    StorageObject*& obj = open[seg.object_id];
    if (obj == nullptr) {
      Result<StorageObject*> r = calls("txn.OpenForWrite", [&] {
        return db->txn_mgr().OpenForWrite(txn, seg.object_id);
      });
      if (!r.ok()) {
        (void)db->Rollback(txn);
        return r.status();
      }
      obj = *r;
    }
    Result<BufferManager::PageData> data =
        calls("txn.ReadPage", [&] { return obj->ReadPage(page); });
    if (!data.ok()) {
      (void)db->Rollback(txn);
      return data.status();
    }
    Result<ColumnVector> values = calls("columnar.DecodeColumnPage", [&] {
      return DecodeColumnPage(**data);
    });
    if (!values.ok()) {
      (void)db->Rollback(txn);
      return values.status();
    }
    ZoneMapEntry zone;
    std::vector<uint8_t> encoded = calls("columnar.EncodeColumnPage", [&] {
      return EncodeColumnPage(*values, 0, values->size(), &zone);
    });
    Status st = calls("txn.WritePage", [&] {
      return obj->WritePage(page, std::move(encoded));
    });
    if (!st.ok()) {
      (void)db->Rollback(txn);
      return st;
    }
    mine.push_back(RewrittenPage{seg.object_id, page, std::move(*values), ""});
  }
  CLOUDIQ_RETURN_IF_ERROR(
      calls("txn.Commit", [&] { return db->Commit(txn); }));
  for (RewrittenPage& p : mine) written->push_back(std::move(p));
  return Status::Ok();
}

Status RunChurnRound(Ctx* ctx, uint64_t round, bool sim_unit,
                     double* chain_max, bool layers_here) {
  Raw& raw = ctx->raw;
  SimEnvironment env;
  Database::Options options;
  options.user_storage = UserStorage::kObjectStore;
  options.snapshot_retention_seconds = kChurnRetentionSeconds;
  Database db(&env, InstanceProfile::M5ad4xlarge(), options);
  TpchGenerator gen(kChurnScale, DataSeed(ctx->seed));
  WireCounters(ctx, &db);
  CLOUDIQ_ASSIGN_OR_RETURN(LoadSample load, Load(ctx, &db, &gen));
  raw.round_loads.push_back(load);

  std::vector<TableMeta> metas;
  for (TpchTable t : {kLineitem, kOrders}) {
    CLOUDIQ_ASSIGN_OR_RETURN(TableMeta meta, db.TableMetaFor(t));
    metas.push_back(std::move(meta));
  }
  Counters before = Sample({&db});
  SimClock& clock = db.node().clock();
  SimTime sim0 = clock.now();
  Rng rng(ctx->seed * 1000003 + round * 104729 + 5);
  // Read-back samples: the first page of kChurnReadBack seeded
  // transactions, digested after the transaction's timer stops.
  Rng sample_rng(ctx->seed * 1000003 + round * 104729 + 99);
  std::vector<bool> sampled(kChurnTxnsPerRound, false);
  for (int i = 0; i < kChurnReadBack; ++i) {
    sampled[sample_rng.Uniform(kChurnTxnsPerRound)] = true;
  }
  std::vector<RewrittenPage> sample;
  uint64_t pages_rewritten = 0;
  double amp_sum = 0;
  AttributionContext stream_attr;
  stream_attr.query_id = env.telemetry().ledger().NextQueryId();
  stream_attr.node_id = db.node().trace_pid();
  stream_attr.tag = "churn";
  for (int i = 0; i < kChurnTxnsPerRound; ++i) {
    uint64_t op = ++ctx->next_op;
    ctx->spans.set_op_id(op);
    SimTime s0 = clock.now();
    int64_t t0 = CpuNanos();
    std::vector<RewrittenPage> written;
    Status st = [&] {
      ScopedSpan span(&ctx->spans, "op.rewrite_txn");
      ScopedAttribution scope(&env.telemetry().ledger(), stream_attr);
      return RewriteTxn(ctx, &db, &rng, metas, &written);
    }();
    double ms = (CpuNanos() - t0) / 1e6;
    ++raw.attempted;
    if (!st.ok()) {
      ++raw.failed;
      raw.checks.push_back(Check{"churn.txn", false, st.ToString()});
      continue;
    }
    RecordOp(ctx, ms);
    pages_rewritten += written.size();
    if (sampled[i] && !written.empty()) {
      written[0].digest = VectorDigest(written[0].values);
      sample.push_back(std::move(written[0]));
    }
    if (sim_unit) {
      raw.sim_latencies_s.push_back(clock.now() - s0);
      amp_sum += Ratio(static_cast<double>(env.object_store().LiveBytes()),
                       static_cast<double>(load.input_bytes));
    }
    *chain_max = std::max<double>(
        *chain_max, static_cast<double>(db.txn_mgr().committed_chain_length()));
    int done = i + 1;
    if (done % kChurnGcEvery == 0) {
      int64_t g0 = HostNanos();
      CLOUDIQ_RETURN_IF_ERROR(ctx->calls("txn.RunGarbageCollection", [&] {
        return db.RunGarbageCollection();
      }));
      raw.gc_ms.push_back((HostNanos() - g0) / 1e6);
    }
    if (done % kChurnSnapshotEvery == 0) {
      // With enforce_never_write_twice on, the second TakeSnapshot fails
      // with ALREADY_EXISTS on snapmgr/metadata (a known defect); the
      // store's default policy lets it overwrite, and the overwrite is
      // booked to snapshot.metadata_overwrites.
      CLOUDIQ_RETURN_IF_ERROR(
          ctx->calls
              .Run("snapshot.TakeSnapshot", true,
                   [&] { return db.TakeSnapshot(); })
              .status());
      CLOUDIQ_RETURN_IF_ERROR(ctx->calls.Run(
          "snapshot.CollectExpired", true,
          [&] { return db.snapshot_mgr()->CollectExpired(); }));
    }
  }
  // Counter deltas before the crash: recovery rebuilds the node's buffer
  // and OCM, whose counts then start again at 0.
  if (layers_here) {
    CounterLayers(before, Sample({&db}), &db, &raw);
    raw.layers["blockmap.puts_per_page_write"] =
        Ratio(raw.layers["sim.puts"], static_cast<double>(pages_rewritten));
  }
  // Read back the sampled rewrites, crash, recover, read back, check.
  CLOUDIQ_RETURN_IF_ERROR(ReadBack(ctx, &db, sample, "before_crash"));
  CLOUDIQ_RETURN_IF_ERROR(ctx->calls("engine.CrashAndRecover",
                                     [&] { return db.CrashAndRecover(); }));
  Result<ConsistencyReport> report = ctx->calls(
      "engine.CheckConsistency", [&] { return CheckConsistency(&db); });
  CLOUDIQ_RETURN_IF_ERROR(report.status());
  raw.AddCheck("churn.consistency", report->ok(),
               report->problems.empty() ? "" : report->problems.front());
  raw.layers["engine.unreadable_pages"] += report->unreadable_pages;
  raw.layers["engine.leaked_objects"] += report->leaked_objects;
  CLOUDIQ_RETURN_IF_ERROR(ReadBack(ctx, &db, sample, "after_recover"));
  if (layers_here && ctx->trace) {
    CLOUDIQ_RETURN_IF_ERROR(RunProbes(ctx, &db, &gen));
  }
  if (sim_unit) {
    double sim = clock.now() - sim0;
    ChargeCompute(&db, stream_attr, sim);
    raw.sim_s = sim;
    raw.usd = env.cost_meter().TotalComputeUsd() - before.usd;
    // Averaged over the commits of the round: the value at one instant
    // depends on where the last snapshot expiry fell.
    raw.space_amp = amp_sum / std::max<size_t>(1, raw.sim_latencies_s.size());
  }
  return Status::Ok();
}

Status RunChurn(Ctx* ctx) {
  Raw& raw = ctx->raw;
  raw.provenance["sf"] = std::to_string(kChurnScale);
  raw.provenance["exec"] = "sim1";
  raw.provenance["buffer_bytes"] = std::to_string(static_cast<uint64_t>(
      InstanceProfile::M5ad4xlarge().ram_gb * 1e9 * 0.5));
  raw.provenance["ocm_bytes"] = std::to_string(
      static_cast<uint64_t>(InstanceProfile::M5ad4xlarge().ssd_gb * 1e9));
  // Set-up: a fresh deployment and a load, kSetupReps times (the timed
  // rounds then repeat this work, so set-up cost and load cost are both
  // visible).
  SpeedCheckpoint(ctx, &raw.setup_speed_ms);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    int64_t t0 = CpuNanos();
    SimEnvironment env;
    Database::Options options;
    options.user_storage = UserStorage::kObjectStore;
    options.snapshot_retention_seconds = kChurnRetentionSeconds;
    Database db(&env, InstanceProfile::M5ad4xlarge(), options);
    TpchGenerator gen(kChurnScale, DataSeed(ctx->seed));
    WireCounters(ctx, &db);
    CLOUDIQ_ASSIGN_OR_RETURN(LoadSample load, Load(ctx, &db, &gen));
    raw.setup_loads.push_back(load);
    raw.setup_s.push_back((CpuNanos() - t0) / 1e9);
    SpeedCheckpoint(ctx, &raw.setup_speed_ms);
  }
  double chain_max = 0;
  StartTimed(ctx);
  int64_t start = HostNanos();
  uint64_t round = 0;
  for (;; ++round) {
    double elapsed = (HostNanos() - start) / 1e9;
    if (round >= (ctx->trace ? 2u : 1u) && elapsed >= ctx->seconds &&
        raw.ops >= kMinOps) {
      break;
    }
    BeginUnit(ctx, round);
    int64_t u0 = UnitHostNanos(*ctx);
    size_t ops0 = raw.ops;
    // Counters and probes come from round 1 (a traced round) in a traced
    // run, else from round 0.
    bool layers_here = ctx->trace ? round == 1 : round == 0;
    CLOUDIQ_RETURN_IF_ERROR(
        RunChurnRound(ctx, round, round == 0, &chain_max, layers_here));
    EndUnit(ctx, round, (UnitHostNanos(*ctx) - u0) / 1e9,
            static_cast<double>(raw.ops - ops0));
  }
  CloseInterval(ctx);
  raw.provenance["rounds"] = std::to_string(round);
  raw.layers["txn.chain_length_max"] = chain_max;
  FinishOverwrites(ctx);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// tenant_mix.

struct TenantDeployment {
  std::unique_ptr<SimEnvironment> env;
  std::unique_ptr<Multiplex> mx;
  std::unique_ptr<TpchGenerator> gen;
};

// Default buffers, which hold all the data: the work per query then does
// not depend on how the seeded arrivals interleave.
Multiplex::Options TenantOptions() {
  Multiplex::Options options;
  options.db.user_storage = UserStorage::kObjectStore;
  return options;
}

Result<TenantDeployment> SetUpTenants(Ctx* ctx, bool timed_setup) {
  TenantDeployment dep;
  dep.gen = std::make_unique<TpchGenerator>(kTenantScale, DataSeed(ctx->seed));
  dep.env = std::make_unique<SimEnvironment>();
  dep.mx = std::make_unique<Multiplex>(dep.env.get(), 2,
                                       TenantOptions());
  Database* first = &dep.mx->secondary(0);
  WireCounters(ctx, first);
  CLOUDIQ_ASSIGN_OR_RETURN(LoadSample load, Load(ctx, first, dep.gen.get()));
  if (timed_setup) ctx->raw.setup_loads.push_back(load);
  int64_t s0 = HostNanos();
  CLOUDIQ_RETURN_IF_ERROR(
      ctx->calls("multiplex.SyncCatalogs", [&] { return dep.mx->SyncCatalogs(); }));
  ctx->raw.layers["multiplex.sync_catalogs_ms"] = (HostNanos() - s0) / 1e6;
  // One warm pass per node, so the episodes start from steady caches.
  for (int i = 0; i < dep.mx->secondary_count(); ++i) {
    RunPass(ctx, &dep.mx->secondary(i), AllQueries(), "", false, nullptr);
  }
  return dep;
}

std::vector<WorkloadDriver::TenantLoad> TenantLoads(double rate) {
  std::vector<WorkloadDriver::TenantLoad> loads;
  for (int t = 0; t < 2; ++t) {
    WorkloadDriver::TenantLoad load;
    load.config.name = "tenant" + std::to_string(t);
    load.mix.clear();
    for (int q = 1; q <= kTpchQueryCount; ++q) load.mix.push_back(q);
    load.total_queries = kTenantQueriesPerEpisode;
    load.arrival_rate = rate;
    load.inflight = 2;
    loads.push_back(std::move(load));
  }
  return loads;
}

WorkloadEngine::Options EngineOptions() {
  WorkloadEngine::Options options;
  options.admission.concurrency_limit = kTenantConcurrency;
  options.admission.max_queue_depth = kTenantQueueDepth;
  options.slots_per_node = 2;
  return options;
}

Status RunTenants(Ctx* ctx) {
  Raw& raw = ctx->raw;
  raw.provenance["sf"] = std::to_string(kTenantScale);
  raw.provenance["exec"] = "sim1";
  raw.provenance["tenant_rate_qps"] = std::to_string(kTenantRate);
  std::optional<TenantDeployment> dep;
  SpeedCheckpoint(ctx, &raw.setup_speed_ms);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    int64_t t0 = CpuNanos();
    dep.reset();
    CLOUDIQ_ASSIGN_OR_RETURN(TenantDeployment d, SetUpTenants(ctx, true));
    dep = std::move(d);
    raw.setup_s.push_back((CpuNanos() - t0) / 1e9);
    SpeedCheckpoint(ctx, &raw.setup_speed_ms);
  }
  raw.provenance["buffer_bytes"] = std::to_string(static_cast<uint64_t>(
      InstanceProfile::M5ad4xlarge().ram_gb * 1e9 * 0.5));
  raw.provenance["ocm_bytes"] = std::to_string(
      static_cast<uint64_t>(InstanceProfile::M5ad4xlarge().ssd_gb * 1e9));
  std::vector<Database*> nodes = {&dep->mx->secondary(0),
                                  &dep->mx->secondary(1)};
  raw.space_amp = Ratio(
      static_cast<double>(dep->env->object_store().LiveBytes()),
      static_cast<double>(raw.setup_loads.back().input_bytes));
  WorkloadEngine engine(nodes, EngineOptions(), {});
  std::vector<std::string> tenants = {"tenant0", "tenant1"};
  // CPU time between completions: the engine's host cost per query.
  uint64_t finished = 0;
  int64_t last_finish = 0;
  bool recording = false;
  engine.set_event_hook([&](SimTime) {
    uint64_t n = 0;
    for (const std::string& t : tenants) {
      WorkloadEngine::TenantCounts c = engine.Counts(t);
      n += c.completed + c.failed + c.Shed();
    }
    if (n > finished) {
      int64_t now = CpuNanos();
      if (recording && RecordOp(ctx, (now - last_finish) / 1e6)) {
        now = CpuNanos();
      }
      last_finish = now;
      finished = n;
    }
  });
  Counters before = Sample(nodes);
  StartTimed(ctx);
  int64_t start = UnitHostNanos(*ctx);
  std::vector<double> queue_p95;
  const uint64_t episodes = static_cast<uint64_t>(std::max<double>(
      {kTenantSimEpisodes, std::ceil(ctx->seconds / kTenantEpisodeSeconds),
       std::ceil(static_cast<double>(kMinOps) / (2 * kTenantQueriesPerEpisode))}));
  for (uint64_t episode = 0; episode < episodes; ++episode) {
    BeginUnit(ctx, episode);
    int64_t u0 = UnitHostNanos(*ctx);
    size_t ops0 = raw.ops;
    double usd0 = dep->env->cost_meter().TotalComputeUsd();
    std::map<std::string, WorkloadEngine::TenantCounts> c0;
    for (const std::string& t : tenants) c0[t] = engine.Counts(t);
    WorkloadDriver workload_driver(&engine, ctx->seed * 1000003 + episode * 31 + 3);
    last_finish = CpuNanos();
    recording = true;
    Result<WorkloadDriver::Summary> summary =
        ctx->calls("workload.WorkloadDriver.Run", [&] {
          return workload_driver.Run(TenantLoads(kTenantRate));
        });
    recording = false;
    CLOUDIQ_RETURN_IF_ERROR(summary.status());
    for (const auto& t : summary->tenants) {
      const WorkloadEngine::TenantCounts& a = c0[t.tenant];
      const WorkloadEngine::TenantCounts& b = t.counts;
      uint64_t submitted = b.submitted - a.submitted;
      uint64_t completed = b.completed - a.completed;
      uint64_t bad = (b.failed - a.failed) + (b.Shed() - a.Shed());
      raw.attempted += submitted;
      raw.failed += bad + (submitted - std::min(submitted, completed + bad));
      raw.layers["workload.shed"] += b.Shed() - a.Shed();
      queue_p95.push_back(t.queue_wait_p95);
    }
    if (episode < static_cast<uint64_t>(kTenantSimEpisodes)) {
      raw.sim_s += summary->makespan_seconds / kTenantSimEpisodes;
      raw.usd += (dep->env->cost_meter().TotalComputeUsd() - usd0) /
                 kTenantSimEpisodes;
    }
    if (episode + 1 == static_cast<uint64_t>(kTenantSimEpisodes)) {
      // The engine's latency histograms cover every episode so far.
      double p95 = 0;
      for (const auto& t : summary->tenants) p95 = std::max(p95, t.latency_p95);
      raw.layers["sim.query_p95_s"] = p95;
      raw.layers["workload.fairness"] = summary->fairness_index;
    }
    EndUnit(ctx, episode, (UnitHostNanos(*ctx) - u0) / 1e9,
            static_cast<double>(raw.ops - ops0));
  }
  double timed_host_s = (UnitHostNanos(*ctx) - start) / 1e9;
  CloseInterval(ctx);
  raw.provenance["episodes"] = std::to_string(episodes);
  Counters after = Sample(nodes);
  CounterLayers(before, after, nodes[0], &raw);
  raw.layers["workload.host_us_per_step"] =
      Ratio(timed_host_s * 1e6, raw.layers["workload.steps"]);
  raw.layers["workload.queue_wait_p95_s"] =
      queue_p95.empty() ? 0 : *std::max_element(queue_p95.begin(), queue_p95.end());
  if (ctx->trace) {
    CLOUDIQ_RETURN_IF_ERROR(RunProbes(ctx, nodes[0], dep->gen.get()));
  }
  FinishOverwrites(ctx);
  return Status::Ok();
}

// Closed-loop capacity of the tenant_mix pool, in queries per simulated
// second; kTenantRate is set to ~70% of half of it (two tenants).
int Calibrate() {
  Ctx ctx;
  ctx.workload = "tenant_mix";
  Result<TenantDeployment> dep = SetUpTenants(&ctx, false);
  if (!dep.ok()) {
    std::fprintf(stderr, "calibrate: %s\n", dep.status().ToString().c_str());
    return 1;
  }
  WorkloadEngine engine({&dep->mx->secondary(0), &dep->mx->secondary(1)},
                        EngineOptions(), {});
  WorkloadDriver workload_driver(&engine, 1);
  Result<WorkloadDriver::Summary> summary = workload_driver.Run(TenantLoads(0));
  if (!summary.ok()) {
    std::fprintf(stderr, "calibrate: %s\n",
                 summary.status().ToString().c_str());
    return 1;
  }
  double capacity = summary->throughput_qps;
  std::printf("closed-loop capacity %.4f q/sim-s; 70%% per tenant: %.4f\n",
              capacity, 0.7 * capacity / 2);
  return 0;
}

// ---------------------------------------------------------------------------
// Digest recording and self-test.

int RecordDigests(const std::string& out_path) {
  std::FILE* out = out_path.empty() ? stdout : std::fopen(out_path.c_str(), "w");
  if (out == nullptr) return 1;
  Json json(out);
  json.BeginObject();
  json.Field("sf", kTpchScale);
  json.Key("variants");
  json.BeginObject();
  bool ok = true;
  for (int v = 0; v < kDataVariants; ++v) {
    Ctx ctx;
    SimEnvironment env;
    Database db(&env, InstanceProfile::M5ad4xlarge(),
                TpchOptions(false, TpchGenerator(kTpchScale), &ctx.raw));
    TpchGenerator gen(kTpchScale, kDataSeedBase + v);
    WireCounters(&ctx, &db);
    if (!Load(&ctx, &db, &gen).ok()) return 1;
    db.SetExecOptions(ExecMode::kSim, 1);
    RunPass(&ctx, &db, AllQueries(), "sim1", false, nullptr);
    db.SetExecOptions(ExecMode::kNative, HostWorkers());
    RunPass(&ctx, &db, AllQueries(), "native", false, nullptr);
    if (ctx.raw.failed > 0) {
      std::fprintf(stderr, "variant %d: a query failed\n", v);
      return 1;
    }
    json.Key(std::to_string(v));
    json.BeginObject();
    for (const auto& [q, modes] : ctx.raw.digests) {
      const std::vector<std::string>& sim = modes.at("sim1");
      const std::vector<std::string>& native = modes.at("native");
      if (sim.size() != 1 || native != sim) {
        std::fprintf(stderr, "variant %d Q%d: sim and native disagree\n", v,
                     q);
        ok = false;
      }
      json.FieldStr("Q" + std::to_string(q), sim.front());
    }
    json.EndObject();
    std::fprintf(stderr, "variant %d recorded\n", v);
  }
  json.EndObject();
  json.EndObject();
  std::fputc('\n', out);
  if (out != stdout) std::fclose(out);
  return ok ? 0 : 1;
}

// Digest stability across batch boundaries and row order.
int SelfTest() {
  TpchGenerator gen(0.01, kDataSeedBase);
  const uint64_t rows = 5000;
  Batch whole = gen.GenerateBatch(kLineitem, 0, rows);
  ResultDigest reference;
  reference.Add(whole);
  int failures = 0;
  auto expect = [&](bool cond, const char* what) {
    std::printf("%s %s\n", cond ? "ok  " : "FAIL", what);
    if (!cond) ++failures;
  };
  for (size_t size : {1, 7, 999, 4096, 5000}) {
    ResultDigest split;
    for (const Batch& part : SplitBatch(whole, size)) split.Add(part);
    expect(split.Hex() == reference.Hex(),
           ("split into batches of " + std::to_string(size)).c_str());
  }
  {
    // The generator's own batch boundaries must not matter either.
    ResultDigest regenerated;
    for (uint64_t first = 0; first < rows; first += 1234) {
      regenerated.Add(gen.GenerateBatch(kLineitem, first,
                                        std::min<uint64_t>(1234, rows - first)));
    }
    expect(regenerated.Hex() == reference.Hex(), "regenerated in 1234-row batches");
  }
  {
    Batch reversed = whole.EmptyLike();
    for (size_t r = rows; r > 0; --r) whole.AppendRowTo(&reversed, r - 1);
    ResultDigest d;
    d.Add(reversed);
    expect(d.Hex() == reference.Hex(), "row order reversed");
  }
  {
    Batch changed = whole;
    changed.columns[changed.Col("l_quantity")].ints[rows / 2] += 1;
    ResultDigest d;
    d.Add(changed);
    expect(d.Hex() != reference.Hex(), "one value changed");
    Batch renamed = whole;
    renamed.names[0] = "other";
    ResultDigest r;
    r.Add(renamed);
    expect(r.Hex() != reference.Hex(), "column renamed");
    ResultDigest dup;
    dup.Add(whole);
    dup.Add(SplitBatch(whole, 1).front());
    expect(dup.Hex() != reference.Hex(), "one row duplicated");
  }
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Output.

void WriteRaw(Ctx* ctx, std::FILE* out) {
  Raw& raw = ctx->raw;
  Json j(out);
  j.BeginObject();
  j.FieldStr("workload", ctx->workload);
  j.FieldInt("seed", static_cast<int64_t>(ctx->seed));
  j.FieldInt("data_variant", static_cast<int64_t>(ctx->seed % kDataVariants));
  j.FieldBool("trace", ctx->trace);
  j.Key("provenance");
  j.BeginObject();
  for (const auto& [k, v] : raw.provenance) j.FieldStr(k, v);
  j.EndObject();
  j.FieldArray("setup_s", raw.setup_s);
  auto write_loads = [&j](const char* key,
                          const std::vector<LoadSample>& loads) {
    j.Key(key);
    j.BeginArray();
    for (const LoadSample& l : loads) {
      j.BeginObject();
      j.FieldInt("rows", static_cast<int64_t>(l.rows));
      j.Field("host_s", l.host_s);
      j.FieldInt("input_bytes", static_cast<int64_t>(l.input_bytes));
      j.FieldInt("bytes_at_rest", static_cast<int64_t>(l.bytes_at_rest));
      j.EndObject();
    }
    j.EndArray();
  };
  write_loads("setup_loads", raw.setup_loads);
  write_loads("round_loads", raw.round_loads);
  j.FieldArrays("op_cpu_ms", raw.op_cpu_ms);
  j.FieldArray("interval_cpu_s", raw.interval_cpu_s);
  j.FieldInt("attempted", static_cast<int64_t>(raw.attempted));
  j.FieldInt("failed", static_cast<int64_t>(raw.failed));
  j.Field("sim_s", raw.sim_s);
  j.Field("usd", raw.usd);
  j.FieldArray("sim_latencies_s", raw.sim_latencies_s);
  j.FieldArray("gc_ms", raw.gc_ms);
  j.FieldArrays("setup_speed_ms", raw.setup_speed_ms);
  j.FieldArrays("timed_speed_ms", raw.timed_speed_ms);
  j.Field("space_amp", raw.space_amp);
  j.Field("rss_mb", PeakRssMb());
  j.Key("checks");
  j.BeginArray();
  for (const Check& c : raw.checks) {
    j.BeginObject();
    j.FieldStr("name", c.name);
    j.FieldBool("ok", c.ok);
    j.FieldStr("detail", c.detail);
    j.EndObject();
  }
  j.EndArray();
  j.Key("stalls");
  j.BeginArray();
  for (const std::vector<int64_t>& row : raw.stalls) {
    j.BeginArray();
    for (int64_t v : row) j.Int(v);
    j.EndArray();
  }
  j.EndArray();
  j.Key("digests");
  j.BeginObject();
  for (const auto& [q, modes] : raw.digests) {
    j.Key("Q" + std::to_string(q));
    j.BeginObject();
    for (const auto& [mode, seen] : modes) {
      j.Key(mode);
      j.BeginArray();
      for (const std::string& d : seen) j.String(d);
      j.EndArray();
    }
    j.EndObject();
  }
  j.EndObject();
  j.Key("layers");
  j.BeginObject();
  for (const auto& [k, v] : raw.layers) j.Field(k, v);
  j.EndObject();
  j.Key("overhead");
  j.BeginObject();
  j.Field("traced_host_s", raw.traced_host_s);
  j.Field("traced_ops", raw.traced_ops);
  j.Field("untraced_host_s", raw.untraced_host_s);
  j.Field("untraced_ops", raw.untraced_ops);
  j.EndObject();
  j.Key("span_counters");
  j.BeginArray();
  for (const std::string& n : ctx->spans.counter_names()) j.String(n);
  j.EndArray();
  // Spans as [name, start_ns, end_ns, parent, op_id, deltas...].
  j.Key("spans");
  j.BeginArray();
  for (const Span& s : ctx->spans.spans()) {
    j.BeginArray();
    j.String(s.name);
    j.Int(s.start_ns);
    j.Int(s.end_ns);
    j.Int(s.parent);
    j.Int(static_cast<int64_t>(s.op_id));
    for (int64_t d : s.deltas) j.Int(d);
    j.EndArray();
  }
  j.EndArray();
  j.EndObject();
  std::fputc('\n', out);
}

int Usage() {
  std::fprintf(stderr,
               "usage: cloudiq_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out PATH]\n"
               "       cloudiq_bench --record-digests [--out PATH]\n"
               "       cloudiq_bench --calibrate | --selftest\n");
  return 2;
}

int Main(int argc, char** argv) {
  Ctx ctx;
  std::string out_path;
  std::string special;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (a == "--workload") {
      ctx.workload = value();
    } else if (a == "--seed") {
      ctx.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      ctx.seconds = std::atof(value().c_str());
    } else if (a == "--trace") {
      ctx.trace = value() == "1";
    } else if (a == "--out") {
      out_path = value();
    } else if (a == "--record-digests" || a == "--calibrate" ||
               a == "--selftest") {
      special = a;
    } else {
      return Usage();
    }
  }
  if (special == "--selftest") return SelfTest();
  if (special == "--calibrate") return Calibrate();
  if (special == "--record-digests") return RecordDigests(out_path);

  Raw& raw = ctx.raw;
  raw.provenance["nproc"] = std::to_string(std::thread::hardware_concurrency());
  raw.provenance["workers"] = std::to_string(HostWorkers());
  raw.provenance["data_seed"] = std::to_string(DataSeed(ctx.seed));
  Status st;
  if (ctx.workload == "tpch_warm") {
    st = RunTpch(&ctx, /*cold=*/false);
  } else if (ctx.workload == "tpch_cold") {
    st = RunTpch(&ctx, /*cold=*/true);
  } else if (ctx.workload == "page_churn") {
    st = RunChurn(&ctx);
  } else if (ctx.workload == "tenant_mix") {
    st = RunTenants(&ctx);
  } else {
    return Usage();
  }
  if (!st.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", ctx.workload.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  std::FILE* out = out_path.empty() ? stdout : std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  WriteRaw(&ctx, out);
  if (out != stdout) std::fclose(out);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
