#include "sim/object_store.h"

#include <algorithm>
#include <cstddef>
#include <type_traits>

namespace cloudiq {

SimObjectStore::SimObjectStore(ObjectStoreOptions options)
    : options_(options), rng_(options.seed), streams_(options.streams) {}

void SimObjectStore::set_telemetry(Telemetry* telemetry) {
  MutexLock lock(&mu_);
  telemetry_ = telemetry;
  if (telemetry == nullptr) {
    get_latency_ = put_latency_ = delete_latency_ = nullptr;
    select_latency_ = nullptr;
    ledger_ = nullptr;
    profiler_ = nullptr;
    return;
  }
  get_latency_ = &telemetry->stats().histogram("s3.get");
  put_latency_ = &telemetry->stats().histogram("s3.put");
  delete_latency_ = &telemetry->stats().histogram("s3.delete");
  select_latency_ = &telemetry->stats().histogram("s3.select");
  ledger_ = &telemetry->ledger();
  profiler_ = &telemetry->profiler();
}

std::string SimObjectStore::PrefixOf(const std::string& key) {
  size_t slash = key.find('/');
  if (slash == std::string::npos) return key;
  return key.substr(0, slash);
}

SimObjectStore::Lookup SimObjectStore::LookupLocked(const std::string& key,
                                                    SimTime at) const {
  Lookup lookup;
  auto it = objects_.find(key);
  if (it == objects_.end()) return lookup;
  for (const Version& v : it->second.versions) {
    lookup.newest = &v;
    if (v.visible_at <= at) lookup.visible = &v;
  }
  return lookup;
}

SimTime SimObjectStore::PaceLocked(const std::string& key, bool is_put,
                                   SimTime arrival) {
  // Per-prefix request-rate pacing (the S3 "optimizing performance"
  // limits the paper works around with hashed prefixes).
  std::string prefix = PrefixOf(key);
  auto& pacers = is_put ? put_pacers_ : get_pacers_;
  double rate =
      is_put ? options_.per_prefix_put_rate : options_.per_prefix_get_rate;
  auto [it, inserted] = pacers.try_emplace(prefix, rate);
  SimTime admitted = it->second.Admit(arrival);
  bool throttled = admitted > arrival + 1e-12;
  double stall = throttled ? admitted - arrival : 0;
  if (throttled) {
    ++stats_.throttle_events;
    if (TracingLocked()) {
      telemetry_->tracer().Instant(kClusterPid, kTrackObjectStore, "s3",
                                   "throttle " + prefix, arrival);
    }
  }
  if (ledger_ != nullptr) {
    ledger_->RecordPrefix(prefix, throttled, stall);
    if (throttled) ledger_->RecordThrottle(stall);
  }

  // Bound pacer-map growth: hashed prefixes are effectively unique, so
  // stale entries (whose pacing can no longer matter) dominate. Flush the
  // maps wholesale once they get large; in-window pacing state for hot
  // prefixes is rebuilt on the next request.
  if (pacers.size() > 200000) {
    auto hot = pacers.extract(prefix);
    pacers.clear();
    pacers.insert(std::move(hot));
  }
  return admitted;
}

SimTime SimObjectStore::ServiceRequest(const std::string& key, bool is_put,
                                       double base, uint64_t bytes,
                                       SimTime arrival, double extra,
                                       WaitClass window) {
  SimTime admitted = PaceLocked(key, is_put, arrival);
  double transfer = static_cast<double>(bytes) / options_.stream_bandwidth;
  // Mild deterministic-seeded jitter so request times are not lockstep.
  double jitter = rng_.Exponential(base * 0.15);
  SimTime completion =
      streams_.Submit(admitted, transfer, base + extra + jitter);
  // Tile the request's window into the stall ledger: pacer stall first,
  // the rest (queueing behind other streams + latency + transfer) is
  // `window`.
  if (profiler_ != nullptr) {
    profiler_->Charge(WaitClass::kThrottleBackoff, arrival, admitted);
    profiler_->Charge(window, admitted, completion);
  }
  return completion;
}

template <typename SpanName>
void SimObjectStore::BookLocked(Kind kind, uint64_t bytes, uint64_t returned,
                                SimTime arrival, SimTime completion,
                                SpanName span_name) {
  CostLedger::Request request = CostLedger::Request::kGet;
  Histogram* latency = get_latency_;
  switch (kind) {
    case Kind::kPut:
      ++stats_.puts;
      stats_.put_bytes += bytes;
      request = CostLedger::Request::kPut;
      latency = put_latency_;
      break;
    case Kind::kGet:
      ++stats_.gets;
      stats_.get_bytes += bytes;
      break;
    case Kind::kHead:
      ++stats_.gets;  // HEAD is billed like GET
      request = CostLedger::Request::kHead;
      break;
    case Kind::kDelete:
      ++stats_.deletes;
      request = CostLedger::Request::kDelete;
      latency = delete_latency_;
      break;
    case Kind::kRangedGet:
      ++stats_.ranged_gets;
      stats_.get_bytes += bytes;
      request = CostLedger::Request::kRangedGet;
      break;
    case Kind::kSelect:
      ++stats_.selects;
      stats_.select_scanned_bytes += bytes;
      stats_.select_returned_bytes += returned;
      latency = select_latency_;
      break;
  }
  if (ledger_ != nullptr) {
    if (kind == Kind::kSelect) {
      ledger_->RecordSelect(bytes, returned);
    } else {
      ledger_->RecordRequest(request, bytes);
    }
  }
  if constexpr (!std::is_same_v<SpanName, std::nullptr_t>) {
    if (latency != nullptr) latency->Record(completion - arrival);
    if (TracingLocked()) {
      telemetry_->tracer().CompleteSpan(kClusterPid, kTrackObjectStore, "s3",
                                        span_name(), arrival, completion);
    }
  }
}

void SimObjectStore::NoteMissLocked(const Lookup& lookup,
                                    const std::string& key,
                                    SimTime arrival) {
  if (lookup.newest == nullptr || lookup.newest->is_delete) return;
  ++stats_.not_found_races;
  if (TracingLocked()) {
    telemetry_->tracer().Instant(kClusterPid, kTrackObjectStore, "s3",
                                 "visibility race " + key, arrival);
  }
}

bool SimObjectStore::TransientFailureLocked() {
  return options_.transient_error_rate > 0 &&
         rng_.Bernoulli(options_.transient_error_rate);
}

Status SimObjectStore::Put(const std::string& key,
                           std::vector<uint8_t> value, SimTime arrival,
                           SimTime* completion) {
  MutexLock lock(&mu_);
  if (options_.enforce_never_write_twice && objects_.count(key) > 0) {
    // Tripwire for the paper's core invariant: the engine must never PUT
    // the same object key twice, even after deleting it (a delete marker
    // still counts as "ever written" — reusing the key would resurrect
    // the §3 eventual-consistency scenarios the keygen design rules out).
    return Status::AlreadyExists("never-write-twice violation: " + key);
  }
  *completion = ServiceRequest(key, /*is_put=*/true,
                               options_.put_base_latency, value.size(),
                               arrival);
  BookLocked(Kind::kPut, value.size(), 0, arrival, *completion,
             [&] { return "PUT " + key; });
  if (TransientFailureLocked()) {
    return Status::IoError("simulated transient PUT failure");
  }

  SimTime visible_at = *completion;
  if (rng_.Bernoulli(options_.lag_probability)) {
    visible_at += rng_.Exponential(options_.mean_visibility_lag);
  }
  Object& obj = objects_[key];
  if (!obj.versions.empty()) ++stats_.overwrites;
  // Versions are kept in *creation* order: the store eventually converges
  // to the last mutation issued, even when an earlier mutation's
  // visibility lag outlasts a later one's.
  obj.versions.push_back({visible_at, /*is_delete=*/false, std::move(value)});
  return Status::Ok();
}

Result<std::vector<uint8_t>> SimObjectStore::Get(const std::string& key,
                                                 SimTime arrival,
                                                 SimTime* completion) {
  MutexLock lock(&mu_);
  Lookup lookup = LookupLocked(key, arrival);
  if (!lookup.found()) {
    // Nothing visible: either the key truly does not exist, or we raced
    // eventual consistency (scenario 3).
    *completion =
        ServiceRequest(key, /*is_put=*/false, options_.get_base_latency,
                       /*bytes=*/0, arrival);
    BookLocked(Kind::kGet, 0, 0, arrival, *completion,
               [&] { return "GET " + key + " -> NOT_FOUND"; });
    NoteMissLocked(lookup, key, arrival);
    if (TransientFailureLocked()) {
      return Status::IoError("simulated transient GET failure");
    }
    return Status::NotFound(key);
  }

  const std::vector<uint8_t>& value = lookup.visible->value;
  *completion = ServiceRequest(key, /*is_put=*/false,
                               options_.get_base_latency, value.size(),
                               arrival);
  BookLocked(Kind::kGet, value.size(), 0, arrival, *completion,
             [&] { return "GET " + key; });
  if (lookup.visible != lookup.newest) ++stats_.stale_reads;  // scenario 2
  if (TransientFailureLocked()) {
    return Status::IoError("simulated transient GET failure");
  }
  return value;
}

bool SimObjectStore::Exists(const std::string& key, SimTime arrival,
                            SimTime* completion) {
  MutexLock lock(&mu_);
  *completion = ServiceRequest(key, /*is_put=*/false,
                               options_.get_base_latency, /*bytes=*/0,
                               arrival);
  BookLocked(Kind::kHead, 0, 0, arrival, *completion, nullptr);
  return LookupLocked(key, arrival).found();
}

Status SimObjectStore::Delete(const std::string& key, SimTime arrival,
                              SimTime* completion) {
  MutexLock lock(&mu_);
  *completion = ServiceRequest(key, /*is_put=*/true,
                               options_.put_base_latency, /*bytes=*/0,
                               arrival);
  BookLocked(Kind::kDelete, 0, 0, arrival, *completion,
             [&] { return "DELETE " + key; });
  auto it = objects_.find(key);
  if (it == objects_.end()) return Status::Ok();  // idempotent
  SimTime visible_at = *completion;
  if (rng_.Bernoulli(options_.lag_probability)) {
    visible_at += rng_.Exponential(options_.mean_visibility_lag);
  }
  it->second.versions.push_back({visible_at, /*is_delete=*/true, {}});
  return Status::Ok();
}

// Every SELECT is billed — even one that loses the §3 visibility race
// or fails server-side (the server still parsed and dispatched it).
Result<std::vector<uint8_t>> SimObjectStore::Select(
    const std::vector<uint8_t>& request, SimTime arrival,
    SimTime* completion, uint64_t* bytes_scanned, uint64_t* bytes_returned) {
  MutexLock lock(&mu_);
  if (bytes_scanned != nullptr) *bytes_scanned = 0;
  if (bytes_returned != nullptr) *bytes_returned = 0;
  if (ndp_engine_ == nullptr) {
    return Status::NotSupported("object store has no NDP engine");
  }

  Result<std::vector<std::string>> keys = ndp_engine_->KeysOf(request);
  if (!keys.ok()) return keys.status();
  if (keys.value().empty()) {
    return Status::InvalidArgument("NDP request references no pages");
  }
  const std::string& first_key = keys.value().front();

  // Resolve every referenced page to its newest visible version. A
  // single invisible page fails the whole request: the consumer retries
  // with backoff exactly like a NOT_FOUND Get.
  std::vector<const std::vector<uint8_t>*> pages;
  pages.reserve(keys.value().size());
  uint64_t scanned = 0;
  for (const std::string& key : keys.value()) {
    Lookup lookup = LookupLocked(key, arrival);
    if (!lookup.found()) {
      *completion = ServiceRequest(first_key, /*is_put=*/false,
                                   options_.get_base_latency, /*bytes=*/0,
                                   arrival);
      BookLocked(Kind::kSelect, 0, 0, arrival, *completion,
                 [&] { return "SELECT " + key + " -> NOT_FOUND"; });
      NoteMissLocked(lookup, key, arrival);
      return Status::NotFound(key);
    }
    scanned += lookup.visible->value.size();
    pages.push_back(&lookup.visible->value);
  }

  Result<std::vector<uint8_t>> result = ndp_engine_->Execute(request, pages);
  if (!result.ok()) {
    *completion = ServiceRequest(first_key, /*is_put=*/false,
                                 options_.get_base_latency, /*bytes=*/0,
                                 arrival);
    BookLocked(Kind::kSelect, 0, 0, arrival, *completion, nullptr);
    return result.status();
  }
  uint64_t returned = result.value().size();

  // Latency: per-prefix GET pacing on the first page's prefix, a SELECT
  // time-to-first-byte, the server-side scan at select_scan_bandwidth,
  // then only the result bytes transferred through a connection stream.
  // The post-pacer window (server-side scan plus the much smaller result
  // transfer) is the price of choosing pushdown, so it books as
  // kNdpSelect rather than splitting hairs between scan and result bytes.
  double scan_time =
      static_cast<double>(scanned) / options_.select_scan_bandwidth;
  *completion = ServiceRequest(first_key, /*is_put=*/false,
                               options_.select_base_latency, returned,
                               arrival, scan_time, WaitClass::kNdpSelect);

  BookLocked(Kind::kSelect, scanned, returned, arrival, *completion, [&] {
    return "SELECT (" + std::to_string(pages.size()) + " pages, " +
           std::to_string(scanned) + " -> " + std::to_string(returned) +
           " B)";
  });
  if (bytes_scanned != nullptr) *bytes_scanned = scanned;
  if (bytes_returned != nullptr) *bytes_returned = returned;
  if (TransientFailureLocked()) {
    return Status::IoError("simulated transient SELECT failure");
  }
  return result;
}

SimTime SimObjectStore::ExternalRead(uint64_t bytes, SimTime arrival) {
  MutexLock lock(&mu_);
  // Streamed as 8 MB ranged GETs over multiple connections.
  constexpr uint64_t kPartBytes = 8 << 20;
  uint64_t parts = (bytes + kPartBytes - 1) / kPartBytes;
  SimTime done = arrival;
  for (uint64_t i = 0; i < parts; ++i) {
    uint64_t part = std::min(kPartBytes, bytes - i * kPartBytes);
    double transfer = static_cast<double>(part) / options_.stream_bandwidth;
    SimTime part_done = streams_.Submit(arrival, transfer,
                                        options_.get_base_latency);
    BookLocked(Kind::kRangedGet, part, 0, arrival, part_done, [&] {
      return "ranged GET (" + std::to_string(part) + " B)";
    });
    done = std::max(done, part_done);
  }
  // The parts stream concurrently; charge the covering window once.
  if (profiler_ != nullptr) {
    profiler_->Charge(WaitClass::kNetworkTransfer, arrival, done);
  }
  return done;
}

uint64_t SimObjectStore::LiveObjectCount() const {
  MutexLock lock(&mu_);
  uint64_t count = 0;
  for (const auto& [key, obj] : objects_) {
    if (!obj.versions.empty() && !obj.versions.back().is_delete) ++count;
  }
  return count;
}

uint64_t SimObjectStore::LiveBytes() const {
  MutexLock lock(&mu_);
  uint64_t bytes = 0;
  for (const auto& [key, obj] : objects_) {
    if (!obj.versions.empty() && !obj.versions.back().is_delete) {
      bytes += obj.versions.back().value.size();
    }
  }
  return bytes;
}

std::vector<std::string> SimObjectStore::LiveKeys() const {
  MutexLock lock(&mu_);
  std::vector<std::string> keys;
  for (const auto& [key, obj] : objects_) {
    if (!obj.versions.empty() && !obj.versions.back().is_delete) {
      keys.push_back(key);
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace cloudiq
