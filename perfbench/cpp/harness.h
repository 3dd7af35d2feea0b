// Measurement plumbing for cloudiq_bench: host timers, peak RSS,
// order-independent result digests, an in-memory span recorder, a
// never-write-twice accountant, and a minimal JSON writer. Everything
// here observes CloudIQ from outside, through its public headers only.

#ifndef PERFBENCH_CPP_HARNESS_H_
#define PERFBENCH_CPP_HARNESS_H_

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "exec/batch.h"

namespace perfbench {

inline int64_t HostNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU time of the whole process, every thread, in ns. Unlike the steady
// clock it stands still while the process waits for a CPU: behind other
// processes, or while the hypervisor runs another guest (steal time, which
// Linux guests with paravirt time accounting leave out of task CPU time).
// On a shared host the per-operation host costs then measure the program
// rather than its neighbours.
inline int64_t CpuNanos() {
  struct timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

inline double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

// ---------------------------------------------------------------------------
// Machine-speed reference.
//
// On a shared host the speed of a CPU second drifts from run to run (clock
// frequency, work on the sibling hyperthread, contention in the shared
// caches); process CPU time leaves out only the waits. So every run also
// times this fixed kernel, which belongs to the benchmark and never calls
// CloudIQ: a sort of 32K pseudo-random keys and 128K read-modify-writes
// into a 1 MiB table, the compute and cache traffic of the executor's sorts
// and hash tables. run.py scales each host time by a fixed nominal kernel
// time over the median kernel time measured right around it. A program
// change moves the scaled times exactly as much as the raw ones; a slower
// machine moves neither.
class SpeedReference {
 public:
  SpeedReference() : keys_(1 << 15), scratch_(1 << 15), table_(1 << 18) {
    uint64_t x = 88172645463325252ull;  // xorshift64
    for (uint64_t& k : keys_) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      k = x;
    }
  }

  // Runs the kernel `reps` times, recording the process CPU ms of each.
  void Sample(int reps, std::vector<double>* ms) {
    for (int i = 0; i < reps; ++i) {
      int64_t t0 = CpuNanos();
      std::copy(keys_.begin(), keys_.end(), scratch_.begin());
      std::sort(scratch_.begin(), scratch_.end());
      uint64_t h = scratch_[scratch_.size() / 2];
      for (int round = 0; round < 4; ++round) {
        for (uint64_t k : keys_) {
          uint32_t& slot = table_[(k >> (8 * round)) & (table_.size() - 1)];
          slot += static_cast<uint32_t>(k ^ h);
          h += slot;
        }
      }
      sink_ = sink_ + h;
      ms->push_back((CpuNanos() - t0) / 1e6);
    }
  }

 private:
  std::vector<uint64_t> keys_, scratch_;
  std::vector<uint32_t> table_;
  volatile uint64_t sink_ = 0;  // keeps the kernel's result live
};

// ---------------------------------------------------------------------------
// Result digests.
//
// A query result's digest must not depend on how its rows were split into
// batches, nor on the row order a parallel plan emits them in: each row is
// hashed on its own (column names and types folded in), the row hashes are
// sorted, and the sorted list is hashed. Doubles are hashed by their exact
// bit pattern, so a digest match means byte-identical values.

inline uint64_t Mix64(uint64_t h, uint64_t v) {
  // FNV-1a over the 8 bytes of v.
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

inline uint64_t MixBytes(uint64_t h, const std::string& s) {
  h = Mix64(h, s.size());
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

class ResultDigest {
 public:
  // Folds every row of `batch` in. Batches of one result must share their
  // column names and types.
  void Add(const cloudiq::Batch& batch) {
    uint64_t schema = 0xcbf29ce484222325ull;
    for (size_t c = 0; c < batch.columns.size(); ++c) {
      schema = MixBytes(schema, batch.names[c]);
      schema = Mix64(schema, static_cast<uint64_t>(batch.columns[c].type));
    }
    if (rows_.empty() && !has_schema_) {
      schema_ = schema;
      has_schema_ = true;
    } else if (schema != schema_) {
      schema_mismatch_ = true;
    }
    for (size_t r = 0; r < batch.rows(); ++r) {
      uint64_t h = 0xcbf29ce484222325ull;
      for (const cloudiq::ColumnVector& col : batch.columns) {
        switch (col.type) {
          case cloudiq::ColumnType::kDouble: {
            uint64_t bits = 0;
            std::memcpy(&bits, &col.doubles[r], sizeof(bits));
            h = Mix64(h, bits);
            break;
          }
          case cloudiq::ColumnType::kString:
            h = MixBytes(h, col.strings[r]);
            break;
          default:
            h = Mix64(h, static_cast<uint64_t>(col.ints[r]));
        }
      }
      rows_.push_back(h);
    }
  }

  // 16 hex digits; "schema-mismatch" when batches disagreed on shape.
  std::string Hex() const {
    if (schema_mismatch_) return "schema-mismatch";
    std::vector<uint64_t> sorted = rows_;
    std::sort(sorted.begin(), sorted.end());
    uint64_t h = Mix64(0xcbf29ce484222325ull, schema_);
    h = Mix64(h, sorted.size());
    for (uint64_t v : sorted) h = Mix64(h, v);
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
    return buf;
  }

 private:
  std::vector<uint64_t> rows_;
  uint64_t schema_ = 0;
  bool has_schema_ = false;
  bool schema_mismatch_ = false;
};

// Splits `in` into consecutive batches of at most `rows_per_batch` rows
// (used by the digest self-test).
inline std::vector<cloudiq::Batch> SplitBatch(const cloudiq::Batch& in,
                                              size_t rows_per_batch) {
  std::vector<cloudiq::Batch> out;
  for (size_t first = 0; first < in.rows(); first += rows_per_batch) {
    cloudiq::Batch part = in.EmptyLike();
    size_t last = std::min(in.rows(), first + rows_per_batch);
    for (size_t r = first; r < last; ++r) in.AppendRowTo(&part, r);
    out.push_back(std::move(part));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Spans.
//
// Host-clock spans recorded around calls into CloudIQ's public functions,
// kept in memory and written out at exit. Each span has a name, start and
// end (steady-clock ns), its parent's index (-1 for a root), the id of the
// benchmark operation it belongs to, and the deltas of a few public
// counters across it. Nesting follows the call stack of the single
// benchmark thread.

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t op_id = 0;
  std::vector<int64_t> deltas;
};

class SpanRecorder {
 public:
  using CounterFn = std::function<std::vector<int64_t>()>;

  // Names of the counters `sample` returns, in order.
  void SetCounters(std::vector<std::string> names, CounterFn sample) {
    counter_names_ = std::move(names);
    sample_ = std::move(sample);
  }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_op_id(uint64_t op_id) { op_id_ = op_id; }

  // Returns the span index, or -1 when recording is off.
  int64_t Begin(std::string name) {
    if (!enabled_) return -1;
    Span span;
    span.name = std::move(name);
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.op_id = op_id_;
    if (sample_) span.deltas = sample_();
    span.start_ns = HostNanos();
    spans_.push_back(std::move(span));
    int64_t id = static_cast<int64_t>(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
  }

  void End(int64_t id) {
    if (id < 0) return;
    Span& span = spans_[id];
    span.end_ns = HostNanos();
    if (sample_) {
      std::vector<int64_t> now = sample_();
      for (size_t i = 0; i < now.size() && i < span.deltas.size(); ++i) {
        span.deltas[i] = now[i] - span.deltas[i];
      }
    }
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& counter_names() const {
    return counter_names_;
  }

 private:
  bool enabled_ = false;
  uint64_t op_id_ = 0;
  std::vector<Span> spans_;
  std::vector<int64_t> stack_;
  std::vector<std::string> counter_names_;
  CounterFn sample_;
};

// ---------------------------------------------------------------------------
// Never-write-twice accounting.
//
// Every call the benchmark makes that can write goes through Calls::Run,
// which takes the object store's overwrite counter before and after. A
// call's own delta (its delta minus its children's) is booked to the
// snapshot metadata bucket when the call is TakeSnapshot/CollectExpired,
// and to the data bucket otherwise; the data bucket must stay 0.

class Calls {
 public:
  using OverwritesFn = std::function<uint64_t()>;

  explicit Calls(SpanRecorder* spans) : spans_(spans) {}

  void set_overwrites(OverwritesFn fn) { overwrites_ = std::move(fn); }

  template <typename F>
  auto Run(const std::string& name, bool snapshot_metadata, F&& f)
      -> decltype(f()) {
    uint64_t before = overwrites_ ? overwrites_() : 0;
    frames_.push_back(0);
    int64_t span = spans_->Begin(name);
    auto result = f();
    spans_->End(span);
    uint64_t total = overwrites_ ? overwrites_() - before : 0;
    uint64_t children = frames_.back();
    frames_.pop_back();
    uint64_t self = total - std::min(total, children);
    if (self > 0) {
      if (snapshot_metadata) {
        metadata_overwrites_ += self;
      } else {
        data_overwrites_ += self;
        data_overwrite_calls_.push_back(name);
      }
    }
    if (!frames_.empty()) frames_.back() += total;
    return result;
  }

  template <typename F>
  auto operator()(const std::string& name, F&& f) -> decltype(f()) {
    return Run(name, /*snapshot_metadata=*/false, std::forward<F>(f));
  }

  uint64_t data_overwrites() const { return data_overwrites_; }
  uint64_t metadata_overwrites() const { return metadata_overwrites_; }
  const std::vector<std::string>& data_overwrite_calls() const {
    return data_overwrite_calls_;
  }

 private:
  SpanRecorder* spans_;
  OverwritesFn overwrites_;
  std::vector<uint64_t> frames_;
  uint64_t data_overwrites_ = 0;
  uint64_t metadata_overwrites_ = 0;
  std::vector<std::string> data_overwrite_calls_;
};

// RAII span for benchmark-level groupings (one operation, one pass).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* spans, std::string name)
      : spans_(spans), id_(spans->Begin(std::move(name))) {}
  ~ScopedSpan() { spans_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* spans_;
  int64_t id_;
};

// ---------------------------------------------------------------------------
// JSON writer: just enough for the raw output.

class Json {
 public:
  explicit Json(std::FILE* out) : out_(out) {}

  void BeginObject() { Open('{'); }
  void EndObject() { Close('}'); }
  void BeginArray() { Open('['); }
  void EndArray() { Close(']'); }

  void Key(const std::string& key) {
    Comma();
    WriteString(key);
    std::fputc(':', out_);
    after_key_ = true;
  }
  void String(const std::string& s) {
    Comma();
    WriteString(s);
  }
  void Number(double v) {
    Comma();
    if (std::isfinite(v)) {
      std::fprintf(out_, "%.17g", v);
    } else {
      std::fputs("null", out_);
    }
  }
  void Int(int64_t v) {
    Comma();
    std::fprintf(out_, "%" PRId64, v);
  }
  void Bool(bool v) {
    Comma();
    std::fputs(v ? "true" : "false", out_);
  }

  void Field(const std::string& key, double v) { Key(key); Number(v); }
  void FieldInt(const std::string& key, int64_t v) { Key(key); Int(v); }
  void FieldStr(const std::string& key, const std::string& v) {
    Key(key);
    String(v);
  }
  void FieldBool(const std::string& key, bool v) { Key(key); Bool(v); }
  void FieldArray(const std::string& key, const std::vector<double>& v) {
    Key(key);
    BeginArray();
    for (double x : v) Number(x);
    EndArray();
  }
  void FieldArrays(const std::string& key,
                   const std::vector<std::vector<double>>& v) {
    Key(key);
    BeginArray();
    for (const std::vector<double>& row : v) {
      BeginArray();
      for (double x : row) Number(x);
      EndArray();
    }
    EndArray();
  }

 private:
  void WriteString(const std::string& s) {
    std::fputc('"', out_);
    for (char c : s) {
      if (c == '"' || c == '\\') {
        std::fputc('\\', out_);
        std::fputc(c, out_);
      } else if (static_cast<unsigned char>(c) < 0x20) {
        std::fprintf(out_, "\\u%04x", c);
      } else {
        std::fputc(c, out_);
      }
    }
    std::fputc('"', out_);
  }
  void Comma() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_.empty()) {
      if (!first_.back()) std::fputc(',', out_);
      first_.back() = false;
    }
  }
  void Open(char c) {
    Comma();
    std::fputc(c, out_);
    first_.push_back(true);
  }
  void Close(char c) {
    first_.pop_back();
    std::fputc(c, out_);
  }

  std::FILE* out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_CPP_HARNESS_H_
