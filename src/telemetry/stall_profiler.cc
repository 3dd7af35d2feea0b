#include "telemetry/stall_profiler.h"

#include <algorithm>
#include <cassert>

namespace cloudiq {

const char* WaitClassName(WaitClass cls) {
  switch (cls) {
    case WaitClass::kCpuExec:
      return "cpu_exec";
    case WaitClass::kLockWait:
      return "lock_wait";
    case WaitClass::kAdmissionQueue:
      return "admission_queue";
    case WaitClass::kBufferFill:
      return "buffer_fill";
    case WaitClass::kOcmFetch:
      return "ocm_fetch";
    case WaitClass::kOcmUpload:
      return "ocm_upload";
    case WaitClass::kNetworkTransfer:
      return "network_transfer";
    case WaitClass::kThrottleBackoff:
      return "throttle_backoff";
    case WaitClass::kNdpSelect:
      return "ndp_select";
  }
  return "unknown";
}

StallProfiler::Key StallProfiler::CurrentKey() const {
  AttributionContext attr = ledger_->current();
  return Key{attr.query_id, attr.operator_id, attr.node_id};
}

StallProfiler::Frame* StallProfiler::FrameLocked() {
  return current_frame_ != nullptr ? current_frame_ : &default_frame_;
}

void StallProfiler::RegisterLocked(const Key& key, WaitClass cls, int64_t n,
                                   bool wall) {
  if (n == 0) return;
  Frame* frame = FrameLocked();
  if (wall && !frame->stack.empty() &&
      frame->stack.back().kind == Frame::Node::kScope) {
    frame->stack.back().inner_ns += n;
  }
  // The innermost parallel/background section decides where the charge
  // lands; scopes are transparent for this (they only track inner time).
  for (auto it = frame->stack.rbegin(); it != frame->stack.rend(); ++it) {
    if (it->kind == Frame::Node::kParallel) {
      it->lanes[{key, static_cast<int>(cls)}] += n;
      return;
    }
    if (it->kind == Frame::Node::kBackground) {
      Entry& entry = entries_[key];
      entry.ns[static_cast<int>(cls)] += n;
      entry.background += n;
      background_ns_ += n;
      return;
    }
  }
  entries_[key].ns[static_cast<int>(cls)] += n;
  // Only wall charges outside any section credit the window directly.
  // Inside a foreground scope the outermost scope's elapsed credits it
  // when the scope closes — which also covers the scope's own residual
  // (wall=false), so that must never credit the window a second time.
  if (wall && frame->stack.empty()) window_ns_ += n;
}

void StallProfiler::Charge(WaitClass cls, double start_seconds,
                           double end_seconds) {
  int64_t n = ToNanos(end_seconds) - ToNanos(start_seconds);
  if (n <= 0) return;
  Key key = CurrentKey();
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->CompleteSpan(key.node_id, kTrackStall, "stall",
                          WaitClassName(cls), start_seconds, end_seconds);
  }
  MutexLock lock(&mu_);
  RegisterLocked(key, cls, n, /*wall=*/true);
}

void StallProfiler::BeginScope(WaitClass cls, double start_seconds) {
  MutexLock lock(&mu_);
  Frame::Node node;
  node.kind = Frame::Node::kScope;
  node.cls = cls;
  node.start_ns = ToNanos(start_seconds);
  FrameLocked()->stack.push_back(std::move(node));
}

void StallProfiler::PinScopeAttribution() {
  Key key = CurrentKey();
  MutexLock lock(&mu_);
  Frame* frame = FrameLocked();
  for (auto it = frame->stack.rbegin(); it != frame->stack.rend(); ++it) {
    if (it->kind == Frame::Node::kScope) {
      it->pinned = true;
      it->key = key;
      return;
    }
  }
}

void StallProfiler::EndScope(double end_seconds) {
  Key current = CurrentKey();
  MutexLock lock(&mu_);
  Frame* frame = FrameLocked();
  assert(!frame->stack.empty() &&
         frame->stack.back().kind == Frame::Node::kScope);
  if (frame->stack.empty()) return;
  Frame::Node scope = std::move(frame->stack.back());
  frame->stack.pop_back();

  int64_t elapsed = ToNanos(end_seconds) - scope.start_ns;
  if (elapsed < 0) elapsed = 0;
  // Inner charges are disjoint sub-windows converted with the same
  // monotonic llround, so they cannot exceed the scope's own elapsed;
  // the clamp only defends against mis-bracketed instrumentation.
  int64_t residual = elapsed - scope.inner_ns;
  if (residual < 0) {
    assert(false && "stall scope inner charges exceed elapsed");
    residual = 0;
    elapsed = scope.inner_ns;
  }
  const Key& key = scope.pinned ? scope.key : current;
  RegisterLocked(key, scope.cls, residual, /*wall=*/false);

  if (frame->stack.empty()) {
    window_ns_ += elapsed;
  } else if (frame->stack.back().kind == Frame::Node::kScope) {
    frame->stack.back().inner_ns += elapsed;
  }
  // Parent parallel/background: nothing — the scope's charges landed in
  // the lanes / background tally individually, summing to elapsed.
}

void StallProfiler::BeginParallel(double start_seconds) {
  MutexLock lock(&mu_);
  Frame::Node node;
  node.kind = Frame::Node::kParallel;
  node.start_ns = ToNanos(start_seconds);
  FrameLocked()->stack.push_back(std::move(node));
}

void StallProfiler::EndParallel(double end_seconds) {
  MutexLock lock(&mu_);
  Frame* frame = FrameLocked();
  assert(!frame->stack.empty() &&
         frame->stack.back().kind == Frame::Node::kParallel);
  if (frame->stack.empty()) return;
  Frame::Node section = std::move(frame->stack.back());
  frame->stack.pop_back();

  int64_t elapsed = ToNanos(end_seconds) - section.start_ns;
  if (elapsed < 0) elapsed = 0;
  if (section.lanes.empty()) return;  // wall time absorbed by the parent

  int64_t weight = 0;
  for (const auto& [lane, n] : section.lanes) weight += n;
  if (weight <= elapsed) {
    // No overlap (or idle tail): register raw lane charges; the
    // remainder stays with the parent scope's residual.
    for (const auto& [lane, n] : section.lanes) {
      RegisterLocked(lane.first, static_cast<WaitClass>(lane.second), n,
                     /*wall=*/true);
    }
    return;
  }

  // Lanes overlapped in wall sim-time: scale the raw charges down to the
  // section's actual elapsed nanoseconds, largest-remainder rounding so
  // the scaled parts sum to `elapsed` exactly and deterministically
  // (lanes is an ordered map).
  struct Share {
    const Key* key;
    int cls;
    int64_t base;
    int64_t rem;
    size_t order;
  };
  std::vector<Share> shares;
  shares.reserve(section.lanes.size());
  int64_t assigned = 0;
  size_t order = 0;
  for (const auto& [lane, n] : section.lanes) {
    __int128 scaled = static_cast<__int128>(n) * elapsed;
    int64_t base = static_cast<int64_t>(scaled / weight);
    int64_t rem = static_cast<int64_t>(scaled % weight);
    assigned += base;
    shares.push_back(Share{&lane.first, lane.second, base, rem, order++});
  }
  int64_t leftover = elapsed - assigned;  // 0 <= leftover < lanes.size()
  std::sort(shares.begin(), shares.end(), [](const Share& a, const Share& b) {
    if (a.rem != b.rem) return a.rem > b.rem;
    return a.order < b.order;
  });
  for (Share& share : shares) {
    int64_t n = share.base + (leftover > 0 ? 1 : 0);
    if (leftover > 0) --leftover;
    RegisterLocked(*share.key, static_cast<WaitClass>(share.cls), n,
                   /*wall=*/true);
  }
}

void StallProfiler::BeginBackground() {
  MutexLock lock(&mu_);
  Frame::Node node;
  node.kind = Frame::Node::kBackground;
  FrameLocked()->stack.push_back(std::move(node));
}

void StallProfiler::EndBackground() {
  MutexLock lock(&mu_);
  Frame* frame = FrameLocked();
  assert(!frame->stack.empty() &&
         frame->stack.back().kind == Frame::Node::kBackground);
  if (!frame->stack.empty()) frame->stack.pop_back();
}

StallProfiler::Frame* StallProfiler::SwapFrame(Frame* next) {
  MutexLock lock(&mu_);
  Frame* prev = current_frame_;
  current_frame_ = next;
  return prev;
}

StallProfiler::Entry StallProfiler::QueryTotal(uint64_t query_id) const {
  Entry total;
  MutexLock lock(&mu_);
  for (const auto& [key, entry] : entries_) {
    if (key.query_id == query_id) total.Fold(entry);
  }
  return total;
}

StallProfiler::Entry StallProfiler::GrandTotal() const {
  Entry total;
  MutexLock lock(&mu_);
  for (const auto& [key, entry] : entries_) total.Fold(entry);
  return total;
}

StallProfiler::Entry StallProfiler::TenantTotal(
    const std::string& tenant) const {
  // One ledger lock per call, taken before (not inside) our own.
  std::map<uint64_t, std::string> tenants = ledger_->query_tenants();
  Entry total;
  MutexLock lock(&mu_);
  for (const auto& [key, entry] : entries_) {
    auto it = tenants.find(key.query_id);
    bool mine = it == tenants.end() ? tenant.empty() : it->second == tenant;
    if (mine) total.Fold(entry);
  }
  return total;
}

void StallProfiler::Reset() {
  MutexLock lock(&mu_);
  entries_.clear();
  window_ns_ = 0;
  background_ns_ = 0;
  default_frame_.stack.clear();
  current_frame_ = nullptr;
}

}  // namespace cloudiq
