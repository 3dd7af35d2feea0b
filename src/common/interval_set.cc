#include "common/interval_set.h"

#include <cassert>
#include <cstring>

namespace cloudiq {

uint64_t IntervalSet::Count() const {
  uint64_t total = 0;
  for (const auto& [begin, end] : intervals_) total += end - begin;
  return total;
}

void IntervalSet::InsertRange(uint64_t begin, uint64_t end) {
  if (begin >= end) return;
  // Find the first interval that could merge with [begin, end): any interval
  // whose end >= begin (adjacent counts as mergeable).
  auto it = intervals_.lower_bound(begin);
  if (it != intervals_.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= begin) it = prev;
  }
  while (it != intervals_.end() && it->first <= end) {
    begin = std::min(begin, it->first);
    end = std::max(end, it->second);
    it = intervals_.erase(it);
  }
  intervals_[begin] = end;
}

void IntervalSet::EraseRange(uint64_t begin, uint64_t end) {
  if (begin >= end) return;
  auto it = intervals_.lower_bound(begin);
  if (it != intervals_.begin()) {
    auto prev = std::prev(it);
    if (prev->second > begin) it = prev;
  }
  while (it != intervals_.end() && it->first < end) {
    uint64_t ib = it->first;
    uint64_t ie = it->second;
    it = intervals_.erase(it);
    if (ib < begin) intervals_[ib] = begin;
    if (ie > end) {
      intervals_[end] = ie;
      break;
    }
  }
}

bool IntervalSet::Contains(uint64_t value) const {
  auto it = intervals_.upper_bound(value);
  if (it == intervals_.begin()) return false;
  --it;
  return value >= it->first && value < it->second;
}

uint64_t IntervalSet::Min() const {
  assert(!intervals_.empty());
  return intervals_.begin()->first;
}

uint64_t IntervalSet::Max() const {
  assert(!intervals_.empty());
  return std::prev(intervals_.end())->second - 1;
}

std::vector<IntervalSet::Interval> IntervalSet::Intervals() const {
  std::vector<Interval> out;
  out.reserve(intervals_.size());
  for (const auto& [begin, end] : intervals_) out.push_back({begin, end});
  return out;
}

std::vector<uint64_t> IntervalSet::Values() const {
  std::vector<uint64_t> out;
  out.reserve(Count());
  for (const auto& [begin, end] : intervals_) {
    for (uint64_t v = begin; v < end; ++v) out.push_back(v);
  }
  return out;
}

std::vector<uint8_t> IntervalSet::Serialize() const {
  std::vector<uint8_t> out(sizeof(uint64_t) * (1 + 2 * intervals_.size()));
  uint64_t count = intervals_.size();
  std::memcpy(out.data(), &count, sizeof(uint64_t));
  size_t off = sizeof(uint64_t);
  for (const auto& [begin, end] : intervals_) {
    std::memcpy(out.data() + off, &begin, sizeof(uint64_t));
    off += sizeof(uint64_t);
    std::memcpy(out.data() + off, &end, sizeof(uint64_t));
    off += sizeof(uint64_t);
  }
  return out;
}

IntervalSet IntervalSet::Deserialize(const std::vector<uint8_t>& bytes) {
  IntervalSet set;
  if (bytes.size() < sizeof(uint64_t)) return set;
  uint64_t count = 0;
  std::memcpy(&count, bytes.data(), sizeof(uint64_t));
  size_t off = sizeof(uint64_t);
  for (uint64_t i = 0; i < count; ++i) {
    if (off + 2 * sizeof(uint64_t) > bytes.size()) break;
    uint64_t begin = 0;
    uint64_t end = 0;
    std::memcpy(&begin, bytes.data() + off, sizeof(uint64_t));
    off += sizeof(uint64_t);
    std::memcpy(&end, bytes.data() + off, sizeof(uint64_t));
    off += sizeof(uint64_t);
    // Serialize writes sorted, coalesced intervals: each one that starts
    // past the last end appends at the back. Anything else merges.
    auto& map = set.intervals_;
    if (begin < end && (map.empty() || begin > map.rbegin()->second)) {
      map.emplace_hint(map.end(), begin, end);
    } else {
      set.InsertRange(begin, end);
    }
  }
  return set;
}

}  // namespace cloudiq
