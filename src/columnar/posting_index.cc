#include "columnar/posting_index.h"

#include <cctype>
#include <iterator>

#include "columnar/value.h"
#include "txn/transaction_manager.h"

namespace cloudiq {

template <typename Key>
std::vector<uint8_t> PostingIndex<Key>::EncodePage(
    typename Postings::const_iterator first,
    typename Postings::const_iterator last) {
  std::vector<uint8_t> out;
  PutU32(out, static_cast<uint32_t>(std::distance(first, last)));
  for (auto it = first; it != last; ++it) {
    PostingKey<Key>::Put(out, it->first);
    std::vector<uint8_t> bytes = it->second.Serialize();
    PutU64(out, bytes.size());
    PutBytes(out, bytes.data(), bytes.size());
  }
  return out;
}

template <typename Key>
Result<typename PostingIndex<Key>::Entries> PostingIndex<Key>::DecodePage(
    const std::vector<uint8_t>& page) {
  ByteReader reader(page);
  // Every entry holds at least a key and its u64 posting length.
  uint32_t count = reader.GetCount(PostingKey<Key>::kMinBytes + 8);
  if (reader.overflow()) {
    return Status::Corruption("index page count overruns the page");
  }
  Entries entries;
  entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Key key = PostingKey<Key>::Get(reader);
    std::vector<uint8_t> rows = reader.GetBytes(reader.GetU64());
    if (reader.overflow()) {
      return Status::Corruption("index page entry overruns the page");
    }
    entries.emplace_back(std::move(key), IntervalSet::Deserialize(rows));
  }
  if (reader.remaining() != 0) {
    return Status::Corruption("index page has trailing bytes");
  }
  return entries;
}

template <typename Key>
Result<typename PostingIndex<Key>::PageRanges> PostingIndex<Key>::Build(
    TransactionManager* txn_mgr, Transaction* txn, uint64_t object_id,
    DbSpace* space, const Postings& postings,
    uint64_t page_payload_target) {
  CLOUDIQ_ASSIGN_OR_RETURN(StorageObject * object,
                           txn_mgr->CreateObject(txn, object_id, space));
  PageRanges page_ranges;
  auto page_begin = postings.begin();
  uint64_t page_bytes = 0;
  auto cut_page = [&](typename Postings::const_iterator page_end) -> Status {
    if (page_begin == page_end) return Status::Ok();
    CLOUDIQ_RETURN_IF_ERROR(
        object->AppendPage(EncodePage(page_begin, page_end)).status());
    page_ranges.emplace_back(page_begin->first, std::prev(page_end)->first);
    page_begin = page_end;
    page_bytes = 0;
    return Status::Ok();
  };
  for (auto it = postings.begin(); it != postings.end(); ++it) {
    uint64_t entry_bytes =
        PostingKey<Key>::EntryEstimate(it->first, it->second);
    if (it != page_begin && page_bytes + entry_bytes > page_payload_target) {
      CLOUDIQ_RETURN_IF_ERROR(cut_page(it));
    }
    page_bytes += entry_bytes;
  }
  CLOUDIQ_RETURN_IF_ERROR(cut_page(postings.end()));
  return page_ranges;
}

template <typename Key>
Result<IntervalSet> PostingIndex<Key>::Lookup(StorageObject* object,
                                              const PageRanges& page_ranges,
                                              const Key& key) {
  std::vector<uint64_t> pages;
  for (size_t p = 0; p < page_ranges.size(); ++p) {
    if (page_ranges[p].first <= key && key <= page_ranges[p].second) {
      pages.push_back(p);
    }
  }
  CLOUDIQ_RETURN_IF_ERROR(object->Prefetch(pages));
  IntervalSet rows;
  for (uint64_t p : pages) {
    CLOUDIQ_ASSIGN_OR_RETURN(BufferManager::PageData data,
                             object->ReadPage(p));
    CLOUDIQ_ASSIGN_OR_RETURN(Entries entries, DecodePage(*data));
    for (const auto& [entry_key, set] : entries) {
      if (entry_key != key) continue;
      for (const auto& iv : set.Intervals()) {
        rows.InsertRange(iv.begin, iv.end);
      }
    }
  }
  return rows;
}

template class PostingIndex<int64_t>;
template class PostingIndex<std::string>;

int64_t MonthKeyOfDays(int64_t days) {
  int year, month, day;
  CivilFromDays(days, &year, &month, &day);
  return MonthKey(year, month);
}

std::vector<std::string> Tokenize(const std::string& text) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      current.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(c))));
    } else if (!current.empty()) {
      tokens.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

}  // namespace cloudiq
