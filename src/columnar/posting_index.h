#ifndef CLOUDIQ_COLUMNAR_POSTING_INDEX_H_
#define CLOUDIQ_COLUMNAR_POSTING_INDEX_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/coding.h"
#include "common/interval_set.h"
#include "common/result.h"

namespace cloudiq {

class TransactionManager;
class StorageObject;
struct Transaction;
struct DbSpace;

// How each posting-index key type is stored: its encoding, its smallest
// encoded size (which bounds an untrusted count by the bytes left) and the
// per-entry size estimate that decides where the build cuts pages.
template <typename Key>
struct PostingKey;

template <>
struct PostingKey<int64_t> {
  static constexpr size_t kMinBytes = 8;
  static void Put(std::vector<uint8_t>& out, int64_t key) { PutI64(out, key); }
  static int64_t Get(ByteReader& reader) { return reader.GetI64(); }
  // Key, posting length and IntervalSet bytes.
  static uint64_t EntryEstimate(int64_t, const IntervalSet& rows) {
    return 24 + 16 * rows.IntervalCount();
  }
};

template <>
struct PostingKey<std::string> {
  static constexpr size_t kMinBytes = 4;
  static void Put(std::vector<uint8_t>& out, const std::string& key) {
    PutString(out, key);
  }
  static std::string Get(ByteReader& reader) { return reader.GetString(); }
  // Counts 8 bytes more than the key's encoded size; kept so TEXT index
  // pages cut where they always have.
  static uint64_t EntryEstimate(const std::string& key,
                                const IntervalSet& rows) {
    return key.size() + 28 + 16 * rows.IntervalCount();
  }
};

// Posting-list index (§1): a sorted map from key to the row-id
// IntervalSet of the rows holding that key. SAP IQ's High-Group (HG)
// index and its "niche" DATE and TEXT indexes are all this one structure;
// they differ only in how a row's value maps to keys:
//  * HG keys on the raw integer value (sorted distinct values with
//    bitmap-compressed postings);
//  * DATE keys on the value's calendar month, MonthKeyOfDays, so
//    datepart predicates such as `month(col)=9 AND year(col)=1995`
//    (Q14's shape) resolve without scanning the column;
//  * TEXT keys on each Tokenize()d word of a string, so
//    `LIKE '%special%requests%'` becomes the intersection of two posting
//    lists plus an exact check of the candidates.
//
// Postings are packed into pages of the index's own storage object. The
// per-page [first key, last key] ranges, kept in the table metadata, play
// the role of a B+-tree's inner levels: a probe reads only the pages whose
// range covers its key.
//
// Page format: [count u32]{ [key][len u64][IntervalSet bytes] }*.
template <typename Key>
class PostingIndex {
 public:
  using Postings = std::map<Key, IntervalSet>;
  using PageRanges = std::vector<std::pair<Key, Key>>;
  using Entries = std::vector<std::pair<Key, IntervalSet>>;

  // Encodes the postings in [first, last) as one page.
  static std::vector<uint8_t> EncodePage(
      typename Postings::const_iterator first,
      typename Postings::const_iterator last);

  // Decodes one page. A count or length that overruns the page, or bytes
  // left over after the last entry, is Corruption.
  static Result<Entries> DecodePage(const std::vector<uint8_t>& page);

  // Writes `postings` into a new storage object `object_id` owned by
  // `txn`, cutting a page before an entry whose size estimate would take
  // the page past `page_payload_target`. Returns the per-page key ranges
  // for the table metadata.
  static Result<PageRanges> Build(TransactionManager* txn_mgr,
                                  Transaction* txn, uint64_t object_id,
                                  DbSpace* space, const Postings& postings,
                                  uint64_t page_payload_target);

  // Rows holding `key`: reads only the pages whose range covers it.
  // Empty when the key is absent.
  static Result<IntervalSet> Lookup(StorageObject* object,
                                    const PageRanges& page_ranges,
                                    const Key& key);
};

// DATE index key of a calendar month: year*12 + (month-1).
inline int64_t MonthKey(int year, int month) {
  return static_cast<int64_t>(year) * 12 + (month - 1);
}

// DATE index key of a date value (`days` since epoch).
int64_t MonthKeyOfDays(int64_t days);

// TEXT index keys of a string: splits on non-alphanumeric characters and
// lower-cases ASCII.
std::vector<std::string> Tokenize(const std::string& text);

}  // namespace cloudiq

#endif  // CLOUDIQ_COLUMNAR_POSTING_INDEX_H_
