#include "columnar/table_reader.h"

#include <algorithm>

namespace cloudiq {

TableReader::TableReader(TransactionManager* txn_mgr, Transaction* txn,
                         TableMeta meta)
    : txn_mgr_(txn_mgr), txn_(txn), meta_(std::move(meta)) {}

Result<TableReader> TableReader::Open(TransactionManager* txn_mgr,
                                      Transaction* txn, SystemStore* system,
                                      uint64_t table_id) {
  SimClock& clock = txn_mgr->storage().node()->clock();
  SimTime done = clock.now();
  CLOUDIQ_ASSIGN_OR_RETURN(
      std::vector<uint8_t> bytes,
      system->Get("tablemeta/" + std::to_string(table_id), clock.now(),
                  &done));
  clock.AdvanceTo(done);
  CLOUDIQ_ASSIGN_OR_RETURN(TableMeta meta, TableMeta::Deserialize(bytes));
  return TableReader(txn_mgr, txn, std::move(meta));
}

Result<StorageObject*> TableReader::ObjectFor(uint64_t object_id) {
  auto it = objects_.find(object_id);
  if (it != objects_.end()) return it->second.get();
  CLOUDIQ_ASSIGN_OR_RETURN(std::unique_ptr<StorageObject> object,
                           txn_mgr_->OpenForRead(txn_, object_id));
  StorageObject* ptr = object.get();
  objects_[object_id] = std::move(object);
  return ptr;
}

Result<ColumnVector> TableReader::ReadPage(size_t partition, int column,
                                           size_t page) {
  CLOUDIQ_ASSIGN_OR_RETURN(BufferManager::PageData data,
                           FetchPage(partition, column, page));
  return DecodeColumnPage(*data);
}

Result<BufferManager::PageData> TableReader::FetchPage(size_t partition,
                                                       int column,
                                                       size_t page) {
  const SegmentMeta& seg = meta_.partitions[partition].columns[column];
  CLOUDIQ_ASSIGN_OR_RETURN(StorageObject * object,
                           ObjectFor(seg.object_id));
  CLOUDIQ_ASSIGN_OR_RETURN(BufferManager::PageData data,
                           object->ReadPage(page));
  // Counted at fetch (not decode) time: every fetched frame is decoded
  // exactly once either way, and the executor charges decode CPU from
  // this before its parallel region runs.
  decoded_bytes_ += data->size();
  return data;
}

Status TableReader::Prefetch(size_t partition, int column,
                             const std::vector<uint64_t>& pages) {
  const SegmentMeta& seg = meta_.partitions[partition].columns[column];
  CLOUDIQ_ASSIGN_OR_RETURN(StorageObject * object,
                           ObjectFor(seg.object_id));
  return object->Prefetch(pages);
}

std::vector<uint64_t> TableReader::PrunePagesInt(size_t partition,
                                                 int column, int64_t lo,
                                                 int64_t hi) const {
  const SegmentMeta& seg = meta_.partitions[partition].columns[column];
  std::vector<uint64_t> pages;
  for (size_t p = 0; p < seg.zones.size(); ++p) {
    if (seg.zones[p].max_int >= lo && seg.zones[p].min_int <= hi) {
      pages.push_back(p);
    }
  }
  return pages;
}

bool TableReader::PushdownEligible() const {
  if (txn_mgr_->storage().options().encrypt_pages) return false;
  if (txn_ != nullptr && txn_mgr_->buffer().HasDirty(txn_->id)) {
    return false;
  }
  return true;
}

Result<std::vector<TableReader::CloudPageRef>> TableReader::CloudPageRefs(
    size_t partition, int column, const std::vector<uint64_t>& pages) {
  const SegmentMeta& seg = meta_.partitions[partition].columns[column];
  CLOUDIQ_ASSIGN_OR_RETURN(StorageObject * object,
                           ObjectFor(seg.object_id));
  if (!object->space()->is_cloud()) {
    return Status::FailedPrecondition("segment not on a cloud dbspace");
  }
  // Prefix-sum of page_rows once; pages arrive ascending from the zone
  // pruner.
  std::vector<uint64_t> first_rows(seg.page_rows.size() + 1, 0);
  for (size_t p = 0; p < seg.page_rows.size(); ++p) {
    first_rows[p + 1] = first_rows[p] + seg.page_rows[p];
  }
  ObjectStoreIo& io = txn_mgr_->storage().object_io();
  std::vector<CloudPageRef> refs;
  refs.reserve(pages.size());
  for (uint64_t page : pages) {
    if (page >= seg.page_rows.size()) {
      return Status::InvalidArgument("page out of range");
    }
    CLOUDIQ_ASSIGN_OR_RETURN(PhysicalLoc loc,
                             object->blockmap().Lookup(page));
    if (!loc.is_cloud()) {
      return Status::FailedPrecondition("page not cloud-resident");
    }
    refs.push_back(CloudPageRef{io.StoreKey(loc.cloud_key()),
                                first_rows[page],
                                static_cast<uint32_t>(seg.page_rows[page]),
                                loc.cloud_key()});
  }
  return refs;
}

TableReader::Residency TableReader::ProbeResidency(
    size_t partition, int column, const std::vector<uint64_t>& pages) {
  Residency res;
  res.pages = pages.size();
  Result<StorageObject*> object = ObjectFor(
      meta_.partitions[partition].columns[column].object_id);
  if (!object.ok()) return res;  // unknown: price everything cold
  uint32_t space_id = object.value()->space()->id;
  BufferManager& buffer = txn_mgr_->buffer();
  CloudCache* cache = txn_mgr_->storage().cloud_cache();
  for (uint64_t page : pages) {
    Result<PhysicalLoc> loc = object.value()->blockmap().Lookup(page);
    if (!loc.ok() || !loc.value().valid()) {
      ++res.in_buffer;  // dirty / unmapped: served from RAM, never fetched
      continue;
    }
    if (buffer.Cached(space_id, loc.value())) {
      ++res.in_buffer;
    } else if (cache != nullptr && loc.value().is_cloud() &&
               cache->Resident(loc.value().cloud_key())) {
      ++res.in_cloud_cache;
    }
  }
  return res;
}

uint64_t TableReader::PageFirstRow(size_t partition, int column,
                                   size_t page) const {
  const SegmentMeta& seg = meta_.partitions[partition].columns[column];
  uint64_t row = 0;
  for (size_t p = 0; p < page && p < seg.page_rows.size(); ++p) {
    row += seg.page_rows[p];
  }
  return row;
}

template <typename Key>
Result<IntervalSet> TableReader::ProbeIndex(
    const std::vector<int>& columns, const PartitionIndexes<Key>& indexes,
    int column, const Key& key) {
  auto it = std::find(columns.begin(), columns.end(), column);
  if (it == columns.end()) {
    return Status::InvalidArgument("column has no index of this kind");
  }
  size_t slot = static_cast<size_t>(it - columns.begin());
  if (indexes.objects[slot] == 0) return IntervalSet();  // no rows
  CLOUDIQ_ASSIGN_OR_RETURN(StorageObject * object,
                           ObjectFor(indexes.objects[slot]));
  return PostingIndex<Key>::Lookup(object, indexes.page_ranges[slot], key);
}

Result<IntervalSet> TableReader::IndexLookup(size_t partition, int column,
                                             int64_t value) {
  return ProbeIndex(meta_.schema.hg_index_columns,
                    meta_.partitions[partition].hg_indexes, column, value);
}

Result<IntervalSet> TableReader::DateIndexMonth(size_t partition,
                                                int column, int year,
                                                int month) {
  return ProbeIndex(meta_.schema.date_index_columns,
                    meta_.partitions[partition].date_indexes, column,
                    MonthKey(year, month));
}

Result<IntervalSet> TableReader::TextIndexAllWords(
    size_t partition, int column, const std::vector<std::string>& words) {
  IntervalSet result;
  for (size_t w = 0; w < words.size(); ++w) {
    CLOUDIQ_ASSIGN_OR_RETURN(
        IntervalSet rows,
        ProbeIndex(meta_.schema.text_index_columns,
                   meta_.partitions[partition].text_indexes, column,
                   words[w]));
    if (w == 0) {
      result = std::move(rows);
    } else {
      // Intersect: keep only rows holding every word so far.
      IntervalSet intersection;
      for (const auto& iv : result.Intervals()) {
        for (uint64_t v = iv.begin; v < iv.end; ++v) {
          if (rows.Contains(v)) intersection.Insert(v);
        }
      }
      result = std::move(intersection);
    }
    if (result.empty()) break;
  }
  return result;
}

}  // namespace cloudiq
