#include "columnar/table_loader.h"

#include <algorithm>
#include <cassert>

#include "store/page_codec.h"

namespace cloudiq {
namespace {

uint64_t ValueBytes(const ColumnVector& col, size_t i) {
  switch (col.type) {
    case ColumnType::kString:
      return col.strings[i].size() + 4;
    default:
      return 8;
  }
}

}  // namespace

TableLoader::TableLoader(TransactionManager* txn_mgr, Transaction* txn,
                         DbSpace* space, TableSchema schema,
                         Options options)
    : txn_mgr_(txn_mgr),
      txn_(txn),
      space_(space),
      schema_(std::move(schema)),
      options_(options) {
  partitions_.resize(schema_.partition_count());
  for (size_t p = 0; p < partitions_.size(); ++p) {
    PartitionState& part = partitions_[p];
    part.staging.resize(schema_.columns.size());
    part.staged_col_bytes.resize(schema_.columns.size(), 0);
    part.objects.resize(schema_.columns.size(), nullptr);
    part.segments.resize(schema_.columns.size());
    part.hg_postings.resize(schema_.hg_index_columns.size());
    part.date_postings.resize(schema_.date_index_columns.size());
    part.text_postings.resize(schema_.text_index_columns.size());
    for (size_t c = 0; c < schema_.columns.size(); ++c) {
      part.staging[c].type = schema_.columns[c].type;
      part.segments[c].object_id =
          ObjectIdFor(schema_.table_id, p, c);
    }
  }
}

size_t TableLoader::PartitionFor(int64_t value) const {
  for (size_t i = 0; i < schema_.partition_bounds.size(); ++i) {
    if (value < schema_.partition_bounds[i]) return i;
  }
  return schema_.partition_bounds.size();
}

Status TableLoader::Append(const std::vector<ColumnVector>& batch) {
  if (batch.size() != schema_.columns.size()) {
    return Status::InvalidArgument("batch column count mismatch");
  }
  size_t rows = batch.empty() ? 0 : batch[0].size();
  for (const ColumnVector& col : batch) {
    if (col.size() != rows) {
      return Status::InvalidArgument("ragged batch");
    }
  }

  uint64_t page_threshold = static_cast<uint64_t>(
      space_->page_size * options_.target_page_fill);
  for (size_t i = 0; i < rows; ++i) {
    size_t p = 0;
    if (schema_.partition_column >= 0) {
      p = PartitionFor(batch[schema_.partition_column].ints[i]);
    }
    PartitionState& part = partitions_[p];
    // Each column's staged footprint is tracked independently; a column
    // cuts a page as soon as *its* bytes near the page size.
    for (size_t c = 0; c < batch.size(); ++c) {
      part.staging[c].Append(batch[c], i);
      uint64_t bytes = ValueBytes(batch[c], i);
      cpu_seconds_ += options_.encode_cpu_per_byte * bytes;
      part.staged_col_bytes[c] += bytes;
      if (part.staged_col_bytes[c] >= page_threshold) {
        CLOUDIQ_RETURN_IF_ERROR(EmitColumnPage(&part, c));
      }
    }
    uint64_t row = part.row_count++;
    for (size_t s = 0; s < schema_.hg_index_columns.size(); ++s) {
      int col = schema_.hg_index_columns[s];
      part.hg_postings[s][batch[col].ints[i]].Insert(row);
    }
    for (size_t s = 0; s < schema_.date_index_columns.size(); ++s) {
      int col = schema_.date_index_columns[s];
      part.date_postings[s][MonthKeyOfDays(batch[col].ints[i])].Insert(row);
    }
    for (size_t s = 0; s < schema_.text_index_columns.size(); ++s) {
      int col = schema_.text_index_columns[s];
      for (const std::string& word : Tokenize(batch[col].strings[i])) {
        part.text_postings[s][word].Insert(row);
      }
    }
  }
  rows_appended_ += rows;
  return Status::Ok();
}

Status TableLoader::EmitColumnPage(PartitionState* part, size_t c) {
  size_t rows = part->staging[c].size();
  if (rows == 0) return Status::Ok();
  if (part->objects[c] == nullptr) {
    CLOUDIQ_ASSIGN_OR_RETURN(
        part->objects[c],
        txn_mgr_->CreateObject(txn_, part->segments[c].object_id, space_));
  }
  ZoneMapEntry zone;
  std::vector<uint8_t> payload =
      EncodeColumnPage(part->staging[c], 0, rows, &zone);
  cpu_seconds_ += options_.encode_cpu_per_byte * payload.size();
  // Record the stored frame size before the payload moves: the flush
  // pipeline wraps it in EncodePage (encryption is size-preserving), so
  // this is exactly what an S3 SELECT over the page bills as scanned.
  part->segments[c].page_bytes.push_back(
      static_cast<uint32_t>(EncodePage(payload).size()));
  CLOUDIQ_RETURN_IF_ERROR(
      part->objects[c]->AppendPage(std::move(payload)).status());
  part->segments[c].zones.push_back(zone);
  part->segments[c].page_rows.push_back(static_cast<uint32_t>(rows));
  part->segments[c].row_count += rows;
  part->staging[c] = ColumnVector();
  part->staging[c].type = schema_.columns[c].type;
  part->staged_col_bytes[c] = 0;
  return Status::Ok();
}

template <typename Key>
Status TableLoader::BuildIndexes(
    size_t partition, size_t slot_base,
    const std::vector<typename PostingIndex<Key>::Postings>& postings,
    PartitionIndexes<Key>* indexes) {
  uint64_t page_target = static_cast<uint64_t>(
      space_->page_size * options_.target_page_fill);
  for (size_t s = 0; s < postings.size(); ++s) {
    if (postings[s].empty()) {
      indexes->objects.push_back(0);
      indexes->page_ranges.emplace_back();
      continue;
    }
    uint64_t object_id =
        ObjectIdFor(schema_.table_id, partition, slot_base + s);
    CLOUDIQ_ASSIGN_OR_RETURN(
        auto ranges, PostingIndex<Key>::Build(txn_mgr_, txn_, object_id,
                                              space_, postings[s],
                                              page_target));
    indexes->objects.push_back(object_id);
    indexes->page_ranges.push_back(std::move(ranges));
  }
  return Status::Ok();
}

Result<TableMeta> TableLoader::Finish(SystemStore* system) {
  TableMeta meta;
  meta.schema = schema_;
  meta.partitions.resize(partitions_.size());
  for (size_t p = 0; p < partitions_.size(); ++p) {
    PartitionState& part = partitions_[p];
    for (size_t c = 0; c < schema_.columns.size(); ++c) {
      CLOUDIQ_RETURN_IF_ERROR(EmitColumnPage(&part, c));
    }
    PartitionMeta& pm = meta.partitions[p];
    pm.row_count = part.row_count;
    pm.columns = part.segments;
    CLOUDIQ_RETURN_IF_ERROR(BuildIndexes(p, 90, part.hg_postings,
                                         &pm.hg_indexes));
    CLOUDIQ_RETURN_IF_ERROR(BuildIndexes(p, 70, part.date_postings,
                                         &pm.date_indexes));
    CLOUDIQ_RETURN_IF_ERROR(BuildIndexes(p, 60, part.text_postings,
                                         &pm.text_indexes));
  }

  SimClock& clock = txn_mgr_->storage().node()->clock();
  SimTime done = clock.now();
  CLOUDIQ_RETURN_IF_ERROR(system->Put(
      "tablemeta/" + std::to_string(schema_.table_id), meta.Serialize(),
      clock.now(), &done));
  clock.AdvanceTo(done);
  return meta;
}

}  // namespace cloudiq
