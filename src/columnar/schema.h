#ifndef CLOUDIQ_COLUMNAR_SCHEMA_H_
#define CLOUDIQ_COLUMNAR_SCHEMA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "columnar/encoding.h"
#include "columnar/posting_index.h"
#include "columnar/value.h"
#include "common/result.h"

namespace cloudiq {

struct ColumnDef {
  std::string name;
  ColumnType type = ColumnType::kInt64;
};

// Logical table definition. Tables can be range-partitioned on one column
// (as the paper's TPC-H setup creates them) and carry posting-list
// indexes (HG, DATE, TEXT; see posting_index.h) on selected columns.
struct TableSchema {
  std::string name;
  uint64_t table_id = 0;
  std::vector<ColumnDef> columns;

  // Range partitioning: rows route to the first partition whose upper
  // bound exceeds the partition column's value (+1 overflow partition).
  // -1 = single partition.
  int partition_column = -1;
  std::vector<int64_t> partition_bounds;  // ascending upper bounds

  // Columns with High-Group indexes (must be int-family).
  std::vector<int> hg_index_columns;
  // DATE-typed columns with datepart (year/month) indexes.
  std::vector<int> date_index_columns;
  // String columns with inverted-word TEXT indexes.
  std::vector<int> text_index_columns;

  int ColumnIndex(const std::string& column_name) const {
    for (size_t i = 0; i < columns.size(); ++i) {
      if (columns[i].name == column_name) return static_cast<int>(i);
    }
    return -1;
  }

  size_t partition_count() const {
    return partition_column < 0 ? 1 : partition_bounds.size() + 1;
  }
};

// Durable per-segment metadata: where a (partition, column) segment's
// pages live and their zone maps (§1: zone maps "early-prune pages that
// are not needed for a query").
struct SegmentMeta {
  uint64_t object_id = 0;
  uint64_t row_count = 0;
  std::vector<ZoneMapEntry> zones;  // one per page, in page order
  std::vector<uint32_t> page_rows;  // rows per page
  // Stored frame bytes per page (EncodePage output; encryption is
  // size-preserving). This is the size S3 SELECT bills as "scanned", so
  // the cost model can price pushdown against real billing instead of a
  // decoded-width guess. May be empty; the executor then prices pushdown
  // from decoded widths.
  std::vector<uint32_t> page_bytes;
};

// One index kind's slots in a partition, parallel to that kind's column
// list in TableSchema: the index storage object (0 when the partition has
// no rows to index) and its per-page key ranges, which prune index page
// reads.
template <typename Key>
struct PartitionIndexes {
  std::vector<uint64_t> objects;
  std::vector<typename PostingIndex<Key>::PageRanges> page_ranges;
};

// Per-partition metadata: one segment per column plus the index slots.
struct PartitionMeta {
  uint64_t row_count = 0;
  std::vector<SegmentMeta> columns;
  PartitionIndexes<int64_t> hg_indexes;        // hg_index_columns
  PartitionIndexes<int64_t> date_indexes;      // date_index_columns
  PartitionIndexes<std::string> text_indexes;  // text_index_columns
};

struct TableMeta {
  TableSchema schema;
  std::vector<PartitionMeta> partitions;

  uint64_t TotalRows() const {
    uint64_t n = 0;
    for (const auto& p : partitions) n += p.row_count;
    return n;
  }

  std::vector<uint8_t> Serialize() const;
  // Corruption when a count or length overruns the bytes, bytes are left
  // over, or a partition's segments or index slots do not match the
  // schema's column and index lists.
  static Result<TableMeta> Deserialize(const std::vector<uint8_t>& bytes);
};

}  // namespace cloudiq

#endif  // CLOUDIQ_COLUMNAR_SCHEMA_H_
