#include "columnar/schema.h"

namespace cloudiq {
namespace {

// Smallest encoded sizes, which bound each untrusted count by the bytes
// left: a column is [name str][type u32], a zone three u64 pairs, two
// strings and a u32.
constexpr size_t kMinColumnBytes = 8;
constexpr size_t kMinZoneBytes = 44;

void PutBlob(std::vector<uint8_t>& out, const std::vector<uint8_t>& blob) {
  PutU64(out, blob.size());
  PutBytes(out, blob.data(), blob.size());
}

// The [len u64][bytes] blob at `reader`, as a reader of its own. When the
// length overruns, `reader` latches overflow and the blob reads as empty.
ByteReader GetBlob(ByteReader& reader) {
  uint64_t len = reader.GetU64();
  const uint8_t* bytes = reader.GetPointer(len);
  return bytes == nullptr ? ByteReader(nullptr, 0) : ByteReader(bytes, len);
}

// Corruption unless `reader` read exactly all of its bytes.
Status CheckConsumed(const ByteReader& reader, const char* what) {
  if (reader.overflow() || reader.remaining() != 0) {
    return Status::Corruption(std::string(what) + " overruns its bytes");
  }
  return Status::Ok();
}

void PutInts(std::vector<uint8_t>& out, const std::vector<int>& values) {
  PutU32(out, static_cast<uint32_t>(values.size()));
  for (int v : values) PutI64(out, v);
}

std::vector<int> GetInts(ByteReader& reader) {
  std::vector<int> values(reader.GetCount(8));
  for (int& v : values) v = static_cast<int>(reader.GetI64());
  return values;
}

void PutZone(std::vector<uint8_t>& out, const ZoneMapEntry& zone) {
  PutI64(out, zone.min_int);
  PutI64(out, zone.max_int);
  PutDouble(out, zone.min_double);
  PutDouble(out, zone.max_double);
  PutString(out, zone.min_string);
  PutString(out, zone.max_string);
  PutU32(out, zone.row_count);
}

ZoneMapEntry GetZone(ByteReader& reader) {
  ZoneMapEntry zone;
  zone.min_int = reader.GetI64();
  zone.max_int = reader.GetI64();
  zone.min_double = reader.GetDouble();
  zone.max_double = reader.GetDouble();
  zone.min_string = reader.GetString();
  zone.max_string = reader.GetString();
  zone.row_count = reader.GetU32();
  return zone;
}

std::vector<uint8_t> SerializeSchema(const TableSchema& schema) {
  std::vector<uint8_t> out;
  PutString(out, schema.name);
  PutU64(out, schema.table_id);
  PutU32(out, static_cast<uint32_t>(schema.columns.size()));
  for (const ColumnDef& col : schema.columns) {
    PutString(out, col.name);
    PutU32(out, static_cast<uint32_t>(col.type));
  }
  PutI64(out, schema.partition_column);
  PutU32(out, static_cast<uint32_t>(schema.partition_bounds.size()));
  for (int64_t b : schema.partition_bounds) PutI64(out, b);
  PutInts(out, schema.hg_index_columns);
  PutInts(out, schema.date_index_columns);
  PutInts(out, schema.text_index_columns);
  return out;
}

Result<TableSchema> DeserializeSchema(ByteReader reader) {
  TableSchema schema;
  schema.name = reader.GetString();
  schema.table_id = reader.GetU64();
  schema.columns.resize(reader.GetCount(kMinColumnBytes));
  for (ColumnDef& col : schema.columns) {
    col.name = reader.GetString();
    col.type = static_cast<ColumnType>(reader.GetU32());
  }
  schema.partition_column = static_cast<int>(reader.GetI64());
  schema.partition_bounds.resize(reader.GetCount(8));
  for (int64_t& b : schema.partition_bounds) b = reader.GetI64();
  schema.hg_index_columns = GetInts(reader);
  schema.date_index_columns = GetInts(reader);
  schema.text_index_columns = GetInts(reader);
  CLOUDIQ_RETURN_IF_ERROR(CheckConsumed(reader, "table schema"));
  return schema;
}

std::vector<uint8_t> SerializeSegment(const SegmentMeta& seg) {
  std::vector<uint8_t> out;
  PutU64(out, seg.object_id);
  PutU64(out, seg.row_count);
  PutU32(out, static_cast<uint32_t>(seg.zones.size()));
  for (const ZoneMapEntry& zone : seg.zones) PutZone(out, zone);
  PutU32(out, static_cast<uint32_t>(seg.page_rows.size()));
  for (uint32_t rows : seg.page_rows) PutU32(out, rows);
  PutU32(out, static_cast<uint32_t>(seg.page_bytes.size()));
  for (uint32_t bytes : seg.page_bytes) PutU32(out, bytes);
  return out;
}

Result<SegmentMeta> DeserializeSegment(ByteReader reader) {
  SegmentMeta seg;
  seg.object_id = reader.GetU64();
  seg.row_count = reader.GetU64();
  seg.zones.resize(reader.GetCount(kMinZoneBytes));
  for (ZoneMapEntry& zone : seg.zones) zone = GetZone(reader);
  seg.page_rows.resize(reader.GetCount(4));
  for (uint32_t& rows : seg.page_rows) rows = reader.GetU32();
  seg.page_bytes.resize(reader.GetCount(4));
  for (uint32_t& bytes : seg.page_bytes) bytes = reader.GetU32();
  CLOUDIQ_RETURN_IF_ERROR(CheckConsumed(reader, "segment metadata"));
  return seg;
}

template <typename Key>
void PutIndexes(std::vector<uint8_t>& out,
                const PartitionIndexes<Key>& indexes) {
  PutU32(out, static_cast<uint32_t>(indexes.objects.size()));
  for (uint64_t id : indexes.objects) PutU64(out, id);
  PutU32(out, static_cast<uint32_t>(indexes.page_ranges.size()));
  for (const auto& ranges : indexes.page_ranges) {
    PutU32(out, static_cast<uint32_t>(ranges.size()));
    for (const auto& [lo, hi] : ranges) {
      PostingKey<Key>::Put(out, lo);
      PostingKey<Key>::Put(out, hi);
    }
  }
}

// Reads one index kind's slots; there must be exactly `slots` of them.
template <typename Key>
Status GetIndexes(ByteReader& reader, size_t slots,
                  PartitionIndexes<Key>* indexes) {
  indexes->objects.resize(reader.GetCount(8));
  for (uint64_t& id : indexes->objects) id = reader.GetU64();
  indexes->page_ranges.resize(reader.GetCount(4));
  for (auto& ranges : indexes->page_ranges) {
    ranges.resize(reader.GetCount(2 * PostingKey<Key>::kMinBytes));
    for (auto& [lo, hi] : ranges) {
      lo = PostingKey<Key>::Get(reader);
      hi = PostingKey<Key>::Get(reader);
    }
  }
  if (indexes->objects.size() != slots ||
      indexes->page_ranges.size() != slots) {
    return Status::Corruption("index slots do not match the table schema");
  }
  return Status::Ok();
}

std::vector<uint8_t> SerializePartition(const PartitionMeta& part) {
  std::vector<uint8_t> out;
  PutU64(out, part.row_count);
  PutU32(out, static_cast<uint32_t>(part.columns.size()));
  for (const SegmentMeta& seg : part.columns) {
    PutBlob(out, SerializeSegment(seg));
  }
  PutIndexes(out, part.hg_indexes);
  PutIndexes(out, part.date_indexes);
  PutIndexes(out, part.text_indexes);
  return out;
}

Result<PartitionMeta> DeserializePartition(ByteReader reader,
                                           const TableSchema& schema) {
  PartitionMeta part;
  part.row_count = reader.GetU64();
  // Each segment is at least its u64 length prefix.
  part.columns.resize(reader.GetCount(8));
  for (SegmentMeta& seg : part.columns) {
    CLOUDIQ_ASSIGN_OR_RETURN(seg, DeserializeSegment(GetBlob(reader)));
  }
  if (part.columns.size() != schema.columns.size()) {
    return Status::Corruption("segments do not match the table schema");
  }
  CLOUDIQ_RETURN_IF_ERROR(GetIndexes(
      reader, schema.hg_index_columns.size(), &part.hg_indexes));
  CLOUDIQ_RETURN_IF_ERROR(GetIndexes(
      reader, schema.date_index_columns.size(), &part.date_indexes));
  CLOUDIQ_RETURN_IF_ERROR(GetIndexes(
      reader, schema.text_index_columns.size(), &part.text_indexes));
  CLOUDIQ_RETURN_IF_ERROR(CheckConsumed(reader, "partition metadata"));
  return part;
}

}  // namespace

std::vector<uint8_t> TableMeta::Serialize() const {
  std::vector<uint8_t> out;
  PutBlob(out, SerializeSchema(schema));
  PutU32(out, static_cast<uint32_t>(partitions.size()));
  for (const PartitionMeta& p : partitions) {
    PutBlob(out, SerializePartition(p));
  }
  return out;
}

Result<TableMeta> TableMeta::Deserialize(const std::vector<uint8_t>& bytes) {
  TableMeta meta;
  ByteReader reader(bytes);
  CLOUDIQ_ASSIGN_OR_RETURN(meta.schema, DeserializeSchema(GetBlob(reader)));
  // Each partition is at least its u64 length prefix.
  meta.partitions.resize(reader.GetCount(8));
  for (PartitionMeta& p : meta.partitions) {
    CLOUDIQ_ASSIGN_OR_RETURN(
        p, DeserializePartition(GetBlob(reader), meta.schema));
  }
  CLOUDIQ_RETURN_IF_ERROR(CheckConsumed(reader, "table metadata"));
  return meta;
}

}  // namespace cloudiq
