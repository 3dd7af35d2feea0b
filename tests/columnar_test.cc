#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "columnar/encoding.h"
#include "columnar/posting_index.h"
#include "columnar/table_loader.h"
#include "columnar/table_reader.h"
#include "columnar/value.h"
#include "common/coding.h"
#include "exec/batch.h"
#include "tests/test_util.h"
#include "txn/transaction_manager.h"

namespace cloudiq {
namespace {

using testing_util::SingleNodeHarness;

TEST(ValueTest, DateRoundTrip) {
  int64_t days = DaysFromCivil(1995, 6, 17);
  int y, m, d;
  CivilFromDays(days, &y, &m, &d);
  EXPECT_EQ(y, 1995);
  EXPECT_EQ(m, 6);
  EXPECT_EQ(d, 17);
  EXPECT_EQ(DaysFromCivil(1970, 1, 1), 0);
  EXPECT_LT(DaysFromCivil(1992, 1, 1), DaysFromCivil(1998, 8, 2));
}

TEST(ValueTest, DecimalScaling) {
  EXPECT_EQ(DecimalFromDouble(12.34), 1234);
  EXPECT_DOUBLE_EQ(DecimalToDouble(1234), 12.34);
  EXPECT_EQ(DecimalFromDouble(-1.005), -100);  // rounds toward nearest

  // ColumnVector::Append and resize work on the type's own vector; DATE
  // and DECIMAL values are ints like kInt64.
  for (ColumnType type : {ColumnType::kInt64, ColumnType::kDouble,
                          ColumnType::kString, ColumnType::kDate,
                          ColumnType::kDecimal}) {
    SCOPED_TRACE(ColumnTypeName(type));
    bool is_double = type == ColumnType::kDouble;
    bool is_string = type == ColumnType::kString;
    ColumnVector src{type, {1234, -5}, {0.25, 7.5}, {"a", "bc"}};
    ColumnVector dst{type, {}, {}, {}};
    dst.Append(src, 1);
    dst.Append(src, 0);
    ASSERT_EQ(dst.size(), 2u);
    EXPECT_EQ(dst.ints, is_double || is_string
                            ? std::vector<int64_t>{}
                            : std::vector<int64_t>({-5, 1234}));
    EXPECT_EQ(dst.doubles, is_double ? std::vector<double>({7.5, 0.25})
                                     : std::vector<double>{});
    EXPECT_EQ(dst.strings, is_string
                               ? std::vector<std::string>({"bc", "a"})
                               : std::vector<std::string>{});
    dst.resize(5);
    EXPECT_EQ(dst.size(), 5u);
    EXPECT_EQ(dst.ints.size() + dst.doubles.size() + dst.strings.size(),
              5u);
    dst.resize(1);
    EXPECT_EQ(dst.size(), 1u);
    dst.Append(dst, 0);
    EXPECT_EQ(dst.size(), 2u);
  }
}

// The original bit-serial codec, kept as the reference the word-at-a-time
// kernels must match bit for bit.
std::vector<uint8_t> ReferenceNBitPack(const std::vector<uint64_t>& values,
                                       int bit_width) {
  std::vector<uint8_t> out((values.size() * bit_width + 7) / 8, 0);
  size_t bit_pos = 0;
  for (uint64_t v : values) {
    for (int b = 0; b < bit_width; ++b, ++bit_pos) {
      if ((v >> b) & 1) {
        out[bit_pos / 8] |= static_cast<uint8_t>(1u << (bit_pos % 8));
      }
    }
  }
  return out;
}

std::vector<uint64_t> ReferenceNBitUnpack(const std::vector<uint8_t>& bytes,
                                          int bit_width, size_t count) {
  std::vector<uint64_t> out(count, 0);
  size_t bit_pos = 0;
  for (size_t i = 0; i < count; ++i) {
    uint64_t v = 0;
    for (int b = 0; b < bit_width; ++b, ++bit_pos) {
      if (bit_pos / 8 < bytes.size() &&
          (bytes[bit_pos / 8] >> (bit_pos % 8)) & 1) {
        v |= uint64_t{1} << b;
      }
    }
    out[i] = v;
  }
  return out;
}

std::vector<uint64_t> Unpack(const std::vector<uint8_t>& bytes,
                             int bit_width, size_t count) {
  std::vector<uint64_t> out(count);
  NBitUnpack(bytes.data(), bytes.size(), bit_width, count, out.data());
  return out;
}

// Property sweep: n-bit packing round-trips at every width.
class NBitPackTest : public ::testing::TestWithParam<int> {};

TEST_P(NBitPackTest, RoundTrip) {
  int width = GetParam();
  Rng rng(width);
  std::vector<uint64_t> values;
  uint64_t mask = width == 64 ? ~uint64_t{0}
                              : ((uint64_t{1} << width) - 1);
  for (int i = 0; i < 500; ++i) values.push_back(rng.Next() & mask);
  std::vector<uint8_t> packed = NBitPack(values, width);
  EXPECT_LE(packed.size(), (values.size() * width + 7) / 8);
  std::vector<uint64_t> back = Unpack(packed, width, values.size());
  EXPECT_EQ(back, values);
}

INSTANTIATE_TEST_SUITE_P(Widths, NBitPackTest,
                         ::testing::Values(1, 2, 3, 5, 7, 8, 13, 16, 21,
                                           32, 47, 63, 64));

// Every width and every count up to 200 crosses both the grouped word path
// and the byte-safe tail. Inputs carry bits above the width, which packing
// must drop. Truncated copies are exactly sized heap buffers, so an
// over-read shows under ASan.
TEST(NBitCodecTest, MatchesBitSerialReference) {
  Rng rng(14);
  for (int width = 1; width <= 64; ++width) {
    for (size_t count = 0; count <= 200; ++count) {
      SCOPED_TRACE("width " + std::to_string(width) + " count " +
                   std::to_string(count));
      std::vector<uint64_t> values(count);
      for (auto& v : values) v = rng.Next();
      std::vector<uint8_t> packed = NBitPack(values, width);
      ASSERT_EQ(packed, ReferenceNBitPack(values, width));
      ASSERT_EQ(Unpack(packed, width, count),
                ReferenceNBitUnpack(packed, width, count));
      for (size_t cut : {packed.size() / 2, packed.size() * 7 / 8,
                         packed.size() > 0 ? packed.size() - 1 : 0}) {
        std::vector<uint8_t> truncated(packed.begin(),
                                       packed.begin() + cut);
        ASSERT_EQ(Unpack(truncated, width, count),
                  ReferenceNBitUnpack(truncated, width, count));
      }
    }
  }
}

TEST(EncodingTest, BitWidthFor) {
  EXPECT_EQ(BitWidthFor(0), 1);
  EXPECT_EQ(BitWidthFor(1), 1);
  EXPECT_EQ(BitWidthFor(2), 2);
  EXPECT_EQ(BitWidthFor(255), 8);
  EXPECT_EQ(BitWidthFor(256), 9);
  EXPECT_EQ(BitWidthFor(~uint64_t{0}), 64);
}

TEST(EncodingTest, IntColumnFrameOfReference) {
  ColumnVector col;
  col.type = ColumnType::kInt64;
  for (int64_t i = 0; i < 1000; ++i) col.ints.push_back(1000000 + i % 50);
  ZoneMapEntry zone;
  std::vector<uint8_t> page = EncodeColumnPage(col, 0, 1000, &zone);
  // 50 distinct deltas -> 6 bits/value: far below 8 bytes/value.
  EXPECT_LT(page.size(), 1000u);
  EXPECT_EQ(zone.min_int, 1000000);
  EXPECT_EQ(zone.max_int, 1000049);
  EXPECT_EQ(zone.row_count, 1000u);
  Result<ColumnVector> back = DecodeColumnPage(page);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ints, col.ints);
}

TEST(EncodingTest, SortedColumnsDeltaEncode) {
  // A sorted wide-range column (e.g., orderkey during load) compresses
  // via deltas far below frame-of-reference width.
  ColumnVector col;
  col.type = ColumnType::kInt64;
  int64_t v = 1;
  Rng rng(11);
  for (int i = 0; i < 4000; ++i) {
    col.ints.push_back(v);
    v += 1 + static_cast<int64_t>(rng.Uniform(3));  // range ~12000
  }
  ZoneMapEntry zone;
  std::vector<uint8_t> page = EncodeColumnPage(col, 0, 4000, &zone);
  // Deltas fit 2 bits vs ~14 bits frame-of-reference.
  EXPECT_LT(page.size(), 4000u * 4 / 8);
  Result<ColumnVector> back = DecodeColumnPage(page);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ints, col.ints);

  // Non-monotone data still round-trips through the FOR path.
  std::swap(col.ints[100], col.ints[200]);
  page = EncodeColumnPage(col, 0, 4000, &zone);
  back = DecodeColumnPage(page);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ints, col.ints);
}

TEST(EncodingTest, SingleValueAndEmptyPages) {
  ColumnVector col;
  col.type = ColumnType::kInt64;
  col.ints = {42};
  ZoneMapEntry zone;
  Result<ColumnVector> one = DecodeColumnPage(EncodeColumnPage(col, 0, 1,
                                                               &zone));
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->ints, std::vector<int64_t>{42});
  Result<ColumnVector> none = DecodeColumnPage(EncodeColumnPage(col, 0, 0,
                                                                &zone));
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->ints.empty());
}

TEST(EncodingTest, StringDictionaryWhenLowCardinality) {
  ColumnVector col;
  col.type = ColumnType::kString;
  const char* vals[3] = {"MAIL", "SHIP", "TRUCK"};
  for (int i = 0; i < 2000; ++i) col.strings.push_back(vals[i % 3]);
  ZoneMapEntry zone;
  std::vector<uint8_t> page = EncodeColumnPage(col, 0, 2000, &zone);
  EXPECT_LT(page.size(), 2000u);  // ~2 bits/value + tiny dictionary
  EXPECT_EQ(zone.min_string, "MAIL");
  EXPECT_EQ(zone.max_string, "TRUCK");
  Result<ColumnVector> back = DecodeColumnPage(page);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->strings, col.strings);
}

TEST(EncodingTest, StringRawWhenHighCardinality) {
  ColumnVector col;
  col.type = ColumnType::kString;
  for (int i = 0; i < 200; ++i) {
    col.strings.push_back("unique-comment-" + std::to_string(i * 7919));
  }
  ZoneMapEntry zone;
  std::vector<uint8_t> page = EncodeColumnPage(col, 0, 200, &zone);
  Result<ColumnVector> back = DecodeColumnPage(page);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->strings, col.strings);
}

TEST(EncodingTest, DoubleColumnRoundTrip) {
  ColumnVector col;
  col.type = ColumnType::kDouble;
  Rng rng(5);
  for (int i = 0; i < 300; ++i) col.doubles.push_back(rng.NextDouble() * 1e6);
  ZoneMapEntry zone;
  std::vector<uint8_t> page = EncodeColumnPage(col, 0, 300, &zone);
  Result<ColumnVector> back = DecodeColumnPage(page);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->doubles, col.doubles);
  EXPECT_LE(zone.min_double, zone.max_double);
}

TEST(EncodingTest, SubrangeEncoding) {
  ColumnVector col;
  col.type = ColumnType::kInt64;
  for (int64_t i = 0; i < 100; ++i) col.ints.push_back(i);
  ZoneMapEntry zone;
  std::vector<uint8_t> page = EncodeColumnPage(col, 20, 40, &zone);
  Result<ColumnVector> back = DecodeColumnPage(page);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->ints.size(), 20u);
  EXPECT_EQ(back->ints.front(), 20);
  EXPECT_EQ(back->ints.back(), 39);
  EXPECT_EQ(zone.min_int, 20);
  EXPECT_EQ(zone.max_int, 39);
}

// Hostile pages: each must come back as Corruption, not a crash, an
// out-of-range shift or an allocation sized by a corrupt count.
std::vector<uint8_t> PageHeader(ColumnType type, uint32_t count,
                                uint8_t encoding) {
  std::vector<uint8_t> page;
  PutU32(page, static_cast<uint32_t>(type));
  PutU32(page, count);
  page.push_back(encoding);
  return page;
}

TEST(EncodingTest, PageCutAfterEncodingByteIsCorruption) {
  const std::pair<ColumnType, uint8_t> pages[] = {
      {ColumnType::kInt64, 1},  {ColumnType::kDouble, 2},
      {ColumnType::kString, 3}, {ColumnType::kString, 4},
      {ColumnType::kInt64, 5}};
  for (const auto& [type, encoding] : pages) {
    Result<ColumnVector> r =
        DecodeColumnPage(PageHeader(type, 10, encoding));
    ASSERT_FALSE(r.ok()) << int{encoding};
    EXPECT_TRUE(r.status().IsCorruption());
  }
  EXPECT_TRUE(DecodeColumnPage({}).status().IsCorruption());
}

TEST(EncodingTest, WidthOutsideOneTo64IsCorruption) {
  const uint32_t count = 10;
  for (int width : {0, 65, 100, 255}) {
    std::vector<uint8_t> page = PageHeader(ColumnType::kInt64, count, 1);
    page.push_back(static_cast<uint8_t>(width));
    PutI64(page, 0);
    page.resize(page.size() + (count * width + 7) / 8, 0xab);
    Result<ColumnVector> r = DecodeColumnPage(page);
    ASSERT_FALSE(r.ok()) << width;
    EXPECT_TRUE(r.status().IsCorruption());
  }
}

TEST(EncodingTest, InflatedCountIsCorruption) {
  ColumnVector ints{ColumnType::kInt64, {5, 9, 2, 7}, {}, {}};
  ColumnVector sorted{ColumnType::kInt64, {100, 101, 102, 103}, {}, {}};
  ColumnVector doubles{ColumnType::kDouble, {}, {0.5, 1.5}, {}};
  ColumnVector dict{ColumnType::kString, {}, {}, {"a", "a", "a", "a"}};
  ColumnVector raw{ColumnType::kString, {}, {}, {"x", "yz"}};
  std::set<uint8_t> encodings;
  for (const ColumnVector* col : {&ints, &sorted, &doubles, &dict, &raw}) {
    ZoneMapEntry zone;
    std::vector<uint8_t> page =
        EncodeColumnPage(*col, 0, col->size(), &zone);
    ASSERT_TRUE(DecodeColumnPage(page).ok());
    encodings.insert(page[8]);
    uint32_t huge = 0xFFFFFFFF;
    std::memcpy(page.data() + 4, &huge, sizeof(huge));
    Result<ColumnVector> r = DecodeColumnPage(page);
    ASSERT_FALSE(r.ok()) << int{page[8]};
    EXPECT_TRUE(r.status().IsCorruption());
  }
  EXPECT_EQ(encodings, (std::set<uint8_t>{1, 2, 3, 4, 5}));
}

class TableStoreTest : public ::testing::Test {
 protected:
  TableStoreTest() {
    TransactionManager::Options opts;
    opts.blockmap_fanout = 16;
    opts.buffer_capacity_bytes = 4 << 20;
    txn_mgr_ = std::make_unique<TransactionManager>(h_.storage.get(),
                                                    &h_.system, opts);
    txn_mgr_->set_commit_listener(
        [this](NodeId node, const IntervalSet& keys) {
          h_.keygen.OnTransactionCommitted(node, keys);
        });
  }

  TableSchema TestSchema() {
    TableSchema schema;
    schema.name = "events";
    schema.table_id = 42;
    schema.columns = {{"id", ColumnType::kInt64},
                      {"score", ColumnType::kDouble},
                      {"tag", ColumnType::kString}};
    schema.partition_column = 0;
    schema.partition_bounds = {500};  // two partitions
    schema.hg_index_columns = {0};
    return schema;
  }

  Batch MakeRows(int64_t first, int64_t count) {
    Batch batch;
    ColumnVector ids{ColumnType::kInt64, {}, {}, {}};
    ColumnVector scores{ColumnType::kDouble, {}, {}, {}};
    ColumnVector tags{ColumnType::kString, {}, {}, {}};
    for (int64_t i = first; i < first + count; ++i) {
      ids.ints.push_back(i);
      scores.doubles.push_back(i * 0.5);
      tags.strings.push_back(i % 2 == 0 ? "even" : "odd");
    }
    batch.AddColumn("id", std::move(ids));
    batch.AddColumn("score", std::move(scores));
    batch.AddColumn("tag", std::move(tags));
    return batch;
  }

  SingleNodeHarness h_;
  std::unique_ptr<TransactionManager> txn_mgr_;
};

TEST_F(TableStoreTest, LoadThenReadBack) {
  Transaction* txn = txn_mgr_->Begin();
  TableLoader loader(txn_mgr_.get(), txn, h_.cloud_space, TestSchema());
  ASSERT_TRUE(loader.Append(MakeRows(0, 600).columns).ok());
  ASSERT_TRUE(loader.Append(MakeRows(600, 400).columns).ok());
  EXPECT_EQ(loader.rows_appended(), 1000u);
  EXPECT_GT(loader.TakeCpuSeconds(), 0.0);
  Result<TableMeta> meta = loader.Finish(&h_.system);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  ASSERT_TRUE(txn_mgr_->Commit(txn).ok());

  // Rows routed by range partition: ids < 500 in partition 0.
  EXPECT_EQ(meta->partitions.size(), 2u);
  EXPECT_EQ(meta->partitions[0].row_count, 500u);
  EXPECT_EQ(meta->partitions[1].row_count, 500u);
  EXPECT_EQ(meta->TotalRows(), 1000u);

  Transaction* reader_txn = txn_mgr_->Begin();
  Result<TableReader> reader =
      TableReader::Open(txn_mgr_.get(), reader_txn, &h_.system, 42);
  ASSERT_TRUE(reader.ok());
  // Columns page independently; reconstruct each column fully and align
  // by row position.
  int64_t seen = 0;
  for (size_t p = 0; p < 2; ++p) {
    auto read_whole = [&](int column) {
      std::vector<int64_t> ints;
      std::vector<std::string> strings;
      const SegmentMeta& seg = reader->meta().partitions[p].columns[column];
      for (size_t page = 0; page < seg.page_rows.size(); ++page) {
        Result<ColumnVector> vec = reader->ReadPage(p, column, page);
        EXPECT_TRUE(vec.ok());
        ints.insert(ints.end(), vec->ints.begin(), vec->ints.end());
        strings.insert(strings.end(), vec->strings.begin(),
                       vec->strings.end());
      }
      return std::make_pair(ints, strings);
    };
    auto [ids, unused] = read_whole(0);
    auto [unused2, tags] = read_whole(2);
    ASSERT_EQ(ids.size(), tags.size());
    for (size_t r = 0; r < ids.size(); ++r) {
      EXPECT_EQ(tags[r], ids[r] % 2 == 0 ? "even" : "odd");
      ++seen;
    }
  }
  EXPECT_EQ(seen, 1000);
  ASSERT_TRUE(txn_mgr_->Commit(reader_txn).ok());
}

TEST_F(TableStoreTest, ZoneMapPruning) {
  Transaction* txn = txn_mgr_->Begin();
  TableLoader loader(txn_mgr_.get(), txn, h_.cloud_space, TestSchema());
  ASSERT_TRUE(loader.Append(MakeRows(0, 1000).columns).ok());
  Result<TableMeta> meta = loader.Finish(&h_.system);
  ASSERT_TRUE(meta.ok());
  ASSERT_TRUE(txn_mgr_->Commit(txn).ok());

  Transaction* rtxn = txn_mgr_->Begin();
  Result<TableReader> reader =
      TableReader::Open(txn_mgr_.get(), rtxn, &h_.system, 42);
  ASSERT_TRUE(reader.ok());
  // Sequential ids: a narrow range must prune most pages, and surviving
  // pages must cover the full range (soundness).
  std::vector<uint64_t> pages = reader->PrunePagesInt(0, 0, 100, 120);
  size_t total_pages =
      reader->meta().partitions[0].columns[0].zones.size();
  ASSERT_GT(total_pages, 1u);
  EXPECT_LT(pages.size(), total_pages);
  int64_t found = 0;
  for (uint64_t page : pages) {
    Result<ColumnVector> ids = reader->ReadPage(0, 0, page);
    ASSERT_TRUE(ids.ok());
    for (int64_t v : ids->ints) {
      if (v >= 100 && v <= 120) ++found;
    }
  }
  EXPECT_EQ(found, 21);
  ASSERT_TRUE(txn_mgr_->Commit(rtxn).ok());
}

TEST_F(TableStoreTest, HgIndexLookupMatchesScan) {
  Transaction* txn = txn_mgr_->Begin();
  TableLoader loader(txn_mgr_.get(), txn, h_.cloud_space, TestSchema());
  ASSERT_TRUE(loader.Append(MakeRows(0, 1000).columns).ok());
  Result<TableMeta> meta = loader.Finish(&h_.system);
  ASSERT_TRUE(meta.ok());
  ASSERT_TRUE(txn_mgr_->Commit(txn).ok());

  Transaction* rtxn = txn_mgr_->Begin();
  Result<TableReader> reader =
      TableReader::Open(txn_mgr_.get(), rtxn, &h_.system, 42);
  ASSERT_TRUE(reader.ok());
  // id 137 lives in partition 0 at partition-local row 137.
  Result<IntervalSet> rows = reader->IndexLookup(0, 0, 137);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->Count(), 1u);
  EXPECT_TRUE(rows->Contains(137));
  // Each of a run of ids finds exactly its own row.
  for (int64_t id = 10; id < 20; ++id) {
    Result<IntervalSet> one = reader->IndexLookup(0, 0, id);
    ASSERT_TRUE(one.ok());
    EXPECT_EQ(one->Count(), 1u);
    EXPECT_TRUE(one->Contains(static_cast<uint64_t>(id)));
  }
  // Missing value.
  Result<IntervalSet> missing = reader->IndexLookup(0, 0, 100000);
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(missing->empty());
  // Unindexed column is an error.
  EXPECT_FALSE(reader->IndexLookup(0, 1, 0).ok());
  ASSERT_TRUE(txn_mgr_->Commit(rtxn).ok());
}

TEST_F(TableStoreTest, DateIndexMatchesColumnScan) {
  TableSchema schema;
  schema.name = "events";
  schema.table_id = 55;
  schema.columns = {{"id", ColumnType::kInt64},
                    {"day", ColumnType::kDate}};
  schema.date_index_columns = {1};

  Transaction* txn = txn_mgr_->Begin();
  TableLoader loader(txn_mgr_.get(), txn, h_.cloud_space, schema);
  Batch batch;
  batch.AddColumn("id", {ColumnType::kInt64, {}, {}, {}});
  batch.AddColumn("day", {ColumnType::kDate, {}, {}, {}});
  Rng rng(42);
  std::vector<int64_t> days;
  for (int64_t i = 0; i < 2000; ++i) {
    batch.columns[0].ints.push_back(i);
    int64_t d = DaysFromCivil(1995, 1, 1) + rng.Uniform(3 * 365);
    batch.columns[1].ints.push_back(d);
    days.push_back(d);
  }
  ASSERT_TRUE(loader.Append(batch.columns).ok());
  ASSERT_TRUE(loader.Finish(&h_.system).ok());
  ASSERT_TRUE(txn_mgr_->Commit(txn).ok());

  Transaction* rtxn = txn_mgr_->Begin();
  Result<TableReader> reader =
      TableReader::Open(txn_mgr_.get(), rtxn, &h_.system, 55);
  ASSERT_TRUE(reader.ok());

  // One calendar month.
  Result<IntervalSet> june = reader->DateIndexMonth(0, 1, 1996, 6);
  ASSERT_TRUE(june.ok()) << june.status().ToString();
  uint64_t expected_june = 0;
  for (size_t r = 0; r < days.size(); ++r) {
    int y, m, d;
    CivilFromDays(days[r], &y, &m, &d);
    if (y == 1996 && m == 6) {
      ++expected_june;
      EXPECT_TRUE(june->Contains(r)) << "row " << r;
    }
  }
  EXPECT_EQ(june->Count(), expected_june);
  EXPECT_GT(expected_june, 0u);

  // The months of two whole years partition those years' rows.
  uint64_t month_rows = 0;
  for (int year = 1996; year <= 1997; ++year) {
    for (int month = 1; month <= 12; ++month) {
      Result<IntervalSet> rows = reader->DateIndexMonth(0, 1, year, month);
      ASSERT_TRUE(rows.ok());
      month_rows += rows->Count();
    }
  }
  uint64_t expected_years = 0;
  for (int64_t d : days) {
    int y, m, dd;
    CivilFromDays(d, &y, &m, &dd);
    if (y >= 1996 && y <= 1997) ++expected_years;
  }
  EXPECT_EQ(month_rows, expected_years);

  // Empty month and unindexed column.
  Result<IntervalSet> empty = reader->DateIndexMonth(0, 1, 1970, 1);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  EXPECT_FALSE(reader->DateIndexMonth(0, 0, 1996, 6).ok());
  ASSERT_TRUE(txn_mgr_->Commit(rtxn).ok());
}

TEST(TextIndexTest, TokenizerSplitsAndLowercases) {
  EXPECT_EQ(Tokenize("Special, requests... NOTED-here"),
            (std::vector<std::string>{"special", "requests", "noted",
                                      "here"}));
  EXPECT_TRUE(Tokenize("  ...  ").empty());
  EXPECT_EQ(Tokenize("abc123"),
            std::vector<std::string>{"abc123"});
}

TEST_F(TableStoreTest, TextIndexFindsWordCandidates) {
  TableSchema schema;
  schema.name = "notes";
  schema.table_id = 66;
  schema.columns = {{"id", ColumnType::kInt64},
                    {"note", ColumnType::kString}};
  schema.text_index_columns = {1};

  Transaction* txn = txn_mgr_->Begin();
  TableLoader loader(txn_mgr_.get(), txn, h_.cloud_space, schema);
  Batch batch;
  batch.AddColumn("id", {ColumnType::kInt64, {}, {}, {}});
  batch.AddColumn("note", {ColumnType::kString, {}, {}, {}});
  const char* notes[5] = {
      "regular delivery as planned",
      "special requests were made",         // both words, in order
      "requests from a special customer",   // both words, wrong order
      "nothing special here",               // one word
      "ordinary requests only",              // the other word
  };
  for (int64_t i = 0; i < 500; ++i) {
    batch.columns[0].ints.push_back(i);
    batch.columns[1].strings.push_back(notes[i % 5]);
  }
  ASSERT_TRUE(loader.Append(batch.columns).ok());
  ASSERT_TRUE(loader.Finish(&h_.system).ok());
  ASSERT_TRUE(txn_mgr_->Commit(txn).ok());

  Transaction* rtxn = txn_mgr_->Begin();
  Result<TableReader> reader =
      TableReader::Open(txn_mgr_.get(), rtxn, &h_.system, 66);
  ASSERT_TRUE(reader.ok());

  // Single word: rows 1, 2, 3 of each 5-cycle contain "special".
  Result<IntervalSet> special =
      reader->TextIndexAllWords(0, 1, {"special"});
  ASSERT_TRUE(special.ok()) << special.status().ToString();
  EXPECT_EQ(special->Count(), 300u);

  // Conjunction: rows with BOTH words = the 1- and 2-mod-5 rows.
  Result<IntervalSet> both =
      reader->TextIndexAllWords(0, 1, {"special", "requests"});
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(both->Count(), 200u);
  EXPECT_TRUE(both->Contains(1));
  EXPECT_TRUE(both->Contains(2));
  EXPECT_FALSE(both->Contains(0));

  // Missing word and unindexed column.
  Result<IntervalSet> none =
      reader->TextIndexAllWords(0, 1, {"special", "zebra"});
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
  EXPECT_FALSE(reader->TextIndexAllWords(0, 0, {"x"}).ok());
  ASSERT_TRUE(txn_mgr_->Commit(rtxn).ok());
}

TEST_F(TableStoreTest, PagesRespectPageSizeLimit) {
  // Long strings force frequent page cuts; every page must still fit.
  TableSchema schema;
  schema.name = "blobs";
  schema.table_id = 77;
  schema.columns = {{"id", ColumnType::kInt64},
                    {"body", ColumnType::kString}};
  Transaction* txn = txn_mgr_->Begin();
  TableLoader loader(txn_mgr_.get(), txn, h_.cloud_space, schema);
  Batch batch;
  ColumnVector ids{ColumnType::kInt64, {}, {}, {}};
  ColumnVector bodies{ColumnType::kString, {}, {}, {}};
  Rng rng(1);
  for (int i = 0; i < 300; ++i) {
    ids.ints.push_back(i);
    std::string body(300 + rng.Uniform(200), 'x');
    for (auto& ch : body) ch = static_cast<char>('a' + rng.Uniform(26));
    bodies.strings.push_back(std::move(body));
  }
  batch.AddColumn("id", std::move(ids));
  batch.AddColumn("body", std::move(bodies));
  ASSERT_TRUE(loader.Append(batch.columns).ok());
  Result<TableMeta> meta = loader.Finish(&h_.system);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  ASSERT_TRUE(txn_mgr_->Commit(txn).ok());
  EXPECT_GT(meta->partitions[0].columns[1].page_rows.size(), 1u);
}

// Table metadata with one index of each kind, plus a partition whose
// index slots are all empty.
TableMeta GoldenTableMeta(TableSchema schema) {
  TableMeta meta;
  meta.schema = std::move(schema);
  meta.schema.date_index_columns = {1};
  meta.schema.text_index_columns = {2};
  PartitionMeta pm;
  pm.row_count = 7;
  SegmentMeta seg;
  seg.row_count = 7;
  ZoneMapEntry zone;
  zone.min_int = -5;
  zone.max_int = 12;
  zone.min_string = "aa";
  zone.max_string = "zz";
  zone.row_count = 7;
  seg.zones.push_back(zone);
  seg.page_rows.push_back(7);
  seg.page_bytes.push_back(321);
  for (uint64_t id : {123, 124, 125}) {
    seg.object_id = id;
    pm.columns.push_back(seg);
  }
  pm.hg_indexes.objects.push_back(456);
  pm.hg_indexes.page_ranges.push_back({{1, 9}, {10, 20}});
  pm.date_indexes.objects.push_back(457);
  pm.date_indexes.page_ranges.push_back({{23880, 23890}});
  pm.text_indexes.objects.push_back(458);
  pm.text_indexes.page_ranges.push_back({{"alpha", "kilo"}, {"lima", "zulu"}});
  meta.partitions.push_back(pm);
  PartitionMeta empty;
  empty.columns.resize(3);
  empty.hg_indexes.objects.push_back(0);
  empty.hg_indexes.page_ranges.emplace_back();
  empty.date_indexes.objects.push_back(0);
  empty.date_indexes.page_ranges.emplace_back();
  empty.text_indexes.objects.push_back(0);
  empty.text_indexes.page_ranges.emplace_back();
  meta.partitions.push_back(empty);
  return meta;
}

TEST_F(TableStoreTest, SchemaSerializationRoundTrip) {
  TableMeta meta = GoldenTableMeta(TestSchema());
  std::vector<uint8_t> bytes = meta.Serialize();
  // The stored format, pinned: these bytes are what every earlier build
  // of the table catalog wrote for this metadata.
  EXPECT_EQ(bytes.size(), 749u);
  EXPECT_EQ(Checksum64(bytes.data(), bytes.size()), 0xe7021b0d7f2af6ecULL);

  Result<TableMeta> back = TableMeta::Deserialize(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->schema.name, "events");
  EXPECT_EQ(back->schema.table_id, 42u);
  EXPECT_EQ(back->schema.partition_bounds, std::vector<int64_t>{500});
  EXPECT_EQ(back->schema.hg_index_columns, std::vector<int>{0});
  EXPECT_EQ(back->schema.date_index_columns, std::vector<int>{1});
  EXPECT_EQ(back->schema.text_index_columns, std::vector<int>{2});
  ASSERT_EQ(back->partitions.size(), 2u);
  const PartitionMeta& pm = back->partitions[0];
  EXPECT_EQ(pm.columns[0].object_id, 123u);
  EXPECT_EQ(pm.columns[0].zones[0].min_int, -5);
  EXPECT_EQ(pm.columns[0].zones[0].max_string, "zz");
  EXPECT_EQ(pm.columns[0].page_bytes, std::vector<uint32_t>{321});
  EXPECT_EQ(pm.hg_indexes.objects, std::vector<uint64_t>{456});
  EXPECT_EQ(pm.hg_indexes.page_ranges[0][1].second, 20);
  EXPECT_EQ(pm.date_indexes.page_ranges[0][0].first, 23880);
  EXPECT_EQ(pm.text_indexes.objects, std::vector<uint64_t>{458});
  EXPECT_EQ(pm.text_indexes.page_ranges[0][1].first, "lima");
  EXPECT_EQ(back->partitions[1].text_indexes.objects,
            std::vector<uint64_t>{0});
  EXPECT_EQ(back->Serialize(), bytes);

  // Segments or index slots that disagree with the schema are corrupt.
  TableMeta short_segments = meta;
  short_segments.partitions[1].columns.pop_back();
  EXPECT_TRUE(TableMeta::Deserialize(short_segments.Serialize())
                  .status()
                  .IsCorruption());
  meta.partitions[1].date_indexes.objects.clear();
  EXPECT_TRUE(
      TableMeta::Deserialize(meta.Serialize()).status().IsCorruption());
}

// Fixed postings for the golden-bytes test: integer keys with scattered
// rows, and string keys enough to cut several pages.
PostingIndex<int64_t>::Postings GoldenIntPostings() {
  PostingIndex<int64_t>::Postings postings;
  for (int64_t k = 0; k < 300; ++k) {
    IntervalSet& rows = postings[k * 7 - 500];
    rows.Insert(static_cast<uint64_t>(k));
    rows.InsertRange(1000 + 3 * k, 1001 + 3 * k + k % 5);
    rows.Insert(static_cast<uint64_t>(50000 + k * k));
  }
  return postings;
}

PostingIndex<std::string>::Postings GoldenTextPostings() {
  PostingIndex<std::string>::Postings postings;
  for (int k = 0; k < 400; ++k) {
    IntervalSet& rows = postings["w" + std::to_string(k * 37 % 1000) +
                                 std::string(k % 7, 'x')];
    rows.Insert(2 * k);
    rows.InsertRange(10 * k, 10 * k + k % 4 + 1);
  }
  return postings;
}

class PostingIndexPagesTest : public TableStoreTest {
 protected:
  // Builds `postings` into object `object_id`, commits, and returns the
  // index pages read back, in page order; checks each page decodes to
  // its share of the postings within its recorded key range.
  template <typename Key>
  std::vector<std::vector<uint8_t>> BuildAndReadPages(
      uint64_t object_id,
      const typename PostingIndex<Key>::Postings& postings) {
    Transaction* txn = txn_mgr_->Begin();
    Result<typename PostingIndex<Key>::PageRanges> ranges =
        PostingIndex<Key>::Build(txn_mgr_.get(), txn, object_id,
                                 h_.cloud_space, postings, 3000);
    EXPECT_TRUE(ranges.ok()) << ranges.status().ToString();
    EXPECT_TRUE(txn_mgr_->Commit(txn).ok());
    std::vector<std::vector<uint8_t>> pages;
    if (!ranges.ok()) return pages;

    Transaction* rtxn = txn_mgr_->Begin();
    Result<std::unique_ptr<StorageObject>> object =
        txn_mgr_->OpenForRead(rtxn, object_id);
    EXPECT_TRUE(object.ok());
    auto next = postings.begin();
    for (size_t p = 0; object.ok() && p < ranges->size(); ++p) {
      Result<BufferManager::PageData> data = (*object)->ReadPage(p);
      EXPECT_TRUE(data.ok());
      if (!data.ok()) break;
      pages.push_back(**data);
      Result<typename PostingIndex<Key>::Entries> entries =
          PostingIndex<Key>::DecodePage(pages.back());
      EXPECT_TRUE(entries.ok());
      if (!entries.ok()) break;
      EXPECT_EQ(entries->front().first, (*ranges)[p].first);
      EXPECT_EQ(entries->back().first, (*ranges)[p].second);
      for (const auto& [key, rows] : *entries) {
        EXPECT_EQ(key, next->first);
        EXPECT_EQ(rows.Intervals().size(), next->second.IntervalCount());
        EXPECT_EQ(rows.Count(), next->second.Count());
        ++next;
      }
    }
    EXPECT_TRUE(next == postings.end());
    EXPECT_TRUE(txn_mgr_->Commit(rtxn).ok());
    return pages;
  }

  static uint64_t Checksum(const std::vector<std::vector<uint8_t>>& pages,
                           size_t* size) {
    std::vector<uint8_t> all;
    for (const auto& page : pages) {
      all.insert(all.end(), page.begin(), page.end());
    }
    *size = all.size();
    return Checksum64(all.data(), all.size());
  }
};

// The stored index page format, pinned: these pages, and where the build
// cuts them, are what every earlier build of the HG, DATE and TEXT
// indexes wrote for these postings.
TEST_F(PostingIndexPagesTest, GoldenPagesOfBothKeyTypes) {
  size_t size = 0;
  std::vector<std::vector<uint8_t>> int_pages =
      BuildAndReadPages<int64_t>(4200090, GoldenIntPostings());
  EXPECT_EQ(int_pages.size(), 8u);
  EXPECT_EQ(Checksum(int_pages, &size), 0x429c991f631c8a52ULL);
  EXPECT_EQ(size, 21632u);

  std::vector<std::vector<uint8_t>> text_pages =
      BuildAndReadPages<std::string>(4200060, GoldenTextPostings());
  EXPECT_GT(text_pages.size(), 1u);
  EXPECT_EQ(text_pages.size(), 10u);
  EXPECT_EQ(Checksum(text_pages, &size), 0x9b86e107dc27d21cULL);
  EXPECT_EQ(size, 23586u);
}

// A page whose count claims 2^32-1 entries must fail before anything is
// sized by that claim.
TEST(PostingIndexTest, InflatedCountIsCorruption) {
  PostingIndex<int64_t>::Postings ints = GoldenIntPostings();
  std::vector<uint8_t> int_page =
      PostingIndex<int64_t>::EncodePage(ints.begin(), ints.end());
  PostingIndex<std::string>::Postings words = GoldenTextPostings();
  std::vector<uint8_t> text_page =
      PostingIndex<std::string>::EncodePage(words.begin(), words.end());
  ASSERT_TRUE(PostingIndex<int64_t>::DecodePage(int_page).ok());
  ASSERT_TRUE(PostingIndex<std::string>::DecodePage(text_page).ok());

  const uint32_t inflated = 0xFFFFFFFF;
  std::memcpy(int_page.data(), &inflated, sizeof(inflated));
  std::memcpy(text_page.data(), &inflated, sizeof(inflated));
  EXPECT_TRUE(PostingIndex<int64_t>::DecodePage(int_page)
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(PostingIndex<std::string>::DecodePage(text_page)
                  .status()
                  .IsCorruption());
}

}  // namespace
}  // namespace cloudiq
