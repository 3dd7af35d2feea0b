// Property-style sweeps over the stack's central invariants:
//  * load -> read round trips hold for every page size;
//  * correctness is independent of eventual-consistency aggressiveness
//    (stale reads never happen; retries absorb visibility races);
//  * after arbitrary committed/rolled-back/dropped workloads plus GC,
//    the object store holds exactly the reachable set;
//  * crash recovery preserves every committed table and collects every
//    orphan, wherever the crash lands;
//  * query results do not depend on the buffer cache capacity;
//  * the page codec, the column page decoder, the index page decoder and
//    the table metadata decoder never crash on corrupted input.

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <type_traits>

#include "columnar/encoding.h"
#include "columnar/posting_index.h"
#include "columnar/schema.h"
#include "engine/consistency_check.h"
#include "engine/database.h"
#include "exec/executor.h"
#include "store/page_codec.h"
#include "tests/test_util.h"

namespace cloudiq {
namespace {

TableSchema KvSchema(uint64_t table_id) {
  TableSchema schema;
  schema.name = "t" + std::to_string(table_id);
  schema.table_id = table_id;
  schema.columns = {{"k", ColumnType::kInt64},
                    {"s", ColumnType::kString},
                    {"d", ColumnType::kDouble}};
  return schema;
}

Status LoadKv(Database* db, uint64_t table_id, int64_t rows,
              uint64_t seed) {
  Transaction* txn = db->Begin();
  TableLoader loader = db->NewTableLoader(txn, KvSchema(table_id));
  Rng rng(seed);
  Batch batch;
  batch.AddColumn("k", {ColumnType::kInt64, {}, {}, {}});
  batch.AddColumn("s", {ColumnType::kString, {}, {}, {}});
  batch.AddColumn("d", {ColumnType::kDouble, {}, {}, {}});
  for (int64_t i = 0; i < rows; ++i) {
    batch.columns[0].ints.push_back(i);
    batch.columns[1].strings.push_back(
        "row-" + std::to_string(seed) + "-" + std::to_string(i % 37));
    batch.columns[2].doubles.push_back(rng.NextDouble());
  }
  CLOUDIQ_RETURN_IF_ERROR(loader.Append(batch.columns));
  CLOUDIQ_RETURN_IF_ERROR(loader.Finish(db->system()).status());
  return db->Commit(txn);
}

// Scans table `table_id` and returns a content fingerprint.
uint64_t FingerprintTable(Database* db, uint64_t table_id) {
  Transaction* txn = db->Begin();
  QueryContext ctx = db->NewQueryContext(txn);
  Result<TableReader> reader = ctx.OpenTable(table_id);
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  Result<Batch> rows = ScanTable(&ctx, &*reader, {"k", "s"});
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  uint64_t fp = 1469598103934665603ULL;
  for (size_t r = 0; r < rows->rows(); ++r) {
    fp = (fp ^ static_cast<uint64_t>(rows->Int("k", r))) * 1099511628211ULL;
    for (char c : rows->Str("s", r)) {
      fp = (fp ^ static_cast<uint8_t>(c)) * 1099511628211ULL;
    }
  }
  EXPECT_TRUE(db->Commit(txn).ok());
  return fp;
}

// ---------------------------------------------------------------------------
// Page-size sweep.
// ---------------------------------------------------------------------------

class PageSizeSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PageSizeSweep, LoadReadRoundTrip) {
  SimEnvironment env;
  Database::Options options;
  options.user_storage = UserStorage::kObjectStore;
  options.page_size = GetParam();
  Database db(&env, InstanceProfile::M5ad4xlarge(), options);
  ASSERT_TRUE(LoadKv(&db, 1, 3000, /*seed=*/GetParam()).ok());

  Transaction* txn = db.Begin();
  QueryContext ctx = db.NewQueryContext(txn);
  Result<TableReader> reader = ctx.OpenTable(1);
  ASSERT_TRUE(reader.ok());
  Result<Batch> rows = ScanTable(&ctx, &*reader, {"k", "s", "d"});
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows(), 3000u);
  for (size_t r = 0; r < rows->rows(); ++r) {
    ASSERT_EQ(rows->Int("k", r), static_cast<int64_t>(r));
    ASSERT_EQ(rows->Str("s", r),
              "row-" + std::to_string(GetParam()) + "-" +
                  std::to_string(r % 37));
  }
  ASSERT_TRUE(db.Commit(txn).ok());
  EXPECT_EQ(env.object_store().stats().overwrites, 0u);
}

INSTANTIATE_TEST_SUITE_P(PageSizes, PageSizeSweep,
                         ::testing::Values(2048, 8192, 65536, 524288));

// ---------------------------------------------------------------------------
// Eventual-consistency aggressiveness sweep.
// ---------------------------------------------------------------------------

struct LagConfig {
  double probability;
  double mean_lag;
};

class ConsistencySweep : public ::testing::TestWithParam<LagConfig> {};

TEST_P(ConsistencySweep, CorrectUnderAnyVisibilityLag) {
  ObjectStoreOptions store_options;
  store_options.lag_probability = GetParam().probability;
  store_options.mean_visibility_lag = GetParam().mean_lag;
  SimEnvironment env(store_options);
  Database::Options options;
  options.user_storage = UserStorage::kObjectStore;
  options.page_size = 16384;
  Database db(&env, InstanceProfile::M5ad4xlarge(), options);

  ASSERT_TRUE(LoadKv(&db, 1, 2000, 99).ok());
  uint64_t fp1 = FingerprintTable(&db, 1);
  // Update-then-read immediately: the read-after-write window is where
  // the races live.
  ASSERT_TRUE(LoadKv(&db, 2, 500, 7).ok());
  FingerprintTable(&db, 2);
  EXPECT_EQ(FingerprintTable(&db, 1), fp1);
  // The invariant the whole design exists for:
  EXPECT_EQ(env.object_store().stats().stale_reads, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Lags, ConsistencySweep,
    ::testing::Values(LagConfig{0.0, 0.0}, LagConfig{0.05, 0.1},
                      LagConfig{0.5, 0.5}, LagConfig{1.0, 1.0}));

// ---------------------------------------------------------------------------
// Randomized GC completeness.
// ---------------------------------------------------------------------------

class GcWorkloadSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GcWorkloadSweep, StoreHoldsExactlyTheReachableSet) {
  SimEnvironment env;
  Database::Options options;
  options.user_storage = UserStorage::kObjectStore;
  options.page_size = 8192;
  options.snapshot_retention_seconds = 0;  // no deferred retention
  Database db(&env, InstanceProfile::M5ad4xlarge(), options);
  Rng rng(GetParam());

  std::set<uint64_t> live_tables;
  uint64_t next_table = 1;
  for (int round = 0; round < 12; ++round) {
    double dice = rng.NextDouble();
    if (dice < 0.5 || live_tables.empty()) {
      uint64_t id = next_table++;
      int64_t rows = 200 + static_cast<int64_t>(rng.Uniform(2000));
      ASSERT_TRUE(LoadKv(&db, id, rows, GetParam() * 100 + id).ok());
      live_tables.insert(id);
    } else if (dice < 0.75) {
      // Drop a random table.
      auto it = live_tables.begin();
      std::advance(it, rng.Uniform(live_tables.size()));
      Transaction* txn = db.Begin();
      for (size_t c = 0; c < 3; ++c) {
        ASSERT_TRUE(db.txn_mgr()
                        .DropObject(txn, TableLoader::ObjectIdFor(*it, 0, c))
                        .ok());
      }
      ASSERT_TRUE(db.Commit(txn).ok());
      live_tables.erase(it);
    } else {
      // Start a load and roll it back.
      uint64_t id = next_table++;
      Transaction* txn = db.Begin();
      TableLoader loader = db.NewTableLoader(txn, KvSchema(id));
      Batch batch;
      batch.AddColumn("k", {ColumnType::kInt64, {}, {}, {}});
      batch.AddColumn("s", {ColumnType::kString, {}, {}, {}});
      batch.AddColumn("d", {ColumnType::kDouble, {}, {}, {}});
      for (int64_t i = 0; i < 500; ++i) {
        batch.columns[0].ints.push_back(i);
        batch.columns[1].strings.push_back("x");
        batch.columns[2].doubles.push_back(0.5);
      }
      ASSERT_TRUE(loader.Append(batch.columns).ok());
      ASSERT_TRUE(loader.Finish(db.system()).ok());
      ASSERT_TRUE(db.txn_mgr().buffer().FlushTxn(txn->id).ok());
      ASSERT_TRUE(db.Rollback(txn).ok());
    }
  }
  ASSERT_TRUE(db.RunGarbageCollection().ok());
  ASSERT_TRUE(db.snapshot_mgr()->CollectExpired().ok());

  // Reachable set = nodes + data pages of every live table, via the
  // committed catalog.
  uint64_t reachable = 0;
  Transaction* probe = db.Begin();
  for (uint64_t id : live_tables) {
    for (size_t c = 0; c < 3; ++c) {
      Result<std::unique_ptr<StorageObject>> obj =
          db.txn_mgr().OpenForRead(probe,
                                   TableLoader::ObjectIdFor(id, 0, c));
      ASSERT_TRUE(obj.ok());
      std::vector<PhysicalLoc> nodes, pages;
      ASSERT_TRUE((*obj)->blockmap().CollectReachable(&nodes, &pages).ok());
      reachable += nodes.size() + pages.size();
    }
  }
  ASSERT_TRUE(db.Commit(probe).ok());
  // The snapshot manager's metadata object is legitimately live too.
  uint64_t metadata_objects = 0;
  for (const std::string& key : env.object_store().LiveKeys()) {
    if (key.rfind("snapmgr/", 0) == 0) ++metadata_objects;
  }
  EXPECT_EQ(env.object_store().LiveObjectCount(),
            reachable + metadata_objects)
      << "seed " << GetParam();
  EXPECT_EQ(env.object_store().stats().overwrites, 0u);

  // Every surviving table still reads back.
  for (uint64_t id : live_tables) FingerprintTable(&db, id);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GcWorkloadSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// ---------------------------------------------------------------------------
// Crash-anywhere recovery.
// ---------------------------------------------------------------------------

class CrashPointSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrashPointSweep, CommittedDataSurvivesOrphansDie) {
  SimEnvironment env;
  Database::Options options;
  options.user_storage = UserStorage::kObjectStore;
  options.page_size = 8192;
  options.snapshot_retention_seconds = 0;
  Database db(&env, InstanceProfile::M5ad4xlarge(), options);
  Rng rng(GetParam());

  std::map<uint64_t, uint64_t> committed_fps;
  int commits_before_crash = 1 + static_cast<int>(rng.Uniform(4));
  for (int i = 0; i < commits_before_crash; ++i) {
    uint64_t id = i + 1;
    ASSERT_TRUE(
        LoadKv(&db, id, 300 + rng.Uniform(1500), GetParam() + id).ok());
    committed_fps[id] = FingerprintTable(&db, id);
  }
  ASSERT_TRUE(db.Checkpoint().ok());
  ASSERT_TRUE(db.RunGarbageCollection().ok());
  ASSERT_TRUE(db.snapshot_mgr()->CollectExpired().ok());
  uint64_t committed_live = env.object_store().LiveObjectCount();

  // An in-flight transaction flushes a random number of pages... crash.
  Transaction* doomed = db.Begin();
  TableLoader loader = db.NewTableLoader(doomed, KvSchema(99));
  Batch batch;
  batch.AddColumn("k", {ColumnType::kInt64, {}, {}, {}});
  batch.AddColumn("s", {ColumnType::kString, {}, {}, {}});
  batch.AddColumn("d", {ColumnType::kDouble, {}, {}, {}});
  int64_t rows = 200 + static_cast<int64_t>(rng.Uniform(3000));
  for (int64_t i = 0; i < rows; ++i) {
    batch.columns[0].ints.push_back(i);
    batch.columns[1].strings.push_back("doomed");
    batch.columns[2].doubles.push_back(1.0);
  }
  ASSERT_TRUE(loader.Append(batch.columns).ok());
  ASSERT_TRUE(loader.Finish(db.system()).ok());
  if (rng.Bernoulli(0.7)) {
    ASSERT_TRUE(db.txn_mgr().buffer().FlushTxn(doomed->id).ok());
  }

  ASSERT_TRUE(db.CrashAndRecover().ok());

  // Orphans collected, committed data intact and bit-identical.
  EXPECT_EQ(env.object_store().LiveObjectCount(), committed_live)
      << "seed " << GetParam();
  for (const auto& [id, fp] : committed_fps) {
    EXPECT_EQ(FingerprintTable(&db, id), fp) << "table " << id;
  }

  // The full audit agrees: everything reachable reads back, nothing
  // leaked.
  Result<ConsistencyReport> audit = CheckConsistency(&db);
  ASSERT_TRUE(audit.ok());
  EXPECT_TRUE(audit->ok()) << (audit->problems.empty()
                                   ? ""
                                   : audit->problems.front());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashPointSweep,
                         ::testing::Values(21, 34, 55, 89, 144));

// ---------------------------------------------------------------------------
// Buffer capacity independence.
// ---------------------------------------------------------------------------

class BufferCapacitySweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BufferCapacitySweep, ResultsIndependentOfCacheSize) {
  SimEnvironment env;
  Database::Options options;
  options.user_storage = UserStorage::kObjectStore;
  options.page_size = 8192;
  options.buffer_capacity_override = GetParam();
  Database db(&env, InstanceProfile::M5ad4xlarge(), options);
  ASSERT_TRUE(LoadKv(&db, 1, 4000, 1234).ok());
  // The fingerprint is capacity-invariant; churn-phase evictions and
  // re-reads must not change what a scan sees.
  EXPECT_EQ(FingerprintTable(&db, 1), FingerprintTable(&db, 1));
  static uint64_t reference_fp = 0;
  uint64_t fp = FingerprintTable(&db, 1);
  if (reference_fp == 0) {
    reference_fp = fp;
  } else {
    EXPECT_EQ(fp, reference_fp);
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, BufferCapacitySweep,
                         ::testing::Values(64 << 10, 512 << 10, 4 << 20,
                                           256 << 20));

// ---------------------------------------------------------------------------
// Codec corruption fuzz.
// ---------------------------------------------------------------------------

TEST(CodecFuzzTest, CorruptedFramesErrorCleanly) {
  Rng rng(777);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<uint8_t> payload(rng.Uniform(4000) + 1);
    for (auto& b : payload) b = static_cast<uint8_t>(rng.Next());
    std::vector<uint8_t> frame = EncodePage(payload);

    // Clean round trip.
    Result<std::vector<uint8_t>> ok = DecodePage(frame);
    ASSERT_TRUE(ok.ok());
    ASSERT_EQ(ok.value(), payload);

    // Mutate one byte: must either fail cleanly or (if the mutation hit
    // redundant bits) still decode to the original payload — never crash
    // or return wrong data.
    std::vector<uint8_t> bad = frame;
    bad[rng.Uniform(bad.size())] ^=
        static_cast<uint8_t>(1 + rng.Uniform(255));
    Result<std::vector<uint8_t>> r = DecodePage(bad);
    if (r.ok()) {
      EXPECT_EQ(r.value(), payload);
    }

    // Truncate: must fail cleanly.
    std::vector<uint8_t> truncated(frame.begin(),
                                   frame.begin() + rng.Uniform(frame.size()));
    Result<std::vector<uint8_t>> t = DecodePage(truncated);
    if (t.ok()) {
      EXPECT_EQ(t.value(), payload);
    }
  }
}

// ---------------------------------------------------------------------------
// Column page decoder fuzz.
// ---------------------------------------------------------------------------

// A column whose page takes encoding `kind` (1 frame-of-reference, 2 raw
// double, 3 dictionary string, 4 raw string, 5 delta).
ColumnVector FuzzColumn(Rng& rng, int kind, size_t rows) {
  ColumnVector col;
  col.type = kind == 2   ? ColumnType::kDouble
             : kind == 3 || kind == 4 ? ColumnType::kString
                                      : ColumnType::kInt64;
  int64_t v = static_cast<int64_t>(rng.Next() >> 8);
  for (size_t i = 0; i < rows; ++i) {
    switch (kind) {
      case 1:
        col.ints.push_back(v + static_cast<int64_t>(
                                   rng.Uniform(uint64_t{1} << (i % 40 + 1))));
        break;
      case 2:
        col.doubles.push_back(rng.NextDouble() * 1e6);
        break;
      case 3:
        col.strings.push_back("v" + std::to_string(rng.Uniform(5)));
        break;
      case 4:
        col.strings.push_back("comment " + std::to_string(rng.Next()));
        break;
      default:
        v += static_cast<int64_t>(rng.Uniform(4));
        col.ints.push_back(v);
    }
  }
  return col;
}

uint32_t DeclaredCount(const std::vector<uint8_t>& page) {
  uint32_t count = 0;
  std::memcpy(&count, page.data() + 4, sizeof(count));
  return count;
}

// A mutated page must decode to an error or to exactly the row count its
// header declares, never crash or size anything by a corrupt count.
void ExpectCleanDecode(const std::vector<uint8_t>& page) {
  Result<ColumnVector> r = DecodeColumnPage(page);
  if (r.ok()) {
    ASSERT_GE(page.size(), 8u);
    EXPECT_EQ(r->size(), DeclaredCount(page));
  }
}

TEST(ColumnPageFuzzTest, MutatedPagesErrorOrKeepDeclaredSize) {
  Rng rng(1414);
  std::set<uint8_t> encodings;
  for (int iter = 0; iter < 100; ++iter) {
    int kind = 1 + iter % 5;
    // Sorted runs long enough that delta beats frame-of-reference.
    size_t rows = kind == 5 ? 20 + rng.Uniform(180) : rng.Uniform(200);
    ColumnVector col = FuzzColumn(rng, kind, rows);
    ZoneMapEntry zone;
    std::vector<uint8_t> page = EncodeColumnPage(col, 0, rows, &zone);
    uint8_t encoding = page[8];
    encodings.insert(encoding);
    Result<ColumnVector> clean = DecodeColumnPage(page);
    ASSERT_TRUE(clean.ok());
    ASSERT_EQ(clean->size(), rows);

    for (int flip = 0; flip < 20; ++flip) {
      std::vector<uint8_t> bad = page;
      for (uint64_t n = 1 + rng.Uniform(3); n > 0; --n) {
        bad[rng.Uniform(bad.size())] ^=
            static_cast<uint8_t>(1u << rng.Uniform(8));
      }
      ExpectCleanDecode(bad);
    }
    for (size_t cut = 0; cut < page.size(); ++cut) {
      std::vector<uint8_t> truncated(page.begin(), page.begin() + cut);
      EXPECT_FALSE(DecodeColumnPage(truncated).ok()) << cut;
    }
    for (uint32_t count :
         {static_cast<uint32_t>(rows + 1), static_cast<uint32_t>(2 * rows + 9),
          uint32_t{0xFFFF}, uint32_t{0x7FFFFFFF}, uint32_t{0xFFFFFFFF},
          static_cast<uint32_t>(rows + rng.Uniform(0xFFFFFFFF - rows)),
          static_cast<uint32_t>(rng.Next())}) {
      std::vector<uint8_t> inflated = page;
      std::memcpy(inflated.data() + 4, &count, sizeof(count));
      ExpectCleanDecode(inflated);
    }
    if (encoding == 1 || encoding == 3 || encoding == 5) {
      for (uint8_t width : {0, 65, 255}) {
        std::vector<uint8_t> bad = page;
        bad[9] = width;
        EXPECT_FALSE(DecodeColumnPage(bad).ok()) << int{width};
      }
    }
  }
  EXPECT_EQ(encodings, (std::set<uint8_t>{1, 2, 3, 4, 5}));
}

// ---------------------------------------------------------------------------
// Index page and table metadata decoder fuzz.
// ---------------------------------------------------------------------------

int64_t FuzzKey(Rng& rng, int64_t*) { return static_cast<int64_t>(rng.Next()); }

std::string FuzzKey(Rng& rng, std::string*) {
  std::string word(rng.Uniform(12), 'a');
  for (char& c : word) c = static_cast<char>('a' + rng.Uniform(26));
  return word;
}

template <typename Key>
Key FuzzKey(Rng& rng) {
  return FuzzKey(rng, static_cast<Key*>(nullptr));
}

IntervalSet FuzzRows(Rng& rng) {
  IntervalSet rows;
  for (uint64_t n = 1 + rng.Uniform(4); n > 0; --n) {
    uint64_t begin = rng.Uniform(1000);
    rows.InsertRange(begin, begin + 1 + rng.Uniform(50));
  }
  return rows;
}

void PutAt(std::vector<uint8_t>& bytes, size_t at, const void* value,
           size_t size) {
  if (at + size <= bytes.size()) std::memcpy(bytes.data() + at, value, size);
}

// A mutated index page must decode to an error or to exactly the entry
// count its header declares.
template <typename Key>
void ExpectCleanIndexDecode(const std::vector<uint8_t>& page) {
  Result<typename PostingIndex<Key>::Entries> r =
      PostingIndex<Key>::DecodePage(page);
  if (r.ok()) {
    ASSERT_GE(page.size(), 4u);
    uint32_t count = 0;
    std::memcpy(&count, page.data(), sizeof(count));
    EXPECT_EQ(r->size(), count);
  }
}

template <typename Key>
void FuzzIndexPages(uint64_t seed) {
  using Index = PostingIndex<Key>;
  Rng rng(seed);
  for (int iter = 0; iter < 60; ++iter) {
    typename Index::Postings postings;
    for (uint64_t n = rng.Uniform(20); n > 0; --n) {
      postings[FuzzKey<Key>(rng)] = FuzzRows(rng);
    }
    std::vector<uint8_t> page =
        Index::EncodePage(postings.begin(), postings.end());
    Result<typename Index::Entries> clean = Index::DecodePage(page);
    ASSERT_TRUE(clean.ok());
    ASSERT_EQ(clean->size(), postings.size());

    for (int flip = 0; flip < 20; ++flip) {
      std::vector<uint8_t> bad = page;
      for (uint64_t n = 1 + rng.Uniform(3); n > 0; --n) {
        bad[rng.Uniform(bad.size())] ^=
            static_cast<uint8_t>(1u << rng.Uniform(8));
      }
      ExpectCleanIndexDecode<Key>(bad);
    }
    for (size_t cut = 0; cut < page.size(); ++cut) {
      std::vector<uint8_t> truncated(page.begin(), page.begin() + cut);
      EXPECT_FALSE(Index::DecodePage(truncated).ok()) << cut;
    }
    for (uint32_t count : {static_cast<uint32_t>(postings.size() + 1),
                           uint32_t{0xFFFF}, uint32_t{0x7FFFFFFF},
                           uint32_t{0xFFFFFFFF},
                           static_cast<uint32_t>(rng.Next())}) {
      std::vector<uint8_t> inflated = page;
      PutAt(inflated, 0, &count, sizeof(count));
      ExpectCleanIndexDecode<Key>(inflated);
    }
    if (postings.empty()) continue;
    // The first entry's posting length sits after the count and its key.
    std::vector<uint8_t> key;
    PostingKey<Key>::Put(key, postings.begin()->first);
    size_t len_at = 4 + key.size();
    uint64_t len = 0;
    std::memcpy(&len, page.data() + len_at, sizeof(len));
    for (uint64_t inflated_len :
         {len + 1, len + 16, uint64_t{0xFFFFFFFF}, uint64_t{1} << 63,
          ~uint64_t{0}, rng.Next()}) {
      std::vector<uint8_t> inflated = page;
      PutAt(inflated, len_at, &inflated_len, sizeof(inflated_len));
      ExpectCleanIndexDecode<Key>(inflated);
    }
    if constexpr (std::is_same_v<Key, std::string>) {
      // And the first key's string length.
      for (uint32_t key_len : {uint32_t{0xFFFFFFFF},
                               static_cast<uint32_t>(page.size()),
                               static_cast<uint32_t>(rng.Next())}) {
        std::vector<uint8_t> inflated = page;
        PutAt(inflated, 4, &key_len, sizeof(key_len));
        ExpectCleanIndexDecode<Key>(inflated);
      }
    }
  }
}

TEST(IndexPageFuzzTest, MutatedIntegerKeyPagesErrorOrKeepDeclaredCount) {
  FuzzIndexPages<int64_t>(1515);
}

TEST(IndexPageFuzzTest, MutatedStringKeyPagesErrorOrKeepDeclaredCount) {
  FuzzIndexPages<std::string>(1616);
}

template <typename Key>
void FuzzIndexSlots(Rng& rng, size_t slots, PartitionIndexes<Key>* indexes) {
  for (size_t s = 0; s < slots; ++s) {
    bool empty = rng.Uniform(4) == 0;
    indexes->objects.push_back(empty ? 0 : rng.Next());
    auto& ranges = indexes->page_ranges.emplace_back();
    for (uint64_t n = empty ? 0 : 1 + rng.Uniform(4); n > 0; --n) {
      Key lo = FuzzKey<Key>(rng);
      ranges.emplace_back(std::move(lo), FuzzKey<Key>(rng));
    }
  }
}

TableMeta FuzzTableMeta(Rng& rng) {
  TableMeta meta;
  TableSchema& schema = meta.schema;
  schema.name = FuzzKey<std::string>(rng);
  schema.table_id = rng.Uniform(1000);
  for (uint64_t c = 1 + rng.Uniform(5); c > 0; --c) {
    schema.columns.push_back({FuzzKey<std::string>(rng),
                              static_cast<ColumnType>(rng.Uniform(3))});
  }
  int columns = static_cast<int>(schema.columns.size());
  schema.partition_column = rng.Uniform(2) == 0 ? -1 : 0;
  if (schema.partition_column >= 0) {
    schema.partition_bounds = {100, 200};
  }
  for (std::vector<int>* list :
       {&schema.hg_index_columns, &schema.date_index_columns,
        &schema.text_index_columns}) {
    for (uint64_t n = rng.Uniform(3); n > 0; --n) {
      list->push_back(static_cast<int>(rng.Uniform(columns)));
    }
  }
  for (size_t p = 0; p < schema.partition_count(); ++p) {
    PartitionMeta& part = meta.partitions.emplace_back();
    part.row_count = rng.Uniform(10000);
    for (int c = 0; c < columns; ++c) {
      SegmentMeta& seg = part.columns.emplace_back();
      seg.object_id = rng.Next();
      for (uint64_t n = rng.Uniform(4); n > 0; --n) {
        ZoneMapEntry zone;
        zone.min_int = static_cast<int64_t>(rng.Next());
        zone.max_string = FuzzKey<std::string>(rng);
        zone.row_count = static_cast<uint32_t>(rng.Uniform(5000));
        seg.zones.push_back(zone);
        seg.page_rows.push_back(zone.row_count);
        seg.page_bytes.push_back(static_cast<uint32_t>(rng.Uniform(4096)));
        seg.row_count += zone.row_count;
      }
    }
    FuzzIndexSlots(rng, schema.hg_index_columns.size(), &part.hg_indexes);
    FuzzIndexSlots(rng, schema.date_index_columns.size(), &part.date_indexes);
    FuzzIndexSlots(rng, schema.text_index_columns.size(), &part.text_indexes);
  }
  return meta;
}

TEST(TableMetaFuzzTest, MutatedMetadataErrorsCleanly) {
  Rng rng(2718);
  for (int iter = 0; iter < 40; ++iter) {
    TableMeta meta = FuzzTableMeta(rng);
    std::vector<uint8_t> bytes = meta.Serialize();
    Result<TableMeta> clean = TableMeta::Deserialize(bytes);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    ASSERT_EQ(clean->Serialize(), bytes);

    // Bit flips: an error or a clean decode, never a crash.
    for (int flip = 0; flip < 40; ++flip) {
      std::vector<uint8_t> bad = bytes;
      for (uint64_t n = 1 + rng.Uniform(3); n > 0; --n) {
        bad[rng.Uniform(bad.size())] ^=
            static_cast<uint8_t>(1u << rng.Uniform(8));
      }
      (void)TableMeta::Deserialize(bad);
    }
    // Every truncation is corrupt.
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + cut);
      EXPECT_TRUE(TableMeta::Deserialize(truncated).status().IsCorruption())
          << cut;
    }
    // Inflated counts and lengths wherever they land.
    for (int inflate = 0; inflate < 40; ++inflate) {
      std::vector<uint8_t> bad = bytes;
      size_t at = rng.Uniform(bad.size());
      if (rng.Uniform(2) == 0) {
        uint32_t count = rng.Uniform(2) == 0
                             ? 0xFFFFFFFF
                             : static_cast<uint32_t>(rng.Next());
        PutAt(bad, at, &count, sizeof(count));
      } else {
        uint64_t len = rng.Uniform(2) == 0 ? ~uint64_t{0} : rng.Next();
        PutAt(bad, at, &len, sizeof(len));
      }
      (void)TableMeta::Deserialize(bad);
    }
  }
}

}  // namespace
}  // namespace cloudiq
