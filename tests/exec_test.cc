#include <gtest/gtest.h>

#include <atomic>

#include "columnar/table_loader.h"
#include "exec/executor.h"
#include "exec/explain.h"
#include "exec/morsel.h"
#include "exec/task_pool.h"
#include "tests/test_util.h"

namespace cloudiq {
namespace {

using testing_util::SingleNodeHarness;

// --- morsel partitioning -----------------------------------------------

SegmentMeta MakeSeg(std::vector<uint32_t> page_rows) {
  SegmentMeta seg;
  for (uint32_t pr : page_rows) {
    seg.page_rows.push_back(pr);
    seg.row_count += pr;
  }
  return seg;
}

IntervalSet AllRows(const SegmentMeta& seg) {
  IntervalSet rows;
  rows.InsertRange(0, seg.row_count);
  return rows;
}

TEST(MorselTest, EmptyRowSetMakesNoMorsels) {
  SegmentMeta seg = MakeSeg({100, 100, 50});
  std::vector<Morsel> out;
  AppendMorsels(seg, 0, IntervalSet(), 100, &out);
  EXPECT_TRUE(out.empty());
}

TEST(MorselTest, TargetLargerThanTableYieldsOneMorsel) {
  SegmentMeta seg = MakeSeg({100, 100, 50});
  std::vector<Morsel> out;
  AppendMorsels(seg, 3, AllRows(seg), 10000, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].partition, 3u);
  EXPECT_EQ(out[0].row_begin, 0u);
  EXPECT_EQ(out[0].row_end, 250u);
  EXPECT_EQ(out[0].row_count, 250u);
}

TEST(MorselTest, SinglePageTableYieldsOneMorsel) {
  SegmentMeta seg = MakeSeg({100});
  std::vector<Morsel> out;
  AppendMorsels(seg, 0, AllRows(seg), 64, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].row_begin, 0u);
  EXPECT_EQ(out[0].row_end, 100u);
}

TEST(MorselTest, CutsAtPageBoundariesWithRemainderTail) {
  SegmentMeta seg = MakeSeg({100, 100, 50});
  std::vector<Morsel> out;
  AppendMorsels(seg, 0, AllRows(seg), 100, &out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].row_begin, 0u);
  EXPECT_EQ(out[0].row_end, 100u);
  EXPECT_EQ(out[1].row_begin, 100u);
  EXPECT_EQ(out[1].row_end, 200u);
  // The 50-row tail never reaches the target: remainder morsel.
  EXPECT_EQ(out[2].row_begin, 200u);
  EXPECT_EQ(out[2].row_end, 250u);
  EXPECT_EQ(out[2].row_count, 50u);
}

TEST(MorselTest, MorselCoversMultiplePagesUntilTarget) {
  SegmentMeta seg = MakeSeg({100, 100, 50});
  std::vector<Morsel> out;
  AppendMorsels(seg, 0, AllRows(seg), 150, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].row_end, 200u);  // closed by the page reaching >= 150
  EXPECT_EQ(out[0].row_count, 200u);
  EXPECT_EQ(out[1].row_begin, 200u);
  EXPECT_EQ(out[1].row_count, 50u);
}

TEST(MorselTest, PagesWithoutCandidatesExtendNoMorsel) {
  SegmentMeta seg = MakeSeg({100, 100, 50});
  IntervalSet rows;
  rows.InsertRange(210, 220);  // only the last page has candidates
  std::vector<Morsel> out;
  AppendMorsels(seg, 0, rows, 100, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].row_begin, 200u);
  EXPECT_EQ(out[0].row_end, 250u);
  EXPECT_EQ(out[0].row_count, 10u);
  EXPECT_EQ(out[0].rows.Count(), 10u);
}

TEST(MorselTest, TargetZeroTreatedAsOne) {
  SegmentMeta seg = MakeSeg({10, 10});
  std::vector<Morsel> out;
  AppendMorsels(seg, 0, AllRows(seg), 0, &out);
  EXPECT_EQ(out.size(), 2u);  // every non-empty page closes a morsel
}

TEST(MorselTest, RowChunksCoverRangeInOrder) {
  EXPECT_TRUE(MakeRowChunks(0, 16).empty());
  std::vector<RowChunk> chunks = MakeRowChunks(10, 4);
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[0].begin, 0u);
  EXPECT_EQ(chunks[0].end, 4u);
  EXPECT_EQ(chunks[2].begin, 8u);
  EXPECT_EQ(chunks[2].end, 10u);
  EXPECT_EQ(MakeRowChunks(3, 0).size(), 3u);  // target 0 -> 1
}

TEST(MorselTest, ParseExecModeRoundTrips) {
  ExecMode mode = ExecMode::kSim;
  EXPECT_TRUE(ParseExecMode("native", &mode));
  EXPECT_EQ(mode, ExecMode::kNative);
  EXPECT_TRUE(ParseExecMode("sim", &mode));
  EXPECT_EQ(mode, ExecMode::kSim);
  EXPECT_FALSE(ParseExecMode("turbo", &mode));
  EXPECT_STREQ(ExecModeName(ExecMode::kNative), "native");
}

TEST(TaskPoolTest, NativeRunsEveryIndexExactlyOnce) {
  constexpr size_t kCount = 257;
  std::vector<std::atomic<int>> hits(kCount);
  TaskPool::Global().RunIndexed(ExecMode::kNative, 4, kCount,
                                [&hits](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(TaskPoolTest, SimModeRunsInlineInAscendingOrder) {
  std::vector<size_t> order;
  TaskPool::Global().RunIndexed(ExecMode::kSim, 8, 5,
                                [&order](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

class ExecTest : public ::testing::Test {
 protected:
  ExecTest() {
    TransactionManager::Options opts;
    opts.blockmap_fanout = 16;
    opts.buffer_capacity_bytes = 8 << 20;
    txn_mgr_ = std::make_unique<TransactionManager>(h_.storage.get(),
                                                    &h_.system, opts);
    txn_mgr_->set_commit_listener(
        [this](NodeId node, const IntervalSet& keys) {
          h_.keygen.OnTransactionCommitted(node, keys);
        });
    LoadSales();
    txn_ = txn_mgr_->Begin();
    ctx_ = std::make_unique<QueryContext>(txn_mgr_.get(), txn_,
                                          &h_.system);
  }

  ~ExecTest() override { (void)txn_mgr_->Commit(txn_); }

  // sales(id, region_id, amount DECIMAL, day DATE-ish int, note)
  void LoadSales() {
    TableSchema schema;
    schema.name = "sales";
    schema.table_id = 10;
    schema.columns = {{"id", ColumnType::kInt64},
                      {"region_id", ColumnType::kInt64},
                      {"amount", ColumnType::kDecimal},
                      {"day", ColumnType::kInt64},
                      {"note", ColumnType::kString}};
    schema.partition_column = 3;
    schema.partition_bounds = {50};
    Transaction* txn = txn_mgr_->Begin();
    TableLoader loader(txn_mgr_.get(), txn, h_.cloud_space, schema);
    Batch batch;
    batch.AddColumn("id", {ColumnType::kInt64, {}, {}, {}});
    batch.AddColumn("region_id", {ColumnType::kInt64, {}, {}, {}});
    batch.AddColumn("amount", {ColumnType::kDecimal, {}, {}, {}});
    batch.AddColumn("day", {ColumnType::kInt64, {}, {}, {}});
    batch.AddColumn("note", {ColumnType::kString, {}, {}, {}});
    for (int64_t i = 0; i < 1000; ++i) {
      batch.columns[0].ints.push_back(i);
      batch.columns[1].ints.push_back(i % 4);
      batch.columns[2].ints.push_back((i % 10 + 1) * 100);  // 1.00-10.00
      batch.columns[3].ints.push_back(i % 100);
      batch.columns[4].strings.push_back(i % 7 == 0 ? "promo sale"
                                                    : "regular");
    }
    ASSERT_TRUE(loader.Append(batch.columns).ok());
    ASSERT_TRUE(loader.Finish(&h_.system).ok());
    ASSERT_TRUE(txn_mgr_->Commit(txn).ok());

    // regions(region_id, region_name)
    TableSchema rschema;
    rschema.name = "regions";
    rschema.table_id = 11;
    rschema.columns = {{"region_id", ColumnType::kInt64},
                       {"region_name", ColumnType::kString}};
    Transaction* rtxn = txn_mgr_->Begin();
    TableLoader rloader(txn_mgr_.get(), rtxn, h_.cloud_space, rschema);
    Batch rbatch;
    rbatch.AddColumn("region_id", {ColumnType::kInt64, {}, {}, {}});
    rbatch.AddColumn("region_name", {ColumnType::kString, {}, {}, {}});
    const char* names[3] = {"NORTH", "SOUTH", "EAST"};  // region 3 missing
    for (int64_t i = 0; i < 3; ++i) {
      rbatch.columns[0].ints.push_back(i);
      rbatch.columns[1].strings.push_back(names[i]);
    }
    ASSERT_TRUE(rloader.Append(rbatch.columns).ok());
    ASSERT_TRUE(rloader.Finish(&h_.system).ok());
    ASSERT_TRUE(txn_mgr_->Commit(rtxn).ok());
  }

  SingleNodeHarness h_;
  std::unique_ptr<TransactionManager> txn_mgr_;
  Transaction* txn_ = nullptr;
  std::unique_ptr<QueryContext> ctx_;
};

TEST_F(ExecTest, FullScan) {
  Result<TableReader> reader = ctx_->OpenTable(10);
  ASSERT_TRUE(reader.ok());
  Result<Batch> batch =
      ScanTable(ctx_.get(), &*reader, {"id", "amount", "note"});
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->rows(), 1000u);
  EXPECT_EQ(batch->column("note").strings[0], "promo sale");
  EXPECT_GT(ctx_->node()->clock().now(), 0.0);  // scan consumed sim time
}

TEST_F(ExecTest, RangeScanPrunesAndFilters) {
  Result<TableReader> reader = ctx_->OpenTable(10);
  ASSERT_TRUE(reader.ok());
  Result<Batch> batch =
      ScanTable(ctx_.get(), &*reader, {"id", "day"},
                ScanRange{"day", 10, 19});
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->rows(), 100u);  // 10 days x 10 rows/day
  for (size_t r = 0; r < batch->rows(); ++r) {
    EXPECT_GE(batch->Int("day", r), 10);
    EXPECT_LE(batch->Int("day", r), 19);
  }
}

TEST_F(ExecTest, RangeColumnNotInProjectionIsDropped) {
  Result<TableReader> reader = ctx_->OpenTable(10);
  ASSERT_TRUE(reader.ok());
  // Filter on `day` without selecting it: the scan reads it internally
  // for the exact filter but must not leak it into the output shape.
  Result<Batch> batch = ScanTable(ctx_.get(), &*reader, {"id"},
                                  ScanRange{"day", 10, 19});
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->rows(), 100u);
  EXPECT_EQ(batch->columns.size(), 1u);
  EXPECT_EQ(batch->names, std::vector<std::string>{"id"});
}

TEST_F(ExecTest, EmptyRangeYieldsEmptyShapedBatch) {
  Result<TableReader> reader = ctx_->OpenTable(10);
  ASSERT_TRUE(reader.ok());
  Result<Batch> batch = ScanTable(ctx_.get(), &*reader, {"id", "note"},
                                  ScanRange{"day", 1000, 2000});
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->rows(), 0u);
  EXPECT_EQ(batch->columns.size(), 2u);
  EXPECT_EQ(batch->columns[1].type, ColumnType::kString);
}

TEST_F(ExecTest, PartitionPruningOnPartitionColumn) {
  Result<TableReader> reader = ctx_->OpenTable(10);
  ASSERT_TRUE(reader.ok());
  // day >= 60 lives entirely in partition 1.
  Result<Batch> batch = ScanTable(ctx_.get(), &*reader, {"day"},
                                  ScanRange{"day", 60, 99});
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->rows(), 400u);
}

TEST_F(ExecTest, FilterBatchRowwise) {
  Result<TableReader> reader = ctx_->OpenTable(10);
  ASSERT_TRUE(reader.ok());
  Result<Batch> batch = ScanTable(ctx_.get(), &*reader, {"id", "note"});
  ASSERT_TRUE(batch.ok());
  Batch promo = FilterBatch(ctx_.get(), *batch, [](const Batch& b, size_t r) {
    return b.Str("note", r) == "promo sale";
  });
  EXPECT_EQ(promo.rows(), 1000u / 7 + 1);
}

TEST_F(ExecTest, InnerJoinBringsRightColumns) {
  Result<TableReader> sales = ctx_->OpenTable(10);
  Result<TableReader> regions = ctx_->OpenTable(11);
  ASSERT_TRUE(sales.ok() && regions.ok());
  Result<Batch> s = ScanTable(ctx_.get(), &*sales, {"id", "region_id"});
  Result<Batch> g =
      ScanTable(ctx_.get(), &*regions, {"region_id", "region_name"});
  ASSERT_TRUE(s.ok() && g.ok());
  Result<Batch> joined = HashJoin(ctx_.get(), *s, "region_id", *g,
                                  "region_id", JoinType::kInner);
  ASSERT_TRUE(joined.ok());
  // Region 3 has no match: 250 rows drop out.
  EXPECT_EQ(joined->rows(), 750u);
  EXPECT_GE(joined->Col("region_name"), 0);
  for (size_t r = 0; r < joined->rows(); ++r) {
    int64_t id = joined->Int("region_id", r);
    const char* names[3] = {"NORTH", "SOUTH", "EAST"};
    EXPECT_EQ(joined->Str("region_name", r), names[id]);
  }
}

TEST_F(ExecTest, SemiAndAntiJoin) {
  Result<TableReader> sales = ctx_->OpenTable(10);
  Result<TableReader> regions = ctx_->OpenTable(11);
  ASSERT_TRUE(sales.ok() && regions.ok());
  Result<Batch> s = ScanTable(ctx_.get(), &*sales, {"id", "region_id"});
  Result<Batch> g = ScanTable(ctx_.get(), &*regions, {"region_id"});
  ASSERT_TRUE(s.ok() && g.ok());
  Result<Batch> semi = HashJoin(ctx_.get(), *s, "region_id", *g,
                                "region_id", JoinType::kLeftSemi);
  Result<Batch> anti = HashJoin(ctx_.get(), *s, "region_id", *g,
                                "region_id", JoinType::kLeftAnti);
  ASSERT_TRUE(semi.ok() && anti.ok());
  EXPECT_EQ(semi->rows(), 750u);
  EXPECT_EQ(anti->rows(), 250u);
  EXPECT_EQ(semi->rows() + anti->rows(), s->rows());
  // Anti rows are exactly region 3.
  for (size_t r = 0; r < anti->rows(); ++r) {
    EXPECT_EQ(anti->Int("region_id", r), 3);
  }
}

TEST_F(ExecTest, StringKeyJoin) {
  Result<TableReader> sales = ctx_->OpenTable(10);
  ASSERT_TRUE(sales.ok());
  Result<Batch> s = ScanTable(ctx_.get(), &*sales, {"id", "note"});
  ASSERT_TRUE(s.ok());
  Batch right;
  right.AddColumn("note", {ColumnType::kString, {}, {}, {}});
  right.AddColumn("weight", {ColumnType::kInt64, {}, {}, {}});
  right.columns[0].strings = {"promo sale"};
  right.columns[1].ints = {9};
  Result<Batch> joined =
      HashJoin(ctx_.get(), *s, "note", right, "note", JoinType::kInner);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->rows(), 1000u / 7 + 1);
  EXPECT_EQ(joined->Int("weight", 0), 9);
}

TEST_F(ExecTest, HashAggregateAllOps) {
  Result<TableReader> sales = ctx_->OpenTable(10);
  ASSERT_TRUE(sales.ok());
  Result<Batch> s =
      ScanTable(ctx_.get(), &*sales, {"region_id", "amount", "id"});
  ASSERT_TRUE(s.ok());
  Result<Batch> agg =
      HashAggregate(ctx_.get(), *s, {"region_id"},
                    {{AggOp::kCount, "", "n"},
                     {AggOp::kSum, "amount", "total"},
                     {AggOp::kMin, "id", "min_id"},
                     {AggOp::kMax, "id", "max_id"},
                     {AggOp::kAvg, "amount", "avg_amount"}});
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg->rows(), 4u);
  for (size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(agg->Int("n", r), 250);
    int64_t region = agg->Int("region_id", r);
    EXPECT_EQ(agg->Int("min_id", r), region);
    EXPECT_EQ(agg->Int("max_id", r), 996 + region);
    // amount pattern repeats every 10 ids; per region sum is constant.
    EXPECT_GT(agg->Int("total", r), 0);
    EXPECT_NEAR(agg->Double("avg_amount", r),
                static_cast<double>(agg->Int("total", r)) / 250, 1e-6);
  }
}

TEST_F(ExecTest, GlobalAggregateNoKeys) {
  Result<TableReader> sales = ctx_->OpenTable(10);
  ASSERT_TRUE(sales.ok());
  Result<Batch> s = ScanTable(ctx_.get(), &*sales, {"amount"});
  ASSERT_TRUE(s.ok());
  Result<Batch> agg = HashAggregate(ctx_.get(), *s, {},
                                    {{AggOp::kCount, "", "n"},
                                     {AggOp::kSum, "amount", "total"}});
  ASSERT_TRUE(agg.ok());
  ASSERT_EQ(agg->rows(), 1u);
  EXPECT_EQ(agg->Int("n", 0), 1000);
  // 100 full cycles of (1+..+10)*100 scaled cents = 100 * 5500.
  EXPECT_EQ(agg->Int("total", 0), 100 * 5500);
}

TEST_F(ExecTest, SortAndLimit) {
  Result<TableReader> sales = ctx_->OpenTable(10);
  ASSERT_TRUE(sales.ok());
  Result<Batch> s = ScanTable(ctx_.get(), &*sales, {"id", "amount"});
  ASSERT_TRUE(s.ok());
  Batch sorted = SortBatch(ctx_.get(), *s,
                           {{"amount", false}, {"id", true}}, 5);
  ASSERT_EQ(sorted.rows(), 5u);
  // Highest amount = 1000 (ids 9, 19, ...), ties broken by id asc.
  EXPECT_EQ(sorted.Int("amount", 0), 1000);
  EXPECT_EQ(sorted.Int("id", 0), 9);
  EXPECT_EQ(sorted.Int("id", 1), 19);
}

TEST_F(ExecTest, ComputedColumn) {
  Result<TableReader> sales = ctx_->OpenTable(10);
  ASSERT_TRUE(sales.ok());
  Result<Batch> s = ScanTable(ctx_.get(), &*sales, {"amount"});
  ASSERT_TRUE(s.ok());
  Batch with = WithComputedColumn(
      ctx_.get(), *s, "dollars", ColumnType::kDouble,
      [](const Batch& b, size_t r, ColumnVector* out) {
        out->doubles.push_back(DecimalToDouble(b.Int("amount", r)));
      });
  EXPECT_DOUBLE_EQ(with.Double("dollars", 0),
                   with.Int("amount", 0) / 100.0);
}

TEST_F(ExecTest, ScanRowIdsReadsOnlyRequestedRows) {
  Result<TableReader> sales = ctx_->OpenTable(10);
  ASSERT_TRUE(sales.ok());
  IntervalSet rows;
  rows.InsertRange(5, 8);   // partition-local rows
  rows.Insert(100);
  Result<Batch> batch =
      ScanRowIds(ctx_.get(), &*sales, 0, {"id", "note"}, rows);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->rows(), 4u);
}

TEST_F(ExecTest, OperatorsRegisterDenselyWithStats) {
  CostLedger& ledger = h_.env.telemetry().ledger();
  ctx_->SetAttribution(ledger.NextQueryId(), "stats-query");
  ScopedQueryAttribution scope(ctx_.get());

  Result<TableReader> sales = ctx_->OpenTable(10);
  ASSERT_TRUE(sales.ok());
  Result<Batch> s = ScanTable(ctx_.get(), &*sales, {"id", "region_id"});
  ASSERT_TRUE(s.ok());
  Batch big = FilterBatch(ctx_.get(), *s, [](const Batch& b, size_t r) {
    return b.Int("id", r) >= 500;
  });
  Result<Batch> agg = HashAggregate(ctx_.get(), big, {"region_id"},
                                    {{AggOp::kCount, "", "n"}});
  ASSERT_TRUE(agg.ok());

  const auto& ops = ctx_->operators();
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].name, "scan sales");
  EXPECT_EQ(ops[1].name, "filter");
  EXPECT_EQ(ops[2].name, "hash aggregate");
  EXPECT_EQ(ops[0].rows, 1000u);
  EXPECT_EQ(ops[1].rows, 500u);
  EXPECT_EQ(ops[2].rows, 4u);
  for (const auto& op : ops) {
    EXPECT_EQ(op.batches, 1u);
    EXPECT_GT(op.sim_seconds, 0) << op.name;
  }
}

TEST_F(ExecTest, ExplainAnalyzeOperatorRowsSumToQueryLedger) {
  CostLedger& ledger = h_.env.telemetry().ledger();
  uint64_t query_id = ledger.NextQueryId();
  ctx_->SetAttribution(query_id, "explain-query");
  {
    ScopedQueryAttribution scope(ctx_.get());
    Result<TableReader> sales = ctx_->OpenTable(10);
    ASSERT_TRUE(sales.ok());
    Result<Batch> s =
        ScanTable(ctx_.get(), &*sales, {"id", "day", "amount"});
    ASSERT_TRUE(s.ok());
    Result<Batch> agg = HashAggregate(ctx_.get(), *s, {"day"},
                                      {{AggOp::kSum, "amount", "total"}});
    ASSERT_TRUE(agg.ok());
  }

  // Fold every ledger entry of this query: the per-operator rows EXPLAIN
  // prints, plus the query-level row (operator_id -1, work outside any
  // operator scope). Their sum must be exactly the query total.
  CostLedger::Entry folded;
  uint64_t operator_entries = 0;
  for (const auto& [key, entry] : ledger.entries()) {
    if (key.query_id != query_id) continue;
    EXPECT_EQ(key.node_id, ctx_->attribution().node_id);
    if (key.operator_id >= 0) {
      ASSERT_LT(static_cast<size_t>(key.operator_id),
                ctx_->operators().size());
      ++operator_entries;
    }
    folded.Fold(entry);
  }
  EXPECT_GT(operator_entries, 0u);

  CostLedger::Entry total = ledger.QueryTotal(query_id);
  EXPECT_EQ(folded.Requests(), total.Requests());
  EXPECT_EQ(folded.buffer_hits + folded.buffer_misses,
            total.buffer_hits + total.buffer_misses);
  EXPECT_DOUBLE_EQ(folded.sim_seconds, total.sim_seconds);
  EXPECT_DOUBLE_EQ(folded.TotalUsd(ledger.prices()),
                   total.TotalUsd(ledger.prices()));
  // The scan touched pages, so the buffer manager charged this query.
  EXPECT_GT(total.buffer_hits + total.buffer_misses, 0u);
  EXPECT_GT(total.sim_seconds, 0);

  std::string text = FormatExplainAnalyze(ctx_.get());
  EXPECT_NE(text.find("EXPLAIN ANALYZE explain-query"), std::string::npos);
  EXPECT_NE(text.find("scan sales"), std::string::npos);
  EXPECT_NE(text.find("hash aggregate"), std::string::npos);
  EXPECT_NE(text.find("total (incl. query-level work)"), std::string::npos);
}

// --- parallel executor: native output == serial output -----------------

void ExpectBatchesIdentical(const Batch& a, const Batch& b) {
  ASSERT_EQ(a.columns.size(), b.columns.size());
  EXPECT_EQ(a.names, b.names);
  EXPECT_EQ(a.rows(), b.rows());
  for (size_t c = 0; c < a.columns.size(); ++c) {
    EXPECT_EQ(a.columns[c].type, b.columns[c].type) << a.names[c];
    EXPECT_EQ(a.columns[c].ints, b.columns[c].ints) << a.names[c];
    EXPECT_EQ(a.columns[c].doubles, b.columns[c].doubles) << a.names[c];
    EXPECT_EQ(a.columns[c].strings, b.columns[c].strings) << a.names[c];
  }
}

// ExecTest with a second context in native mode at 4 workers and a tiny
// morsel target, so even the 1000-row fixture fans out across many
// morsels/chunks. Output must be bitwise identical to the default serial
// context: same row order, same group order, same strings.
class ParallelExecTest : public ExecTest {
 protected:
  ParallelExecTest() {
    QueryContext::Options opts;
    opts.exec_mode = ExecMode::kNative;
    opts.exec_workers = 4;
    opts.morsel_rows = 64;
    par_ctx_ = std::make_unique<QueryContext>(txn_mgr_.get(), txn_,
                                              &h_.system, opts);
  }

  std::unique_ptr<QueryContext> par_ctx_;
};

TEST_F(ParallelExecTest, FullScanMatchesSerial) {
  Result<TableReader> r1 = ctx_->OpenTable(10);
  Result<TableReader> r2 = par_ctx_->OpenTable(10);
  ASSERT_TRUE(r1.ok() && r2.ok());
  std::vector<std::string> cols = {"id", "region_id", "amount", "day",
                                   "note"};
  Result<Batch> serial = ScanTable(ctx_.get(), &*r1, cols);
  Result<Batch> parallel = ScanTable(par_ctx_.get(), &*r2, cols);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  EXPECT_EQ(parallel->rows(), 1000u);
  ExpectBatchesIdentical(*serial, *parallel);
}

TEST_F(ParallelExecTest, RangeScanMatchesSerial) {
  Result<TableReader> r1 = ctx_->OpenTable(10);
  Result<TableReader> r2 = par_ctx_->OpenTable(10);
  ASSERT_TRUE(r1.ok() && r2.ok());
  ScanRange range{"day", 10, 19};
  Result<Batch> serial = ScanTable(ctx_.get(), &*r1, {"id", "note"}, range);
  Result<Batch> parallel =
      ScanTable(par_ctx_.get(), &*r2, {"id", "note"}, range);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  EXPECT_EQ(parallel->rows(), 100u);
  ExpectBatchesIdentical(*serial, *parallel);
}

TEST_F(ParallelExecTest, HashJoinMatchesSerial) {
  Result<TableReader> s1 = ctx_->OpenTable(10);
  Result<TableReader> g1 = ctx_->OpenTable(11);
  ASSERT_TRUE(s1.ok() && g1.ok());
  Result<Batch> s = ScanTable(ctx_.get(), &*s1, {"id", "region_id"});
  Result<Batch> g =
      ScanTable(ctx_.get(), &*g1, {"region_id", "region_name"});
  ASSERT_TRUE(s.ok() && g.ok());
  for (JoinType type :
       {JoinType::kInner, JoinType::kLeftSemi, JoinType::kLeftAnti}) {
    Result<Batch> serial = HashJoin(ctx_.get(), *s, "region_id", *g,
                                    "region_id", type);
    Result<Batch> parallel = HashJoin(par_ctx_.get(), *s, "region_id", *g,
                                      "region_id", type);
    ASSERT_TRUE(serial.ok() && parallel.ok());
    ExpectBatchesIdentical(*serial, *parallel);
  }
}

TEST_F(ParallelExecTest, StringKeyJoinMatchesSerial) {
  Result<TableReader> sales = ctx_->OpenTable(10);
  ASSERT_TRUE(sales.ok());
  Result<Batch> s = ScanTable(ctx_.get(), &*sales, {"id", "note"});
  ASSERT_TRUE(s.ok());
  Batch right;
  right.AddColumn("note", {ColumnType::kString, {}, {}, {}});
  right.AddColumn("weight", {ColumnType::kInt64, {}, {}, {}});
  right.columns[0].strings = {"promo sale"};
  right.columns[1].ints = {9};
  Result<Batch> serial =
      HashJoin(ctx_.get(), *s, "note", right, "note", JoinType::kInner);
  Result<Batch> parallel = HashJoin(par_ctx_.get(), *s, "note", right,
                                    "note", JoinType::kInner);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  ExpectBatchesIdentical(*serial, *parallel);
}

// The fixture has no DOUBLE or DATE column: join them in from the right
// side and group by the double, so every value-copy path of the join
// probe and the aggregate's key output runs on those types.
TEST_F(ParallelExecTest, DoubleAndDateColumnsJoinAndGroup) {
  Result<TableReader> sales = ctx_->OpenTable(10);
  ASSERT_TRUE(sales.ok());
  Result<Batch> s = ScanTable(ctx_.get(), &*sales, {"id", "region_id"});
  ASSERT_TRUE(s.ok());
  Batch right;
  right.AddColumn("region_id", {ColumnType::kInt64, {}, {}, {}});
  right.AddColumn("weight", {ColumnType::kDouble, {}, {}, {}});
  right.AddColumn("opened", {ColumnType::kDate, {}, {}, {}});
  right.columns[0].ints = {0, 1, 2, 2};
  right.columns[1].doubles = {0.5, 1.25, 2.75, 0.5};
  right.columns[2].ints = {DaysFromCivil(1995, 1, 1),
                           DaysFromCivil(1996, 2, 29),
                           DaysFromCivil(1997, 12, 31),
                           DaysFromCivil(1998, 8, 2)};
  Result<Batch> serial = HashJoin(ctx_.get(), *s, "region_id", right,
                                  "region_id", JoinType::kInner);
  Result<Batch> parallel = HashJoin(par_ctx_.get(), *s, "region_id", right,
                                    "region_id", JoinType::kInner);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  ExpectBatchesIdentical(*serial, *parallel);
  // An int key never joins a string key.
  Batch string_keys;
  string_keys.AddColumn("region_id", {ColumnType::kString, {}, {}, {"0"}});
  EXPECT_FALSE(HashJoin(ctx_.get(), *s, "region_id", string_keys,
                        "region_id", JoinType::kInner)
                   .ok());
  // Regions 0 and 1 match once, region 2 twice, region 3 not at all.
  ASSERT_EQ(parallel->rows(), 1000u);
  EXPECT_EQ(parallel->column("weight").type, ColumnType::kDouble);
  EXPECT_EQ(parallel->column("opened").type, ColumnType::kDate);
  for (size_t r = 0; r < parallel->rows(); ++r) {
    int64_t region = parallel->Int("region_id", r);
    if (region == 1) {
      EXPECT_EQ(parallel->Double("weight", r), 1.25);
      EXPECT_EQ(parallel->Int("opened", r), DaysFromCivil(1996, 2, 29));
    }
  }

  std::vector<AggSpec> aggs = {{AggOp::kCount, "", "n"},
                               {AggOp::kMax, "opened", "last_opened"}};
  Result<Batch> gserial =
      HashAggregate(ctx_.get(), *serial, {"weight"}, aggs);
  Result<Batch> gparallel =
      HashAggregate(par_ctx_.get(), *parallel, {"weight"}, aggs);
  ASSERT_TRUE(gserial.ok() && gparallel.ok());
  ExpectBatchesIdentical(*gserial, *gparallel);
  // Weight 0.5 is shared by region 0 and region 2's second row.
  EXPECT_EQ(gparallel->column("weight").doubles,
            std::vector<double>({0.5, 1.25, 2.75}));
  EXPECT_EQ(gparallel->column("n").ints,
            std::vector<int64_t>({500, 250, 250}));
  EXPECT_EQ(gparallel->column("last_opened").ints,
            std::vector<int64_t>({DaysFromCivil(1998, 8, 2),
                                  DaysFromCivil(1996, 2, 29),
                                  DaysFromCivil(1997, 12, 31)}));
}

TEST_F(ParallelExecTest, HashAggregateMatchesSerial) {
  Result<TableReader> sales = ctx_->OpenTable(10);
  ASSERT_TRUE(sales.ok());
  Result<Batch> s =
      ScanTable(ctx_.get(), &*sales, {"region_id", "amount", "id"});
  ASSERT_TRUE(s.ok());
  std::vector<AggSpec> aggs = {{AggOp::kCount, "", "n"},
                               {AggOp::kSum, "amount", "total"},
                               {AggOp::kMin, "id", "min_id"},
                               {AggOp::kMax, "id", "max_id"},
                               {AggOp::kAvg, "amount", "avg_amount"}};
  Result<Batch> serial = HashAggregate(ctx_.get(), *s, {"region_id"}, aggs);
  Result<Batch> parallel =
      HashAggregate(par_ctx_.get(), *s, {"region_id"}, aggs);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  // Group order is first-occurrence order in both modes; sums over the
  // decimal column are integer-exact, so even doubles match bitwise.
  ExpectBatchesIdentical(*serial, *parallel);
}

TEST_F(ParallelExecTest, GlobalAggregateMatchesSerial) {
  Result<TableReader> sales = ctx_->OpenTable(10);
  ASSERT_TRUE(sales.ok());
  Result<Batch> s = ScanTable(ctx_.get(), &*sales, {"amount"});
  ASSERT_TRUE(s.ok());
  std::vector<AggSpec> aggs = {{AggOp::kCount, "", "n"},
                               {AggOp::kSum, "amount", "total"}};
  Result<Batch> serial = HashAggregate(ctx_.get(), *s, {}, aggs);
  Result<Batch> parallel = HashAggregate(par_ctx_.get(), *s, {}, aggs);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  ExpectBatchesIdentical(*serial, *parallel);
}

TEST_F(ExecTest, UnattributedWorkStaysOffQueryLedgers) {
  CostLedger& ledger = h_.env.telemetry().ledger();
  uint64_t query_id = ledger.NextQueryId();
  ctx_->SetAttribution(query_id, "scoped");
  // No ScopedQueryAttribution installed: operator scopes still narrow the
  // context, but outside them the default (query 0) is current.
  Result<TableReader> sales = ctx_->OpenTable(10);
  ASSERT_TRUE(sales.ok());
  Result<Batch> s = ScanTable(ctx_.get(), &*sales, {"id"});
  ASSERT_TRUE(s.ok());

  // The scan ran inside an OperatorScope built from the query's
  // attribution, so its work is still charged to the query...
  EXPECT_GT(ledger.QueryTotal(query_id).sim_seconds, 0);
  // ...but nothing leaked onto other query ids.
  for (const auto& [key, entry] : ledger.entries()) {
    EXPECT_TRUE(key.query_id == query_id || key.query_id == 0)
        << "unexpected query " << key.query_id;
  }
}

}  // namespace
}  // namespace cloudiq
