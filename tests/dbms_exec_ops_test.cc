// Direct unit tests for the DBMS physical operators (the engine-level SQL
// tests cover them end to end; these pin the edge cases). Filter, project,
// sort, duplicate elimination and merge join come from src/exec; their
// DBMS-side cases here go through the planner's composition of them.

#include <gtest/gtest.h>

#include "dbms/catalog.h"
#include "dbms/engine.h"
#include "dbms/exec_ops.h"
#include "exec/basic.h"

namespace tango {
namespace dbms {
namespace {

Schema KvSchema() {
  return Schema({{"", "K", DataType::kInt}, {"", "V", DataType::kInt}});
}

std::unique_ptr<Table> MakeTable(const std::vector<Tuple>& rows) {
  auto table = std::make_unique<Table>("T", KvSchema());
  for (const Tuple& t : rows) EXPECT_TRUE(table->Append(t).ok());
  return table;
}

std::vector<Tuple> Kv(std::initializer_list<std::pair<int64_t, int64_t>> kv) {
  std::vector<Tuple> rows;
  for (const auto& [k, v] : kv) rows.push_back({Value(k), Value(v)});
  return rows;
}

TEST(IndexScanOpTest, BoundInclusivityMatrix) {
  auto table = MakeTable(Kv({{1, 10}, {2, 20}, {2, 21}, {3, 30}, {5, 50}}));
  ASSERT_TRUE(table->CreateIndex(0).ok());

  struct Case {
    std::optional<Value> lo, hi;
    bool lo_inc, hi_inc;
    size_t expected;
  };
  const Case cases[] = {
      {Value(int64_t{2}), Value(int64_t{3}), true, true, 3},
      {Value(int64_t{2}), Value(int64_t{3}), false, true, 1},
      {Value(int64_t{2}), Value(int64_t{3}), true, false, 2},
      {Value(int64_t{2}), Value(int64_t{3}), false, false, 0},
      {std::nullopt, Value(int64_t{2}), true, true, 3},
      {Value(int64_t{3}), std::nullopt, true, true, 2},
      {std::nullopt, std::nullopt, true, true, 5},
      {Value(int64_t{9}), std::nullopt, true, true, 0},
  };
  for (const Case& c : cases) {
    ScanSpec spec;
    spec.table = table.get();
    spec.columns = {true, true};
    IndexScanOp scan(std::move(spec), 0, c.lo, c.lo_inc, c.hi, c.hi_inc);
    auto rows = MaterializeAll(&scan);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows.ValueOrDie().size(), c.expected)
        << (c.lo ? c.lo->ToString() : "-inf") << (c.lo_inc ? "[" : "(") << ".."
        << (c.hi ? c.hi->ToString() : "+inf") << (c.hi_inc ? "]" : ")");
  }
}

TEST(TableScanOpTest, MaskedScanEmitsOnlyMaskedColumnsAndCountsOnce) {
  auto table = MakeTable(Kv({{1, 10}, {2, 20}, {3, 30}, {4, 40}}));
  obs::Counter examined, decoded;
  ScanSpec spec;
  spec.table = table.get();
  spec.alias = "T";
  spec.columns = {false, true};
  spec.conjuncts = {Bind(Expr::Binary(BinaryOp::kGe, Expr::Column("", "V"),
                                      Expr::Int(20)),
                         KvSchema())
                        .ValueOrDie()};
  spec.counters = {&examined, &decoded};
  TableScanOp scan(std::move(spec));
  ASSERT_EQ(scan.schema().num_columns(), 1u);
  EXPECT_EQ(scan.schema().column(0).name, "V");
  EXPECT_EQ(scan.schema().column(0).table, "T");
  ASSERT_TRUE(scan.Init().ok());

  // A one-row block into a caller block still holding a wider stale row.
  RowBlock one(1);
  one.AppendRow(Tuple{Value("stale"), Value("stale")});
  ASSERT_EQ(scan.NextBatch(&one).ValueOrDie(), 1u);
  ASSERT_EQ(one.columns(), 1u);
  EXPECT_EQ(one.At(0, 0).AsInt(), 20);
  EXPECT_EQ(examined.load(), 0u);  // accumulated locally until the end

  RowBlock block;
  ASSERT_EQ(scan.NextBatch(&block).ValueOrDie(), 2u);
  ASSERT_EQ(block.columns(), 1u);
  for (size_t r = 0; r < block.rows(); ++r) {
    EXPECT_EQ(block.At(r, 0).AsInt(), 30 + 10 * static_cast<int64_t>(r));
  }
  ASSERT_EQ(scan.NextBatch(&block).ValueOrDie(), 0u);
  EXPECT_EQ(examined.load(), 4u);
  EXPECT_EQ(decoded.load(), 4u);  // V only, once per row
}

TEST(TableScanOpTest, ConjunctOnAnUnmaskedColumnAndZeroWidthRows) {
  auto table = MakeTable(Kv({{1, 10}, {2, 20}, {3, 30}, {4, 40}}));
  const ExprPtr v_ge_20 =
      Bind(Expr::Binary(BinaryOp::kGe, Expr::Column("", "V"), Expr::Int(20)),
           KvSchema())
          .ValueOrDie();
  {
    // The conjunct reads V, the output holds K only.
    obs::Counter decoded;
    ScanSpec spec;
    spec.table = table.get();
    spec.columns = {true, false};
    spec.conjuncts = {v_ge_20};
    spec.counters.values_decoded = &decoded;
    TableScanOp scan(std::move(spec));
    ASSERT_EQ(scan.schema().num_columns(), 1u);
    EXPECT_EQ(scan.schema().column(0).name, "K");
    auto rows = MaterializeAll(&scan).ValueOrDie();
    ASSERT_EQ(rows.size(), 3u);
    for (size_t r = 0; r < rows.size(); ++r) {
      ASSERT_EQ(rows[r].size(), 1u);
      EXPECT_EQ(rows[r][0].AsInt(), 2 + static_cast<int64_t>(r));
    }
    EXPECT_EQ(decoded.load(), 4u + 3u);  // V for every row, K for survivors
  }
  {
    // No column read: zero-width rows, counted by the block, nothing decoded.
    obs::Counter examined, decoded;
    ScanSpec spec;
    spec.table = table.get();
    spec.columns = {false, false};
    spec.counters = {&examined, &decoded};
    TableScanOp scan(std::move(spec));
    EXPECT_EQ(scan.schema().num_columns(), 0u);
    ASSERT_TRUE(scan.Init().ok());
    RowBlock block(3);
    ASSERT_EQ(scan.NextBatch(&block).ValueOrDie(), 3u);
    EXPECT_EQ(block.columns(), 0u);
    ASSERT_EQ(scan.NextBatch(&block).ValueOrDie(), 1u);
    ASSERT_EQ(scan.NextBatch(&block).ValueOrDie(), 0u);
    EXPECT_EQ(examined.load(), 4u);
    EXPECT_EQ(decoded.load(), 0u);
  }
}

/// Runs `sql` on `db` with the DBMS join method forced to sort-merge.
std::vector<Tuple> RunMerge(Engine* db, const std::string& sql) {
  db->config().forced_join = SessionConfig::JoinMethod::kMerge;
  auto r = db->Execute(sql);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? r.ValueOrDie().rows : std::vector<Tuple>{};
}

void LoadKvTable(Engine* db, const std::string& name,
                 const std::vector<Tuple>& rows) {
  ASSERT_TRUE(db->Execute("CREATE TABLE " + name + " (K INT, V INT)").ok());
  ASSERT_TRUE(db->BulkLoad(name, rows).ok());
}

// A forced merge join is a SortCursor per input under a MergeJoinCursor.
TEST(MergeJoinCompositionTest, DuplicateRunsOnBothSides) {
  Engine db;
  LoadKvTable(&db, "L", Kv({{4, 4}, {1, 2}, {2, 3}, {1, 1}}));
  LoadKvTable(&db, "R", Kv({{3, 8}, {1, 6}, {4, 9}, {1, 5}, {1, 7}}));
  auto rows = RunMerge(&db, "SELECT L.V, R.V FROM L, R WHERE L.K = R.K");
  // key 1: 2x3 = 6; key 4: 1 -> 7 pairs.
  EXPECT_EQ(rows.size(), 7u);
}

// The join's cross-table residual is a FilterCursor over the merge join.
TEST(MergeJoinCompositionTest, ResidualFiltersJoinedPairs) {
  Engine db;
  LoadKvTable(&db, "L", Kv({{1, 1}, {1, 9}}));
  LoadKvTable(&db, "R", Kv({{1, 2}, {1, 8}}));
  auto rows = RunMerge(
      &db, "SELECT L.V, R.V FROM L, R WHERE L.K = R.K AND L.V < R.V "
           "ORDER BY L.V, R.V");
  // V pairs: (1,2) y, (1,8) y, (9,2) n, (9,8) n.
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1].AsInt(), 2);
  EXPECT_EQ(rows[1][1].AsInt(), 8);
}

TEST(HashJoinOpTest, NullKeysNeverMatchAndBuildSideEmpty) {
  {
    std::vector<Tuple> l = {{Value::Null(), Value(int64_t{1})},
                            {Value(int64_t{1}), Value(int64_t{2})}};
    std::vector<Tuple> r = {{Value::Null(), Value(int64_t{3})},
                            {Value(int64_t{1}), Value(int64_t{4})}};
    HashJoinOp join(
        std::make_unique<VectorCursor>(KvSchema().WithQualifier("L"), l),
        std::make_unique<VectorCursor>(KvSchema().WithQualifier("R"), r), {0},
        {0}, nullptr);
    auto rows = MaterializeAll(&join);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows.ValueOrDie().size(), 1u);
  }
  {
    HashJoinOp join(std::make_unique<VectorCursor>(
                        KvSchema().WithQualifier("L"), std::vector<Tuple>{}),
                    std::make_unique<VectorCursor>(
                        KvSchema().WithQualifier("R"), Kv({{1, 1}})),
                    {0}, {0}, nullptr);
    auto rows = MaterializeAll(&join);
    ASSERT_TRUE(rows.ok());
    EXPECT_TRUE(rows.ValueOrDie().empty());
  }
}

TEST(GroupAggOpTest, PendingGroupBoundaries) {
  // Three groups of different sizes; sorted input.
  auto child = std::make_unique<VectorCursor>(
      KvSchema(), Kv({{1, 10}, {1, 20}, {2, 5}, {3, 1}, {3, 2}, {3, 3}}));
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFunc::kCount, nullptr, "C"});
  aggs.push_back({AggFunc::kSum, Expr::BoundColumn(1), "S"});
  GroupAggOp agg(std::move(child), {0}, aggs);
  auto rows = MaterializeAll(&agg);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  const auto& out = rows.ValueOrDie();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0][1].AsInt(), 2);   // count
  EXPECT_EQ(out[0][2].AsInt(), 30);  // sum
  EXPECT_EQ(out[1][2].AsInt(), 5);
  EXPECT_EQ(out[2][1].AsInt(), 3);
  EXPECT_EQ(out[2][2].AsInt(), 6);
}

// With no group columns the aggregate yields exactly one row, for an empty
// input too, and stays exhausted after it.
TEST(GroupAggOpTest, GlobalAggregateYieldsExactlyOneRow) {
  for (const std::vector<Tuple>& input : {std::vector<Tuple>{},
                                          Kv({{1, 10}, {2, 20}})}) {
    std::vector<AggSpec> aggs;
    aggs.push_back({AggFunc::kCount, nullptr, "C"});
    aggs.push_back({AggFunc::kSum, Expr::BoundColumn(1), "S"});
    GroupAggOp agg(std::make_unique<VectorCursor>(KvSchema(), input), {},
                   aggs);
    ASSERT_TRUE(agg.Init().ok());
    RowBlock block(1);
    ASSERT_EQ(agg.NextBatch(&block).ValueOrDie(), 1u);
    EXPECT_EQ(block.At(0, 0).AsInt(), static_cast<int64_t>(input.size()));
    EXPECT_EQ(block.At(0, 1).is_null(), input.empty());
    EXPECT_EQ(agg.NextBatch(&block).ValueOrDie(), 0u);
    EXPECT_EQ(agg.NextBatch(&block).ValueOrDie(), 0u);
  }
}

TEST(GroupAggOpTest, MinMaxOverStrings) {
  Schema schema({{"", "G", DataType::kInt}, {"", "S", DataType::kString}});
  std::vector<Tuple> rows = {{Value(int64_t{1}), Value("beta")},
                             {Value(int64_t{1}), Value("alpha")},
                             {Value(int64_t{1}), Value("gamma")}};
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFunc::kMin, Expr::BoundColumn(1), "MN"});
  aggs.push_back({AggFunc::kMax, Expr::BoundColumn(1), "MX"});
  GroupAggOp agg(std::make_unique<VectorCursor>(schema, rows), {0}, aggs);
  auto out = MaterializeAll(&agg).ValueOrDie();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][1].AsString(), "alpha");
  EXPECT_EQ(out[0][2].AsString(), "gamma");
}

TEST(DupElimCursorTest, NullsCompareEqualForDeduplication) {
  Schema schema({{"", "X", DataType::kInt}});
  std::vector<Tuple> rows = {{Value::Null()}, {Value::Null()},
                             {Value(int64_t{1})}};
  exec::DupElimCursor dedup(std::make_unique<VectorCursor>(schema, rows));
  auto out = MaterializeAll(&dedup).ValueOrDie();
  EXPECT_EQ(out.size(), 2u);

  // The same through the DBMS's DISTINCT, which sorts NULLs first.
  Engine db;
  ASSERT_TRUE(db.Execute("CREATE TABLE U (X INT)").ok());
  ASSERT_TRUE(
      db.Execute("INSERT INTO U VALUES (NULL), (1), (NULL), (1)").ok());
  auto distinct = db.Execute("SELECT DISTINCT X FROM U");
  ASSERT_TRUE(distinct.ok()) << distinct.status().ToString();
  ASSERT_EQ(distinct.ValueOrDie().rows.size(), 2u);
  EXPECT_TRUE(distinct.ValueOrDie().rows[0][0].is_null());
}

TEST(NestedLoopJoinOpTest, EmptySidesAndNullPredicate) {
  auto mk = [](std::vector<Tuple> rows) {
    return std::make_unique<VectorCursor>(KvSchema(), std::move(rows));
  };
  {
    NestedLoopJoinOp join(mk(Kv({{1, 1}, {2, 2}})), mk(Kv({{3, 3}})), nullptr);
    EXPECT_EQ(MaterializeAll(&join).ValueOrDie().size(), 2u);  // cross product
  }
  {
    NestedLoopJoinOp join(mk({}), mk(Kv({{3, 3}})), nullptr);
    EXPECT_TRUE(MaterializeAll(&join).ValueOrDie().empty());
  }
  {
    NestedLoopJoinOp join(mk(Kv({{1, 1}})), mk({}), nullptr);
    EXPECT_TRUE(MaterializeAll(&join).ValueOrDie().empty());
  }
}

/// The inner side of an index nested-loop join: an index scan of `table`
/// on column 0 under range variable "I", reading `columns`.
std::unique_ptr<IndexScanOp> InnerProbe(const Table* table,
                                        std::vector<bool> columns) {
  ScanSpec spec;
  spec.table = table;
  spec.alias = "I";
  spec.columns = std::move(columns);
  return std::make_unique<IndexScanOp>(std::move(spec), 0, std::nullopt, true,
                                       std::nullopt, true);
}

TEST(IndexNestedLoopJoinOpTest, ProbesInnerIndex) {
  auto inner = MakeTable(Kv({{1, 100}, {1, 101}, {2, 200}, {3, 300}}));
  ASSERT_TRUE(inner->CreateIndex(0).ok());
  auto outer = std::make_unique<VectorCursor>(
      KvSchema().WithQualifier("O"), Kv({{1, 1}, {3, 3}, {9, 9}}));
  IndexNestedLoopJoinOp join(std::move(outer),
                             InnerProbe(inner.get(), {true, true}), 0, nullptr);
  auto rows = MaterializeAll(&join);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  // key 1 -> two inner rows, key 3 -> one, key 9 -> none.
  EXPECT_EQ(rows.ValueOrDie().size(), 3u);
  // Output schema: outer ++ qualified inner.
  EXPECT_EQ(join.schema().num_columns(), 4u);
  EXPECT_TRUE(join.schema().Contains("I.K"));
}

TEST(IndexNestedLoopJoinOpTest, InnerRowsAreDense) {
  auto inner = MakeTable(Kv({{1, 100}, {1, 101}, {2, 200}, {3, 300}}));
  ASSERT_TRUE(inner->CreateIndex(0).ok());
  auto outer = std::make_unique<VectorCursor>(
      KvSchema().WithQualifier("O"), Kv({{1, 1}, {3, 3}, {9, 9}}));
  IndexNestedLoopJoinOp join(std::move(outer),
                             InnerProbe(inner.get(), {false, true}), 0,
                             nullptr);
  ASSERT_EQ(join.schema().num_columns(), 3u);
  EXPECT_TRUE(join.schema().Contains("I.V"));
  EXPECT_FALSE(join.schema().Contains("I.K"));
  // Drained twice in one-row blocks: re-Init replays, exhaustion sticks.
  for (int pass = 0; pass < 2; ++pass) {
    ASSERT_TRUE(join.Init().ok());
    RowBlock block(1);
    std::vector<int64_t> inner_v;
    while (join.NextBatch(&block).ValueOrDie() > 0) {
      ASSERT_EQ(block.columns(), 3u);
      inner_v.push_back(block.At(0, 2).AsInt());
    }
    EXPECT_EQ(join.NextBatch(&block).ValueOrDie(), 0u);
    EXPECT_EQ(inner_v, (std::vector<int64_t>{100, 101, 300}));
  }
}

TEST(IndexNestedLoopJoinOpTest, MissingIndexIsAnError) {
  auto inner = MakeTable(Kv({{1, 100}}));
  auto outer = std::make_unique<VectorCursor>(KvSchema().WithQualifier("O"),
                                              Kv({{1, 1}}));
  IndexNestedLoopJoinOp join(std::move(outer),
                             InnerProbe(inner.get(), {true, true}), 0, nullptr);
  EXPECT_FALSE(join.Init().ok());
}

}  // namespace
}  // namespace dbms
}  // namespace tango
