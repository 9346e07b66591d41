// Differential correctness tests for the parallel execution engine: every
// parallel operator is run against its serial counterpart over seeded random
// inputs (including degenerate and adversarial shapes) and must agree —
// bit-identically for the sort and the transfer drain, set-equally for the
// partitioned temporal join. Plus ThreadPool unit tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <stdexcept>
#include <string>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "dbms/engine.h"
#include "exec/join.h"
#include "exec/parallel.h"
#include "exec/sort.h"
#include "tango/middleware.h"
#include "workload/uis.h"

namespace tango {
namespace exec {
namespace {

constexpr size_t kDop = 4;

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsTasksToCompletion) {
  common::ThreadPool pool(kDop);
  EXPECT_EQ(pool.num_threads(), kDop);
  std::atomic<int> sum{0};
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([i, &sum]() {
      sum += 1;
      return i * i;
    }));
  }
  int total = 0;
  for (auto& f : futures) total += f.get();
  EXPECT_EQ(sum.load(), 100);
  EXPECT_EQ(total, 328350);  // sum of squares 0..99
}

TEST(ThreadPoolTest, PropagatesExceptionsThroughFutures) {
  common::ThreadPool pool(2);
  auto ok = pool.Submit([]() { return 7; });
  auto bad = pool.Submit([]() -> int {
    throw std::runtime_error("task exploded");
  });
  EXPECT_EQ(ok.get(), 7);
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The worker that ran the throwing task must still be alive.
  EXPECT_EQ(pool.Submit([]() { return 42; }).get(), 42);
}

TEST(ThreadPoolTest, ReusableAfterDrain) {
  common::ThreadPool pool(3);
  for (int round = 0; round < 5; ++round) {
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 20; ++i) {
      futures.push_back(pool.Submit([i]() { return i; }));
    }
    int sum = 0;
    for (auto& f : futures) sum += f.get();
    EXPECT_EQ(sum, 190);
  }
}

// ---------------------------------------------------------------------------
// Shared generators / helpers
// ---------------------------------------------------------------------------

Schema RelSchema() {
  return Schema({{"", "KEY", DataType::kInt},
                 {"", "VAL", DataType::kString},
                 {"", "T1", DataType::kInt},
                 {"", "T2", DataType::kInt}});
}

/// Random rows; `adversarial_periods` makes every period span nearly the
/// whole time domain, so each tuple crosses every partition boundary.
std::vector<Tuple> RandomRows(Rng* rng, size_t n, int64_t key_range,
                              bool adversarial_periods = false,
                              double null_fraction = 0.05) {
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const int64_t key = rng->Uniform(0, key_range);
    int64_t t1, t2;
    if (adversarial_periods) {
      // Starts spread across the domain (so partitioning engages) but every
      // period reaches near the end: each tuple crosses every partition
      // boundary above its start and gets replicated into all of them.
      t1 = rng->Uniform(0, 200);
      t2 = rng->Uniform(900, 1000);
    } else {
      t1 = rng->Uniform(0, 1000);
      t2 = t1 + rng->Uniform(1, 200);
    }
    Tuple row = {Value(key), Value(rng->Identifier(3)), Value(t1), Value(t2)};
    if (rng->Bernoulli(null_fraction)) row[2] = Value::Null();
    if (rng->Bernoulli(null_fraction / 2)) row[3] = Value::Null();
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string TupleRepr(const Tuple& t) {
  std::string s;
  for (const Value& v : t) {
    s += v.is_null() ? "<null>" : v.ToString();
    s += "|";
  }
  return s;
}

std::vector<std::string> Reprs(const std::vector<Tuple>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Tuple& t : rows) out.push_back(TupleRepr(t));
  return out;
}

// ---------------------------------------------------------------------------
// Parallel external sort: bit-identical to the serial sort
// ---------------------------------------------------------------------------

void CheckSortDifferential(const std::vector<Tuple>& input, size_t budget,
                           common::ThreadPoolPtr pool,
                           const std::string& label) {
  const std::vector<SortKey> keys = {{0, true}, {2, false}};

  SortCursor serial(std::make_unique<VectorCursor>(RelSchema(), input), keys,
                    budget);
  auto serial_rows = MaterializeAll(&serial);
  ASSERT_TRUE(serial_rows.ok()) << label;

  ParallelSortCursor parallel(
      std::make_unique<VectorCursor>(RelSchema(), input), keys, pool, budget,
      kDop);
  auto parallel_rows = MaterializeAll(&parallel);
  ASSERT_TRUE(parallel_rows.ok()) << label;

  // Bit-identical: same rows in the same order.
  EXPECT_EQ(Reprs(serial_rows.ValueOrDie()),
            Reprs(parallel_rows.ValueOrDie()))
      << label;
}

TEST(ParallelSortTest, DifferentialAgainstSerial) {
  auto pool = std::make_shared<common::ThreadPool>(kDop);
  Rng rng(20260805);

  // One row of this shape is ~40 bytes; budget 640 gives chunks of
  // 160 bytes (~4 rows) at DOP 4, so the boundary sizes below exercise
  // empty, single-row, exactly-one-chunk, and chunk+1 inputs.
  const size_t kBudget = 640;
  const size_t sizes[] = {0, 1, 2, 4, 5, 16, 17, 100, 1000};
  for (size_t n : sizes) {
    // Narrow key range => many duplicate keys => the stability tie-break
    // must match between the serial and parallel merges.
    auto input = RandomRows(&rng, n, 5);
    CheckSortDifferential(input, kBudget, pool, "spilling n=" +
                          std::to_string(n));
    CheckSortDifferential(input, 32 << 20, pool,
                          "in-memory n=" + std::to_string(n));
  }
  for (int round = 0; round < 10; ++round) {
    const size_t n = static_cast<size_t>(rng.Uniform(0, 400));
    auto input = RandomRows(&rng, n, 50);
    CheckSortDifferential(input, kBudget, pool,
                          "random round=" + std::to_string(round));
  }
}

TEST(ParallelSortTest, SpillsAndMergesLargeInput) {
  auto pool = std::make_shared<common::ThreadPool>(kDop);
  Rng rng(7);
  auto input = RandomRows(&rng, 2000, 100, false, 0.0);
  ParallelSortCursor cursor(
      std::make_unique<VectorCursor>(RelSchema(), input), {{0, true}}, pool,
      /*memory_budget_bytes=*/4096, kDop);
  auto rows = MaterializeAll(&cursor);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.ValueOrDie().size(), input.size());
  EXPECT_GT(cursor.spilled_runs(), 0u);
  EXPECT_GT(cursor.total_runs(), kDop);
}

TEST(ParallelSortTest, WorksWithoutPool) {
  Rng rng(11);
  auto input = RandomRows(&rng, 100, 10);
  CheckSortDifferential(input, 512, nullptr, "null pool");
}

// ---------------------------------------------------------------------------
// Partitioned temporal join: set-equal to the serial temporal join
// ---------------------------------------------------------------------------

Schema JoinOutSchema() {
  return Schema({{"", "KEY", DataType::kInt},
                 {"", "VALL", DataType::kString},
                 {"", "VALR", DataType::kString},
                 {"", "T1", DataType::kInt},
                 {"", "T2", DataType::kInt}});
}

/// Key-sorts `rows` (merge-join input requirement).
std::vector<Tuple> KeySorted(std::vector<Tuple> rows) {
  std::stable_sort(rows.begin(), rows.end(),
                   [](const Tuple& a, const Tuple& b) {
                     return a[0].Compare(b[0]) < 0;
                   });
  return rows;
}

void CheckJoinDifferential(const std::vector<Tuple>& left,
                           const std::vector<Tuple>& right,
                           common::ThreadPoolPtr pool,
                           const std::string& label,
                           bool expect_partitioned = false) {
  const std::vector<size_t> lkeys = {0}, rkeys = {0};
  const std::vector<size_t> left_out = {0, 1}, right_out = {1};

  TemporalJoinCursor serial(
      std::make_unique<VectorCursor>(RelSchema(), left),
      std::make_unique<VectorCursor>(RelSchema(), right), lkeys, rkeys, 2, 3,
      2, 3, left_out, right_out, JoinOutSchema());
  auto serial_rows = MaterializeAll(&serial);
  ASSERT_TRUE(serial_rows.ok()) << label;

  ParallelTemporalJoinCursor parallel(
      std::make_unique<VectorCursor>(RelSchema(), left),
      std::make_unique<VectorCursor>(RelSchema(), right), lkeys, rkeys, 2, 3,
      2, 3, left_out, right_out, JoinOutSchema(), pool, kDop);
  auto parallel_rows = MaterializeAll(&parallel);
  ASSERT_TRUE(parallel_rows.ok()) << label;
  if (expect_partitioned) {
    EXPECT_EQ(parallel.partitions_used(), kDop) << label;
  }

  // Set-equal (multiset, order-insensitive): partition concatenation does
  // not preserve the serial left-key order.
  auto s = Reprs(serial_rows.ValueOrDie());
  auto p = Reprs(parallel_rows.ValueOrDie());
  std::sort(s.begin(), s.end());
  std::sort(p.begin(), p.end());
  EXPECT_EQ(s, p) << label;
}

TEST(ParallelTemporalJoinTest, DifferentialAgainstSerial) {
  auto pool = std::make_shared<common::ThreadPool>(kDop);
  Rng rng(20260806);

  const size_t sizes[] = {0, 1, 2, 5, 16, 17, 200};
  for (size_t ln : sizes) {
    for (size_t rn : {size_t{0}, size_t{1}, size_t{100}}) {
      auto left = KeySorted(RandomRows(&rng, ln, 8));
      auto right = KeySorted(RandomRows(&rng, rn, 8));
      CheckJoinDifferential(left, right, pool,
                            "n=" + std::to_string(ln) + "x" +
                                std::to_string(rn));
    }
  }
  for (int round = 0; round < 10; ++round) {
    auto left = KeySorted(RandomRows(&rng, 150, 10));
    auto right = KeySorted(RandomRows(&rng, 150, 10));
    CheckJoinDifferential(left, right, pool,
                          "random round=" + std::to_string(round),
                          /*expect_partitioned=*/true);
  }
}

TEST(ParallelTemporalJoinTest, AdversarialPeriodsCrossAllBoundaries) {
  auto pool = std::make_shared<common::ThreadPool>(kDop);
  Rng rng(99);
  // Every period spans ~[0..5, 995..1000): each tuple is replicated into
  // every partition; the intersection-start window rule must still emit
  // each pair exactly once.
  auto left = KeySorted(RandomRows(&rng, 80, 4, /*adversarial=*/true, 0.0));
  auto right = KeySorted(RandomRows(&rng, 80, 4, /*adversarial=*/true, 0.0));
  CheckJoinDifferential(left, right, pool, "adversarial",
                        /*expect_partitioned=*/true);
}

TEST(ParallelTemporalJoinTest, DegeneratePeriodsAndNulls) {
  auto pool = std::make_shared<common::ThreadPool>(kDop);
  Rng rng(123);
  // Mix in empty periods ([t, t)) and inverted ones; the overlap predicate
  // treats them like the serial join does.
  auto tweak = [&rng](std::vector<Tuple> rows) {
    for (Tuple& t : rows) {
      if (!t[2].is_null() && rng.Bernoulli(0.3)) t[3] = t[2];
      if (!t[2].is_null() && !t[3].is_null() && rng.Bernoulli(0.2)) {
        std::swap(t[2], t[3]);
      }
    }
    return rows;
  };
  auto left = KeySorted(tweak(RandomRows(&rng, 120, 6, false, 0.2)));
  auto right = KeySorted(tweak(RandomRows(&rng, 120, 6, false, 0.2)));
  CheckJoinDifferential(left, right, pool, "degenerate");
}

// ---------------------------------------------------------------------------
// Prefetching transfer drain: bit-identical pass-through + error paths
// ---------------------------------------------------------------------------

/// Cursor that fails after producing `ok_rows` rows.
class FailingCursor : public Cursor {
 public:
  FailingCursor(Schema schema, size_t ok_rows)
      : schema_(std::move(schema)), ok_rows_(ok_rows) {}

  Status Init() override {
    produced_ = 0;
    return Status::OK();
  }
  /// Fills whole blocks; the block that reaches `ok_rows` fails as a whole.
  Result<size_t> NextBatch(RowBlock* block) override {
    block->Clear();
    while (!block->full()) {
      if (produced_ >= ok_rows_) return Status::IOError("wire dropped");
      block->AppendRow(Tuple{Value(static_cast<int64_t>(produced_++))});
    }
    return block->rows();
  }
  const Schema& schema() const override { return schema_; }

 private:
  Schema schema_;
  size_t ok_rows_;
  size_t produced_ = 0;
};

TEST(PrefetchCursorTest, DifferentialPassThrough) {
  Rng rng(5);
  // Sizes around the batch boundary (batch_rows = 8 here).
  for (size_t n : {0, 1, 7, 8, 9, 64, 1000}) {
    auto input = RandomRows(&rng, n, 20);
    PrefetchCursor prefetch(
        std::make_unique<VectorCursor>(RelSchema(), input), /*batch_rows=*/8,
        /*max_batches=*/2);
    auto rows = MaterializeAll(&prefetch);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(Reprs(rows.ValueOrDie()), Reprs(input)) << n;
  }
}

TEST(PrefetchCursorTest, PropagatesProducerErrors) {
  Schema schema({{"", "N", DataType::kInt}});
  PrefetchCursor prefetch(std::make_unique<FailingCursor>(schema, 20),
                          /*batch_rows=*/8, /*max_batches=*/2);
  ASSERT_TRUE(prefetch.Init().ok());
  RowBlock block;
  size_t got = 0;
  Status error = Status::OK();
  while (true) {
    Result<size_t> r = prefetch.NextBatch(&block);
    if (!r.ok()) {
      error = r.status();
      break;
    }
    if (r.ValueOrDie() == 0) break;
    got += r.ValueOrDie();
  }
  EXPECT_EQ(error.code(), StatusCode::kIOError);
  EXPECT_EQ(got, 16u);  // full batches delivered before the error surfaced
}

TEST(PrefetchCursorTest, TeardownWithoutDrainingDoesNotHang) {
  Rng rng(6);
  auto input = RandomRows(&rng, 500, 20);
  auto prefetch = std::make_unique<PrefetchCursor>(
      std::make_unique<VectorCursor>(RelSchema(), input), 8, 2);
  ASSERT_TRUE(prefetch->Init().ok());
  RowBlock block;
  ASSERT_GT(prefetch->NextBatch(&block).ValueOrDie(), 0u);
  prefetch.reset();  // producer blocked on a full queue must unblock
}

TEST(PrefetchCursorTest, ReInitRestartsStream) {
  Rng rng(8);
  auto input = RandomRows(&rng, 40, 20);
  PrefetchCursor prefetch(
      std::make_unique<VectorCursor>(RelSchema(), input), 8, 2);
  for (int round = 0; round < 3; ++round) {
    auto rows = MaterializeAll(&prefetch);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows.ValueOrDie().size(), input.size()) << round;
  }
}

// ---------------------------------------------------------------------------
// End to end: a DOP-4 middleware returns exactly the serial results
// ---------------------------------------------------------------------------

TEST(ParallelMiddlewareTest, Query1PipelineMatchesSerial) {
  dbms::Engine db;
  workload::UisOptions opts;
  ASSERT_TRUE(workload::LoadPositionVariant(&db, "POSITION_T", 3000, opts).ok());

  const std::string query =
      "TEMPORAL SELECT PosID, T1, T2, COUNT(PosID) AS CNT FROM POSITION_T "
      "GROUP BY PosID OVER TIME ORDER BY PosID, T1";

  Middleware::Config serial_cfg;
  serial_cfg.wire.simulate_delay = false;
  Middleware serial_mw(&db, serial_cfg);
  auto serial = serial_mw.Query(query);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  Middleware::Config par_cfg = serial_cfg;
  par_cfg.dop = kDop;
  // Tiny sort budget so the parallel sort genuinely chunks and spills.
  par_cfg.sort_memory_budget_bytes = 16 << 10;
  Middleware parallel_mw(&db, par_cfg);
  auto parallel = parallel_mw.Query(query);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  EXPECT_EQ(Reprs(serial.ValueOrDie().rows),
            Reprs(parallel.ValueOrDie().rows));
}

TEST(ParallelMiddlewareTest, TemporalJoinQueryMatchesSerial) {
  dbms::Engine db;
  workload::UisOptions opts;
  opts.employee_rows = 500;
  opts.position_rows = 2500;
  ASSERT_TRUE(workload::LoadUis(&db, opts).ok());

  // The running example (§2.2): temporal aggregation joined back to
  // POSITION — exercises TJOIN^M above two transfers.
  const std::string query =
      "TEMPORAL SELECT C.PosID, EmpName, T1, T2, CNT "
      "FROM (TEMPORAL SELECT PosID, COUNT(PosID) AS CNT "
      "      FROM POSITION GROUP BY PosID OVER TIME) C, POSITION P "
      "WHERE C.PosID = P.PosID ORDER BY PosID";

  Middleware::Config serial_cfg;
  serial_cfg.wire.simulate_delay = false;
  Middleware serial_mw(&db, serial_cfg);
  auto serial = serial_mw.Query(query);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  Middleware::Config par_cfg = serial_cfg;
  par_cfg.dop = kDop;
  Middleware parallel_mw(&db, par_cfg);
  auto parallel = parallel_mw.Query(query);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  auto s = Reprs(serial.ValueOrDie().rows);
  auto p = Reprs(parallel.ValueOrDie().rows);
  std::sort(s.begin(), s.end());
  std::sort(p.begin(), p.end());
  EXPECT_EQ(s, p);
}

/// DOP must shift cost estimates: the same middleware sort gets cheaper.
TEST(ParallelCostModelTest, DopDiscountsMiddlewareCpuTerms) {
  cost::CostModel serial_model;
  cost::CostModel parallel_model;
  parallel_model.set_parallelism(4, 0.75);
  EXPECT_DOUBLE_EQ(parallel_model.EffectiveDop(), 3.25);
  EXPECT_LT(parallel_model.SortM(1e6, 1e4), serial_model.SortM(1e6, 1e4));
  EXPECT_LT(parallel_model.TJoinM(1e6, 1e6, 1e5),
            serial_model.TJoinM(1e6, 1e6, 1e5));
  // DBMS-side and transfer formulas are unaffected.
  EXPECT_DOUBLE_EQ(parallel_model.SortD(1e6, 1e4),
                   serial_model.SortD(1e6, 1e4));
  EXPECT_DOUBLE_EQ(parallel_model.TransferM(1e6), serial_model.TransferM(1e6));
}

}  // namespace
}  // namespace exec
}  // namespace tango
