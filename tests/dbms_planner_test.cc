// Planner-focused DBMS tests: access-path selection, join-method forcing,
// the executor behaviours the generated temporal SQL depends on, and
// required-column pruning through derived tables (differential against a
// C++ oracle).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>

#include "common/date.h"
#include "common/rng.h"
#include "dbms/engine.h"
#include "sql/parser.h"
#include "workload/uis.h"

namespace tango {
namespace dbms {
namespace {

/// A table of `n` rows: K in [0, distinct_k), V = row index, T in [0, n).
void LoadKv(Engine* db, const std::string& name, int n, int distinct_k) {
  ASSERT_TRUE(
      db->Execute("CREATE TABLE " + name + " (K INT, V INT, T INT)").ok());
  std::vector<Tuple> rows;
  Rng rng(5);
  for (int i = 0; i < n; ++i) {
    rows.push_back({Value(static_cast<int64_t>(i % distinct_k)),
                    Value(static_cast<int64_t>(i)),
                    Value(rng.Uniform(0, n))});
  }
  ASSERT_TRUE(db->BulkLoad(name, rows).ok());
}

TEST(PlannerTest, IndexChosenOnlyWhenSelective) {
  Engine db;
  LoadKv(&db, "R", 2000, 100);
  ASSERT_TRUE(db.Execute("CREATE INDEX IT ON R (T)").ok());
  ASSERT_TRUE(db.Execute("ANALYZE R").ok());

  // A narrow range is under the index threshold, a wide one is not; both
  // must return the same rows as each other and as a no-index baseline.
  for (const char* where : {"T >= 100 AND T < 140", "T >= 100 AND T < 1900"}) {
    auto with = db.Execute(std::string("SELECT V FROM R WHERE ") + where +
                           " ORDER BY V");
    ASSERT_TRUE(with.ok()) << with.status().ToString();
    // Baseline through a fresh engine without the index.
    Engine plain;
    LoadKv(&plain, "R", 2000, 100);
    auto without = plain.Execute(std::string("SELECT V FROM R WHERE ") +
                                 where + " ORDER BY V");
    ASSERT_TRUE(without.ok());
    ASSERT_EQ(with.ValueOrDie().rows.size(), without.ValueOrDie().rows.size());
  }
}

TEST(PlannerTest, IndexEqualityLookup) {
  Engine db;
  LoadKv(&db, "R", 3000, 300);
  ASSERT_TRUE(db.Execute("CREATE INDEX IK ON R (K)").ok());
  ASSERT_TRUE(db.Execute("ANALYZE R").ok());
  auto r = db.Execute("SELECT V FROM R WHERE K = 7 ORDER BY V");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().rows.size(), 10u);  // 3000/300
  for (const Tuple& t : r.ValueOrDie().rows) {
    EXPECT_EQ(t[0].AsInt() % 300, 7);
  }
}

TEST(PlannerTest, ForcedJoinMethodsAgreeOnThreeWayJoin) {
  Engine db;
  LoadKv(&db, "A", 300, 30);
  LoadKv(&db, "B", 200, 30);
  LoadKv(&db, "C", 100, 30);
  ASSERT_TRUE(db.Execute("CREATE INDEX IBK ON B (K)").ok());
  ASSERT_TRUE(db.Execute("CREATE INDEX ICK ON C (K)").ok());
  ASSERT_TRUE(db.Execute("ANALYZE").ok());
  const char* q =
      "SELECT A.V, B.V, C.V FROM A, B, C "
      "WHERE A.K = B.K AND B.K = C.K AND A.V < 50 AND B.V < 40 AND C.V < 30 "
      "AND A.V < B.V "  // cross-table residual: a filter over a merge join
      "ORDER BY A.V, B.V, C.V";
  std::vector<std::vector<Tuple>> results;
  for (auto m : {SessionConfig::JoinMethod::kAuto,
                 SessionConfig::JoinMethod::kHash,
                 SessionConfig::JoinMethod::kMerge,
                 SessionConfig::JoinMethod::kNestedLoop}) {
    db.config().forced_join = m;
    auto r = db.Execute(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    results.push_back(r.ValueOrDie().rows);
  }
  db.config().forced_join = SessionConfig::JoinMethod::kAuto;
  for (size_t i = 1; i < results.size(); ++i) {
    ASSERT_EQ(results[i].size(), results[0].size()) << "method " << i;
    for (size_t j = 0; j < results[i].size(); ++j) {
      for (size_t c = 0; c < results[i][j].size(); ++c) {
        EXPECT_EQ(results[i][j][c].Compare(results[0][j][c]), 0);
      }
    }
  }
  EXPECT_GT(results[0].size(), 0u);
}

TEST(PlannerTest, CrossJoinConjunctPlacement) {
  Engine db;
  LoadKv(&db, "A", 50, 10);
  LoadKv(&db, "B", 40, 10);
  // A non-equi cross conjunct must be evaluated as a join residual.
  auto r = db.Execute(
      "SELECT A.V, B.V FROM A, B WHERE A.K = B.K AND A.V + B.V < 20");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  for (const Tuple& t : r.ValueOrDie().rows) {
    EXPECT_LT(t[0].AsInt() + t[1].AsInt(), 20);
  }
  EXPECT_GT(r.ValueOrDie().rows.size(), 0u);
}

TEST(PlannerTest, PureInequalityJoinFallsBackToNestedLoop) {
  Engine db;
  LoadKv(&db, "A", 60, 6);
  LoadKv(&db, "B", 50, 6);
  auto r = db.Execute("SELECT A.V, B.V FROM A, B WHERE A.V < B.V");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  size_t expected = 0;
  for (int a = 0; a < 60; ++a) {
    for (int b = 0; b < 50; ++b) {
      if (a < b) ++expected;
    }
  }
  EXPECT_EQ(r.ValueOrDie().rows.size(), expected);
}

TEST(PlannerTest, NestedSubqueryChains) {
  Engine db;
  LoadKv(&db, "R", 500, 50);
  auto r = db.Execute(
      "SELECT M FROM "
      "(SELECT K, MAX(V) AS M FROM "
      "  (SELECT K, V FROM R WHERE V >= 100) X "
      " GROUP BY K) Y "
      "WHERE M > 490 ORDER BY M");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Max V per K for V in [100, 500): K = V % 50, so max per K is in
  // [450, 500); those > 490 are 491..499 -> 9 rows.
  EXPECT_EQ(r.ValueOrDie().rows.size(), 9u);
}

TEST(PlannerTest, GroupByQualifiedColumns) {
  Engine db;
  LoadKv(&db, "A", 100, 5);
  LoadKv(&db, "B", 100, 5);
  auto r = db.Execute(
      "SELECT A.K, COUNT(*) AS C FROM A, B WHERE A.K = B.K "
      "GROUP BY A.K ORDER BY A.K");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.ValueOrDie().rows.size(), 5u);
  // 20 rows per key on each side -> 400 join pairs per key.
  EXPECT_EQ(r.ValueOrDie().rows[0][1].AsInt(), 400);
}

TEST(PlannerTest, OrderByDescAndMixedDirections) {
  Engine db;
  LoadKv(&db, "R", 50, 7);
  auto r = db.Execute("SELECT K, V FROM R ORDER BY K DESC, V ASC");
  ASSERT_TRUE(r.ok());
  const auto& rows = r.ValueOrDie().rows;
  for (size_t i = 1; i < rows.size(); ++i) {
    const int c = rows[i - 1][0].Compare(rows[i][0]);
    EXPECT_GE(c, 0);
    if (c == 0) {
      EXPECT_LE(rows[i - 1][1].Compare(rows[i][1]), 0);
    }
  }
}

TEST(PlannerTest, ConstantPredicatePushesAnywhere) {
  Engine db;
  LoadKv(&db, "A", 10, 2);
  LoadKv(&db, "B", 10, 2);
  auto t = db.Execute("SELECT A.V FROM A, B WHERE A.K = B.K AND 1 = 1");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  auto f = db.Execute("SELECT A.V FROM A, B WHERE A.K = B.K AND 1 = 2");
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  EXPECT_GT(t.ValueOrDie().rows.size(), 0u);
  EXPECT_EQ(f.ValueOrDie().rows.size(), 0u);
}

TEST(PlannerTest, EmptyTablesFlowThroughEveryOperator) {
  Engine db;
  ASSERT_TRUE(db.Execute("CREATE TABLE E (K INT, V INT, T INT)").ok());
  LoadKv(&db, "R", 20, 4);
  EXPECT_EQ(db.Execute("SELECT K FROM E").ValueOrDie().rows.size(), 0u);
  EXPECT_EQ(db.Execute("SELECT E.K FROM E, R WHERE E.K = R.K")
                .ValueOrDie()
                .rows.size(),
            0u);
  EXPECT_EQ(db.Execute("SELECT K, COUNT(*) AS C FROM E GROUP BY K")
                .ValueOrDie()
                .rows.size(),
            0u);
  EXPECT_EQ(db.Execute("SELECT DISTINCT K FROM E").ValueOrDie().rows.size(),
            0u);
  EXPECT_EQ(db.Execute("SELECT K FROM E UNION SELECT K FROM E")
                .ValueOrDie()
                .rows.size(),
            0u);
  EXPECT_EQ(db.Execute("SELECT K FROM E ORDER BY K").ValueOrDie().rows.size(),
            0u);
}

TEST(PlannerTest, UnionMixedDistinctAndAll) {
  Engine db;
  ASSERT_TRUE(db.Execute("CREATE TABLE U (X INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO U VALUES (1), (1), (2)").ok());
  // Mixed chain: any non-ALL link dedups the whole chain (documented
  // simplification; our generated SQL never mixes them).
  auto r = db.Execute(
      "SELECT X FROM U UNION ALL SELECT X FROM U UNION SELECT X FROM U");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().rows.size(), 2u);
}

TEST(PlannerTest, GreatestLeastInProjections) {
  Engine db;
  LoadKv(&db, "R", 10, 3);
  auto r = db.Execute(
      "SELECT GREATEST(K, 1) AS G, LEAST(V, 5) AS L FROM R ORDER BY V");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(r.ValueOrDie().rows[0][0].AsInt(), 1);
  EXPECT_LE(r.ValueOrDie().rows[9][1].AsInt(), 5);
}

/// Plans `sql` through Planner::PlanSelect with `db`'s catalog and session
/// settings; null on a planning error.
CursorPtr PlanQuery(Engine* db, const std::string& sql) {
  auto stmt = sql::Parser::Parse(sql);
  EXPECT_TRUE(stmt.ok()) << sql << ": " << stmt.status().ToString();
  if (!stmt.ok()) return nullptr;
  Planner planner(&db->catalog(), &db->config(), ScanCounters{});
  auto plan =
      planner.PlanSelect(*stmt.ValueOrDie().select, OutputColumns::All());
  EXPECT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
  return plan.ok() ? plan.MoveValueOrDie() : nullptr;
}

/// Far above any input here: a drain past it replays rows forever.
constexpr size_t kRunawayRows = 1 << 20;

/// Drains through `NextBatch` with blocks of `capacity` rows, then checks
/// exhaustion sticks.
std::vector<Tuple> DrainBlocks(Cursor* cursor, size_t capacity) {
  std::vector<Tuple> rows;
  EXPECT_TRUE(cursor->Init().ok());
  RowBlock block(capacity);
  Tuple t;
  while (true) {
    auto n = cursor->NextBatch(&block);
    EXPECT_TRUE(n.ok()) << n.status().ToString();
    if (!n.ok() || n.ValueOrDie() == 0) break;
    if (rows.size() > kRunawayRows) {
      ADD_FAILURE() << "drain never reports exhaustion @capacity=" << capacity;
      break;
    }
    for (size_t i = 0; i < n.ValueOrDie(); ++i) {
      block.MoveRowTo(i, &t);
      rows.push_back(std::move(t));
    }
  }
  EXPECT_EQ(cursor->NextBatch(&block).ValueOrDie(), 0u);
  return rows;
}

// Every DBMS plan shape yields the same rows, in the same order, whatever
// the block size: derived tables, UNION and UNION ALL, DISTINCT, GROUP
// BY/HAVING, ORDER BY, and each forced join method (index and block nested
// loop, hash, merge with a residual). One-row blocks are the reference. One
// plan serves every drain, so each re-Init must replay from the start.
TEST(PlannerTest, BlockDrainsAgreeAtEveryCapacity) {
  Engine db;
  LoadKv(&db, "A", 300, 30);
  LoadKv(&db, "B", 200, 30);
  LoadKv(&db, "C", 100, 30);
  ASSERT_TRUE(db.Execute("CREATE INDEX IBK ON B (K)").ok());
  ASSERT_TRUE(db.Execute("ANALYZE").ok());
  const std::string kJoin =
      "SELECT A.V, B.V, Y.V FROM A, B, (SELECT K, V FROM C) Y "
      "WHERE A.K = B.K AND B.K = Y.K AND A.V < B.V AND A.V < 90 "
      "AND B.V < 120";
  const std::string kKeyOnly =
      "SELECT A.V FROM A, B WHERE A.K = B.K AND A.V < 40";
  const std::vector<std::pair<SessionConfig::JoinMethod, std::string>>
      queries = {
          {SessionConfig::JoinMethod::kAuto,
           "SELECT X.K, X.V FROM (SELECT K, V FROM A WHERE V < 200) X "
           "WHERE X.K > 3"},
          {SessionConfig::JoinMethod::kAuto,
           "SELECT K FROM A WHERE V < 50 UNION ALL "
           "SELECT K FROM B WHERE V < 20 UNION ALL SELECT K FROM C"},
          {SessionConfig::JoinMethod::kAuto,
           "SELECT K FROM A UNION SELECT K FROM B"},
          {SessionConfig::JoinMethod::kAuto,
           "SELECT DISTINCT K FROM B WHERE V < 100"},
          {SessionConfig::JoinMethod::kAuto,
           "SELECT K, COUNT(*) AS N, SUM(V) AS S FROM A GROUP BY K "
           "HAVING SUM(V) > 1400"},
          {SessionConfig::JoinMethod::kAuto, "SELECT COUNT(*) AS N FROM A"},
          {SessionConfig::JoinMethod::kAuto,
           "SELECT COUNT(*) AS N FROM A WHERE V < 0"},
          {SessionConfig::JoinMethod::kAuto,
           "SELECT K, V FROM A ORDER BY K DESC, V"},
          {SessionConfig::JoinMethod::kAuto, kJoin},
          {SessionConfig::JoinMethod::kHash, kJoin},
          {SessionConfig::JoinMethod::kMerge, kJoin},
          {SessionConfig::JoinMethod::kNestedLoop, kJoin},
          // Dense rows at their narrowest: a derived table whose every item
          // is pruned (zero-width rows out of the scan and the projection),
          // a join side contributing only its key, and a cross join with a
          // zero-width side.
          {SessionConfig::JoinMethod::kAuto,
           "SELECT COUNT(*) AS N FROM (SELECT K, V FROM A WHERE V < 200) X"},
          {SessionConfig::JoinMethod::kHash, kKeyOnly},
          {SessionConfig::JoinMethod::kMerge, kKeyOnly},
          {SessionConfig::JoinMethod::kNestedLoop, kKeyOnly},
          {SessionConfig::JoinMethod::kAuto,
           "SELECT A.V FROM A, C WHERE A.V < 3"},
      };
  for (const auto& [method, sql] : queries) {
    db.config().forced_join = method;
    CursorPtr plan = PlanQuery(&db, sql);
    ASSERT_NE(plan, nullptr);
    const std::vector<Tuple> expected = DrainBlocks(plan.get(), 1);
    EXPECT_GT(expected.size(), 0u) << sql;
    for (size_t capacity : {size_t{1}, size_t{2}, size_t{7}, size_t{1024}}) {
      const std::vector<Tuple> got = DrainBlocks(plan.get(), capacity);
      ASSERT_EQ(got.size(), expected.size()) << sql << " @" << capacity;
      for (size_t r = 0; r < got.size(); ++r) {
        ASSERT_EQ(got[r].size(), expected[r].size());
        for (size_t c = 0; c < got[r].size(); ++c) {
          EXPECT_EQ(got[r][c].Compare(expected[r][c]), 0)
              << sql << " @" << capacity << " row " << r;
        }
      }
    }
  }
  db.config().forced_join = SessionConfig::JoinMethod::kAuto;
}

/// Plans `sql`'s SELECT for a consumer reading only `mask` of its output.
Result<CursorPtr> PlanForReads(Engine* db, const std::string& sql,
                               std::vector<bool> mask) {
  auto stmt = sql::Parser::Parse(sql);
  if (!stmt.ok()) return stmt.status();
  Planner planner(&db->catalog(), &db->config(), ScanCounters{});
  return planner.PlanSelect(*stmt.ValueOrDie().select,
                            OutputColumns::Only(std::move(mask)));
}

std::vector<std::string> ColumnNames(const Schema& schema) {
  std::vector<std::string> names;
  for (const Column& c : schema.columns()) names.push_back(c.name);
  return names;
}

// A pruned item is dropped: the plan's schema and rows hold exactly the
// kept items, in select-list order.
TEST(PlannerTest, PrunedItemsAreDropped) {
  Engine db;
  LoadKv(&db, "A", 50, 5);
  auto plan = PlanForReads(
      &db, "SELECT K AS P, V AS Q, T AS R, K + V AS S FROM A WHERE V < 10",
      {false, true, false, true});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  CursorPtr cursor = plan.MoveValueOrDie();
  EXPECT_EQ(ColumnNames(cursor->schema()),
            (std::vector<std::string>{"Q", "S"}));
  const std::vector<Tuple> rows = DrainBlocks(cursor.get(), 7);
  ASSERT_EQ(rows.size(), 10u);
  for (const Tuple& t : rows) {
    ASSERT_EQ(t.size(), 2u);
    EXPECT_EQ(t[1].AsInt(), t[0].AsInt() % 5 + t[0].AsInt());
  }

  // ORDER BY keeps the item it names; DISTINCT keeps every item.
  auto ordered = PlanForReads(&db, "SELECT K AS P, V AS Q FROM A ORDER BY P",
                              {false, true});
  ASSERT_TRUE(ordered.ok());
  EXPECT_EQ(ColumnNames(ordered.ValueOrDie()->schema()),
            (std::vector<std::string>{"P", "Q"}));
  auto distinct = PlanForReads(&db, "SELECT DISTINCT K AS P, V AS Q FROM A",
                               {false, true});
  ASSERT_TRUE(distinct.ok());
  EXPECT_EQ(ColumnNames(distinct.ValueOrDie()->schema()),
            (std::vector<std::string>{"P", "Q"}));
}

// Dropping an item does not skip its binding: a bad reference still fails,
// planned directly and as a derived table whose consumer never reads it.
TEST(PlannerTest, PrunedItemWithBadReferenceStillFails) {
  Engine db;
  LoadKv(&db, "A", 10, 5);
  auto plan =
      PlanForReads(&db, "SELECT K AS P, NOPE AS Q FROM A", {true, false});
  EXPECT_FALSE(plan.ok());
  auto qualified =
      PlanForReads(&db, "SELECT K AS P, Z.V AS Q FROM A", {true, false});
  EXPECT_FALSE(qualified.ok());
  EXPECT_FALSE(
      db.Execute("SELECT X.P FROM (SELECT K AS P, NOPE AS Q FROM A) X").ok());
  EXPECT_TRUE(
      db.Execute("SELECT X.P FROM (SELECT K AS P, V AS Q FROM A) X").ok());
}

// ---------------------------------------------------------------------------
// Required-column pruning. Every case runs against a C++ oracle computed
// from the same generated rows, under both access paths.

using Rows = std::vector<Tuple>;

enum PosCol : size_t {
  kPosId, kEmpId, kEmpName, kPayRate, kDept, kStatus, kT1, kT2
};

const char* const kPosNames[] = {"POSID", "EMPID", "EMPNAME", "PAYRATE",
                                 "DEPT",  "STATUS", "T1",     "T2"};

Value I(int64_t v) { return Value(v); }

// SQL comparisons: a NULL operand is never true.
bool IntLt(const Value& v, int64_t x) { return !v.is_null() && v.AsInt() < x; }
bool IntGt(const Value& v, int64_t x) { return !v.is_null() && v.AsInt() > x; }
bool IntEq(const Value& v, int64_t x) { return !v.is_null() && v.AsInt() == x; }

/// The middleware's Figure-5 shape: a derived-table body re-selecting all
/// eight POSITION columns of `source` under range variable `alias`.
std::string AllColumnsOf(const std::string& source, const std::string& alias,
                         const std::string& where) {
  std::string sql = "SELECT ";
  for (size_t c = 0; c < 8; ++c) {
    if (c > 0) sql += ", ";
    sql += alias + "." + kPosNames[c] + " AS " + kPosNames[c];
  }
  sql += " FROM " + source + " " + alias;
  if (!where.empty()) sql += " WHERE " + where;
  return sql;
}

Rows Where(const Rows& in, const std::function<bool(const Tuple&)>& keep) {
  Rows out;
  for (const Tuple& t : in) {
    if (keep(t)) out.push_back(t);
  }
  return out;
}

Rows Project(const Rows& in, const std::vector<size_t>& cols) {
  Rows out;
  for (const Tuple& t : in) {
    Tuple p;
    for (size_t c : cols) p.push_back(t[c]);
    out.push_back(std::move(p));
  }
  return out;
}

std::string RowKey(const Tuple& t) {
  std::string key;
  for (const Value& v : t) {
    key += v.is_null() ? "N" : v.is_int() ? "I" : v.is_double() ? "D" : "S";
    key += v.ToString();
    key += '\x1f';
  }
  return key;
}

std::vector<std::string> Keys(const Rows& rows, bool ordered) {
  std::vector<std::string> keys;
  for (const Tuple& t : rows) keys.push_back(RowKey(t));
  if (!ordered) std::sort(keys.begin(), keys.end());
  return keys;
}

Rows Distinct(const Rows& in) {
  std::map<std::string, Tuple> seen;
  for (const Tuple& t : in) seen.emplace(RowKey(t), t);
  Rows out;
  for (auto& [key, t] : seen) out.push_back(t);
  return out;
}

/// POSITION as generated, plus NULLs, a tombstone (an insert rolled back)
/// and rows rewritten by temporal UPDATEs — loaded into `db` and mirrored
/// in `rows`, the oracle's copy.
void LoadPositionMirror(Engine* db, Rows* rows) {
  ASSERT_TRUE(
      db->Execute("CREATE TABLE POSITION " + workload::PositionDdlColumns())
          .ok());
  *rows = workload::GeneratePositionRows(1200, 17);
  ASSERT_TRUE(db->BulkLoad("POSITION", *rows).ok());
  ASSERT_TRUE(db->Execute("CREATE INDEX IX_POSID ON POSITION (PosID)").ok());
  ASSERT_TRUE(db->Execute("CREATE INDEX IX_T1 ON POSITION (T1)").ok());

  ASSERT_TRUE(db->Execute("INSERT INTO POSITION VALUES "
                          "(7, NULL, NULL, NULL, 3, 'ACTIVE', 3000, 9000), "
                          "(7, 5, 'EMP5', 12.5, NULL, NULL, 3500, 11000)")
                  .ok());
  rows->push_back({I(7), Value(), Value(), Value(), I(3), Value("ACTIVE"),
                   I(3000), I(9000)});
  rows->push_back({I(7), I(5), Value("EMP5"), Value(12.5), Value(), Value(),
                   I(3500), I(11000)});

  // Rolled back: the row stays in the heap as a tombstone.
  const uint64_t session = 42;
  ASSERT_TRUE(db->Execute("BEGIN", session).ok());
  ASSERT_TRUE(db->Execute("INSERT INTO POSITION VALUES "
                          "(7, 1, 'GHOST', 99.0, 3, 'ACTIVE', 3000, 99999)",
                          session)
                  .ok());
  ASSERT_TRUE(db->Execute("ROLLBACK", session).ok());

  // Temporal updates: close position 7's current versions (in place), then
  // grow their STATUS (the rewrite relocates the slot's bytes).
  const int64_t close = date::Jan1(1996);
  const std::string c = std::to_string(close);
  ASSERT_TRUE(db->Execute("UPDATE POSITION SET T2 = " + c +
                          " WHERE PosID = 7 AND T2 > " + c)
                  .ok());
  ASSERT_TRUE(db->Execute("UPDATE POSITION SET STATUS = 'TERMINATED' "
                          "WHERE PosID = 7 AND T2 = " + c)
                  .ok());
  for (Tuple& t : *rows) {
    if (IntEq(t[kPosId], 7) && IntGt(t[kT2], close)) t[kT2] = I(close);
    if (IntEq(t[kPosId], 7) && IntEq(t[kT2], close)) {
      t[kStatus] = Value("TERMINATED");
    }
  }
  ASSERT_TRUE(db->Execute("ANALYZE POSITION").ok());
}

TEST(ColumnPruningTest, DerivedTablesMatchTheOracleUnderBothAccessPaths) {
  obs::MetricsRegistry metrics;
  EngineOptions options;
  options.metrics = &metrics;
  Engine db(options);
  Rows rows;
  LoadPositionMirror(&db, &rows);

  const int64_t d1 = date::Jan1(1985), d2 = date::Jan1(1990),
                d3 = date::Jan1(1997);
  const std::string s1 = std::to_string(d1), s2 = std::to_string(d2),
                    s3 = std::to_string(d3);
  const auto t1_lt = [](int64_t d) {
    return [d](const Tuple& t) { return IntLt(t[kT1], d); };
  };

  struct Case {
    std::string name;
    std::string sql;
    Rows expected;
    bool ordered = false;
  };
  std::vector<Case> cases;

  // The churn timeslice as the middleware sends it.
  cases.push_back(
      {"timeslice",
       "SELECT S2.POSID AS POSID, S2.EMPNAME AS EMPNAME, S2.T1 AS T1, "
       "S2.T2 AS T2 FROM (" +
           AllColumnsOf("POSITION", "S1",
                        "(((S1.POSID = 7) AND (S1.T1 <= " + s2 +
                            ")) AND (S1.T2 > " + s2 + "))") +
           ") S2",
       Project(Where(rows,
                     [&](const Tuple& t) {
                       return IntEq(t[kPosId], 7) && !IntGt(t[kT1], d2) &&
                              IntGt(t[kT2], d2);
                     }),
               {kPosId, kEmpName, kT1, kT2})});

  // Three nested derived tables; the outer reads one column and filters
  // on columns the middle level reads.
  cases.push_back(
      {"nested subset",
       "SELECT S3.EMPNAME FROM (" +
           AllColumnsOf("(" +
                            AllColumnsOf("POSITION", "S1",
                                         "S1.T1 < " + s2) +
                            ")",
                        "S2", "S2.PAYRATE > 10") +
           ") S3 WHERE S3.DEPT < 20",
       Project(Where(rows,
                     [&](const Tuple& t) {
                       return IntLt(t[kT1], d2) && !t[kPayRate].is_null() &&
                              t[kPayRate].AsDouble() > 10 &&
                              IntLt(t[kDept], 20);
                     }),
               {kEmpName})});

  cases.push_back(
      {"NULLs through a pruned level",
       "SELECT S.EMPNAME, S.PAYRATE, S.DEPT FROM (" +
           AllColumnsOf("POSITION", "S1", "S1.POSID = 7") + ") S",
       Project(Where(rows, [](const Tuple& t) { return IntEq(t[kPosId], 7); }),
               {kEmpName, kPayRate, kDept})});

  cases.push_back(
      {"distinct derived table",
       "SELECT D.DEPT FROM (SELECT DISTINCT DEPT, STATUS FROM POSITION "
       "WHERE T1 < " + s2 + ") D",
       Project(Distinct(Project(Where(rows, t1_lt(d2)), {kDept, kStatus})),
               {0})});

  const Rows union_rows = [&] {
    Rows u = Project(Where(rows, t1_lt(d1)), {kPosId, kDept});
    const Rows late = Project(
        Where(rows, [&](const Tuple& t) { return IntGt(t[kT2], d3); }),
        {kPosId, kDept});
    u.insert(u.end(), late.begin(), late.end());
    return u;
  }();
  const std::string arms = "SELECT POSID AS A, DEPT AS B FROM POSITION "
                           "WHERE T1 < " + s1 + " UNION%s SELECT POSID AS A, "
                           "DEPT AS B FROM POSITION WHERE T2 > " + s3;
  auto union_sql = [&](const char* all) {
    std::string arm = arms;
    arm.replace(arm.find("%s"), 2, all);
    return "SELECT U.A FROM (" + arm + ") U";
  };
  cases.push_back({"union", union_sql(""),
                   Project(Distinct(union_rows), {0})});
  cases.push_back({"union all", union_sql(" ALL"), Project(union_rows, {0})});

  const Rows grouped = [&] {
    std::map<int64_t, int64_t> counts;
    for (const Tuple& t : Where(rows, t1_lt(d2))) ++counts[t[kPosId].AsInt()];
    Rows out;
    for (const auto& [pos, n] : counts) {
      if (n > 2) out.push_back({I(pos), I(n)});
    }
    return out;
  }();
  cases.push_back(
      {"group by + having",
       "SELECT G.P, G.N FROM (SELECT POSID AS P, COUNT(*) AS N, MAX(T2) AS M, "
       "MIN(EMPNAME) AS E FROM POSITION WHERE T1 < " + s2 +
           " GROUP BY POSID HAVING COUNT(*) > 2) G",
       grouped});
  cases.push_back(
      {"count(*) over a derived table",
       "SELECT COUNT(*) AS N FROM (" +
           AllColumnsOf("POSITION", "S1", "S1.T1 < " + s2) + ") S",
       {{I(static_cast<int64_t>(Where(rows, t1_lt(d2)).size()))}}});

  {
    Rows seven =
        Where(rows, [](const Tuple& t) { return IntEq(t[kPosId], 7); });
    std::stable_sort(seven.begin(), seven.end(),
                     [](const Tuple& a, const Tuple& b) {
                       for (size_t c : {kT1, kT2, kEmpName}) {
                         const int cmp = a[c].Compare(b[c]);
                         if (cmp != 0) return cmp < 0;
                       }
                       return false;
                     });
    cases.push_back(
        {"order by non-projected columns",
         "SELECT S.EMPNAME FROM (" +
             AllColumnsOf("POSITION", "S1", "S1.POSID = 7") +
             ") S ORDER BY S.T1, S.T2, S.EMPNAME",
         Project(seven, {kEmpName}), /*ordered=*/true});
  }
  {
    // The outer level does not read Q, but the inner ORDER BY does: the
    // derived table's order (which the projection above preserves) must
    // still follow it.
    Rows early = Where(rows, t1_lt(d1));
    std::stable_sort(early.begin(), early.end(),
                     [](const Tuple& a, const Tuple& b) {
                       for (size_t c : {kT1, kPosId}) {
                         const int cmp = a[c].Compare(b[c]);
                         if (cmp != 0) return cmp < 0;
                       }
                       return false;
                     });
    cases.push_back(
        {"inner order by keeps its key",
         "SELECT O.P FROM (SELECT POSID AS P, T1 AS Q, EMPNAME AS R FROM "
         "POSITION WHERE T1 < " + s1 + " ORDER BY Q, P) O",
         Project(early, {kPosId}), /*ordered=*/true});
  }

  cases.push_back(
      {"star",
       "SELECT * FROM (SELECT POSID, EMPNAME, T2 FROM POSITION WHERE T1 < " +
           s1 + ") S",
       Project(Where(rows, t1_lt(d1)), {kPosId, kEmpName, kT2})});
  cases.push_back(
      {"star over a pruned level",
       "SELECT X.T1 FROM (SELECT * FROM POSITION WHERE POSID = 7) X",
       Project(Where(rows, [](const Tuple& t) { return IntEq(t[kPosId], 7); }),
               {kT1})});

  // Two FROM items: S.* keeps all of S; unqualified names resolve in the
  // one item that has them.
  const auto early = [&](const Tuple& t) { return IntLt(t[kT1], d1); };
  const auto late_low = [&](const Tuple& t) {
    return IntGt(t[kT2], d3) && IntLt(t[kDept], 10);
  };
  Rows joined, unqualified;
  for (const Tuple& a : Where(rows, early)) {
    for (const Tuple& b : Where(rows, late_low)) {
      if (a[kPosId].Compare(b[kPosId]) != 0) continue;
      joined.push_back({a[kPosId], a[kEmpName], b[kDept]});
      unqualified.push_back({a[kEmpName], b[kDept]});
    }
  }
  const std::string left = "(SELECT POSID, EMPNAME, STATUS AS SA FROM "
                           "POSITION WHERE T1 < " + s1 + ")";
  const std::string right = "(SELECT POSID AS Q, DEPT, T2 FROM POSITION "
                            "WHERE T2 > " + s3 + " AND DEPT < 10)";
  cases.push_back({"qualified star in a join",
                   "SELECT S.POSID, S.EMPNAME, R.DEPT FROM (SELECT S.* FROM " +
                       left + " S) S, " + right + " R WHERE S.POSID = R.Q",
                   joined});
  cases.push_back({"unqualified references, two FROM items",
                   "SELECT EMPNAME, DEPT FROM " + left + " A, " + right +
                       " B WHERE POSID = Q",
                   unqualified});
  ASSERT_GT(joined.size(), 0u);
  ASSERT_LT(joined.size(), 5000u);

  for (const Case& c : cases) ASSERT_FALSE(c.expected.empty()) << c.name;

  uint64_t examined[2] = {0, 0};
  for (int path = 0; path < 2; ++path) {
    // 0 never picks an index; 2 picks one for every indexable conjunct.
    db.config().index_scan_threshold = path == 0 ? 0.0 : 2.0;
    const uint64_t before = metrics.counter("dbms.scan.rows_examined").load();
    for (const Case& c : cases) {
      const std::string label =
          c.name + (path == 0 ? " [table scan]" : " [index scan]");
      auto r = db.Execute(c.sql);
      ASSERT_TRUE(r.ok()) << label << ": " << r.status().ToString();
      EXPECT_EQ(Keys(r.ValueOrDie().rows, c.ordered),
                Keys(c.expected, c.ordered))
          << label;
    }
    examined[path] = metrics.counter("dbms.scan.rows_examined").load() - before;
  }
  // The forced index path really was taken: it examines fewer stored rows.
  EXPECT_LT(examined[1], examined[0]);
}

TEST(ColumnPruningTest, ScanCountersShowTheTimesliceDecodesFewValues) {
  obs::MetricsRegistry metrics;
  EngineOptions options;
  options.metrics = &metrics;
  Engine db(options);
  ASSERT_TRUE(
      db.Execute("CREATE TABLE POSITION " + workload::PositionDdlColumns())
          .ok());
  const size_t n = 2000;
  ASSERT_TRUE(
      db.BulkLoad("POSITION", workload::GeneratePositionRows(n, 23)).ok());
  const obs::Counter& examined = metrics.counter("dbms.scan.rows_examined");
  const obs::Counter& decoded = metrics.counter("dbms.scan.values_decoded");

  const std::string d = std::to_string(date::Jan1(1990));
  auto slice = db.Execute(
      "SELECT S2.POSID AS POSID, S2.EMPNAME AS EMPNAME, S2.T1 AS T1, "
      "S2.T2 AS T2 FROM (" +
      AllColumnsOf("POSITION", "S1",
                   "(((S1.POSID = 7) AND (S1.T1 <= " + d + ")) AND (S1.T2 > " +
                       d + "))") +
      ") S2");
  ASSERT_TRUE(slice.ok()) << slice.status().ToString();
  EXPECT_EQ(examined.load(), n);
  EXPECT_GE(decoded.load(), n);  // PosID, for every row
  EXPECT_LT(decoded.load(), 2 * examined.load());

  const uint64_t examined0 = examined.load(), decoded0 = decoded.load();
  auto all = db.Execute("SELECT * FROM POSITION");
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all.ValueOrDie().rows.size(), n);
  EXPECT_EQ(examined.load() - examined0, n);
  EXPECT_EQ(decoded.load() - decoded0, n * 8);
}

// A statement decodes only the columns some operator reads: COUNT(*) none,
// a join side its key alone — through a scan or an index nested-loop
// join's inner seek alike.
TEST(ColumnPruningTest, CountStarAndKeyOnlyJoinSidesDecodeOnlyWhatIsRead) {
  obs::MetricsRegistry metrics;
  EngineOptions options;
  options.metrics = &metrics;
  Engine db(options);
  LoadKv(&db, "A", 300, 30);
  LoadKv(&db, "B", 200, 30);
  ASSERT_TRUE(db.Execute("CREATE INDEX IBK ON B (K)").ok());
  const obs::Counter& examined = metrics.counter("dbms.scan.rows_examined");
  const obs::Counter& decoded = metrics.counter("dbms.scan.values_decoded");

  auto count = db.Execute("SELECT COUNT(*) AS N FROM A");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count.ValueOrDie().rows[0][0].AsInt(), 300);
  EXPECT_EQ(examined.load(), 300u);
  EXPECT_EQ(decoded.load(), 0u);

  // Every A row matches 200 / 30 = 6 or 7 B rows: 2000 joined rows.
  const std::string join = "SELECT A.V FROM A, B WHERE A.K = B.K";
  for (SessionConfig::JoinMethod method :
       {SessionConfig::JoinMethod::kHash, SessionConfig::JoinMethod::kMerge,
        SessionConfig::JoinMethod::kNestedLoop}) {
    db.config().forced_join = method;
    const uint64_t examined0 = examined.load(), decoded0 = decoded.load();
    auto r = db.Execute(join);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.ValueOrDie().rows.size(), 2000u);
    // A: K and V per row. B: K per row scanned, or per row a seek returns
    // (every B row ten times, once per A row with its key).
    const uint64_t b_rows =
        method == SessionConfig::JoinMethod::kNestedLoop ? 2000u : 200u;
    EXPECT_EQ(examined.load() - examined0, 300u + b_rows);
    EXPECT_EQ(decoded.load() - decoded0, 2u * 300u + b_rows);
  }
  db.config().forced_join = SessionConfig::JoinMethod::kAuto;
}

}  // namespace
}  // namespace dbms
}  // namespace tango
