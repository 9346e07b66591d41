#ifndef TANGO_DBMS_PLANNER_H_
#define TANGO_DBMS_PLANNER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/cursor.h"
#include "dbms/catalog.h"
#include "dbms/exec_ops.h"
#include "sql/ast.h"

namespace tango {
namespace dbms {

/// Session-level execution settings. `forced_join` stands in for the Oracle
/// optimizer hints the paper uses in Query 4 to pin the DBMS join method.
struct SessionConfig {
  enum class JoinMethod { kAuto, kNestedLoop, kMerge, kHash };
  JoinMethod forced_join = JoinMethod::kAuto;

  /// Selectivity threshold below which an available index is preferred over
  /// a full scan.
  double index_scan_threshold = 0.25;
};

/// The output columns of a SELECT that its consumer reads, by position.
struct OutputColumns {
  /// Every column: the outermost statement and CREATE TABLE … AS.
  static OutputColumns All() { return {}; }
  static OutputColumns Only(std::vector<bool> mask) {
    return {false, std::move(mask)};
  }
  bool Reads(size_t i) const { return all || (i < mask.size() && mask[i]); }

  bool all = true;
  std::vector<bool> mask;  // when !all: bit i = output column i is read
};

/// \brief Rudimentary cost-based planner for the mini-DBMS.
///
/// The middleware deliberately treats this engine as a black box (the paper:
/// "the middleware does not know which join algorithm the DBMS will use");
/// this planner is that hidden machinery: selection pushdown, index
/// selection by estimated selectivity, left-deep join trees with hash /
/// sort-merge / index-nested-loop joins, sort-based grouping and duplicate
/// elimination (filter, project, sort, dup-elim and merge join are the
/// `src/exec` operators the middleware runs, so both sites share that
/// code) — and the view merging a real DBMS does behind the black
/// box: only the columns a statement references are carried through its
/// derived tables and decoded by the base-table scans (DESIGN.md §15).
class Planner {
 public:
  Planner(Catalog* catalog, const SessionConfig* config,
          ScanCounters scan_counters)
      : catalog_(catalog), config_(config), scan_counters_(scan_counters) {}

  /// Plans a (possibly UNION-chained) SELECT into an executable cursor.
  /// Output columns outside `reads` may be dropped: the plan's schema then
  /// holds only the columns it produces, and consumers bind by name.
  Result<CursorPtr> PlanSelect(const sql::SelectStmt& stmt,
                               const OutputColumns& reads);

 private:
  Result<CursorPtr> PlanArm(const sql::SelectStmt& stmt,
                            const OutputColumns& reads);
  /// Output schema of each FROM entry, qualified by its range variable.
  Result<std::vector<Schema>> RefSchemas(const sql::SelectStmt& stmt);
  Result<CursorPtr> PlanTableRef(const sql::TableRef& ref,
                                 std::vector<ExprPtr> pushed,
                                 std::vector<bool> reads);
  Result<CursorPtr> PlanBaseTable(const Table* table, const std::string& alias,
                                  std::vector<ExprPtr> pushed,
                                  std::vector<bool> reads);
  /// The scan of `table` under range variable `alias` that reads `reads`
  /// and checks the `pushed` conjuncts (bound here).
  Result<ScanSpec> MakeScanSpec(const Table* table, const std::string& alias,
                                std::vector<ExprPtr> pushed,
                                std::vector<bool> reads) const;
  Result<CursorPtr> PlanJoins(const sql::SelectStmt& stmt,
                              const std::vector<Schema>& ref_schemas,
                              std::vector<std::vector<bool>> ref_reads,
                              std::vector<ExprPtr>* residuals);
  Result<CursorPtr> PlanAggregation(const sql::SelectStmt& stmt,
                                    CursorPtr input,
                                    std::vector<ExprPtr>* select_exprs,
                                    Schema* out_schema);
  Result<CursorPtr> ApplyOrderBy(const sql::SelectStmt& stmt, CursorPtr input);

  /// Estimated fraction of `table` rows satisfying `col op literal`.
  double EstimateColumnSelectivity(const Table* table, size_t column,
                                   BinaryOp op, const Value& literal) const;

  Catalog* catalog_;
  const SessionConfig* config_;
  ScanCounters scan_counters_;
};

}  // namespace dbms
}  // namespace tango

#endif  // TANGO_DBMS_PLANNER_H_
