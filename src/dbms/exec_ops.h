#ifndef TANGO_DBMS_EXEC_OPS_H_
#define TANGO_DBMS_EXEC_OPS_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cursor.h"
#include "dbms/catalog.h"
#include "expr/expr.h"
#include "obs/metrics.h"

namespace tango {
namespace dbms {

/// Aggregate specification used by the group-aggregate operator.
struct AggSpec {
  AggFunc func = AggFunc::kCount;
  ExprPtr arg;        // bound against the child schema; null for COUNT(*)
  std::string name;   // output column name
};

/// Where the base-table scans report what they read; either may be null.
/// A scan accumulates locally and adds once, when it is exhausted or
/// destroyed — never per row.
struct ScanCounters {
  obs::Counter* rows_examined = nullptr;   // candidate rows looked at
  obs::Counter* values_decoded = nullptr;  // column values materialized
};

/// \brief What a base-table scan reads.
struct ScanSpec {
  const Table* table = nullptr;
  /// Range variable re-qualifying the output schema (empty keeps the
  /// table's own qualifiers).
  std::string alias;
  /// Referenced-column mask, one bit per table column. The scan's schema
  /// and rows hold exactly these columns, in table order; the others are
  /// never decoded and never emitted.
  std::vector<bool> columns;
  /// Pushed single-table conjuncts, bound against the table's full schema
  /// (re-qualified by `alias`). Only rows satisfying all of them are
  /// produced; they may read columns outside `columns`.
  std::vector<ExprPtr> conjuncts;
  ScanCounters counters;
};

/// \brief Shared body of the table and index scans: pulls candidate rids
/// from the access path and decodes each stored row conjunct by conjunct.
///
/// Each pushed conjunct is checked right after decoding only the columns it
/// is first to need; the remaining masked columns are decoded only for rows
/// that pass every conjunct. Emitted rows are dense: only the masked
/// columns. A scan that reads no column emits zero-width rows (the block
/// counts them) and decodes nothing. "All columns, no predicate" is the
/// degenerate spec, not a second path.
class StoredRowScan : public Cursor {
 public:
  ~StoredRowScan() override { FlushCounters(); }

  /// Fills the block straight from the access path: one virtual cursor
  /// call per block instead of one per stored row.
  Result<size_t> NextBatch(RowBlock* block) override;
  const Schema& schema() const override { return schema_; }

 protected:
  explicit StoredRowScan(ScanSpec spec);

  /// Next candidate row of the access path; false at its end.
  virtual bool NextRid(storage::Rid* rid) = 0;

  const Table* table() const { return table_; }

 private:
  // One decode pass: the columns first needed by `conjunct` (or, for the
  // last step, the masked columns no conjunct needed), then the check.
  struct Step {
    std::vector<bool> columns;
    uint64_t decodes = 0;  // set bits in `columns`
    ExprPtr conjunct;      // null for the final step
  };

  /// Decodes the next qualifying row into `row_`; false when exhausted.
  Result<bool> Advance();
  void FlushCounters();

  const Table* table_;
  Schema schema_;
  std::vector<size_t> out_columns_;  // table column of each output column
  std::vector<Step> steps_;
  ScanCounters counters_;
  uint64_t rows_examined_ = 0;
  uint64_t values_decoded_ = 0;
  Tuple row_;  // reused full-width decode target
};

/// \brief Full scan of a stored table.
class TableScanOp : public StoredRowScan {
 public:
  explicit TableScanOp(ScanSpec spec) : StoredRowScan(std::move(spec)) {}

  Status Init() override;

 protected:
  bool NextRid(storage::Rid* rid) override { return it_->NextSlot(rid); }

 private:
  std::optional<storage::HeapFile::Iterator> it_;
};

/// \brief Range scan via a B+-tree index: key in [lo, hi] with optional
/// open bounds on either side. The heap fetch by rid decodes through the
/// same mask and conjuncts as a table scan.
class IndexScanOp : public StoredRowScan {
 public:
  IndexScanOp(ScanSpec spec, size_t column, std::optional<Value> lo,
              bool lo_inclusive, std::optional<Value> hi, bool hi_inclusive);

  Status Init() override;
  /// Restarts the scan on the equality range [key, key]: the inner side of
  /// an index nested-loop join, re-targeted once per outer row.
  Status Seek(const Value& key);

 protected:
  bool NextRid(storage::Rid* rid) override;

 private:
  size_t column_;
  std::optional<Value> lo_, hi_;
  bool lo_inclusive_, hi_inclusive_;
  std::optional<storage::BPlusTree::Iterator> it_;
};

/// \brief Concatenation of children (UNION ALL); schemas must be
/// union-compatible (first child's schema wins).
class UnionAllOp : public Cursor {
 public:
  explicit UnionAllOp(std::vector<CursorPtr> children)
      : children_(std::move(children)) {}

  Status Init() override;
  /// Hands each arm's blocks through unchanged, arm after arm.
  Result<size_t> NextBatch(RowBlock* block) override;
  const Schema& schema() const override { return children_.front()->schema(); }

 private:
  std::vector<CursorPtr> children_;
  size_t current_ = 0;
};

// The joins and the group-aggregate below keep their row-at-a-time logic
// in a private row step that FillBlock turns into NextBatch, and read their
// children through a BatchedReader, like the middleware's merge join: one
// virtual call per block, not per row.

/// \brief Hash join (build = left, probe = right) on equi-keys with an
/// optional residual predicate. Output order: left columns then right.
class HashJoinOp : public Cursor {
 public:
  HashJoinOp(CursorPtr left, CursorPtr right, std::vector<size_t> left_keys,
             std::vector<size_t> right_keys, ExprPtr residual);

  Status Init() override;
  Result<size_t> NextBatch(RowBlock* block) override {
    return FillBlock(block, [this](Tuple* t) { return NextRow(t); });
  }
  const Schema& schema() const override { return schema_; }

 private:
  Result<bool> NextRow(Tuple* tuple);

  CursorPtr left_, right_;
  BatchedReader left_reader_, right_reader_;
  std::vector<size_t> left_keys_, right_keys_;
  ExprPtr residual_;
  Schema schema_;

  struct KeyHash {
    size_t operator()(const std::vector<Value>& k) const {
      size_t h = 0;
      for (const Value& v : k) h = h * 1315423911u + v.Hash();
      return h;
    }
  };
  struct KeyEq {
    bool operator()(const std::vector<Value>& a,
                    const std::vector<Value>& b) const {
      if (a.size() != b.size()) return false;
      for (size_t i = 0; i < a.size(); ++i) {
        // NULL keys never join; treat them as equal only to keep the map
        // well-formed (NULL rows are filtered out before insertion).
        if (a[i].Compare(b[i]) != 0) return false;
      }
      return true;
    }
  };
  std::unordered_map<std::vector<Value>, std::vector<Tuple>, KeyHash, KeyEq>
      hash_table_;

  std::vector<Value> probe_key_;  // reused across probe rows
  Tuple probe_row_;
  const std::vector<Tuple>* match_bucket_ = nullptr;
  size_t match_pos_ = 0;
};

/// \brief Block nested-loop join with an arbitrary predicate; the right
/// input is materialized in Init.
class NestedLoopJoinOp : public Cursor {
 public:
  NestedLoopJoinOp(CursorPtr left, CursorPtr right, ExprPtr predicate);

  Status Init() override;
  Result<size_t> NextBatch(RowBlock* block) override {
    return FillBlock(block, [this](Tuple* t) { return NextRow(t); });
  }
  const Schema& schema() const override { return schema_; }

 private:
  Result<bool> NextRow(Tuple* tuple);

  CursorPtr left_, right_;
  BatchedReader left_reader_;
  ExprPtr predicate_;
  Schema schema_;
  std::vector<Tuple> inner_;
  Tuple outer_row_;
  bool outer_valid_ = false;
  size_t inner_pos_ = 0;
};

/// \brief Index nested-loop equi-join: for each outer tuple, seeks the
/// inner index scan to the outer key. This is the plan Oracle's nested-loop
/// hint produces in Query 4. The inner rows come out of the scan dense, with
/// its pushed conjuncts already checked.
class IndexNestedLoopJoinOp : public Cursor {
 public:
  /// `outer_key` is a bound column index into the outer schema; the inner
  /// side appears on the right of the output schema, and `residual` is
  /// bound against that output schema.
  IndexNestedLoopJoinOp(CursorPtr outer, std::unique_ptr<IndexScanOp> inner,
                        size_t outer_key, ExprPtr residual);

  Status Init() override;
  Result<size_t> NextBatch(RowBlock* block) override {
    return FillBlock(block, [this](Tuple* t) { return NextRow(t); });
  }
  const Schema& schema() const override { return schema_; }

 private:
  Result<bool> NextRow(Tuple* tuple);

  CursorPtr outer_;
  BatchedReader outer_reader_;
  std::unique_ptr<IndexScanOp> inner_;
  size_t outer_key_;
  ExprPtr residual_;
  Schema schema_;

  Tuple outer_row_;
  bool probing_ = false;  // `inner_` is seeked to outer_row_'s key
  RowBlock inner_block_;
  size_t inner_pos_ = 0;
};

/// \brief Sort-based group aggregation; the input must arrive sorted on the
/// group columns. With no group columns, produces one row for the whole
/// input (and one row even for empty input, per SQL semantics).
class GroupAggOp : public Cursor {
 public:
  GroupAggOp(CursorPtr child, std::vector<size_t> group_cols,
             std::vector<AggSpec> aggs);

  Status Init() override;
  Result<size_t> NextBatch(RowBlock* block) override {
    return FillBlock(block, [this](Tuple* t) { return NextRow(t); });
  }
  const Schema& schema() const override { return schema_; }

 private:
  Result<bool> NextRow(Tuple* tuple);

  // Running state for one aggregate within the current group.
  struct AggState {
    double sum = 0;
    int64_t count = 0;
    bool sum_is_int = true;
    Value min, max;
    bool any = false;
  };

  void Accumulate(const Tuple& row);
  Tuple EmitGroup();

  CursorPtr child_;
  BatchedReader reader_;
  std::vector<size_t> group_cols_;
  std::vector<AggSpec> aggs_;
  Schema schema_;

  Tuple group_key_row_;     // representative row of the open group
  bool group_open_ = false;
  std::vector<AggState> states_;
  bool input_done_ = false;
};

}  // namespace dbms
}  // namespace tango

#endif  // TANGO_DBMS_EXEC_OPS_H_
