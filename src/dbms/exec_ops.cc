#include "dbms/exec_ops.h"

namespace tango {
namespace dbms {

// ------------------------------------------------------------ StoredRowScan

namespace {

void MarkBoundColumns(const Expr& e, std::vector<bool>* columns) {
  if (e.kind == Expr::Kind::kColumn && e.index >= 0 &&
      static_cast<size_t>(e.index) < columns->size()) {
    (*columns)[static_cast<size_t>(e.index)] = true;
  }
  for (const ExprPtr& c : e.children) MarkBoundColumns(*c, columns);
}

}  // namespace

StoredRowScan::StoredRowScan(ScanSpec spec)
    : table_(spec.table), counters_(spec.counters) {
  const Schema& full = spec.alias.empty()
                           ? table_->schema()
                           : table_->schema().WithQualifier(spec.alias);
  const size_t arity = full.num_columns();
  for (size_t c = 0; c < arity && c < spec.columns.size(); ++c) {
    if (!spec.columns[c]) continue;
    out_columns_.push_back(c);
    schema_.AddColumn(full.column(c));
  }
  std::vector<bool> decoded(arity, false);
  // Moves the not-yet-decoded columns of `wanted` into a new step.
  auto add_step = [&](const std::vector<bool>& wanted, ExprPtr conjunct) {
    Step step;
    step.columns.assign(arity, false);
    for (size_t c = 0; c < arity; ++c) {
      if (c < wanted.size() && wanted[c] && !decoded[c]) {
        step.columns[c] = decoded[c] = true;
        ++step.decodes;
      }
    }
    step.conjunct = std::move(conjunct);
    steps_.push_back(std::move(step));
  };
  for (ExprPtr& conjunct : spec.conjuncts) {
    std::vector<bool> reads(arity, false);
    MarkBoundColumns(*conjunct, &reads);
    add_step(reads, std::move(conjunct));
  }
  add_step(spec.columns, nullptr);
  // A final pass with nothing left to decode is dropped.
  if (steps_.back().decodes == 0) steps_.pop_back();
}

void StoredRowScan::FlushCounters() {
  if (counters_.rows_examined != nullptr && rows_examined_ > 0) {
    counters_.rows_examined->Increment(rows_examined_);
  }
  if (counters_.values_decoded != nullptr && values_decoded_ > 0) {
    counters_.values_decoded->Increment(values_decoded_);
  }
  rows_examined_ = 0;
  values_decoded_ = 0;
}

Result<bool> StoredRowScan::Advance() {
  const storage::HeapFile& file = table_->file();
  storage::Rid rid;
  while (NextRid(&rid)) {
    ++rows_examined_;
    bool pass = true;
    for (const Step& step : steps_) {
      if (step.decodes > 0) {
        TANGO_RETURN_IF_ERROR(file.ReadColumns(rid, step.columns, &row_));
        values_decoded_ += step.decodes;
      }
      if (step.conjunct != nullptr && !EvalPredicate(*step.conjunct, row_)) {
        pass = false;
        break;
      }
    }
    if (pass) return true;
  }
  FlushCounters();
  return false;
}

Result<size_t> StoredRowScan::NextBatch(RowBlock* block) {
  block->Reset(out_columns_.size());
  size_t rows = 0;
  while (rows < block->capacity()) {
    TANGO_ASSIGN_OR_RETURN(bool more, Advance());
    if (!more) break;
    // Moves the masked values straight into the block's columns; each is
    // re-decoded before anything reads `row_` again.
    for (size_t k = 0; k < out_columns_.size(); ++k) {
      block->column(k).push_back(std::move(row_[out_columns_[k]]));
    }
    ++rows;
  }
  block->set_rows(rows);
  return rows;
}

// ---------------------------------------------------------------- TableScan

Status TableScanOp::Init() {
  it_.emplace(table()->file().Scan());
  return Status::OK();
}

// ---------------------------------------------------------------- IndexScan

IndexScanOp::IndexScanOp(ScanSpec spec, size_t column, std::optional<Value> lo,
                         bool lo_inclusive, std::optional<Value> hi,
                         bool hi_inclusive)
    : StoredRowScan(std::move(spec)),
      column_(column),
      lo_(std::move(lo)),
      hi_(std::move(hi)),
      lo_inclusive_(lo_inclusive),
      hi_inclusive_(hi_inclusive) {}

Status IndexScanOp::Init() {
  const storage::BPlusTree* index = table()->GetIndex(column_);
  if (index == nullptr) return Status::Internal("index scan without index");
  if (lo_.has_value()) {
    it_ = lo_inclusive_ ? index->SeekGE(*lo_) : index->SeekGT(*lo_);
  } else {
    it_ = index->Begin();
  }
  return Status::OK();
}

Status IndexScanOp::Seek(const Value& key) {
  lo_ = hi_ = key;
  lo_inclusive_ = hi_inclusive_ = true;
  return Init();
}

bool IndexScanOp::NextRid(storage::Rid* rid) {
  Value key;
  if (!it_.has_value() || !it_->Next(&key, rid)) return false;
  if (hi_.has_value()) {
    const int c = key.Compare(*hi_);
    if (c > 0 || (c == 0 && !hi_inclusive_)) {
      it_.reset();  // past the range: stay exhausted until the next Init
      return false;
    }
  }
  return true;
}

// ----------------------------------------------------------------- UnionAll

Status UnionAllOp::Init() {
  current_ = 0;
  for (auto& c : children_) TANGO_RETURN_IF_ERROR(c->Init());
  return Status::OK();
}

Result<size_t> UnionAllOp::NextBatch(RowBlock* block) {
  while (current_ < children_.size()) {
    TANGO_ASSIGN_OR_RETURN(size_t n, children_[current_]->NextBatch(block));
    if (n > 0) return n;
    ++current_;
  }
  block->Clear();
  return 0;
}

// ----------------------------------------------------------------- HashJoin

namespace {

/// Writes `left ++ right` into `out`, reusing its allocation: one reserve
/// for the joined width, then both copies.
void JoinInto(Tuple* out, const Tuple& left, const Tuple& right) {
  out->clear();
  out->reserve(left.size() + right.size());
  out->insert(out->end(), left.begin(), left.end());
  out->insert(out->end(), right.begin(), right.end());
}

}  // namespace

HashJoinOp::HashJoinOp(CursorPtr left, CursorPtr right,
                       std::vector<size_t> left_keys,
                       std::vector<size_t> right_keys, ExprPtr residual)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_reader_(left_.get()),
      right_reader_(right_.get()),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      residual_(std::move(residual)),
      schema_(Schema::Concat(left_->schema(), right_->schema())) {}

Status HashJoinOp::Init() {
  TANGO_RETURN_IF_ERROR(left_reader_.Init());
  TANGO_RETURN_IF_ERROR(right_reader_.Init());
  hash_table_.clear();
  match_bucket_ = nullptr;
  match_pos_ = 0;
  // Build on the left input.
  Tuple t;
  while (true) {
    TANGO_ASSIGN_OR_RETURN(bool more, left_reader_.Next(&t));
    if (!more) break;
    std::vector<Value> key;
    key.reserve(left_keys_.size());
    bool has_null = false;
    for (size_t k : left_keys_) {
      if (t[k].is_null()) has_null = true;
      key.push_back(t[k]);
    }
    if (has_null) continue;  // NULL keys never join
    hash_table_[std::move(key)].push_back(std::move(t));
  }
  return Status::OK();
}

Result<bool> HashJoinOp::NextRow(Tuple* tuple) {
  while (true) {
    if (match_bucket_ != nullptr && match_pos_ < match_bucket_->size()) {
      JoinInto(tuple, (*match_bucket_)[match_pos_++], probe_row_);
      if (residual_ == nullptr || EvalPredicate(*residual_, *tuple)) {
        return true;
      }
      continue;
    }
    TANGO_ASSIGN_OR_RETURN(bool more, right_reader_.Next(&probe_row_));
    if (!more) return false;
    probe_key_.clear();
    bool has_null = false;
    for (size_t k : right_keys_) {
      if (probe_row_[k].is_null()) has_null = true;
      probe_key_.push_back(probe_row_[k]);
    }
    match_bucket_ = nullptr;
    match_pos_ = 0;
    if (has_null) continue;
    const auto it = hash_table_.find(probe_key_);
    if (it != hash_table_.end()) match_bucket_ = &it->second;
  }
}

// ----------------------------------------------------------- NestedLoopJoin

NestedLoopJoinOp::NestedLoopJoinOp(CursorPtr left, CursorPtr right,
                                   ExprPtr predicate)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_reader_(left_.get()),
      predicate_(std::move(predicate)),
      schema_(Schema::Concat(left_->schema(), right_->schema())) {}

Status NestedLoopJoinOp::Init() {
  TANGO_RETURN_IF_ERROR(left_reader_.Init());
  TANGO_ASSIGN_OR_RETURN(inner_, MaterializeAll(right_.get()));
  outer_valid_ = false;
  inner_pos_ = 0;
  TANGO_ASSIGN_OR_RETURN(outer_valid_, left_reader_.Next(&outer_row_));
  return Status::OK();
}

Result<bool> NestedLoopJoinOp::NextRow(Tuple* tuple) {
  while (outer_valid_) {
    while (inner_pos_ < inner_.size()) {
      JoinInto(tuple, outer_row_, inner_[inner_pos_++]);
      if (predicate_ == nullptr || EvalPredicate(*predicate_, *tuple)) {
        return true;
      }
    }
    inner_pos_ = 0;
    TANGO_ASSIGN_OR_RETURN(outer_valid_, left_reader_.Next(&outer_row_));
  }
  return false;
}

// ------------------------------------------------------ IndexNestedLoopJoin

IndexNestedLoopJoinOp::IndexNestedLoopJoinOp(
    CursorPtr outer, std::unique_ptr<IndexScanOp> inner, size_t outer_key,
    ExprPtr residual)
    : outer_(std::move(outer)),
      outer_reader_(outer_.get()),
      inner_(std::move(inner)),
      outer_key_(outer_key),
      residual_(std::move(residual)),
      schema_(Schema::Concat(outer_->schema(), inner_->schema())) {}

Status IndexNestedLoopJoinOp::Init() {
  TANGO_RETURN_IF_ERROR(inner_->Init());  // fails without the index
  TANGO_RETURN_IF_ERROR(outer_reader_.Init());
  probing_ = false;
  inner_block_.Clear();
  inner_pos_ = 0;
  return Status::OK();
}

Result<bool> IndexNestedLoopJoinOp::NextRow(Tuple* tuple) {
  while (true) {
    if (inner_pos_ < inner_block_.rows()) {
      const size_t inner_width = inner_block_.columns();
      tuple->clear();
      tuple->reserve(outer_row_.size() + inner_width);
      tuple->insert(tuple->end(), outer_row_.begin(), outer_row_.end());
      for (size_t c = 0; c < inner_width; ++c) {
        tuple->push_back(std::move(inner_block_.At(inner_pos_, c)));
      }
      ++inner_pos_;
      if (residual_ == nullptr || EvalPredicate(*residual_, *tuple)) {
        return true;
      }
      continue;
    }
    if (probing_) {
      TANGO_ASSIGN_OR_RETURN(size_t n, inner_->NextBatch(&inner_block_));
      inner_pos_ = 0;
      if (n > 0) continue;
      probing_ = false;
    }
    TANGO_ASSIGN_OR_RETURN(bool more, outer_reader_.Next(&outer_row_));
    if (!more) return false;
    const Value& key = outer_row_[outer_key_];
    if (key.is_null()) continue;
    TANGO_RETURN_IF_ERROR(inner_->Seek(key));
    probing_ = true;
  }
}

// ----------------------------------------------------------------- GroupAgg

GroupAggOp::GroupAggOp(CursorPtr child, std::vector<size_t> group_cols,
                       std::vector<AggSpec> aggs)
    : child_(std::move(child)),
      reader_(child_.get()),
      group_cols_(std::move(group_cols)),
      aggs_(std::move(aggs)) {
  // Output schema: group columns (with their child names/types), then one
  // column per aggregate.
  for (size_t c : group_cols_) schema_.AddColumn(child_->schema().column(c));
  for (const AggSpec& a : aggs_) {
    Column col;
    col.name = ToUpper(a.name);
    if (a.func == AggFunc::kCount) {
      col.type = DataType::kInt;
    } else if (a.func == AggFunc::kAvg) {
      col.type = DataType::kDouble;
    } else if (a.arg != nullptr) {
      auto t = InferType(a.arg, child_->schema());
      col.type = t.ok() ? t.ValueOrDie() : DataType::kDouble;
    } else {
      col.type = DataType::kDouble;
    }
    schema_.AddColumn(col);
  }
}

Status GroupAggOp::Init() {
  TANGO_RETURN_IF_ERROR(reader_.Init());
  group_open_ = false;
  input_done_ = false;
  states_.assign(aggs_.size(), AggState{});
  return Status::OK();
}

void GroupAggOp::Accumulate(const Tuple& row) {
  for (size_t i = 0; i < aggs_.size(); ++i) {
    AggState& st = states_[i];
    const AggSpec& a = aggs_[i];
    Value v;
    if (a.arg != nullptr) {
      v = Eval(*a.arg, row);
      if (v.is_null()) continue;  // SQL aggregates skip NULLs
    }
    st.any = true;
    st.count += 1;
    if (a.arg != nullptr && v.is_numeric()) {
      st.sum += v.AsDouble();
      if (!v.is_int()) st.sum_is_int = false;
      if (st.count == 1 || v < st.min) st.min = v;
      if (st.count == 1 || v > st.max) st.max = v;
    } else if (a.arg != nullptr) {
      if (st.count == 1 || v < st.min) st.min = v;
      if (st.count == 1 || v > st.max) st.max = v;
    }
  }
}

Tuple GroupAggOp::EmitGroup() {
  Tuple out;
  out.reserve(group_cols_.size() + aggs_.size());
  for (size_t c : group_cols_) out.push_back(group_key_row_[c]);
  for (size_t i = 0; i < aggs_.size(); ++i) {
    const AggState& st = states_[i];
    switch (aggs_[i].func) {
      case AggFunc::kCount:
        out.push_back(Value(st.count));
        break;
      case AggFunc::kSum:
        if (!st.any) {
          out.push_back(Value::Null());
        } else if (st.sum_is_int) {
          out.push_back(Value(static_cast<int64_t>(st.sum)));
        } else {
          out.push_back(Value(st.sum));
        }
        break;
      case AggFunc::kAvg:
        out.push_back(st.any ? Value(st.sum / static_cast<double>(st.count))
                             : Value::Null());
        break;
      case AggFunc::kMin:
        out.push_back(st.any ? st.min : Value::Null());
        break;
      case AggFunc::kMax:
        out.push_back(st.any ? st.max : Value::Null());
        break;
    }
  }
  states_.assign(aggs_.size(), AggState{});
  return out;
}

Result<bool> GroupAggOp::NextRow(Tuple* tuple) {
  if (input_done_) return false;
  Tuple row;
  while (true) {
    TANGO_ASSIGN_OR_RETURN(bool more, reader_.Next(&row));
    if (!more) {
      input_done_ = true;
      // The open group, or the one row a global aggregate yields even for
      // an empty input.
      if (group_open_ || group_cols_.empty()) {
        group_open_ = false;
        *tuple = EmitGroup();
        return true;
      }
      return false;
    }
    if (!group_open_) {
      group_open_ = true;
      Accumulate(row);
      group_key_row_ = std::move(row);
      continue;
    }
    bool same = true;
    for (size_t c : group_cols_) {
      if (row[c].Compare(group_key_row_[c]) != 0) {
        same = false;
        break;
      }
    }
    if (same) {
      Accumulate(row);
      continue;
    }
    // New group: emit the finished one and open the next on this row.
    *tuple = EmitGroup();
    Accumulate(row);
    group_key_row_ = std::move(row);
    return true;
  }
}

}  // namespace dbms
}  // namespace tango
