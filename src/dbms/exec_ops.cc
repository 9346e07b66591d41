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
    : table_(spec.table),
      schema_(spec.alias.empty() ? table_->schema()
                                 : table_->schema().WithQualifier(spec.alias)),
      counters_(spec.counters) {
  const size_t arity = table_->schema().num_columns();
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
  // A final pass with nothing left to decode is dropped — unless it is the
  // only one, which still shapes the (all-NULL) row.
  if (steps_.size() > 1 && steps_.back().decodes == 0) steps_.pop_back();
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
      TANGO_RETURN_IF_ERROR(file.ReadColumns(rid, step.columns, &row_));
      values_decoded_ += step.decodes;
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
  block->Clear();
  while (!block->full()) {
    TANGO_ASSIGN_OR_RETURN(bool more, Advance());
    if (!more) break;
    // Moves the values out and keeps the row's shape: unmasked columns stay
    // NULL, and masked ones are re-decoded before anything reads them.
    block->AppendRow(std::move(row_));
  }
  return block->rows();
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
  probe_valid_ = false;
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
      Tuple joined = (*match_bucket_)[match_pos_++];
      joined.insert(joined.end(), probe_row_.begin(), probe_row_.end());
      if (residual_ == nullptr || EvalPredicate(*residual_, joined)) {
        *tuple = std::move(joined);
        return true;
      }
      continue;
    }
    TANGO_ASSIGN_OR_RETURN(probe_valid_, right_reader_.Next(&probe_row_));
    if (!probe_valid_) return false;
    std::vector<Value> key;
    key.reserve(right_keys_.size());
    bool has_null = false;
    for (size_t k : right_keys_) {
      if (probe_row_[k].is_null()) has_null = true;
      key.push_back(probe_row_[k]);
    }
    match_bucket_ = nullptr;
    match_pos_ = 0;
    if (has_null) continue;
    const auto it = hash_table_.find(key);
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
      Tuple joined = outer_row_;
      const Tuple& r = inner_[inner_pos_++];
      joined.insert(joined.end(), r.begin(), r.end());
      if (predicate_ == nullptr || EvalPredicate(*predicate_, joined)) {
        *tuple = std::move(joined);
        return true;
      }
    }
    inner_pos_ = 0;
    TANGO_ASSIGN_OR_RETURN(outer_valid_, left_reader_.Next(&outer_row_));
  }
  return false;
}

// ------------------------------------------------------ IndexNestedLoopJoin

IndexNestedLoopJoinOp::IndexNestedLoopJoinOp(CursorPtr outer,
                                             const Table* inner,
                                             const std::string& inner_alias,
                                             size_t outer_key,
                                             size_t inner_column,
                                             ExprPtr residual)
    : outer_(std::move(outer)),
      outer_reader_(outer_.get()),
      inner_(inner),
      outer_key_(outer_key),
      inner_column_(inner_column),
      residual_(std::move(residual)),
      schema_(Schema::Concat(
          outer_->schema(), inner_alias.empty()
                                ? inner->schema()
                                : inner->schema().WithQualifier(inner_alias))) {}

Status IndexNestedLoopJoinOp::Init() {
  if (inner_->GetIndex(inner_column_) == nullptr) {
    return Status::Internal("index nested-loop join without index");
  }
  TANGO_RETURN_IF_ERROR(outer_reader_.Init());
  outer_valid_ = false;
  matches_.clear();
  match_pos_ = 0;
  return Status::OK();
}

Result<bool> IndexNestedLoopJoinOp::NextRow(Tuple* tuple) {
  while (true) {
    if (match_pos_ < matches_.size()) {
      TANGO_ASSIGN_OR_RETURN(Tuple inner_row,
                             inner_->file().Get(matches_[match_pos_++]));
      Tuple joined = outer_row_;
      joined.insert(joined.end(), inner_row.begin(), inner_row.end());
      if (residual_ == nullptr || EvalPredicate(*residual_, joined)) {
        *tuple = std::move(joined);
        return true;
      }
      continue;
    }
    TANGO_ASSIGN_OR_RETURN(outer_valid_, outer_reader_.Next(&outer_row_));
    if (!outer_valid_) return false;
    matches_.clear();
    match_pos_ = 0;
    const Value& key = outer_row_[outer_key_];
    if (key.is_null()) continue;
    matches_ = inner_->GetIndex(inner_column_)->Lookup(key);
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
  pending_valid_ = false;
  input_done_ = false;
  emitted_global_ = false;
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
  if (input_done_) {
    // Global aggregation over an empty input still yields one row.
    if (group_cols_.empty() && !emitted_global_ && !group_open_) {
      emitted_global_ = true;
      group_key_row_.clear();
      *tuple = EmitGroup();
      return true;
    }
    if (group_open_) {
      group_open_ = false;
      *tuple = EmitGroup();
      emitted_global_ = true;
      return true;
    }
    return false;
  }
  while (true) {
    Tuple row;
    bool more;
    if (pending_valid_) {
      row = std::move(pending_);
      pending_valid_ = false;
      more = true;
    } else {
      TANGO_ASSIGN_OR_RETURN(more, reader_.Next(&row));
    }
    if (!more) {
      input_done_ = true;
      if (group_open_) {
        group_open_ = false;
        emitted_global_ = true;
        *tuple = EmitGroup();
        return true;
      }
      if (group_cols_.empty() && !emitted_global_) {
        emitted_global_ = true;
        group_key_row_.clear();
        *tuple = EmitGroup();
        return true;
      }
      return false;
    }
    if (!group_open_) {
      group_open_ = true;
      group_key_row_ = row;
      Accumulate(row);
      continue;
    }
    // Same group?
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
    // New group: emit the finished one, stash the row.
    pending_ = std::move(row);
    pending_valid_ = true;
    Tuple out = EmitGroup();
    group_key_row_.clear();
    group_open_ = false;
    *tuple = std::move(out);
    // Open the new group on the next call.
    if (pending_valid_) {
      group_open_ = true;
      group_key_row_ = pending_;
      Accumulate(pending_);
      pending_valid_ = false;
    }
    return true;
  }
}

}  // namespace dbms
}  // namespace tango
