#ifndef TANGO_COMMON_CURSOR_H_
#define TANGO_COMMON_CURSOR_H_

#include <algorithm>
#include <memory>
#include <vector>

#include "common/row_block.h"
#include "common/schema.h"
#include "common/status.h"
#include "common/value.h"

namespace tango {

/// \brief Pipelined iterator over tuples — the paper's result-set interface
/// with init() and getNext() (Figure 2), pulled a block of rows at a time.
///
/// Both the middleware execution engine (XXL-style algorithms) and the DBMS
/// physical operators implement this interface; `Init` may do real work
/// (e.g. TRANSFER^D loads its whole argument into the DBMS during init).
class Cursor {
 public:
  virtual ~Cursor() = default;

  /// Prepares the cursor; called before the first NextBatch. Calling it
  /// again restarts the stream from the beginning.
  virtual Status Init() = 0;

  /// getNext(), one block at a time: clears `block` and fills it with up to
  /// `block->capacity()` rows; returns the number appended. Zero means
  /// exhausted, and every later call returns zero again until the next
  /// `Init`. A *partial* (non-zero, under-capacity) block does NOT imply
  /// exhaustion — producers such as the wire cursor surface one transfer
  /// batch per call — so consumers must keep calling until they see zero.
  /// Operators whose logic is row-at-a-time implement this with `FillBlock`.
  virtual Result<size_t> NextBatch(RowBlock* block) = 0;

  /// Output schema; valid after construction.
  virtual const Schema& schema() const = 0;
};

/// Implements `NextBatch` for an operator whose control flow is inherently
/// tuple-oriented (merge join, difference, group-agg): clears `block`, then
/// appends rows from the operator's private row step `next_row(Tuple*)`
/// until the block is full or the step returns false. The step must keep
/// returning false once it has, so that exhaustion sticks.
template <typename RowStep>
Result<size_t> FillBlock(RowBlock* block, RowStep&& next_row) {
  block->Clear();
  Tuple t;
  while (!block->full()) {
    TANGO_ASSIGN_OR_RETURN(bool more, next_row(&t));
    if (!more) break;
    block->AppendRow(std::move(t));
  }
  return block->rows();
}

/// Moves every row of `block` onto the end of `rows`, growing `rows`
/// geometrically but never by less than the incoming block — the
/// materialization points (root drain, transfers) avoid reallocation churn.
inline void AppendRows(RowBlock* block, std::vector<Tuple>* rows) {
  const size_t n = block->rows();
  if (rows->capacity() < rows->size() + n) {
    rows->reserve(std::max(rows->size() + n, rows->capacity() * 2));
  }
  Tuple t;
  for (size_t i = 0; i < n; ++i) {
    block->MoveRowTo(i, &t);
    rows->push_back(std::move(t));
  }
}

using CursorPtr = std::unique_ptr<Cursor>;

/// \brief Row-at-a-time view over a batched child.
///
/// Operators whose control flow is inherently tuple-oriented (merge join,
/// plane sweep, difference) read their children through this adapter: the
/// child is drained in whole blocks (one virtual call per block), and the
/// operator's own row logic is unchanged. `Next` here is non-virtual and
/// serves moves out of the buffered block.
class BatchedReader {
 public:
  explicit BatchedReader(Cursor* child,
                         size_t batch_rows = RowBlock::kDefaultCapacity)
      : child_(child), block_(batch_rows == 0 ? 1 : batch_rows) {}

  /// Re-initializes the child and rewinds the buffer.
  Status Init() {
    pos_ = 0;
    done_ = false;
    block_.Clear();
    return child_->Init();
  }

  Result<bool> Next(Tuple* tuple) {
    while (pos_ >= block_.rows()) {
      if (done_) return false;
      TANGO_ASSIGN_OR_RETURN(size_t n, child_->NextBatch(&block_));
      pos_ = 0;
      if (n == 0) {
        done_ = true;
        return false;
      }
    }
    block_.MoveRowTo(pos_++, tuple);
    return true;
  }

  Cursor* child() const { return child_; }

 private:
  Cursor* child_;
  RowBlock block_;
  size_t pos_ = 0;
  bool done_ = false;
};

/// \brief Cursor over an in-memory vector of tuples.
///
/// `Drain::kReusable` (default) copies rows out, so re-`Init` replays the
/// stream. `Drain::kOneShot` moves rows out — for the many places that build
/// a VectorCursor from a freshly materialized vector and drain it exactly
/// once (partitions, fallbacks); a one-shot cursor must not be re-`Init`ed
/// after draining.
class VectorCursor : public Cursor {
 public:
  enum class Drain { kReusable, kOneShot };

  VectorCursor(Schema schema, std::vector<Tuple> rows,
               Drain drain = Drain::kReusable)
      : schema_(std::move(schema)), rows_(std::move(rows)), drain_(drain) {}

  Status Init() override {
    pos_ = 0;
    return Status::OK();
  }

  Result<size_t> NextBatch(RowBlock* block) override {
    block->Clear();
    while (pos_ < rows_.size() && !block->full()) {
      if (drain_ == Drain::kOneShot) {
        block->AppendRow(std::move(rows_[pos_++]));
      } else {
        block->AppendRow(rows_[pos_++]);
      }
    }
    return block->rows();
  }

  const Schema& schema() const override { return schema_; }

 private:
  Schema schema_;
  std::vector<Tuple> rows_;
  Drain drain_;
  size_t pos_ = 0;
};

/// Drains a cursor into a vector (calls Init first), pulling whole blocks —
/// one virtual call per batch.
inline Result<std::vector<Tuple>> MaterializeAll(Cursor* cursor) {
  TANGO_RETURN_IF_ERROR(cursor->Init());
  std::vector<Tuple> rows;
  RowBlock block;
  while (true) {
    TANGO_ASSIGN_OR_RETURN(size_t n, cursor->NextBatch(&block));
    if (n == 0) break;
    AppendRows(&block, &rows);
  }
  return rows;
}

}  // namespace tango

#endif  // TANGO_COMMON_CURSOR_H_
