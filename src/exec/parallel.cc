#include "exec/parallel.h"

#include <algorithm>
#include <chrono>
#include <future>

namespace tango {
namespace exec {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

// ---------------------------------------------------------------------------
// ParallelSortCursor
// ---------------------------------------------------------------------------

ParallelSortCursor::ParallelSortCursor(CursorPtr child,
                                       std::vector<SortKey> keys,
                                       common::ThreadPoolPtr pool,
                                       size_t memory_budget_bytes, size_t dop)
    : child_(std::move(child)),
      cmp_(std::move(keys)),
      pool_(std::move(pool)),
      budget_(memory_budget_bytes),
      dop_(dop) {}

Result<bool> ParallelSortCursor::Run::Next(Tuple* tuple) {
  if (file.has_value()) return file->Next(tuple);
  if (pos >= mem.size()) return false;
  // Runs are rebuilt from the child on every Init, so moving out is safe.
  *tuple = std::move(mem[pos++]);
  return true;
}

Status ParallelSortCursor::Init() {
  TANGO_RETURN_IF_ERROR(child_->Init());
  runs_.clear();
  heap_.clear();
  merging_ = false;
  spilled_ = 0;

  const size_t dop =
      dop_ != 0 ? dop_ : (pool_ != nullptr ? pool_->num_threads() : 1);
  const size_t chunk_bytes = std::max<size_t>(budget_ / std::max<size_t>(dop, 1), 1);

  // Each task stable-sorts one chunk; chunks at index >= dop spill so the
  // in-memory footprint of finished runs stays around one budget.
  const WorkerTimeRecorder recorder = recorder_;  // copied before any task runs
  const TupleComparator* cmp = &cmp_;
  auto sort_chunk = [recorder, cmp](std::vector<Tuple> rows,
                                    bool spill) -> Result<Run> {
    const auto start = Clock::now();
    std::stable_sort(rows.begin(), rows.end(), *cmp);
    Run run;
    if (spill) {
      storage::RunFile file;
      TANGO_RETURN_IF_ERROR(file.Open());
      for (const Tuple& t : rows) {
        TANGO_RETURN_IF_ERROR(file.Append(t));
      }
      run.file.emplace(std::move(file));
    } else {
      run.mem = std::move(rows);
    }
    if (recorder) recorder(SecondsSince(start));
    return run;
  };

  std::vector<std::future<Result<Run>>> futures;
  std::vector<Result<Run>> inline_runs;
  const bool pooled = pool_ != nullptr && dop > 1;
  auto submit = [&](std::vector<Tuple> rows, size_t index) {
    const bool spill = index >= dop;
    if (pooled) {
      futures.push_back(pool_->Submit(
          [rows = std::move(rows), spill, &sort_chunk]() mutable {
            return sort_chunk(std::move(rows), spill);
          }));
    } else {
      inline_runs.push_back(sort_chunk(std::move(rows), spill));
    }
  };

  // Sequential consumption, chunking in input order. A child error must not
  // return before every outstanding task is collected below — the tasks
  // reference this stack frame.
  Status first_error = Status::OK();
  std::vector<Tuple> chunk;
  size_t bytes = 0;
  size_t index = 0;
  RowBlock block;
  Tuple t;
  while (first_error.ok()) {
    Result<size_t> batched = child_->NextBatch(&block);
    if (!batched.ok()) {
      first_error = batched.status();
      break;
    }
    const size_t n = batched.ValueOrDie();
    if (n == 0) break;
    for (size_t i = 0; i < n; ++i) {
      block.MoveRowTo(i, &t);
      bytes += TupleByteSize(t);
      chunk.push_back(std::move(t));
      if (bytes > chunk_bytes) {
        submit(std::move(chunk), index++);
        chunk = {};
        bytes = 0;
      }
    }
  }
  if (first_error.ok() && !chunk.empty()) submit(std::move(chunk), index++);
  auto absorb = [&](Result<Run> r) {
    if (!r.ok()) {
      if (first_error.ok()) first_error = r.status();
      return;
    }
    Run run = r.MoveValueOrDie();
    if (run.file.has_value()) ++spilled_;
    runs_.push_back(std::move(run));
  };
  for (auto& f : futures) {
    try {
      absorb(f.get());
    } catch (const std::exception& e) {
      if (first_error.ok()) {
        first_error = Status::Internal(std::string("sort task failed: ") +
                                       e.what());
      }
    }
  }
  for (auto& r : inline_runs) absorb(std::move(r));
  TANGO_RETURN_IF_ERROR(first_error);

  // A single in-memory run is served directly; anything else merges.
  if (runs_.empty() || (runs_.size() == 1 && !runs_[0].file.has_value())) {
    return Status::OK();
  }
  merging_ = true;
  for (Run& run : runs_) {
    if (run.file.has_value()) TANGO_RETURN_IF_ERROR(run.file->Rewind());
  }
  return StartMerge(&runs_, cmp_, &heap_);
}

Result<size_t> ParallelSortCursor::NextBatch(RowBlock* block) {
  if (merging_) return MergeIntoBlock(&runs_, cmp_, &heap_, block);
  block->Clear();
  if (runs_.empty()) return 0;
  Run& run = runs_[0];
  while (run.pos < run.mem.size() && !block->full()) {
    block->AppendRow(std::move(run.mem[run.pos++]));
  }
  return block->rows();
}

// ---------------------------------------------------------------------------
// ParallelTemporalJoinCursor
// ---------------------------------------------------------------------------

namespace {

/// Serial temporal join restricted to pairs whose intersection start falls
/// in [lo, hi) — the dedup rule that makes overlap-spill replication safe.
class WindowedTemporalJoinCursor : public TemporalJoinCursor {
 public:
  WindowedTemporalJoinCursor(CursorPtr left, CursorPtr right,
                             std::vector<size_t> left_keys,
                             std::vector<size_t> right_keys, size_t left_t1,
                             size_t left_t2, size_t right_t1, size_t right_t2,
                             std::vector<size_t> left_out,
                             std::vector<size_t> right_out, Schema schema,
                             int64_t lo, int64_t hi)
      : TemporalJoinCursor(std::move(left), std::move(right),
                           std::move(left_keys), std::move(right_keys),
                           left_t1, left_t2, right_t1, right_t2,
                           std::move(left_out), std::move(right_out),
                           std::move(schema)),
        lo_(lo),
        hi_(hi) {}

 protected:
  bool EmitPair(const Tuple& left, const Tuple& right, Tuple* out) override {
    if (!TemporalJoinCursor::EmitPair(left, right, out)) return false;
    // The output carries GREATEST(T1) as its second-to-last column; the
    // partitioning phase guarantees it is a non-null integer.
    const int64_t start = (*out)[out->size() - 2].AsInt();
    return start >= lo_ && start < hi_;
  }

 private:
  int64_t lo_, hi_;
};

}  // namespace

ParallelTemporalJoinCursor::ParallelTemporalJoinCursor(
    CursorPtr left, CursorPtr right, std::vector<size_t> left_keys,
    std::vector<size_t> right_keys, size_t left_t1, size_t left_t2,
    size_t right_t1, size_t right_t2, std::vector<size_t> left_out,
    std::vector<size_t> right_out, Schema schema, common::ThreadPoolPtr pool,
    size_t dop)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      left_t1_(left_t1),
      left_t2_(left_t2),
      right_t1_(right_t1),
      right_t2_(right_t2),
      left_out_(std::move(left_out)),
      right_out_(std::move(right_out)),
      schema_(std::move(schema)),
      pool_(std::move(pool)),
      dop_(dop) {}

CursorPtr ParallelTemporalJoinCursor::MakeSerialJoin(
    std::vector<Tuple> left_rows, std::vector<Tuple> right_rows) const {
  // The child schemas are only needed for arity; reuse the inputs' schemas.
  // The fallback join is drained exactly once, so the partitions' cursors
  // move their rows out instead of deep-copying each tuple.
  auto lv = std::make_unique<VectorCursor>(left_->schema(),
                                           std::move(left_rows),
                                           VectorCursor::Drain::kOneShot);
  auto rv = std::make_unique<VectorCursor>(right_->schema(),
                                           std::move(right_rows),
                                           VectorCursor::Drain::kOneShot);
  return std::make_unique<TemporalJoinCursor>(
      std::move(lv), std::move(rv), left_keys_, right_keys_, left_t1_,
      left_t2_, right_t1_, right_t2_, left_out_, right_out_, schema_);
}

Status ParallelTemporalJoinCursor::Init() {
  out_rows_.clear();
  pos_ = 0;
  partitions_used_ = 1;

  TANGO_ASSIGN_OR_RETURN(std::vector<Tuple> lrows,
                         MaterializeAll(left_.get()));
  TANGO_ASSIGN_OR_RETURN(std::vector<Tuple> rrows,
                         MaterializeAll(right_.get()));

  const size_t dop =
      dop_ != 0 ? dop_ : (pool_ != nullptr ? pool_->num_threads() : 1);

  // Find the T1 range; a non-integer period attribute (or any input too
  // small to be worth partitioning) falls back to the serial join.
  bool partitionable = pool_ != nullptr && dop > 1 && !lrows.empty() &&
                       !rrows.empty();
  int64_t smin = 0, smax = 0;
  bool have_range = false;
  auto scan_range = [&](const std::vector<Tuple>& rows, size_t t1, size_t t2) {
    for (const Tuple& t : rows) {
      const Value& v1 = t[t1];
      const Value& v2 = t[t2];
      if (v1.is_null() || v2.is_null()) continue;  // never joins; droppable
      if (!v1.is_int() || !v2.is_int()) {
        partitionable = false;
        return;
      }
      const int64_t s = v1.AsInt();
      if (!have_range) {
        smin = smax = s;
        have_range = true;
      } else {
        smin = std::min(smin, s);
        smax = std::max(smax, s);
      }
    }
  };
  if (partitionable) scan_range(lrows, left_t1_, left_t2_);
  if (partitionable) scan_range(rrows, right_t1_, right_t2_);
  const int64_t span = have_range ? smax - smin + 1 : 0;
  if (!partitionable || !have_range ||
      span < static_cast<int64_t>(2 * dop)) {
    CursorPtr serial = MakeSerialJoin(std::move(lrows), std::move(rrows));
    TANGO_ASSIGN_OR_RETURN(out_rows_, MaterializeAll(serial.get()));
    return Status::OK();
  }

  // Equal-width partitions of [smin, smax + 1); every intersection start is
  // some input tuple's T1, so each emitted pair lands in exactly one window.
  const size_t parts = dop;
  const int64_t width = (span + static_cast<int64_t>(parts) - 1) /
                        static_cast<int64_t>(parts);
  auto window_lo = [&](size_t p) {
    return smin + static_cast<int64_t>(p) * width;
  };

  // Overlap-spill: a tuple joins partners whose intersection start lies in
  // [T1, max(T1 + 1, T2)), so it is replicated into every partition that
  // range overlaps.
  std::vector<std::vector<Tuple>> lparts(parts), rparts(parts);
  auto scatter = [&](std::vector<Tuple> rows, size_t t1, size_t t2,
                     std::vector<std::vector<Tuple>>* out) {
    for (Tuple& row : rows) {
      const Value& v1 = row[t1];
      const Value& v2 = row[t2];
      if (v1.is_null() || v2.is_null()) continue;  // cannot join
      const int64_t start = v1.AsInt();
      const int64_t reach = std::max(start + 1, v2.AsInt());
      size_t first = static_cast<size_t>((start - smin) / width);
      for (size_t p = first; p < parts && window_lo(p) < reach; ++p) {
        (*out)[p].push_back(row);
      }
    }
  };
  scatter(std::move(lrows), left_t1_, left_t2_, &lparts);
  scatter(std::move(rrows), right_t1_, right_t2_, &rparts);

  const WorkerTimeRecorder recorder = recorder_;
  auto join_partition = [this, recorder](std::vector<Tuple> lp,
                                         std::vector<Tuple> rp, int64_t lo,
                                         int64_t hi) -> Result<std::vector<Tuple>> {
    const auto start = Clock::now();
    auto lv = std::make_unique<VectorCursor>(left_->schema(), std::move(lp),
                                             VectorCursor::Drain::kOneShot);
    auto rv = std::make_unique<VectorCursor>(right_->schema(), std::move(rp),
                                             VectorCursor::Drain::kOneShot);
    WindowedTemporalJoinCursor join(
        std::move(lv), std::move(rv), left_keys_, right_keys_, left_t1_,
        left_t2_, right_t1_, right_t2_, left_out_, right_out_, schema_, lo,
        hi);
    Result<std::vector<Tuple>> rows = MaterializeAll(&join);
    if (recorder) recorder(SecondsSince(start));
    return rows;
  };

  std::vector<std::future<Result<std::vector<Tuple>>>> futures;
  futures.reserve(parts);
  for (size_t p = 0; p < parts; ++p) {
    const int64_t lo = window_lo(p);
    const int64_t hi = p + 1 == parts ? smax + 1 : window_lo(p + 1);
    futures.push_back(pool_->Submit(
        [lp = std::move(lparts[p]), rp = std::move(rparts[p]), lo, hi,
         &join_partition]() mutable {
          return join_partition(std::move(lp), std::move(rp), lo, hi);
        }));
  }

  Status first_error = Status::OK();
  std::vector<std::vector<Tuple>> outputs(parts);
  for (size_t p = 0; p < parts; ++p) {
    try {
      Result<std::vector<Tuple>> r = futures[p].get();
      if (!r.ok()) {
        if (first_error.ok()) first_error = r.status();
      } else {
        outputs[p] = r.MoveValueOrDie();
      }
    } catch (const std::exception& e) {
      if (first_error.ok()) {
        first_error = Status::Internal(std::string("join task failed: ") +
                                       e.what());
      }
    }
  }
  TANGO_RETURN_IF_ERROR(first_error);

  partitions_used_ = parts;
  size_t total = 0;
  for (const auto& o : outputs) total += o.size();
  out_rows_.reserve(total);
  for (auto& o : outputs) {
    out_rows_.insert(out_rows_.end(), std::make_move_iterator(o.begin()),
                     std::make_move_iterator(o.end()));
  }
  return Status::OK();
}

Result<size_t> ParallelTemporalJoinCursor::NextBatch(RowBlock* block) {
  block->Clear();
  while (pos_ < out_rows_.size() && !block->full()) {
    block->AppendRow(std::move(out_rows_[pos_++]));
  }
  return block->rows();
}

// ---------------------------------------------------------------------------
// PrefetchCursor
// ---------------------------------------------------------------------------

PrefetchCursor::PrefetchCursor(CursorPtr inner, size_t batch_rows,
                               size_t max_batches, QueryControlPtr control)
    : inner_(std::move(inner)),
      schema_(inner_->schema()),
      batch_rows_(batch_rows == 0 ? 1 : batch_rows),
      max_batches_(max_batches == 0 ? 1 : max_batches),
      control_(std::move(control)) {}

PrefetchCursor::~PrefetchCursor() { StopProducer(); }

void PrefetchCursor::StopProducer() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    cancel_ = true;
  }
  not_full_.notify_all();
  if (producer_.joinable()) producer_.join();
}

Status PrefetchCursor::Init() {
  StopProducer();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.clear();
    producer_status_ = Status::OK();
    finished_ = false;
    cancel_ = false;
  }
  saw_error_ = false;
  producer_ = std::thread([this]() { ProducerLoop(); });
  return Status::OK();
}

void PrefetchCursor::ProducerLoop() {
  obs::ScopedSpan span(trace_, "prefetch.producer", "prefetch", trace_parent_);
  const WorkerTimeRecorder recorder = recorder_;
  const auto started = Clock::now();
  double active_seconds = 0;

  // kConsumerGone: the consumer tore the cursor down — exit silently (it
  // will never read again). kControlDead: the query was cancelled or timed
  // out — finish normally with the control's status so a consumer that IS
  // still reading sees a clean transient error.
  enum class PushOutcome { kPushed, kConsumerGone, kControlDead };
  auto push = [this](RowBlock block) {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      if (cancel_) return PushOutcome::kConsumerGone;
      if (control_ != nullptr &&
          (control_->cancelled() || control_->expired())) {
        return PushOutcome::kControlDead;
      }
      if (queue_.size() < max_batches_) break;
      // Bounded wait: a dying query must unblock this thread even if the
      // consumer never drains another batch.
      not_full_.wait_for(lock, std::chrono::milliseconds(5));
    }
    queue_.push_back(std::move(block));
    not_empty_.notify_one();
    return PushOutcome::kPushed;
  };

  Status status = inner_->Init();
  if (status.ok()) {
    // The producer fills whole blocks: one virtual call into the inner
    // cursor and one queue handoff per block. A batched inner cursor (the
    // wire drain) may return partial blocks; each is pushed as-is so the
    // consumer never waits on a block the wire has already delivered.
    RowBlock block(batch_rows_);
    while (true) {
      Result<size_t> batched = inner_->NextBatch(&block);
      if (!batched.ok()) {
        status = batched.status();
        break;
      }
      if (batched.ValueOrDie() == 0) break;
      active_seconds = SecondsSince(started);
      const PushOutcome out = push(std::move(block));
      if (out == PushOutcome::kConsumerGone) return;
      if (out == PushOutcome::kControlDead) {
        status = CheckControl(control_);
        break;
      }
      block = RowBlock(batch_rows_);
    }
  }

  active_seconds = SecondsSince(started);
  if (recorder) recorder(active_seconds);
  {
    std::lock_guard<std::mutex> lock(mu_);
    producer_status_ = status;
    finished_ = true;
  }
  not_empty_.notify_all();
}

Result<size_t> PrefetchCursor::NextBatch(RowBlock* block) {
  if (saw_error_) return producer_status_;
  // Hand the next producer block across wholesale; the capacity stays the
  // consumer's.
  const size_t cap = block->capacity();
  TANGO_ASSIGN_OR_RETURN(bool popped, PopBlock(block));
  if (!popped) {
    block->Clear();
    return 0;
  }
  block->set_capacity(cap);
  return block->rows();
}

/// Pops the next producer block into `block`; false when the stream is done.
/// Returns the producer's error once the queue is drained.
Result<bool> PrefetchCursor::PopBlock(RowBlock* block) {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    while (!finished_ && queue_.empty()) {
      if (control_ != nullptr) {
        // A dying query unblocks the consumer even if the producer is
        // wedged inside a wire wait; the producer is joined at teardown.
        TANGO_RETURN_IF_ERROR(control_->Check());
      }
      not_empty_.wait_for(lock, std::chrono::milliseconds(5));
    }
    if (!queue_.empty()) {
      *block = std::move(queue_.front());
      queue_.pop_front();
      not_full_.notify_one();
      return true;
    }
    // Producer finished and the queue is drained.
    if (!producer_status_.ok()) {
      saw_error_ = true;
      return producer_status_;
    }
    return false;
  }
}

}  // namespace exec
}  // namespace tango
