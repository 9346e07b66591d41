#ifndef TANGO_EXEC_PARALLEL_H_
#define TANGO_EXEC_PARALLEL_H_

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/cursor.h"
#include "common/thread_pool.h"
#include "exec/instrument.h"
#include "exec/join.h"
#include "exec/sort.h"
#include "storage/run_file.h"

namespace tango {
namespace exec {

/// \brief Parallel SORT^M: concurrent sorted-run generation, serial k-way
/// merge.
///
/// The input is consumed sequentially and cut into chunks of roughly
/// `budget / dop` bytes; each chunk is stable-sorted by a pool task. The
/// first `dop` chunks stay in memory (together they fill the budget, like
/// the serial sort's in-memory array); later chunks spill to run files
/// inside the task. The merge breaks ties on the chunk index — chunks are
/// cut in input order, so the output is bit-identical to a stable sort of
/// the whole input, and therefore to SortCursor's output.
class ParallelSortCursor : public Cursor, public WorkerTimedCursor {
 public:
  /// `dop` = 0 means "use the pool's thread count". A null pool (or dop 1)
  /// degrades to running the chunk sorts inline, which keeps the cursor
  /// usable in single-threaded contexts (and differential tests cheap).
  ParallelSortCursor(CursorPtr child, std::vector<SortKey> keys,
                     common::ThreadPoolPtr pool,
                     size_t memory_budget_bytes =
                         SortCursor::kDefaultMemoryBudgetBytes,
                     size_t dop = 0);

  /// Drains the child in whole blocks and sorts the chunks.
  Status Init() override;
  /// The single in-memory run is bulk-moved out; otherwise the k-way merge
  /// pops straight into the block.
  Result<size_t> NextBatch(RowBlock* block) override;
  const Schema& schema() const override { return child_->schema(); }

  void set_worker_time_recorder(WorkerTimeRecorder recorder) override {
    recorder_ = std::move(recorder);
  }

  /// Number of runs that spilled to disk (observability for tests).
  size_t spilled_runs() const { return spilled_; }
  /// Total sorted runs (in-memory + spilled) of the last Init.
  size_t total_runs() const { return runs_.size(); }

 private:
  /// One sorted run: either still in memory or spilled to a file.
  struct Run {
    std::vector<Tuple> mem;
    std::optional<storage::RunFile> file;
    size_t pos = 0;  // read cursor for the in-memory case

    Result<bool> Next(Tuple* tuple);
  };

  CursorPtr child_;
  TupleComparator cmp_;
  common::ThreadPoolPtr pool_;
  size_t budget_;
  size_t dop_;
  WorkerTimeRecorder recorder_;

  std::vector<Run> runs_;
  size_t spilled_ = 0;

  // K-way merge state (shared with SortCursor; see exec/sort.h).
  std::vector<MergeHead> heap_;
  bool merging_ = false;
};

/// \brief Parallel TJOIN^M: range-partitioned temporal join.
///
/// Both (key-sorted) inputs are materialized and range-partitioned on the
/// period start T1 into `dop` equal-width partitions; a tuple whose period
/// crosses partition boundaries is replicated into every partition its
/// period overlaps (the overlap-spill rule). Each partition runs the serial
/// sort-merge temporal join concurrently — partitioning preserves the key
/// order — and a pair is emitted only in the partition containing the
/// intersection start GREATEST(L.T1, R.T1), so replicated tuples never
/// produce duplicate results. Output is the concatenation of the partition
/// outputs; it is set-equal (not order-equal) to the serial join's output.
///
/// Falls back to the serial join when the pool is null, dop < 2, an input is
/// tiny, or a period attribute is not an integer (periods are day numbers).
class ParallelTemporalJoinCursor : public Cursor, public WorkerTimedCursor {
 public:
  ParallelTemporalJoinCursor(CursorPtr left, CursorPtr right,
                             std::vector<size_t> left_keys,
                             std::vector<size_t> right_keys, size_t left_t1,
                             size_t left_t2, size_t right_t1, size_t right_t2,
                             std::vector<size_t> left_out,
                             std::vector<size_t> right_out, Schema schema,
                             common::ThreadPoolPtr pool, size_t dop = 0);

  Status Init() override;
  /// Bulk-moves out of the materialized result (rebuilt on every Init).
  Result<size_t> NextBatch(RowBlock* block) override;
  const Schema& schema() const override { return schema_; }

  void set_worker_time_recorder(WorkerTimeRecorder recorder) override {
    recorder_ = std::move(recorder);
  }

  /// Partitions actually joined in the last Init (1 = serial fallback).
  size_t partitions_used() const { return partitions_used_; }

 private:
  CursorPtr MakeSerialJoin(std::vector<Tuple> left_rows,
                           std::vector<Tuple> right_rows) const;

  CursorPtr left_, right_;
  std::vector<size_t> left_keys_, right_keys_;
  size_t left_t1_, left_t2_, right_t1_, right_t2_;
  std::vector<size_t> left_out_, right_out_;
  Schema schema_;
  common::ThreadPoolPtr pool_;
  size_t dop_;
  WorkerTimeRecorder recorder_;

  std::vector<Tuple> out_rows_;
  size_t pos_ = 0;
  size_t partitions_used_ = 1;
};

/// \brief Parallel T^M drain: a prefetch thread runs the wrapped cursor
/// (typically TRANSFER^M — wire pacing plus chunk decoding) ahead of the
/// consumer through a bounded SPSC batch queue, overlapping the transfer
/// with the middleware operators above it.
///
/// Both sides watch `control`: a cancelled or expired query unblocks the
/// producer even when the queue is full and the consumer even when the
/// queue is empty, so teardown can never deadlock on the SPSC handshake.
class PrefetchCursor : public Cursor, public WorkerTimedCursor {
 public:
  explicit PrefetchCursor(CursorPtr inner, size_t batch_rows = 256,
                          size_t max_batches = 4,
                          QueryControlPtr control = nullptr);
  ~PrefetchCursor() override;

  PrefetchCursor(const PrefetchCursor&) = delete;
  PrefetchCursor& operator=(const PrefetchCursor&) = delete;

  /// Starts (or restarts) the producer thread; the inner cursor's Init runs
  /// on that thread, so the wire drain begins immediately.
  Status Init() override;
  /// Hands a whole producer-filled block across the SPSC queue per call —
  /// the handoff cost is paid once per block instead of once per tuple.
  Result<size_t> NextBatch(RowBlock* block) override;
  const Schema& schema() const override { return schema_; }

  void set_worker_time_recorder(WorkerTimeRecorder recorder) override {
    recorder_ = std::move(recorder);
  }

  /// Records the producer thread's drain as a "prefetch.producer" span
  /// under `parent`. Call before Init (the producer reads these unlocked).
  void set_trace(obs::TraceRecorder* trace, obs::SpanId parent) {
    trace_ = trace;
    trace_parent_ = parent;
  }

 private:
  void ProducerLoop();
  void StopProducer();
  /// Blocks until the next producer block is available and moves it into
  /// `block`; false when the stream is exhausted (or surfaces the producer's
  /// error).
  Result<bool> PopBlock(RowBlock* block);

  CursorPtr inner_;
  Schema schema_;  // copied so schema() never races with the producer
  size_t batch_rows_;
  size_t max_batches_;
  QueryControlPtr control_;
  WorkerTimeRecorder recorder_;
  obs::TraceRecorder* trace_ = nullptr;
  obs::SpanId trace_parent_ = obs::kNoSpan;

  std::thread producer_;
  std::mutex mu_;
  std::condition_variable not_empty_, not_full_;
  std::deque<RowBlock> queue_;  // producer fills whole blocks
  Status producer_status_;
  bool finished_ = false;  // producer pushed everything (or failed)
  bool cancel_ = false;    // consumer tears down early

  bool saw_error_ = false;
};

}  // namespace exec
}  // namespace tango

#endif  // TANGO_EXEC_PARALLEL_H_
