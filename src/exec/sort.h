#ifndef TANGO_EXEC_SORT_H_
#define TANGO_EXEC_SORT_H_

#include <algorithm>
#include <memory>
#include <vector>

#include "common/cursor.h"
#include "storage/run_file.h"

namespace tango {
namespace exec {

/// Head of one sorted run in a k-way merge.
struct MergeHead {
  Tuple tuple;
  size_t run;
};

/// Heap order (std::make_heap is a max-heap) that pops the smallest head
/// first. Ties break on the run index: runs are cut in input order, so the
/// merge reproduces a stable sort of the whole input — bit-identical to the
/// in-memory path and across the serial and parallel sorts.
struct MergeHeadOrder {
  const TupleComparator* cmp;
  bool operator()(const MergeHead& a, const MergeHead& b) const {
    const int c = cmp->Compare(a.tuple, b.tuple);
    if (c != 0) return c > 0;
    return a.run > b.run;
  }
};

/// Seeds `heap` with the first tuple of every run; a run is anything with a
/// row-at-a-time `Next` (a `RunFile`, a parallel sort's run).
template <typename Run>
Status StartMerge(std::vector<Run>* runs, const TupleComparator& cmp,
                  std::vector<MergeHead>* heap) {
  heap->clear();
  for (size_t i = 0; i < runs->size(); ++i) {
    Tuple head;
    TANGO_ASSIGN_OR_RETURN(bool more, (*runs)[i].Next(&head));
    if (more) heap->push_back({std::move(head), i});
  }
  std::make_heap(heap->begin(), heap->end(), MergeHeadOrder{&cmp});
  return Status::OK();
}

/// Pops the k-way merge into `block` until it is full or every run is
/// drained; the popped slot is refilled from the same run in place.
template <typename Run>
Result<size_t> MergeIntoBlock(std::vector<Run>* runs,
                              const TupleComparator& cmp,
                              std::vector<MergeHead>* heap, RowBlock* block) {
  block->Clear();
  const MergeHeadOrder order{&cmp};
  while (!heap->empty() && !block->full()) {
    std::pop_heap(heap->begin(), heap->end(), order);
    MergeHead& top = heap->back();
    block->AppendRow(std::move(top.tuple));
    TANGO_ASSIGN_OR_RETURN(bool more, (*runs)[top.run].Next(&top.tuple));
    if (more) {
      std::push_heap(heap->begin(), heap->end(), order);
    } else {
      heap->pop_back();
    }
  }
  return block->rows();
}

/// \brief SORT^M: external merge sort.
///
/// Consumes the child in Init; runs that fit in the memory budget are sorted
/// with std::sort, larger inputs spill sorted runs to tmpfiles and k-way
/// merge them — this is how the middleware "supports very large relations"
/// (the paper's future-work item, implemented here).
class SortCursor : public Cursor {
 public:
  static constexpr size_t kDefaultMemoryBudgetBytes = 32 << 20;

  SortCursor(CursorPtr child, std::vector<SortKey> keys,
             size_t memory_budget_bytes = kDefaultMemoryBudgetBytes)
      : child_(std::move(child)),
        cmp_(std::move(keys)),
        budget_(memory_budget_bytes) {}

  /// Drains the child in whole blocks and generates the runs.
  Status Init() override;
  /// The in-memory path bulk-copies out of the sorted vector; the external
  /// path pops the k-way merge straight into the block.
  Result<size_t> NextBatch(RowBlock* block) override;
  const Schema& schema() const override { return child_->schema(); }

  /// Number of spilled runs (observability for tests; 0 = fully in memory).
  size_t spilled_runs() const { return runs_.size(); }

 private:
  Status SpillRun(std::vector<Tuple>* rows);

  CursorPtr child_;
  TupleComparator cmp_;
  size_t budget_;

  // In-memory path.
  std::vector<Tuple> rows_;
  size_t pos_ = 0;

  // External path: k-way merge over spilled runs.
  std::vector<storage::RunFile> runs_;
  std::vector<MergeHead> heap_;
};

}  // namespace exec
}  // namespace tango

#endif  // TANGO_EXEC_SORT_H_
