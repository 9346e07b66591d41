#ifndef TANGO_STORAGE_PAGE_H_
#define TANGO_STORAGE_PAGE_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "common/wire.h"

namespace tango {
namespace storage {

/// Default page size; 8 KiB like most disk-based engines. Block counts
/// derived from it feed the catalog statistics (`blocks(r)`).
constexpr size_t kDefaultPageSize = 8192;

/// \brief A slotted page holding serialized tuples.
///
/// Tuples are appended at the front of free space; a slot directory at the
/// logical end records (offset, length) pairs. The write path adds in-place
/// rewrites (temporal updates timestamp the current version's T2), a dead
/// mark per slot (transaction undo never compacts — it tombstones, like a
/// real slotted page's delete), and a page LSN: the LSN of the last logged
/// change applied to the page, which makes recovery's redo idempotent
/// (redo skips any record whose LSN the page has already seen).
class Page {
 public:
  explicit Page(size_t capacity = kDefaultPageSize) : capacity_(capacity) {}

  /// Appends an encoded tuple; returns the slot index, or -1 if it no longer
  /// fits (caller then allocates a fresh page).
  int Append(const std::vector<uint8_t>& encoded) {
    if (used_ + encoded.size() + kSlotOverhead > capacity_ && !slots_.empty()) {
      return -1;
    }
    return AppendForce(encoded);
  }

  /// Appends without the capacity check — snapshot reconstruction must
  /// restore the original page boundaries even for pages that grew past
  /// capacity through rewrites.
  int AppendForce(const std::vector<uint8_t>& encoded) {
    Slot s;
    s.offset = static_cast<uint32_t>(data_.size());
    s.length = static_cast<uint32_t>(encoded.size());
    data_.insert(data_.end(), encoded.begin(), encoded.end());
    slots_.push_back(s);
    dead_.push_back(0);
    used_ += encoded.size() + kSlotOverhead;
    return static_cast<int>(slots_.size() - 1);
  }

  /// Replaces the tuple in `slot`: in place when the new image fits the old
  /// footprint, otherwise the bytes move to the end of the data area and the
  /// slot is repointed (the page may then exceed its nominal capacity; the
  /// append path never chooses it again once full, so the overflow is
  /// bounded by one tuple's growth per rewrite).
  Status Rewrite(size_t slot, const std::vector<uint8_t>& encoded) {
    if (slot >= slots_.size()) return Status::NotFound("bad slot");
    Slot& s = slots_[slot];
    if (encoded.size() <= s.length) {
      std::copy(encoded.begin(), encoded.end(), data_.begin() + s.offset);
      used_ -= s.length - encoded.size();
      s.length = static_cast<uint32_t>(encoded.size());
      return Status::OK();
    }
    used_ += encoded.size() - s.length;
    s.offset = static_cast<uint32_t>(data_.size());
    s.length = static_cast<uint32_t>(encoded.size());
    data_.insert(data_.end(), encoded.begin(), encoded.end());
    return Status::OK();
  }

  size_t num_slots() const { return slots_.size(); }
  size_t used_bytes() const { return used_; }

  /// Decodes the tuple in the given slot (dead or alive — undo and
  /// diagnostics read tombstoned rows; scans skip them via `dead()`).
  Result<Tuple> Read(size_t slot) const {
    if (slot >= slots_.size()) return Status::NotFound("bad slot");
    const Slot& s = slots_[slot];
    WireReader reader(data_.data() + s.offset, s.length);
    return reader.GetTuple();
  }

  /// Decodes only the columns set in `mask` into a reused tuple, stepping
  /// over the others and stopping after the last masked column. `tuple` is
  /// resized (with NULLs) to the stored arity when its size differs; masked
  /// columns are overwritten, the rest are left as they are, so a caller can
  /// decode one row in several passes. Mask bits beyond the stored arity are
  /// ignored.
  Status ReadColumns(size_t slot, const std::vector<bool>& mask,
                     Tuple* tuple) const {
    if (slot >= slots_.size()) return Status::NotFound("bad slot");
    const Slot& s = slots_[slot];
    WireReader reader(data_.data() + s.offset, s.length);
    TANGO_ASSIGN_OR_RETURN(const uint32_t arity, reader.GetU32());
    // Every value costs at least its tag byte: a forged arity must not
    // drive the resize below.
    if (arity > s.length) return Status::IOError("implausible tuple arity");
    if (tuple->size() != arity) tuple->assign(arity, Value());
    size_t end = std::min<size_t>(arity, mask.size());
    while (end > 0 && !mask[end - 1]) --end;
    for (size_t c = 0; c < end; ++c) {
      if (mask[c]) {
        TANGO_ASSIGN_OR_RETURN(Value v, reader.GetValue());
        (*tuple)[c] = std::move(v);
      } else {
        TANGO_RETURN_IF_ERROR(reader.SkipValue());
      }
    }
    return Status::OK();
  }

  /// Raw encoded bytes of a slot (snapshot serialization).
  std::pair<const uint8_t*, uint32_t> SlotBytes(size_t slot) const {
    const Slot& s = slots_[slot];
    return {data_.data() + s.offset, s.length};
  }
  uint32_t SlotLength(size_t slot) const { return slots_[slot].length; }

  bool dead(size_t slot) const { return dead_[slot] != 0; }
  void MarkDead(size_t slot) { dead_[slot] = 1; }

  /// LSN of the last logged change applied to this page; redo of any record
  /// with lsn <= page lsn is skipped (idempotence).
  uint64_t lsn() const { return lsn_; }
  void StampLsn(uint64_t lsn) {
    if (lsn > lsn_) lsn_ = lsn;
  }

 private:
  struct Slot {
    uint32_t offset;
    uint32_t length;
  };
  static constexpr size_t kSlotOverhead = sizeof(Slot);

  size_t capacity_;
  size_t used_ = 0;
  uint64_t lsn_ = 0;
  std::vector<uint8_t> data_;
  std::vector<Slot> slots_;
  std::vector<uint8_t> dead_;  // parallel to slots_
};

/// Record identifier: page number and slot within the page.
struct Rid {
  uint32_t page = 0;
  uint32_t slot = 0;

  bool operator==(const Rid&) const = default;
};

}  // namespace storage
}  // namespace tango

#endif  // TANGO_STORAGE_PAGE_H_
