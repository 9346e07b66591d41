#ifndef TANGO_COMMON_WIRE_H_
#define TANGO_COMMON_WIRE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/row_block.h"
#include "common/status.h"
#include "common/value.h"

namespace tango {

/// \brief Binary encoder for the simulated client/server wire.
///
/// Every tuple crossing the DBMS boundary (TRANSFER^M fetches, TRANSFER^D
/// bulk loads) is serialized through this codec, so transfer costs really are
/// proportional to `size(r)` as the paper's cost formulas assume.
class WireWriter {
 public:
  /// Defined out of line on purpose: when GCC 12 inlines a writer it knows
  /// starts empty, its optimized builds report the first appends' vector
  /// growth as buffer overflows (-Wstringop-overflow / -Warray-bounds).
  WireWriter();

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutRaw(&v, sizeof(v)); }
  void PutDouble(double v) { PutRaw(&v, sizeof(v)); }
  void PutString(const std::string& s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutRaw(s.data(), s.size());
  }
  void PutValue(const Value& v);
  void PutTuple(const Tuple& t);
  /// Block encoding: `[u32 rows][u32 cols]` then the values column-major.
  /// One of these per RowBlock replaces `rows` per-tuple headers, and the
  /// column-major layout keeps same-typed tag bytes adjacent.
  void PutRowBlock(const RowBlock& block);

  const std::vector<uint8_t>& buffer() const { return buf_; }
  size_t size() const { return buf_.size(); }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  void PutRaw(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }
  std::vector<uint8_t> buf_;
};

/// CRC-32 (polynomial 0xEDB88320) over `n` bytes. The per-batch frame
/// checksum: CRC-32 detects every single-bit flip and every truncation, so
/// a corrupted batch is always recognized at the client instead of decoding
/// into garbage rows.
uint32_t Crc32(const uint8_t* data, size_t n);

/// \brief Batch framing for the simulated wire.
///
/// Every prefetch batch crosses the link as `[u32 payload_len][u32 crc32]
/// [payload]`. `CheckFrame` validates length and checksum before any tuple
/// is decoded; a failure means the link garbled the batch (or a fault was
/// injected) and the statement should be re-issued — it is reported as a
/// transient error by the connection layer, never as decoded data.
struct WireFrame {
  static constexpr size_t kHeaderBytes = 8;

  /// Wraps `payload` in a frame (length prefix + CRC-32).
  static std::vector<uint8_t> Seal(const std::vector<uint8_t>& payload);

  /// Validates a frame; on success points `payload`/`len` into `framed`.
  static Status Check(const std::vector<uint8_t>& framed,
                      const uint8_t** payload, size_t* len);
};

/// \brief Decoder matching WireWriter.
class WireReader {
 public:
  explicit WireReader(const std::vector<uint8_t>& buf)
      : data_(buf.data()), size_(buf.size()) {}
  WireReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool AtEnd() const { return pos_ >= size_; }

  Result<uint8_t> GetU8();
  Result<uint32_t> GetU32();
  Result<int64_t> GetI64();
  Result<double> GetDouble();
  Result<std::string> GetString();
  Result<Value> GetValue();
  /// Steps over one encoded value without materializing it; the same tag
  /// and bounds checks as GetValue, so a forged string length or a bad tag
  /// fails with IOError instead of moving past the buffer.
  Status SkipValue();
  Result<Tuple> GetTuple();
  /// Decodes one block written by PutRowBlock into `block` (replacing its
  /// contents; the block's capacity is not a decode limit). Returns the row
  /// count. A forged header cannot drive a large allocation: the declared
  /// rows×cols is checked against the bytes actually remaining (every value
  /// costs at least its tag byte) before anything is reserved.
  Result<size_t> GetRowBlock(RowBlock* block);

 private:
  Status Need(size_t n) {
    if (pos_ + n > size_) return Status::IOError("wire buffer underrun");
    return Status::OK();
  }
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace tango

#endif  // TANGO_COMMON_WIRE_H_
