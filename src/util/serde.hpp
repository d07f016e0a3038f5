// Binary serialization used by all TLC wire messages.
//
// The format is deliberately simple and deterministic (no maps, no
// varints for signed fields): big-endian fixed-width integers and
// length-prefixed byte strings. Deterministic encoding matters because
// CDR/CDA/PoC signatures are computed over the encoded bytes — two
// encoders must produce identical buffers for identical messages.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/bytes.hpp"
#include "util/expected.hpp"

namespace tlc {

/// Appends fields to a growing byte buffer.
class ByteWriter {
 public:
  ByteWriter() = default;

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  /// IEEE-754 bits, big-endian.
  void f64(double v);
  /// u32 length prefix + raw bytes.
  void blob(const Bytes& data);
  /// u32 length prefix + UTF-8 bytes.
  void str(std::string_view text);

  [[nodiscard]] const Bytes& data() const { return buffer_; }
  [[nodiscard]] Bytes take() { return std::move(buffer_); }
  [[nodiscard]] std::size_t size() const { return buffer_.size(); }

 private:
  Bytes buffer_;
};

/// Reads fields back. The first failure latches: a short read, a count
/// the bytes left cannot hold, or a fail() call. From then on ok() is
/// false, error() holds that first error, the cursor sits at the end,
/// and every read returns zero or empty. A decoder therefore reads one
/// line per field and checks ok() once — at the end, and before any
/// decoded value indexes, sizes, checksums or applies state.
class ByteReader {
 public:
  explicit ByteReader(const Bytes& data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int64_t i64();
  [[nodiscard]] double f64();
  [[nodiscard]] Bytes blob();
  [[nodiscard]] std::string str();

  /// A u32 count of records that each encode to at least
  /// `min_encoded_size` bytes. A count the bytes left cannot hold
  /// latches an error and reads as 0, so a loop or an allocation sized
  /// by it is bounded by the input, whatever the input claims.
  [[nodiscard]] std::uint32_t count(std::size_t min_encoded_size);

  /// Latches a semantic error (an unknown enum, version or size) unless
  /// an earlier error already holds the latch.
  void fail(std::string message);

  [[nodiscard]] bool ok() const { return !failed_; }
  /// The first error: fail()'s message, or a "serde: ..." text for a
  /// short read or an oversized count.
  [[nodiscard]] const std::string& error() const { return error_; }
  /// The first error as a decoder returns it: fail()'s message as
  /// given, or `truncated` when the bytes ran out first. Only
  /// meaningful when !ok().
  [[nodiscard]] Error error_or(std::string truncated) const;

  /// Bytes not yet consumed.
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool exhausted() const { return remaining() == 0; }

 private:
  /// True when `n` more bytes are there; otherwise latches a short read.
  [[nodiscard]] bool need(std::size_t n, const char* what);
  void latch(std::string message, bool truncated);

  const Bytes& data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
  bool truncated_ = false;
  std::string error_;
};

}  // namespace tlc
