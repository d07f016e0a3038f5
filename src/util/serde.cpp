#include "util/serde.hpp"

#include <bit>
#include <cassert>

namespace tlc {

void ByteWriter::u8(std::uint8_t v) { buffer_.push_back(v); }

void ByteWriter::u16(std::uint16_t v) {
  buffer_.push_back(static_cast<std::uint8_t>(v >> 8));
  buffer_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::u32(std::uint32_t v) {
  for (int shift = 24; shift >= 0; shift -= 8) {
    buffer_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void ByteWriter::u64(std::uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    buffer_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void ByteWriter::i64(std::int64_t v) {
  u64(static_cast<std::uint64_t>(v));
}

void ByteWriter::f64(double v) {
  u64(std::bit_cast<std::uint64_t>(v));
}

void ByteWriter::blob(const Bytes& data) {
  u32(static_cast<std::uint32_t>(data.size()));
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

void ByteWriter::str(std::string_view text) {
  u32(static_cast<std::uint32_t>(text.size()));
  buffer_.insert(buffer_.end(), text.begin(), text.end());
}

bool ByteReader::need(std::size_t n, const char* what) {
  if (remaining() >= n) return true;
  if (!failed_) latch(std::string("serde: truncated ") + what, true);
  return false;
}

void ByteReader::latch(std::string message, bool truncated) {
  pos_ = data_.size();
  if (failed_) return;
  failed_ = true;
  truncated_ = truncated;
  error_ = std::move(message);
}

void ByteReader::fail(std::string message) {
  latch(std::move(message), false);
}

Error ByteReader::error_or(std::string truncated) const {
  return Err(truncated_ ? std::move(truncated) : error_);
}

std::uint8_t ByteReader::u8() {
  if (!need(1, "u8")) return 0;
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  if (!need(2, "u16")) return 0;
  std::uint16_t v = 0;
  for (int i = 0; i < 2; ++i) {
    v = static_cast<std::uint16_t>((v << 8) | data_[pos_++]);
  }
  return v;
}

std::uint32_t ByteReader::u32() {
  if (!need(4, "u32")) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v = (v << 8) | data_[pos_++];
  }
  return v;
}

std::uint64_t ByteReader::u64() {
  if (!need(8, "u64")) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v = (v << 8) | data_[pos_++];
  }
  return v;
}

std::int64_t ByteReader::i64() { return static_cast<std::int64_t>(u64()); }

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

Bytes ByteReader::blob() {
  const std::uint32_t len = u32();
  if (!need(len, "blob body")) return {};
  const auto begin = data_.begin() + static_cast<std::ptrdiff_t>(pos_);
  pos_ += len;
  return Bytes(begin, begin + len);
}

std::string ByteReader::str() {
  const std::uint32_t len = u32();
  if (!need(len, "str body")) return {};
  const auto begin = data_.begin() + static_cast<std::ptrdiff_t>(pos_);
  pos_ += len;
  return std::string(begin, begin + len);
}

std::uint32_t ByteReader::count(std::size_t min_encoded_size) {
  assert(min_encoded_size > 0);
  const std::uint32_t n = u32();
  if (std::uint64_t{n} * min_encoded_size > remaining()) {
    latch("serde: count past the bytes left", true);
    return 0;
  }
  return n;
}

}  // namespace tlc
