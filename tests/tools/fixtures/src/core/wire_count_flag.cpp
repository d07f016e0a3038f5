// MUST-FLAG: wire-count. Each decoder below reads a count with a plain
// integer read and lets it size a loop or an allocation; a hostile
// count of 0xffffffff then costs billions of iterations or bytes.
#include "util/bytes.hpp"

namespace fixture {

// tlclint: allow(schema-coverage) wire-count fixture
std::vector<std::uint64_t> read_reserved(const Bytes& wire) {
  ByteReader r(wire);
  const std::uint32_t n = r.u32();
  std::vector<std::uint64_t> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(r.u64());
  return out;
}

std::vector<std::uint64_t> read_sized(ByteReader& r) {
  auto count = r.u16();
  std::vector<std::uint64_t> values(count);
  return values;
}

Bytes read_resized(ByteReader& r) {
  Bytes out;
  out.resize(r.u32());
  return out;
}

std::uint64_t sum_looped(ByteReader& r) {
  const std::uint64_t n = r.u64();
  std::uint64_t sum = 0;
  std::uint64_t i = 0;
  while (i++ < n) sum += r.u64();
  return sum;
}

}  // namespace fixture
