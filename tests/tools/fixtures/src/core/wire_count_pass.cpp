// MUST-PASS: wire-count. Counts come from ByteReader::count(), which
// bounds them by the bytes left; plain reads that only carry a value
// are fine; and a raw count kept on purpose carries its pragma.
#include "util/bytes.hpp"

namespace fixture {

// tlclint: allow(schema-coverage) wire-count fixture
std::vector<std::uint64_t> read_counted(const Bytes& wire) {
  ByteReader r(wire);
  const std::uint32_t version = r.u32();
  if (version != 1) r.fail("bad version");
  std::vector<std::uint64_t> out(r.count(8));
  for (std::uint64_t& v : out) v = r.u64();
  return out;
}

std::uint32_t count_lost(ByteReader& r) {
  // tlclint: allow(wire-count) the loop stops at the first short read
  const std::uint32_t n = r.u32();
  std::uint32_t lost = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (r.blob().empty()) {
      lost = n - i;
      break;
    }
  }
  return lost;
}

}  // namespace fixture
