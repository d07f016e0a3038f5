#include "util/serde.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace tlc {
namespace {

TEST(SerdeTest, ScalarRoundTrip) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.f64(3.14159);

  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.exhausted());
}

TEST(SerdeTest, BigEndianLayout) {
  ByteWriter w;
  w.u32(0x01020304);
  const Bytes& data = w.data();
  ASSERT_EQ(data.size(), 4u);
  EXPECT_EQ(data[0], 0x01);
  EXPECT_EQ(data[3], 0x04);
}

TEST(SerdeTest, BlobAndStringRoundTrip) {
  ByteWriter w;
  w.blob(bytes_of("payload"));
  w.str("hello world");
  w.blob({});

  ByteReader r(w.data());
  EXPECT_EQ(r.blob(), bytes_of("payload"));
  EXPECT_EQ(r.str(), "hello world");
  EXPECT_TRUE(r.blob().empty());
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.exhausted());
}

TEST(SerdeTest, TruncationDetected) {
  ByteWriter w;
  w.u64(7);
  Bytes data = w.take();
  data.pop_back();
  ByteReader r(data);
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(SerdeTest, TruncatedBlobBodyDetected) {
  ByteWriter w;
  w.blob(bytes_of("0123456789"));
  Bytes data = w.take();
  data.resize(data.size() - 3);
  ByteReader r(data);
  EXPECT_TRUE(r.blob().empty());
  EXPECT_FALSE(r.ok());
}

TEST(SerdeTest, EmptyReaderFailsCleanly) {
  const Bytes empty;
  ByteReader r(empty);
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_EQ(r.u16(), 0u);
  EXPECT_EQ(r.u32(), 0u);
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_TRUE(r.blob().empty());
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.exhausted());
}

TEST(SerdeTest, ExtremeValues) {
  ByteWriter w;
  w.u64(std::numeric_limits<std::uint64_t>::max());
  w.i64(std::numeric_limits<std::int64_t>::min());
  w.f64(-0.0);
  w.f64(std::numeric_limits<double>::infinity());
  ByteReader r(w.data());
  EXPECT_EQ(r.u64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(r.i64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(r.f64(), 0.0);
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::infinity());
  EXPECT_TRUE(r.ok());
}

TEST(SerdeTest, DeterministicEncoding) {
  // Two writers encoding the same fields must produce identical bytes —
  // signatures are computed over the encoding.
  auto encode = [] {
    ByteWriter w;
    w.u64(1234567);
    w.str("plan");
    w.f64(0.5);
    return w.take();
  };
  EXPECT_EQ(encode(), encode());
}

TEST(SerdeTest, RemainingTracksConsumption) {
  ByteWriter w;
  w.u32(1);
  w.u32(2);
  ByteReader r(w.data());
  EXPECT_EQ(r.remaining(), 8u);
  (void)r.u32();
  EXPECT_EQ(r.remaining(), 4u);
  (void)r.u32();
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(SerdeTest, FirstErrorWins) {
  ByteWriter w;
  w.u8(7);
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 7u);
  EXPECT_EQ(r.u32(), 0u);  // short: latches the truncation
  const std::string first = r.error();
  EXPECT_EQ(first, "serde: truncated u32");
  r.fail("unknown enum");
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), first);
  EXPECT_EQ(r.error_or("decoder: truncated").message, "decoder: truncated");

  // A semantic error latched first wins over a later short read, and
  // error_or() hands it back as given.
  ByteReader s(w.data());
  s.fail("unknown enum");
  EXPECT_EQ(s.u8(), 0u);
  EXPECT_EQ(s.error(), "unknown enum");
  EXPECT_EQ(s.error_or("decoder: truncated").message, "unknown enum");
}

TEST(SerdeTest, CountPastTheRemainingBytesReadsZeroAndLatches) {
  ByteWriter w;
  w.u32(3);  // three records of at least 4 bytes each...
  w.u32(1);
  w.u32(2);  // ...but only two follow
  ByteReader r(w.data());
  EXPECT_EQ(r.count(4), 0u);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), "serde: count past the bytes left");

  ByteReader exact(w.data());
  EXPECT_EQ(exact.count(2), 3u);  // 3 x 2 bytes fit in the 8 left
  EXPECT_TRUE(exact.ok());
  EXPECT_EQ(exact.remaining(), 8u);

  ByteWriter huge;
  huge.u32(0xffffffff);
  ByteReader h(huge.data());
  EXPECT_EQ(h.count(1), 0u);
  EXPECT_FALSE(h.ok());
}

TEST(SerdeTest, CursorSitsAtTheEndAfterAFailure) {
  ByteWriter w;
  w.u32(1);
  w.u32(2);
  w.u32(3);
  ByteReader r(w.data());
  EXPECT_EQ(r.u32(), 1u);
  r.fail("bad version");
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(r.u32(), 0u);  // the bytes behind the failure are not read

  // A short blob body moves the cursor past the bytes it could not use.
  ByteWriter longer;
  longer.u32(100);
  longer.u32(0);
  ByteReader t(longer.data());
  EXPECT_TRUE(t.blob().empty());
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.remaining(), 0u);
}

}  // namespace
}  // namespace tlc
