#include "core/poc_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "crypto/hmac.hpp"
#include "util/serde.hpp"

namespace tlc::core {
namespace {

PlanRef plan_at(SimTime start) { return PlanRef{start, start + kHour, 0.5}; }

TEST(PocStoreTest, AddAndFind) {
  PocStore store;
  EXPECT_TRUE(store.empty());
  store.add(plan_at(0), bytes_of("poc-0"));
  store.add(plan_at(kHour), bytes_of("poc-1"));
  EXPECT_EQ(store.size(), 2u);
  auto entry = store.find_cycle(kHour);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->poc_wire, bytes_of("poc-1"));
  EXPECT_FALSE(store.find_cycle(5 * kHour).has_value());
}

TEST(PocStoreTest, StoredBytes) {
  PocStore store;
  store.add(plan_at(0), Bytes(796, 0xaa));  // paper-sized PoC
  store.add(plan_at(kHour), Bytes(796, 0xbb));
  EXPECT_EQ(store.stored_bytes(), 1592u);
}

TEST(PocStoreTest, SerializeRoundTrip) {
  PocStore store;
  store.add(plan_at(0), bytes_of("alpha"));
  store.add(PlanRef{kHour, 2 * kHour, 0.25}, bytes_of("beta"));
  auto back = PocStore::deserialize(store.serialize());
  ASSERT_TRUE(back);
  EXPECT_EQ(back->entries(), store.entries());
}

TEST(PocStoreTest, CorruptionDetected) {
  PocStore store;
  store.add(plan_at(0), bytes_of("receipt"));
  Bytes data = store.serialize();
  data[data.size() / 2] ^= 0x01;
  EXPECT_FALSE(PocStore::deserialize(data));
}

TEST(PocStoreTest, TruncationDetected) {
  PocStore store;
  store.add(plan_at(0), bytes_of("receipt"));
  Bytes data = store.serialize();
  data.resize(data.size() - 10);
  EXPECT_FALSE(PocStore::deserialize(data));
  EXPECT_FALSE(PocStore::deserialize(Bytes(8, 0)));
}

TEST(PocStoreTest, EmptyStoreRoundTrips) {
  PocStore store;
  auto back = PocStore::deserialize(store.serialize());
  ASSERT_TRUE(back);
  EXPECT_TRUE(back->empty());
}

TEST(PocStoreTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/tlc_poc_store_test.bin";
  PocStore store;
  store.add(plan_at(0), bytes_of("filed"));
  ASSERT_TRUE(store.save(path).ok());
  auto back = PocStore::load(path);
  ASSERT_TRUE(back);
  EXPECT_EQ(back->entries(), store.entries());
  std::remove(path.c_str());
}

TEST(PocStoreTest, LoadMissingFileFails) {
  EXPECT_FALSE(PocStore::load("/nonexistent/poc.bin"));
}

TEST(PocStoreTest, SalvageCleanFileKeepsEverything) {
  const std::string path = ::testing::TempDir() + "/tlc_poc_salvage_clean.bin";
  PocStore store;
  store.add(plan_at(0), bytes_of("alpha"));
  store.add(plan_at(kHour), bytes_of("beta"));
  ASSERT_TRUE(store.save(path).ok());
  auto salvage = PocStore::load_salvage(path);
  ASSERT_TRUE(salvage);
  EXPECT_TRUE(salvage->integrity_ok);
  EXPECT_EQ(salvage->entries_skipped, 0u);
  EXPECT_EQ(salvage->store.entries(), store.entries());
  std::remove(path.c_str());
}

TEST(PocStoreTest, SalvageSkipsAndCountsCorruptEntry) {
  const std::string path = ::testing::TempDir() + "/tlc_poc_salvage_flip.bin";
  PocStore store;
  store.add(plan_at(0), bytes_of("first-receipt"));
  store.add(plan_at(kHour), bytes_of("second-receipt"));
  store.add(plan_at(2 * kHour), bytes_of("third-receipt"));
  ASSERT_TRUE(store.save(path).ok());

  // Flip a byte inside the middle entry's payload: strict load rejects
  // the whole file, salvage keeps the two intact receipts.
  Bytes data = store.serialize();
  const Bytes needle = bytes_of("second-receipt");
  auto at = std::search(data.begin(), data.end(), needle.begin(), needle.end());
  ASSERT_NE(at, data.end());
  *at ^= 0x01;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
  }
  EXPECT_FALSE(PocStore::load(path));
  auto salvage = PocStore::load_salvage(path);
  ASSERT_TRUE(salvage);
  EXPECT_FALSE(salvage->integrity_ok);
  EXPECT_EQ(salvage->entries_skipped, 1u);
  ASSERT_EQ(salvage->store.size(), 2u);
  EXPECT_TRUE(salvage->store.find_cycle(0).has_value());
  EXPECT_FALSE(salvage->store.find_cycle(kHour).has_value());
  EXPECT_TRUE(salvage->store.find_cycle(2 * kHour).has_value());
  std::remove(path.c_str());
}

TEST(PocStoreTest, SalvageTruncationDropsTail) {
  const std::string path = ::testing::TempDir() + "/tlc_poc_salvage_trunc.bin";
  PocStore store;
  store.add(plan_at(0), bytes_of("kept"));
  store.add(plan_at(kHour), bytes_of("lost-to-truncation"));
  Bytes data = store.serialize();
  data.resize(data.size() - 12);  // cuts into the last entry + HMAC tag
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
  }
  EXPECT_FALSE(PocStore::load(path));
  auto salvage = PocStore::load_salvage(path);
  ASSERT_TRUE(salvage);
  EXPECT_FALSE(salvage->integrity_ok);
  EXPECT_EQ(salvage->entries_skipped, 1u);
  ASSERT_EQ(salvage->store.size(), 1u);
  EXPECT_TRUE(salvage->store.find_cycle(0).has_value());
  std::remove(path.c_str());
}

TEST(PocStoreTest, SalvageRejectsDamagedHeader) {
  const std::string path = ::testing::TempDir() + "/tlc_poc_salvage_hdr.bin";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "garbage";
  }
  EXPECT_FALSE(PocStore::load_salvage(path));
  EXPECT_FALSE(PocStore::load_salvage("/nonexistent/poc.bin"));
  std::remove(path.c_str());
}

TEST(PocStoreTest, EntryCountBeyondArchiveIsATypedError) {
  // A well-tagged archive header claiming 4G entries with none behind
  // it: the HMAC key is public, so the tag proves nothing about sizes.
  ByteWriter w;
  w.u32(0x544c4350);  // "TLCP"
  w.u32(3);           // archive version
  w.u32(0xffffffff);  // entry count
  Bytes data = w.take();
  append(data, crypto::hmac_sha256(bytes_of("tlc-poc-store-integrity-v1"),
                                   data));
  auto store = PocStore::deserialize(data);
  ASSERT_FALSE(store.has_value());
  EXPECT_EQ(store.error().rfind("poc store: ", 0), 0u) << store.error();
}

}  // namespace
}  // namespace tlc::core
