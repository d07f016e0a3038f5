// Settlement journal decoding of hostile chunk records: a record whose
// receipt count exceeds what its bytes could hold, or whose receipt
// carries an outcome byte past RejectedTamper, must come back as a
// typed error from open(), not as an allocation or an invalid enum.
#include "transport/settlement_journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "recovery/journal.hpp"
#include "util/serde.hpp"

namespace tlc::transport {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(SettlementJournalTest, OversizedReceiptCountIsATypedError) {
  const std::string path = temp_path("settlement_oversized_count.wal");
  std::remove(path.c_str());
  {
    auto journal = recovery::Journal::open(path);
    ASSERT_TRUE(journal.has_value()) << journal.error();
    ByteWriter w;
    w.u32(0);           // chunk index
    w.u32(0xffffffff);  // receipt count, with no receipts behind it
    ASSERT_TRUE(journal->append(w.take()).ok());
  }
  auto reopened = SettlementJournal::open(path);
  ASSERT_FALSE(reopened.has_value());
  EXPECT_EQ(reopened.error(), "settlement journal: truncated receipt");
  std::remove(path.c_str());
}

TEST(SettlementJournalTest, UnknownReceiptOutcomeIsATypedError) {
  const std::string path = temp_path("settlement_unknown_outcome.wal");
  std::remove(path.c_str());
  {
    auto journal = recovery::Journal::open(path);
    ASSERT_TRUE(journal.has_value()) << journal.error();
    core::SettlementReceipt receipt;
    receipt.outcome = static_cast<core::SettleOutcome>(9);
    ByteWriter w;
    w.u32(0);  // chunk index
    w.u32(1);  // receipt count
    write_receipt(w, receipt);
    for (int counter = 0; counter < 10; ++counter) w.u64(0);  // coded
    ASSERT_TRUE(journal->append(w.take()).ok());
  }
  auto reopened = SettlementJournal::open(path);
  ASSERT_FALSE(reopened.has_value());
  EXPECT_EQ(reopened.error(), "settlement journal: unknown receipt outcome");
  std::remove(path.c_str());
}

TEST(SettlementJournalTest, MinEncodedReceiptSizeMatchesTheCodec) {
  ByteWriter w;
  write_receipt(w, core::SettlementReceipt{});
  EXPECT_EQ(w.size(), kMinEncodedReceiptSize);
}

}  // namespace
}  // namespace tlc::transport
