#include "epc/ofcs.hpp"

#include <gtest/gtest.h>

namespace tlc::epc {
namespace {

constexpr Imsi kUe{9001};

ChargingDataRecord cdr_of(std::uint64_t ul, std::uint64_t dl,
                          std::uint32_t seq = 1000) {
  ChargingDataRecord cdr;
  cdr.served_imsi = kUe;
  cdr.sequence_number = seq;
  cdr.datavolume_uplink = ul;
  cdr.datavolume_downlink = dl;
  return cdr;
}

charging::DataPlan test_plan() {
  charging::DataPlan plan;
  plan.price_micro_per_mb = 10'000;  // 0.01/MB
  plan.quota_bytes = 10 * 1000 * 1000;  // 10 MB quota for easy testing
  return plan;
}

TEST(OfcsTest, AggregatesCdrsIntoCycle) {
  Ofcs ofcs(test_plan());
  ofcs.ingest(cdr_of(1000, 2000));
  ofcs.ingest(cdr_of(500, 1500, 1001));
  const BillLine line = ofcs.close_cycle(kUe);
  EXPECT_EQ(line.cycle_index, 0u);
  EXPECT_EQ(line.gateway_volume, 5000u);
  EXPECT_EQ(line.billed_volume, 5000u);  // legacy: bill the gateway record
  EXPECT_EQ(ofcs.cdrs_ingested(), 2u);
}

TEST(OfcsTest, RatesBillAmount) {
  Ofcs ofcs(test_plan());
  ofcs.ingest(cdr_of(0, 2000000));  // 2 MB
  const BillLine line = ofcs.close_cycle(kUe);
  EXPECT_EQ(line.amount_micro, 20'000u);  // 0.02 in micro-units
}

TEST(OfcsTest, CyclesAreIndependent) {
  Ofcs ofcs(test_plan());
  ofcs.ingest(cdr_of(100, 0));
  (void)ofcs.close_cycle(kUe);
  ofcs.ingest(cdr_of(200, 0));
  const BillLine line = ofcs.close_cycle(kUe);
  EXPECT_EQ(line.cycle_index, 1u);
  EXPECT_EQ(line.gateway_volume, 200u);
}

TEST(OfcsTest, EmptyCycleBillsZero) {
  Ofcs ofcs(test_plan());
  const BillLine line = ofcs.close_cycle(kUe);
  EXPECT_EQ(line.gateway_volume, 0u);
  EXPECT_EQ(line.amount_micro, 0u);
}

TEST(OfcsTest, QuotaTriggersThrottle) {
  // §2.1: "unlimited" plans throttle beyond the quota instead of
  // cutting service.
  Ofcs ofcs(test_plan());
  ofcs.ingest(cdr_of(0, 6000000));
  EXPECT_FALSE(ofcs.close_cycle(kUe).throttled);
  ofcs.ingest(cdr_of(0, 6000000));
  EXPECT_TRUE(ofcs.close_cycle(kUe).throttled);  // 12 MB > 10 MB quota
  const SubscriberBilling* billing = ofcs.billing(kUe);
  ASSERT_NE(billing, nullptr);
  EXPECT_TRUE(billing->throttled);
}

TEST(OfcsTest, TlcHookOverridesBilledVolume) {
  // §6: the TLC policy post-processes the charging records — the bill
  // uses the negotiated x, not the raw gateway CDR.
  Ofcs ofcs(test_plan());
  ofcs.set_charge_hook([](Imsi, std::uint32_t, std::uint64_t gateway) {
    return gateway - 400;  // the negotiated x discounts lost data
  });
  ofcs.ingest(cdr_of(1000, 1000));
  const BillLine line = ofcs.close_cycle(kUe);
  EXPECT_EQ(line.gateway_volume, 2000u);
  EXPECT_EQ(line.billed_volume, 1600u);
  EXPECT_EQ(line.amount_micro, 16u);  // 1600 B * 10000 / 1e6
}

TEST(OfcsTest, ArchiveKeepsAllCdrs) {
  Ofcs ofcs(test_plan());
  ofcs.ingest(cdr_of(1, 0, 1000));
  ofcs.ingest(cdr_of(2, 0, 1001));
  (void)ofcs.close_cycle(kUe);
  ofcs.ingest(cdr_of(3, 0, 1002));
  const auto* archive = ofcs.archive(kUe);
  ASSERT_NE(archive, nullptr);
  EXPECT_EQ(archive->size(), 3u);
  EXPECT_EQ((*archive)[2].sequence_number, 1002u);
}

TEST(OfcsTest, UnknownSubscriberQueries) {
  Ofcs ofcs(test_plan());
  EXPECT_EQ(ofcs.billing(Imsi{404}), nullptr);
  EXPECT_EQ(ofcs.archive(Imsi{404}), nullptr);
}

TEST(OfcsTest, BillingAccumulatesAcrossCycles) {
  Ofcs ofcs(test_plan());
  ofcs.ingest(cdr_of(1000000, 0));
  (void)ofcs.close_cycle(kUe);
  ofcs.ingest(cdr_of(0, 2000000));
  (void)ofcs.close_cycle(kUe);
  const SubscriberBilling* billing = ofcs.billing(kUe);
  ASSERT_NE(billing, nullptr);
  EXPECT_EQ(billing->lines.size(), 2u);
  EXPECT_EQ(billing->total_billed_bytes, 3000000u);
  EXPECT_EQ(billing->total_amount_micro, 30'000u);
}

std::uint32_t u32_at(const Bytes& bytes, std::size_t offset) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) v = (v << 8) | bytes[offset + i];
  return v;
}

Bytes with_u32(Bytes bytes, std::size_t offset, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    bytes[offset + i] = static_cast<std::uint8_t>(v >> (24 - 8 * i));
  }
  return bytes;
}

TEST(OfcsTest, SnapshotCountsPastTheBytesAreTypedErrors) {
  // Each count in a snapshot read from disk once sized a reserve or a
  // resize as it stood: 0xffffffff seen CDRs, archived CDRs or bill
  // lines with nothing behind them threw std::bad_alloc.
  Ofcs empty(test_plan());
  const Bytes empty_snapshot = empty.serialize_state();
  // version, ingested, subscriber count, then the seen-CDR count.
  constexpr std::size_t kSeenCount = 1 + 8 + 4;
  ASSERT_EQ(empty_snapshot.size(), 17u);
  ASSERT_EQ(u32_at(empty_snapshot, kSeenCount), 0u);

  Ofcs one(test_plan());
  one.ingest(cdr_of(1000, 2000));
  const Bytes snapshot = one.serialize_state();
  // The one subscriber's IMSI, then its archive count; after the one
  // 70-byte CDR come pending UL/DL and next_cycle, then the line count.
  constexpr std::size_t kArchiveCount = 1 + 8 + 4 + 8;
  constexpr std::size_t kLineCount = kArchiveCount + 4 + 70 + 8 + 8 + 4;
  ASSERT_EQ(u32_at(snapshot, kArchiveCount), 1u);
  ASSERT_EQ(u32_at(snapshot, kLineCount), 0u);

  for (const Bytes& damaged :
       {with_u32(empty_snapshot, kSeenCount, 0xffffffff),
        with_u32(snapshot, kArchiveCount, 0xffffffff),
        with_u32(snapshot, kLineCount, 0xffffffff)}) {
    Ofcs target(test_plan());
    EXPECT_FALSE(target.restore_state(damaged).ok());
  }
  Ofcs restored(test_plan());
  ASSERT_TRUE(restored.restore_state(snapshot).ok());
  EXPECT_EQ(restored.serialize_state(), snapshot);
}

}  // namespace
}  // namespace tlc::epc
