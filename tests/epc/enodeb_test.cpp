#include "epc/enodeb.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace tlc::epc {
namespace {

constexpr Imsi kUe1{1};
constexpr Imsi kUe2{2};

/// Minimal RrcEndpoint standing in for a UE device.
class FakeUe final : public RrcEndpoint {
 public:
  [[nodiscard]] std::uint64_t modem_tx_bytes() const override { return tx_; }
  [[nodiscard]] std::uint64_t modem_rx_bytes() const override { return rx_; }
  void modem_deliver(const sim::Packet& packet) override {
    rx_ += packet.size_bytes;
    delivered.push_back(packet);
  }

  std::uint64_t tx_ = 0;
  std::uint64_t rx_ = 0;
  std::vector<sim::Packet> delivered;
};

sim::RadioChannel good_radio(std::uint64_t seed = 1) {
  sim::RadioParams params;
  params.mean_rss_dbm = -70.0;  // negligible BLER
  return sim::RadioChannel(params, Rng(seed));
}

sim::Packet packet_of(std::uint32_t bytes, sim::Qci qci = sim::Qci::kQci9,
                      std::uint64_t id = 1) {
  sim::Packet p;
  p.id = id;
  p.size_bytes = bytes;
  p.qci = qci;
  p.direction = sim::Direction::Downlink;
  return p;
}

struct EnodebFixture : public ::testing::Test {
  EnodebFixture()
      : radio1(good_radio(1)), radio2(good_radio(2)),
        enodeb(sim, params(), Rng(99)) {
    enodeb.add_ue(kUe1, &ue1, &radio1);
    enodeb.add_ue(kUe2, &ue2, &radio2);
  }

  static EnodebParams params() {
    EnodebParams p;
    p.dl_capacity_bps = 8e6;  // 1 byte/us: easy math
    p.ul_capacity_bps = 8e6;
    p.queue_limit_bytes = 10000;
    return p;
  }

  sim::Simulator sim;
  sim::RadioChannel radio1;
  sim::RadioChannel radio2;
  FakeUe ue1;
  FakeUe ue2;
  EnodeB enodeb;
};

TEST_F(EnodebFixture, DownlinkDelivery) {
  enodeb.downlink_submit(kUe1, packet_of(1000));
  sim.run_until(kMinute);
  ASSERT_EQ(ue1.delivered.size(), 1u);
  EXPECT_EQ(ue1.rx_, 1000u);
  EXPECT_EQ(enodeb.stats().dl_delivered, 1u);
}

TEST_F(EnodebFixture, UnknownUeDiscardedSilently) {
  enodeb.downlink_submit(Imsi{42}, packet_of(1000));
  sim.run_until(kSecond);
  EXPECT_EQ(enodeb.stats().dl_delivered, 0u);
}

TEST_F(EnodebFixture, StrictPriorityAcrossQci) {
  // Fill with QCI9, then submit one QCI7 packet: it must be delivered
  // before the remaining best-effort backlog.
  for (int i = 0; i < 5; ++i) {
    enodeb.downlink_submit(kUe1, packet_of(1000, sim::Qci::kQci9, 10 + i));
  }
  enodeb.downlink_submit(kUe1, packet_of(1000, sim::Qci::kQci7, 99));
  sim.run_until(kMinute);
  ASSERT_EQ(ue1.delivered.size(), 6u);
  // The first packet had already started serving; the QCI7 packet must
  // be second at the latest.
  EXPECT_EQ(ue1.delivered[1].id, 99u);
}

TEST_F(EnodebFixture, SharedQueueDropTail) {
  // Queue limit 10000 bytes: the 11th 1000-byte packet submitted
  // back-to-back overflows (the first is in service).
  int accepted = 0;
  for (int i = 0; i < 15; ++i) {
    enodeb.downlink_submit(kUe1, packet_of(1000));
    ++accepted;
  }
  sim.run_until(kMinute);
  EXPECT_GT(enodeb.stats().dl_queue_drops, 0u);
  EXPECT_EQ(enodeb.stats().dl_delivered + enodeb.stats().dl_queue_drops,
            static_cast<std::uint64_t>(accepted));
}

TEST_F(EnodebFixture, UplinkForwardsToSink) {
  std::vector<std::pair<Imsi, sim::Packet>> forwarded;
  enodeb.set_uplink_sink([&](Imsi imsi, const sim::Packet& p) {
    forwarded.emplace_back(imsi, p);
  });
  sim::Packet p = packet_of(500);
  p.direction = sim::Direction::Uplink;
  enodeb.uplink_submit(kUe1, p);
  sim.run_until(kSecond);
  ASSERT_EQ(forwarded.size(), 1u);
  EXPECT_EQ(forwarded[0].first, kUe1);
  EXPECT_EQ(enodeb.stats().ul_delivered, 1u);
}

TEST_F(EnodebFixture, UplinkActivityEstablishesRrc) {
  EXPECT_FALSE(enodeb.rrc_connected(kUe1));
  sim::Packet p = packet_of(100);
  p.direction = sim::Direction::Uplink;
  enodeb.uplink_submit(kUe1, p);
  EXPECT_TRUE(enodeb.rrc_connected(kUe1));
  EXPECT_EQ(enodeb.stats().rrc_setups, 1u);
}

TEST_F(EnodebFixture, RrcReleasedAfterInactivityWithCounterCheck) {
  std::vector<std::uint64_t> reported_rx;
  enodeb.set_counter_check_handler(
      [&](Imsi, std::uint64_t, std::uint64_t dl, SimTime) {
        reported_rx.push_back(dl);
      });
  enodeb.downlink_submit(kUe1, packet_of(1000));
  sim.run_until(kMinute);  // inactivity timeout is 10 s
  EXPECT_FALSE(enodeb.rrc_connected(kUe1));
  EXPECT_EQ(enodeb.stats().rrc_releases, 1u);
  // §5.4: release triggers a COUNTER CHECK reporting the modem counter.
  ASSERT_EQ(reported_rx.size(), 1u);
  EXPECT_EQ(reported_rx[0], 1000u);
}

TEST_F(EnodebFixture, OnDemandCounterCheck) {
  std::uint64_t reported = 0;
  int checks = 0;
  enodeb.set_counter_check_handler(
      [&](Imsi, std::uint64_t, std::uint64_t dl, SimTime) {
        reported = dl;
        ++checks;
      });
  enodeb.downlink_submit(kUe1, packet_of(700));
  sim.run_until(kSecond);
  enodeb.request_counter_check(kUe1);
  sim.run_until(2 * kSecond);
  EXPECT_EQ(checks, 1);
  EXPECT_EQ(reported, 700u);
}

TEST_F(EnodebFixture, DetachFlushesQueuedTraffic) {
  for (int i = 0; i < 5; ++i) {
    enodeb.downlink_submit(kUe1, packet_of(1000));
  }
  enodeb.remove_ue(kUe1);
  sim.run_until(kMinute);
  // At most the packet already in service got out.
  EXPECT_LE(ue1.delivered.size(), 1u);
  EXPECT_GE(enodeb.stats().dl_flushed, 4u);
  EXPECT_FALSE(enodeb.has_ue(kUe1));
}

TEST_F(EnodebFixture, DlBacklogAfterPartialDrainAndFlush) {
  // At 1 byte/us: UE 1's first QCI 9 packet enters service at t=0, its
  // two QCI 7 packets follow at 1.0 and 1.4 ms, and its second QCI 9
  // packet enters service at 1.8 ms. UE 2's packets wait behind.
  for (int i = 0; i < 5; ++i) {
    enodeb.downlink_submit(kUe1, packet_of(1000, sim::Qci::kQci9));
  }
  enodeb.downlink_submit(kUe2, packet_of(1000, sim::Qci::kQci9));
  enodeb.downlink_submit(kUe2, packet_of(1000, sim::Qci::kQci9));
  enodeb.downlink_submit(kUe1, packet_of(400, sim::Qci::kQci7));
  enodeb.downlink_submit(kUe1, packet_of(400, sim::Qci::kQci7));
  EXPECT_EQ(enodeb.dl_backlog(kUe1), 4800u);
  EXPECT_EQ(enodeb.dl_backlog(kUe2), 2000u);

  sim.run_until(2 * kMillisecond);
  EXPECT_EQ(enodeb.dl_backlog(kUe1), 3000u);
  EXPECT_EQ(enodeb.dl_backlog(kUe2), 2000u);

  // Detach flushes only UE 1's queued packets.
  enodeb.remove_ue(kUe1);
  EXPECT_EQ(enodeb.dl_backlog(kUe1), 0u);
  EXPECT_EQ(enodeb.dl_backlog(kUe2), 2000u);
  EXPECT_EQ(enodeb.stats().dl_flushed, 3u);

  sim.run_until(kMinute);
  EXPECT_EQ(enodeb.dl_backlog(kUe2), 0u);
  EXPECT_EQ(ue2.delivered.size(), 2u);
}

TEST(EnodebOutageTest, BuffersAcrossShortOutage) {
  // UE disconnected from t=0: packets queue; they drain once the radio
  // returns — the Fig 4 buffering behaviour.
  sim::Simulator sim;
  sim::RadioParams rp;
  rp.mean_rss_dbm = -70.0;
  rp.disconnect_ratio = 0.5;  // alternating ~3 s outages and coverage
  rp.mean_outage_s = 3.0;
  sim::RadioChannel radio(rp, Rng(21));
  FakeUe ue;
  EnodebParams params;
  params.dl_capacity_bps = 80e6;
  params.queue_limit_bytes = 1 << 20;
  params.pdb_discard_factor = 0.0;  // isolate pure buffering behaviour
  EnodeB enodeb(sim, params, Rng(22));
  enodeb.add_ue(Imsi{5}, &ue, &radio);
  for (int i = 0; i < 20; ++i) {
    enodeb.downlink_submit(Imsi{5}, packet_of(1000));
  }
  sim.run_until(5 * kMinute);
  // Outages only delay: the queue never overflows, and everything is
  // eventually delivered (rare air drops can occur when a transmission
  // straddles an outage edge).
  EXPECT_EQ(enodeb.stats().dl_queue_drops, 0u);
  EXPECT_EQ(ue.delivered.size() + enodeb.stats().dl_air_drops, 20u);
  EXPECT_GE(ue.delivered.size(), 18u);
}

TEST(EnodebAirLossTest, WeakSignalDropsPackets) {
  sim::Simulator sim;
  sim::RadioParams rp;
  rp.mean_rss_dbm = -112.0;  // ~50% BLER
  rp.rss_stddev_db = 0.5;
  sim::RadioChannel radio(rp, Rng(31));
  FakeUe ue;
  EnodebParams params;
  params.queue_limit_bytes = 64 << 20;
  EnodeB enodeb(sim, params, Rng(32));
  enodeb.add_ue(Imsi{6}, &ue, &radio);
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    enodeb.downlink_submit(Imsi{6}, packet_of(1000));
  }
  sim.run_until(kMinute);
  const auto& stats = enodeb.stats();
  EXPECT_EQ(stats.dl_delivered + stats.dl_air_drops,
            static_cast<std::uint64_t>(n));
  const double drop_rate =
      static_cast<double>(stats.dl_air_drops) / static_cast<double>(n);
  EXPECT_GT(drop_rate, 0.25);
  EXPECT_LT(drop_rate, 0.75);
}

}  // namespace
}  // namespace tlc::epc
